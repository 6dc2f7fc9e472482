//! Distributed matrix multiplication (paper Section 5.1, Table 1).
//!
//! Host–node model: the host ships the whole B matrix to every node plus
//! an equal block of A's rows; each node computes its block of C = A·B and
//! returns it.
//!
//! Two drivers reproduce the paper's comparison:
//!
//! * [`matmul_p4`] — Figure 13: one single-threaded process per node;
//!   `p4_recv` idles the whole node until its full share has arrived.
//! * [`matmul_ncs`] — Figure 14: two NCS threads per process. Host thread
//!   *t* serves node threads *t*; B is sent to each node **once** (threads
//!   share the address space), and a node's thread 0 starts computing as
//!   soon as its half-share lands while thread 1 is still receiving.
//!
//! The kernels really run; the host verifies the assembled C against a
//! sequential reference before reporting a timing.
//!
//! A third driver, [`matmul_ncs_async`], reworks the NCS variant into
//! fully overlapped nonblocking form on the completion-handle API: one
//! user thread per process posts every transfer with `NCS_isend` /
//! `NCS_irecv`, strips the A/C traffic so `NCS_waitany` can process
//! whichever strip lands first, and computes while the progress engine
//! drains the wire. The X13 bench (`xp_overlap`) decomposes its gain over
//! the blocking form per layer.

use ncs_core::codec::{bytes_to_f64s, f64s_to_bytes};
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{Network, NodeId};
use ncs_p4::create_procgroup;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng};
use std::sync::Arc;

use crate::costs::AppCosts;
use crate::util::charge_compute;
use crate::workloads::Matrix;

/// Message types (p4 style).
const TYPE_B: i32 = 1;
const TYPE_A: i32 = 2;
const TYPE_C: i32 = 3;

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct MatmulConfig {
    /// Matrix dimension (the paper: 128).
    pub dim: usize,
    /// Number of compute nodes (1, 2, 4, 8).
    pub nodes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl MatmulConfig {
    /// The paper's Table 1 workload.
    pub fn paper(nodes: usize) -> MatmulConfig {
        MatmulConfig {
            dim: 128,
            nodes,
            seed: 0x4D4D,
        }
    }
}

/// Outcome of one run.
#[derive(Clone, Copy, Debug)]
pub struct MatmulRun {
    /// End-to-end execution time (host start to all-done).
    pub elapsed: Dur,
    /// Whether the distributed result matched the sequential reference.
    pub verified: bool,
}

/// Sequential kernel: `c_block = a_rows · b` for `rows` rows. The
/// canonical i-k-j loop; every driver uses this same kernel so distributed
/// results are bitwise equal to the reference.
pub fn multiply_block(a_rows: &[f64], b: &Matrix, rows: usize) -> Vec<f64> {
    let n = b.cols;
    assert_eq!(a_rows.len(), rows * b.rows);
    let mut c = vec![0.0; rows * n];
    for i in 0..rows {
        for k in 0..b.rows {
            let aik = a_rows[i * b.rows + k];
            let brow = &b.data[k * n..(k + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
    c
}

/// Full sequential multiply (reference).
pub fn multiply(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows);
    Matrix {
        rows: a.rows,
        cols: b.cols,
        data: multiply_block(&a.data, b, a.rows),
    }
}

/// MAC count for a `rows × dim` by `dim × dim` block product.
fn block_macs(rows: usize, dim: usize) -> u64 {
    rows as u64 * dim as u64 * dim as u64
}

fn workload(cfg: &MatmulConfig) -> (Matrix, Matrix, Matrix) {
    let mut rng = SimRng::new(cfg.seed);
    let a = Matrix::random(cfg.dim, cfg.dim, &mut rng);
    let b = Matrix::random(cfg.dim, cfg.dim, &mut rng);
    let expect = multiply(&a, &b);
    (a, b, expect)
}

/// Runs the p4 (single-threaded) variant on `net` and reports the timing.
pub fn matmul_p4(net: Arc<dyn Network>, cfg: MatmulConfig) -> MatmulRun {
    let sim = Sim::new();
    let handle = setup_matmul_p4(&sim, net, cfg);
    let out = sim.run();
    out.assert_clean();
    MatmulRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
    }
}

/// Runs the NCS_MTS/p4 (two threads per process) variant.
pub fn matmul_ncs(net: Arc<dyn Network>, cfg: MatmulConfig) -> MatmulRun {
    matmul_ncs_configured(net, cfg, ncs_mts::MtsConfig::default())
}

/// [`matmul_ncs`] with an explicit MTS scheduler configuration (used by
/// the context-switch ablation).
pub fn matmul_ncs_configured(
    net: Arc<dyn Network>,
    cfg: MatmulConfig,
    mts: ncs_mts::MtsConfig,
) -> MatmulRun {
    let sim = Sim::new();
    let ncs_cfg = NcsConfig {
        mts,
        ..NcsConfig::default()
    };
    let handle = setup_matmul_ncs_with(&sim, net, cfg, ncs_cfg);
    let out = sim.run();
    out.assert_clean();
    MatmulRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
    }
}

/// Deferred verification handle (the result matrix materializes when the
/// simulation runs).
pub struct MatmulHandle {
    expect: Matrix,
    got: Arc<Mutex<Option<Matrix>>>,
}

impl MatmulHandle {
    /// True if the assembled distributed result matches the reference.
    pub fn verify(&self) -> bool {
        match self.got.lock().as_ref() {
            Some(c) => c.max_abs_diff(&self.expect) == 0.0,
            None => false,
        }
    }
}

/// Schedules the p4 variant onto an existing simulation (used by the
/// timeline figures); the caller runs the sim.
pub fn setup_matmul_p4(sim: &Sim, net: Arc<dyn Network>, cfg: MatmulConfig) -> MatmulHandle {
    let (a, b, expect) = workload(&cfg);
    let got: Arc<Mutex<Option<Matrix>>> = Arc::new(Mutex::new(None));
    let dim = cfg.dim;
    let nodes = cfg.nodes;
    assert!(
        dim.is_multiple_of(nodes),
        "dim must divide evenly across nodes"
    );

    if nodes == 1 {
        // Sequential baseline on one workstation: no communication.
        let got2 = Arc::clone(&got);
        let host = net.host(NodeId(0)).clone();
        let costs = AppCosts::for_host(&host);
        sim.spawn("p4-seq", move |ctx| {
            let c = multiply(&a, &b);
            charge_compute(
                ctx,
                &host,
                "proc0/main",
                "matmul",
                block_macs(dim, dim) * costs.mac_cycles,
            );
            *got2.lock() = Some(c);
        });
        return MatmulHandle { expect, got };
    }

    let rows_per = dim / nodes;
    let a = Arc::new(a);
    let b = Arc::new(b);
    let got2 = Arc::clone(&got);
    create_procgroup(sim, net, nodes + 1, move |ctx, p| {
        let costs = AppCosts::for_host(p.net().host(NodeId(p.my_id() as u32)));
        if p.my_id() == 0 {
            // Host (Figure 13): distribute, then collect.
            let b_bytes = f64s_to_bytes(&b.data);
            for i in 1..=nodes {
                p.send(ctx, TYPE_B, i, b_bytes.clone());
                let lo = (i - 1) * rows_per;
                p.send(
                    ctx,
                    TYPE_A,
                    i,
                    f64s_to_bytes(a.row_block(lo, lo + rows_per)),
                );
            }
            let mut c = Matrix::zeros(dim, dim);
            for _ in 1..=nodes {
                let m = p.recv(ctx, Some(TYPE_C), None);
                let lo = (m.from - 1) * rows_per;
                c.data[lo * dim..(lo + rows_per) * dim].copy_from_slice(&bytes_to_f64s(&m.data));
            }
            *got2.lock() = Some(c);
        } else {
            // Node: receive everything, compute, reply.
            let bm = p.recv(ctx, Some(TYPE_B), Some(0));
            let am = p.recv(ctx, Some(TYPE_A), Some(0));
            let b = Matrix {
                rows: dim,
                cols: dim,
                data: bytes_to_f64s(&bm.data),
            };
            let a_rows = bytes_to_f64s(&am.data);
            let c = multiply_block(&a_rows, &b, rows_per);
            charge_compute(
                ctx,
                p.net().host(NodeId(p.my_id() as u32)),
                &format!("proc{}/main", p.my_id()),
                "matmul",
                block_macs(rows_per, dim) * costs.mac_cycles,
            );
            p.send(ctx, TYPE_C, 0, f64s_to_bytes(&c));
        }
    });
    MatmulHandle { expect, got }
}

/// Schedules the NCS_MTS/p4 variant (Figure 14) onto an existing
/// simulation.
pub fn setup_matmul_ncs(sim: &Sim, net: Arc<dyn Network>, cfg: MatmulConfig) -> MatmulHandle {
    setup_matmul_ncs_with(sim, net, cfg, NcsConfig::default())
}

/// [`setup_matmul_ncs`] with an explicit NCS configuration.
pub fn setup_matmul_ncs_with(
    sim: &Sim,
    net: Arc<dyn Network>,
    cfg: MatmulConfig,
    ncs_cfg: NcsConfig,
) -> MatmulHandle {
    let (a, b, expect) = workload(&cfg);
    let got: Arc<Mutex<Option<Matrix>>> = Arc::new(Mutex::new(None));
    let dim = cfg.dim;
    let nodes = cfg.nodes;
    assert!(
        dim.is_multiple_of(nodes) && (dim / nodes).is_multiple_of(2),
        "rows must split across 2 threads"
    );
    let rows_per = dim / nodes; // per node
    let rows_half = rows_per / 2; // per thread

    let a = Arc::new(a);
    let b = Arc::new(b);
    let got2 = Arc::clone(&got);

    if nodes == 1 {
        // Two threads split the work locally; the comparison point for the
        // paper's single-node "threading overhead" rows.
        let host = net.host(NodeId(0)).clone();
        let costs = AppCosts::for_host(&host);
        let c_shared: Arc<Mutex<Matrix>> = Arc::new(Mutex::new(Matrix::zeros(dim, dim)));
        let done: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
        NcsWorld::launch(sim, vec![net], 1, ncs_cfg, move |_, proc_| {
            let half = dim / 2;
            for t in 0..2usize {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                let c_shared = Arc::clone(&c_shared);
                let done = Arc::clone(&done);
                let got = Arc::clone(&got2);
                proc_.t_create(format!("compute{t}"), 5, move |ncs| {
                    let lo = t * half;
                    let block = multiply_block(a.row_block(lo, lo + half), &b, half);
                    ncs.compute(block_macs(half, dim) * costs.mac_cycles, "matmul");
                    let mut c = c_shared.lock();
                    c.data[lo * dim..(lo + half) * dim].copy_from_slice(&block);
                    let mut d = done.lock();
                    *d += 1;
                    if *d == 2 {
                        *got.lock() = Some(c.clone());
                    }
                });
            }
        });
        return MatmulHandle { expect, got };
    }

    NcsWorld::launch(sim, vec![net], nodes + 1, ncs_cfg, move |id, proc_| {
        let costs = AppCosts::for_host(proc_.host());
        if id == 0 {
            // Host threads (Figure 14): thread t serves node threads t.
            let c_shared: Arc<Mutex<Matrix>> = Arc::new(Mutex::new(Matrix::zeros(dim, dim)));
            let done: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
            for t in 0..2u32 {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                let c_shared = Arc::clone(&c_shared);
                let done = Arc::clone(&done);
                let got = Arc::clone(&got2);
                proc_.t_create(format!("host-t{t}"), 5, move |ncs| {
                    let b_bytes = f64s_to_bytes(&b.data);
                    for i in 1..=nodes {
                        if t == 0 {
                            // B goes to each node exactly once, via thread 0.
                            ncs.send(ThreadAddr::new(i, 0), TYPE_B as u32, b_bytes.clone());
                        }
                        let lo = (i - 1) * rows_per + (t as usize) * rows_half;
                        ncs.send(
                            ThreadAddr::new(i, t),
                            TYPE_A as u32,
                            f64s_to_bytes(a.row_block(lo, lo + rows_half)),
                        );
                    }
                    for _ in 1..=nodes {
                        let m = ncs.recv(None, Some(t), Some(TYPE_C as u32));
                        let lo = (m.from.proc - 1) * rows_per + (t as usize) * rows_half;
                        let mut c = c_shared.lock();
                        c.data[lo * dim..(lo + rows_half) * dim]
                            .copy_from_slice(&bytes_to_f64s(&m.data));
                    }
                    let mut d = done.lock();
                    *d += 1;
                    if *d == 2 {
                        *got.lock() = Some(c_shared.lock().clone());
                    }
                });
            }
        } else {
            // Node threads: thread 0 also receives B and shares it.
            let b_slot: Arc<Mutex<Option<Arc<Matrix>>>> = Arc::new(Mutex::new(None));
            for t in 0..2u32 {
                let b_slot = Arc::clone(&b_slot);
                proc_.t_create(format!("node-t{t}"), 5, move |ncs| {
                    if t == 0 {
                        let bm = ncs.recv(Some(0), Some(0), Some(TYPE_B as u32));
                        *b_slot.lock() = Some(Arc::new(Matrix {
                            rows: dim,
                            cols: dim,
                            data: bytes_to_f64s(&bm.data),
                        }));
                        // B is in shared memory now; wake the sibling.
                        ncs.signal(ThreadAddr::new(ncs.proc().id(), 1));
                    } else {
                        ncs.wait_signal(Some(ThreadAddr::new(ncs.proc().id(), 0)));
                    }
                    let bmat = Arc::clone(b_slot.lock().as_ref().expect("B present"));
                    let am = ncs.recv(Some(0), Some(t), Some(TYPE_A as u32));
                    let a_rows = bytes_to_f64s(&am.data);
                    let block = multiply_block(&a_rows, &bmat, rows_half);
                    ncs.compute(block_macs(rows_half, dim) * costs.mac_cycles, "matmul");
                    ncs.send(ThreadAddr::new(0, t), TYPE_C as u32, f64s_to_bytes(&block));
                });
            }
        }
    });
    MatmulHandle { expect, got }
}

/// Largest strip count (of 8/4/2/1) that divides `rows_per` evenly: more
/// strips give `waitany` more reordering freedom and the compute loop a
/// finer overlap pipeline, but every strip must be a whole row block.
fn strip_count(rows_per: usize) -> usize {
    [8usize, 4, 2]
        .into_iter()
        .find(|s| rows_per.is_multiple_of(*s))
        .unwrap_or(1)
}

/// Strip-tag scheme: A strips and C strips ride distinct tag ranges so
/// wildcard-free matching stays exact (B keeps its p4-style type tag).
fn tag_a(strip: usize) -> u32 {
    0x100 + strip as u32
}
fn tag_c(strip: usize) -> u32 {
    0x200 + strip as u32
}

/// Runs the fully overlapped nonblocking variant and reports the timing.
pub fn matmul_ncs_async(net: Arc<dyn Network>, cfg: MatmulConfig) -> MatmulRun {
    let sim = Sim::new();
    let handle = setup_matmul_ncs_async_with(&sim, net, cfg, NcsConfig::default());
    let out = sim.run();
    out.assert_clean();
    MatmulRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
    }
}

/// Schedules the overlapped nonblocking variant onto an existing
/// simulation: single user thread per process, every transfer posted
/// asynchronously, completion order (not program order) drives the work.
///
/// Overlap comes from three layers, which `xp_overlap` (X13) measures
/// separately:
///
/// * **send pipelining** — the host posts B plus every A strip back to
///   back; the send system thread drains them while the host moves on to
///   collecting C (the blocking form pays each transfer's wire time in the
///   caller);
/// * **compute/transfer overlap** — a node computes strip *k* while the
///   progress engine is still receiving strip *k+1* and transmitting the
///   finished C strip *k−1*;
/// * **completion-order freedom** — `NCS_waitany` hands the host/node
///   whichever strip lands first instead of the posting order.
pub fn setup_matmul_ncs_async_with(
    sim: &Sim,
    net: Arc<dyn Network>,
    cfg: MatmulConfig,
    ncs_cfg: NcsConfig,
) -> MatmulHandle {
    let (a, b, expect) = workload(&cfg);
    let got: Arc<Mutex<Option<Matrix>>> = Arc::new(Mutex::new(None));
    let dim = cfg.dim;
    let nodes = cfg.nodes;
    assert!(
        dim.is_multiple_of(nodes),
        "dim must divide evenly across nodes"
    );
    let rows_per = dim / nodes;
    let strips = strip_count(rows_per);
    let strip_rows = rows_per / strips;

    let a = Arc::new(a);
    let b = Arc::new(b);
    let got2 = Arc::clone(&got);

    if nodes == 1 {
        // Sequential baseline: nothing to overlap on one workstation.
        let host = net.host(NodeId(0)).clone();
        let costs = AppCosts::for_host(&host);
        NcsWorld::launch(sim, vec![net], 1, ncs_cfg, move |_, proc_| {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let got = Arc::clone(&got2);
            proc_.t_create("compute", 5, move |ncs| {
                let c = multiply(&a, &b);
                ncs.compute(block_macs(dim, dim) * costs.mac_cycles, "matmul");
                *got.lock() = Some(c);
            });
        });
        return MatmulHandle { expect, got };
    }

    NcsWorld::launch(sim, vec![net], nodes + 1, ncs_cfg, move |id, proc_| {
        let costs = AppCosts::for_host(proc_.host());
        if id == 0 {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let got = Arc::clone(&got2);
            proc_.t_create("host", 5, move |ncs| {
                // Post *everything* up front: B once per node, then every
                // A strip. The posts return immediately; the send system
                // thread owns the wire from here.
                let b_bytes = f64s_to_bytes(&b.data);
                let mut sends = Vec::with_capacity(nodes * (1 + strips));
                for i in 1..=nodes {
                    sends.push(ncs.isend(ThreadAddr::new(i, 0), TYPE_B as u32, b_bytes.clone()));
                }
                for i in 1..=nodes {
                    for s in 0..strips {
                        let lo = (i - 1) * rows_per + s * strip_rows;
                        sends.push(ncs.isend(
                            ThreadAddr::new(i, 0),
                            tag_a(s),
                            f64s_to_bytes(a.row_block(lo, lo + strip_rows)),
                        ));
                    }
                }
                // Collect C strips in completion order: whichever node
                // finishes a strip first gets copied first.
                let mut pending = Vec::with_capacity(nodes * strips);
                let mut meta = Vec::with_capacity(nodes * strips);
                for i in 1..=nodes {
                    for s in 0..strips {
                        pending.push(ncs.irecv(Some(i), None, Some(tag_c(s))));
                        meta.push((i, s));
                    }
                }
                let mut c = Matrix::zeros(dim, dim);
                while !pending.is_empty() {
                    let (idx, m) = ncs.waitany(&pending);
                    let m = m.expect("C strip");
                    let (i, s) = meta[idx];
                    pending.swap_remove(idx);
                    meta.swap_remove(idx);
                    let lo = (i - 1) * rows_per + s * strip_rows;
                    c.data[lo * dim..(lo + strip_rows) * dim]
                        .copy_from_slice(&bytes_to_f64s(&m.data));
                }
                for h in sends {
                    ncs.wait(h);
                }
                *got.lock() = Some(c);
            });
        } else {
            proc_.t_create("node", 5, move |ncs| {
                // Post the B receive and every A-strip receive before
                // touching any payload, so arrivals never wait for the app.
                let hb = ncs.irecv(Some(0), None, Some(TYPE_B as u32));
                let mut pending: Vec<_> = (0..strips)
                    .map(|s| ncs.irecv(Some(0), None, Some(tag_a(s))))
                    .collect();
                let mut meta: Vec<usize> = (0..strips).collect();
                let bm = ncs.wait(hb).expect("B matrix");
                let bmat = Matrix {
                    rows: dim,
                    cols: dim,
                    data: bytes_to_f64s(&bm.data),
                };
                // Compute strips in arrival order; each finished C strip is
                // posted asynchronously so its wire time overlaps the next
                // strip's compute.
                let mut sends = Vec::with_capacity(strips);
                while !pending.is_empty() {
                    let (idx, m) = ncs.waitany(&pending);
                    let s = meta[idx];
                    pending.swap_remove(idx);
                    meta.swap_remove(idx);
                    let a_rows = bytes_to_f64s(&m.expect("A strip").data);
                    let block = multiply_block(&a_rows, &bmat, strip_rows);
                    ncs.compute(block_macs(strip_rows, dim) * costs.mac_cycles, "matmul");
                    sends.push(ncs.isend(
                        ThreadAddr::new(0, 0),
                        tag_c(s),
                        f64s_to_bytes(&block),
                    ));
                }
                for h in sends {
                    ncs.wait(h);
                }
            });
        }
    });
    MatmulHandle { expect, got }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::atm::{AtmFabric, AtmLanParams};
    use ncs_net::{AtmApiNet, AtmApiParams, HostParams, IdealFabric, TcpNet, TcpParams};

    fn fast_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(n, Dur::from_micros(20)));
        let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
    }

    /// The FORE-LAN ATM stack with hosts fast enough that the wire — not
    /// the host CPU — is what overlap has to hide.
    fn hsm_fast_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(n)));
        let hosts = vec![HostParams::test_fast(); n];
        Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()))
    }

    #[test]
    fn sequential_kernel_matches_naive() {
        let mut rng = SimRng::new(1);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, 16, &mut rng);
        let c = multiply(&a, &b);
        // Naive triple loop in i-j-k order.
        for i in 0..16 {
            for j in 0..16 {
                let mut s = 0.0;
                for k in 0..16 {
                    s += a.at(i, k) * b.at(k, j);
                }
                assert!((c.at(i, j) - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn p4_variant_verifies() {
        for nodes in [1, 2, 4] {
            let cfg = MatmulConfig {
                dim: 32,
                nodes,
                seed: 7,
            };
            let run = matmul_p4(fast_net(nodes + 1), cfg);
            assert!(run.verified, "{nodes} nodes");
            assert!(run.elapsed > Dur::ZERO);
        }
    }

    #[test]
    fn ncs_variant_verifies() {
        for nodes in [1, 2, 4] {
            let cfg = MatmulConfig {
                dim: 32,
                nodes,
                seed: 7,
            };
            let run = matmul_ncs(fast_net(nodes + 1), cfg);
            assert!(run.verified, "{nodes} nodes");
            assert!(run.elapsed > Dur::ZERO);
        }
    }

    #[test]
    fn async_variant_verifies() {
        for nodes in [1, 2, 4] {
            let cfg = MatmulConfig {
                dim: 32,
                nodes,
                seed: 7,
            };
            let run = matmul_ncs_async(fast_net(nodes + 1), cfg);
            assert!(run.verified, "{nodes} nodes");
            assert!(run.elapsed > Dur::ZERO);
        }
    }

    #[test]
    fn async_variant_overlaps_at_paper_scale() {
        // At the paper's dim-128 workload over the ATM LAN the overlapped
        // form must beat the blocking two-thread form: the host pipelines
        // its sends and the nodes compute while strips are still in
        // flight. (On a stack whose host CPU saturates — sparc_ipx — or a
        // zero-cost wire the margin collapses; xp_overlap measures both
        // regimes.)
        let cfg = MatmulConfig {
            dim: 128,
            nodes: 2,
            seed: 0x4D4D,
        };
        let blocking = matmul_ncs(hsm_fast_net(3), cfg);
        let overlapped = matmul_ncs_async(hsm_fast_net(3), cfg);
        assert!(blocking.verified && overlapped.verified);
        assert!(
            overlapped.elapsed < blocking.elapsed,
            "overlapped {:?} not faster than blocking {:?}",
            overlapped.elapsed,
            blocking.elapsed
        );
    }

    #[test]
    fn both_variants_same_result_different_time() {
        let cfg = MatmulConfig {
            dim: 32,
            nodes: 2,
            seed: 9,
        };
        let a = matmul_p4(fast_net(3), cfg);
        let b = matmul_ncs(fast_net(3), cfg);
        assert!(a.verified && b.verified);
        assert_ne!(a.elapsed, b.elapsed);
    }
}
