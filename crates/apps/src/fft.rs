//! Decimation-in-frequency FFT (paper Section 5.3, Table 3, Figs. 19–21).
//!
//! # The paper's distribution
//!
//! With `M` sample points and `T` units (p4: `T = N` processes; NCS:
//! `T = 2N` threads), each unit owns `c = M/(2T)` butterfly *rows*: arrays
//! `A = V[base .. base+c]` and `B = V[base + D .. base+D+c]`, the top and
//! bottom inputs of its butterflies. Every stage computes
//!
//! ```text
//! X = A + B          (stays in the top sub-problem)
//! Y = (A − B) · Wᵏ   (moves to the bottom sub-problem)
//! ```
//!
//! For the first `log₂ T` stages the partner rows live on another unit:
//! the unit in the lower half of its group keeps `X` and receives the
//! partner's `X` (it continues in the top sub-problem); the upper unit
//! sends its `X`, keeps `Y`, and receives the partner's `Y`. After the
//! exchanges, each unit owns one contiguous sub-problem of size `2c` and
//! finishes with plain local DIF stages — for NCS the **last exchange
//! partner is the sibling thread on the same node**, which is exactly the
//! paper's "the last communication step is local" observation.
//!
//! Everything is verified: the assembled distributed spectrum must match
//! the sequential DIF to ~1e-9 and a naive O(M²) DFT to numerical
//! tolerance.

use bytes::Bytes;
use ncs_core::codec::{bytes_to_complex, complex_to_bytes};
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{Network, NodeId};
use ncs_p4::create_procgroup;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng};
use std::f64::consts::PI;
use std::sync::Arc;

use crate::costs::AppCosts;
use crate::util::charge_compute;
use crate::workloads::test_signal;

/// A complex sample.
pub type Cx = (f64, f64);

#[inline]
fn cadd(a: Cx, b: Cx) -> Cx {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn csub(a: Cx, b: Cx) -> Cx {
    (a.0 - b.0, a.1 - b.1)
}

#[inline]
fn cmul(a: Cx, b: Cx) -> Cx {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Twiddle factor `W_m^k = exp(-2πik/m)`.
#[inline]
pub fn twiddle(k: usize, m: usize) -> Cx {
    let ang = -2.0 * PI * k as f64 / m as f64;
    (ang.cos(), ang.sin())
}

/// Bit-reverses `i` within `bits` bits.
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// In-place sequential DIF FFT; output is left in bit-reversed order.
pub fn dif_fft_in_place(x: &mut [Cx]) {
    let m = x.len();
    assert!(m.is_power_of_two(), "FFT length must be a power of two");
    let mut size = m;
    while size > 1 {
        let half = size / 2;
        for block in (0..m).step_by(size) {
            for j in 0..half {
                let a = x[block + j];
                let b = x[block + j + half];
                x[block + j] = cadd(a, b);
                x[block + j + half] = cmul(csub(a, b), twiddle(j, size));
            }
        }
        size = half;
    }
}

/// Full sequential FFT returning the spectrum in natural order.
pub fn fft(input: &[Cx]) -> Vec<Cx> {
    let mut v = input.to_vec();
    dif_fft_in_place(&mut v);
    let bits = v.len().trailing_zeros();
    let mut out = vec![(0.0, 0.0); v.len()];
    for (p, &val) in v.iter().enumerate() {
        out[bit_reverse(p, bits)] = val;
    }
    out
}

/// Naive O(M²) DFT — the ground truth for tests.
pub fn naive_dft(input: &[Cx]) -> Vec<Cx> {
    let m = input.len();
    (0..m)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (n, &x) in input.iter().enumerate() {
                acc = cadd(acc, cmul(x, twiddle(k * n % m, m)));
            }
            acc
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The per-unit distributed state machine (shared by the p4 and NCS drivers).
// ---------------------------------------------------------------------------

/// One unit's slice of the computation.
pub struct FftUnit {
    m: usize,
    t: usize,
    u: usize,
    c: usize,
    base: usize,
    a: Vec<Cx>,
    b: Vec<Cx>,
}

/// What a unit must do after computing a cross stage.
pub struct Exchange {
    /// Partner unit index.
    pub partner: usize,
    /// Values to send to the partner.
    pub outgoing: Vec<Cx>,
    /// Whether this unit is the lower member (keeps the top sub-problem).
    pub lower: bool,
}

impl FftUnit {
    /// Creates unit `u` of `t` holding its initial `A`/`B` chunks of an
    /// `m`-point problem.
    pub fn new(m: usize, t: usize, u: usize, a: Vec<Cx>, b: Vec<Cx>) -> FftUnit {
        assert!(m.is_power_of_two() && t.is_power_of_two() && t >= 1);
        let c = m / (2 * t);
        assert!(c >= 1, "more units than butterfly rows");
        assert_eq!(a.len(), c);
        assert_eq!(b.len(), c);
        FftUnit {
            m,
            t,
            u,
            c,
            base: u * c,
            a,
            b,
        }
    }

    /// Number of cross (communication) stages.
    pub fn cross_stages(t: usize) -> usize {
        t.trailing_zeros() as usize
    }

    /// Initial `A` chunk positions for unit `u`: `V[u·c .. (u+1)·c]`.
    pub fn init_a_range(m: usize, t: usize, u: usize) -> (usize, usize) {
        let c = m / (2 * t);
        (u * c, (u + 1) * c)
    }

    /// Initial `B` chunk positions: `V[m/2 + u·c ..]`.
    pub fn init_b_range(m: usize, t: usize, u: usize) -> (usize, usize) {
        let c = m / (2 * t);
        (m / 2 + u * c, m / 2 + (u + 1) * c)
    }

    /// Butterflies per stage (for cost charging).
    pub fn rows(&self) -> usize {
        self.c
    }

    /// Computes cross-stage `step` and prepares the exchange.
    pub fn cross_compute(&mut self, step: usize) -> Exchange {
        assert!(step < Self::cross_stages(self.t));
        let size = self.m >> step; // current sub-problem size
        let half = size / 2;
        let mut x = Vec::with_capacity(self.c);
        let mut y = Vec::with_capacity(self.c);
        for j in 0..self.c {
            let p = self.base + j;
            let jj = p % size;
            debug_assert!(jj < half, "A row must sit in the top half");
            let w = twiddle(jj << step, self.m);
            x.push(cadd(self.a[j], self.b[j]));
            y.push(cmul(csub(self.a[j], self.b[j]), w));
        }
        let d = self.t >> (step + 1);
        let lower = (self.u % (2 * d)) < d;
        if lower {
            // Keep X as the new A; partner's X becomes the new B.
            self.a = x;
            Exchange {
                partner: self.u + d,
                outgoing: y,
                lower: true,
            }
        } else {
            // Keep Y as the new B; partner's Y becomes the new A. The owned
            // positions shift down into the bottom sub-problem.
            self.b = y;
            self.base += self.m >> (step + 2);
            Exchange {
                partner: self.u - d,
                outgoing: x,
                lower: false,
            }
        }
    }

    /// Installs the partner's chunk after the exchange for `step`.
    pub fn install(&mut self, ex_lower: bool, incoming: Vec<Cx>) {
        assert_eq!(incoming.len(), self.c);
        if ex_lower {
            self.b = incoming;
        } else {
            self.a = incoming;
        }
    }

    /// Runs the remaining local stages; returns `(first position, values)` —
    /// a contiguous slice of the bit-reversed-order result vector.
    pub fn finish_local(mut self) -> (usize, Vec<Cx>) {
        let mut local: Vec<Cx> = Vec::with_capacity(2 * self.c);
        local.append(&mut self.a);
        local.append(&mut self.b);
        // The local block is exactly one sub-problem: plain DIF finishes it.
        dif_fft_in_place(&mut local);
        (self.base, local)
    }

    /// Local butterfly stage count (for cost charging): `log2(2c)` stages
    /// of `c` butterflies each.
    pub fn local_stages(&self) -> usize {
        (2 * self.c).trailing_zeros() as usize
    }
}

/// Runs the whole distributed dance in-process (no simulation) — the
/// correctness core, also used directly by tests.
pub fn distributed_fft_reference(input: &[Cx], t: usize) -> Vec<Cx> {
    let m = input.len();
    let mut units: Vec<FftUnit> = (0..t)
        .map(|u| {
            let (a0, a1) = FftUnit::init_a_range(m, t, u);
            let (b0, b1) = FftUnit::init_b_range(m, t, u);
            FftUnit::new(m, t, u, input[a0..a1].to_vec(), input[b0..b1].to_vec())
        })
        .collect();
    for step in 0..FftUnit::cross_stages(t) {
        let exchanges: Vec<Exchange> = units
            .iter_mut()
            .map(|unit| unit.cross_compute(step))
            .collect();
        // Deliver all chunks "simultaneously".
        let outgoing: Vec<(usize, Vec<Cx>)> = exchanges
            .iter()
            .map(|e| (e.partner, e.outgoing.clone()))
            .collect();
        for (u, ex) in exchanges.iter().enumerate() {
            let incoming = outgoing
                .iter()
                .find(|(p, _)| *p == u)
                .map(|(_, v)| v.clone())
                .expect("partner symmetric");
            let _ = u;
            units[u].install(ex.lower, incoming);
        }
    }
    let bits = m.trailing_zeros();
    let mut out = vec![(0.0, 0.0); m];
    for unit in units {
        let (base, vals) = unit.finish_local();
        for (q, v) in vals.into_iter().enumerate() {
            out[bit_reverse(base + q, bits)] = v;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Simulated drivers.
// ---------------------------------------------------------------------------

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct FftConfig {
    /// Points per sample set (the paper: 512).
    pub m: usize,
    /// Sample sets processed back to back (the paper: 8).
    pub sets: usize,
    /// Compute nodes.
    pub nodes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl FftConfig {
    /// The paper's Table 3 workload.
    pub fn paper(nodes: usize) -> FftConfig {
        FftConfig {
            m: 512,
            sets: 8,
            nodes,
            seed: 0xFF7,
        }
    }
}

/// Outcome of one run.
#[derive(Clone, Copy, Debug)]
pub struct FftRun {
    /// End-to-end execution time.
    pub elapsed: Dur,
    /// Result matched the sequential FFT on every sample set.
    pub verified: bool,
}

fn workload(cfg: &FftConfig) -> (Vec<Vec<Cx>>, Vec<Vec<Cx>>) {
    let mut rng = SimRng::new(cfg.seed);
    let sets: Vec<Vec<Cx>> = (0..cfg.sets)
        .map(|_| test_signal(cfg.m, &mut rng))
        .collect();
    let expect = sets.iter().map(|s| fft(s)).collect();
    (sets, expect)
}

fn verify(expect: &[Vec<Cx>], got: &Mutex<Vec<Option<Vec<Cx>>>>) -> bool {
    let got = got.lock();
    expect.iter().enumerate().all(|(i, e)| match &got[i] {
        None => false,
        Some(g) => {
            e.len() == g.len()
                && e.iter()
                    .zip(g)
                    .all(|(a, b)| (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9)
        }
    })
}

/// Message tags.
const TAG_CHUNK_A: u32 = 1;
const TAG_CHUNK_B: u32 = 2;
const TAG_XCHG: u32 = 16; // + step
const TAG_RESULT: u32 = 8;

/// Runs the p4 (one single-threaded process per node) variant.
pub fn fft_p4(net: Arc<dyn Network>, cfg: FftConfig) -> FftRun {
    let sim = Sim::new();
    let (sets, expect) = workload(&cfg);
    let got: Arc<Mutex<Vec<Option<Vec<Cx>>>>> = Arc::new(Mutex::new(vec![None; cfg.sets]));

    if cfg.nodes == 1 {
        let got2 = Arc::clone(&got);
        let host = net.host(NodeId(0)).clone();
        let costs = AppCosts::for_host(&host);
        let m = cfg.m;
        sim.spawn("p4-seq", move |ctx| {
            for (i, s) in sets.iter().enumerate() {
                let out = fft(s);
                let butterflies = (m / 2) as u64 * m.trailing_zeros() as u64;
                charge_compute(
                    ctx,
                    &host,
                    "proc0/main",
                    "fft",
                    butterflies * costs.butterfly_cycles,
                );
                got2.lock()[i] = Some(out);
            }
        });
        let out = sim.run();
        out.assert_clean();
        return FftRun {
            elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
            verified: verify(&expect, &got),
        };
    }

    let t = cfg.nodes; // units = node processes; host is rank 0 of n+1
    assert!(
        t.is_power_of_two(),
        "p4 FFT needs a power-of-two node count"
    );
    let m = cfg.m;
    let n_sets = cfg.sets;
    let sets = Arc::new(sets);
    let got2 = Arc::clone(&got);
    create_procgroup(&sim, net, t + 1, move |ctx, p| {
        let costs = AppCosts::for_host(p.net().host(NodeId(p.my_id() as u32)));
        if p.my_id() == 0 {
            for (si, set) in sets.iter().enumerate() {
                for u in 0..t {
                    let (a0, a1) = FftUnit::init_a_range(m, t, u);
                    let (b0, b1) = FftUnit::init_b_range(m, t, u);
                    p.send(
                        ctx,
                        TAG_CHUNK_A as i32,
                        u + 1,
                        complex_to_bytes(&set[a0..a1]),
                    );
                    p.send(
                        ctx,
                        TAG_CHUNK_B as i32,
                        u + 1,
                        complex_to_bytes(&set[b0..b1]),
                    );
                }
                let bits = m.trailing_zeros();
                let mut out = vec![(0.0, 0.0); m];
                for _ in 0..t {
                    let msg = p.recv(ctx, Some(TAG_RESULT as i32), None);
                    let (base, vals) = decode_result(&msg.data);
                    for (q, v) in vals.into_iter().enumerate() {
                        out[bit_reverse(base + q, bits)] = v;
                    }
                }
                got2.lock()[si] = Some(out);
            }
        } else {
            let u = p.my_id() - 1;
            for _ in 0..n_sets {
                let a = bytes_to_complex(&p.recv(ctx, Some(TAG_CHUNK_A as i32), Some(0)).data);
                let b = bytes_to_complex(&p.recv(ctx, Some(TAG_CHUNK_B as i32), Some(0)).data);
                let mut unit = FftUnit::new(m, t, u, a, b);
                let actor = format!("proc{}/main", p.my_id());
                for step in 0..FftUnit::cross_stages(t) {
                    let ex = unit.cross_compute(step);
                    charge_compute(
                        ctx,
                        p.net().host(NodeId(p.my_id() as u32)),
                        &actor,
                        "fft-stage",
                        unit.rows() as u64 * costs.butterfly_cycles,
                    );
                    p.send(
                        ctx,
                        (TAG_XCHG + step as u32) as i32,
                        ex.partner + 1,
                        complex_to_bytes(&ex.outgoing),
                    );
                    let inc = p.recv(
                        ctx,
                        Some((TAG_XCHG + step as u32) as i32),
                        Some(ex.partner + 1),
                    );
                    unit.install(ex.lower, bytes_to_complex(&inc.data));
                }
                let local_butterflies = unit.rows() as u64 * unit.local_stages() as u64;
                let (base, vals) = unit.finish_local();
                charge_compute(
                    ctx,
                    p.net().host(NodeId(p.my_id() as u32)),
                    &actor,
                    "fft-local",
                    local_butterflies * costs.butterfly_cycles,
                );
                p.send(ctx, TAG_RESULT as i32, 0, encode_result(base, &vals));
                // Re-create the unit next set.
            }
        }
    });
    let out = sim.run();
    out.assert_clean();
    FftRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: verify(&expect, &got),
    }
}

/// Runs the NCS_MTS/p4 variant: two threads per node process (`T = 2N`
/// units); the final exchange partner is the sibling thread, so that hop
/// never touches the wire.
pub fn fft_ncs(net: Arc<dyn Network>, cfg: FftConfig) -> FftRun {
    fft_ncs_with(net, cfg, NcsConfig::default())
}

/// [`fft_ncs`] with an explicit NCS configuration (error control, flow
/// control, retransmission tuning) — what the chaos harness uses to run
/// the transpose-exchange FFT over a faulty transport.
pub fn fft_ncs_with(net: Arc<dyn Network>, cfg: FftConfig, ncs_cfg: NcsConfig) -> FftRun {
    let sim = Sim::new();
    let handle = fft_ncs_setup_with(&sim, net, cfg, ncs_cfg);
    let out = sim.run();
    out.assert_clean();
    FftRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
    }
}

/// Correctness handle for a staged FFT run (see [`fft_ncs_setup_with`]).
pub struct FftHandle {
    expect: Vec<Vec<Cx>>,
    got: Arc<Mutex<Vec<Option<Vec<Cx>>>>>,
}

impl FftHandle {
    /// Whether every sample set matched the sequential FFT. Call after
    /// `sim.run()`.
    pub fn verify(&self) -> bool {
        verify(&self.expect, &self.got)
    }
}

/// Stages the FFT onto an existing `sim` without running it, so harnesses
/// that need the simulator afterwards (tracing, metrics export) can drive
/// `sim.run()` themselves. Returns the verification handle.
pub fn fft_ncs_setup_with(
    sim: &Sim,
    net: Arc<dyn Network>,
    cfg: FftConfig,
    ncs_cfg: NcsConfig,
) -> FftHandle {
    let (sets, expect) = workload(&cfg);
    let got: Arc<Mutex<Vec<Option<Vec<Cx>>>>> = Arc::new(Mutex::new(vec![None; cfg.sets]));
    let m = cfg.m;
    let n_sets = cfg.sets;
    let sets = Arc::new(sets);
    let got2 = Arc::clone(&got);

    let (n_procs, t, host_procs) = if cfg.nodes == 1 {
        (1usize, 2usize, 0usize) // single proc: both units local, no host
    } else {
        assert!(cfg.nodes.is_power_of_two());
        (cfg.nodes + 1, 2 * cfg.nodes, 1usize)
    };

    // Unit u lives on proc (u/2 + host_procs), thread (u%2) — except in the
    // single-proc case where both units live on proc 0.
    let unit_addr = move |u: usize| -> ThreadAddr {
        if host_procs == 0 {
            ThreadAddr::new(0, u as u32)
        } else {
            ThreadAddr::new(u / 2 + 1, (u % 2) as u32)
        }
    };

    NcsWorld::launch(
        sim,
        vec![net],
        n_procs,
        ncs_cfg,
        move |id, proc_| {
            let costs = AppCosts::for_host(proc_.host());
            if host_procs == 1 && id == 0 {
                // Host: one thread distributes and collects (Fig. 20's host).
                let sets = Arc::clone(&sets);
                let got = Arc::clone(&got2);
                proc_.t_create("host", 5, move |ncs| {
                    for (si, set) in sets.iter().enumerate() {
                        for u in 0..t {
                            let (a0, a1) = FftUnit::init_a_range(m, t, u);
                            let (b0, b1) = FftUnit::init_b_range(m, t, u);
                            ncs.send(unit_addr(u), TAG_CHUNK_A, complex_to_bytes(&set[a0..a1]));
                            ncs.send(unit_addr(u), TAG_CHUNK_B, complex_to_bytes(&set[b0..b1]));
                        }
                        let bits = m.trailing_zeros();
                        let mut out = vec![(0.0, 0.0); m];
                        for _ in 0..t {
                            let msg = ncs.recv(None, None, Some(TAG_RESULT));
                            let (base, vals) = decode_result(&msg.data);
                            for (q, v) in vals.into_iter().enumerate() {
                                out[bit_reverse(base + q, bits)] = v;
                            }
                        }
                        got.lock()[si] = Some(out);
                    }
                });
                return;
            }
            // Worker process: two unit threads.
            for tid in 0..2usize {
                let u = if host_procs == 0 {
                    tid
                } else {
                    (id - 1) * 2 + tid
                };
                let sets = Arc::clone(&sets);
                let got = Arc::clone(&got2);
                proc_.t_create(format!("fft-t{tid}"), 5, move |ncs| {
                    for si in 0..n_sets {
                        let (a, b) = if host_procs == 0 {
                            // No host: read the input directly (shared memory).
                            let set = &sets[si];
                            let (a0, a1) = FftUnit::init_a_range(m, t, u);
                            let (b0, b1) = FftUnit::init_b_range(m, t, u);
                            (set[a0..a1].to_vec(), set[b0..b1].to_vec())
                        } else {
                            let a = ncs.recv(Some(0), None, Some(TAG_CHUNK_A));
                            let b = ncs.recv(Some(0), None, Some(TAG_CHUNK_B));
                            (bytes_to_complex(&a.data), bytes_to_complex(&b.data))
                        };
                        let mut unit = FftUnit::new(m, t, u, a, b);
                        for step in 0..FftUnit::cross_stages(t) {
                            let ex = unit.cross_compute(step);
                            ncs.compute(unit.rows() as u64 * costs.butterfly_cycles, "fft-stage");
                            ncs.send(
                                unit_addr(ex.partner),
                                TAG_XCHG + step as u32,
                                complex_to_bytes(&ex.outgoing),
                            );
                            let pa = unit_addr(ex.partner);
                            let inc = ncs.recv(
                                Some(pa.proc),
                                Some(pa.thread),
                                Some(TAG_XCHG + step as u32),
                            );
                            unit.install(ex.lower, bytes_to_complex(&inc.data));
                        }
                        let local_butterflies = unit.rows() as u64 * unit.local_stages() as u64;
                        ncs.compute(local_butterflies * costs.butterfly_cycles, "fft-local");
                        let (base, vals) = unit.finish_local();
                        if host_procs == 0 {
                            // Assemble in shared memory.
                            let bits = m.trailing_zeros();
                            let mut g = got.lock();
                            let entry = g[si].get_or_insert_with(|| vec![(0.0, 0.0); m]);
                            for (q, v) in vals.into_iter().enumerate() {
                                entry[bit_reverse(base + q, bits)] = v;
                            }
                        } else {
                            ncs.send(
                                ThreadAddr::new(0, 0),
                                TAG_RESULT,
                                encode_result(base, &vals),
                            );
                        }
                    }
                });
            }
        },
    );
    FftHandle { expect, got }
}

/// Serializes `(base, values)` for the result collection.
fn encode_result(base: usize, vals: &[Cx]) -> Bytes {
    let mut v = Vec::with_capacity(4 + vals.len() * 16);
    v.extend_from_slice(&(base as u32).to_le_bytes());
    v.extend_from_slice(&complex_to_bytes(vals));
    Bytes::from(v)
}

fn decode_result(b: &[u8]) -> (usize, Vec<Cx>) {
    let base = u32::from_le_bytes(b[..4].try_into().unwrap()) as usize;
    (base, bytes_to_complex(&b[4..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::{HostParams, IdealFabric, TcpNet, TcpParams};

    fn fast_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(n, Dur::from_micros(20)));
        let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
    }

    #[test]
    fn fft_matches_naive_dft() {
        let mut rng = SimRng::new(3);
        let x = test_signal(64, &mut rng);
        let fast = fft(&x);
        let slow = naive_dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.0 - b.0).abs() < 1e-8 && (a.1 - b.1).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![(0.0, 0.0); 32];
        x[0] = (1.0, 0.0);
        for v in fft(&x) {
            assert!((v.0 - 1.0).abs() < 1e-12 && v.1.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_bin() {
        let m = 128;
        let x: Vec<Cx> = (0..m)
            .map(|i| {
                let ang = 2.0 * PI * 5.0 * i as f64 / m as f64;
                (ang.cos(), ang.sin())
            })
            .collect();
        let f = fft(&x);
        for (k, v) in f.iter().enumerate() {
            let mag = (v.0 * v.0 + v.1 * v.1).sqrt();
            if k == 5 {
                assert!((mag - m as f64).abs() < 1e-6, "bin 5 mag {mag}");
            } else {
                assert!(mag < 1e-6, "leak at bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn distributed_reference_matches_sequential() {
        let mut rng = SimRng::new(4);
        let x = test_signal(128, &mut rng);
        let seq = fft(&x);
        for t in [1usize, 2, 4, 8, 16] {
            let dist = distributed_fft_reference(&x, t);
            for (k, (a, b)) in seq.iter().zip(&dist).enumerate() {
                assert!(
                    (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                    "t={t} bin {k}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn p4_variant_verifies() {
        for nodes in [1usize, 2, 4] {
            let cfg = FftConfig {
                m: 64,
                sets: 2,
                nodes,
                seed: 5,
            };
            let run = fft_p4(fast_net(nodes + 1), cfg);
            assert!(run.verified, "{nodes} nodes");
        }
    }

    #[test]
    fn ncs_variant_verifies() {
        for nodes in [1usize, 2, 4] {
            let cfg = FftConfig {
                m: 64,
                sets: 2,
                nodes,
                seed: 5,
            };
            let run = fft_ncs(fast_net(nodes + 1), cfg);
            assert!(run.verified, "{nodes} nodes");
        }
    }

    #[test]
    fn ncs_last_exchange_is_local() {
        // With T = 2N units, the final cross stage pairs unit 2k with
        // 2k+1 — sibling threads on the same process.
        for nodes in [2usize, 4] {
            let t = 2 * nodes;
            let last = FftUnit::cross_stages(t) - 1;
            let d = t >> (last + 1);
            assert_eq!(d, 1, "last exchange distance must be 1 unit");
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ncs_sim::prop;

    /// The distributed dance equals the sequential FFT for arbitrary
    /// signals and any unit count.
    #[test]
    fn distributed_always_matches() {
        prop::check("distributed_always_matches", 32, |g| {
            let seed = g.range(0..1000);
            let m = 1usize << g.range(4..9);
            let t = 1usize << g.range(0..4);
            if m / (2 * t) < 1 {
                return;
            }
            let mut rng = SimRng::new(seed);
            let x: Vec<Cx> = (0..m)
                .map(|_| (rng.gen_f64_range(-1.0, 1.0), rng.gen_f64_range(-1.0, 1.0)))
                .collect();
            let seq = fft(&x);
            let dist = distributed_fft_reference(&x, t);
            for (a, b) in seq.iter().zip(&dist) {
                assert!((a.0 - b.0).abs() < 1e-9);
                assert!((a.1 - b.1).abs() < 1e-9);
            }
        });
    }
}
