//! Extension experiment **X13**: overlap gain from the completion-based
//! async API (`NCS_isend`/`NCS_irecv`/`NCS_waitany`).
//!
//! The paper overlaps computation and communication by *threading*: extra
//! user threads block in `NCS_send`/`NCS_recv` while siblings compute
//! (Figure 14's two-thread matmul). The async API reaches the same
//! progress engine without the extra threads: a single user thread posts
//! every transfer up front and redeems completions in arrival order.
//!
//! This harness runs the paper's matmul both ways on the HSM (FORE-LAN
//! ATM) stack under two host models —
//!
//! * `sparc_ipx`: the paper's workstation, whose protocol processing
//!   saturates the host CPU, so both forms are host-bound and the
//!   end-to-end margin is thin;
//! * `test_fast`: a host fast enough that the wire and the compute are
//!   what's left to overlap, where the nonblocking form wins outright —
//!
//! and decomposes where the nonblocking form wins, layer by layer:
//!
//! 1. **Host send pipelining** — caller-side comm time on the host
//!    threads. The blocking host pays each transfer's wire time inside
//!    `NCS_send`; the async host's `isend` returns at post time and the
//!    send system thread drains the queue.
//! 2. **Node compute/transfer overlap** — stall (idle) time on the node
//!    threads. A node computes strip *k* while the progress engine still
//!    receives strip *k+1* and transmits the finished strip *k−1*.
//! 3. **Completion-order freedom** — `NCS_waitany` hands out whichever
//!    strip lands first; the request timelines
//!    (`posted -> progressed -> completed`) quantify how long posted
//!    requests ride the progress engine concurrently with user compute.
//!
//! Returns the `BENCH_overlap.json` document (`xp` writes it under
//! `results/`). The acceptance bar: the overlapped form beats the blocking
//! form at every node count, under both host models.
//!
//! ```text
//! cargo run --release -p ncs-bench -- overlap [--smoke]
//! ```

use super::{atm_lan_api, JsonDoc, Opts};
use crate::json::{fixed, obj, pairs, quoted};
use ncs_apps::matmul::{setup_matmul_ncs_async_with, setup_matmul_ncs_with, MatmulConfig};
use ncs_core::NcsConfig;
use ncs_net::{AtmApiParams, HostParams};
use ncs_sim::{Dur, DurSummary, Sim, SpanKind};

/// Everything one measured matmul run leaves behind. The span-kind sums
/// are split by role: host = user threads on proc 0, node = user threads
/// on the compute processes (system threads excluded from both).
struct RunPoint {
    elapsed: Dur,
    host_comm: Dur,
    host_idle: Dur,
    node_idle: Dur,
    node_compute: Dur,
    req_wait: DurSummary,    // posted -> progressed
    req_service: DurSummary, // progressed -> completed
    req_e2e: DurSummary,     // posted -> completed
}

fn req_stat(m: &ncs_sim::MetricsRegistry, name: &str) -> DurSummary {
    m.stat(name)
        .map_or_else(DurSummary::new, |st| st.summary().clone())
}

fn mean_secs(s: &DurSummary) -> f64 {
    s.mean().map_or(0.0, |d| d.as_secs_f64())
}

/// Runs one matmul variant with span tracing on and aggregates the
/// user-thread utilization by role. Verifies the product bit-exact.
fn measure(cfg: MatmulConfig, host: fn() -> HostParams, nonblocking: bool) -> RunPoint {
    let sim = Sim::new();
    sim.with_tracer(|tr| tr.enable());
    let net = atm_lan_api(cfg.nodes + 1, host(), AtmApiParams::default());
    let handle = if nonblocking {
        setup_matmul_ncs_async_with(&sim, net, cfg, NcsConfig::default())
    } else {
        setup_matmul_ncs_with(&sim, net, cfg, NcsConfig::default())
    };
    let out = sim.run();
    out.assert_clean();
    assert!(
        handle.verify(),
        "matmul ({}) must stay bit-exact",
        if nonblocking { "async" } else { "blocking" }
    );

    let (mut host_comm, mut host_idle) = (Dur::ZERO, Dur::ZERO);
    let (mut node_idle, mut node_compute) = (Dur::ZERO, Dur::ZERO);
    sim.with_tracer(|tr| {
        for (actor, kinds) in tr.utilization() {
            let Some((proc_, thread)) = actor.split_once('/') else {
                continue;
            };
            let g = |k: SpanKind| kinds.get(&k).copied().unwrap_or(Dur::ZERO);
            if proc_ == "proc0" && thread.starts_with("host") {
                host_comm += g(SpanKind::Comm);
                host_idle += g(SpanKind::Idle);
            } else if thread.starts_with("node") {
                node_idle += g(SpanKind::Idle);
                node_compute += g(SpanKind::Compute);
            }
        }
    });
    let (req_wait, req_service, req_e2e) = sim.with_metrics(|m| {
        (
            req_stat(m, "obs.req_wait"),
            req_stat(m, "obs.req_service"),
            req_stat(m, "obs.req_e2e"),
        )
    });
    RunPoint {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        host_comm,
        host_idle,
        node_idle,
        node_compute,
        req_wait,
        req_service,
        req_e2e,
    }
}

fn secs(d: Dur) -> f64 {
    d.as_secs_f64()
}

pub(super) fn run(opts: &Opts, out: &mut String) -> Option<JsonDoc> {
    let smoke = opts.smoke;
    *out += "# X13 — overlap gain from the completion-based async API\n";
    let (dim, node_counts): (usize, &[usize]) = if smoke {
        *out += "# smoke mode: reduced workload\n";
        (64, &[2])
    } else {
        (128, &[2, 4, 8])
    };

    type HostModel = (&'static str, fn() -> HostParams);
    let host_models: &[HostModel] = if smoke {
        &[("test_fast", HostParams::test_fast)]
    } else {
        &[
            ("sparc_ipx", HostParams::sparc_ipx),
            ("test_fast", HostParams::test_fast),
        ]
    };

    let mut rows = Vec::new();
    for &(host_name, host) in host_models {
        for &nodes in node_counts {
            let cfg = MatmulConfig {
                dim,
                nodes,
                seed: 7,
            };
            let blocking = measure(cfg, host, false);
            let overlapped = measure(cfg, host, true);
            let speedup = secs(blocking.elapsed) / secs(overlapped.elapsed);
            *out += &format!(
                "\n## {dim}x{dim} matmul, {nodes} nodes, {host_name} hosts: \
                 blocking {:.6}s -> overlapped {:.6}s ({speedup:.3}x)\n",
                secs(blocking.elapsed),
                secs(overlapped.elapsed),
            );
            *out += &format!("  layer 1  host send pipelining       : caller comm {:9.6}s -> {:9.6}s (saved {:+.6}s)\n",
                secs(blocking.host_comm),
                secs(overlapped.host_comm),
                secs(blocking.host_comm) - secs(overlapped.host_comm),
            );
            *out += &format!("  layer 2  node compute/xfer overlap  : node stall  {:9.6}s -> {:9.6}s (saved {:+.6}s)\n",
                secs(blocking.node_idle),
                secs(overlapped.node_idle),
                secs(blocking.node_idle) - secs(overlapped.node_idle),
            );
            *out += &format!(
                "  layer 3  completion-order freedom   : {} requests rode the progress engine \
                 {:.6}s total ({:.6}s mean e2e; wait {:.6}s + service {:.6}s)\n",
                overlapped.req_e2e.count(),
                secs(overlapped.req_e2e.total()),
                mean_secs(&overlapped.req_e2e),
                mean_secs(&overlapped.req_wait),
                mean_secs(&overlapped.req_service),
            );
            assert!(
                overlapped.elapsed < blocking.elapsed,
                "{nodes} nodes, {host_name} hosts: overlapped ({:?}) must beat blocking ({:?})",
                overlapped.elapsed,
                blocking.elapsed
            );
            assert!(
                overlapped.req_e2e.count() > 0,
                "{nodes} nodes: async run must track request timelines"
            );
            rows.push((host_name, nodes, blocking, overlapped, speedup));
        }
    }

    let mut doc = JsonDoc::new("BENCH_overlap", "xp_overlap", smoke);
    doc.line(&[("dim", &dim)]);
    let s9 = |d: Dur| fixed(secs(d), 9);
    let point = |p: &RunPoint| {
        obj(&[
            ("elapsed_s", &s9(p.elapsed)),
            ("host_comm_s", &s9(p.host_comm)),
            ("host_idle_s", &s9(p.host_idle)),
            ("node_idle_s", &s9(p.node_idle)),
            ("node_compute_s", &s9(p.node_compute)),
        ])
    };
    // One config is too wide for one line: its row spans several.
    doc.rows(
        "configs",
        rows.iter().map(|(host_name, nodes, b, o, speedup)| {
            let head = pairs(&[
                ("hosts", &quoted(host_name)),
                ("nodes", &nodes),
                ("speedup", &fixed(*speedup, 4)),
            ]);
            let completion_order = obj(&[
                ("requests", &o.req_e2e.count()),
                ("e2e_total_s", &s9(o.req_e2e.total())),
                ("e2e_mean_s", &fixed(mean_secs(&o.req_e2e), 9)),
                ("wait_mean_s", &fixed(mean_secs(&o.req_wait), 9)),
                ("service_mean_s", &fixed(mean_secs(&o.req_service), 9)),
            ]);
            format!(
                "{{{head},\n     \"blocking\": {},\n     \"overlapped\": {},\n     \"layers\": {{\n       \
                 \"host_send_pipelining_saved_s\": {:.9},\n       \
                 \"node_compute_transfer_overlap_saved_s\": {:.9},\n       \
                 \"completion_order\": {completion_order}\n     }}}}",
                point(b),
                point(o),
                secs(b.host_comm) - secs(o.host_comm),
                secs(b.node_idle) - secs(o.node_idle),
            )
        }),
    );
    Some(doc)
}
