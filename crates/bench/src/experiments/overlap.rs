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
//! Its report is the `BENCH_overlap.json` document (`xp` writes it under
//! `results/`). The acceptance bar: the overlapped form beats the blocking
//! form at every node count, under both host models.
//!
//! ```text
//! cargo run --release -p ncs-bench -- overlap [--smoke]
//! ```

use super::{atm_lan_api, Opts};
use crate::{Col, Report};
use ncs_apps::matmul::{setup_matmul_ncs_async_with, setup_matmul_ncs_with, MatmulConfig};
use ncs_apps::run_app;
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
    let (run, _) = run_app(&sim, |sim| {
        if nonblocking {
            setup_matmul_ncs_async_with(sim, net, cfg, NcsConfig::default())
        } else {
            setup_matmul_ncs_with(sim, net, cfg, NcsConfig::default())
        }
    });
    assert!(
        run.verified,
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
        elapsed: run.elapsed,
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

/// One configuration run both ways.
struct Config {
    hosts: &'static str,
    nodes: usize,
    blocking: RunPoint,
    overlapped: RunPoint,
}

impl Config {
    fn speedup(&self) -> f64 {
        secs(self.blocking.elapsed) / secs(self.overlapped.elapsed)
    }
}

/// A configuration's row, one JSON object over several lines (an empty
/// header: JSON only).
const CONFIGS: &[Col<Config>] = &[
    Col::text("hosts", "hosts", |c| c.hosts),
    Col::int("nodes", "nodes", |c| c.nodes as u64),
    Col::fixed("speedup", "speedup", 4, Config::speedup),
    Col::fixed("blocking.elapsed_s", "blocking s", 9, |c| {
        secs(c.blocking.elapsed)
    }),
    Col::fixed("blocking.host_comm_s", "", 9, |c| {
        secs(c.blocking.host_comm)
    }),
    Col::fixed("blocking.host_idle_s", "", 9, |c| {
        secs(c.blocking.host_idle)
    }),
    Col::fixed("blocking.node_idle_s", "", 9, |c| {
        secs(c.blocking.node_idle)
    }),
    Col::fixed("blocking.node_compute_s", "", 9, |c| {
        secs(c.blocking.node_compute)
    }),
    Col::fixed("overlapped.elapsed_s", "overlapped s", 9, |c| {
        secs(c.overlapped.elapsed)
    }),
    Col::fixed("overlapped.host_comm_s", "", 9, |c| {
        secs(c.overlapped.host_comm)
    }),
    Col::fixed("overlapped.host_idle_s", "", 9, |c| {
        secs(c.overlapped.host_idle)
    }),
    Col::fixed("overlapped.node_idle_s", "", 9, |c| {
        secs(c.overlapped.node_idle)
    }),
    Col::fixed("overlapped.node_compute_s", "", 9, |c| {
        secs(c.overlapped.node_compute)
    }),
    Col::fixed(
        "layers.host_send_pipelining_saved_s",
        "layer 1 saved s",
        9,
        |c| secs(c.blocking.host_comm) - secs(c.overlapped.host_comm),
    ),
    Col::fixed(
        "layers.node_compute_transfer_overlap_saved_s",
        "layer 2 saved s",
        9,
        |c| secs(c.blocking.node_idle) - secs(c.overlapped.node_idle),
    ),
    Col::int("layers.completion_order.requests", "requests", |c| {
        c.overlapped.req_e2e.count()
    }),
    Col::fixed("layers.completion_order.e2e_total_s", "request s", 9, |c| {
        secs(c.overlapped.req_e2e.total())
    }),
    Col::fixed("layers.completion_order.e2e_mean_s", "mean e2e s", 9, |c| {
        mean_secs(&c.overlapped.req_e2e)
    }),
    Col::fixed(
        "layers.completion_order.wait_mean_s",
        "mean wait s",
        9,
        |c| mean_secs(&c.overlapped.req_wait),
    ),
    Col::fixed(
        "layers.completion_order.service_mean_s",
        "mean service s",
        9,
        |c| mean_secs(&c.overlapped.req_service),
    ),
];

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let smoke = opts.smoke;
    out.bench = Some("BENCH_overlap");
    out.note("# X13 — overlap gain from the completion-based async API\n");
    let (dim, node_counts): (usize, &[usize]) = if smoke {
        out.note("# smoke mode: reduced workload\n");
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

    out.note(
        "\n## dim x dim matmul, blocking against overlapped: layer 1 host send \
         pipelining, layer 2 node compute/transfer overlap, then completion order\n",
    );
    out.record(&[Col::int("dim", "dim", |&dim: &usize| dim as u64)], &dim);
    let table = out.table("configs", CONFIGS);
    for &(hosts, host) in host_models {
        for &nodes in node_counts {
            let cfg = MatmulConfig {
                dim,
                nodes,
                seed: 7,
            };
            let c = Config {
                hosts,
                nodes,
                blocking: measure(cfg, host, false),
                overlapped: measure(cfg, host, true),
            };
            out.row(&table, &c);
            assert!(
                c.overlapped.elapsed < c.blocking.elapsed,
                "{nodes} nodes, {hosts} hosts: overlapped ({:?}) must beat blocking ({:?})",
                c.overlapped.elapsed,
                c.blocking.elapsed
            );
            assert!(
                c.overlapped.req_e2e.count() > 0,
                "{nodes} nodes: async run must track request timelines"
            );
        }
    }
}
