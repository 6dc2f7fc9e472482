//! Extension experiment **X9**: the observability layer.
//!
//! The paper's Tables 2 and 3 decompose `NCS_send`/`NCS_recv` into their
//! per-layer costs by hand instrumentation. This harness reproduces that
//! breakdown mechanically from the causal timelines the runtime now stamps
//! on every tracked data message:
//!
//! ```text
//! enqueued -> sq_popped -> wire_start -> arrived -> picked
//!          [-> reassembled] -> delivered
//! ```
//!
//! Consecutive stages are contiguous, so the component durations
//! (queue-wait, injection, wire, pickup, reassembly, delivery) sum
//! *exactly* to the observed end-to-end latency — which this harness
//! asserts for every message, on both the monolithic and the chunked
//! (multiple-I/O-buffer) data paths.
//!
//! For each application workload (matmul, JPEG, FFT over the HSM stack)
//! it prints the paper-style latency-decomposition table and writes a
//! Chrome `trace_event` JSON (`results/trace_<app>.json`, loadable in
//! Perfetto / `chrome://tracing`) plus a metrics summary
//! (`results/metrics_<app>.txt`).
//!
//! `--smoke` runs the fixed-seed 4-host matmul twice and fails on any
//! byte difference between the two exported traces: the golden-trace
//! determinism gate for CI.
//!
//! ```text
//! cargo run --release -p ncs-bench -- observe [--smoke]
//! ```

use super::{results_dir, Col, Opts, Report, SmallApp};
use ncs_apps::run_app;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, ALL_STAGES};
use ncs_net::Testbed;
use ncs_sim::{chrome_trace_json, AnalysisConfig, Dur, Sim};

/// Latency components in walk order (fed by [`ncs_core::causal_component`]).
const COMPONENTS: [&str; 6] = [
    "obs.queue_wait",
    "obs.inject",
    "obs.wire",
    "obs.pickup",
    "obs.reassembly",
    "obs.deliver",
];

/// NCS configured like a production HSM deployment; `chunked` shrinks the
/// I/O buffers so application traffic goes through the pipelined path.
fn ncs_cfg(analysis: AnalysisConfig, chunked: bool) -> NcsConfig {
    NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::None,
        io_buffer_bytes: if chunked { 1024 } else { 16 * 1024 },
        analysis,
        ..NcsConfig::default()
    }
}

/// A latency component: name, messages, total, and share of the end-to-end
/// total (%).
type Latency = (&'static str, u64, Dur, f64);

const LATENCY: &[Col<Latency>] = &[
    Col::text("component", "component", |r| r.0),
    Col::int("n", "n", |r| r.1),
    Col::fixed("mean_ms", "mean ms", 6, |r| {
        r.2.as_secs_f64() * 1e3 / r.1 as f64
    }),
    Col::fixed("total_ms", "total ms", 6, |r| r.2.as_secs_f64() * 1e3),
    Col::fixed("share", "share %", 1, |r| r.3),
];

/// Everything one instrumented workload run leaves behind.
pub struct Observed {
    name: &'static str,
    elapsed: Dur,
    messages: u64,
    /// The component rows, then the end-to-end row.
    rows: Vec<Latency>,
    /// The run's Chrome `trace_event` export.
    pub trace_json: String,
    /// The metrics registry's text summary.
    pub(crate) summary: String,
}

/// Runs one named workload (`matmul`: 4 worker nodes, dim 32, seed 7,
/// monolithic buffers — the run `tests/golden_trace.rs` pins; `jpeg`, `fft`:
/// chunked) on the FORE-LAN HSM stack under full observability
/// (detail-level tracer, causal timelines) and checks the books: timelines
/// well-ordered, every message's components summing exactly to its
/// end-to-end latency.
pub fn run_workload(name: &'static str) -> Observed {
    let app = match name {
        "matmul" => SmallApp::Matmul { nodes: 4 },
        "jpeg" => SmallApp::Jpeg,
        "fft" => SmallApp::Fft { sets: 1 },
        other => panic!("unknown workload {other}"),
    };
    let sim = Sim::new();
    // The books below read every delivered message's timeline.
    sim.with_metrics(|m| m.keep_timelines());
    let (analysis, sink) = AnalysisConfig::recording();
    sim.with_tracer(|tr| tr.enable_detail());
    let net = Testbed::SunAtmLanApi.build(app.hosts());
    let (run, _) = run_app(&sim, |sim| {
        app.stage(sim, net, ncs_cfg(analysis, name != "matmul"))
    });
    let verified = run.verified;
    assert!(verified, "{name}: result must verify bit-exact");
    let violations = sink.take();
    assert!(violations.is_empty(), "{name}: {violations:?}");

    let end = sim.now();
    // The books must balance: stage marks well-ordered per the canonical
    // walk, and component diffs summing exactly to end-to-end.
    let (mut rows, e2e_total, messages) = sim.with_metrics(|m| {
        let errs = m.validate_timelines(&ALL_STAGES);
        assert!(errs.is_empty(), "{name}: disordered timelines: {errs:?}");
        let mut delivered = 0u64;
        for (causal, tl) in m.timelines() {
            let Some(&(last_stage, last_t)) = tl.last() else {
                continue;
            };
            if last_stage != "delivered" {
                continue; // in flight at shutdown (e.g. final signals)
            }
            delivered += 1;
            let first_t = tl.first().expect("non-empty").1;
            let mut sum = Dur::ZERO;
            for w in tl.windows(2) {
                let d = w[1].1.since(w[0].1); // panics if non-monotone
                sum += d;
            }
            assert_eq!(
                sum,
                last_t.since(first_t),
                "{name}: causal {causal}: components must sum to end-to-end"
            );
        }
        let mut rows = Vec::new();
        for comp in COMPONENTS {
            if let Some(st) = m.stat(comp) {
                let s = st.summary();
                rows.push((comp.trim_start_matches("obs."), s.count(), s.total()));
            }
        }
        let e2e_total = m
            .stat("obs.e2e")
            .map_or(Dur::ZERO, |st| st.summary().total());
        (rows, e2e_total, delivered)
    });
    assert!(messages > 0, "{name}: no tracked messages delivered");
    // Cross-check: the components of all delivered messages must cover the
    // e2e total exactly (nothing dropped, nothing double-counted).
    let comp_total: Dur = rows.iter().fold(Dur::ZERO, |acc, r| acc + r.2);
    assert_eq!(
        comp_total, e2e_total,
        "{name}: component totals must cover the end-to-end total"
    );
    rows.push(("end-to-end", messages, e2e_total));
    let share = |total: Dur| match e2e_total.as_ps() {
        0 => 0.0,
        e2e => 100.0 * total.as_ps() as f64 / e2e as f64,
    };

    let trace_json = sim.with_tracer(|tr| sim.with_metrics(|mm| chrome_trace_json(tr, mm)));
    let summary = sim.with_metrics(|m| m.summary());
    Observed {
        name,
        elapsed: end.since(ncs_sim::SimTime::ZERO),
        messages,
        rows: rows
            .into_iter()
            .map(|(c, n, total)| (c, n, total, share(total)))
            .collect(),
        trace_json,
        summary,
    }
}

fn print_table(out: &mut Report, o: &Observed) {
    out.note(format!(
        "\n## {} — {:.6}s, {} tracked messages\n",
        o.name,
        o.elapsed.as_secs_f64(),
        o.messages
    ));
    let table = out.table("", LATENCY);
    for row in &o.rows {
        out.row(&table, row);
    }
}

fn write_artifacts(out: &mut Report, o: &Observed) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let (trace, metrics) = (
        format!("trace_{}.json", o.name),
        format!("metrics_{}.txt", o.name),
    );
    std::fs::write(dir.join(&trace), &o.trace_json).expect("write trace");
    std::fs::write(dir.join(&metrics), &o.summary).expect("write metrics summary");
    out.note(format!(
        "  wrote results/{trace} ({} bytes) and results/{metrics}\n",
        o.trace_json.len()
    ));
}

pub(super) fn run(opts: &Opts, out: &mut Report) {
    out.note("# X9 — observability: per-layer latency decomposition + Chrome trace\n");

    // Golden-trace determinism: the same fixed-seed 4-host matmul twice,
    // full exported trace byte-identical.
    out.note("\n## golden-trace determinism (fixed-seed 4-host matmul, two runs)\n");
    let a = run_workload("matmul");
    let b = run_workload("matmul");
    assert_eq!(
        a.trace_json, b.trace_json,
        "two fixed-seed runs must export byte-identical traces"
    );
    assert_eq!(a.summary, b.summary, "metrics summaries must match too");
    out.note(format!(
        "  OK: {} bytes of trace, byte-identical across runs\n",
        a.trace_json.len()
    ));
    print_table(out, &a);
    write_artifacts(out, &a);

    if opts.smoke {
        out.note("\nsmoke OK\n");
        return;
    }

    for name in ["jpeg", "fft"] {
        let o = run_workload(name);
        print_table(out, &o);
        write_artifacts(out, &o);
    }
}
