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
//! cargo run --release -p ncs-bench --bin xp_observe [-- --smoke]
//! ```

use ncs_apps::fft::{fft_ncs_setup_with, FftConfig};
use ncs_apps::jpeg::EntropyKind;
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, MatmulConfig};
use ncs_core::{causal_component, ErrorControl, FlowControl, NcsConfig, ALL_STAGES};
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::{AtmApiNet, AtmApiParams, HostParams, Network};
use ncs_sim::{chrome_trace_json, AnalysisConfig, Dur, Sim};
use std::sync::Arc;

/// Latency components in walk order (fed by [`causal_component`]).
const COMPONENTS: [&str; 6] = [
    "obs.queue_wait",
    "obs.inject",
    "obs.wire",
    "obs.pickup",
    "obs.reassembly",
    "obs.deliver",
];

fn hsm_stack(nodes: usize) -> Arc<dyn Network> {
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(nodes)));
    let hosts = vec![HostParams::sparc_ipx(); nodes];
    Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()))
}

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

/// Everything one instrumented workload run leaves behind.
struct Observed {
    name: &'static str,
    elapsed: Dur,
    messages: u64,
    /// `(component, n, total, mean)` rows plus the e2e row.
    rows: Vec<(&'static str, u64, Dur, Dur)>,
    e2e_total: Dur,
    trace_json: String,
    summary: String,
}

/// Runs one named workload under full observability (detail-level tracer,
/// causal timelines) and checks the books: timelines well-ordered, every
/// message's components summing exactly to its end-to-end latency.
fn run_workload(name: &'static str) -> Observed {
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    sim.with_tracer(|tr| tr.enable_detail());
    let verified = match name {
        "matmul" => {
            let net = hsm_stack(5);
            let cfg = MatmulConfig {
                dim: 32,
                nodes: 4,
                seed: 7,
            };
            let handle = setup_matmul_ncs_with(&sim, net, cfg, ncs_cfg(analysis, false));
            let out = sim.run();
            out.assert_clean();
            handle.verify()
        }
        "jpeg" => {
            let net = hsm_stack(3);
            let cfg = JpegConfig {
                width: 64,
                height: 64,
                quality: 75,
                entropy: EntropyKind::RleVarint,
                nodes: 2,
                seed: 21,
            };
            let handle = setup_jpeg_ncs_with(&sim, net, cfg, ncs_cfg(analysis, true));
            let out = sim.run();
            out.assert_clean();
            handle.verify()
        }
        "fft" => {
            let net = hsm_stack(3);
            let cfg = FftConfig {
                m: 64,
                sets: 1,
                nodes: 2,
                seed: 5,
            };
            let handle = fft_ncs_setup_with(&sim, net, cfg, ncs_cfg(analysis, true));
            let out = sim.run();
            out.assert_clean();
            handle.verify()
        }
        other => panic!("unknown workload {other}"),
    };
    assert!(verified, "{name}: result must verify bit-exact");
    let violations = sink.take();
    assert!(violations.is_empty(), "{name}: {violations:?}");

    let end = sim.now();
    // The books must balance: stage marks well-ordered per the canonical
    // walk, and component diffs summing exactly to end-to-end.
    let (rows, e2e_total, messages) = sim.with_metrics(|m| {
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
                rows.push((comp, s.count(), s.total(), s.mean().unwrap_or(Dur::ZERO)));
            }
        }
        let e2e_total = m.stat("obs.e2e").map_or(Dur::ZERO, |st| st.summary().total());
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

    let trace_json = sim.with_tracer(|tr| sim.with_metrics(|mm| chrome_trace_json(tr, mm)));
    let summary = sim.with_metrics(|m| m.summary());
    Observed {
        name,
        elapsed: end.since(ncs_sim::SimTime::ZERO),
        messages,
        rows,
        e2e_total,
        trace_json,
        summary,
    }
}

fn print_table(o: &Observed) {
    println!(
        "\n## {} — {:.6}s, {} tracked messages",
        o.name,
        o.elapsed.as_secs_f64(),
        o.messages
    );
    println!("  component       |     n |   mean      |  total      | share");
    println!("  ----------------+-------+-------------+-------------+------");
    for &(comp, n, total, mean) in &o.rows {
        let share = if o.e2e_total.is_zero() {
            0.0
        } else {
            100.0 * total.as_ps() as f64 / o.e2e_total.as_ps() as f64
        };
        println!(
            "  {:15} | {:5} | {:>11} | {:>11} | {:4.1}%",
            comp.trim_start_matches("obs."),
            n,
            format!("{mean}"),
            format!("{total}"),
            share,
        );
    }
    println!(
        "  {:15} | {:5} | {:>11} | {:>11} | 100%",
        "end-to-end",
        o.messages,
        "",
        format!("{}", o.e2e_total),
    );
}

fn write_artifacts(o: &Observed) {
    std::fs::create_dir_all("results").expect("create results dir");
    let trace = format!("results/trace_{}.json", o.name);
    std::fs::write(&trace, &o.trace_json).expect("write trace");
    let metrics = format!("results/metrics_{}.txt", o.name);
    std::fs::write(&metrics, &o.summary).expect("write metrics summary");
    println!("  wrote {trace} ({} bytes) and {metrics}", o.trace_json.len());
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("# X9 — observability: per-layer latency decomposition + Chrome trace");
    let _ = causal_component("delivered"); // the mapping the tables are keyed by

    // Golden-trace determinism: the same fixed-seed 4-host matmul twice,
    // full exported trace byte-identical.
    println!("\n## golden-trace determinism (fixed-seed 4-host matmul, two runs)");
    let a = run_workload("matmul");
    let b = run_workload("matmul");
    assert_eq!(
        a.trace_json, b.trace_json,
        "two fixed-seed runs must export byte-identical traces"
    );
    assert_eq!(a.summary, b.summary, "metrics summaries must match too");
    println!(
        "  OK: {} bytes of trace, byte-identical across runs",
        a.trace_json.len()
    );
    print_table(&a);
    write_artifacts(&a);

    if smoke {
        println!("\nsmoke OK");
        return;
    }

    for name in ["jpeg", "fft"] {
        let o = run_workload(name);
        print_table(&o);
        write_artifacts(&o);
    }
}
