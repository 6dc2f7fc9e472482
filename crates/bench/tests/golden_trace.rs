//! Golden-trace determinism gate: the fixed-seed 4-host matmul, run under
//! full observability, must export a Chrome trace that is (a) byte-identical
//! across two runs in the same process and (b) byte-identical to the golden
//! snapshot checked in at `tests/golden/trace_matmul.json`.
//!
//! Any nondeterminism in the scheduler, the network stack, the metrics
//! registry, or the trace serializer shows up here as a byte diff. If the
//! diff is *intended* (the trace format or the instrumentation changed),
//! regenerate the snapshot:
//!
//! ```text
//! cargo run --release -p ncs-bench -- observe --smoke
//! cp results/trace_matmul.json crates/bench/tests/golden/trace_matmul.json
//! ```

use ncs_bench::experiments::observe::run_workload;

const GOLDEN: &str = include_str!("golden/trace_matmul.json");

/// The exact workload `xp observe` gates on — it is that experiment's own
/// function: 4 worker nodes on a 5-host FORE-LAN HSM stack, dim-32 matmul,
/// seed 7, monolithic buffers, result and analysis sink checked inside.
fn run_golden_workload() -> String {
    run_workload("matmul").trace_json
}

#[test]
fn two_runs_export_identical_traces() {
    let a = run_golden_workload();
    let b = run_golden_workload();
    assert_eq!(a, b, "two fixed-seed runs must export byte-identical traces");
}

#[test]
fn trace_matches_checked_in_golden() {
    let actual = run_golden_workload();
    if actual != GOLDEN {
        // Park the actual next to the harness output for inspection.
        let dir = ncs_bench::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(dir.join("trace_matmul.actual.json"), &actual);
        panic!(
            "exported trace diverged from tests/golden/trace_matmul.json \
             ({} vs {} bytes; actual written to results/trace_matmul.actual.json). \
             If the change is intended, regenerate the snapshot per the module docs.",
            actual.len(),
            GOLDEN.len()
        );
    }
}

#[test]
fn golden_trace_is_wellformed_chrome_json() {
    // Structural sanity on the snapshot itself so a bad regeneration can't
    // silently become the new truth: Chrome trace_event array form, with
    // metadata ("M"), complete-span ("X") and counter ("C") events.
    let g = GOLDEN.trim();
    assert!(
        g.starts_with("{\"traceEvents\":[") && g.ends_with('}'),
        "must be the Chrome trace object form"
    );
    for (ph, what) in [("\"ph\":\"M\"", "metadata"), ("\"ph\":\"X\"", "spans"), ("\"ph\":\"C\"", "counters")] {
        assert!(g.contains(ph), "golden trace has no {what} events");
    }
    // Balanced braces => no truncated snapshot.
    let opens = g.bytes().filter(|&b| b == b'{').count();
    let closes = g.bytes().filter(|&b| b == b'}').count();
    assert_eq!(opens, closes, "unbalanced braces: truncated snapshot?");
}
