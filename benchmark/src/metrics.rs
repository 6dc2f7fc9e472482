//! The metric tables `BENCHMARK.json` is generated from, order statistics,
//! and the one-line JSON result the driver reads.

use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// Each is at least three times the widest spread (interquartile range
    /// over median, ten runs, ten seeds) seen on any workload in the
    /// container the benchmark was written in, except `wall_s`, which sits
    /// at the cap: that box's speed wanders by 5-18 % between 10 s runs.
    /// The driver varies the seed between runs, so the model-clock bounds
    /// have to cover `ring_lossy`'s seed-to-seed spread; at one fixed seed
    /// the model clock repeats exactly and `--selfcheck` holds it to that.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "virt_elapsed_s",
        unit: "virt_s",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "virt_goodput_mbps",
        unit: "Mb/virt_s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "virt_msg_p50_ms",
        unit: "virt_ms",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "virt_msg_p99_ms",
        unit: "virt_ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "verified_share",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
    },
];

/// Metrics on the model clock: identical on every repetition and on every
/// run with the same seed.
pub const MODEL_CLOCK: [&str; 4] = [
    "virt_elapsed_s",
    "virt_goodput_mbps",
    "virt_msg_p50_ms",
    "virt_msg_p99_ms",
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer (the
/// layers are the crates). README.md says what each one is and which
/// end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // sim
    ("sim.events", "count", "lower"),
    ("sim.events_per_msg", "count", "lower"),
    ("sim.peak_queue_depth", "count", "lower"),
    ("sim.wall_ns_per_event", "ns", "lower"),
    ("sim.wheel_ns_per_op", "ns", "lower"),
    ("sim.event_ns", "ns", "lower"),
    ("sim.switch_ns", "ns", "lower"),
    ("sim.spawn_ns", "ns", "lower"),
    ("sim.metrics_ns_per_op", "ns", "lower"),
    ("sim.kernel_share", "ratio", "lower"),
    ("sim.timelines_retained", "count", "lower"),
    ("sim.timelines_complete_share", "ratio", "higher"),
    ("sim.gauge_samples_retained", "count", "lower"),
    ("sim.finish_s", "s", "lower"),
    ("sim.tracer_spans", "count", "lower"),
    ("sim.trace_overhead_ratio", "ratio", "lower"),
    // mts
    ("mts.dispatches", "count", "lower"),
    ("mts.dispatches_per_msg", "count", "lower"),
    ("mts.dispatch_ns", "ns", "lower"),
    ("mts.share", "ratio", "lower"),
    ("mts.run_slice_p50_us", "virt_us", "higher"),
    ("mts.runnable_wait_p99_us", "virt_us", "lower"),
    // net
    ("net.crc32_ns_per_byte", "ns", "lower"),
    ("net.aal5_ns_per_byte", "ns", "lower"),
    ("net.hec_ns_per_cell", "ns", "lower"),
    ("net.raw_hsm_us_per_msg", "us", "lower"),
    ("net.raw_hsm_ns_per_byte", "ns", "lower"),
    ("net.raw_nsm_us_per_msg", "us", "lower"),
    ("net.cells", "count", "lower"),
    ("net.cell_events", "count", "lower"),
    ("net.cells_per_event", "ratio", "higher"),
    ("net.bytes", "count", "lower"),
    ("net.cells_lost", "count", "lower"),
    ("net.cells_corrupted", "count", "lower"),
    ("net.pdus_rejected", "count", "lower"),
    ("net.fabric_drops", "count", "lower"),
    ("net.switch_out_peak_bytes", "count", "lower"),
    ("net.build_s", "s", "lower"),
    ("net.crc_share", "ratio", "lower"),
    // core
    ("core.msgs", "count", "lower"),
    ("core.launch_s", "s", "lower"),
    ("core.host_us_per_msg", "us", "lower"),
    ("core.stack_us_per_msg", "us", "lower"),
    ("core.chunks", "count", "lower"),
    ("core.retransmits", "count", "lower"),
    ("core.spurious_retransmits", "count", "lower"),
    ("core.backoffs", "count", "lower"),
    ("core.rtt_samples", "count", "higher"),
    ("core.dup_suppressed", "count", "lower"),
    ("core.retx_deferred", "count", "lower"),
    ("core.delivery_failures", "count", "lower"),
    ("core.reasm_reclaimed", "count", "lower"),
    ("core.dead_peers", "count", "lower"),
    ("core.useful_tx_ratio", "ratio", "higher"),
    ("core.spurious_ratio", "ratio", "lower"),
    ("core.obs_queue_wait_p50_ms", "virt_ms", "lower"),
    ("core.obs_queue_wait_p99_ms", "virt_ms", "lower"),
    ("core.obs_inject_p50_ms", "virt_ms", "lower"),
    ("core.obs_inject_p99_ms", "virt_ms", "lower"),
    ("core.obs_wire_p50_ms", "virt_ms", "lower"),
    ("core.obs_wire_p99_ms", "virt_ms", "lower"),
    ("core.obs_pickup_p50_ms", "virt_ms", "lower"),
    ("core.obs_pickup_p99_ms", "virt_ms", "lower"),
    ("core.obs_reassembly_p50_ms", "virt_ms", "lower"),
    ("core.obs_reassembly_p99_ms", "virt_ms", "lower"),
    ("core.obs_deliver_p50_ms", "virt_ms", "lower"),
    ("core.obs_deliver_p99_ms", "virt_ms", "lower"),
    ("core.obs_sum_gap", "virt_ms", "lower"),
    ("core.req_wait_p99_ms", "virt_ms", "lower"),
    ("core.req_service_p99_ms", "virt_ms", "lower"),
    // p4 / apps
    ("p4.virt_elapsed_s", "virt_s", "lower"),
    ("p4.wall_share", "ratio", "lower"),
    ("apps.matmul_impr_pct", "%", "higher"),
    ("apps.jpeg_impr_pct", "%", "higher"),
    ("apps.fft_impr_pct", "%", "higher"),
    ("apps.paper_abs_err_pct", "%", "lower"),
    ("apps.shape_violations", "count", "lower"),
    ("apps.kernel_share", "ratio", "lower"),
    // analysis
    ("analysis.armed_overhead_ratio", "ratio", "lower"),
    ("analysis.violations", "count", "lower"),
    // harness
    ("harness.gen_s", "s", "lower"),
    ("harness.verify_s", "s", "lower"),
    ("harness.collect_s", "s", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return m.unit;
    }
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// Nearest-rank percentile of a sorted sample (`q` in `(0, 1]`), 0 if empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(first quartile, median, third quartile)` by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so the spreads
/// printed here are the ones the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The result line: exactly the keys the driver expects, each value with
/// all its digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    order: &[&'static str],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in order.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        s.push_str(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            unit_of(name)
        ));
    }
    s.push_str("}}");
    s
}

/// What a parent process reads back from a child's result line.
pub struct ChildResult {
    pub correct: bool,
    pub failed: u64,
    /// Values as printed, so equality "to the last printed digit" is a
    /// string comparison.
    pub metrics: BTreeMap<String, String>,
}

impl ChildResult {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("child did not report {name}"))
            .parse()
            .unwrap_or_else(|_| panic!("child reported a non-number for {name}"))
    }
}

/// Parses a line written by [`result_json`]. Not a general JSON parser.
pub fn parse_result(line: &str) -> Option<ChildResult> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("\"}") {
        let Some(value_at) = part.find("\": {\"value\": ") else {
            continue;
        };
        let name = part[..value_at].rsplit('"').next()?;
        let value = part[value_at + 13..].split(',').next()?;
        metrics.insert(name.to_string(), value.to_string());
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift (`--manifest` prints it; `--selfcheck` compares it with the file).
pub fn manifest(run_seconds: u32, workloads: &[(&str, &str)]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
