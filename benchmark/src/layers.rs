//! The traced run (`--trace 1`): one full-size repetition for the exact
//! counts, the 1/8-size repetitions that price the program's tracer and
//! analysis pass, the micro-probes, and the derived shares — every
//! per-layer metric, measured from outside the program.

use ncs_bench::Comparison;
use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{median, nearest_rank};
use crate::probes;
use crate::spans::Spans;
use crate::workloads::{paper_seeds, run_rep, App, Rep, RunCfg, Workload};

/// Size divisor of the traced, armed and sensitivity repetitions.
pub const SMALL_DIV: u32 = 8;
/// Untraced / traced / armed rounds at the small size; medians are compared.
const SMALL_ROUNDS: usize = 3;

type Metrics = BTreeMap<&'static str, f64>;

pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub breaches: Vec<String>,
    /// The full-size repetition's goodput, for the cross-workload check.
    pub virt_goodput_mbps: f64,
}

/// Stage stems of `Rep::stages_ps` with the metrics they feed.
const STAGE_METRICS: [(&str, &str, &str); 6] = [
    (
        "queue_wait",
        "core.obs_queue_wait_p50_ms",
        "core.obs_queue_wait_p99_ms",
    ),
    ("inject", "core.obs_inject_p50_ms", "core.obs_inject_p99_ms"),
    ("wire", "core.obs_wire_p50_ms", "core.obs_wire_p99_ms"),
    ("pickup", "core.obs_pickup_p50_ms", "core.obs_pickup_p99_ms"),
    (
        "reassembly",
        "core.obs_reassembly_p50_ms",
        "core.obs_reassembly_p99_ms",
    ),
    (
        "deliver",
        "core.obs_deliver_p50_ms",
        "core.obs_deliver_p99_ms",
    ),
];

fn ms(ps: u64) -> f64 {
    ps as f64 / 1e9
}

/// The workload at 1/8 size, [`SMALL_ROUNDS`] times in each of three forms
/// — untraced, with the program's tracer on (scheduler detail included),
/// with the analysis pass armed — interleaved so drift in the machine's
/// speed hits all three alike. Returns the last traced repetition's Chrome
/// trace.
fn price_tracer_and_analysis(
    w: Workload,
    base: &RunCfg,
    spans: &mut Spans,
    m: &mut Metrics,
    breaches: &mut Vec<String>,
) -> Option<String> {
    let small = RunCfg {
        scale_div: SMALL_DIV,
        ..*base
    };
    let forms = [
        ("untraced", small),
        (
            "traced",
            RunCfg {
                trace: true,
                layers: true,
                ..small
            },
        ),
        (
            "armed",
            RunCfg {
                armed: true,
                ..small
            },
        ),
    ];
    let mut wall_s: [Vec<f64>; 3] = Default::default();
    let mut chrome_json = None;
    let mut rep_id = 0;
    for _ in 0..SMALL_ROUNDS {
        for (form, (name, cfg)) in forms.iter().enumerate() {
            rep_id += 1;
            spans.set_rep(rep_id);
            let rep = run_rep(w, cfg, spans);
            breaches.extend(rep.breaches.iter().map(|b| format!("1/8 size {name}: {b}")));
            wall_s[form].push(rep.wall_s);
            if cfg.armed {
                m.insert("analysis.violations", rep.count("analysis.violations"));
            }
            if cfg.trace {
                m.insert("sim.tracer_spans", rep.count("sim.tracer_spans"));
                chrome_json = rep.chrome_json;
            }
        }
    }
    let [plain, traced, armed] = wall_s.map(|v| median(&v));
    m.insert("sim.trace_overhead_ratio", traced / plain);
    m.insert("analysis.armed_overhead_ratio", armed / plain);
    if m["analysis.violations"] > 0.0 {
        breaches.push(format!("{} analysis violations", m["analysis.violations"]));
    }
    chrome_json
}

fn run_probes(full: &Rep, m: &mut Metrics) {
    let event_ns = probes::event_ns();
    let yield_ns = probes::yield_ns();
    m.insert(
        "sim.wheel_ns_per_op",
        probes::wheel_ns_per_op(full.count("sim.peak_queue_depth") as usize),
    );
    m.insert("sim.event_ns", event_ns);
    // What a resume costs beyond the event that triggers it.
    m.insert("sim.switch_ns", (yield_ns - event_ns).max(0.0));
    m.insert("sim.spawn_ns", probes::spawn_ns());
    m.insert(
        "sim.metrics_ns_per_op",
        probes::metrics_ns_per_op(
            &full.counter_keys,
            &full.stat_keys,
            full.count("sim.timelines_retained") as u64,
        ),
    );
    // What a dispatch through MTS costs beyond the bare yield.
    m.insert(
        "mts.dispatch_ns",
        (probes::mts_yield_ns() - yield_ns).max(0.0),
    );
    m.insert("net.crc32_ns_per_byte", probes::crc32_ns_per_byte());
    m.insert("net.aal5_ns_per_byte", probes::aal5_ns_per_byte());
    m.insert("net.hec_ns_per_cell", probes::hec_ns_per_cell());
    m.insert("net.raw_hsm_us_per_msg", probes::raw_hsm_us_per_msg());
    m.insert("net.raw_hsm_ns_per_byte", probes::raw_hsm_ns_per_byte());
    m.insert("net.raw_nsm_us_per_msg", probes::raw_nsm_us_per_msg());
}

/// Counts times per-operation costs, as shares of the full-size `wall_s`.
fn derive_shares(w: Workload, full: &Rep, kernel_wall_s: f64, m: &mut Metrics) {
    let wall_ns = full.wall_s * 1e9;
    let events = full.count("sim.events");
    let msgs = full.count("core.msgs").max(1.0);
    let dispatches = full.count("mts.dispatches");

    m.insert("sim.events_per_msg", events / msgs);
    m.insert("sim.wall_ns_per_event", wall_ns / events);
    m.insert(
        "sim.timelines_complete_share",
        full.timelines_complete as f64 / full.count("sim.timelines_retained").max(1.0),
    );
    // Every MTS dispatch resumes its thread twice: the wake, then the end
    // of the modelled context-switch delay. Threads that sleep for modelled
    // CPU time resume more often than that, so this is a floor.
    let kernel_share =
        (events * m["sim.event_ns"] + 2.0 * dispatches * m["sim.switch_ns"]) / wall_ns;
    m.insert("sim.kernel_share", kernel_share);
    m.insert("mts.dispatches_per_msg", dispatches / msgs);
    let mts_share = dispatches * m["mts.dispatch_ns"] / wall_ns;
    m.insert("mts.share", mts_share);
    m.insert("net.cells_per_event", full.count("net.cells") / events);
    // Checksummed workloads run CRC-32 over every byte handed to the
    // transport twice: `wrap_checked` at the sender, `unwrap_checked` at
    // the receiver.
    let checked_bytes = match w {
        Workload::BulkPipeline | Workload::RingClean | Workload::RingLossy => {
            full.count("net.bytes")
        }
        Workload::CollectiveSmall | Workload::PaperApps => 0.0,
    };
    let crc_share = 2.0 * checked_bytes * m["net.crc32_ns_per_byte"] / wall_ns;
    m.insert("net.crc_share", crc_share);
    let apps_share = kernel_wall_s / full.wall_s;
    m.insert("apps.kernel_share", apps_share);
    m.insert(
        "harness.unattributed_share",
        1.0 - kernel_share - mts_share - crc_share - apps_share,
    );

    let host_us_per_msg = full.wall_s * 1e6 / msgs;
    m.insert("core.host_us_per_msg", host_us_per_msg);
    let raw_us = match w {
        Workload::CollectiveSmall | Workload::BulkPipeline => m["net.raw_hsm_us_per_msg"],
        _ => m["net.raw_nsm_us_per_msg"],
    };
    m.insert("core.stack_us_per_msg", host_us_per_msg - raw_us);
    let retransmits = full.count("core.retransmits");
    m.insert("core.useful_tx_ratio", msgs / (msgs + retransmits));
    m.insert(
        "core.spurious_ratio",
        if retransmits > 0.0 {
            full.count("core.spurious_retransmits") / retransmits
        } else {
            0.0
        },
    );
    for (stem, p50, p99) in STAGE_METRICS {
        let samples = full.stages_ps.get(stem).map_or(&[][..], Vec::as_slice);
        m.insert(p50, ms(nearest_rank(samples, 0.5)));
        m.insert(p99, ms(nearest_rank(samples, 0.99)));
    }
    // The registry's own stage histograms must telescope to its end-to-end
    // histogram: sum of stage totals minus e2e total, per message.
    let gap_ps = full.obs_parts_ps as f64 - full.obs_e2e_ps as f64;
    m.insert("core.obs_sum_gap", gap_ps / 1e9 / msgs);
}

/// The p4 and apps metrics: `paper_apps`' rows against the paper's tables.
/// All read 0 on the other workloads, whose grid is empty.
fn derive_paper(full: &Rep, m: &mut Metrics, breaches: &mut Vec<String>) {
    let mean = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    // Mean of the paper's "% improvement" over an application's multi-node rows.
    let improvement_pct = |app: App| {
        mean(
            full.grid
                .iter()
                .filter(|r| r.cell.app == app && r.measured.nodes > 1)
                .map(|r| r.measured.improvement())
                .collect(),
        )
    };
    m.insert(
        "p4.virt_elapsed_s",
        full.grid.iter().fold(0.0, |sum, r| sum + r.measured.p4),
    );
    m.insert("p4.wall_share", full.p4_wall_s / full.wall_s);
    m.insert("apps.matmul_impr_pct", improvement_pct(App::Matmul));
    m.insert("apps.jpeg_impr_pct", improvement_pct(App::Jpeg));
    m.insert("apps.fft_impr_pct", improvement_pct(App::Fft));
    m.insert(
        "apps.paper_abs_err_pct",
        mean(
            full.grid
                .iter()
                .flat_map(|r| {
                    let (sim, paper) = (r.measured, r.cell.paper);
                    [
                        (sim.p4 - paper.p4).abs() / paper.p4 * 100.0,
                        (sim.ncs - paper.ncs).abs() / paper.ncs * 100.0,
                    ]
                })
                .collect(),
        ),
    );
    // The paper's qualitative shape, as its own harness checks it: NCS wins
    // on every multi-node row and carries its threading overhead on the
    // single-node rows.
    let shape_violations = Comparison {
        testbed: "paper_apps",
        measured: full.grid.iter().map(|r| r.measured).collect(),
        paper: Vec::new(),
    }
    .shape_violations();
    m.insert("apps.shape_violations", shape_violations.len() as f64);
    breaches.extend(shape_violations);
}

/// Writes the program's own trace (virtual clock) and the harness's spans
/// (wall clock) side by side.
fn write_traces(w: Workload, out_dir: &Path, chrome_json: Option<String>, spans: &Spans) {
    std::fs::create_dir_all(out_dir).expect("create the benchmark's output directory");
    if let Some(json) = chrome_json {
        std::fs::write(out_dir.join(format!("{}.trace.json", w.name())), json)
            .expect("write the program trace");
    }
    let harness = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        spans.chrome_events().join(",\n")
    );
    std::fs::write(out_dir.join(format!("{}.harness.json", w.name())), harness)
        .expect("write the harness trace");
}

pub fn traced_run(w: Workload, base: &RunCfg, out_dir: &Path, spans: &mut Spans) -> Traced {
    let mut breaches = Vec::new();

    // Full size, tracer off: exact counts, stage decomposition, wall_s.
    spans.set_rep(0);
    let full = run_rep(
        w,
        &RunCfg {
            layers: true,
            ..*base
        },
        spans,
    );
    breaches.extend(full.breaches.iter().map(|b| format!("full size: {b}")));
    let mut m: Metrics = full.counts.clone();

    let chrome_json = price_tracer_and_analysis(w, base, spans, &mut m, &mut breaches);
    let kernel_wall_s = spans.scope("probes", |_| {
        run_probes(&full, &mut m);
        if w == Workload::PaperApps {
            let (matmul_seed, jpeg_seed, fft_seed) = paper_seeds(base.seed);
            probes::apps_kernel_wall_s(matmul_seed, jpeg_seed, fft_seed)
        } else {
            0.0
        }
    });
    derive_shares(w, &full, kernel_wall_s, &mut m);
    derive_paper(&full, &mut m, &mut breaches);
    for (metric, span) in [
        ("harness.gen_s", "gen_inputs"),
        ("harness.verify_s", "verify"),
        ("harness.collect_s", "collect"),
        ("net.build_s", "build_net"),
        ("core.launch_s", "launch"),
        ("sim.finish_s", "finish"),
    ] {
        m.insert(metric, spans.total_s(span, 0));
    }
    write_traces(w, out_dir, chrome_json, spans);

    let failed = if breaches.is_empty() {
        full.attempted - full.verified
    } else {
        full.attempted
    };
    Traced {
        metrics: m,
        attempted: full.attempted,
        failed,
        breaches,
        virt_goodput_mbps: full.payload_bytes as f64 * 8.0
            / (full.virt_elapsed_ps as f64 / 1e12)
            / 1e6,
    }
}
