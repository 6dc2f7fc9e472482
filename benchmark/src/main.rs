//! NCS benchmark v1 — the instrument `BENCHMARK.json` names.
//!
//! `--workload W` runs one workload in this process (what the driver and
//! the suites call); without it the process is a suite that runs each
//! workload in a fresh child of itself. See `README.md`.

mod layers;
mod metrics;
mod probes;
mod spans;
mod suite;
mod workloads;

use ncs_sim::EngineKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{nearest_rank, quartiles, result_json, END_TO_END, MODEL_CLOCK, PER_LAYER};
use spans::Spans;
use workloads::{run_rep, Rep, RunCfg, Workload};

/// What `BENCHMARK.json` tells the driver to pass as `--seconds`.
pub const RUN_SECONDS: u32 = 10;
pub const DEFAULT_SEED: u64 = 1995;
/// A time-boxed run never reports a median of fewer repetitions than this.
const MIN_REPS: usize = 3;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Time box for the repetitions; `None` runs the fixed counts.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub reps: Option<usize>,
    pub scale_div: u32,
    pub engine: EngineKind,
    pub out_dir: PathBuf,
    pub suite: suite::Suite,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20             [--reps R] [--scale-div D] [--engine coro|os] [--out DIR]\n\
         \x20      run.sh --selfcheck | --layers | --smoke | --engine os | --manifest\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        reps: None,
        scale_div: 1,
        engine: EngineKind::Coroutine,
        out_dir: PathBuf::from("benchmark/out"),
        suite: suite::Suite::EndToEnd,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage()));
            }
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => a.trace = value() == "1",
            "--reps" => a.reps = Some(value().parse().unwrap_or_else(|_| usage())),
            "--scale-div" => a.scale_div = value().parse().unwrap_or_else(|_| usage()),
            "--engine" => {
                a.engine = match value().as_str() {
                    "coro" => EngineKind::Coroutine,
                    "os" => EngineKind::OsThread,
                    _ => usage(),
                }
            }
            "--out" => a.out_dir = PathBuf::from(value()),
            "--selfcheck" => a.suite = suite::Suite::Selfcheck,
            "--layers" => a.suite = suite::Suite::Layers,
            "--smoke" => a.suite = suite::Suite::Smoke,
            "--manifest" => a.suite = suite::Suite::Manifest,
            _ => usage(),
        }
    }
    if a.workload.is_none() && a.engine == EngineKind::OsThread && a.suite == suite::Suite::EndToEnd
    {
        a.suite = suite::Suite::Sensitivity;
    }
    a
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The header every output starts with: where and how the numbers were made.
fn print_header(a: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# ncs-benchmark v1 | nproc {nproc} | {} | commit {} | profile {} | seed {}",
        std::env::var("NCS_BENCH_RUSTC").unwrap_or_else(|_| "rustc unknown".into()),
        std::env::var("NCS_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        a.seed,
    );
}

/// What is kept of a repetition once its samples are folded.
struct RepSummary {
    wall_s: f64,
    setup_s: f64,
    /// Model-clock values by metric name, in `MODEL_CLOCK` order.
    model: [f64; 4],
    latency_samples: usize,
    attempted: u64,
    verified: u64,
    events: u64,
    trace_hash: u64,
    breaches: Vec<String>,
}

fn summarize(rep: Rep) -> RepSummary {
    let virt_s = rep.virt_elapsed_ps as f64 / 1e12;
    RepSummary {
        wall_s: rep.wall_s,
        setup_s: rep.total_s - rep.wall_s,
        model: [
            virt_s,
            rep.payload_bytes as f64 * 8.0 / virt_s / 1e6,
            nearest_rank(&rep.latencies_ps, 0.5) as f64 / 1e9,
            nearest_rank(&rep.latencies_ps, 0.99) as f64 / 1e9,
        ],
        latency_samples: rep.latencies_ps.len(),
        attempted: rep.attempted,
        verified: rep.verified,
        events: rep.events,
        trace_hash: rep.trace_hash,
        breaches: rep.breaches,
    }
}

/// `PASS`/`FAIL` as a process exit code.
pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_cfg(a: &Args) -> RunCfg {
    RunCfg {
        seed: a.seed,
        scale_div: a.scale_div,
        engine: a.engine,
        trace: false,
        armed: false,
        layers: false,
    }
}

fn run_end_to_end(a: &Args, w: Workload) -> ExitCode {
    let cfg = run_cfg(a);
    let fixed_reps = a.reps.or(match a.seconds {
        Some(_) => None,
        None => Some(if w == Workload::PaperApps { 9 } else { 5 }),
    });
    let budget = Duration::from_secs_f64(a.seconds.unwrap_or(0.0));
    let mut spans = Spans::new();
    let mut reps: Vec<RepSummary> = Vec::new();
    let t0 = Instant::now();
    loop {
        spans.set_rep(reps.len() as u32);
        let mut s = summarize(run_rep(w, &cfg, &mut spans));
        // The determinism gate: same seed, same program, same bytes.
        if let Some(first) = reps.first() {
            if s.trace_hash != first.trace_hash || s.events != first.events {
                s.breaches.push(format!(
                    "trace {:016x}/{} events differs from repetition 0's {:016x}/{}",
                    s.trace_hash, s.events, first.trace_hash, first.events
                ));
            }
            for (i, name) in MODEL_CLOCK.iter().enumerate() {
                if s.model[i] != first.model[i] {
                    s.breaches.push(format!(
                        "{name} {} differs from repetition 0's {}",
                        s.model[i], first.model[i]
                    ));
                }
            }
        }
        println!(
            "rep {:2}: wall_s {:.4} setup_s {:.4} virt_elapsed_s {:.6} events {} trace {:016x} verified {}/{}{}",
            reps.len(),
            s.wall_s,
            s.setup_s,
            s.model[0],
            s.events,
            s.trace_hash,
            s.verified,
            s.attempted,
            if s.breaches.is_empty() { "" } else { "  BREACH" },
        );
        for b in &s.breaches {
            println!("        breach: {b}");
        }
        reps.push(s);
        let done = match fixed_reps {
            Some(r) => reps.len() >= r,
            None => reps.len() >= MIN_REPS && t0.elapsed() >= budget,
        };
        if done {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps
        .iter()
        .map(|r| {
            if r.breaches.is_empty() {
                r.attempted - r.verified
            } else {
                r.attempted
            }
        })
        .sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let (wall_q1, wall_med, wall_q3) = quartiles(&walls);
    let (setup_q1, setup_med, setup_q3) = quartiles(&setups);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("wall_s", wall_med);
    m.insert("setup_s", setup_med);
    m.insert("peak_rss_mib", peak_rss_mib());
    for (i, name) in MODEL_CLOCK.iter().enumerate() {
        m.insert(name, reps[0].model[i]);
    }
    m.insert(
        "verified_share",
        (attempted - failed) as f64 / attempted as f64,
    );

    println!(
        "workload {} | size 1/{} | engine {:?} | closed loop | R = {} repetitions in {:.1} s",
        w.name(),
        a.scale_div,
        a.engine,
        reps.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("info trace_hash {:016x}", reps[0].trace_hash);
    println!("info events {}", reps[0].events);
    for e in &END_TO_END {
        let detail = match e.name {
            "wall_s" => format!(
                "median of {}; quartiles {wall_q1:.4} .. {wall_q3:.4}",
                reps.len()
            ),
            "setup_s" => {
                format!(
                    "median of {}; quartiles {setup_q1:.4} .. {setup_q3:.4}",
                    reps.len()
                )
            }
            "peak_rss_mib" => "VmHWM at exit".to_string(),
            "virt_msg_p50_ms" | "virt_msg_p99_ms" => format!(
                "nearest rank over {} messages; identical on every repetition",
                reps[0].latency_samples
            ),
            "verified_share" => format!("{} of {attempted} operations", attempted - failed),
            _ => "identical on every repetition".to_string(),
        };
        println!(
            "  {:<18} {:>14.6} {:<9} ({} is better, bound {:>4.1} %)  {detail}",
            e.name,
            m[e.name],
            e.unit,
            e.better,
            e.bound * 100.0
        );
    }
    for (name, t) in spans.self_times() {
        println!("  harness self time  {name:<10} {t:>9.4} s");
    }
    let order: Vec<&'static str> = END_TO_END.iter().map(|e| e.name).collect();
    println!(
        "{}",
        result_json(failed == 0, attempted, failed, &m, &order)
    );
    exit_code(failed == 0)
}

fn run_traced(a: &Args, w: Workload) -> ExitCode {
    let mut spans = Spans::new();
    let t = layers::traced_run(w, &run_cfg(a), &a.out_dir, &mut spans);
    // Every per-layer metric is reported for every workload; one a workload
    // does not exercise reads 0.
    let mut m = t.metrics;
    let order: Vec<&'static str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    for name in &order {
        m.entry(name).or_insert(0.0);
    }
    println!(
        "workload {} | traced run: full size for counts, 1/{} size for tracer and analysis overhead, probes",
        w.name(),
        layers::SMALL_DIV
    );
    println!("info virt_goodput_mbps {}", t.virt_goodput_mbps);
    for (name, unit, better) in PER_LAYER {
        println!(
            "  {name:<32} {:>16.4} {unit:<7} ({better} is better)",
            m[name]
        );
    }
    for (name, secs) in spans.self_times() {
        println!("  harness self time  {name:<10} {secs:>9.4} s");
    }
    for b in &t.breaches {
        println!("breach: {b}");
    }
    println!(
        "wrote {0}/{1}.trace.json and {0}/{1}.harness.json",
        a.out_dir.display(),
        w.name()
    );
    println!(
        "{}",
        result_json(t.failed == 0, t.attempted, t.failed, &m, &order)
    );
    exit_code(t.failed == 0)
}

fn main() -> ExitCode {
    // The benchmark pins the engine and stack size itself; the program's
    // environment knobs must not reach the drivers that build their own `Sim`.
    std::env::remove_var("NCS_GREEN_ENGINE");
    std::env::remove_var("NCS_GREEN_STACK_KIB");
    let a = parse_args();
    ncs_sim::set_default_engine(a.engine);
    if a.suite != suite::Suite::Manifest {
        print_header(&a);
    }
    match a.workload {
        Some(w) if a.trace => run_traced(&a, w),
        Some(w) => run_end_to_end(&a, w),
        None => suite::run(&a),
    }
}
