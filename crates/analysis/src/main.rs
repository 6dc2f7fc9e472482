//! CI driver for the analysis layer: `cargo run -p ncs-analysis -- [mode]`.
//!
//! Modes:
//!
//! * `lint` — run the source-level determinism lint over the
//!   simulation-facing crates.
//! * `smoke` — run the three paper applications (matrix multiply, FFT,
//!   JPEG pipeline) at small scale with every runtime invariant check
//!   armed: credit flow control plus checksum-retransmit error control,
//!   deadlock/lost-wakeup detection, queue validation, and the protocol
//!   conservation checks.
//! * `explore` — schedule-space exploration over the ring workload:
//!   random-walk and bounded-DFS schedule fuzzing with every oracle armed
//!   plus cross-schedule observational equivalence. Flags: `--smoke`
//!   (fast CI preset), `--walks N`, `--dfs DEPTH`, `--max-schedules N`,
//!   `--seed S`, `--hosts N`, `--rounds N`, `--chaos`,
//!   `--replay FILE`. Writes a JSON summary to
//!   `results/BENCH_explore.json` and, on failure, a minimized replay
//!   trace to `results/explore_counterexample.trace`.
//! * `all` (default) — lint + smoke + explore `--smoke`.
//!
//! Exit code 1 on any violation, 2 on a usage error, with one line per
//! finding.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use ncs_analysis::{explore, lint_workspace, problems_vs_baseline, run_scripted, Mode, RingWorkload};
use ncs_apps::fft::{fft_ncs_setup_with, FftConfig};
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, MatmulConfig};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, ALL_STAGES};
use ncs_net::Testbed;
use ncs_sim::{parse_trace, AnalysisConfig, InvariantSink, Sim};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| "all".to_string());
    let mut failures = 0usize;
    if mode == "lint" || mode == "all" {
        failures += run_lint();
    }
    if mode == "smoke" || mode == "all" {
        failures += run_smoke();
    }
    if mode == "explore" || mode == "all" {
        let flags = if mode == "all" {
            vec!["--smoke".to_string()]
        } else {
            args[1..].to_vec()
        };
        match run_explore(&flags) {
            Ok(n) => failures += n,
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "usage: ncs-analysis explore [--smoke] [--walks N] [--dfs DEPTH] \
                     [--max-schedules N] [--seed S] [--hosts N] [--rounds N] [--chaos] \
                     [--replay FILE]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if !matches!(mode.as_str(), "lint" | "smoke" | "explore" | "all") {
        eprintln!("usage: ncs-analysis [lint|smoke|explore|all]");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!("ncs-analysis: {failures} violation(s)");
        ExitCode::FAILURE
    } else {
        println!("ncs-analysis: clean");
        ExitCode::SUCCESS
    }
}

/// Parsed `explore` flags.
struct ExploreArgs {
    walks: usize,
    dfs: Option<usize>,
    max_schedules: usize,
    seed: u64,
    hosts: usize,
    rounds: usize,
    chaos: bool,
    replay: Option<String>,
}

fn parse_explore_args(flags: &[String]) -> Result<ExploreArgs, String> {
    let mut a = ExploreArgs {
        walks: 24,
        dfs: None,
        max_schedules: 200,
        seed: 0x5EED,
        hosts: 2,
        rounds: 3,
        chaos: false,
        replay: None,
    };
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("explore: {name} needs a value"))?
            .parse()
            .map_err(|_| format!("explore: bad value for {name}"))
    }
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            // CI preset: small, fast, deterministic (~seconds).
            "--smoke" => {
                a.walks = 24;
                a.dfs = Some(1);
                a.max_schedules = 60;
                a.hosts = 2;
                a.rounds = 2;
            }
            "--walks" => a.walks = num(&mut it, "--walks")? as usize,
            "--dfs" => a.dfs = Some(num(&mut it, "--dfs")? as usize),
            "--max-schedules" => a.max_schedules = num(&mut it, "--max-schedules")? as usize,
            "--seed" => a.seed = num(&mut it, "--seed")?,
            "--hosts" => a.hosts = num(&mut it, "--hosts")? as usize,
            "--rounds" => a.rounds = num(&mut it, "--rounds")? as usize,
            "--chaos" => a.chaos = true,
            "--replay" => {
                a.replay = Some(
                    it.next()
                        .ok_or("explore: --replay needs a trace file")?
                        .clone(),
                )
            }
            other => return Err(format!("explore: unknown flag `{other}`")),
        }
    }
    if a.hosts < 2 || a.hosts > 8 {
        return Err("explore: --hosts must be in 2..=8".to_string());
    }
    Ok(a)
}

/// Runs the schedule explorer (or a single replay); returns the number of
/// failing schedules and writes `results/BENCH_explore.json`.
fn run_explore(flags: &[String]) -> Result<usize, String> {
    let a = parse_explore_args(flags)?;
    let workload = RingWorkload {
        hosts: a.hosts,
        rounds: a.rounds,
        chaos: a.chaos,
    };

    if let Some(path) = &a.replay {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("explore: cannot read replay trace {path}: {e}"))?;
        let decisions = parse_trace(&text).map_err(|e| format!("explore: {path}: {e}"))?;
        let script: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
        println!(
            "explore: replaying {} decision(s) from {path} on ring(hosts={}, rounds={}{})",
            script.len(),
            a.hosts,
            a.rounds,
            if a.chaos { ", chaos" } else { "" },
        );
        let baseline = run_scripted(&workload, Vec::new());
        let obs = run_scripted(&workload, script);
        let problems = problems_vs_baseline(&obs, &baseline);
        for p in &problems {
            eprintln!("explore[replay]: {p}");
        }
        println!(
            "explore: replay trace_hash {:#018x} ({} problem(s))",
            obs.trace_hash,
            problems.len()
        );
        return Ok(usize::from(!problems.is_empty()));
    }

    let mut failing = 0usize;
    let mut summaries = Vec::new();

    // Random-walk pass.
    let walk_report = explore(
        &workload,
        Mode::Walk {
            walks: a.walks,
            seed: a.seed,
        },
    );
    println!(
        "explore[walk]: {} schedule(s), {} distinct interleaving(s), {} violating",
        walk_report.schedules_explored,
        walk_report.distinct_interleavings,
        walk_report.violations
    );
    summaries.push(("walk", walk_report));

    // Bounded exhaustive pass (optional outside --smoke/--dfs).
    if let Some(depth) = a.dfs {
        let dfs_report = explore(
            &workload,
            Mode::Dfs {
                depth,
                max_schedules: a.max_schedules,
            },
        );
        println!(
            "explore[dfs]: {} schedule(s), {} distinct interleaving(s), {} violating{}",
            dfs_report.schedules_explored,
            dfs_report.distinct_interleavings,
            dfs_report.violations,
            if dfs_report.truncated {
                " (truncated at cap)"
            } else {
                ""
            }
        );
        summaries.push(("dfs", dfs_report));
    }

    std::fs::create_dir_all("results").map_err(|e| format!("explore: create results/: {e}"))?;
    let mut json = String::from("{\n  \"workload\": \"ring\",\n");
    json.push_str(&format!(
        "  \"hosts\": {},\n  \"rounds\": {},\n  \"chaos\": {},\n  \"seed\": {},\n  \"passes\": [\n",
        a.hosts, a.rounds, a.chaos, a.seed
    ));
    for (i, (name, r)) in summaries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{name}\", \"schedules_explored\": {}, \
             \"distinct_interleavings\": {}, \"violations\": {}, \"truncated\": {}, \
             \"baseline_trace_hash\": \"{:#018x}\"}}{}\n",
            r.schedules_explored,
            r.distinct_interleavings,
            r.violations,
            r.truncated,
            r.baseline_trace_hash,
            if i + 1 < summaries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("results/BENCH_explore.json", json)
        .map_err(|e| format!("explore: write results/BENCH_explore.json: {e}"))?;

    for (name, r) in &summaries {
        failing += r.violations;
        if let Some(ce) = &r.counterexample {
            for p in &ce.problems {
                eprintln!("explore[{name}]: {p}");
            }
            let path = "results/explore_counterexample.trace";
            std::fs::write(path, &ce.trace)
                .map_err(|e| format!("explore: write {path}: {e}"))?;
            eprintln!(
                "explore[{name}]: minimized counterexample ({} decision(s)) written to {path}; \
                 replay with `ncs-analysis explore --replay {path}`",
                ce.decisions.len()
            );
        }
    }
    if failing == 0 {
        println!("explore: all explored schedules clean and observationally equivalent");
    }
    Ok(failing)
}

/// Lints the workspace sources; returns the number of violations.
fn run_lint() -> usize {
    // CARGO_MANIFEST_DIR = <root>/crates/analysis.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    match lint_workspace(root) {
        Ok(violations) => {
            for v in &violations {
                eprintln!("lint: {v}");
            }
            println!("lint: scanned {}, {} violation(s)", root.display(), violations.len());
            violations.len()
        }
        Err(e) => {
            eprintln!("lint: cannot read workspace sources: {e}");
            1
        }
    }
}

/// An NCS configuration with every protocol feature the invariant checks
/// watch: credit flow control and checksum-retransmit error control.
fn checked_cfg() -> (NcsConfig, Arc<InvariantSink>) {
    let (analysis, sink) = AnalysisConfig::recording();
    (
        NcsConfig {
            flow: FlowControl::Credit { window: 4 },
            error: ErrorControl::ChecksumRetransmit,
            analysis,
            ..NcsConfig::default()
        },
        sink,
    )
}

/// Drains `sink` and reports; returns the number of violations plus one if
/// the app failed to verify.
fn tally(app: &str, verified: bool, sink: &InvariantSink) -> usize {
    let violations = sink.take();
    for v in &violations {
        eprintln!("smoke[{app}]: {v}");
    }
    let mut n = violations.len();
    if !verified {
        eprintln!("smoke[{app}]: result verification failed");
        n += 1;
    } else {
        println!("smoke[{app}]: verified, {} violation(s)", violations.len());
    }
    n
}

/// Checks the causal timelines the observability layer stamped during the
/// run: every tracked message's stage marks must follow the canonical
/// `enqueued -> ... -> delivered` walk in order. Returns violation count.
fn check_timelines(app: &str, sim: &Sim) -> usize {
    let errs = sim.with_metrics(|m| m.validate_timelines(&ALL_STAGES));
    for e in &errs {
        eprintln!("smoke[{app}]: timeline: {e}");
    }
    errs.len()
}

/// Runs the three applications with invariant checking on; returns the
/// total number of violations.
fn run_smoke() -> usize {
    let mut failures = 0usize;

    {
        let sim = Sim::new();
        let (cfg, sink) = checked_cfg();
        let handle = setup_matmul_ncs_with(
            &sim,
            Testbed::SunAtmLanTcp.build(3),
            MatmulConfig {
                dim: 32,
                nodes: 2,
                seed: 0x4D4D,
            },
            cfg,
        );
        sim.run().assert_clean();
        failures += tally("matmul", handle.verify(), &sink);
        failures += check_timelines("matmul", &sim);
    }

    {
        let sim = Sim::new();
        let (cfg, sink) = checked_cfg();
        let handle = fft_ncs_setup_with(
            &sim,
            Testbed::SunAtmLanTcp.build(3),
            FftConfig {
                m: 64,
                sets: 1,
                nodes: 2,
                seed: 0xFF7,
            },
            cfg,
        );
        sim.run().assert_clean();
        failures += tally("fft", handle.verify(), &sink);
        failures += check_timelines("fft", &sim);
    }

    {
        let sim = Sim::new();
        let (cfg, sink) = checked_cfg();
        let handle = setup_jpeg_ncs_with(
            &sim,
            Testbed::SunAtmLanTcp.build(3),
            JpegConfig {
                width: 64,
                height: 64,
                quality: 60,
                entropy: ncs_apps::jpeg::EntropyKind::Huffman,
                nodes: 2,
                seed: 4,
            },
            cfg,
        );
        sim.run().assert_clean();
        failures += tally("jpeg", handle.verify(), &sink);
        failures += check_timelines("jpeg", &sim);
    }

    failures
}
