//! Schedule-space exploration of the NCS ring ([`RingWorkload`]): seeded
//! random walks, plus at `--smoke` size a bounded DFS, with every oracle of
//! [`crate::explore`] armed on every schedule. A violation leaves its
//! minimized schedule in `results/explore_counterexample.trace` (the line
//! naming the ring's rounds included) and fails the run; `xp explore
//! <trace>` replays such a file on the ring it names.

use crate::explore::{
    explore, problems_vs_baseline, run_scripted, ExploreReport, Mode, RingWorkload,
};
use crate::{results_dir, Col, Opts, Report};
use ncs_sim::parse_trace;

/// Seed of the first random walk; walk `i` takes `SEED + i`.
const SEED: u64 = 0x5EED;
/// The trace line naming the ring a counterexample was found on.
const ROUNDS: &str = "# ring rounds=";

const WORKLOAD: &[Col<RingWorkload>] = &[
    Col::text("workload", "workload", |_| "ring"),
    Col::int("hosts", "hosts", |w| w.hosts as u64),
    Col::int("rounds", "rounds", |w| w.rounds as u64),
    Col::flag("chaos", "chaos", |w| w.chaos),
    Col::int("seed", "seed", |_| SEED),
];

const PASSES: &[Col<(&str, ExploreReport)>] = &[
    Col::text("mode", "pass", |p| p.0),
    Col::int("schedules_explored", "schedules", |p| {
        p.1.schedules_explored as u64
    }),
    Col::int("distinct_interleavings", "distinct", |p| {
        p.1.distinct_interleavings as u64
    }),
    Col::int("violations", "violating", |p| p.1.violations as u64),
    Col::flag("truncated", "truncated", |p| p.1.truncated),
    Col::hex("baseline_trace_hash", "baseline trace hash", |p| {
        p.1.baseline_trace_hash
    }),
];

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let rounds = if opts.smoke { 2 } else { 3 };
    let ring = RingWorkload {
        rounds,
        ..RingWorkload::default()
    };
    if let Some(path) = opts.args.first() {
        return replay(path, ring, out);
    }
    out.bench = Some("BENCH_explore");
    out.record(WORKLOAD, &ring);
    let walk = Mode::Walk {
        walks: 24,
        seed: SEED,
    };
    let dfs = Mode::Dfs {
        depth: 1,
        max_schedules: 60,
    };
    let passes = if opts.smoke {
        vec![("walk", walk), ("dfs", dfs)]
    } else {
        vec![("walk", walk)]
    };
    let rows = out.table("passes", PASSES);
    for (name, mode) in passes {
        let pass = (name, explore(&ring, mode));
        out.row(&rows, &pass);
        if let Some(ce) = &pass.1.counterexample {
            let file = "explore_counterexample.trace";
            let trace = format!("{}{ROUNDS}{rounds}\n", ce.trace);
            std::fs::write(results_dir().join(file), trace).expect("write counterexample");
            for p in &ce.problems {
                out.note(format!("{name}: {p}\n"));
            }
            panic!(
                "{name}: {} violating schedule(s); minimized to {} decision(s) in \
                 results/{file}, replay with `xp explore results/{file}`",
                pass.1.violations,
                ce.decisions.len()
            );
        }
    }
    out.note("all explored schedules clean and observationally equivalent\n");
}

/// Re-runs the schedule a trace file pins, on the ring it names, against
/// that ring's canonical schedule; fails if its oracles still do.
fn replay(path: &str, mut ring: RingWorkload, out: &mut Report) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let decisions = parse_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    if let Some(rounds) = text
        .lines()
        .find_map(|l| l.strip_prefix(ROUNDS)?.parse().ok())
    {
        ring.rounds = rounds;
    }
    let obs = run_scripted(&ring, decisions.iter().map(|d| d.chosen).collect());
    let problems = problems_vs_baseline(&obs, &run_scripted(&ring, Vec::new()));
    out.note(format!(
        "replayed {} decision(s) from {path} on a {}-host ring, {} rounds: \
         trace hash {:#018x}, {} problem(s)\n",
        decisions.len(),
        ring.hosts,
        ring.rounds,
        obs.trace_hash,
        problems.len()
    ));
    for p in &problems {
        out.note(format!("{p}\n"));
    }
    assert!(
        problems.is_empty(),
        "the replayed schedule fails its oracles"
    );
}
