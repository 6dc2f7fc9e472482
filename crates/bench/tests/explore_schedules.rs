//! Acceptance tests for the schedule explorer: a deliberately
//! re-introduced lost-wakeup bug (the classic check-then-block race) must
//! be caught by exploring alternative legal schedules, minimized, and
//! reproduced deterministically from the replay trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ncs_bench::explore::{explore, run_scripted, Mode, Observation, Workload};
use ncs_mts::{Mts, MtsConfig};
use ncs_sim::{
    format_trace, parse_trace, AnalysisConfig, Dur, SchedulePolicy, Sim, SimTime, StopReason,
};

/// The re-introduced bug: a waiter publishes a flag and then blocks, and a
/// same-priority waker only unblocks it if it saw the flag. Under the
/// canonical round-robin order (waiter spawned first, so it runs first)
/// the handshake works; if the scheduler legally rotates the waker to the
/// front, the wakeup is lost and the waiter blocks forever. Exactly the
/// guard-across-park family of race the explorer exists to catch.
struct LostWakeupWorkload;

impl Workload for LostWakeupWorkload {
    fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation {
        let sim = Sim::new();
        let (analysis, sink) = AnalysisConfig::recording();
        sim.set_analysis(analysis);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
            let waiting = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&waiting);
            let waiter = mts.spawn("waiter", 1, move |m| {
                flag.store(true, Ordering::SeqCst);
                m.block(); // BUG: the wakeup below is conditional on order.
            });
            let flag = Arc::clone(&waiting);
            mts.spawn("waker", 1, move |m| {
                if flag.load(Ordering::SeqCst) {
                    m.unblock(waiter);
                }
            });
            mts.start(ctx);
        });
        sim.set_schedule_policy(policy);
        let out = sim.run_bounded(Some(SimTime::ZERO + Dur::from_millis(10)), 100_000);
        let mut problems: Vec<String> = sink.take().iter().map(|v| format!("{v}")).collect();
        if out.reason != StopReason::Completed {
            problems.push(format!("run stopped by {:?}", out.reason));
        }
        for b in &out.blocked {
            problems.push(format!("[blocked] {b}"));
        }
        for p in &out.panics {
            problems.push(format!("[panic] {p}"));
        }
        let trace_hash = sim.trace_hash();
        sim.finish();
        Observation {
            decisions: Vec::new(),
            trace_hash,
            problems,
            deliveries: Default::default(),
        }
    }
}

#[test]
fn canonical_schedule_masks_the_lost_wakeup() {
    let obs = run_scripted(&LostWakeupWorkload, Vec::new());
    assert!(
        obs.problems.is_empty(),
        "the bug must be invisible on the default schedule (else plain \
         tests would already catch it): {:?}",
        obs.problems
    );
    assert!(
        !obs.decisions.is_empty(),
        "the fixture must present real scheduling choices"
    );
}

#[test]
fn explorer_finds_minimizes_and_replays_the_lost_wakeup() {
    let report = explore(
        &LostWakeupWorkload,
        Mode::Dfs {
            depth: 2,
            max_schedules: 80,
        },
    );
    assert!(
        report.violations > 0,
        "bounded DFS must expose the lost wakeup"
    );
    let ce = report.counterexample.expect("a counterexample is produced");
    assert!(
        ce.problems.iter().any(|p| p.contains("lost-wakeup")
            || p.contains("blocked")
            || p.contains("deadlock")),
        "counterexample names the stuck thread: {:?}",
        ce.problems
    );

    // The minimized trace replays deterministically: same interleaving
    // (kernel trace hash), same failure.
    let script: Vec<u32> = ce.decisions.iter().map(|d| d.chosen).collect();
    let first = run_scripted(&LostWakeupWorkload, script.clone());
    let second = run_scripted(&LostWakeupWorkload, script);
    assert_eq!(first.trace_hash, ce.trace_hash, "replay hits the same schedule");
    assert_eq!(first.trace_hash, second.trace_hash, "replay is deterministic");
    assert!(!first.problems.is_empty(), "replay reproduces the failure");

    // The serialized trace round-trips through the on-disk format
    // `xp explore <trace>` replays.
    assert_eq!(
        parse_trace(&ce.trace).expect("trace parses"),
        ce.decisions,
        "format_trace/parse_trace round-trip"
    );
    assert_eq!(format_trace(&ce.decisions), ce.trace);
}

#[test]
fn random_walks_also_find_the_lost_wakeup() {
    let report = explore(
        &LostWakeupWorkload,
        Mode::Walk {
            walks: 16,
            seed: 0xACE,
        },
    );
    assert!(
        report.violations > 0,
        "16 seeded walks over a 50/50 rotation choice must hit the bad \
         order (explored {} distinct interleavings)",
        report.distinct_interleavings
    );
}
