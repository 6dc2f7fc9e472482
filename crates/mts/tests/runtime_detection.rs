//! Runtime-analysis detection tests: a deliberately deadlocked pair of
//! MTS threads is reported by the scheduler's wait-for scan, a thread
//! nobody ever wakes is reported by the kernel as a lost wakeup, and a
//! clean run reports nothing. Each report is asserted in full.

use ncs_mts::{Mts, MtsConfig, MtsTid};
use ncs_sim::sync::Mutex;
use ncs_sim::{AnalysisConfig, Sim, StopReason, Violation};
use std::sync::Arc;

fn violation(check: &'static str, actor: &str, detail: &str) -> Violation {
    Violation {
        check,
        actor: actor.to_string(),
        detail: detail.to_string(),
    }
}

const PARKED: &str = "still parked after the event queue drained; no pending event, \
                      timer, or in-flight frame can unblock it";

#[test]
fn two_thread_cyclic_wait_is_reported_as_deadlock() {
    let sim = Sim::new();
    let (analysis, sink) = AnalysisConfig::recording();
    sim.set_analysis(analysis);
    let mts = Mts::new(&sim, "proc0", MtsConfig::default());

    // Tid exchange: `a` is spawned first, so `b` can capture `a`'s tid
    // directly; `a` reads `b`'s out of the cell once it runs.
    let b_cell: Arc<Mutex<Option<MtsTid>>> = Arc::new(Mutex::new(None));
    let b_cell2 = Arc::clone(&b_cell);
    let ta = mts.spawn("a", 5, move |m| {
        let tb = (*b_cell2.lock()).expect("b spawned before the sim runs");
        m.block_on(tb); // waits on b ...
    });
    let tb = mts.spawn("b", 5, move |m| {
        m.block_on(ta); // ... which waits on a: a cycle.
    });
    *b_cell.lock() = Some(tb);
    assert_eq!((ta, tb), (MtsTid(0), MtsTid(1)));

    let mts2 = mts.clone();
    sim.spawn("main", move |ctx| mts2.start(ctx));
    let out = sim.run();

    assert_eq!(out.reason, StopReason::Completed);
    assert_eq!(out.blocked, ["proc0/a", "proc0/b", "main"]);
    assert_eq!(
        sink.take(),
        [
            violation(
                "deadlock",
                "proc0",
                "cyclic wait among blocked threads: t0/a -> t1/b, t1/b -> t0/a",
            ),
            violation("lost-wakeup", "proc0/a", PARKED),
            violation("lost-wakeup", "proc0/b", PARKED),
            violation("lost-wakeup", "main", PARKED),
        ]
    );
}

#[test]
fn forgotten_unblock_is_reported_as_lost_wakeup() {
    let sim = Sim::new();
    let (analysis, sink) = AnalysisConfig::recording();
    sim.set_analysis(analysis);
    let mts = Mts::new(&sim, "proc0", MtsConfig::default());
    mts.spawn("loner", 5, |m| {
        m.block(); // nobody will ever unblock this
    });
    mts.spawn("worker", 5, |m| {
        m.sleep(ncs_sim::Dur::from_micros(5)); // finishes fine
    });
    let mts2 = mts.clone();
    sim.spawn("main", move |ctx| mts2.start(ctx));
    let out = sim.run();

    // A single anonymous block is not a cycle: only the kernel reports.
    assert_eq!(out.reason, StopReason::Completed);
    assert_eq!(
        sink.take(),
        [
            violation("lost-wakeup", "proc0/loner", PARKED),
            violation("lost-wakeup", "main", PARKED),
        ]
    );
}

#[test]
fn clean_runs_report_nothing_and_queues_validate() {
    let sim = Sim::new();
    let (analysis, sink) = AnalysisConfig::recording();
    sim.set_analysis(analysis);
    let mts = Mts::new(&sim, "proc0", MtsConfig::default());
    // A block/unblock pair plus sleeps: plenty of queue churn, no bug.
    let pinged: Arc<Mutex<bool>> = Arc::new(Mutex::new(false));
    let pinged2 = Arc::clone(&pinged);
    let waiter = mts.spawn("waiter", 3, move |m| {
        m.block();
        *pinged2.lock() = true;
    });
    mts.spawn("waker", 7, move |m| {
        m.sleep(ncs_sim::Dur::from_micros(2));
        m.unblock(waiter);
    });
    let mts2 = mts.clone();
    sim.spawn("main", move |ctx| mts2.start(ctx));
    let out = sim.run();
    out.assert_clean();

    assert!(*pinged.lock());
    let violations = sink.take();
    assert!(
        violations.is_empty(),
        "clean run must not report: {violations:#?}"
    );
    assert!(mts.validate_queues().is_empty());
}
