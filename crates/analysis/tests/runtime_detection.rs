//! Runtime-analysis detection tests: a deliberately deadlocked pair of
//! MTS threads is caught by the scheduler's wait-for-graph scan, a thread
//! nobody ever wakes is flagged as a lost wakeup, and the offline
//! classifier agrees with both.

use ncs_analysis::check_outcome;
use ncs_mts::{Mts, MtsConfig, MtsTid};
use ncs_sim::sync::Mutex;
use ncs_sim::{AnalysisConfig, Sim, StopReason};
use std::sync::Arc;

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

    let mts2 = mts.clone();
    sim.spawn("main", move |ctx| mts2.start(ctx));
    let out = sim.run();

    assert_eq!(out.reason, StopReason::Completed);
    assert!(!out.blocked.is_empty(), "both threads must be stuck");

    let vs = sink.violations();
    let deadlocks: Vec<_> = vs.iter().filter(|v| v.check == "deadlock").collect();
    assert!(
        !deadlocks.is_empty(),
        "scheduler must report the cycle; sink: {vs:#?}"
    );
    assert!(
        deadlocks[0].detail.contains("a") && deadlocks[0].detail.contains("b"),
        "cycle detail names both threads: {}",
        deadlocks[0].detail
    );

    // Offline classification agrees and names both threads.
    let offline = check_outcome(&out, &[&mts]);
    let stuck: Vec<_> = offline.iter().filter(|v| v.check == "deadlock").collect();
    assert_eq!(stuck.len(), 2, "offline: {offline:#?}");
    assert_eq!(mts.deadlock_cycles(), vec![vec![ta, tb]]);
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

    assert_eq!(out.reason, StopReason::Completed);
    let vs = sink.violations();
    assert!(
        vs.iter()
            .any(|v| v.check == "lost-wakeup" && v.actor.contains("loner")),
        "kernel must flag the parked thread; sink: {vs:#?}"
    );
    assert!(
        vs.iter().all(|v| v.check != "deadlock"),
        "a single anonymous block is not a cycle: {vs:#?}"
    );

    let offline = check_outcome(&out, &[&mts]);
    assert!(
        offline
            .iter()
            .any(|v| v.check == "lost-wakeup" && v.actor == "proc0/loner"),
        "offline: {offline:#?}"
    );
    assert!(offline.iter().all(|v| v.check != "deadlock"));
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
    assert!(
        sink.is_empty(),
        "clean run must not report: {:#?}",
        sink.violations()
    );
    assert!(mts.validate_queues().is_empty());
    assert!(check_outcome(&out, &[&mts]).is_empty());
}
