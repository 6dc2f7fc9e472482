//! Engine-differential harness: every observable the repo's suites rely on
//! must be byte-identical between the two green-thread engines.
//!
//! The coroutine engine (default) and the parked-OS-thread fallback
//! implement the same one-runnable-at-a-time baton protocol; nothing above
//! the `GreenThread` seam may be able to tell them apart. This test runs
//! three representative workloads — the MTS scheduler-conformance yield
//! loop, the termination-barrier `NcsWorld` run, and a schedule-exploration
//! smoke pass over [`RingWorkload`] — once per engine and compares slice
//! orders, kernel trace hashes, oracle observations, delivery digests, and
//! full `DecisionLog`s.
//!
//! Everything lives in ONE `#[test]`: the engine choice is a process-wide
//! default (`set_default_engine`), and the harness must not race with a
//! parallel test flipping it mid-run.

use std::sync::Arc;

use ncs_analysis::{explore, run_scripted, Mode, Observation, RingWorkload};
use ncs_mts::{Mts, MtsConfig};
use ncs_sim::sync::Mutex;
use ncs_sim::{set_default_engine, Decision, Dur, EngineKind, Sim};

/// The conformance suite's yield-loop workload: `(priority, rounds)` pairs,
/// each thread logging `(priority, index)` once per round then yielding.
/// Returns the global slice order plus the kernel trace hash.
fn mts_yield_loop(threads: &[(usize, usize)]) -> (Vec<(usize, usize)>, u64) {
    let sim = Sim::new();
    let log: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let l0 = Arc::clone(&log);
    let threads = threads.to_vec();
    sim.spawn("main", move |ctx| {
        let mts = Mts::new(
            ctx.sim(),
            "p0",
            MtsConfig {
                context_switch: Dur::ZERO,
                ..MtsConfig::default()
            },
        );
        for (i, &(prio, rounds)) in threads.iter().enumerate() {
            let l = Arc::clone(&l0);
            mts.spawn(format!("t{i}"), prio, move |m| {
                for _ in 0..rounds {
                    l.lock().push((prio, i));
                    m.yield_now();
                }
            });
        }
        mts.start(ctx);
    });
    sim.run().assert_clean();
    let hash = sim.trace_hash();
    let order = log.lock().clone();
    (order, hash)
}

/// One engine's view of everything the suites observe.
struct Snapshot {
    engine: EngineKind,
    mts_order: Vec<(usize, usize)>,
    mts_trace_hash: u64,
    ring: Observation,
    ring_chaos: Observation,
    walk_hashes: Vec<(usize, usize, usize, u64)>,
}

type Flat = (Vec<Decision>, u64, Vec<String>, Vec<(String, Vec<u64>)>);

fn flatten(obs: &Observation) -> Flat {
    (
        obs.decisions.clone(),
        obs.trace_hash,
        obs.problems.clone(),
        obs.deliveries
            .iter()
            .map(|(k, v)| (format!("{k:?}"), v.clone()))
            .collect(),
    )
}

fn capture(engine: EngineKind) -> Snapshot {
    set_default_engine(engine);

    // Conformance slice: mixed priorities, round-robin within level.
    let (mts_order, mts_trace_hash) = mts_yield_loop(&[(2, 3), (5, 2), (2, 3), (4, 4)]);

    // Full-stack NCS runs (TermBarrier lingering included: the ring's
    // processes finish at different virtual times and wait out quiescence
    // at the barrier), canonical schedule, with and without chaos.
    let ring = run_scripted(&RingWorkload::default(), Vec::new());
    let ring_chaos = run_scripted(
        &RingWorkload {
            hosts: 3,
            rounds: 2,
            chaos: true,
        },
        Vec::new(),
    );

    // Exploration smoke: a few seeded random walks. Identical walks on the
    // two engines must visit identical interleavings.
    let report = explore(&RingWorkload::default(), Mode::Walk { walks: 4, seed: 7 });
    let walk_hashes = vec![(
        report.schedules_explored,
        report.distinct_interleavings,
        report.violations,
        report.baseline_trace_hash,
    )];

    Snapshot {
        engine,
        mts_order,
        mts_trace_hash,
        ring,
        ring_chaos,
        walk_hashes,
    }
}

#[test]
fn engines_are_observationally_identical() {
    let coro = capture(EngineKind::Coroutine);
    let os = capture(EngineKind::OsThread);
    // Leave the process on the platform default for any later in-binary use.
    set_default_engine(EngineKind::Coroutine);

    assert_eq!(coro.engine, EngineKind::Coroutine);
    assert_eq!(os.engine, EngineKind::OsThread);

    assert_eq!(
        coro.mts_order, os.mts_order,
        "MTS slice order differs between engines"
    );
    assert_eq!(
        coro.mts_trace_hash, os.mts_trace_hash,
        "MTS kernel trace diverged between engines"
    );

    for (label, a, b) in [
        ("ring", &coro.ring, &os.ring),
        ("ring+chaos", &coro.ring_chaos, &os.ring_chaos),
    ] {
        let (ad, ah, ap, adel) = flatten(a);
        let (bd, bh, bp, bdel) = flatten(b);
        assert!(
            ap.is_empty(),
            "{label}: canonical run must be clean on the coroutine engine: {ap:?}"
        );
        assert_eq!(ap, bp, "{label}: oracle problems differ between engines");
        assert_eq!(ah, bh, "{label}: kernel trace hash differs between engines");
        assert_eq!(ad, bd, "{label}: DecisionLogs differ between engines");
        assert!(
            !ad.is_empty(),
            "{label}: the workload must consult real choice points"
        );
        assert_eq!(adel, bdel, "{label}: delivery digests differ between engines");
        assert!(!adel.is_empty(), "{label}: messages must actually flow");
    }

    assert_eq!(
        coro.walk_hashes, os.walk_hashes,
        "schedule-exploration smoke pass diverged between engines"
    );
}
