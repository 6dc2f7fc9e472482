//! Scheduler conformance suite for the NCS_MTS runtime: the paper's
//! contract of 16 strict priority levels with round-robin service within a
//! level, checked both on hand-built direct cases and property-style over
//! seeded random thread populations.
//!
//! The dispatch rules under test (cooperative scheduler, so "preemption"
//! happens at yield points):
//!
//! 1. **Strict priority** — whenever a thread is dispatched, no runnable
//!    thread of a higher (numerically lower) level exists.
//! 2. **Round-robin fairness** — within one level, between two consecutive
//!    slices of a thread every other live thread of that level runs
//!    exactly once (bounded wait of `k - 1` slices).

use ncs_mts::{Mts, MtsConfig, MtsTid, PRIORITY_LEVELS};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng};
use std::sync::Arc;

fn zero_cs() -> MtsConfig {
    MtsConfig {
        context_switch: Dur::ZERO,
        ..MtsConfig::default()
    }
}

/// Spawns `threads` as `(priority, rounds)` pairs, each thread logging
/// `(priority, index)` once per round then yielding; returns the global
/// slice order.
fn run_yield_loop(threads: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let sim = Sim::new();
    let log: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let l0 = Arc::clone(&log);
    let threads = threads.to_vec();
    sim.spawn("main", move |ctx| {
        let mts = Mts::new(ctx.sim(), "p0", zero_cs());
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
    let out = log.lock().clone();
    out
}

/// Rule 1 on a pure yield workload: since yielding leaves a thread
/// runnable, every slice of a lower-priority thread proves all
/// higher-priority threads had exited — so the slice sequence must be
/// non-decreasing in priority.
fn assert_strict_priority(order: &[(usize, usize)]) {
    for w in order.windows(2) {
        assert!(
            w[1].0 >= w[0].0,
            "priority {} ran while priority {} was still runnable: {order:?}",
            w[1].0,
            w[0].0
        );
    }
}

/// Rule 2: within each priority level, while `k` threads are live their
/// slices cycle through all `k` in a fixed order (gap between consecutive
/// slices of one thread is exactly `k`).
fn assert_round_robin(order: &[(usize, usize)], threads: &[(usize, usize)]) {
    for level in 0..PRIORITY_LEVELS {
        let slices: Vec<usize> = order
            .iter()
            .filter(|&&(p, _)| p == level)
            .map(|&(_, i)| i)
            .collect();
        if slices.is_empty() {
            continue;
        }
        // Walk the schedule keeping each thread's remaining-round budget;
        // a thread may reappear only after every other live thread of the
        // level has had its turn.
        let mut remaining: Vec<(usize, usize)> = threads
            .iter()
            .enumerate()
            .filter(|&(_, &(p, r))| p == level && r > 0)
            .map(|(i, &(_, r))| (i, r))
            .collect();
        let mut pos = 0;
        while !remaining.is_empty() {
            let live = remaining.len();
            let round: Vec<usize> = slices[pos..pos + live].to_vec();
            let mut expect: Vec<usize> = remaining.iter().map(|&(i, _)| i).collect();
            expect.sort_unstable();
            let mut got = round.clone();
            got.sort_unstable();
            assert_eq!(
                got, expect,
                "level {level}: one full round must serve every live thread once \
                 (slices {slices:?})"
            );
            pos += live;
            for r in remaining.iter_mut() {
                r.1 -= 1;
            }
            remaining.retain(|&(_, r)| r > 0);
        }
        assert_eq!(pos, slices.len(), "level {level}: stray slices");
    }
}

#[test]
fn two_levels_run_in_strict_order() {
    let threads = [(2, 3), (5, 2), (2, 3)];
    let order = run_yield_loop(&threads);
    assert_strict_priority(&order);
    assert_eq!(
        order,
        vec![(2, 0), (2, 2), (2, 0), (2, 2), (2, 0), (2, 2), (5, 1), (5, 1)],
        "high level round-robins to completion before the low level runs"
    );
}

#[test]
fn round_robin_within_a_level_is_fair() {
    let threads = [(4, 5), (4, 5), (4, 5), (4, 5)];
    let order = run_yield_loop(&threads);
    // 4 threads x 5 rounds: each thread's slices are exactly 4 apart.
    for t in 0..4 {
        let idxs: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|&(_, &(_, i))| i == t)
            .map(|(n, _)| n)
            .collect();
        assert_eq!(idxs.len(), 5);
        for w in idxs.windows(2) {
            assert_eq!(w[1] - w[0], 4, "thread {t} waited more than k-1 slices");
        }
    }
}

#[test]
fn woken_high_priority_thread_wins_the_next_yield_point() {
    // A blocked high-priority thread, once unblocked mid-run, is dispatched
    // at the very next yield point — ahead of an already-runnable
    // lower-priority sibling.
    let sim = Sim::new();
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let (la, lb, lh) = (Arc::clone(&log), Arc::clone(&log), Arc::clone(&log));
    sim.spawn("main", move |ctx| {
        let mts = Mts::new(ctx.sim(), "p0", zero_cs());
        let high: Arc<Mutex<Option<MtsTid>>> = Arc::new(Mutex::new(None));
        let h2 = Arc::clone(&high);
        let tid = mts.spawn("high", 1, move |m| {
            m.block(); // parked until A signals
            lh.lock().push("H");
        });
        *high.lock() = Some(tid);
        mts.spawn("a", 6, move |m| {
            la.lock().push("A1");
            m.yield_now(); // B runs
            la.lock().push("A2");
            m.unblock(h2.lock().expect("spawned"));
            m.yield_now(); // H must win this yield point, not B
            la.lock().push("A3");
        });
        mts.spawn("b", 6, move |m| {
            lb.lock().push("B1");
            m.yield_now();
            lb.lock().push("B2");
            m.yield_now();
        });
        mts.start(ctx);
    });
    sim.run().assert_clean();
    assert_eq!(
        *log.lock(),
        vec!["A1", "B1", "A2", "H", "B2", "A3"],
        "the woken priority-1 thread must preempt the level-6 round at the yield point"
    );
}

#[test]
fn property_random_populations_schedule_conformantly() {
    // Property-style sweep: random thread populations (sizes, priorities,
    // round counts) over fixed seeds must all satisfy both rules.
    for seed in 0..24u64 {
        let mut rng = SimRng::new(0xC0FF_EE00 + seed);
        let n = 2 + (rng.next_u64() % 7) as usize;
        let threads: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                let prio = (rng.next_u64() % PRIORITY_LEVELS as u64) as usize;
                let rounds = 1 + (rng.next_u64() % 6) as usize;
                (prio, rounds)
            })
            .collect();
        let order = run_yield_loop(&threads);
        let total: usize = threads.iter().map(|&(_, r)| r).sum();
        assert_eq!(order.len(), total, "seed {seed}: every round runs exactly once");
        assert_strict_priority(&order);
        assert_round_robin(&order, &threads);
    }
}

#[test]
fn property_runs_are_deterministic() {
    // The same population twice gives the identical slice schedule — the
    // scheduler itself introduces no nondeterminism.
    for seed in 0..6u64 {
        let mut rng = SimRng::new(0xDE7E_0000 + seed);
        let n = 2 + (rng.next_u64() % 5) as usize;
        let threads: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                (
                    (rng.next_u64() % 8) as usize,
                    1 + (rng.next_u64() % 4) as usize,
                )
            })
            .collect();
        assert_eq!(
            run_yield_loop(&threads),
            run_yield_loop(&threads),
            "seed {seed}"
        );
    }
}
