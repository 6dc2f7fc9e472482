//! Property tests of the simulation kernel's core guarantees:
//! determinism, time monotonicity, channel FIFO order,
//! and the event queue's pop order against a reference binary-heap model.

use ncs_sim::prop;
use ncs_sim::sync::Mutex;
use ncs_sim::wheel::TimerWheel;
use ncs_sim::{Dur, Sim, SimChannel, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Builds a pseudo-random program of sleeping/waking/channel-passing
/// threads from a seed, runs it, and returns (end time, trace hash).
fn run_random_program(seed: u64, n_threads: usize, n_ops: usize) -> (SimTime, u64) {
    let sim = Sim::new();
    let ch: SimChannel<u64> = SimChannel::unbounded();
    for t in 0..n_threads {
        let mut rng = SimRng::new(seed).split(t as u64);
        let ch = ch.clone();
        sim.spawn(format!("t{t}"), move |ctx| {
            for _ in 0..n_ops {
                match rng.gen_index(3) {
                    0 => ctx.sleep(Dur::from_nanos(rng.gen_range(1_000) + 1)),
                    1 => {
                        let _ = ch.offer(ctx.sim(), rng.next_u64());
                    }
                    _ => {
                        if let Some(v) = ch.try_recv() {
                            // Mix received value into timing.
                            ctx.sleep(Dur::from_ps(v % 977 + 1));
                        } else {
                            ctx.yield_now();
                        }
                    }
                }
            }
        });
    }
    let out = sim.run();
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    (out.end_time, sim.trace_hash())
}

/// Any program replays bit-identically: same seed, same end time, same
/// event digest.
#[test]
fn deterministic_replay() {
    prop::check("deterministic_replay", 24, |g| {
        let seed = g.range(0..10_000);
        let threads = g.range(1..8) as usize;
        let ops = g.range(1..40) as usize;
        let a = run_random_program(seed, threads, ops);
        let b = run_random_program(seed, threads, ops);
        assert_eq!(a, b);
    });
}

/// Observed virtual time never decreases within a thread.
#[test]
fn time_monotone_per_thread() {
    prop::check("time_monotone_per_thread", 24, |g| {
        let seed = g.range(0..10_000);
        let ops = g.range(1..50) as usize;
        let sim = Sim::new();
        let violations = Arc::new(Mutex::new(0usize));
        for t in 0..3 {
            let mut rng = SimRng::new(seed).split(t);
            let violations = Arc::clone(&violations);
            sim.spawn(format!("t{t}"), move |ctx| {
                let mut last = ctx.now();
                for _ in 0..ops {
                    ctx.sleep(Dur::from_nanos(rng.gen_range(100)));
                    let now = ctx.now();
                    if now < last {
                        *violations.lock() += 1;
                    }
                    last = now;
                }
            });
        }
        sim.run().assert_clean();
        assert_eq!(*violations.lock(), 0);
    });
}

/// Channel deliveries preserve per-sender FIFO order.
#[test]
fn channel_fifo_per_sender() {
    prop::check("channel_fifo_per_sender", 24, |g| {
        let seed = g.range(0..10_000);
        let msgs = g.range(1..30) as usize;
        let sim = Sim::new();
        let ch: SimChannel<(usize, usize)> = SimChannel::unbounded();
        for s in 0..3usize {
            let ch = ch.clone();
            let mut rng = SimRng::new(seed).split(s as u64);
            sim.spawn(format!("s{s}"), move |ctx| {
                for i in 0..msgs {
                    ctx.sleep(Dur::from_nanos(rng.gen_range(200)));
                    ch.offer(ctx.sim(), (s, i)).unwrap();
                }
            });
        }
        let ch2 = ch.clone();
        let seen = Arc::new(Mutex::new(vec![0usize; 3]));
        let seen2 = Arc::clone(&seen);
        sim.spawn("rx", move |ctx| {
            for _ in 0..3 * msgs {
                let (s, i) = ch2.recv(ctx).unwrap();
                let mut v = seen2.lock();
                assert_eq!(v[s], i, "sender {s} out of order");
                v[s] += 1;
            }
        });
        sim.run().assert_clean();
        assert!(seen.lock().iter().all(|&c| c == msgs));
    });
}

/// The event queue pops in exactly the `(time, seq)` order a reference
/// `BinaryHeap` model produces, under random interleavings of
/// schedule / cancel / pop with heavy same-timestamp collisions, near and
/// far-future times, and cancelled events left in the heap.
#[test]
fn wheel_pop_order_matches_heap_model() {
    prop::check("wheel_pop_order_matches_heap_model", 24, |g| {
        let seed = g.range(0..10_000);
        let ops = g.range(2_000..12_000) as usize;
        let mut rng = SimRng::new(seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        // Live events by (time, seq) -> token, for random cancellation.
        let mut live = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let window = 1u64 << 20;
        for _ in 0..ops {
            match rng.gen_index(10) {
                // 60% schedule: same-instant, near, in-window, far.
                0..=5 => {
                    let dt = match rng.gen_index(4) {
                        0 => 0,
                        1 => rng.gen_range(16) + 1,
                        2 => rng.gen_range(window),
                        _ => rng.gen_range(window * 40),
                    };
                    let t = now + dt;
                    let tok = wheel.push(t, seq, seq);
                    model.push(Reverse((t, seq)));
                    live.push(((t, seq), tok));
                    seq += 1;
                }
                // 20% pop.
                6 | 7 => {
                    let got = wheel.pop().map(|(t, s, _)| (t, s));
                    let want = model.pop().map(|Reverse(p)| p);
                    assert_eq!(got, want);
                    if let Some((t, s)) = want {
                        now = now.max(t);
                        live.retain(|&(k, _)| k != (t, s));
                    }
                }
                // 20% cancel a random live event in both structures.
                _ => {
                    if !live.is_empty() {
                        let i = rng.gen_index(live.len());
                        let ((t, s), tok) = live.swap_remove(i);
                        assert_eq!(wheel.cancel(tok), Some(s));
                        let kept: Vec<_> =
                            model.drain().filter(|&Reverse(p)| p != (t, s)).collect();
                        model.extend(kept);
                    }
                }
            }
            assert_eq!(wheel.len(), model.len());
        }
        // Drain both completely: every remaining event agrees.
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(wheel.pop().map(|(t, s, _)| (t, s)), Some(want));
        }
        assert!(wheel.pop().is_none());
        assert!(wheel.is_empty());
    });
}
