//! Synchronization objects for MTS threads.
//!
//! The paper lists synchronization (barrier, wait, signal) among the
//! NCS_MTS services added on top of QuickThreads. All three objects here
//! are built purely from `block`/`unblock`, so their cost model is exactly
//! the scheduler's context-switch accounting.
//!
//! These synchronize threads *within one process*. Cross-process
//! synchronization (the `NCS_barrier` of the paper's API) lives in
//! ncs-core, built on messages.

use ncs_sim::sync::Mutex;
use ncs_sim::Sim;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::runtime::{Mts, MtsCtx, MtsTid};

/// A counting semaphore with FIFO handoff.
#[derive(Clone)]
pub struct MtsSemaphore {
    mts: Mts,
    inner: Arc<Mutex<SemInner>>,
}

struct SemInner {
    count: u64,
    waiters: VecDeque<MtsTid>,
}

impl MtsSemaphore {
    /// Creates a semaphore with `initial` units.
    pub fn new(mts: &Mts, initial: u64) -> MtsSemaphore {
        MtsSemaphore {
            mts: mts.clone(),
            inner: Arc::new(Mutex::new(SemInner {
                count: initial,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Acquires one unit (P), blocking the calling thread if none are
    /// available. Units released while waiters queue are handed directly
    /// to the longest waiter.
    pub fn acquire(&self, mctx: &MtsCtx) {
        {
            let mut s = self.inner.lock();
            if s.count > 0 {
                s.count -= 1;
                return;
            }
            s.waiters.push_back(mctx.tid());
        }
        mctx.block();
    }

    /// Tries to acquire without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut s = self.inner.lock();
        if s.count > 0 && s.waiters.is_empty() {
            s.count -= 1;
            true
        } else {
            false
        }
    }

    /// Releases one unit (V). Callable from threads or event callbacks.
    pub fn release(&self, sim: &Sim) {
        let next = {
            let mut s = self.inner.lock();
            match s.waiters.pop_front() {
                Some(w) => Some(w),
                None => {
                    s.count += 1;
                    None
                }
            }
        };
        if let Some(w) = next {
            self.mts.unblock(sim, w);
        }
    }

    /// Units currently available.
    pub fn available(&self) -> u64 {
        self.inner.lock().count
    }
}

/// A one-shot (per generation) event: threads wait until it is signaled.
#[derive(Clone)]
pub struct MtsEvent {
    mts: Mts,
    inner: Arc<Mutex<EventInner>>,
}

struct EventInner {
    set: bool,
    waiters: Vec<MtsTid>,
}

impl MtsEvent {
    /// Creates an unset event.
    pub fn new(mts: &Mts) -> MtsEvent {
        MtsEvent {
            mts: mts.clone(),
            inner: Arc::new(Mutex::new(EventInner {
                set: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Blocks until the event is signaled (returns immediately if it
    /// already is).
    pub fn wait(&self, mctx: &MtsCtx) {
        {
            let mut e = self.inner.lock();
            if e.set {
                return;
            }
            e.waiters.push(mctx.tid());
        }
        mctx.block();
    }

    /// Signals the event, waking every waiter. Callable from callbacks.
    pub fn signal(&self, sim: &Sim) {
        let waiters = {
            let mut e = self.inner.lock();
            e.set = true;
            std::mem::take(&mut e.waiters)
        };
        for w in waiters {
            self.mts.unblock(sim, w);
        }
    }

    /// Clears the event for reuse.
    pub fn reset(&self) {
        self.inner.lock().set = false;
    }

    /// Whether the event is currently signaled.
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }
}

/// A cyclic barrier for `parties` MTS threads.
#[derive(Clone)]
pub struct MtsBarrier {
    mts: Mts,
    inner: Arc<Mutex<BarrierInner>>,
}

struct BarrierInner {
    parties: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<MtsTid>,
}

impl MtsBarrier {
    /// Creates a barrier for `parties` threads (must be ≥ 1).
    pub fn new(mts: &Mts, parties: usize) -> MtsBarrier {
        assert!(parties >= 1);
        MtsBarrier {
            mts: mts.clone(),
            inner: Arc::new(Mutex::new(BarrierInner {
                parties,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Waits until all parties arrive. Returns `true` for the last arriver
    /// (the "leader") of each generation.
    pub fn wait(&self, mctx: &MtsCtx) -> bool {
        let leader = {
            let mut b = self.inner.lock();
            b.arrived += 1;
            if b.arrived == b.parties {
                b.arrived = 0;
                b.generation += 1;
                let waiters = std::mem::take(&mut b.waiters);
                drop(b);
                for w in waiters {
                    self.mts.unblock(mctx.ctx().sim(), w);
                }
                true
            } else {
                b.waiters.push(mctx.tid());
                false
            }
        };
        if !leader {
            mctx.block();
        }
        leader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_sim::{Dur, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn with_mts(f: impl FnOnce(&ncs_sim::Ctx, Mts) + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                crate::runtime::MtsConfig {
                    context_switch: Dur::ZERO,
                    ..Default::default()
                },
            );
            f(ctx, mts);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn semaphore_limits_concurrency() {
        with_mts(|ctx, mts| {
            let sem = MtsSemaphore::new(&mts, 2);
            let active = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            for i in 0..6 {
                let sem = sem.clone();
                let active = Arc::clone(&active);
                let peak = Arc::clone(&peak);
                mts.spawn(format!("t{i}"), 1, move |m| {
                    sem.acquire(m);
                    let a = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(a, Ordering::SeqCst);
                    m.sleep(Dur::from_micros(10));
                    active.fetch_sub(1, Ordering::SeqCst);
                    sem.release(m.ctx().sim());
                });
            }
            mts.start(ctx);
            assert_eq!(peak.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn semaphore_fifo_handoff() {
        with_mts(|ctx, mts| {
            let sem = MtsSemaphore::new(&mts, 1);
            let order = Arc::new(Mutex::new(Vec::new()));
            for i in 0..4u32 {
                let sem = sem.clone();
                let order = Arc::clone(&order);
                mts.spawn(format!("t{i}"), 1, move |m| {
                    sem.acquire(m);
                    order.lock().push(i);
                    m.sleep(Dur::from_micros(5));
                    sem.release(m.ctx().sim());
                });
            }
            mts.start(ctx);
            assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn try_acquire_respects_waiters() {
        with_mts(|ctx, mts| {
            let sem = MtsSemaphore::new(&mts, 1);
            assert!(sem.try_acquire());
            assert!(!sem.try_acquire());
            let sem2 = sem.clone();
            mts.spawn("releaser", 1, move |m| {
                sem2.release(m.ctx().sim());
                assert_eq!(sem2.available(), 1);
                assert!(sem2.try_acquire());
                sem2.release(m.ctx().sim());
            });
            mts.start(ctx);
        });
    }

    #[test]
    fn event_wakes_all_waiters() {
        with_mts(|ctx, mts| {
            let ev = MtsEvent::new(&mts);
            let woken = Arc::new(AtomicUsize::new(0));
            for i in 0..3 {
                let ev = ev.clone();
                let woken = Arc::clone(&woken);
                mts.spawn(format!("w{i}"), 1, move |m| {
                    ev.wait(m);
                    woken.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(m.now(), SimTime::ZERO + Dur::from_micros(50));
                });
            }
            let ev2 = ev.clone();
            mts.spawn("signaler", 2, move |m| {
                m.sleep(Dur::from_micros(50));
                ev2.signal(m.ctx().sim());
            });
            mts.start(ctx);
            assert_eq!(woken.load(Ordering::SeqCst), 3);
            assert!(ev.is_set());
        });
    }

    #[test]
    fn event_wait_after_signal_is_immediate() {
        with_mts(|ctx, mts| {
            let ev = MtsEvent::new(&mts);
            let ev2 = ev.clone();
            mts.spawn("signaler", 0, move |m| {
                ev2.signal(m.ctx().sim());
            });
            let ev3 = ev.clone();
            mts.spawn("waiter", 1, move |m| {
                let t0 = m.now();
                ev3.wait(m);
                assert_eq!(m.now(), t0);
            });
            mts.start(ctx);
        });
    }

    #[test]
    fn barrier_synchronizes_and_reuses() {
        with_mts(|ctx, mts| {
            let bar = MtsBarrier::new(&mts, 3);
            let leaders = Arc::new(AtomicUsize::new(0));
            for i in 0..3u64 {
                let bar = bar.clone();
                let leaders = Arc::clone(&leaders);
                mts.spawn(format!("t{i}"), 1, move |m| {
                    for round in 0..2u64 {
                        m.sleep(Dur::from_micros((i + 1) * 10 * (round + 1)));
                        if bar.wait(m) {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        // After the barrier, the slowest arrival gates all.
                        let expect = Dur::from_micros(30 * (round + 1))
                            + if round == 0 {
                                Dur::ZERO
                            } else {
                                Dur::from_micros(30)
                            };
                        assert_eq!(m.now(), SimTime::ZERO + expect, "round {round}");
                    }
                });
            }
            mts.start(ctx);
            assert_eq!(leaders.load(Ordering::SeqCst), 2, "one leader per round");
        });
    }
}
