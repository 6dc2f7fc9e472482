//! Shared-resource primitives for green threads.
//!
//! [`FifoResource`] models anything with finite concurrency and FIFO
//! admission: a shared Ethernet segment (1 token), a switch output port, a
//! DMA engine, a pool of I/O buffers (N tokens). Acquisition order among
//! green threads is strictly first-come-first-served at virtual-time
//! resolution, which keeps simulations deterministic and mirrors how the
//! paper's kernel buffer pools behave.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::Mutex;

use crate::kernel::{Ctx, Sim, ThreadId};
use crate::time::{Dur, SimTime};

struct ResourceInner {
    name: String,
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<ThreadId>,
    /// Total time × tokens integral, for utilization reporting.
    busy_integral_ps: u128,
    last_change: SimTime,
    acquisitions: u64,
    total_wait_ps: u128,
}

/// A counted, FIFO-fair resource.
#[derive(Clone)]
pub struct FifoResource {
    inner: Arc<Mutex<ResourceInner>>,
}

impl FifoResource {
    /// Creates a resource with `capacity` tokens.
    pub fn new(name: impl Into<String>, capacity: usize) -> FifoResource {
        assert!(capacity > 0, "resource needs at least one token");
        FifoResource {
            inner: Arc::new(Mutex::new(ResourceInner {
                name: name.into(),
                capacity,
                in_use: 0,
                waiters: VecDeque::new(),
                busy_integral_ps: 0,
                last_change: SimTime::ZERO,
                acquisitions: 0,
                total_wait_ps: 0,
            })),
        }
    }

    /// Acquires one token, blocking the calling green thread in FIFO order.
    pub fn acquire(&self, ctx: &Ctx) {
        let t_req = ctx.now();
        loop {
            let wake_next = {
                let mut r = self.inner.lock();
                let first_in_line = r.waiters.front().is_none_or(|&w| w == ctx.tid());
                if r.in_use < r.capacity && first_in_line {
                    if r.waiters.front() == Some(&ctx.tid()) {
                        r.waiters.pop_front();
                    }
                    Self::integrate(&mut r, ctx.now());
                    r.in_use += 1;
                    r.acquisitions += 1;
                    r.total_wait_ps += u128::from(ctx.now().since(t_req).as_ps());
                    // With spare tokens left, the next waiter is admissible
                    // too — chain the wake so multi-token releases drain.
                    if r.in_use < r.capacity {
                        r.waiters.front().copied()
                    } else {
                        None
                    }
                } else {
                    if !r.waiters.contains(&ctx.tid()) {
                        r.waiters.push_back(ctx.tid());
                    }
                    drop(r);
                    ctx.park();
                    continue;
                }
            };
            if let Some(w) = wake_next {
                ctx.wake(w);
            }
            return;
        }
    }

    /// Tries to acquire without blocking. Respects FIFO order: fails if
    /// anyone is already queued.
    pub fn try_acquire(&self, now: SimTime) -> bool {
        let mut r = self.inner.lock();
        if r.in_use < r.capacity && r.waiters.is_empty() {
            Self::integrate(&mut r, now);
            r.in_use += 1;
            r.acquisitions += 1;
            true
        } else {
            false
        }
    }

    /// Releases one token, waking the longest-waiting thread if any.
    /// Callable from green threads or event callbacks.
    pub fn release(&self, sim: &Sim) {
        let next = {
            let mut r = self.inner.lock();
            assert!(r.in_use > 0, "release of idle resource '{}'", r.name);
            Self::integrate(&mut r, sim.now());
            r.in_use -= 1;
            r.waiters.front().copied()
        };
        if let Some(tid) = next {
            // The waiter re-checks admission when it resumes; it stays at the
            // queue front so FIFO order is preserved.
            sim.wake(tid);
        }
    }

    /// Convenience: acquire, hold for `hold`, then release. Models simple
    /// serialized use (e.g. occupying a bus for a copy).
    pub fn use_for(&self, ctx: &Ctx, hold: Dur) {
        self.acquire(ctx);
        ctx.sleep(hold);
        self.release(ctx.sim());
    }

    fn integrate(r: &mut ResourceInner, now: SimTime) {
        let dt = now.saturating_since(r.last_change).as_ps();
        r.busy_integral_ps += u128::from(dt) * r.in_use as u128;
        r.last_change = now;
    }

    /// Tokens currently held.
    pub fn in_use(&self) -> usize {
        self.inner.lock().in_use
    }

    /// Number of completed acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.inner.lock().acquisitions
    }

    /// Mean utilization (busy tokens / capacity) up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let mut r = self.inner.lock();
        Self::integrate(&mut r, now);
        let elapsed = now.as_ps();
        if elapsed == 0 {
            return 0.0;
        }
        r.busy_integral_ps as f64 / (elapsed as f64 * r.capacity as f64)
    }

    /// Mean time acquirers spent queued, over completed acquisitions.
    pub fn mean_wait(&self) -> Dur {
        let r = self.inner.lock();
        if r.acquisitions == 0 {
            Dur::ZERO
        } else {
            Dur::from_ps((r.total_wait_ps / u128::from(r.acquisitions)) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_token_serializes() {
        let sim = Sim::new();
        let res = FifoResource::new("bus", 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u64 {
            let res = res.clone();
            let log = Arc::clone(&log);
            sim.spawn(format!("u{i}"), move |ctx| {
                // All request at t=0 in spawn order.
                res.acquire(ctx);
                log.lock().push((i, ctx.now()));
                ctx.sleep(Dur::from_micros(10));
                res.release(ctx.sim());
            });
        }
        sim.run().assert_clean();
        let log = log.lock();
        // FIFO: grant order equals spawn order, spaced by hold time.
        for (k, (i, t)) in log.iter().enumerate() {
            assert_eq!(*i, k as u64);
            assert_eq!(*t, SimTime::ZERO + Dur::from_micros(10 * k as u64));
        }
    }

    #[test]
    fn capacity_allows_parallel_holders() {
        let sim = Sim::new();
        let res = FifoResource::new("pool", 3);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        for i in 0..9u64 {
            let res = res.clone();
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            sim.spawn(format!("u{i}"), move |ctx| {
                res.acquire(ctx);
                let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(c, Ordering::SeqCst);
                ctx.sleep(Dur::from_micros(5));
                cur.fetch_sub(1, Ordering::SeqCst);
                res.release(ctx.sim());
            });
        }
        let out = sim.run();
        out.assert_clean();
        assert_eq!(peak.load(Ordering::SeqCst), 3);
        // 9 holders, 3 at a time, 5us each => 15us total
        assert_eq!(out.end_time, SimTime::ZERO + Dur::from_micros(15));
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new();
        let res = FifoResource::new("r", 1);
        let res2 = res.clone();
        sim.spawn("holder", move |ctx| {
            res2.acquire(ctx);
            ctx.sleep(Dur::from_micros(10));
            res2.release(ctx.sim());
        });
        let res3 = res.clone();
        sim.spawn("waiter", move |ctx| {
            ctx.sleep(Dur::from_micros(1));
            res3.acquire(ctx);
            res3.release(ctx.sim());
        });
        let res4 = res.clone();
        sim.spawn("prober", move |ctx| {
            ctx.sleep(Dur::from_micros(2));
            assert!(!res4.try_acquire(ctx.now()), "held");
            ctx.sleep(Dur::from_micros(20));
            assert!(res4.try_acquire(ctx.now()), "free and no queue");
            res4.release(ctx.sim());
        });
        sim.run().assert_clean();
    }

    #[test]
    fn utilization_and_wait_accounting() {
        let sim = Sim::new();
        let res = FifoResource::new("link", 1);
        let r1 = res.clone();
        sim.spawn("a", move |ctx| {
            r1.use_for(ctx, Dur::from_micros(10));
        });
        let r2 = res.clone();
        sim.spawn("b", move |ctx| {
            r2.use_for(ctx, Dur::from_micros(10));
        });
        let out = sim.run();
        out.assert_clean();
        assert_eq!(out.end_time, SimTime::ZERO + Dur::from_micros(20));
        let u = res.utilization(out.end_time);
        assert!((u - 1.0).abs() < 1e-9, "fully busy, got {u}");
        // b waited 10us, a waited 0 => mean 5us
        assert_eq!(res.mean_wait(), Dur::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "release of idle resource")]
    fn release_of_idle_panics() {
        let sim = Sim::new();
        let res = FifoResource::new("x", 1);
        res.release(&sim);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::{Dur, SimTime};

    #[test]
    fn chained_wakes_drain_multi_token_release_bursts() {
        // Capacity 3; six waiters queue while all tokens are held; the
        // holders release at the same instant, and all three wakeable
        // waiters must be admitted at that instant (chain-wake).
        let sim = Sim::new();
        let res = FifoResource::new("pool", 3);
        let admitted = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let res = res.clone();
            sim.spawn(format!("holder{i}"), move |ctx| {
                res.acquire(ctx);
                ctx.sleep(Dur::from_micros(100));
                res.release(ctx.sim());
            });
        }
        for i in 0..3u64 {
            let res = res.clone();
            let admitted = Arc::clone(&admitted);
            sim.spawn(format!("waiter{i}"), move |ctx| {
                ctx.sleep(Dur::from_micros(1));
                res.acquire(ctx);
                admitted.lock().push((i, ctx.now()));
                res.release(ctx.sim());
            });
        }
        sim.run().assert_clean();
        let admitted = admitted.lock();
        assert_eq!(admitted.len(), 3);
        for (_, t) in admitted.iter() {
            assert_eq!(*t, SimTime::ZERO + Dur::from_micros(100));
        }
    }
}
