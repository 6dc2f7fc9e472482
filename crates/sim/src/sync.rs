//! The workspace's one lock seam: [`Mutex`] over `std::sync::Mutex`, and
//! `std::sync::Condvar` through [`wait`].
//!
//! The runtime relies on a lock surviving a panicking holder: a green
//! thread that panics under a lock is recorded in `RunOutcome::panics` and
//! every other thread carries on, so the next locker must get the data, not
//! a `PoisonError`. Poisoning is therefore swallowed here — in
//! [`Mutex::lock`] and in [`wait`] — and nowhere else; guards are std's own.

use std::sync::PoisonError;

pub use std::sync::{Condvar, MutexGuard};

/// A mutual-exclusion lock whose `lock()` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held. A panic in an earlier holder is not
    /// an error here: that holder's panic is reported where it happened.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Releases `guard`, blocks on `cv` until notified, and returns the
/// re-acquired guard. Wakeups may be spurious: call in a loop on the
/// guarded condition.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dur, EngineKind, Sim};
    use std::sync::Arc;

    /// What the runtime leans on: a green thread that dies under a lock is
    /// one entry in `panics`, and the lock still works for everyone else.
    #[test]
    fn green_thread_panicking_under_the_lock_is_reported_and_the_next_locker_proceeds() {
        for engine in [EngineKind::Coroutine, EngineKind::OsThread] {
            let sim = Sim::with_engine(engine);
            let shared = Arc::new(Mutex::new(0u32));
            let dying = Arc::clone(&shared);
            sim.spawn("dies", move |_ctx| {
                let mut g = dying.lock();
                *g = 1;
                panic!("boom under the lock");
            });
            let next = Arc::clone(&shared);
            sim.spawn("next", move |ctx| {
                ctx.sleep(Dur::from_micros(1));
                *next.lock() += 1;
            });
            let out = sim.run();
            assert_eq!(out.panics.len(), 1, "{engine:?}: {:?}", out.panics);
            assert!(out.panics[0].contains("boom under the lock"), "{engine:?}");
            assert!(out.blocked.is_empty(), "{engine:?}: {:?}", out.blocked);
            assert_eq!(*shared.lock(), 2, "{engine:?}");
        }
    }

    #[test]
    fn lock_after_a_panicking_holder_sees_the_data() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 8;
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn wait_round_trips_the_guard() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let setter = std::thread::spawn(move || {
            *pair2.0.lock() = 42;
            pair2.1.notify_one();
        });
        let mut g = pair.0.lock();
        while *g == 0 {
            g = wait(&pair.1, g);
        }
        // The guard that came back is the live lock on the same data.
        assert_eq!(*g, 42);
        *g += 1;
        drop(g);
        setter.join().expect("setter finished");
        assert_eq!(*pair.0.lock(), 43);
    }
}
