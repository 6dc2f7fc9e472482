//! [`Ctx`]: a green thread's handle on virtual time.

use std::panic;
use std::sync::atomic::Ordering;

use super::run::PARK;
use super::{CancelToken, Sim, ThreadId};
use crate::engine::ResumeHandle;
use crate::time::{Dur, SimTime};

/// Per-thread context passed to green-thread closures.
///
/// All virtual-time interaction goes through this handle. A green thread
/// must never block on OS primitives directly; doing so would stall the
/// entire simulation.
pub struct Ctx {
    pub(super) sim: Sim,
    pub(super) tid: ThreadId,
    /// This thread's handle on its own suspend mechanism, so a yield needs
    /// no thread-table lookup.
    pub(super) own: ResumeHandle,
}

impl Ctx {
    /// The simulation this thread belongs to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// This thread's id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Relinquishes control and resumes once virtual time has advanced by
    /// `d`. A zero-duration sleep is a yield: other work scheduled at the
    /// same instant runs first.
    pub fn sleep(&self, d: Dur) {
        let at = (self.sim.now() + d).as_ps();
        assert!(at < PARK, "sleep past the end of virtual time");
        self.yield_to_kernel(at);
    }

    /// Yields to other events pending at the current instant.
    pub fn yield_now(&self) {
        self.sleep(Dur::ZERO);
    }

    /// Parks this thread until some other activity calls [`Sim::wake`] on it.
    ///
    /// The caller must have published (under its own locking discipline) the
    /// state another activity will use to find and wake it — since only one
    /// simulated activity runs at a time, there is no lost-wakeup window.
    pub fn park(&self) {
        self.yield_to_kernel(PARK);
    }

    /// Wakes another parked thread (at the current instant).
    pub fn wake(&self, tid: ThreadId) -> bool {
        assert_ne!(tid, self.tid, "a thread cannot wake itself");
        self.sim.wake(tid)
    }

    /// Records `wait` ([`PARK`] or a sleep's instant) for the run loop to
    /// apply, hands control back to it through the engine and
    /// blocks until the kernel dispatches this thread again. Unwinds with
    /// the cancellation payload when the wake-up is a cancellation — so a
    /// thread [`Sim::finish`] cancels records nothing more.
    fn yield_to_kernel(&self, wait: u64) {
        self.sim.inner.wait.store(wait, Ordering::Relaxed);
        let granted = self.sim.inner.engine.yield_back(&self.own);
        if !granted {
            panic::panic_any(CancelToken);
        }
    }
}
