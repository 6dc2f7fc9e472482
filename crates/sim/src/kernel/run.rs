//! The run loop: the kernel's scheduling state ([`Core`]), the events it
//! orders, and the loop that pops them, resumes green threads through the
//! engine and folds each event into the trace digest.

use std::sync::atomic::Ordering;

use super::{RunOutcome, Sim, StopReason, ThreadId};
use crate::analysis::word_fold;
use crate::engine::{GreenThread, ResumeHandle};
use crate::sched::ChoicePoint;
use crate::time::SimTime;
use crate::wheel::{TimerWheel, Token};

/// Scheduling state of a green thread slot.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(super) enum ThreadState {
    /// Waiting for its baton with a Resume event already queued.
    Scheduled,
    /// Waiting for its baton with no queued resume; must be woken.
    Parked,
    /// Currently holds the baton — or has just handed it back with a wait
    /// the run loop has yet to apply (see `Inner::wait`).
    Running,
    /// Finished (normally, by cancellation, or by panic).
    Exited,
}

pub(super) struct ThreadSlot {
    pub(super) name: String,
    pub(super) state: ThreadState,
    /// The suspend/resume mechanism backing this thread (see
    /// [`crate::engine`]), opaque to the kernel.
    pub(super) green: GreenThread,
}

pub(super) enum EventKind {
    Resume(ThreadId),
    Call(Box<dyn FnOnce(&Sim) + Send>),
}

/// `Inner::wait` when no wait is pending: the thread that yielded last
/// exited instead, or its wait was applied.
pub(super) const NO_WAIT: u64 = u64::MAX;
/// `Inner::wait` for a park; any smaller value is a sleep's wake-up
/// instant in picoseconds.
pub(super) const PARK: u64 = u64::MAX - 1;

/// The kernel's scheduling state: the event queue, the thread table and the
/// tie-break counter. They live behind ONE mutex because every kernel
/// operation touches at least two of them — the run loop pops an event and
/// claims the thread slot it resumes, a wake marks a slot and queues its
/// `Resume`, a push takes a sequence number and inserts — and the system is
/// single-runnable by construction, so the lock is never contended: it costs
/// what it costs per acquisition, and each operation should pay that once.
pub(super) struct Core {
    pub(super) queue: TimerWheel<EventKind>,
    pub(super) threads: Vec<ThreadSlot>,
    /// Next program-order sequence number: the `(time, seq)` tie-break that
    /// makes every run a pure function of its inputs (and the golden trace
    /// byte-stable).
    pub(super) seq: u64,
}

impl Core {
    pub(super) fn push(&mut self, at_ps: u64, kind: EventKind) -> Token {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at_ps, seq, kind)
    }

    /// Applies the wait `tid` handed over with its yield: Running → Parked,
    /// or Running → Scheduled with its `Resume` queued at the sleep's
    /// instant. A thread that exited handed over nothing.
    fn settle(&mut self, tid: ThreadId, wait: u64) {
        let slot = &mut self.threads[tid.0 as usize];
        if wait == NO_WAIT {
            debug_assert_eq!(slot.state, ThreadState::Exited);
            return;
        }
        debug_assert_eq!(slot.state, ThreadState::Running);
        if wait == PARK {
            slot.state = ThreadState::Parked;
        } else {
            slot.state = ThreadState::Scheduled;
            self.push(wait, EventKind::Resume(tid));
        }
    }

    /// Parked → Scheduled, with the `Resume` queued at `at_ps`; see
    /// [`Sim::wake`] for the return value.
    pub(super) fn wake(&mut self, tid: ThreadId, at_ps: u64) -> bool {
        let slot = &mut self.threads[tid.0 as usize];
        match slot.state {
            ThreadState::Parked => {
                slot.state = ThreadState::Scheduled;
                self.push(at_ps, EventKind::Resume(tid));
                true
            }
            ThreadState::Scheduled | ThreadState::Exited => false,
            ThreadState::Running => panic!("wake() on the running thread {tid}"),
        }
    }
}

impl Sim {
    fn mix_hash(&self, time: u64, seq: u64, kind: u64) {
        let h = self.inner.trace_hash.load(Ordering::Relaxed);
        self.inner
            .trace_hash
            .store(fold_event(h, time, seq, kind), Ordering::Relaxed);
    }

    /// Runs until the event queue drains (no horizon).
    pub fn run(&self) -> RunOutcome {
        self.run_bounded(None, u64::MAX)
    }

    /// Runs with both a time horizon and an event-count guard.
    pub fn run_bounded(&self, until: Option<SimTime>, max_events: u64) -> RunOutcome {
        assert!(
            !self.inner.running.swap(true, Ordering::SeqCst),
            "Sim::run re-entered"
        );
        let (mut events, mut resumes) = (0u64, 0u64);
        // The thread resumed last, whose wait this loop has yet to apply.
        let mut yielded: Option<ThreadId> = None;
        let reason = loop {
            // One acquisition per event: apply the wait the last thread
            // yielded with, pop the event and, when it is a `Resume`, claim
            // the thread slot it names.
            let (time, seq, kind, claimed) = {
                let mut core = self.inner.core.lock();
                if let Some(tid) = yielded.take() {
                    let wait = self.inner.wait.load(Ordering::Relaxed);
                    self.inner.wait.store(NO_WAIT, Ordering::Relaxed);
                    core.settle(tid, wait);
                }
                match core.queue.peek() {
                    None => break StopReason::Completed,
                    Some((t, _)) => {
                        if let Some(limit) = until {
                            if t > limit.as_ps() {
                                break StopReason::TimeLimit;
                            }
                        }
                        // Check the cap BEFORE popping: breaking after the
                        // pop would silently drop the popped event, leaving
                        // a resumed run one event short (and, mid-timestamp,
                        // nondeterministically so).
                        if events >= max_events {
                            break StopReason::EventLimit;
                        }
                    }
                }
                let (time, seq, kind) = if self.inner.policy_installed.load(Ordering::Relaxed) {
                    // Exploration: let the policy pick among same-timestamp
                    // events. The group scan + mid-heap extraction cost is
                    // paid only on this branch.
                    let group = core.queue.head_seqs();
                    let pick = self.schedule_choice(ChoicePoint::EventTieBreak, group.len());
                    core.queue
                        .pop_seq(group[pick])
                        .expect("head member vanished")
                } else {
                    core.queue.pop().expect("peeked event vanished")
                };
                let claimed = match kind {
                    EventKind::Resume(tid) => {
                        let slot = &mut core.threads[tid.0 as usize];
                        (slot.state == ThreadState::Scheduled).then(|| {
                            slot.state = ThreadState::Running;
                            slot.green.resume_handle()
                        })
                    }
                    EventKind::Call(_) => None,
                };
                (time, seq, kind, claimed)
            };
            events += 1;
            self.inner.now_ps.store(time, Ordering::Relaxed);
            match kind {
                EventKind::Call(f) => {
                    self.mix_hash(time, seq, 1);
                    f(self);
                }
                EventKind::Resume(tid) => {
                    self.mix_hash(time, seq, 2 | (u64::from(tid.0) << 8));
                    // Unclaimed: a stale resume, its thread exited in the
                    // meantime. It still counts as an event.
                    if let Some(handle) = claimed {
                        resumes += 1;
                        self.drive(tid, handle, false);
                        yielded = Some(tid);
                    }
                }
            }
        };
        if let (StopReason::TimeLimit, Some(limit)) = (reason, until) {
            self.inner.now_ps.store(limit.as_ps(), Ordering::Relaxed);
        }
        self.inner.running.store(false, Ordering::SeqCst);
        let blocked: Vec<String> = {
            let core = self.inner.core.lock();
            core.threads
                .iter()
                .filter(|s| matches!(s.state, ThreadState::Parked | ThreadState::Scheduled))
                .map(|s| s.name.clone())
                .collect()
        };
        if reason == StopReason::Completed && !blocked.is_empty() {
            let analysis = self.analysis();
            if analysis.active() {
                for name in &blocked {
                    analysis.report(
                        "lost-wakeup",
                        name.clone(),
                        "still parked after the event queue drained; no pending \
                         event, timer, or in-flight frame can unblock it",
                    );
                }
            }
        }
        let panics = self.inner.panics.lock().clone();
        RunOutcome {
            end_time: self.now(),
            events,
            resumes,
            reason,
            blocked,
            panics,
        }
    }

    /// Transfers control to a green thread whose slot is already marked
    /// `Running` and blocks until it hands control back. With `cancel`,
    /// the thread's next scheduling point unwinds it instead of returning.
    /// A thread the engine can release as it finishes (a coroutine's stack)
    /// is reaped on the spot; anything else in [`Sim::finish`].
    fn drive(&self, tid: ThreadId, handle: ResumeHandle, cancel: bool) {
        if self.inner.engine.resume(handle, cancel) {
            self.inner.core.lock().threads[tid.0 as usize].green = GreenThread::Done;
        }
    }

    /// Cancels every live green thread and reclaims its backing resources —
    /// coroutine stacks are unmapped, fallback OS threads are joined.
    /// Runs automatically when the last guarded [`Sim`] handle drops
    /// (see [`Sim`]); call it explicitly to reclaim resources earlier.
    pub fn finish(&self) {
        if self.inner.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        loop {
            let (tid, handle) = {
                let mut core = self.inner.core.lock();
                let slot =
                    core.threads.iter_mut().enumerate().find(|(_, s)| {
                        matches!(s.state, ThreadState::Parked | ThreadState::Scheduled)
                    });
                match slot {
                    None => break,
                    Some((i, s)) => {
                        s.state = ThreadState::Running;
                        (ThreadId(i as u32), s.green.resume_handle())
                    }
                }
            };
            self.drive(tid, handle, true);
        }
        let greens: Vec<GreenThread> = {
            let mut core = self.inner.core.lock();
            core.threads
                .iter_mut()
                .map(|s| std::mem::replace(&mut s.green, GreenThread::Done))
                .collect()
        };
        greens.into_iter().for_each(GreenThread::reap);
    }
}

/// The trace digest `h` after one more event: its instant, its sequence
/// number and its kind word (1 for a callback, 2 plus the thread id shifted
/// up a byte for a resume), one [`word_fold`] each.
pub(super) fn fold_event(h: u64, time: u64, seq: u64, kind: u64) -> u64 {
    word_fold(word_fold(word_fold(h, time), seq), kind)
}
