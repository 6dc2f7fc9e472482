//! The NCS_MTS runtime: user-level threads over one process's CPU.
//!
//! Faithful to Section 4.1 of the paper:
//!
//! * **N = 16 priority levels**, round-robin within a level (the run
//!   queue of `run_queue.rs`);
//! * thread states **running / runnable / blocked**, plus a timed sleep, a
//!   kernel-level wait and exit;
//! * **cooperative** scheduling: a thread runs until it blocks, yields, or
//!   exits — there is no preemption, exactly like QuickThreads-based
//!   user-level packages;
//! * a context-switch cost charged at every dispatch (this is the small
//!   single-node *penalty* visible in the paper's Tables 1 and 3).
//!
//! One [`Mts`] instance models one Unix process. Exactly one of its threads
//! owns the CPU at any virtual instant; everything a thread does between
//! scheduler calls (including [`ncs_sim::Ctx::sleep`]-modeled computation
//! and protocol processing) happens with the CPU held. Kernel-level blocking
//! (e.g. parking on an empty socket) therefore blocks the *whole process* —
//! unless done through [`MtsCtx::kernel_wait`], which is how NCS's receive
//! thread waits for the network while sibling threads keep running.
//!
//! One code path puts a thread on the CPU: the dispatcher picks it and
//! queues its green thread's `Resume` at `now + context_switch`
//! ([`ncs_sim::Sim::wake_at`]), so a dispatch is one kernel event and the
//! thread wakes with its switch paid. Green threads are created parked
//! ([`ncs_sim::Sim::spawn_parked`]): a thread's first run is its first
//! dispatch.
//!
//! This file is the dispatcher; its analysis half (the wait-for scan and
//! the run-queue invariants) lives in `runtime/analysis.rs`.

use ncs_sim::sync::Mutex;
use ncs_sim::{ActorId, AnalysisConfig, ChoicePoint, Ctx, Dur, Sim, SimTime, SpanKind, ThreadId};
use std::sync::Arc;

use crate::run_queue::RunQueue;

mod analysis;

/// Number of priority levels (the paper's current implementation: N = 16).
pub const PRIORITY_LEVELS: usize = 16;

/// Identifier of an MTS thread within its process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MtsTid(pub u32);

impl std::fmt::Display for MtsTid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

struct Tcb {
    name: String,
    /// Interned `proc/thread` label, so per-event tracing never allocates.
    actor: ActorId,
    priority: usize,
    state: MtsThreadState,
    green: ThreadId,
    /// A pending unblock permit (unblock arrived before the block).
    permit: bool,
    /// When the current wait (blocked, sleeping, kernel) began.
    blocked_since: Option<SimTime>,
    /// When the current run slice started (dispatch + context-switch cost).
    run_since: Option<SimTime>,
    /// When the thread last entered the run queue.
    runnable_since: Option<SimTime>,
    /// The sibling this thread is blocked on, when known — a wait-for edge
    /// for deadlock detection. `None` for timed sleeps and anonymous
    /// blocks (anything may wake those).
    wait_on: Option<MtsTid>,
}

struct Inner {
    proc_name: String,
    cs_cost: Dur,
    started: bool,
    runnable: RunQueue,
    tcbs: Vec<Tcb>,
    running: Option<MtsTid>,
    live: usize,
    all_done_waiters: Vec<ThreadId>,
    analysis: AnalysisConfig,
    /// Deadlock cycles already reported, so a stuck process does not spam
    /// one violation per idle transition.
    reported_cycles: Vec<Vec<MtsTid>>,
}

/// Configuration of one MTS instance. The scheduling discipline is not
/// configurable: it is the paper's implementation, a multilevel priority
/// queue ([`PRIORITY_LEVELS`] levels) with round robin within a level
/// (Figure 9).
#[derive(Clone, Debug)]
pub struct MtsConfig {
    /// User-level context-switch cost charged at each dispatch. QuickThreads
    /// switches in a few microseconds on a 1990s SPARC; the default includes
    /// queue management.
    pub context_switch: Dur,
}

impl Default for MtsConfig {
    fn default() -> MtsConfig {
        MtsConfig {
            context_switch: Dur::from_micros(15),
        }
    }
}

/// One process's user-level thread runtime (the paper's NCS_MTS).
#[derive(Clone)]
pub struct Mts {
    sim: Sim,
    inner: Arc<Mutex<Inner>>,
    /// Whether the analysis pass is on: read outside the lock on every
    /// dispatch wake-up (see `MtsCtx::wait_for_dispatch`).
    armed: bool,
}

impl Mts {
    /// Creates the runtime for process `proc_name` (the `NCS_init` half
    /// that sets up threading; system threads are layered on top by
    /// ncs-core). The runtime analysis pass (deadlock detection,
    /// queue-invariant validation) is armed when the simulation's is
    /// ([`Sim::set_analysis`]): install it first.
    pub fn new(sim: &Sim, proc_name: impl Into<String>, config: MtsConfig) -> Mts {
        let analysis = sim.analysis();
        Mts {
            sim: sim.clone(),
            armed: analysis.active(),
            inner: Arc::new(Mutex::new(Inner {
                proc_name: proc_name.into(),
                cs_cost: config.context_switch,
                started: false,
                runnable: RunQueue::default(),
                tcbs: Vec::new(),
                running: None,
                live: 0,
                all_done_waiters: Vec::new(),
                analysis,
                reported_cycles: Vec::new(),
            })),
        }
    }

    /// Creates an MTS thread (`NCS_t_create`). Threads do not run until
    /// [`Mts::start`]; threads created after `start` become runnable
    /// immediately. Priority 0 is highest; must be below
    /// [`PRIORITY_LEVELS`].
    pub fn spawn(
        &self,
        name: impl Into<String>,
        priority: usize,
        body: impl FnOnce(&MtsCtx) + Send + 'static,
    ) -> MtsTid {
        assert!(priority < PRIORITY_LEVELS, "priority out of range");
        let name = name.into();
        let (green_name, tid) = {
            let inner = self.inner.lock();
            let tid = MtsTid(inner.tcbs.len() as u32);
            (format!("{}/{}", inner.proc_name, name), tid)
        };
        // Intern the actor label once; every later trace event for this
        // thread records the small id instead of re-allocating the string.
        let actor = self.sim.with_tracer(|tr| tr.intern(&green_name));
        let mts = self.clone();
        // Parked: the green thread first runs when the dispatcher wakes it,
        // already holding the CPU.
        let green = self.sim.spawn_parked(green_name, move |ctx| {
            let mctx = MtsCtx {
                mts: mts.clone(),
                ctx,
                tid,
            };
            body(&mctx);
            mts.thread_exited(ctx, tid);
        });
        let mut inner = self.inner.lock();
        inner.tcbs.push(Tcb {
            name,
            actor,
            priority,
            state: MtsThreadState::Runnable,
            green,
            permit: false,
            blocked_since: None,
            run_since: None,
            runnable_since: Some(self.sim.now()),
            wait_on: None,
        });
        inner.runnable.push(priority, tid);
        inner.live += 1;
        self.queue_check(&inner, "spawn");
        tid
    }

    /// Starts scheduling (`NCS_start`) and blocks the calling green thread
    /// (the process "main") until every MTS thread has exited.
    pub fn start(&self, ctx: &Ctx) {
        {
            let mut inner = self.inner.lock();
            assert!(!inner.started, "NCS_start called twice");
            inner.started = true;
            if inner.live == 0 {
                return;
            }
            self.dispatch_next(&mut inner, ctx.now(), None);
        }
        loop {
            {
                let mut inner = self.inner.lock();
                if inner.live == 0 {
                    return;
                }
                inner.all_done_waiters.push(ctx.tid());
            }
            ctx.park();
        }
    }

    /// Unblocks a thread (`NCS_unblock`). If the target is not currently
    /// blocked — running, queued, or in an [`MtsCtx::sleep`] — a permit is
    /// recorded and its next [`MtsCtx::block`] returns immediately — the
    /// race-free semantics application code expects. Callable from any
    /// green thread or event callback of the simulation.
    pub fn unblock(&self, sim: &Sim, tid: MtsTid) {
        let mut inner = self.inner.lock();
        match inner.tcbs[tid.0 as usize].state {
            MtsThreadState::Blocked => self.end_wait(&mut inner, tid, sim.now()),
            MtsThreadState::Exited => {}
            _ => inner.tcbs[tid.0 as usize].permit = true,
        }
        self.queue_check(&inner, "unblock");
    }

    /// Ends `tid`'s kernel-level wait ([`MtsCtx::kernel_wait`]). A thread
    /// not in one is left alone, with no permit: it has not started
    /// waiting yet, and it looks for what it would wait for before it does.
    /// Callable from any green thread or event callback of the simulation.
    pub fn end_kernel_wait(&self, tid: MtsTid) {
        let mut inner = self.inner.lock();
        if inner.tcbs[tid.0 as usize].state == MtsThreadState::External {
            self.end_wait(&mut inner, tid, self.sim.now());
            self.queue_check(&inner, "end_kernel_wait");
        }
    }

    /// The timer of an [`MtsCtx::sleep`]: the only thing that ends it.
    fn end_sleep(&self, tid: MtsTid) {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.tcbs[tid.0 as usize].state, MtsThreadState::Sleeping);
        self.end_wait(&mut inner, tid, self.sim.now());
        self.queue_check(&inner, "sleep");
    }

    /// Whether any thread is waiting in the run queue.
    pub fn has_runnable(&self) -> bool {
        !self.inner.lock().runnable.is_empty()
    }

    /// Interned tracer actor for `tid` — the allocation-free handle for
    /// hot-path span recording ([`ncs_sim::Tracer::span_on`]).
    pub fn actor_id(&self, tid: MtsTid) -> ActorId {
        self.inner.lock().tcbs[tid.0 as usize].actor
    }

    // -- internals ---------------------------------------------------------

    /// Takes `tid` off the CPU at `now`, into `state`, and hands the CPU to
    /// the next runnable thread: closes the run slice (a scheduler timeline
    /// span at detail level, plus the always-on run-slice histogram), then
    /// dispatches. Every Running → (Runnable|Blocked|Sleeping|External|
    /// Exited) transition ends here, so the slice that ends and the
    /// dispatch that follows share one registry visit.
    fn switch_away(&self, inner: &mut Inner, tid: MtsTid, state: MtsThreadState, now: SimTime) {
        debug_assert_eq!(inner.running, Some(tid));
        inner.running = None;
        let tcb = &mut inner.tcbs[tid.0 as usize];
        tcb.state = state;
        match state {
            MtsThreadState::Runnable => tcb.runnable_since = Some(now),
            MtsThreadState::Exited => {}
            _ => tcb.blocked_since = Some(now),
        }
        let ended = tcb.run_since.take().map(|since| (tcb.actor, since));
        if state == MtsThreadState::Runnable {
            let priority = tcb.priority;
            inner.runnable.push(priority, tid);
        }
        self.dispatch_next(inner, now, ended);
    }

    /// Ends `tid`'s wait at `now`: records the wait's span, then puts the
    /// thread on the CPU if it is idle, else queues it. A thread back from
    /// a kernel wait that finds the CPU idle goes straight on: it never
    /// waited in the run queue, so it records no runnable interval.
    fn end_wait(&self, inner: &mut Inner, tid: MtsTid, now: SimTime) {
        let idle = inner.started && inner.running.is_none();
        let tcb = &mut inner.tcbs[tid.0 as usize];
        let kernel = tcb.state == MtsThreadState::External;
        tcb.state = MtsThreadState::Runnable;
        tcb.wait_on = None;
        tcb.runnable_since = (!(kernel && idle)).then_some(now);
        let (actor, priority, since) = (tcb.actor, tcb.priority, tcb.blocked_since.take());
        if let Some(since) = since {
            self.sim.with_spans(|tr| {
                if !kernel {
                    tr.span_on(actor, SpanKind::Idle, "blocked", since, now);
                } else if tr.detail_enabled() {
                    tr.span_on(actor, SpanKind::Idle, "kernel-wait", since, now);
                }
            });
        }
        inner.runnable.push(priority, tid);
        if idle {
            self.dispatch_next(inner, now, None);
        }
    }

    /// Picks the next thread (highest priority, round robin) and hands it
    /// the CPU. `inner.running` must be `None`. `ended` is the run slice
    /// `(actor, since)` that just closed at `now`, if this dispatch follows
    /// one (see [`Mts::switch_away`]).
    ///
    /// This is the one place a thread gets the CPU: its green thread,
    /// parked, is woken at `run_at = now + context_switch`, so it resumes
    /// with the switch already paid, in one kernel event. When a
    /// schedule-exploration policy is installed on the kernel, the policy
    /// picks *which* thread of the top non-empty level dispatches (see
    /// `RunQueue::pop`).
    fn dispatch_next(&self, inner: &mut Inner, now: SimTime, ended: Option<(ActorId, SimTime)>) {
        debug_assert!(inner.running.is_none());
        let cs_cost = inner.cs_cost;
        let run_at = now + cs_cost;
        let sim = &self.sim;
        let next = inner
            .runnable
            .pop(|n| sim.schedule_choice(ChoicePoint::RunnableRotation, n))
            .map(|tid| {
                let tcb = &mut inner.tcbs[tid.0 as usize];
                tcb.state = MtsThreadState::Running;
                tcb.run_since = Some(run_at);
                (tid, tcb.actor, tcb.runnable_since.take(), tcb.green)
            });
        sim.with_metrics(|m| {
            if let Some((_, since)) = ended {
                m.observe("mts.run_slice", now.saturating_since(since));
            }
            if let Some((_, _, queued_since, _)) = next {
                m.inc("mts.dispatches", 1);
                if let Some(since) = queued_since {
                    m.observe("mts.runnable_wait", now.saturating_since(since));
                }
            }
        });
        sim.with_spans(|tr| {
            if let (Some((actor, since)), true) = (ended, tr.detail_enabled()) {
                tr.span_on(actor, SpanKind::Compute, "run", since, now);
            }
            if let Some((_, actor, queued_since, _)) = next {
                if let (Some(since), true) = (queued_since, tr.detail_enabled()) {
                    tr.span_on(actor, SpanKind::Runnable, "runnable", since, now);
                }
                if !cs_cost.is_zero() {
                    tr.span_on(actor, SpanKind::Overhead, "ctx-switch", now, run_at);
                }
            }
        });
        match next {
            Some((tid, .., green)) => {
                inner.running = Some(tid);
                let woke = sim.wake_at(green, run_at);
                debug_assert!(woke, "dispatched {tid} is not parked");
            }
            // The process just went idle: every thread is blocked or gone,
            // the moment a wait-for cycle becomes a deadlock.
            None if inner.analysis.active() => Self::deadlock_scan(inner),
            None => {}
        }
        self.queue_check(inner, "dispatch");
    }

    fn thread_exited(&self, ctx: &Ctx, tid: MtsTid) {
        let mut inner = self.inner.lock();
        inner.live -= 1;
        self.switch_away(&mut inner, tid, MtsThreadState::Exited, ctx.now());
        if inner.live == 0 {
            for w in inner.all_done_waiters.drain(..) {
                self.sim.wake(w);
            }
        }
    }
}

/// Scheduling state of an MTS thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MtsThreadState {
    /// In the run queue (including not-yet-first-run threads).
    Runnable,
    /// Owns the process CPU.
    Running,
    /// Blocked until an [`Mts::unblock`].
    Blocked,
    /// In a thread-level sleep ([`MtsCtx::sleep`]): only its timer ends it.
    Sleeping,
    /// In a kernel-level wait ([`MtsCtx::kernel_wait`]): only
    /// [`Mts::end_kernel_wait`] ends it.
    External,
    /// Finished.
    Exited,
}

/// Per-thread handle passed to MTS thread bodies.
pub struct MtsCtx<'a> {
    mts: Mts,
    ctx: &'a Ctx,
    tid: MtsTid,
}

impl MtsCtx<'_> {
    /// The runtime this thread belongs to.
    pub fn mts(&self) -> &Mts {
        &self.mts
    }

    /// The underlying simulation thread context. Use for modeling CPU time
    /// (`ctx().sleep(..)` holds the process CPU — correct for computation
    /// and protocol processing).
    pub fn ctx(&self) -> &Ctx {
        self.ctx
    }

    /// This thread's MTS id.
    pub fn tid(&self) -> MtsTid {
        self.tid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Voluntarily yields the CPU; round-robins within this priority level.
    pub fn yield_now(&self) {
        {
            let mut inner = self.mts.inner.lock();
            // Fast path: nothing that could win the CPU — skip the switch
            // entirely. This includes the case where only strictly-lower
            // priority threads are runnable: round robin never hands the
            // CPU down a level while the yielder is still runnable (and
            // re-dispatching the yielder itself would wake the green
            // thread that is still running, which the kernel rejects).
            let my_prio = inner.tcbs[self.tid.0 as usize].priority;
            if !inner.runnable.any_at_or_above(my_prio) {
                return;
            }
            self.leave_cpu(&mut inner, MtsThreadState::Runnable);
        }
        self.wait_for_dispatch();
    }

    /// Blocks this thread (`NCS_block`) until someone calls
    /// [`Mts::unblock`]. Returns immediately if a permit is pending.
    pub fn block(&self) {
        self.block_inner(None);
    }

    /// [`MtsCtx::block`], recording that this thread is waiting for
    /// sibling `on` to act — a wait-for edge the analysis pass feeds into
    /// deadlock detection. Semantics are otherwise identical to `block`;
    /// any thread may still perform the unblock.
    pub fn block_on(&self, on: MtsTid) {
        assert_ne!(on, self.tid, "a thread cannot wait on itself");
        self.block_inner(Some(on));
    }

    fn block_inner(&self, wait_on: Option<MtsTid>) {
        {
            let mut inner = self.mts.inner.lock();
            let tcb = &mut inner.tcbs[self.tid.0 as usize];
            if std::mem::take(&mut tcb.permit) {
                return;
            }
            tcb.wait_on = wait_on;
            self.leave_cpu(&mut inner, MtsThreadState::Blocked);
        }
        self.wait_for_dispatch();
    }

    /// Waits `d` of virtual time, letting sibling threads run — the
    /// thread-level (as opposed to process-level) sleep. It models a wait
    /// of known length (NCS's send thread spends its wire time here), so
    /// only its timer ends it: an [`Mts::unblock`] that lands meanwhile
    /// leaves a permit for the next [`MtsCtx::block`], as it does for a
    /// running thread.
    pub fn sleep(&self, d: Dur) {
        if d.is_zero() {
            self.yield_now();
            return;
        }
        self.leave_cpu(&mut self.mts.inner.lock(), MtsThreadState::Sleeping);
        let (mts, tid) = (self.mts.clone(), self.tid);
        self.ctx.sim().schedule_in(d, move |_| mts.end_sleep(tid));
        self.wait_for_dispatch();
    }

    /// Releases the CPU until [`Mts::end_kernel_wait`]: a wait for
    /// something outside the process's threads (a delivery, a close) that
    /// sibling threads keep running through, and that no [`Mts::unblock`]
    /// ends. NCS's receive thread waits for the network this way.
    pub fn kernel_wait(&self) {
        self.leave_cpu(&mut self.mts.inner.lock(), MtsThreadState::External);
        self.wait_for_dispatch();
    }

    /// Unblocks a sibling thread (`NCS_unblock`).
    pub fn unblock(&self, tid: MtsTid) {
        self.mts.unblock(self.ctx.sim(), tid);
    }

    /// Gives up the CPU, which this thread holds, into `state`.
    fn leave_cpu(&self, inner: &mut Inner, state: MtsThreadState) {
        self.mts.switch_away(inner, self.tid, state, self.ctx.now());
    }

    /// Parks until the dispatcher hands this thread the CPU again. The
    /// wake-up lands at the end of the context switch, so there is nothing
    /// left to charge. [`Mts::dispatch_next`] is the only code that wakes
    /// an MTS green thread, and it marks the thread `Running` first, so the
    /// wake-up itself says the CPU is ours; an armed analysis pass checks
    /// that, and parks again after reporting a wake from anywhere else.
    fn wait_for_dispatch(&self) {
        loop {
            self.ctx.park();
            if !self.mts.armed || self.mts.resumed_running(self.tid) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(super) fn zero_cs() -> MtsConfig {
        MtsConfig {
            context_switch: Dur::ZERO,
        }
    }

    #[test]
    fn threads_run_after_start() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            for i in 0..3 {
                let h = Arc::clone(&h);
                mts.spawn(format!("t{i}"), 1, move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert_eq!(h.load(Ordering::SeqCst), 0, "nothing runs before start");
            mts.start(ctx);
            assert_eq!(h.load(Ordering::SeqCst), 3, "start runs all to completion");
        });
        sim.run().assert_clean();
    }

    #[test]
    fn cooperative_no_preemption() {
        // A long-computing thread is never preempted by an equal-priority
        // sibling: the sibling runs only after the first yields or exits.
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            mts.spawn("worker", 1, move |m| {
                l1.lock().push("w-start");
                m.ctx().sleep(Dur::from_millis(10)); // compute, CPU held
                l1.lock().push("w-end");
            });
            mts.spawn("other", 1, move |m| {
                l2.lock().push("o-run");
                m.ctx().sleep(Dur::from_millis(1));
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log.lock(), vec!["w-start", "w-end", "o-run"]);
    }

    #[test]
    fn priority_order_respected() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            // Created in reverse priority order; must run by priority.
            for prio in [5usize, 2, 9, 0, 2] {
                let log = Arc::clone(&log);
                mts.spawn(format!("p{prio}"), prio, move |_| {
                    log.lock().push(prio);
                });
            }
            mts.start(ctx);
            assert_eq!(*log.lock(), vec![0, 2, 2, 5, 9]);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn round_robin_within_level() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let log_outer = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            for i in 0..3u32 {
                let log = Arc::clone(&log);
                mts.spawn(format!("t{i}"), 4, move |m| {
                    for _ in 0..3 {
                        log.lock().push(i);
                        m.yield_now();
                    }
                });
            }
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log_outer.lock(), vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn block_unblock_switches_threads() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let t_blocked = {
                let l1 = Arc::clone(&l1);
                mts.spawn("blocked", 1, move |m| {
                    l1.lock().push("b-before");
                    m.block();
                    l1.lock().push("b-after");
                })
            };
            mts.spawn("waker", 1, move |m| {
                l2.lock().push("w-compute");
                m.ctx().sleep(Dur::from_micros(100));
                m.unblock(t_blocked);
                l2.lock().push("w-done");
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(
            *log.lock(),
            vec!["b-before", "w-compute", "w-done", "b-after"]
        );
    }

    #[test]
    fn unblock_before_block_leaves_permit() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let mts2 = mts.clone();
            let t2 = mts.spawn("late-blocker", 2, move |m| {
                // Runs second (lower priority); the permit is already here.
                let t0 = m.now();
                m.block();
                assert_eq!(m.now(), t0, "block with permit must not wait");
            });
            mts.spawn("early-waker", 1, move |m| {
                mts2.unblock(m.ctx().sim(), t2);
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn mts_sleep_lets_sibling_run() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            mts.spawn("sleeper", 1, move |m| {
                l1.lock().push("s-sleep");
                m.sleep(Dur::from_millis(5));
                l1.lock().push("s-wake");
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(5));
            });
            mts.spawn("sibling", 1, move |m| {
                l2.lock().push("sib-run");
                m.ctx().sleep(Dur::from_millis(1));
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log.lock(), vec!["s-sleep", "sib-run", "s-wake"]);
    }

    #[test]
    fn context_switch_cost_charged() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::from_micros(10),
                },
            );
            mts.spawn("a", 1, move |m| {
                // First dispatch charged 10us.
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_micros(10));
                m.yield_now();
                // b ran (10us switch), then back to a (another 10us).
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_micros(30));
            });
            mts.spawn("b", 1, |_| {});
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn one_resume_per_dispatch_at_run_at() {
        // The switch is a cost charged to the dispatched thread, not an
        // activity of its own: the dispatcher queues the thread's `Resume`
        // at `run_at`, so a dispatch is ONE kernel event and the thread's
        // first instruction runs with the switch already paid — its first
        // dispatch too, since MTS green threads are created parked.
        const TRIPS: u64 = 50;
        let cs = MtsConfig::default().context_switch;
        assert_eq!(cs, Dur::from_micros(15));
        let sim = Sim::new();
        let woke_at = Arc::new(Mutex::new(Vec::new()));
        let (w1, w2) = (Arc::clone(&woke_at), Arc::clone(&woke_at));
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
            let ping = MtsTid(1);
            let pong = mts.spawn("pong", 1, move |m| {
                w2.lock().push(m.now());
                for _ in 0..TRIPS {
                    m.block();
                    w2.lock().push(m.now());
                    m.unblock(ping);
                }
            });
            let spawned = mts.spawn("ping", 1, move |m| {
                w1.lock().push(m.now());
                for _ in 0..TRIPS {
                    m.unblock(pong);
                    m.block();
                    w1.lock().push(m.now());
                }
            });
            assert_eq!(spawned, ping);
            mts.start(ctx);
        });
        let out = sim.run();
        out.assert_clean();
        let dispatches = sim.with_metrics(|m| m.counter("mts.dispatches"));
        // Nothing but switches takes time here, so the k-th dispatch hands
        // over the CPU at exactly k switch costs.
        let woke_at = woke_at.lock();
        assert_eq!(woke_at.len() as u64, dispatches);
        for (k, &t) in woke_at.iter().enumerate() {
            assert_eq!(t, SimTime::ZERO + cs.times(k as u64 + 1), "dispatch {k}");
        }
        // main: first run + all-done wake. Every dispatch: one resume.
        assert_eq!(dispatches, 2 * TRIPS + 2);
        assert_eq!(out.resumes, 2 + dispatches);
        assert_eq!(out.events, out.resumes, "no callbacks in this run");
    }

    #[test]
    fn kernel_wait_frees_cpu_for_siblings() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let receiver = mts.spawn("receiver", 0, move |m| {
                l1.lock().push("r-wait");
                m.kernel_wait();
                l1.lock().push("r-got");
            });
            mts.spawn("computer", 1, move |m| {
                l2.lock().push("c-run");
                m.ctx().sleep(Dur::from_millis(2));
                l2.lock().push("c-done");
            });
            let ext = mts.clone();
            ctx.sim()
                .schedule_in(Dur::from_millis(1), move |_| ext.end_kernel_wait(receiver));
            mts.start(ctx);
        });
        sim.run().assert_clean();
        // The receiver waits without holding the CPU, so the computer runs;
        // its wait ends at 1 ms, while the computer holds the CPU until
        // 2 ms, so it queues and runs after c-done.
        assert_eq!(*log.lock(), vec!["r-wait", "c-run", "c-done", "r-got"]);
    }

    #[test]
    fn kernel_wait_end_takes_an_idle_cpu_in_one_dispatch() {
        // The end of a kernel wait on an idle CPU is a dispatch like any
        // other: one `Resume` at the end of the switch, a `ctx-switch`
        // span, and no runnable interval (the thread never queued).
        let cs = MtsConfig::default().context_switch;
        let sim = Sim::new();
        sim.with_tracer(|tr| tr.enable_detail());
        let ended_at = SimTime::ZERO + Dur::from_millis(3);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
            let receiver = mts.spawn("receiver", 0, move |m| {
                m.kernel_wait();
                assert_eq!(m.now(), ended_at + cs);
            });
            let ext = mts.clone();
            ctx.sim()
                .schedule_at(ended_at, move |_| ext.end_kernel_wait(receiver));
            mts.start(ctx);
        });
        let out = sim.run();
        out.assert_clean();
        // main: first run + all-done wake; the receiver: two dispatches;
        // the callback.
        assert_eq!((out.events, out.resumes), (5, 4));
        assert_eq!(sim.with_metrics(|m| m.counter("mts.dispatches")), 2);
        let spans: Vec<(&str, SimTime, SimTime)> =
            sim.with_tracer(|tr| tr.spans().iter().map(|s| (s.label, s.t0, s.t1)).collect());
        let start = SimTime::ZERO + cs;
        assert_eq!(
            spans,
            [
                ("ctx-switch", SimTime::ZERO, start),
                ("run", start, start),
                ("kernel-wait", start, ended_at),
                ("ctx-switch", ended_at, ended_at + cs),
                ("run", ended_at + cs, ended_at + cs),
            ]
            .into_iter()
            .filter(|&(_, t0, t1)| t1 > t0)
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn an_idle_cpu_goes_to_whichever_wait_ends_first_at_an_instant() {
        // A kernel wait and a higher-priority sibling's block both end at
        // 1 ms, in program order. The first to end finds the CPU idle and
        // takes it; the second queues behind it — there is no preemption,
        // so priority decides only among threads already queued.
        let run = |kernel_first: bool| {
            let sim = Sim::new();
            let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
            let (l1, l2) = (Arc::clone(&log), Arc::clone(&log));
            sim.spawn("main", move |ctx| {
                let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
                let receiver = mts.spawn("receiver", 15, move |m| {
                    m.kernel_wait();
                    l1.lock().push("receiver");
                });
                let sender = mts.spawn("sender", 0, move |m| {
                    m.block();
                    l2.lock().push("sender");
                });
                let (a, b) = (mts.clone(), mts.clone());
                let at = SimTime::ZERO + Dur::from_millis(1);
                let end_kernel = move |_: &Sim| a.end_kernel_wait(receiver);
                let unblock = move |sim: &Sim| b.unblock(sim, sender);
                if kernel_first {
                    ctx.sim().schedule_at(at, end_kernel);
                    ctx.sim().schedule_at(at, unblock);
                } else {
                    ctx.sim().schedule_at(at, unblock);
                    ctx.sim().schedule_at(at, end_kernel);
                }
                mts.start(ctx);
            });
            sim.run().assert_clean();
            let order = log.lock().clone();
            order
        };
        assert_eq!(run(true), ["receiver", "sender"]);
        assert_eq!(run(false), ["sender", "receiver"]);
    }

    #[test]
    fn threads_created_after_start_run() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let mts2 = mts.clone();
            let h2 = Arc::clone(&h);
            mts.spawn("parent", 1, move |m| {
                let h3 = Arc::clone(&h2);
                mts2.spawn("child", 1, move |_| {
                    h3.fetch_add(1, Ordering::SeqCst);
                });
                m.yield_now();
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_wake_behind_the_dispatchers_back_is_a_queue_invariant_violation() {
        // The blocked thread's green thread is woken directly at 1 ms: an
        // armed pass reports it, and the thread waits on for its dispatch.
        let sim = Sim::new();
        let (analysis, sink) = AnalysisConfig::recording();
        sim.set_analysis(analysis);
        let config = MtsConfig {
            context_switch: Dur::ZERO,
        };
        let resumed = Arc::new(Mutex::new(None));
        let r = Arc::clone(&resumed);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", config);
            let blocked = mts.spawn("blocked", 1, move |m| {
                m.block();
                *r.lock() = Some(m.now());
            });
            let green = mts.inner.lock().tcbs[blocked.0 as usize].green;
            let real = mts.clone();
            ctx.sim()
                .schedule_in(Dur::from_millis(1), move |sim| assert!(sim.wake(green)));
            ctx.sim()
                .schedule_in(Dur::from_millis(2), move |sim| real.unblock(sim, blocked));
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*resumed.lock(), Some(SimTime::ZERO + Dur::from_millis(2)));
        let found: Vec<_> = sink
            .take()
            .into_iter()
            .map(|v| (v.check, v.actor, v.detail))
            .collect();
        assert_eq!(
            found,
            [(
                "queue-invariant",
                "p0".to_string(),
                "t0/blocked resumed while Blocked: only the dispatcher wakes an MTS thread"
                    .to_string()
            )]
        );
    }

    #[test]
    fn validate_queues_reports_planted_inconsistencies() {
        let sim = Sim::new();
        let mts = Mts::new(&sim, "p0", zero_cs());
        let a = mts.spawn("a", 3, |_| {});
        let b = mts.spawn("b", 7, |_| {});
        assert!(
            mts.validate_queues().is_empty(),
            "{:?}",
            mts.validate_queues()
        );
        // A runnable thread missing from its level.
        assert_eq!(mts.inner.lock().runnable.pop(|_| 0), Some(a));
        assert_eq!(
            mts.validate_queues(),
            ["t0/a is Runnable but queued 0 times"]
        );
        // A thread on two levels.
        mts.inner.lock().runnable.push(3, a);
        mts.inner.lock().runnable.push(3, b);
        assert_eq!(
            mts.validate_queues(),
            [
                "t1/b has priority 7 but is queued at runnable[3]",
                "t1/b is queued 2 times",
            ]
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn multilevel_default_still_honors_priorities() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let log_outer = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
            for (i, prio) in [9usize, 0, 5].into_iter().enumerate() {
                let log = Arc::clone(&log);
                mts.spawn(format!("t{i}"), prio, move |_| {
                    log.lock().push(i);
                });
            }
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log_outer.lock(), vec![1, 2, 0]);
    }
}

#[cfg(test)]
mod kernel_wait_tests {
    use super::tests::zero_cs;
    use super::*;

    #[test]
    fn two_threads_in_kernel_waits_concurrently() {
        // Two threads of one process can be in kernel-level waits at once;
        // the CPU must flow to whoever's wait ends first, then the other.
        let sim = Sim::new();
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let o3 = Arc::clone(&order);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let a = mts.spawn("waiter-a", 1, move |m| {
                m.kernel_wait();
                o1.lock().push("a-woke");
            });
            let b = mts.spawn("waiter-b", 1, move |m| {
                m.kernel_wait();
                o2.lock().push("b-woke");
            });
            mts.spawn("worker", 2, move |m| {
                o3.lock().push("worker-ran");
                m.ctx().sleep(Dur::from_millis(1));
            });
            let (ea, eb) = (mts.clone(), mts.clone());
            // b's wait ends first.
            ctx.sim()
                .schedule_in(Dur::from_millis(5), move |_| eb.end_kernel_wait(b));
            ctx.sim()
                .schedule_in(Dur::from_millis(9), move |_| ea.end_kernel_wait(a));
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*order.lock(), vec!["worker-ran", "b-woke", "a-woke"]);
    }

    #[test]
    fn kernel_wait_end_queues_behind_a_busy_cpu() {
        // A thread returning from a kernel wait does not preempt: it queues
        // and runs when the scheduler reaches it. Neither the permit of an
        // earlier unblock nor an end that found no wait cuts the wait short.
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let ext = mts.spawn("ext", 0, move |m| {
                m.kernel_wait();
                l1.lock().push("ext-resumed");
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(10));
            });
            mts.spawn("long-compute", 1, move |m| {
                // Runs 10 ms solid; the kernel wait's end at 2 ms must wait.
                m.unblock(ext);
                m.ctx().sleep(Dur::from_millis(10));
                l2.lock().push("compute-done");
            });
            let (early, end) = (mts.clone(), mts.clone());
            // Lands before `ext` starts waiting: dropped.
            ctx.sim()
                .schedule_in(Dur::ZERO, move |_| early.end_kernel_wait(ext));
            ctx.sim()
                .schedule_in(Dur::from_millis(2), move |_| end.end_kernel_wait(ext));
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log.lock(), vec!["compute-done", "ext-resumed"]);
    }
}

#[cfg(test)]
mod sleep_tests {
    use super::tests::zero_cs;
    use super::*;

    #[test]
    fn unblock_during_a_sleep_leaves_a_permit() {
        // A sleep is a modelled wait: an unblock landing in it must not
        // cut it short (the send thread would resume its wire send early),
        // so it is kept as a permit for the next block instead.
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let sleeper = mts.spawn("sleeper", 1, |m| {
                m.sleep(Dur::from_millis(10));
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(10), "woken early");
                m.block();
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(10), "permit lost");
            });
            mts.spawn("waker", 1, move |m| {
                m.sleep(Dur::from_millis(3));
                m.unblock(sleeper);
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn many_sleepers_wake_in_time_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let order2 = Arc::clone(&order);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            for i in 0..6u64 {
                let order = Arc::clone(&order2);
                mts.spawn(format!("s{i}"), 1, move |m| {
                    m.sleep(Dur::from_millis(10 - i)); // reverse durations
                    order.lock().push(i);
                });
            }
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*order.lock(), vec![5, 4, 3, 2, 1, 0]);
    }
}
