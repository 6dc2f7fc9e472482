//! The NCS_MTS runtime: user-level threads over one process's CPU.
//!
//! Faithful to Section 4.1 of the paper:
//!
//! * **N = 16 priority levels**, round-robin within a level, implemented as
//!   doubly-linked queues ([`crate::dlist`]);
//! * a doubly-linked **blocked queue**;
//! * thread states **running / runnable / blocked** (plus bookkeeping
//!   states for creation, kernel-level waits, and exit);
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
//! unless done through [`MtsCtx::external_block`], which is how NCS's
//! receive thread waits for the network while sibling threads keep running.

use ncs_sim::sync::Mutex;
use ncs_sim::{
    ActorId, AnalysisConfig, ChoicePoint, Ctx, Dur, Sim, SimTime, SpanKind, ThreadId, WaitGraph,
};
use std::sync::Arc;

use crate::dlist::{LinkArena, ListHead};

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
    green: Option<ThreadId>,
    /// Earliest instant the thread may run after its latest dispatch
    /// (dispatch time + context-switch cost).
    run_at: SimTime,
    /// A pending unblock permit (unblock arrived before the block).
    permit: bool,
    /// Generation counter distinguishing timed sleeps from later blocks.
    sleep_gen: u64,
    blocked_since: Option<SimTime>,
    total_blocked: Dur,
    /// When the current run slice started (dispatch + context-switch cost).
    run_since: Option<SimTime>,
    /// When the thread last entered a runnable queue.
    runnable_since: Option<SimTime>,
    dispatches: u64,
    /// MTS threads waiting in [`MtsCtx::join`] for this one to exit.
    exit_waiters: Vec<MtsTid>,
    /// The sibling this thread is blocked on, when known — a wait-for edge
    /// for deadlock detection. `None` for timed sleeps and anonymous
    /// blocks (anything may wake those).
    wait_on: Option<MtsTid>,
}

struct Inner {
    proc_name: String,
    cs_cost: Dur,
    started: bool,
    arena: LinkArena,
    runnable: [ListHead; PRIORITY_LEVELS],
    blocked: ListHead,
    tcbs: Vec<Tcb>,
    running: Option<MtsTid>,
    live: usize,
    all_done_waiters: Vec<ThreadId>,
    switches: u64,
    idle_since: Option<SimTime>,
    total_idle: Dur,
    analysis: AnalysisConfig,
    /// Deadlock cycles already reported, so a stuck process does not spam
    /// one violation per idle transition.
    reported_cycles: Vec<Vec<u32>>,
}

impl Inner {
    /// Queues `slot` at the tail of its priority level's runnable list.
    fn push_runnable(&mut self, slot: u32) {
        let prio = self.tcbs[slot as usize].priority;
        let Inner {
            runnable, arena, ..
        } = self;
        runnable[prio].push_back(arena, slot);
    }

    /// Pops the highest-priority runnable thread (round robin within
    /// level). When a schedule-exploration policy is installed on the
    /// kernel, the policy picks *which* thread of the top non-empty level
    /// dispatches — the round-robin rotation within a level is a
    /// convention, not a requirement, so any member is a legal choice.
    /// Strict priority *between* levels is a hard rule and never offered
    /// as a choice. With no policy installed the list head pops on the
    /// pre-existing code path.
    fn pop_runnable_via(&mut self, sim: &Sim) -> Option<u32> {
        let Inner {
            runnable, arena, ..
        } = self;
        let level = runnable.iter_mut().find(|l| !l.is_empty())?;
        let n = level.len();
        if n >= 2 && sim.has_schedule_policy() {
            let pick = sim.schedule_choice(ChoicePoint::RunnableRotation, n);
            let slot = level.iter(arena).nth(pick).expect("pick within level");
            level.unlink(arena, slot);
            Some(slot)
        } else {
            level.pop_front(arena)
        }
    }

    fn push_blocked(&mut self, slot: u32) {
        let Inner { blocked, arena, .. } = self;
        blocked.push_back(arena, slot);
    }

    fn unlink_blocked(&mut self, slot: u32) {
        let Inner { blocked, arena, .. } = self;
        blocked.unlink(arena, slot);
    }

    /// Whether a runnable thread exists that a yielding thread of
    /// `priority` would actually hand the CPU to (its own level or higher).
    /// Strictly-lower levels never win a yield, so yielding to them is a
    /// no-op — re-dispatching the yielder itself would wake the green
    /// thread that is still running, which the kernel (correctly) rejects.
    fn any_runnable_at_or_above(&self, priority: usize) -> bool {
        self.runnable[..=priority].iter().any(|l| !l.is_empty())
    }
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
    /// Runtime analysis pass (deadlock detection, queue-invariant
    /// validation). Off by default; see [`AnalysisConfig::recording`].
    pub analysis: AnalysisConfig,
}

impl Default for MtsConfig {
    fn default() -> MtsConfig {
        MtsConfig {
            context_switch: Dur::from_micros(15),
            analysis: AnalysisConfig::off(),
        }
    }
}

/// Scheduler statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MtsStats {
    /// Total dispatches performed.
    pub switches: u64,
    /// Total time the process CPU sat idle (no runnable thread).
    pub total_idle: Dur,
}

/// One process's user-level thread runtime (the paper's NCS_MTS).
#[derive(Clone)]
pub struct Mts {
    sim: Sim,
    inner: Arc<Mutex<Inner>>,
}

impl Mts {
    /// Creates the runtime for process `proc_name` (the `NCS_init` half
    /// that sets up threading; system threads are layered on top by
    /// ncs-core).
    pub fn new(sim: &Sim, proc_name: impl Into<String>, config: MtsConfig) -> Mts {
        if config.analysis.active() {
            // Arm the kernel-side lost-wakeup report with the same sink.
            sim.set_analysis(config.analysis.clone());
        }
        Mts {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(Inner {
                proc_name: proc_name.into(),
                cs_cost: config.context_switch,
                started: false,
                arena: LinkArena::new(),
                runnable: [ListHead::new(); PRIORITY_LEVELS],
                blocked: ListHead::new(),
                tcbs: Vec::new(),
                running: None,
                live: 0,
                all_done_waiters: Vec::new(),
                switches: 0,
                idle_since: None,
                total_idle: Dur::ZERO,
                analysis: config.analysis,
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
        let green_name = {
            let inner = self.inner.lock();
            format!("{}/{}", inner.proc_name, name)
        };
        // Intern the actor label once; every later trace event for this
        // thread records the small id instead of re-allocating the string.
        let actor = self.sim.with_tracer(|tr| tr.intern(&green_name));
        let tid;
        {
            let mut inner = self.inner.lock();
            let slot = inner.arena.add_slot();
            tid = MtsTid(slot);
            let now = self.sim.now();
            inner.tcbs.push(Tcb {
                name: name.clone(),
                actor,
                priority,
                state: MtsThreadState::Runnable,
                green: None,
                run_at: SimTime::ZERO,
                permit: false,
                sleep_gen: 0,
                blocked_since: None,
                total_blocked: Dur::ZERO,
                run_since: None,
                runnable_since: Some(now),
                dispatches: 0,
                exit_waiters: Vec::new(),
                wait_on: None,
            });
            inner.push_runnable(slot);
            inner.live += 1;
            self.queue_check(&inner, "spawn");
        }
        let mts = self.clone();
        let green = self.sim.spawn(green_name, move |ctx| {
            let mctx = MtsCtx {
                mts: mts.clone(),
                ctx,
                tid,
            };
            mctx.wait_for_dispatch();
            body(&mctx);
            mts.thread_exited(ctx, tid);
        });
        self.inner.lock().tcbs[tid.0 as usize].green = Some(green);
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
    /// blocked, a permit is recorded and its next [`MtsCtx::block`] returns
    /// immediately — the race-free semantics application code expects.
    /// Callable from any green thread or event callback of the simulation.
    pub fn unblock(&self, sim: &Sim, tid: MtsTid) {
        let mut inner = self.inner.lock();
        match inner.tcbs[tid.0 as usize].state {
            MtsThreadState::Blocked => {
                inner.unlink_blocked(tid.0);
                self.note_unblocked(&mut inner, tid, sim.now());
                self.make_runnable_or_dispatch(&mut inner, tid, sim);
            }
            MtsThreadState::Exited => {}
            _ => inner.tcbs[tid.0 as usize].permit = true,
        }
        self.queue_check(&inner, "unblock");
    }

    /// Whether any thread is waiting in a runnable queue.
    pub fn has_runnable(&self) -> bool {
        let inner = self.inner.lock();
        inner.runnable.iter().any(|l| !l.is_empty())
    }

    /// Scheduler statistics so far.
    pub fn stats(&self) -> MtsStats {
        let inner = self.inner.lock();
        MtsStats {
            switches: inner.switches,
            total_idle: inner.total_idle,
        }
    }

    /// Total time `tid` has spent blocked.
    #[cfg(test)]
    pub fn blocked_time(&self, tid: MtsTid) -> Dur {
        self.inner.lock().tcbs[tid.0 as usize].total_blocked
    }

    /// The process name this runtime models.
    pub fn proc_name(&self) -> String {
        self.inner.lock().proc_name.clone()
    }

    /// Interned tracer actor for `tid` — the allocation-free handle for
    /// hot-path span recording ([`ncs_sim::Tracer::span_on`]).
    pub fn actor_id(&self, tid: MtsTid) -> ActorId {
        self.inner.lock().tcbs[tid.0 as usize].actor
    }

    // -- internals ---------------------------------------------------------

    fn note_unblocked(&self, inner: &mut Inner, tid: MtsTid, now: SimTime) {
        let (actor, since) = {
            let tcb = &mut inner.tcbs[tid.0 as usize];
            match tcb.blocked_since.take() {
                None => return,
                Some(since) => {
                    tcb.total_blocked += now.saturating_since(since);
                    (tcb.actor, since)
                }
            }
        };
        self.sim.with_spans(|tr| {
            tr.span_on(actor, SpanKind::Idle, "blocked", since, now);
        });
    }

    /// Takes `tid` off the CPU at `now` and hands the CPU to the next
    /// runnable thread: closes the run slice (a scheduler timeline span at
    /// detail level, plus the always-on run-slice histogram), then
    /// dispatches. Every Running → (Runnable|Blocked|External|Exited)
    /// transition ends here, after the caller has requeued `tid`, so the
    /// slice that ends and the dispatch that follows share one registry
    /// visit.
    fn switch_away(&self, inner: &mut Inner, tid: MtsTid, now: SimTime) {
        debug_assert_eq!(inner.running, Some(tid));
        inner.running = None;
        let tcb = &mut inner.tcbs[tid.0 as usize];
        let ended = tcb.run_since.take().map(|since| (tcb.actor, since));
        self.dispatch_next(inner, now, ended);
    }

    /// Puts an unblocked thread on the CPU if it is idle, else queues it.
    fn make_runnable_or_dispatch(&self, inner: &mut Inner, tid: MtsTid, sim: &Sim) {
        {
            let tcb = &mut inner.tcbs[tid.0 as usize];
            tcb.state = MtsThreadState::Runnable;
            tcb.runnable_since = Some(sim.now());
            tcb.wait_on = None;
        }
        inner.push_runnable(tid.0);
        if inner.started && inner.running.is_none() {
            self.dispatch_next(inner, sim.now(), None);
        }
    }

    /// Picks the next thread (highest priority, round robin) and hands it
    /// the CPU. `inner.running` must be `None`. `ended` is the run slice
    /// `(actor, since)` that just closed at `now`, if this dispatch follows
    /// one (see [`Mts::switch_away`]).
    fn dispatch_next(&self, inner: &mut Inner, now: SimTime, ended: Option<(ActorId, SimTime)>) {
        debug_assert!(inner.running.is_none());
        let cs_cost = inner.cs_cost;
        let run_at = now + cs_cost;
        let next = inner.pop_runnable_via(&self.sim).map(|slot| {
            let tcb = &mut inner.tcbs[slot as usize];
            tcb.state = MtsThreadState::Running;
            tcb.run_at = run_at;
            tcb.run_since = Some(run_at);
            tcb.dispatches += 1;
            (slot, tcb.actor, tcb.runnable_since.take())
        });
        self.sim.with_metrics(|m| {
            if let Some((_, since)) = ended {
                m.observe("mts.run_slice", now.saturating_since(since));
            }
            if let Some((_, _, queued_since)) = next {
                m.inc("mts.dispatches", 1);
                if let Some(since) = queued_since {
                    m.observe("mts.runnable_wait", now.saturating_since(since));
                }
            }
        });
        self.sim.with_spans(|tr| {
            if let (Some((actor, since)), true) = (ended, tr.detail_enabled()) {
                tr.span_on(actor, SpanKind::Compute, "run", since, now);
            }
            if let Some((_, actor, queued_since)) = next {
                if let (Some(since), true) = (queued_since, tr.detail_enabled()) {
                    tr.span_on(actor, SpanKind::Runnable, "runnable", since, now);
                }
                if !cs_cost.is_zero() {
                    tr.span_on(actor, SpanKind::Overhead, "ctx-switch", now, run_at);
                }
            }
        });
        match next {
            Some((slot, ..)) => {
                if let Some(since) = inner.idle_since.take() {
                    inner.total_idle += now.saturating_since(since);
                }
                inner.switches += 1;
                inner.running = Some(MtsTid(slot));
                // The `Resume` lands at `run_at`: a parked thread wakes with
                // its switch already paid. One still `Scheduled` (spawned,
                // not yet run) is not moved and pays through `charge_switch`.
                if let Some(green) = inner.tcbs[slot as usize].green {
                    self.sim.wake_at(green, run_at);
                }
            }
            None => {
                if inner.idle_since.is_none() {
                    inner.idle_since = Some(now);
                    // The process just went idle: every thread is blocked or
                    // gone, the moment a wait-for cycle becomes a deadlock.
                    if inner.analysis.active() {
                        Self::deadlock_scan(inner);
                    }
                }
            }
        }
        self.queue_check(inner, "dispatch");
    }

    /// Reports each not-yet-seen wait-for cycle among blocked threads.
    fn deadlock_scan(inner: &mut Inner) {
        for cycle in Self::wait_cycles(inner) {
            if inner.reported_cycles.contains(&cycle) {
                continue;
            }
            let edges: Vec<String> = cycle
                .iter()
                .map(|&t| {
                    let tcb = &inner.tcbs[t as usize];
                    let target = match tcb.wait_on {
                        Some(w) => format!("t{}/{}", w.0, inner.tcbs[w.0 as usize].name),
                        None => "?".to_string(),
                    };
                    format!("t{t}/{} -> {target}", tcb.name)
                })
                .collect();
            inner.analysis.report(
                "deadlock",
                inner.proc_name.clone(),
                format!("cyclic wait among blocked threads: {}", edges.join(", ")),
            );
            inner.reported_cycles.push(cycle);
        }
    }

    /// Wait-for cycles among currently blocked threads, as sorted slot
    /// groups (deterministic order).
    fn wait_cycles(inner: &Inner) -> Vec<Vec<u32>> {
        let mut g = WaitGraph::new(inner.tcbs.len());
        for (i, tcb) in inner.tcbs.iter().enumerate() {
            if tcb.state != MtsThreadState::Blocked {
                continue;
            }
            if let Some(w) = tcb.wait_on {
                if inner.tcbs[w.0 as usize].state == MtsThreadState::Blocked {
                    g.add_edge(i, w.0 as usize);
                }
            }
        }
        g.cycles()
            .into_iter()
            .map(|c| c.into_iter().map(|x| x as u32).collect())
            .collect()
    }

    /// Runs the promoted dlist invariants over every scheduler queue when
    /// the analysis pass is active.
    fn queue_check(&self, inner: &Inner, op: &'static str) {
        if !inner.analysis.active() {
            return;
        }
        for problem in Self::validate_inner(inner) {
            inner.analysis.report(
                "queue-invariant",
                inner.proc_name.clone(),
                format!("after {op}: {problem}"),
            );
        }
    }

    fn validate_inner(inner: &Inner) -> Vec<String> {
        let mut problems = Vec::new();
        let mut membership = vec![0u32; inner.arena.slots()];
        let mut lists: Vec<(String, &ListHead)> = inner
            .runnable
            .iter()
            .enumerate()
            .map(|(p, l)| (format!("runnable[{p}]"), l))
            .collect();
        lists.push(("blocked".to_string(), &inner.blocked));
        for (label, list) in lists {
            match list.validate(&inner.arena) {
                Ok(walk) => {
                    for s in walk {
                        membership[s as usize] += 1;
                    }
                }
                Err(e) => problems.push(format!("{label}: {e}")),
            }
        }
        for (i, &count) in membership.iter().enumerate() {
            if count > 1 {
                problems.push(format!("t{i} is on {count} lists at once"));
            }
            if let Some(tcb) = inner.tcbs.get(i) {
                let queued =
                    [MtsThreadState::Runnable, MtsThreadState::Blocked].contains(&tcb.state);
                if queued != (count == 1) && count <= 1 {
                    problems.push(format!(
                        "t{i}/{} is {:?} but on {count} scheduler lists",
                        tcb.name, tcb.state
                    ));
                }
            }
        }
        problems
    }

    fn thread_exited(&self, ctx: &Ctx, tid: MtsTid) {
        let joiners;
        {
            let mut inner = self.inner.lock();
            inner.tcbs[tid.0 as usize].state = MtsThreadState::Exited;
            joiners = std::mem::take(&mut inner.tcbs[tid.0 as usize].exit_waiters);
            inner.live -= 1;
            self.switch_away(&mut inner, tid, ctx.now());
            if inner.live == 0 {
                for w in inner.all_done_waiters.drain(..) {
                    self.sim.wake(w);
                }
            }
        }
        for j in joiners {
            self.unblock(ctx.sim(), j);
        }
    }

    /// Whether thread `tid` has exited.
    #[cfg(test)]
    pub fn has_exited(&self, tid: MtsTid) -> bool {
        self.inner.lock().tcbs[tid.0 as usize].state == MtsThreadState::Exited
    }

    /// Snapshot of every thread's scheduling state and wait edge — what a
    /// post-run analysis pass uses to classify stuck threads.
    pub fn thread_report(&self) -> Vec<MtsThreadReport> {
        let inner = self.inner.lock();
        inner
            .tcbs
            .iter()
            .enumerate()
            .map(|(i, tcb)| MtsThreadReport {
                tid: MtsTid(i as u32),
                name: tcb.name.clone(),
                state: tcb.state,
                wait_on: tcb.wait_on,
                blocked_since: tcb.blocked_since,
            })
            .collect()
    }

    /// Wait-for cycles among the currently blocked threads. Each cycle is
    /// sorted by thread id; an empty result means no deadlock is provable
    /// from the recorded wait edges.
    pub fn deadlock_cycles(&self) -> Vec<Vec<MtsTid>> {
        let inner = self.inner.lock();
        Self::wait_cycles(&inner)
            .into_iter()
            .map(|c| c.into_iter().map(MtsTid).collect())
            .collect()
    }

    /// Runs the promoted dlist queue invariants over every scheduler list
    /// right now, returning a description of each corruption found (empty
    /// when all queues are sound).
    // ncs-lint: allow(dead-surface) queue-invariant oracle analysis/tests/runtime_detection.rs checks
    pub fn validate_queues(&self) -> Vec<String> {
        Self::validate_inner(&self.inner.lock())
    }
}

/// Scheduling state of an MTS thread (as in a [`MtsThreadReport`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MtsThreadState {
    /// In a runnable queue (including not-yet-first-run threads).
    Runnable,
    /// Owns the process CPU.
    Running,
    /// In the blocked queue.
    Blocked,
    /// Parked in a kernel-level wait ([`MtsCtx::external_block`]).
    External,
    /// Finished.
    Exited,
}

/// One thread's scheduling snapshot (see [`Mts::thread_report`]).
#[derive(Clone, Debug)]
pub struct MtsThreadReport {
    /// Thread id within the process.
    pub tid: MtsTid,
    /// Thread name.
    pub name: String,
    /// Scheduling state at snapshot time.
    pub state: MtsThreadState,
    /// Recorded wait-for edge, if the thread named what it waits on.
    pub wait_on: Option<MtsTid>,
    /// When the thread last blocked, if currently blocked.
    pub blocked_since: Option<SimTime>,
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
            debug_assert_eq!(inner.running, Some(self.tid));
            // Fast path: nothing that could win the CPU — skip the switch
            // entirely. This includes the case where only strictly-lower
            // priority threads are runnable: round robin never hands the
            // CPU down a level while the yielder is still runnable.
            let my_prio = inner.tcbs[self.tid.0 as usize].priority;
            if !inner.any_runnable_at_or_above(my_prio) {
                return;
            }
            let now = self.ctx.now();
            {
                let tcb = &mut inner.tcbs[self.tid.0 as usize];
                tcb.state = MtsThreadState::Runnable;
                tcb.runnable_since = Some(now);
            }
            inner.push_runnable(self.tid.0);
            self.mts.switch_away(&mut inner, self.tid, now);
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
            debug_assert_eq!(inner.running, Some(self.tid));
            if std::mem::take(&mut inner.tcbs[self.tid.0 as usize].permit) {
                return;
            }
            let now = self.ctx.now();
            {
                let tcb = &mut inner.tcbs[self.tid.0 as usize];
                tcb.state = MtsThreadState::Blocked;
                tcb.blocked_since = Some(now);
                tcb.sleep_gen += 1;
                tcb.wait_on = wait_on;
            }
            inner.push_blocked(self.tid.0);
            self.mts.switch_away(&mut inner, self.tid, now);
        }
        self.wait_for_dispatch();
    }

    /// Blocks for `d` of virtual time, letting sibling threads run — the
    /// thread-level (as opposed to process-level) sleep.
    pub fn sleep(&self, d: Dur) {
        if d.is_zero() {
            self.yield_now();
            return;
        }
        let gen;
        {
            let mut inner = self.mts.inner.lock();
            debug_assert_eq!(inner.running, Some(self.tid));
            let now = self.ctx.now();
            {
                let tcb = &mut inner.tcbs[self.tid.0 as usize];
                tcb.state = MtsThreadState::Blocked;
                tcb.blocked_since = Some(now);
                tcb.sleep_gen += 1;
                gen = tcb.sleep_gen;
            }
            inner.push_blocked(self.tid.0);
            self.mts.switch_away(&mut inner, self.tid, now);
        }
        let mts = self.mts.clone();
        let tid = self.tid;
        self.ctx.sim().schedule_in(d, move |sim| {
            let fire = {
                let inner = mts.inner.lock();
                let tcb = &inner.tcbs[tid.0 as usize];
                tcb.state == MtsThreadState::Blocked && tcb.sleep_gen == gen
            };
            if fire {
                mts.unblock(sim, tid);
            }
        });
        self.wait_for_dispatch();
    }

    /// Unblocks a sibling thread (`NCS_unblock`).
    pub fn unblock(&self, tid: MtsTid) {
        self.mts.unblock(self.ctx.sim(), tid);
    }

    /// Blocks until sibling thread `tid` exits.
    pub fn join(&self, tid: MtsTid) {
        assert_ne!(tid, self.tid, "a thread cannot join itself");
        loop {
            {
                let mut inner = self.mts.inner.lock();
                if inner.tcbs[tid.0 as usize].state == MtsThreadState::Exited {
                    return;
                }
                inner.tcbs[tid.0 as usize].exit_waiters.push(self.tid);
            }
            self.block_on(tid);
        }
    }

    /// Releases the CPU, performs a kernel-level blocking operation `f`
    /// (e.g. waiting on a network inbox), then re-acquires the CPU.
    ///
    /// This is how NCS's receive system thread waits for the wire without
    /// stalling sibling compute threads. While inside `f`, sibling threads
    /// are scheduled normally.
    pub fn external_block<R>(&self, f: impl FnOnce() -> R) -> R {
        let t_ext = self.ctx.now();
        {
            let mut inner = self.mts.inner.lock();
            debug_assert_eq!(inner.running, Some(self.tid));
            inner.tcbs[self.tid.0 as usize].state = MtsThreadState::External;
            self.mts.switch_away(&mut inner, self.tid, t_ext);
        }
        let r = f();
        // Re-acquire the CPU, in one visit to the scheduler state.
        let now = self.ctx.now();
        let direct_run_at = {
            let mut inner = self.mts.inner.lock();
            let ext_actor = inner.tcbs[self.tid.0 as usize].actor;
            self.ctx.sim().with_spans(|tr| {
                if tr.detail_enabled() {
                    tr.span_on(ext_actor, SpanKind::Idle, "kernel-wait", t_ext, now);
                }
            });
            if inner.running.is_none() {
                if let Some(since) = inner.idle_since.take() {
                    inner.total_idle += now.saturating_since(since);
                }
                inner.switches += 1;
                let run_at = now + inner.cs_cost;
                {
                    let tcb = &mut inner.tcbs[self.tid.0 as usize];
                    tcb.state = MtsThreadState::Running;
                    tcb.run_at = run_at;
                    tcb.run_since = Some(run_at);
                    tcb.dispatches += 1;
                }
                inner.running = Some(self.tid);
                self.ctx.sim().with_metrics(|m| m.inc("mts.dispatches", 1));
                Some(run_at)
            } else {
                // CPU busy: queue like any runnable thread and wait.
                {
                    let tcb = &mut inner.tcbs[self.tid.0 as usize];
                    tcb.state = MtsThreadState::Runnable;
                    tcb.runnable_since = Some(now);
                }
                inner.push_runnable(self.tid.0);
                None
            }
        };
        match direct_run_at {
            // Charge the context switch for the direct re-acquisition.
            Some(run_at) => self.charge_switch(run_at),
            None => self.wait_for_dispatch(),
        }
        r
    }

    /// Waits until this thread has been dispatched, then charges whatever
    /// of the context-switch cost the wake-up instant did not already cover
    /// (see [`Mts::dispatch_next`]).
    fn wait_for_dispatch(&self) {
        let run_at = loop {
            {
                let inner = self.mts.inner.lock();
                let tcb = &inner.tcbs[self.tid.0 as usize];
                if tcb.state == MtsThreadState::Running {
                    break tcb.run_at;
                }
            }
            self.ctx.park();
        };
        self.charge_switch(run_at);
    }

    /// Holds the CPU until `run_at`, the end of the modelled context switch.
    fn charge_switch(&self, run_at: SimTime) {
        let wait = run_at.saturating_since(self.ctx.now());
        if !wait.is_zero() {
            self.ctx.sleep(wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn zero_cs() -> MtsConfig {
        MtsConfig {
            context_switch: Dur::ZERO,
            ..MtsConfig::default()
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
                    ..MtsConfig::default()
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
        // first instruction runs with the switch already paid.
        const TRIPS: u64 = 50;
        let cs = MtsConfig::default().context_switch;
        assert_eq!(cs, Dur::from_micros(15));
        let sim = Sim::new();
        let woke_at = Arc::new(Mutex::new(Vec::new()));
        let switches = Arc::new(Mutex::new(0));
        let (w1, w2) = (Arc::clone(&woke_at), Arc::clone(&woke_at));
        let sw = Arc::clone(&switches);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", MtsConfig::default());
            let ping = MtsTid(1);
            // First in its level, so `start` dispatches it while its green
            // thread is still `Scheduled` (spawned, never yet run): the one
            // dispatch whose switch cost is paid by `charge_switch` rather
            // than by the instant of the `Resume`.
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
            *sw.lock() = mts.stats().switches;
        });
        let out = sim.run();
        out.assert_clean();
        let dispatches = *switches.lock();
        // Nothing but switches takes time here, so the k-th dispatch hands
        // over the CPU at exactly k switch costs — the backstop one included.
        let woke_at = woke_at.lock();
        assert_eq!(woke_at.len() as u64, dispatches);
        for (k, &t) in woke_at.iter().enumerate() {
            assert_eq!(t, SimTime::ZERO + cs.times(k as u64 + 1), "dispatch {k}");
        }
        // main: first run + all-done wake; each thread: its spawn resume;
        // `pong`: the backstop sleep. Every other dispatch: one resume.
        assert_eq!(dispatches, 2 * TRIPS + 2);
        assert_eq!(out.resumes, 2 + 2 + 1 + (dispatches - 1));
        assert_eq!(out.events, out.resumes, "no callbacks in this run");
    }

    #[test]
    fn external_block_frees_cpu_for_siblings() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let ch: ncs_sim::SimChannel<u8> = ncs_sim::SimChannel::unbounded();
            let ch2 = ch.clone();
            mts.spawn("receiver", 0, move |m| {
                l1.lock().push("r-wait");
                let v = m.external_block(|| ch2.recv(m.ctx()).unwrap());
                l1.lock().push("r-got");
                assert_eq!(v, 42);
            });
            mts.spawn("computer", 1, move |m| {
                l2.lock().push("c-run");
                m.ctx().sleep(Dur::from_millis(2));
                l2.lock().push("c-done");
            });
            let tx = ch.clone();
            ctx.sim().schedule_in(Dur::from_millis(1), move |sim| {
                tx.offer(sim, 42).unwrap();
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        // Receiver waits without holding the CPU; computer runs meanwhile.
        // The message arrives at 1 ms, but the CPU is busy until 2 ms, so
        // the receiver re-acquires only after the computer finishes... it
        // actually queues as runnable and runs after c-done.
        assert_eq!(*log.lock(), vec!["r-wait", "c-run", "c-done", "r-got"]);
    }

    #[test]
    fn external_block_reacquires_idle_cpu_immediately() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let ch: ncs_sim::SimChannel<u8> = ncs_sim::SimChannel::unbounded();
            let ch2 = ch.clone();
            mts.spawn("receiver", 0, move |m| {
                m.external_block(|| ch2.recv(m.ctx()).unwrap());
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(3));
            });
            let tx = ch.clone();
            ctx.sim().schedule_in(Dur::from_millis(3), move |sim| {
                tx.offer(sim, 1).unwrap();
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn stats_count_switches_and_idle() {
        let sim = Sim::new();
        let stats = Arc::new(Mutex::new(MtsStats::default()));
        let s2 = Arc::clone(&stats);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            mts.spawn("a", 1, |m| m.sleep(Dur::from_millis(4)));
            mts.start(ctx);
            *s2.lock() = mts.stats();
        });
        sim.run().assert_clean();
        let st = *stats.lock();
        assert!(st.switches >= 2, "switches {}", st.switches);
        // While 'a' slept there was nothing to run.
        assert_eq!(st.total_idle, Dur::from_millis(4));
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
    fn blocked_time_accounted() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(ctx.sim(), "p0", zero_cs());
            let mts2 = mts.clone();
            let t = mts.spawn("b", 1, |m| m.block());
            mts.spawn("w", 1, move |m| {
                m.ctx().sleep(Dur::from_millis(7));
                m.unblock(t);
            });
            mts.start(ctx);
            assert_eq!(mts2.blocked_time(t), Dur::from_millis(7));
        });
        sim.run().assert_clean();
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
mod join_tests {
    use super::*;

    #[test]
    fn join_waits_for_exit() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
            let mts2 = mts.clone();
            let worker = mts.spawn("worker", 1, |m| {
                m.sleep(Dur::from_millis(7));
            });
            mts.spawn("joiner", 1, move |m| {
                m.join(worker);
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(7));
                assert!(mts2.has_exited(worker));
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }

    #[test]
    fn join_on_exited_returns_immediately() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
            let quick = mts.spawn("quick", 0, |_| {});
            mts.spawn("late-joiner", 2, move |m| {
                m.sleep(Dur::from_millis(1));
                let t0 = m.now();
                m.join(quick);
                assert_eq!(m.now(), t0);
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
    }
}

#[cfg(test)]
mod external_tests {
    use super::*;

    #[test]
    fn two_threads_external_block_concurrently() {
        // Both the send and receive system threads of a real NCS process
        // can be in kernel-level waits at once; the CPU must flow to
        // whoever's wait completes first, then the other.
        let sim = Sim::new();
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let o3 = Arc::clone(&order);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
            let ch_a: ncs_sim::SimChannel<u8> = ncs_sim::SimChannel::unbounded();
            let ch_b: ncs_sim::SimChannel<u8> = ncs_sim::SimChannel::unbounded();
            let (ca, cb) = (ch_a.clone(), ch_b.clone());
            mts.spawn("waiter-a", 1, move |m| {
                m.external_block(|| ca.recv(m.ctx()).unwrap());
                o1.lock().push("a-woke");
            });
            mts.spawn("waiter-b", 1, move |m| {
                m.external_block(|| cb.recv(m.ctx()).unwrap());
                o2.lock().push("b-woke");
            });
            mts.spawn("worker", 2, move |m| {
                o3.lock().push("worker-ran");
                m.ctx().sleep(Dur::from_millis(1));
            });
            let (ta, tb) = (ch_a.clone(), ch_b.clone());
            ctx.sim().schedule_in(Dur::from_millis(5), move |sim| {
                tb.offer(sim, 1).unwrap(); // b's wait completes first
            });
            ctx.sim().schedule_in(Dur::from_millis(9), move |sim| {
                ta.offer(sim, 2).unwrap();
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*order.lock(), vec!["worker-ran", "b-woke", "a-woke"]);
    }

    #[test]
    fn external_wake_queues_behind_higher_priority_runnable() {
        // A thread returning from a kernel wait does not preempt: it queues
        // and runs when the scheduler reaches it.
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
            let ch: ncs_sim::SimChannel<u8> = ncs_sim::SimChannel::unbounded();
            let cr = ch.clone();
            mts.spawn("ext", 3, move |m| {
                m.external_block(|| cr.recv(m.ctx()).unwrap());
                l1.lock().push("ext-resumed");
            });
            mts.spawn("long-compute", 1, move |m| {
                // Runs 10 ms solid; the external wake at 2 ms must wait.
                m.ctx().sleep(Dur::from_millis(10));
                l2.lock().push("compute-done");
            });
            let tx = ch.clone();
            ctx.sim().schedule_in(Dur::from_millis(2), move |sim| {
                tx.offer(sim, 1).unwrap();
            });
            mts.start(ctx);
        });
        sim.run().assert_clean();
        assert_eq!(*log.lock(), vec!["compute-done", "ext-resumed"]);
    }
}

#[cfg(test)]
mod sleep_tests {
    use super::*;

    #[test]
    fn sleep_can_be_cut_short_by_unblock() {
        let sim = Sim::new();
        sim.spawn("main", move |ctx| {
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
            let sleeper = mts.spawn("sleeper", 1, |m| {
                m.sleep(Dur::from_secs(10)); // nominally very long
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(3), "woken early");
                // The stale timer at t=10s must not disturb later blocks.
                m.sleep(Dur::from_millis(2));
                assert_eq!(m.now(), SimTime::ZERO + Dur::from_millis(5));
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
            let mts = Mts::new(
                ctx.sim(),
                "p0",
                MtsConfig {
                    context_switch: Dur::ZERO,
                    ..MtsConfig::default()
                },
            );
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
