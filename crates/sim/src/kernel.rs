//! The discrete-event simulation kernel and its cooperative green threads.
//!
//! # Execution model
//!
//! A [`Sim`] owns a virtual clock and an event queue. Simulated activities
//! come in two forms:
//!
//! * **callbacks** — `FnOnce(&Sim)` closures scheduled at an instant, used by
//!   the network models to deliver cells, free links, fire timers;
//! * **green threads** — ordinary Rust closures suspended and resumed under
//!   a *strict baton protocol*: at any moment either the kernel loop or
//!   exactly one green thread is runnable. A green thread only advances
//!   virtual time by calling [`Ctx::sleep`], and only relinquishes control
//!   through [`Ctx`] methods. This gives sequential, deterministic semantics
//!   while letting application code be written in a natural blocking style —
//!   exactly how the paper's NCS_MTS threads behave. The *mechanism* behind
//!   suspend/resume is pluggable (see [`crate::engine`]): in-process
//!   stackful coroutines by default, with the original one-OS-thread-per-
//!   green-thread engine as a fallback for differential testing. The
//!   executed event sequence is identical under either engine.
//!
//! Events are ordered by `(time, sequence-number)`; sequence numbers are
//! assigned in program order, so a simulation is a pure function of its
//! inputs. [`Sim::trace_hash`] exposes a digest of the executed event
//! sequence that tests use to assert bit-identical replay.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

use crate::analysis::{fnv1a_fold, AnalysisConfig, FNV_OFFSET};
use crate::engine::coro::Coroutine;
use crate::engine::os_thread::{Baton, BatonMsg, KernelGate, OsThread};
use crate::engine::{EngineKind, GreenThread, ResumeHandle};
use crate::metrics::MetricsRegistry;
use crate::sched::{ChoicePoint, SchedulePolicy};
use crate::time::{Dur, SimTime};
use crate::trace::Tracer;
use crate::wheel::{TimerWheel, Token};

/// Identifier of a green thread within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u32);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Why [`Sim::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The event queue drained: nothing can ever happen again.
    Completed,
    /// The configured virtual-time horizon was reached.
    TimeLimit,
    /// The configured event-count guard tripped (runaway simulation). The
    /// queue is left untouched past the cap — calling a `run_*` method again
    /// resumes exactly where this run stopped, even mid-timestamp.
    EventLimit,
}

/// Summary of one simulation run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// How many of them resumed a green thread; `events - resumes` ran a
    /// callback (or found their thread gone).
    pub resumes: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Names of green threads still blocked when the run stopped. A clean
    /// experiment finishes with this empty; a non-empty list usually means a
    /// communication deadlock in the modeled protocol.
    pub blocked: Vec<String>,
    /// Panic messages captured from green threads.
    pub panics: Vec<String>,
}

impl RunOutcome {
    /// Asserts that the run drained completely, with no blocked threads and
    /// no panics. Used pervasively by tests.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(
            self.panics.is_empty(),
            "green thread panics: {:?}",
            self.panics
        );
        assert_eq!(self.reason, StopReason::Completed, "run did not complete");
        assert!(
            self.blocked.is_empty(),
            "threads still blocked at end of run: {:?}",
            self.blocked
        );
    }
}

/// Scheduling state of a green thread slot.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum ThreadState {
    /// Waiting for its baton with a Resume event already queued.
    Scheduled,
    /// Waiting for its baton with no queued resume; must be woken.
    Parked,
    /// Currently holds the baton.
    Running,
    /// Finished (normally, by cancellation, or by panic).
    Exited,
}

struct ThreadSlot {
    name: String,
    state: ThreadState,
    /// The suspend/resume mechanism backing this thread (see
    /// [`crate::engine`]): a stackful coroutine or a parked OS thread.
    green: GreenThread,
    /// Green threads waiting in [`Ctx::join`] for this one to exit.
    exit_waiters: Vec<ThreadId>,
    /// Daemon threads (NIC models, switch ports) are expected to be parked
    /// forever; they are excluded from the blocked-thread report.
    daemon: bool,
}

enum EventKind {
    Resume(ThreadId),
    Call(Box<dyn FnOnce(&Sim) + Send>),
}

/// Handle to a cancellable scheduled event, returned by
/// [`Sim::schedule_cancellable`] and consumed by [`Sim::cancel_scheduled`].
/// Copyable; using it after the event fired (or was already cancelled) is a
/// harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle(Token);

/// The kernel's scheduling state: the event queue, the thread table and the
/// tie-break counter. They live behind ONE mutex because every kernel
/// operation touches at least two of them — the run loop pops an event and
/// claims the thread slot it resumes, a wake marks a slot and queues its
/// `Resume`, a push takes a sequence number and inserts — and the system is
/// single-runnable by construction, so the lock is never contended: it costs
/// what it costs per acquisition, and each operation should pay that once.
struct Core {
    queue: TimerWheel<EventKind>,
    threads: Vec<ThreadSlot>,
    /// Next program-order sequence number: the `(time, seq)` tie-break that
    /// makes every run a pure function of its inputs (and the golden trace
    /// byte-stable).
    seq: u64,
}

impl Core {
    fn push(&mut self, at_ps: u64, kind: EventKind) -> Token {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at_ps, seq, kind)
    }

    /// Parked → Scheduled, with the `Resume` queued at `at_ps`; see
    /// [`Sim::wake`] for the return value.
    fn wake(&mut self, tid: ThreadId, at_ps: u64) -> bool {
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

struct Inner {
    engine: EngineKind,
    /// Usable bytes per green-thread stack (page-aligned; both engines).
    stack_bytes: usize,
    /// The clock and the trace digest are written only by the kernel loop
    /// and read by it, by the callbacks it calls and by the green threads it
    /// resumes. Every such hand-off already orders memory: a coroutine
    /// resume or yield is a function call on one OS thread, the OS-thread
    /// engine passes control through the `Baton` / `KernelGate` mutexes
    /// (release on grant, acquire on wake-up), and the workers of a sharded
    /// run meet at the window barrier before anything reads another shard.
    /// So both are `Relaxed`: they need atomicity, not a fence per event.
    now_ps: AtomicU64,
    core: Mutex<Core>,
    gate: KernelGate,
    tracer: Mutex<Tracer>,
    /// Mirrors `tracer.is_enabled()` (refreshed by every [`Sim::with_tracer`]
    /// call, the only way to reach the tracer) so span-recording sites can
    /// skip the tracer lock while spans are off. `Relaxed`: the flag
    /// publishes nothing — a site that reads `true` takes the lock next.
    spans_enabled: AtomicBool,
    metrics: Mutex<MetricsRegistry>,
    panics: Mutex<Vec<String>>,
    running: AtomicBool,
    finished: AtomicBool,
    trace_hash: AtomicU64,
    analysis: Mutex<AnalysisConfig>,
    /// Optional schedule-exploration policy (see [`crate::sched`]). The
    /// flag mirrors `policy.is_some()` so the hot path can skip the lock.
    policy: Mutex<Option<Box<dyn SchedulePolicy>>>,
    policy_installed: AtomicBool,
}

/// Handle to a simulation. Cheap to clone; all clones refer to the same
/// virtual world.
///
/// Handles obtained from [`Sim::new`] / [`Sim::with_engine`] (and clones of
/// them) additionally act as the simulation's *lifetime guard*: when the
/// last such handle drops, [`Sim::finish`] runs automatically, cancelling
/// and reaping every green thread of either engine. This holds on panic
/// paths too, so an abandoned or failing run cannot strand parked OS
/// threads or mapped coroutine stacks. The internal handles green threads
/// themselves hold (via [`Ctx`]) are *not* guards — they would otherwise
/// keep the simulation alive circularly.
pub struct Sim {
    inner: Arc<Inner>,
    guard: Option<Arc<SimGuard>>,
}

impl Clone for Sim {
    fn clone(&self) -> Sim {
        Sim {
            inner: Arc::clone(&self.inner),
            guard: self.guard.clone(),
        }
    }
}

/// Reaps a simulation's green threads when the last guarded [`Sim`] handle
/// drops (including mid-panic unwinds — cancellation payloads are caught
/// inside each green thread, so finishing during an unwind is safe).
struct SimGuard {
    inner: std::sync::Weak<Inner>,
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            Sim { inner, guard: None }.finish();
        }
    }
}

/// Unwind payload used to cancel a green thread at shutdown.
struct CancelToken;

/// The text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn install_quiet_cancel_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelToken>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new()
    }
}

impl Sim {
    /// Creates an empty simulation at virtual time zero, on the process
    /// default green-thread engine (see [`crate::engine::default_engine`]).
    pub fn new() -> Sim {
        Sim::with_engine(crate::engine::default_engine())
    }

    /// Creates an empty simulation backed by a specific green-thread
    /// engine. Semantics are identical across engines (same event order,
    /// same trace hash); only dispatch cost differs. The green-thread
    /// stack size comes from [`crate::engine::default_stack_bytes`]
    /// (`NCS_GREEN_STACK_KIB` or the 2 MiB default).
    pub fn with_engine(engine: EngineKind) -> Sim {
        Sim::with_engine_and_stack(engine, crate::engine::default_stack_bytes())
    }

    /// [`Sim::with_engine`] with an explicit per-green-thread stack size in
    /// bytes (normalized via [`crate::engine::normalize_stack_bytes`]).
    /// Large thread populations (the 100k-host sharded runs) shrink their
    /// address-space reservation this way; the guard-page + canary layout
    /// is preserved at every size.
    pub fn with_engine_and_stack(engine: EngineKind, stack_bytes: usize) -> Sim {
        install_quiet_cancel_hook();
        let inner = Arc::new(Inner {
            engine,
            stack_bytes: crate::engine::normalize_stack_bytes(stack_bytes),
            now_ps: AtomicU64::new(0),
            core: Mutex::new(Core {
                queue: TimerWheel::new(),
                threads: Vec::new(),
                seq: 0,
            }),
            gate: KernelGate::new(),
            tracer: Mutex::new(Tracer::new()),
            spans_enabled: AtomicBool::new(false),
            metrics: Mutex::new(MetricsRegistry::new()),
            panics: Mutex::new(Vec::new()),
            running: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            trace_hash: AtomicU64::new(FNV_OFFSET),
            analysis: Mutex::new(AnalysisConfig::default()),
            policy: Mutex::new(None),
            policy_installed: AtomicBool::new(false),
        });
        let guard = Arc::new(SimGuard {
            inner: Arc::downgrade(&inner),
        });
        Sim {
            inner,
            guard: Some(guard),
        }
    }

    /// A handle without the lifetime guard, for clones the simulation
    /// itself retains (green-thread contexts, queued closures): those must
    /// not keep the guard alive or the drop-reap would never fire.
    fn unguarded_clone(&self) -> Sim {
        Sim {
            inner: Arc::clone(&self.inner),
            guard: None,
        }
    }

    /// The green-thread engine backing this simulation.
    pub fn engine(&self) -> EngineKind {
        self.inner.engine
    }

    /// Usable bytes per green-thread stack (already normalized).
    pub fn green_stack_bytes(&self) -> usize {
        self.inner.stack_bytes
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ps(self.inner.now_ps.load(Ordering::Relaxed))
    }

    /// Digest of the event sequence executed so far. Two runs of the same
    /// program with the same seed produce the same hash.
    pub fn trace_hash(&self) -> u64 {
        self.inner.trace_hash.load(Ordering::Relaxed)
    }

    /// Installs the runtime-analysis configuration for this simulation.
    ///
    /// With an active config, a run that drains its event queue while green
    /// threads are still parked reports each of them as a `lost-wakeup`
    /// violation: nothing left in the queue can ever unblock them.
    pub fn set_analysis(&self, cfg: AnalysisConfig) {
        *self.inner.analysis.lock() = cfg;
    }

    /// Installs a schedule-exploration policy, consulted at every legal
    /// scheduling choice point with two or more alternatives (see
    /// [`crate::sched`]). Install it before spawning activities so even
    /// the time-zero resume order is explorable. With no policy installed
    /// the kernel takes the canonical choice on the pre-existing code
    /// path — the golden trace stays byte-identical.
    pub fn set_schedule_policy(&self, policy: Box<dyn SchedulePolicy>) {
        *self.inner.policy.lock() = Some(policy);
        self.inner.policy_installed.store(true, Ordering::SeqCst);
    }

    /// Removes any installed schedule policy, restoring canonical order.
    pub fn clear_schedule_policy(&self) {
        self.inner.policy_installed.store(false, Ordering::SeqCst);
        *self.inner.policy.lock() = None;
    }

    /// True when a schedule-exploration policy is installed.
    pub fn has_schedule_policy(&self) -> bool {
        self.inner.policy_installed.load(Ordering::Relaxed)
    }

    /// Resolves one scheduling choice among `arity` legal alternatives:
    /// index 0 (the canonical choice) when no policy is installed or the
    /// choice is unary, otherwise whatever the installed policy picks.
    /// Layers above the kernel (the MTS scheduler, fault injection) route
    /// their own choice points through this so one policy sees the whole
    /// decision sequence.
    pub fn schedule_choice(&self, point: ChoicePoint, arity: usize) -> usize {
        if arity < 2 || !self.inner.policy_installed.load(Ordering::Relaxed) {
            return 0;
        }
        match self.inner.policy.lock().as_mut() {
            Some(p) => p.choose(point, arity).min(arity - 1),
            None => 0,
        }
    }

    /// Number of events still waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.inner.core.lock().queue.len()
    }

    /// High-water mark of the event queue's depth over the simulation's
    /// lifetime. Tracked inside the timer wheel at zero per-event cost; the
    /// scaling benches sample it as the `kernel.queue_depth` gauge.
    pub fn peak_queue_depth(&self) -> usize {
        self.inner.core.lock().queue.peak_len()
    }

    /// Instantaneous queue depth *including the event currently being
    /// dispatched*, if any. This is the quantity comparable to
    /// [`Sim::peak_queue_depth`]: the wheel's high-water mark counts an
    /// event up to the moment it is popped, so a sampler running *inside*
    /// an event that reads only [`Sim::pending_events`] undercounts by
    /// exactly one (the historical 65-vs-64 off-by-one in `xp_scale`).
    /// Outside a run this equals `pending_events()`.
    pub fn queue_depth(&self) -> usize {
        self.pending_events() + usize::from(self.inner.running.load(Ordering::SeqCst))
    }

    /// Access to the span/event tracer (used by the timeline figures).
    pub fn with_tracer<R>(&self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let mut tracer = self.inner.tracer.lock();
        let r = f(&mut tracer);
        self.inner
            .spans_enabled
            .store(tracer.is_enabled(), Ordering::Relaxed);
        r
    }

    /// [`Sim::with_tracer`] for sites that only *record spans*: `f` runs
    /// only while span recording is enabled, and a disabled tracer costs one
    /// flag load instead of a lock round trip per site. Anything that must
    /// happen regardless (counters, interning) goes through `with_tracer`.
    pub fn with_spans(&self, f: impl FnOnce(&mut Tracer)) {
        if self.inner.spans_enabled.load(Ordering::Relaxed) {
            self.with_tracer(f);
        }
    }

    /// Access to the metrics registry (counters, gauges, latency stats,
    /// per-message causal timelines). Always on; see
    /// [`MetricsRegistry`](crate::MetricsRegistry).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.inner.metrics.lock())
    }

    fn push_event(&self, at: SimTime, kind: EventKind) -> Token {
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {at} < {}",
            self.now()
        );
        self.inner.core.lock().push(at.as_ps(), kind)
    }

    /// Schedules `f` to run at virtual instant `at`.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&Sim) + Send + 'static) {
        self.push_event(at, EventKind::Call(Box::new(f)));
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(&self, after: Dur, f: impl FnOnce(&Sim) + Send + 'static) {
        self.schedule_at(self.now() + after, f);
    }

    /// Schedules `f` at `at` with a caller-supplied tie-break key instead of
    /// the program-order sequence number. The wheel orders events by
    /// `(time, seq)`; a keyed event carries `seq = KEYED_SEQ_BIT | key`, so
    /// at any given instant all keyed events sort after every program-order
    /// event, and among themselves in `key` order — independent of the order
    /// in which they were pushed. This is the seam sharded runs use: a
    /// workload whose keys are a pure function of (message, round, host)
    /// executes in the same per-host order no matter how hosts are
    /// partitioned across shards. Keys must be unique per instant and below
    /// [`Sim::KEYED_SEQ_BIT`].
    pub fn schedule_keyed(&self, at: SimTime, key: u64, f: impl FnOnce(&Sim) + Send + 'static) {
        assert!(
            key < Self::KEYED_SEQ_BIT,
            "keyed seq {key:#x} collides with the keyed-event tag bit"
        );
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {at} < {}",
            self.now()
        );
        self.inner.core.lock().queue.push(
            at.as_ps(),
            Self::KEYED_SEQ_BIT | key,
            EventKind::Call(Box::new(f)),
        );
    }

    /// Tag bit distinguishing keyed tie-break sequence numbers
    /// ([`Sim::schedule_keyed`]) from program-order ones. Program-order
    /// sequence numbers count up from zero and can never reach this bit.
    pub const KEYED_SEQ_BIT: u64 = 1 << 63;

    /// Virtual time of the earliest pending event, if any. Sharded runs use
    /// this to skip idle windows: the coordinator advances the next window
    /// start to the minimum across shards instead of stepping empty windows.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner
            .core
            .lock()
            .queue
            .peek()
            .map(|(t, _)| SimTime::from_ps(t))
    }

    /// Schedules `f` like [`Sim::schedule_at`], but returns a handle that
    /// [`Sim::cancel_scheduled`] can use to retract the event before it
    /// fires. Used for protocol timers (retransmission, receive timeouts)
    /// that are usually satisfied long before they expire.
    pub fn schedule_cancellable(
        &self,
        at: SimTime,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> TimerHandle {
        TimerHandle(self.push_event(at, EventKind::Call(Box::new(f))))
    }

    /// Retracts an event scheduled with [`Sim::schedule_cancellable`].
    /// Returns `true` if the event was still pending (its closure is dropped
    /// without running); `false` if it already fired or was cancelled.
    pub fn cancel_scheduled(&self, handle: TimerHandle) -> bool {
        self.inner.core.lock().queue.cancel(handle.0).is_some()
    }

    /// Spawns a green thread. The closure receives a [`Ctx`] for interacting
    /// with virtual time. The thread first runs when the simulation reaches
    /// the current instant's pending events.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ThreadId {
        self.spawn_inner(name.into(), false, f)
    }

    /// Spawns an infrastructure ("daemon") green thread. Daemons typically
    /// loop forever serving a queue; a run that ends while they are parked is
    /// still considered clean, and [`Sim::finish`] cancels them.
    pub fn spawn_daemon(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ThreadId {
        self.spawn_inner(name.into(), true, f)
    }

    fn spawn_inner(
        &self,
        name: String,
        daemon: bool,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ThreadId {
        // One acquisition for the whole spawn: the id is the slot's index,
        // and the slot goes in together with its first `Resume`.
        let mut core = self.inner.core.lock();
        let tid = ThreadId(core.threads.len() as u32);
        // The engine-independent green-thread body. `started` is false when
        // the thread is cancelled before its first dispatch; the exit
        // bookkeeping still runs so joiners are woken either way. `own` is
        // the thread's handle on itself, kept in its `Ctx` for its yields.
        let sim = self.unguarded_clone();
        let run = move |started: bool, own: ResumeHandle| {
            if started {
                let ctx = Ctx {
                    sim: sim.clone(),
                    tid,
                    own,
                };
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                if let Err(payload) = result {
                    if payload.downcast_ref::<CancelToken>().is_none() {
                        let msg = panic_message(payload.as_ref());
                        sim.inner
                            .panics
                            .lock()
                            .push(format!("thread '{}': {msg}", sim.thread_name(tid)));
                    }
                }
            }
            sim.mark_exited(tid);
        };
        let green = match self.inner.engine {
            EngineKind::Coroutine => GreenThread::Coro(Coroutine::new(
                Box::new(move |started, token| run(started, ResumeHandle::Coro(token))),
                self.inner.stack_bytes,
            )),
            EngineKind::OsThread => {
                let baton = Baton::new();
                let thread_baton = Arc::clone(&baton);
                let gate_sim = self.unguarded_clone();
                GreenThread::Os(OsThread::spawn(&name, baton, self.inner.stack_bytes, move || {
                    let started = thread_baton.wait();
                    run(started, ResumeHandle::Os(thread_baton));
                    gate_sim.inner.gate.signal();
                }))
            }
        };
        core.threads.push(ThreadSlot {
            name,
            state: ThreadState::Scheduled,
            green,
            exit_waiters: Vec::new(),
            daemon,
        });
        core.push(self.now().as_ps(), EventKind::Resume(tid));
        tid
    }

    /// Name a thread was spawned with.
    pub fn thread_name(&self, tid: ThreadId) -> String {
        self.inner.core.lock().threads[tid.0 as usize].name.clone()
    }

    fn mark_exited(&self, tid: ThreadId) {
        let now_ps = self.now().as_ps();
        let mut core = self.inner.core.lock();
        let slot = &mut core.threads[tid.0 as usize];
        slot.state = ThreadState::Exited;
        for w in std::mem::take(&mut slot.exit_waiters) {
            core.wake(w, now_ps);
        }
    }

    /// Makes a parked green thread runnable again at the current instant.
    ///
    /// Returns `true` if the thread was parked and is now scheduled, `false`
    /// if it was already scheduled or has exited (both benign no-ops).
    /// Panics if called on the currently running thread.
    pub fn wake(&self, tid: ThreadId) -> bool {
        self.wake_at(tid, self.now())
    }

    /// [`Sim::wake`] with the thread's `Resume` queued at `at` (not before
    /// now) instead of at the current instant: the waker charges the thread
    /// a known cost — the MTS dispatcher its context switch — in the same
    /// event that wakes it.
    pub fn wake_at(&self, tid: ThreadId, at: SimTime) -> bool {
        debug_assert!(at >= self.now(), "waking into the past");
        self.inner.core.lock().wake(tid, at.as_ps())
    }

    /// Running → Scheduled with the `Resume` queued at `at`: the timed wake
    /// behind [`Ctx::sleep`].
    fn sleep_until(&self, tid: ThreadId, at: SimTime) {
        let mut core = self.inner.core.lock();
        let slot = &mut core.threads[tid.0 as usize];
        debug_assert_eq!(slot.state, ThreadState::Running);
        slot.state = ThreadState::Scheduled;
        core.push(at.as_ps(), EventKind::Resume(tid));
    }

    fn mix_hash(&self, a: u64, b: u64, c: u64) {
        // FNV-1a over the event tuple words.
        let h = self.inner.trace_hash.load(Ordering::Relaxed);
        let h = [a, b, c].into_iter().fold(h, fnv1a_fold);
        self.inner.trace_hash.store(h, Ordering::Relaxed);
    }

    /// Runs until the event queue drains (no horizon).
    pub fn run(&self) -> RunOutcome {
        self.run_bounded(None, u64::MAX)
    }

    /// Runs until the queue drains or virtual time would exceed `until`.
    pub fn run_until(&self, until: SimTime) -> RunOutcome {
        self.run_bounded(Some(until), u64::MAX)
    }

    /// Runs with both a time horizon and an event-count guard.
    pub fn run_bounded(&self, until: Option<SimTime>, max_events: u64) -> RunOutcome {
        assert!(
            !self.inner.running.swap(true, Ordering::SeqCst),
            "Sim::run re-entered"
        );
        let (mut events, mut resumes) = (0u64, 0u64);
        let reason = loop {
            // One acquisition per event: pop it and, when it is a `Resume`,
            // claim the thread slot it names.
            let (time, seq, kind, claimed) = {
                let mut core = self.inner.core.lock();
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
                .filter(|s| {
                    !s.daemon && matches!(s.state, ThreadState::Parked | ThreadState::Scheduled)
                })
                .map(|s| s.name.clone())
                .collect()
        };
        if reason == StopReason::Completed && !blocked.is_empty() {
            let analysis = self.inner.analysis.lock().clone();
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
    /// Finished coroutines are reaped on the spot (their 2 MiB stack is
    /// unmapped); OS threads are joined later, in [`Sim::finish`].
    fn drive(&self, tid: ThreadId, handle: ResumeHandle, cancel: bool) {
        match handle {
            ResumeHandle::Coro(tok) => {
                if tok.resume(cancel) {
                    self.inner.core.lock().threads[tid.0 as usize].green = GreenThread::Done;
                }
            }
            ResumeHandle::Os(baton) => {
                baton.grant(if cancel { BatonMsg::Cancel } else { BatonMsg::Go });
                self.inner.gate.wait();
            }
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
                let slot = core.threads.iter_mut().enumerate().find(|(_, s)| {
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
        let handles: Vec<_> = {
            let mut core = self.inner.core.lock();
            core.threads
                .iter_mut()
                .filter_map(|s| match &mut s.green {
                    GreenThread::Os(os) => os.take_join_handle(),
                    GreenThread::Coro(_) | GreenThread::Done => None,
                })
                .collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Per-thread context passed to green-thread closures.
///
/// All virtual-time interaction goes through this handle. A green thread
/// must never block on OS primitives directly; doing so would stall the
/// entire simulation.
pub struct Ctx {
    sim: Sim,
    tid: ThreadId,
    /// This thread's handle on its own suspend mechanism, so a yield needs
    /// no thread-table lookup.
    own: ResumeHandle,
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
        let at = self.sim.now() + d;
        self.sim.sleep_until(self.tid, at);
        self.yield_to_kernel();
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
        {
            let mut core = self.sim.inner.core.lock();
            let slot = &mut core.threads[self.tid.0 as usize];
            debug_assert_eq!(slot.state, ThreadState::Running);
            slot.state = ThreadState::Parked;
        }
        self.yield_to_kernel();
    }

    /// Wakes another parked thread (at the current instant).
    pub fn wake(&self, tid: ThreadId) -> bool {
        assert_ne!(tid, self.tid, "a thread cannot wake itself");
        self.sim.wake(tid)
    }

    /// Spawns a sibling green thread.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ThreadId {
        self.sim.spawn(name, f)
    }

    /// Spawns a sibling daemon thread (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ThreadId {
        self.sim.spawn_daemon(name, f)
    }

    /// Blocks until the given thread has exited.
    pub fn join(&self, tid: ThreadId) {
        loop {
            {
                let mut core = self.sim.inner.core.lock();
                let target = &mut core.threads[tid.0 as usize];
                if target.state == ThreadState::Exited {
                    return;
                }
                target.exit_waiters.push(self.tid);
            }
            self.park();
        }
    }

    /// Hands control back to the kernel loop (engine-specific mechanism)
    /// and blocks until the kernel dispatches this thread again. Unwinds
    /// with the cancellation payload when the wake-up is a cancellation.
    fn yield_to_kernel(&self) {
        let granted = match &self.own {
            // `yield_back` asserts the token is the running coroutine's: a
            // `Ctx` used from any thread but its own is caught there.
            ResumeHandle::Coro(tok) => tok.yield_back(),
            ResumeHandle::Os(baton) => {
                self.sim.inner.gate.signal();
                baton.wait()
            }
        };
        if !granted {
            panic::panic_any(CancelToken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_sim_completes_immediately() {
        let sim = Sim::new();
        let out = sim.run();
        out.assert_clean();
        assert_eq!(out.events, 0);
        assert_eq!(out.end_time, SimTime::ZERO);
    }

    #[test]
    fn callbacks_run_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_ps(t * 1000), move |_| {
                log.lock().push(tag);
            });
        }
        sim.run().assert_clean();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_in_program_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..10 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_ps(5), move |_| log.lock().push(tag));
        }
        sim.run().assert_clean();
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_sleep_advances_time() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        sim.spawn("sleeper", move |ctx| {
            seen2.lock().push(ctx.now());
            ctx.sleep(Dur::from_micros(3));
            seen2.lock().push(ctx.now());
            ctx.sleep(Dur::from_micros(4));
            seen2.lock().push(ctx.now());
        });
        let out = sim.run();
        out.assert_clean();
        assert_eq!(
            *seen.lock(),
            vec![
                SimTime::ZERO,
                SimTime::ZERO + Dur::from_micros(3),
                SimTime::ZERO + Dur::from_micros(7),
            ]
        );
        assert_eq!(out.end_time, SimTime::ZERO + Dur::from_micros(7));
    }

    #[test]
    fn park_and_wake_handshake() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let sleeper = sim.spawn("sleeper", move |ctx| {
            ctx.park();
            hits2.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctx.now(), SimTime::ZERO + Dur::from_millis(1));
        });
        sim.spawn("waker", move |ctx| {
            ctx.sleep(Dur::from_millis(1));
            assert!(ctx.wake(sleeper));
        });
        sim.run().assert_clean();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wake_on_scheduled_thread_is_noop() {
        let sim = Sim::new();
        let target = sim.spawn("t", move |ctx| ctx.sleep(Dur::from_nanos(1)));
        sim.spawn("w", move |ctx| {
            // target is Scheduled (its initial resume is queued): no-op.
            assert!(!ctx.wake(target));
        });
        sim.run().assert_clean();
    }

    #[test]
    fn join_waits_for_exit() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let worker = sim.spawn("worker", move |ctx| {
            ctx.sleep(Dur::from_micros(10));
            o1.lock().push("worker-done");
        });
        let o2 = Arc::clone(&order);
        sim.spawn("joiner", move |ctx| {
            ctx.join(worker);
            o2.lock().push("joined");
            assert_eq!(ctx.now(), SimTime::ZERO + Dur::from_micros(10));
        });
        sim.run().assert_clean();
        assert_eq!(*order.lock(), vec!["worker-done", "joined"]);
    }

    #[test]
    fn join_on_already_exited_thread_returns() {
        let sim = Sim::new();
        let worker = sim.spawn("worker", |_| {});
        sim.spawn("joiner", move |ctx| {
            ctx.sleep(Dur::from_millis(5));
            ctx.join(worker); // already exited
        });
        sim.run().assert_clean();
    }

    #[test]
    fn time_limit_stops_run() {
        let sim = Sim::new();
        sim.spawn("long", |ctx| ctx.sleep(Dur::from_secs(100)));
        let out = sim.run_until(SimTime::ZERO + Dur::from_secs(1));
        assert_eq!(out.reason, StopReason::TimeLimit);
        assert_eq!(out.end_time, SimTime::ZERO + Dur::from_secs(1));
        assert_eq!(out.blocked, vec!["long".to_string()]);
        sim.finish();
    }

    #[test]
    fn event_limit_guards_runaway() {
        let sim = Sim::new();
        fn reschedule(sim: &Sim) {
            sim.schedule_in(Dur::from_nanos(1), reschedule);
        }
        sim.schedule_in(Dur::from_nanos(1), reschedule);
        let out = sim.run_bounded(None, 1000);
        assert_eq!(out.reason, StopReason::EventLimit);
        assert_eq!(out.events, 1000);
    }

    #[test]
    fn event_cap_mid_timestamp_is_resumable_without_loss() {
        // Five events at the same instant, capped at three: the pre-fix
        // kernel popped the fourth entry before noticing the cap and dropped
        // it on the floor. Resuming must run events 3 and 4 exactly once.
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..5 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_ps(7), move |_| log.lock().push(tag));
        }
        let first = sim.run_bounded(None, 3);
        assert_eq!(first.reason, StopReason::EventLimit);
        assert_eq!(first.events, 3);
        assert_eq!(*log.lock(), vec![0, 1, 2]);
        assert_eq!(sim.pending_events(), 2, "capped events must stay queued");
        let second = sim.run_bounded(None, u64::MAX);
        second.assert_clean();
        assert_eq!(second.events, 2);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stale_resume_after_exit_is_skipped() {
        // Stop with the sleeper's `Resume` still queued, then cancel it:
        // the queued event now names an exited thread. Popping it and
        // finding the slot unclaimable happen under one lock; the event is
        // counted and hashed, and nothing is driven.
        let sim = Sim::new();
        let woke = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woke);
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(Dur::from_micros(5));
            w.fetch_add(1, Ordering::SeqCst);
        });
        let first = sim.run_until(SimTime::ZERO + Dur::from_micros(1));
        assert_eq!(first.reason, StopReason::TimeLimit);
        assert_eq!(first.blocked, vec!["sleeper".to_string()]);
        assert_eq!(sim.pending_events(), 1, "the timed resume stays queued");
        sim.finish();
        let hash_before = sim.trace_hash();
        let out = sim.run();
        out.assert_clean();
        assert_eq!(out.events, 1, "a stale resume still counts as an event");
        assert_ne!(sim.trace_hash(), hash_before, "and is still hashed");
        assert_eq!(out.end_time, SimTime::ZERO + Dur::from_micros(5));
        assert_eq!(
            woke.load(Ordering::SeqCst),
            0,
            "an exited thread never runs"
        );
    }

    #[test]
    fn event_cap_equal_to_queue_len_reports_quiescence() {
        // Cap == total events: the run drains the queue, so the outcome is
        // Completed (quiescence), not a cap hit — the two must stay
        // distinguishable.
        let sim = Sim::new();
        for t in 0..4u64 {
            sim.schedule_at(SimTime::from_ps(t), |_| {});
        }
        let out = sim.run_bounded(None, 4);
        assert_eq!(out.reason, StopReason::Completed);
        assert_eq!(out.events, 4);
    }

    #[test]
    fn cancellable_timer_retracted_before_firing() {
        let sim = Sim::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f1 = Arc::clone(&fired);
        let h = sim.schedule_cancellable(SimTime::from_ps(50), move |_| {
            f1.fetch_add(1, Ordering::SeqCst);
        });
        let f2 = Arc::clone(&fired);
        sim.schedule_at(SimTime::from_ps(60), move |_| {
            f2.fetch_add(10, Ordering::SeqCst);
        });
        assert!(sim.cancel_scheduled(h), "pending timer must cancel");
        assert!(!sim.cancel_scheduled(h), "second cancel is a no-op");
        let out = sim.run();
        out.assert_clean();
        assert_eq!(fired.load(Ordering::SeqCst), 10, "cancelled closure ran");
        assert_eq!(out.events, 1, "cancelled event must not be dispatched");
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let sim = Sim::new();
        let h = sim.schedule_cancellable(SimTime::from_ps(5), |_| {});
        sim.run().assert_clean();
        assert!(!sim.cancel_scheduled(h));
    }

    #[test]
    fn peak_queue_depth_tracks_high_water_mark() {
        let sim = Sim::new();
        for t in 0..32u64 {
            sim.schedule_at(SimTime::from_ps(t), |_| {});
        }
        assert_eq!(sim.pending_events(), 32);
        sim.run().assert_clean();
        assert_eq!(sim.pending_events(), 0);
        // 32 scheduled events plus nothing else in flight.
        assert_eq!(sim.peak_queue_depth(), 32);
    }

    #[test]
    fn panics_are_captured_not_fatal() {
        let sim = Sim::new();
        sim.spawn("bad", |_| panic!("boom-{}", 42));
        let out = sim.run();
        assert_eq!(out.panics.len(), 1);
        assert!(out.panics[0].contains("boom-42"), "{:?}", out.panics);
    }

    #[test]
    fn finish_cancels_parked_threads() {
        let sim = Sim::new();
        sim.spawn("forever", |ctx| {
            ctx.park(); // never woken
            unreachable!("parked thread must not resume normally");
        });
        let out = sim.run();
        assert_eq!(out.blocked, vec!["forever".to_string()]);
        sim.finish(); // must not hang, must not report a panic
        assert!(sim.inner.panics.lock().is_empty());
    }

    #[test]
    fn spawn_from_thread_works() {
        let sim = Sim::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        sim.spawn("parent", move |ctx| {
            let mut children = Vec::new();
            for i in 0..5 {
                let c = Arc::clone(&c);
                children.push(ctx.spawn(format!("child{i}"), move |ctx| {
                    ctx.sleep(Dur::from_micros(i));
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for ch in children {
                ctx.join(ch);
            }
        });
        sim.run().assert_clean();
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn daemons_not_reported_blocked() {
        let sim = Sim::new();
        sim.spawn_daemon("nic", |ctx| loop {
            ctx.park();
        });
        sim.spawn("app", |ctx| ctx.sleep(Dur::from_micros(1)));
        let out = sim.run();
        out.assert_clean();
        sim.finish();
    }

    #[test]
    fn deterministic_trace_hash() {
        fn build_and_run(seed_threads: u32) -> u64 {
            let sim = Sim::new();
            for i in 0..seed_threads {
                sim.spawn(format!("t{i}"), move |ctx| {
                    for k in 0..10 {
                        ctx.sleep(Dur::from_nanos(u64::from(i) * 7 + k + 1));
                    }
                });
            }
            sim.run().assert_clean();
            sim.trace_hash()
        }
        let h1 = build_and_run(8);
        let h2 = build_and_run(8);
        let h3 = build_and_run(9);
        assert_eq!(h1, h2, "same program must replay identically");
        assert_ne!(h1, h3, "different programs should diverge");
    }

    #[test]
    fn scripted_policy_reorders_same_timestamp_events() {
        use crate::sched::{DecisionLog, ScriptedPolicy};
        let run = |script: Option<Vec<u32>>| {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            if let Some(s) = script {
                sim.set_schedule_policy(Box::new(ScriptedPolicy::new(s, DecisionLog::new())));
            }
            for tag in 0..4 {
                let log = Arc::clone(&log);
                sim.schedule_at(SimTime::from_ps(5), move |_| log.lock().push(tag));
            }
            sim.run().assert_clean();
            let order = log.lock().clone();
            (order, sim.trace_hash())
        };
        let (default_order, default_hash) = run(None);
        assert_eq!(default_order, vec![0, 1, 2, 3]);
        // An empty script is the canonical schedule: byte-identical hash.
        let (scripted_default, scripted_hash) = run(Some(vec![]));
        assert_eq!(scripted_default, default_order);
        assert_eq!(scripted_hash, default_hash);
        // Script: of 4 pending pick index 3, then of 3 pick 1, then defaults.
        let (reordered, reordered_hash) = run(Some(vec![3, 1]));
        assert_eq!(reordered, vec![3, 1, 0, 2]);
        assert_ne!(reordered_hash, default_hash);
    }

    #[test]
    fn random_walk_policy_records_replayable_decisions() {
        use crate::sched::{DecisionLog, RandomWalkPolicy, ScriptedPolicy};
        let build = |sim: &Sim, log: &Arc<Mutex<Vec<u64>>>| {
            for tag in 0..6u64 {
                let log = Arc::clone(log);
                sim.schedule_at(SimTime::from_ps(9), move |_| log.lock().push(tag));
            }
        };
        let walk_log = DecisionLog::new();
        let sim = Sim::new();
        sim.set_schedule_policy(Box::new(RandomWalkPolicy::new(0xA5, walk_log.clone())));
        let order = Arc::new(Mutex::new(Vec::new()));
        build(&sim, &order);
        sim.run().assert_clean();
        let walked = order.lock().clone();
        // Replaying the recorded decisions must reproduce the exact order.
        let script: Vec<u32> = walk_log.snapshot().iter().map(|d| d.chosen).collect();
        let sim2 = Sim::new();
        sim2.set_schedule_policy(Box::new(ScriptedPolicy::new(script, DecisionLog::new())));
        let order2 = Arc::new(Mutex::new(Vec::new()));
        build(&sim2, &order2);
        sim2.run().assert_clean();
        assert_eq!(*order2.lock(), walked);
        assert_eq!(sim2.trace_hash(), sim.trace_hash());
    }

    #[test]
    fn many_threads_interleave_deterministically() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("t{i}"), move |ctx| {
                ctx.sleep(Dur::from_nanos(100 - i)); // reverse wake order
                log.lock().push(i);
            });
        }
        sim.run().assert_clean();
        let got = log.lock().clone();
        let want: Vec<u64> = (0..20).rev().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn queue_depth_counts_the_in_flight_event() {
        // `pending_events()` read from inside an event excludes the event
        // being dispatched; `queue_depth()` includes it, which is what makes
        // a sampler agree with `peak_queue_depth` (the xp_scale 65-vs-64
        // off-by-one). The sampler event runs first (program order), so at
        // that moment depth = 32 queued + itself = 33 = the wheel's peak.
        let sim = Sim::new();
        let sampled = Arc::new(Mutex::new((0usize, 0usize)));
        let s2 = Arc::clone(&sampled);
        sim.schedule_at(SimTime::ZERO, move |s| {
            *s2.lock() = (s.pending_events(), s.queue_depth());
        });
        for _ in 0..32 {
            sim.schedule_at(SimTime::ZERO, |_| {});
        }
        assert_eq!(sim.queue_depth(), 33, "outside a run: just the queue");
        sim.run().assert_clean();
        let (pending, depth) = *sampled.lock();
        assert_eq!(pending, 32, "in-flight event invisible to pending_events");
        assert_eq!(depth, 33, "queue_depth counts the in-flight event");
        assert_eq!(
            depth,
            sim.peak_queue_depth(),
            "sampler at the peak instant must agree with the high-water mark"
        );
        assert_eq!(sim.queue_depth(), 0);
    }

    fn run_trace_on(kind: EngineKind) -> (u64, Vec<u64>) {
        let sim = Sim::with_engine(kind);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..6u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("t{i}"), move |ctx| {
                for k in 0..4 {
                    ctx.sleep(Dur::from_nanos(i * 3 + k + 1));
                    log.lock().push(i * 100 + k);
                }
            });
        }
        sim.run().assert_clean();
        let order = log.lock().clone();
        (sim.trace_hash(), order)
    }

    #[test]
    fn engines_produce_identical_traces() {
        let (h_coro, log_coro) = run_trace_on(EngineKind::Coroutine);
        let (h_os, log_os) = run_trace_on(EngineKind::OsThread);
        assert_eq!(log_coro, log_os, "engines must interleave identically");
        assert_eq!(h_coro, h_os, "engines must hash identically");
    }

    #[test]
    fn nested_simulation_routes_yields_to_its_own_kernel() {
        // A simulation built and run inside a green thread of another: each
        // green thread yields through the handle in its own `Ctx`, so the
        // guest's sleeps return to the guest's kernel loop (which runs on
        // the host thread's stack) and the host's to the host's.
        for kind in [EngineKind::Coroutine, EngineKind::OsThread] {
            let outer = Sim::with_engine(kind);
            let log = Arc::new(Mutex::new(Vec::new()));
            let host_log = Arc::clone(&log);
            outer.spawn("host", move |ctx| {
                ctx.sleep(Dur::from_micros(1));
                let inner = Sim::with_engine(kind);
                let guest_log = Arc::clone(&host_log);
                inner.spawn("guest", move |g| {
                    g.sleep(Dur::from_micros(3));
                    g.yield_now();
                    guest_log.lock().push(("guest", g.now()));
                });
                let out = inner.run();
                out.assert_clean();
                assert_eq!(out.events, 3, "{kind:?}: first resume + sleep + yield");
                assert_eq!(
                    ctx.now(),
                    SimTime::ZERO + Dur::from_micros(1),
                    "{kind:?}: the guest's run must not move the host's clock"
                );
                ctx.sleep(Dur::from_micros(2));
                host_log.lock().push(("host", ctx.now()));
            });
            outer.spawn("sibling", |ctx| ctx.sleep(Dur::from_micros(2)));
            let out = outer.run();
            out.assert_clean();
            assert_eq!(
                out.events, 5,
                "{kind:?}: the guest's events are not the host's"
            );
            assert_eq!(
                *log.lock(),
                vec![
                    ("guest", SimTime::ZERO + Dur::from_micros(3)),
                    ("host", SimTime::ZERO + Dur::from_micros(3)),
                ],
                "{kind:?}"
            );
        }
    }

    #[cfg(target_os = "linux")]
    fn os_thread_count() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .expect("read /proc/self/status")
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .expect("thread count")
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn dropped_sims_reap_green_threads_on_both_engines() {
        // Regression for the abnormal-shutdown leak: a run abandoned with
        // parked daemons (and a panicked worker) used to strand one parked
        // OS thread (or, now, one mapped coroutine stack) per daemon per
        // simulation, forever. Dropping the creator handle must reap them.
        // Other tests run concurrently, so allow slack far below the 3 *
        // ITERS the leak would add.
        const ITERS: usize = 24;
        const SLACK: usize = 12;
        for kind in [EngineKind::Coroutine, EngineKind::OsThread] {
            let base_threads = os_thread_count();
            let base_stacks = crate::engine::live_coroutine_stacks();
            for _ in 0..ITERS {
                let sim = Sim::with_engine(kind);
                for d in 0..3 {
                    sim.spawn_daemon(format!("nic{d}"), |ctx| loop {
                        ctx.park();
                    });
                }
                sim.spawn("app", |_| std::panic::panic_any("boom"));
                let out = sim.run();
                assert_eq!(out.panics.len(), 1);
                drop(sim); // no explicit finish()
            }
            assert!(
                os_thread_count() <= base_threads + SLACK,
                "OS threads leaked on {kind:?}: {} -> {}",
                base_threads,
                os_thread_count()
            );
            assert!(
                crate::engine::live_coroutine_stacks() <= base_stacks + SLACK,
                "coroutine stacks leaked on {kind:?}: {} -> {}",
                base_stacks,
                crate::engine::live_coroutine_stacks()
            );
        }
    }

    #[test]
    fn guard_survives_internal_clones() {
        // Clones the simulation retains internally (queued closures, green
        // threads) must not keep the drop-reap guard alive; user clones do.
        let sim = Sim::new();
        sim.spawn_daemon("d", |ctx| loop {
            ctx.park();
        });
        let user_clone = sim.clone();
        sim.run().assert_clean();
        drop(sim);
        // The daemon still lives: user_clone holds the guard.
        assert!(!user_clone.inner.finished.load(Ordering::SeqCst));
        drop(user_clone);
        // Guard fired; nothing to assert on the sim itself (it is gone),
        // but a fresh sim proves the global stack count settled.
    }
}
