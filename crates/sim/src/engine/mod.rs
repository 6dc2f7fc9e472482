//! Green-thread execution engines, behind the opaque `Engine` the kernel
//! holds: only this module knows which engine backs a thread.
//!
//! The kernel's scheduling contract — strict baton semantics, at most one
//! runnable activity, deterministic `(time, seq)` order — is engine-agnostic.
//! What an engine provides is only the *mechanism* that suspends and resumes
//! a green thread's blocking Rust closure:
//!
//! * [`EngineKind::Coroutine`] (default on x86_64 Linux) — in-process
//!   stackful coroutines: a ~20-instruction userspace context switch onto a
//!   dedicated 2 MiB guarded stack (`coro`). Handing control to a green
//!   thread costs nanoseconds and never enters the OS scheduler.
//! * [`EngineKind::OsThread`] — the original engine: one parked OS thread
//!   per green thread, woken through a Condvar baton (`os_thread`). Kept
//!   as a fallback for platforms without a context-switch layer and for
//!   differential testing against the coroutine engine.
//!
//! Both engines produce byte-identical traces: the event sequence, trace
//! hash, tracer spans, and `DecisionLog`s are functions of the kernel's
//! scheduling decisions alone, which the engine does not influence.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use os_thread::{Baton, KernelGate, OsThread};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)] // the one sanctioned unsafe island: the context switch
pub(crate) mod coro;
pub(crate) mod os_thread;

/// Stub for platforms without a ported context-switch layer; selecting the
/// coroutine engine there is a configuration error.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) mod coro {
    pub(crate) struct Coroutine;
    #[derive(Clone, Copy)]
    pub(crate) struct ResumeToken;
    pub(crate) type CoroEntry = Box<dyn FnOnce(bool, ResumeToken) + Send>;
    pub(crate) fn live_stacks() -> usize {
        0
    }
    impl Coroutine {
        pub(crate) fn new(_entry: CoroEntry, _stack_bytes: usize) -> Coroutine {
            panic!("the coroutine engine is only ported to x86_64 Linux; use EngineKind::OsThread")
        }
        pub(crate) fn token(&self) -> ResumeToken {
            ResumeToken
        }
    }
    impl ResumeToken {
        pub(crate) fn resume(self, _cancel: bool) -> bool {
            unreachable!("stub coroutine cannot run")
        }
        pub(crate) fn yield_back(self) -> bool {
            unreachable!("stub coroutine cannot run")
        }
    }
}

/// Which mechanism backs a simulation's green threads. See the module docs;
/// the choice never affects simulation semantics, only speed and footprint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// In-process stackful coroutines (default where supported).
    Coroutine,
    /// One parked OS thread per green thread (fallback / differential tests).
    OsThread,
}

/// Process-wide default for [`crate::Sim::new`]: 0 = undecided,
/// 1 = coroutine, 2 = OS thread.
static DEFAULT_ENGINE: AtomicU8 = AtomicU8::new(0);

fn platform_default() -> EngineKind {
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        EngineKind::Coroutine
    } else {
        EngineKind::OsThread
    }
}

/// The engine [`crate::Sim::new`] uses: the last [`set_default_engine`],
/// otherwise the platform default (coroutines on x86_64 Linux).
pub(crate) fn default_engine() -> EngineKind {
    match DEFAULT_ENGINE.load(Ordering::SeqCst) {
        1 => EngineKind::Coroutine,
        2 => EngineKind::OsThread,
        _ => platform_default(),
    }
}

/// Overrides the process-wide default engine (differential harnesses flip
/// this between runs). Only affects simulations created afterwards.
pub fn set_default_engine(kind: EngineKind) {
    let v = match kind {
        EngineKind::Coroutine => 1,
        EngineKind::OsThread => 2,
    };
    DEFAULT_ENGINE.store(v, Ordering::SeqCst);
}

/// Green-thread stack size of every simulation not built through
/// [`crate::Sim::with_engine_and_stack`]: 2 MiB. Only tests build one with
/// any other size.
pub const DEFAULT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Smallest stack the engines accept: room for the guard-adjacent canary,
/// the crafted initial coroutine frame, and a useful amount of call depth.
pub const MIN_STACK_BYTES: usize = 16 * 1024;

/// Rounds a requested stack size up to a whole number of pages and clamps
/// it to [`MIN_STACK_BYTES`]. Both engines require the result: the
/// coroutine engine because its guard page and crafted initial frame assume
/// page alignment, the OS engine because `pthread` stacks are page-granular
/// anyway.
pub(crate) fn normalize_stack_bytes(bytes: usize) -> usize {
    const PAGE: usize = 4096;
    bytes.max(MIN_STACK_BYTES).div_ceil(PAGE) * PAGE
}

/// Number of coroutine stacks currently mapped, across all simulations.
/// Diagnostic for leak regression tests: after a simulation is finished
/// (or its creator handle dropped), its stacks must be unmapped.
pub fn live_coroutine_stacks() -> usize {
    coro::live_stacks()
}

/// A simulation's green-thread engine: the mechanism behind its threads,
/// their stack size and, on the OS engine, the gate its kernel loop waits on
/// while a thread runs. The kernel holds one and never asks which engine it
/// is: spawning, resuming with or without cancel, yielding back and reaping
/// are methods here, and every engine `match` lives in this module.
pub(crate) struct Engine {
    pub(crate) kind: EngineKind,
    /// Usable bytes per green-thread stack (page-aligned; both engines).
    stack_bytes: usize,
    gate: Arc<KernelGate>,
}

impl Engine {
    /// An engine of `kind` whose threads get `stack_bytes` stacks
    /// (normalized via [`normalize_stack_bytes`]).
    pub(crate) fn new(kind: EngineKind, stack_bytes: usize) -> Engine {
        Engine {
            kind,
            stack_bytes: normalize_stack_bytes(stack_bytes),
            gate: Arc::new(KernelGate::new()),
        }
    }

    pub(crate) fn stack_bytes(&self) -> usize {
        self.stack_bytes
    }

    /// A new green thread that runs `body` when first resumed. `body` gets
    /// `false` when that resume is a cancellation (the thread never started)
    /// and the thread's handle on itself, for its yields.
    pub(crate) fn spawn(
        &self,
        name: &str,
        body: impl FnOnce(bool, ResumeHandle) + Send + 'static,
    ) -> GreenThread {
        match self.kind {
            EngineKind::Coroutine => GreenThread::Coro(coro::Coroutine::new(
                Box::new(move |started, token| body(started, ResumeHandle::Coro(token))),
                self.stack_bytes,
            )),
            EngineKind::OsThread => {
                let baton = Arc::new(Baton::new());
                let (own, gate) = (Arc::clone(&baton), Arc::clone(&self.gate));
                GreenThread::Os(OsThread::spawn(name, baton, self.stack_bytes, move || {
                    let started = own.take();
                    body(started, ResumeHandle::Os(own));
                    gate.put(());
                }))
            }
        }
    }

    /// Kernel side: runs the thread `handle` names until it yields or
    /// finishes; with `cancel`, its next scheduling point unwinds instead of
    /// returning. `true` when it finished and its backing may be dropped on
    /// the spot (a coroutine's stack); an OS thread waits for
    /// [`GreenThread::reap`].
    pub(crate) fn resume(&self, handle: ResumeHandle, cancel: bool) -> bool {
        match handle {
            ResumeHandle::Coro(tok) => tok.resume(cancel),
            ResumeHandle::Os(baton) => {
                baton.put(!cancel);
                self.gate.take();
                false
            }
        }
    }

    /// Thread side: hands control back to the kernel loop and blocks until
    /// the next resume; `false` when that resume is a cancellation.
    pub(crate) fn yield_back(&self, own: &ResumeHandle) -> bool {
        match own {
            // `yield_back` asserts the token is the running coroutine's: a
            // `Ctx` used from any thread but its own is caught there.
            ResumeHandle::Coro(tok) => tok.yield_back(),
            ResumeHandle::Os(baton) => {
                self.gate.put(());
                baton.take()
            }
        }
    }
}

/// The mechanism backing one green thread.
pub(crate) enum GreenThread {
    /// A stackful coroutine; holds its stack until reaped.
    Coro(coro::Coroutine),
    /// A parked OS thread; joined by [`GreenThread::reap`].
    Os(OsThread),
    /// Reaped: the coroutine's stack was reclaimed or the OS thread joined.
    Done,
}

/// A grabbed-under-lock handle used to transfer control without holding the
/// thread-table lock across the switch.
pub(crate) enum ResumeHandle {
    Coro(coro::ResumeToken),
    Os(Arc<Baton>),
}

impl GreenThread {
    pub(crate) fn resume_handle(&self) -> ResumeHandle {
        match self {
            GreenThread::Coro(c) => ResumeHandle::Coro(c.token()),
            GreenThread::Os(o) => ResumeHandle::Os(o.baton()),
            GreenThread::Done => unreachable!("resume of a reaped green thread"),
        }
    }

    /// Releases what a finished thread still holds: an OS thread is joined,
    /// a coroutine's stack is unmapped as it drops.
    pub(crate) fn reap(self) {
        if let GreenThread::Os(os) = self {
            os.join();
        }
    }
}
