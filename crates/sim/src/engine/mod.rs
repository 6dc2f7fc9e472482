//! Green-thread execution engines behind the kernel's `GreenEngine` seam.
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

/// The engine [`crate::Sim::new`] uses. Decided on first call: the
/// `NCS_GREEN_ENGINE` environment variable (`coro` / `os`) wins, otherwise
/// the platform default (coroutines on x86_64 Linux).
pub fn default_engine() -> EngineKind {
    match DEFAULT_ENGINE.load(Ordering::SeqCst) {
        1 => EngineKind::Coroutine,
        2 => EngineKind::OsThread,
        _ => {
            let kind = match std::env::var("NCS_GREEN_ENGINE").ok().as_deref() {
                Some("coro") | Some("coroutine") => EngineKind::Coroutine,
                Some("os") | Some("os-thread") | Some("os_thread") => EngineKind::OsThread,
                Some(other) => {
                    panic!("NCS_GREEN_ENGINE must be 'coro' or 'os', got {other:?}")
                }
                None => platform_default(),
            };
            set_default_engine(kind);
            kind
        }
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

/// Green-thread stack size used when a simulation does not pick one
/// explicitly: 2 MiB (the historical hardcoded value), unless overridden.
pub const DEFAULT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Smallest stack the engines accept: room for the guard-adjacent canary,
/// the crafted initial coroutine frame, and a useful amount of call depth.
pub const MIN_STACK_BYTES: usize = 16 * 1024;

/// Process-wide default for the green-thread stack size in bytes
/// (0 = undecided, resolved on first use).
static DEFAULT_STACK: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Rounds a requested stack size up to a whole number of pages and clamps
/// it to [`MIN_STACK_BYTES`]. Both engines require the result: the
/// coroutine engine because its guard page and crafted initial frame assume
/// page alignment, the OS engine because `pthread` stacks are page-granular
/// anyway.
pub fn normalize_stack_bytes(bytes: usize) -> usize {
    const PAGE: usize = 4096;
    bytes.max(MIN_STACK_BYTES).div_ceil(PAGE) * PAGE
}

/// The green-thread stack size [`crate::Sim::new`] uses, in bytes. Decided
/// on first call: the `NCS_GREEN_STACK_KIB` environment variable wins
/// (KiB, normalized via [`normalize_stack_bytes`]), otherwise
/// [`DEFAULT_STACK_BYTES`]. Per-simulation overrides go through
/// [`crate::Sim::with_engine_and_stack`] instead.
pub fn default_stack_bytes() -> usize {
    match DEFAULT_STACK.load(Ordering::SeqCst) {
        0 => {
            let bytes = match std::env::var("NCS_GREEN_STACK_KIB").ok() {
                Some(v) => {
                    let kib: usize = v
                        .parse()
                        .unwrap_or_else(|_| panic!("NCS_GREEN_STACK_KIB must be an integer KiB count, got {v:?}"));
                    normalize_stack_bytes(kib * 1024)
                }
                None => DEFAULT_STACK_BYTES,
            };
            DEFAULT_STACK.store(bytes, Ordering::SeqCst);
            bytes
        }
        bytes => bytes,
    }
}

/// Number of coroutine stacks currently mapped, across all simulations.
/// Diagnostic for leak regression tests: after a simulation is finished
/// (or its creator handle dropped), its stacks must be unmapped.
pub fn live_coroutine_stacks() -> usize {
    coro::live_stacks()
}

/// The mechanism backing one green thread.
pub(crate) enum GreenThread {
    /// A stackful coroutine; holds its stack until reaped.
    Coro(coro::Coroutine),
    /// A parked OS thread; holds the join handle until [`crate::Sim::finish`].
    Os(os_thread::OsThread),
    /// Reaped: the coroutine's stack was reclaimed or the OS thread joined.
    Done,
}

/// A grabbed-under-lock handle used to transfer control without holding the
/// thread-table lock across the switch.
pub(crate) enum ResumeHandle {
    Coro(coro::ResumeToken),
    Os(std::sync::Arc<os_thread::Baton>),
}

impl GreenThread {
    pub(crate) fn resume_handle(&self) -> ResumeHandle {
        match self {
            GreenThread::Coro(c) => ResumeHandle::Coro(c.token()),
            GreenThread::Os(o) => ResumeHandle::Os(o.baton()),
            GreenThread::Done => unreachable!("resume of a reaped green thread"),
        }
    }
}
