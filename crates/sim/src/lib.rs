//! # ncs-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate under the NCS reproduction: a discrete-event
//! simulator with *cooperative green threads*, so that runtime code (thread
//! schedulers, message-passing layers, applications) can be written in a
//! natural blocking style while virtual time, ordering, and randomness stay
//! fully deterministic.
//!
//! Main pieces:
//!
//! * [`SimTime`] / [`Dur`] — integer picosecond virtual time;
//! * [`Sim`] / [`Ctx`] — the kernel, event scheduling, and green threads
//!   under a strict baton-passing protocol (at most one runnable activity);
//! * [`engine`] — the green-thread engines behind that protocol: stackful
//!   in-process coroutines by default ([`EngineKind::Coroutine`], a ~20
//!   instruction context switch), with the original parked-OS-thread
//!   engine as a differential-testing fallback ([`EngineKind::OsThread`],
//!   selectable via `NCS_GREEN_ENGINE=os`);
//! * [`wheel`] — the kernel's event queue: a hierarchical timer wheel with
//!   pooled event records (O(1) schedule, allocation-free steady state);
//! * [`SimChannel`] — blocking queues between simulated activities;
//! * [`Tracer`] — span recording (interned actors, parent links, causal
//!   ids) for the paper's timeline figures and Chrome-trace export;
//! * [`MetricsRegistry`] — always-on counters, gauges, log-bucketed
//!   latency histograms, and per-message causal timelines;
//! * [`chrome`] — Perfetto-loadable `trace_event` JSON export;
//! * [`SimRng`] — seeded, splittable randomness;
//! * [`sync`] — the one lock seam (`Mutex`, `Condvar` + `wait`) every
//!   crate in the workspace takes its locks from;
//! * [`prop`] — seeded property-test harness on [`SimRng`];
//! * [`analysis`] — runtime-analysis primitives (violation sink,
//!   wait-for-graph cycle detection) shared by the layers above;
//! * [`sched`] — the pluggable [`SchedulePolicy`] seam: named legal
//!   choice points (event tie-breaks, runnable rotation, fault timing)
//!   that schedule exploration drives through alternative interleavings;
//! * [`shard`] — conservative-lookahead sharded parallel simulation:
//!   one kernel + wheel + engine per shard on its own worker thread,
//!   barrier-synchronized time windows, deterministic cross-shard merge
//!   ([`ShardedSim`]).
//!
//! ```
//! use ncs_sim::{Dur, Sim};
//!
//! let sim = Sim::new();
//! sim.spawn("hello", |ctx| {
//!     ctx.sleep(Dur::from_micros(5));
//!     assert_eq!(ctx.now().as_ps(), 5_000_000);
//! });
//! sim.run().assert_clean();
//! ```

// `deny` rather than `forbid`: the coroutine green-thread engine
// (`engine::coro`) is the crate's single sanctioned `unsafe` island — a
// ~20-instruction context switch plus guarded stack mmap — and carries a
// scoped `#[allow(unsafe_code)]` with its soundness argument. Everything
// else in the crate still refuses `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod channel;
pub mod chrome;
pub mod engine;
mod kernel;
mod metrics;
pub mod prop;
mod rng;
pub mod sched;
pub mod shard;
mod stats;
pub mod sync;
mod time;
mod trace;
pub mod wheel;

pub use analysis::{
    fnv1a, fnv1a_fold, AnalysisConfig, ChannelKey, InvariantSink, Violation, WaitGraph, FNV_OFFSET,
};
pub use channel::{Closed, SimChannel};
pub use chrome::chrome_trace_json;
pub use engine::{
    default_engine, default_stack_bytes, live_coroutine_stacks, normalize_stack_bytes,
    set_default_engine, EngineKind, DEFAULT_STACK_BYTES, MIN_STACK_BYTES,
};
pub use kernel::{Ctx, RunOutcome, Sim, StopReason, ThreadId, TimerHandle};
pub use metrics::{DurStat, GaugeSeries, MetricsRegistry, Timeline};
pub use rng::SimRng;
pub use sched::{
    format_trace, parse_trace, ChoicePoint, Decision, DecisionLog, RandomWalkPolicy,
    SchedulePolicy, ScriptedPolicy,
};
pub use shard::{merge_streams, ShardedRunOutcome, ShardedSim};
pub use stats::{DurHistogram, DurSummary};
pub use time::{Dur, SimTime};
pub use trace::{ActorId, Span, SpanId, SpanKind, Tracer};
