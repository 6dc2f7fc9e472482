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
//! * [`engine`] — the green-thread engines behind that protocol, and the
//!   only module that knows which one runs a thread: stackful in-process
//!   coroutines by default (a ~20 instruction context switch), with the
//!   original parked-OS-thread engine as a differential-testing fallback
//!   (selectable via `set_default_engine` or `Sim::with_engine`);
//! * [`wheel`] — the kernel's event queue: a binary heap over pooled event
//!   records (allocation-free steady state, cancellation by token);
//! * [`SimChannel`] — blocking queues between simulated activities;
//! * [`Tracer`] — span recording (interned actors, parent links, causal
//!   ids) for the paper's timeline figures and Chrome-trace export;
//! * [`MetricsRegistry`] — always-on counters, gauges, log-bucketed
//!   latency histograms, and per-message causal timelines, folded into
//!   the histograms at delivery (and kept only if a caller asks);
//! * [`chrome`] — Perfetto-loadable `trace_event` JSON export;
//! * [`SimRng`] — seeded, splittable randomness;
//! * [`sync`] — the one lock seam (`Mutex`, `Condvar` + `wait`) every
//!   crate in the workspace takes its locks from;
//! * [`prop`] — seeded property-test harness on [`SimRng`];
//! * [`analysis`] — runtime-analysis primitives (the on/off switch, the
//!   violation sink, the delivery log) shared by the layers above;
//! * [`sched`] — the pluggable [`SchedulePolicy`] seam: named legal
//!   choice points (event tie-breaks, runnable rotation, fault timing)
//!   that schedule exploration drives through alternative interleavings.
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
#![warn(unreachable_pub)]

pub mod analysis;
mod channel;
pub mod chrome;
pub mod engine;
mod kernel;
mod metrics;
mod names;
pub mod prop;
mod rng;
pub mod sched;
mod stats;
pub mod sync;
mod time;
mod timeline;
mod trace;
pub mod wheel;

pub use analysis::{fnv1a, AnalysisConfig, ChannelKey, InvariantSink, Violation};
pub use channel::SimChannel;
pub use chrome::chrome_trace_json;
pub use engine::{
    live_coroutine_stacks, set_default_engine, EngineKind, DEFAULT_STACK_BYTES, MIN_STACK_BYTES,
};
pub use kernel::{Ctx, RunOutcome, Sim, StopReason, ThreadId, TimerHandle};
pub use metrics::MetricsRegistry;
pub use rng::SimRng;
pub use sched::{
    format_trace, parse_trace, ChoicePoint, Decision, DecisionLog, RandomWalkPolicy,
    SchedulePolicy, ScriptedPolicy,
};
pub use stats::{DurHistogram, DurSummary};
pub use time::{Dur, SimTime};
pub use timeline::Timeline;
pub use trace::{ActorId, SpanKind, Tracer};
