//! # ncs-analysis — static and runtime analysis for the NCS stack
//!
//! The *policy* half of the analysis layer (the *mechanism* —
//! [`ncs_sim::AnalysisConfig`], [`ncs_sim::InvariantSink`],
//! [`ncs_sim::WaitGraph`] — lives in `ncs-sim` so every layer can report
//! without dependency cycles). This crate provides:
//!
//! * [`lint`] — a source-level determinism lint over the simulation-facing
//!   crates. The whole point of the reproduction is bit-exact replay from a
//!   seed; the lint rejects the constructions that silently break it
//!   (hash-ordered maps, wall-clock reads, raw OS threads, unseeded
//!   randomness, floating-point time arithmetic).
//! * [`runtime`] — post-run classification of a [`ncs_sim::RunOutcome`]
//!   into deadlocks (threads on a wait cycle) and lost wakeups (threads
//!   parked forever with no cycle to blame).
//! * [`mod@explore`] — schedule-space exploration: a random-walk fuzzer and a
//!   bounded exhaustive checker over the kernel's legal scheduling choice
//!   points, asserting every runtime oracle (deadlock/lost-wakeup
//!   detection, conservation checks, bit-exact payloads) plus
//!   cross-schedule observational equivalence on each explored schedule,
//!   with replayable minimized counterexample traces.
//! * a `ncs-analysis` binary driving all of it for CI:
//!   `cargo run -p ncs-analysis -- [lint|smoke|explore|all]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod lint;
pub mod runtime;

pub use explore::{
    explore, problems_vs_baseline, run_scripted, Counterexample, ExploreReport, Mode, Observation,
    RingWorkload, Workload,
};
pub use lint::{lint_file, lint_workspace, LintViolation, LINT_RULES};
pub use runtime::check_outcome;
