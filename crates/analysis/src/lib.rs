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
//!   randomness, floating-point time arithmetic), plus `dead-surface`, the
//!   `pub` items nothing but tests or their own re-export name.
//! * [`runtime`] — post-run classification of a [`ncs_sim::RunOutcome`]
//!   into deadlocks (threads on a wait cycle) and lost wakeups (threads
//!   parked forever with no cycle to blame).
//!
//! Tier-1 runs both over the repository: `tests/lint_rules.rs` lints every
//! source file, and `tests/app_invariants.rs` runs the three paper
//! applications with every runtime invariant armed.
//!
//! Schedule-space exploration, which drives workloads through alternative
//! legal schedules with these oracles armed, is `ncs_bench::explore` and
//! runs as `xp explore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod runtime;

pub use lint::{lint_file, lint_sources, lint_workspace, LintViolation, LINT_RULES};
pub use runtime::check_outcome;
