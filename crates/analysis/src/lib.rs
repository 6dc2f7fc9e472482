//! # ncs-analysis — the determinism lint for the NCS stack
//!
//! [`lint`] is a source-level determinism lint over the simulation-facing
//! crates. The whole point of the reproduction is bit-exact replay from a
//! seed; the lint rejects the constructions that silently break it
//! (hash-ordered maps, wall-clock reads, raw OS threads, unseeded
//! randomness, floating-point time arithmetic, a lock guard held across a
//! park). Tier-1 runs it over the repository (`tests/lint_rules.rs`).
//! [`census_candidates`] lists the `pub` items the ignored census in
//! `tests/census.rs` narrows one at a time.
//!
//! The runtime half of the analysis layer is not here: each layer checks
//! its own invariants behind `ncs_sim::AnalysisConfig` (the kernel's
//! lost-wakeup report, the MTS scheduler's wait-for scan, the
//! message-passing core's conservation checks). `tests/app_invariants.rs`
//! runs the three paper applications with every one of them armed, and
//! schedule-space exploration, which drives workloads through alternative
//! legal schedules with them armed, is `ncs_bench::explore` and runs as
//! `xp explore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod lint;

pub use lint::{census_candidates, lint_file, lint_workspace, LINT_RULES};
