//! # ncs-mts — the NCS multithread subsystem (NCS_MTS)
//!
//! The paper's user-level thread package (Section 4.1), rebuilt on the
//! deterministic simulation kernel: 16 priority levels with round-robin
//! scheduling, cooperative (non-preemptive) dispatch with an explicit
//! context-switch cost, and the blocking primitives (`block` / `unblock` /
//! thread-level `sleep` / `kernel_wait`) that the NCS message-passing layer
//! builds its send, receive, and flow-control system threads on.
//! Coordination above that is message-based: NCS_MPS's barrier and signals
//! are messages, not MTS objects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod run_queue;
pub mod runtime;

pub use runtime::{
    Mts, MtsConfig, MtsCtx, MtsThreadReport, MtsThreadState, MtsTid, PRIORITY_LEVELS,
};
