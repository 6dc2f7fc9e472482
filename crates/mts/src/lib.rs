//! # ncs-mts — the NCS multithread subsystem (NCS_MTS)
//!
//! The paper's user-level thread package (Section 4.1), rebuilt on the
//! deterministic simulation kernel: 16 priority levels with round-robin
//! scheduling, doubly-linked runnable/blocked queues, cooperative
//! (non-preemptive) dispatch with an explicit context-switch cost, and the
//! blocking primitives (`block` / `unblock` / thread-level `sleep` /
//! `external_block`) that the NCS message-passing layer builds its send,
//! receive, and flow-control system threads on.
//!
//! [`sync`] adds the synchronization objects the paper lists as NCS_MTS
//! services (semaphores, barriers, events) built purely on block/unblock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dlist;
pub mod runtime;
pub mod sync;

pub use runtime::{
    Mts, MtsConfig, MtsCtx, MtsStats, MtsThreadReport, MtsThreadState, MtsTid, PRIORITY_LEVELS,
};
pub use sync::{MtsBarrier, MtsEvent, MtsSemaphore};
