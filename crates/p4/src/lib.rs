//! # ncs-p4 — the p4 message-passing substrate (the paper's baseline)
//!
//! A reimplementation of the Argonne p4 primitives the paper measures
//! against and layers NCS_MPS Approach 1 on: procgroups of single-threaded
//! processes, typed sends, wildcard-matched blocking receives and
//! `messages_available` polling, all over the simulated socket/TCP/IP stack
//! of `ncs-net`.
//!
//! The crucial baseline semantics: a p4 process has exactly one thread, so
//! `recv` idles the whole CPU until a matching message arrives. Every
//! performance gap the paper reports between "p4" and "NCS_MTS/p4" traces
//! back to that difference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod proc;

pub use proc::create_procgroup;
