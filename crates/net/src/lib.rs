//! # ncs-net — network models for the NCS reproduction
//!
//! Everything between a process's buffer and the far host's buffer:
//!
//! * **ATM data plane**: [`cell`] (53-byte cells with HEC), the [`aal5`]
//!   adaptation layer, [`crc`] algorithms;
//! * **fabrics**: [`ethernet`] (shared 10 Mb/s segment) and [`atm`] — the
//!   one switched ATM fabric ([`AtmFabric`]: one hop loop booking one slot
//!   per chunk per hop, never per cell, with the
//!   FORE-style single-switch LAN, the NYNET WAN testbed and [`wan`]'s
//!   fat-tree and DS-3/OC-48 ring as [`Topology`] route tables over it;
//!   [`wan`] also holds the VBR cross-traffic generator), over FIFO-queued
//!   [`link`]s with payload-effective SONET/DS-3/TAXI rates;
//! * **host cost models**: [`host`] — CPU clocks, syscall/trap/interrupt
//!   costs, and the Figure-3 datapath (5 memory accesses per word on the
//!   socket path vs 3 on NCS's mapped-buffer path);
//! * **transport stacks**: [`stack`] — the socket/TCP/IP path ([`TcpNet`])
//!   and the NCS ATM API path ([`AtmApiNet`]) with Figure-2's multiple-I/O-
//!   buffer pipeline (one [`Fabric::transfer`] per buffer, one delivery
//!   event per message), both behind the [`Network`] trait;
//! * **testbeds**: [`topology::Testbed`] presets mirroring the paper's
//!   experimental environment;
//! * **fault injection**: [`faults`] — the one injector, a [`Network`]
//!   decorator: seeded cell-level bit flips and loss (exercising real HEC
//!   correction and AAL5 CRC rejection), message-level corrupt-and-deliver
//!   and drop, and crash-stop nodes; deterministic link flap windows and
//!   switch-buffer overflow live on [`link`] and [`atm`].

// `deny` rather than `forbid`: the CRC-32 dispatch (`crc`) calls the
// carry-less-multiply kernel once the CPU has been seen to support it, under
// a scoped `#[allow(unsafe_code)]` on that one statement. Everything else in
// the crate still refuses `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod aal5;
pub mod atm;
pub mod cell;
pub mod crc;
pub mod ethernet;
pub mod fabric;
pub mod faults;
pub mod host;
pub mod link;
pub mod stack;
pub mod topology;
pub mod wan;

pub use faults::{ChaosNet, ChaosParams, FaultStatsSnapshot};
pub use atm::{AtmFabric, Topology};
pub use fabric::{Fabric, IdealFabric, NodeId};
pub use wan::{spawn_vbr, FatTreeParams, VbrConfig, WanRingParams};
pub use host::{DatapathKind, HostParams};
pub use link::LinkState;
pub use stack::{AtmApiNet, AtmApiParams, BlockingWait, Delivery, Network, TcpNet, TcpParams};
pub use topology::{ChaosTopology, Testbed};
