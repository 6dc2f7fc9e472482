//! # ncs-core — the NYNET Communication System
//!
//! The paper's primary contribution: a multithreaded message-passing
//! environment in which `NCS_send`/`NCS_recv` block only the calling
//! user-level thread, letting computation and communication overlap.
//!
//! * [`mod@env`] — `NCS_init` / `NCS_t_create` / `NCS_start`, the send and
//!   receive system threads, credit flow control, signals, `NCS_bcast` and
//!   barriers (paper Sections 3–4, Figures 8 and 10) — §3.1's group service
//!   is reproduced as those two collectives only;
//! * [`world`] — whole-computation launcher;
//! * [`addr`] — `(thread, process)` addressing and wire tags;
//! * [`filters`] — the message-passing filters of Figure 6: p4-, PVM- and
//!   MPI-style interfaces mapped onto NCS primitives;
//! * [`codec`] — payload marshalling for the benchmark applications.
//!
//! Both of the paper's NCS_MPS implementations are available by choosing
//! the transport: Approach 1 (over p4-style TCP) via
//! [`ncs_net::TcpNet`], Approach 2 (over the ATM API) via
//! [`ncs_net::AtmApiNet`]; a process may carry both tiers at once (NSM +
//! HSM) and pick per message with [`env::NcsCtx::send_via`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod codec;
pub mod env;
pub mod filters;
pub mod real;
pub mod world;

pub use addr::{MsgClass, ThreadAddr};
pub use env::{
    causal_component, ErrorControl, ErrorStats, FlowControl, NcsConfig, NcsCtx, NcsException,
    NcsMsg, NcsProc, NcsRequest, PeerRto, RtoConfig, ALL_STAGES, EXC_DELIVERY_FAILED,
};
pub use world::NcsWorld;
