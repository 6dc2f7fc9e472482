//! # NCS — a multithreaded message passing environment for ATM LAN/WAN
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `DESIGN.md` for the per-experiment index.
//!
//! ```
//! use bytes::Bytes;
//! use ncs::core::{NcsConfig, NcsWorld, ThreadAddr};
//! use ncs::net::Testbed;
//! use ncs::sim::Sim;
//!
//! // Two NCS processes on a simulated 1995 ATM LAN exchanging a message.
//! let sim = Sim::new();
//! let net = Testbed::SunAtmLanTcp.build(2);
//! NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
//!     proc_.t_create("worker", 5, move |ncs| {
//!         if id == 0 {
//!             ncs.send(ThreadAddr::new(1, 0), 7, Bytes::from_static(b"hi"));
//!         } else {
//!             assert_eq!(ncs.recv(None, None, None).tag, 7);
//!         }
//!     });
//! });
//! sim.run().assert_clean();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use ncs_apps as apps;
pub use ncs_core as core;
pub use ncs_mts as mts;
pub use ncs_net as net;
pub use ncs_p4 as p4;
pub use ncs_sim as sim;
