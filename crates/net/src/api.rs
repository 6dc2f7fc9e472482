//! The "ATM API" surface (paper Figures 6/12): the connection-oriented
//! interface NCS's High Speed Mode is written against, in the style of
//! FORE's circa-1994 host API — open a virtual circuit to a peer, send and
//! receive whole AAL5 PDUs on it, close it.
//!
//! [`VcTable`] owns VPI/VCI allocation (VCIs 0–31 are reserved by ITU-T
//! I.361 for signaling and OAM); [`AtmApi`] binds a table to a node's
//! transport endpoint and performs the actual circuit-filtered sends and
//! receives over any [`Network`] (normally an
//! [`crate::stack::AtmApiNet`]).

use bytes::Bytes;
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, SimChannel};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::fabric::NodeId;
use crate::stack::{BlockingWait, Delivery, Network};

/// First VCI available to user circuits (below this: reserved).
pub const FIRST_USER_VCI: u16 = 32;

/// Traffic class requested at circuit setup (descriptive: the simulation's
/// fabrics serve FIFO, but the class rides in the handle for QOS-aware
/// layers like NCS's flow-control threads).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficClass {
    /// Constant bit rate (the VOD class of the paper's Figure 5).
    Cbr,
    /// Variable bit rate.
    Vbr,
    /// Unspecified / best effort (bulk data).
    Ubr,
}

/// An open virtual circuit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vc {
    /// Local endpoint.
    pub local: NodeId,
    /// Remote endpoint.
    pub remote: NodeId,
    /// Circuit identifier (shared by both directions in this API).
    pub vci: u16,
}

/// Errors from the circuit layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtmApiError {
    /// All VCIs toward that destination are in use.
    NoVcisLeft,
    /// Operation on a circuit that is not open.
    NotOpen,
    /// PDU exceeds what one AAL5 CS-PDU can carry; callers must chunk
    /// (NCS's I/O-buffer pool does this above the API).
    PduTooLarge,
}

impl std::fmt::Display for AtmApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtmApiError::NoVcisLeft => write!(f, "no VCIs left"),
            AtmApiError::NotOpen => write!(f, "circuit not open"),
            AtmApiError::PduTooLarge => write!(
                f,
                "PDU exceeds the AAL5 maximum of {} bytes",
                crate::aal5::MAX_PDU
            ),
        }
    }
}

impl std::error::Error for AtmApiError {}

/// Per-node VCI allocation state.
#[derive(Default)]
pub struct VcTable {
    /// Next candidate VCI per remote node.
    next: BTreeMap<NodeId, u16>,
    /// Open circuits and their traffic class.
    open: BTreeMap<Vc, TrafficClass>,
}

impl VcTable {
    /// Creates an empty table.
    pub fn new() -> VcTable {
        VcTable::default()
    }

    /// Allocates a VCI toward `remote`.
    pub fn allocate(
        &mut self,
        local: NodeId,
        remote: NodeId,
        class: TrafficClass,
    ) -> Result<Vc, AtmApiError> {
        let next = self.next.entry(remote).or_insert(FIRST_USER_VCI);
        let start = *next;
        loop {
            let vci = *next;
            *next = next.checked_add(1).unwrap_or(FIRST_USER_VCI);
            if *next == 0 {
                *next = FIRST_USER_VCI;
            }
            let vc = Vc { local, remote, vci };
            if let std::collections::btree_map::Entry::Vacant(e) = self.open.entry(vc) {
                e.insert(class);
                return Ok(vc);
            }
            if *next == start {
                return Err(AtmApiError::NoVcisLeft);
            }
        }
    }

    /// Releases a circuit.
    pub fn release(&mut self, vc: Vc) -> Result<(), AtmApiError> {
        self.open
            .remove(&vc)
            .map(|_| ())
            .ok_or(AtmApiError::NotOpen)
    }

    /// Traffic class of an open circuit.
    pub fn class_of(&self, vc: Vc) -> Option<TrafficClass> {
        self.open.get(&vc).copied()
    }

    /// Number of open circuits.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

/// One node's ATM API endpoint.
pub struct AtmApi {
    node: NodeId,
    net: Arc<dyn Network>,
    table: Mutex<VcTable>,
    inbox: SimChannel<Delivery>,
    /// PDUs received for circuits other than the one currently asked for.
    stash: Mutex<VecDeque<(u16, NodeId, Bytes)>>,
}

impl AtmApi {
    /// Binds the API to `node` on `net`.
    pub fn bind(node: NodeId, net: Arc<dyn Network>) -> AtmApi {
        AtmApi {
            node,
            net: Arc::clone(&net),
            table: Mutex::new(VcTable::new()),
            inbox: net.inbox(node),
            stash: Mutex::new(VecDeque::new()),
        }
    }

    /// Opens a circuit to `remote` (`atm_open`). Both peers must open the
    /// same VCI to converse; allocation order is deterministic, so
    /// symmetric code gets matching circuits.
    pub fn open(&self, remote: NodeId, class: TrafficClass) -> Result<Vc, AtmApiError> {
        self.table.lock().allocate(self.node, remote, class)
    }

    /// Closes a circuit (`atm_close`).
    pub fn close(&self, vc: Vc) -> Result<(), AtmApiError> {
        self.table.lock().release(vc)
    }

    /// Sends one PDU on a circuit (`atm_send`). Blocks the calling green
    /// thread for the sender-side costs of the underlying stack.
    pub fn send(&self, ctx: &Ctx, vc: Vc, pdu: Bytes) -> Result<(), AtmApiError> {
        if pdu.len() > crate::aal5::MAX_PDU {
            return Err(AtmApiError::PduTooLarge);
        }
        if self.table.lock().class_of(vc).is_none() {
            return Err(AtmApiError::NotOpen);
        }
        self.net.send(
            ctx,
            &BlockingWait,
            self.node,
            vc.remote,
            u64::from(vc.vci),
            pdu,
        );
        Ok(())
    }

    /// Receives the next PDU on a circuit (`atm_recv`), blocking until one
    /// arrives. PDUs for other circuits are buffered meanwhile.
    pub fn recv(&self, ctx: &Ctx, vc: Vc) -> Result<Bytes, AtmApiError> {
        if self.table.lock().class_of(vc).is_none() {
            return Err(AtmApiError::NotOpen);
        }
        loop {
            {
                let mut stash = self.stash.lock();
                if let Some(pos) = stash
                    .iter()
                    .position(|(vci, from, _)| *vci == vc.vci && *from == vc.remote)
                {
                    return Ok(stash.remove(pos).unwrap().2);
                }
            }
            let d = self.inbox.recv(ctx).expect("ATM inbox closed");
            ctx.sleep(self.net.recv_pickup_cost(self.node, d.payload.len()));
            if d.damaged {
                // `atm_recv` hands up whole PDUs or nothing.
                continue;
            }
            self.stash
                .lock()
                .push_back((d.tag as u16, d.src, d.payload));
        }
    }

    /// Open circuit count (diagnostics).
    pub fn open_count(&self) -> usize {
        self.table.lock().open_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::IdealFabric;
    use crate::host::HostParams;
    use crate::stack::{AtmApiNet, AtmApiParams};
    use ncs_sim::{Dur, Sim};

    fn api_pair() -> (Arc<AtmApi>, Arc<AtmApi>) {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(5)));
        let hosts = vec![HostParams::test_fast(); 2];
        let net: Arc<dyn Network> =
            Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()));
        (
            Arc::new(AtmApi::bind(NodeId(0), Arc::clone(&net))),
            Arc::new(AtmApi::bind(NodeId(1), net)),
        )
    }

    #[test]
    fn vci_allocation_skips_reserved_range() {
        let mut t = VcTable::new();
        let vc = t.allocate(NodeId(0), NodeId(1), TrafficClass::Ubr).unwrap();
        assert!(vc.vci >= FIRST_USER_VCI);
        let vc2 = t.allocate(NodeId(0), NodeId(1), TrafficClass::Cbr).unwrap();
        assert_ne!(vc.vci, vc2.vci);
        assert_eq!(t.class_of(vc2), Some(TrafficClass::Cbr));
        assert_eq!(t.open_count(), 2);
    }

    #[test]
    fn release_frees_and_double_release_errors() {
        let mut t = VcTable::new();
        let vc = t.allocate(NodeId(0), NodeId(1), TrafficClass::Vbr).unwrap();
        assert_eq!(t.release(vc), Ok(()));
        assert_eq!(t.release(vc), Err(AtmApiError::NotOpen));
    }

    #[test]
    fn pdu_roundtrip_over_circuit() {
        let sim = Sim::new();
        let (a, b) = api_pair();
        let a2 = Arc::clone(&a);
        sim.spawn("a", move |ctx| {
            let vc = a2.open(NodeId(1), TrafficClass::Ubr).unwrap();
            a2.send(ctx, vc, Bytes::from_static(b"over the circuit"))
                .unwrap();
            let reply = a2.recv(ctx, vc).unwrap();
            assert_eq!(&reply[..], b"ack");
            a2.close(vc).unwrap();
            assert_eq!(a2.open_count(), 0);
        });
        sim.spawn("b", move |ctx| {
            let vc = b.open(NodeId(0), TrafficClass::Ubr).unwrap();
            let pdu = b.recv(ctx, vc).unwrap();
            assert_eq!(&pdu[..], b"over the circuit");
            b.send(ctx, vc, Bytes::from_static(b"ack")).unwrap();
        });
        sim.run().assert_clean();
    }

    #[test]
    fn circuits_demultiplex() {
        // Two circuits between the same pair: PDUs never cross streams.
        let sim = Sim::new();
        let (a, b) = api_pair();
        let a2 = Arc::clone(&a);
        sim.spawn("a", move |ctx| {
            let vc1 = a2.open(NodeId(1), TrafficClass::Cbr).unwrap();
            let vc2 = a2.open(NodeId(1), TrafficClass::Ubr).unwrap();
            // Interleave sends on both circuits.
            for i in 0..5u8 {
                a2.send(ctx, vc2, Bytes::from(vec![100 + i])).unwrap();
                a2.send(ctx, vc1, Bytes::from(vec![i])).unwrap();
            }
        });
        sim.spawn("b", move |ctx| {
            let vc1 = b.open(NodeId(0), TrafficClass::Cbr).unwrap();
            let vc2 = b.open(NodeId(0), TrafficClass::Ubr).unwrap();
            // Drain vc1 first even though vc2 traffic arrives interleaved.
            for i in 0..5u8 {
                assert_eq!(b.recv(ctx, vc1).unwrap()[0], i);
            }
            for i in 0..5u8 {
                assert_eq!(b.recv(ctx, vc2).unwrap()[0], 100 + i);
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn oversize_pdu_rejected_at_api() {
        let sim = Sim::new();
        let (a, _b) = api_pair();
        sim.spawn("a", move |ctx| {
            let vc = a.open(NodeId(1), TrafficClass::Ubr).unwrap();
            let too_big = Bytes::from(vec![0u8; crate::aal5::MAX_PDU + 1]);
            assert_eq!(a.send(ctx, vc, too_big), Err(AtmApiError::PduTooLarge));
        });
        sim.run().assert_clean();
    }

    #[test]
    fn send_on_closed_circuit_rejected() {
        let sim = Sim::new();
        let (a, _b) = api_pair();
        sim.spawn("a", move |ctx| {
            let vc = a.open(NodeId(1), TrafficClass::Ubr).unwrap();
            a.close(vc).unwrap();
            assert_eq!(a.send(ctx, vc, Bytes::new()), Err(AtmApiError::NotOpen));
        });
        sim.run().assert_clean();
    }
}
