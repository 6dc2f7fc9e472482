//! Shared 10 Mb/s Ethernet segment — the paper's baseline LAN.
//!
//! All hosts share one half-duplex medium. Each protocol-level packet
//! becomes one frame with the 802.3 byte tax (preamble + header + FCS,
//! minimum frame padding) and is followed by the 9.6 µs inter-frame gap.
//! Access arbitration is FIFO at virtual-time resolution: a deterministic
//! idealization of CSMA/CD in which collisions never destroy frames but
//! contending stations still serialize, which matches the throughput (if
//! not the tail latency) of a moderately loaded segment.

use ncs_sim::{Dur, SimTime};

use crate::fabric::{Fabric, NodeId, TransferTiming};
use crate::link::{LinkSpec, LinkState};
use std::sync::Arc;

/// Frame overhead bytes added to every packet: preamble+SFD (8) + MAC
/// header (14) + FCS (4).
pub(crate) const FRAME_OVERHEAD: usize = 26;
/// Minimum MAC payload (packets smaller than this are padded).
pub(crate) const MIN_PAYLOAD: usize = 46;
/// Maximum MAC payload.
pub(crate) const MAX_PAYLOAD: usize = 1500;
/// Inter-frame gap at 10 Mb/s.
pub(crate) const INTERFRAME_GAP: Dur = Dur::from_micros(10); // 9.6 µs, rounded

/// The shared-medium fabric.
pub struct EthernetFabric {
    nodes: usize,
    medium: Arc<LinkState>,
}

impl EthernetFabric {
    /// Builds a segment with `nodes` hosts on [`LinkSpec::ethernet10`].
    pub fn new(nodes: usize) -> EthernetFabric {
        assert!(nodes >= 2, "a segment needs at least two hosts");
        EthernetFabric {
            nodes,
            medium: LinkState::new(LinkSpec::ethernet10()),
        }
    }

    /// Wire bytes for a protocol payload of `bytes` (≤ [`MAX_PAYLOAD`]).
    pub(crate) fn wire_bytes(bytes: usize) -> usize {
        assert!(bytes <= MAX_PAYLOAD, "packet exceeds Ethernet MTU: {bytes}");
        bytes.max(MIN_PAYLOAD) + FRAME_OVERHEAD
    }
}

impl Fabric for EthernetFabric {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        depart: SimTime,
    ) -> TransferTiming {
        assert!(src.idx() < self.nodes && dst.idx() < self.nodes);
        assert_ne!(src, dst, "loopback does not touch the wire");
        let slot = self
            .medium
            .enqueue(depart, Self::wire_bytes(payload_bytes), INTERFRAME_GAP);
        TransferTiming {
            first_hop_done: slot.end,
            arrival: slot.arrival,
            dropped: slot.lost,
        }
    }

    fn access_rate(&self, _src: NodeId) -> u64 {
        self.medium.spec.rate_bps
    }

    fn description(&self) -> String {
        format!("shared 10 Mb/s Ethernet, {} hosts", self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn wire_bytes_pads_and_taxes() {
        assert_eq!(EthernetFabric::wire_bytes(0), 46 + 26);
        assert_eq!(EthernetFabric::wire_bytes(46), 72);
        assert_eq!(EthernetFabric::wire_bytes(1500), 1526);
    }

    #[test]
    #[should_panic(expected = "exceeds Ethernet MTU")]
    fn oversized_packet_rejected() {
        EthernetFabric::wire_bytes(1501);
    }

    #[test]
    fn single_frame_timing() {
        let f = EthernetFabric::new(4);
        // 1474-byte packet -> 1500 wire bytes = 1.2 ms at 10 Mb/s.
        let tt = f.transfer(NodeId(0), NodeId(1), 1474, t(0));
        assert_eq!(tt.first_hop_done, t(1200));
        assert_eq!(tt.arrival, t(1210));
    }

    #[test]
    fn contending_hosts_serialize() {
        let f = EthernetFabric::new(4);
        let a = f.transfer(NodeId(0), NodeId(1), 1474, t(0));
        let b = f.transfer(NodeId(2), NodeId(3), 1474, t(0));
        // Second frame waits for the first plus the inter-frame gap.
        assert_eq!(
            b.first_hop_done,
            a.first_hop_done + INTERFRAME_GAP + Dur::from_micros(1200)
        );
    }

    #[test]
    fn effective_throughput_below_line_rate() {
        // Back-to-back MSS frames: 1486 wire bytes per 1460 useful bytes
        // plus the gap — about 9.7 Mb/s of goodput on a 10 Mb/s wire.
        let f = EthernetFabric::new(2);
        let mut last = SimTime::ZERO;
        let n = 100;
        for _ in 0..n {
            last = f.transfer(NodeId(0), NodeId(1), 1460, last).arrival;
        }
        let goodput = (n * 1460) as f64 * 8.0 / last.as_secs_f64();
        assert!(goodput < 9.9e6, "goodput {goodput}");
        assert!(goodput > 9.0e6, "goodput {goodput}");
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let f = EthernetFabric::new(2);
        f.transfer(NodeId(1), NodeId(1), 100, t(0));
    }
}
