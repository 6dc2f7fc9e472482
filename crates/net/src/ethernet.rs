//! Shared 10 Mb/s Ethernet segment — the paper's baseline LAN.
//!
//! All hosts share one half-duplex medium. Each protocol-level packet
//! becomes one frame with the 802.3 byte tax (preamble + header + FCS,
//! minimum frame padding) and is followed by the 9.6 µs inter-frame gap.
//! Access arbitration is FIFO at virtual-time resolution: a deterministic
//! idealization of CSMA/CD in which collisions never destroy frames but
//! contending stations still serialize, which matches the throughput (if
//! not the tail latency) of a moderately loaded segment.

use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, SimRng, SimTime};

use crate::fabric::{Fabric, NodeId, TransferTiming};
use crate::link::{LinkSpec, LinkState};
use std::sync::Arc;

/// Frame overhead bytes added to every packet: preamble+SFD (8) + MAC
/// header (14) + FCS (4).
pub const FRAME_OVERHEAD: usize = 26;
/// Minimum MAC payload (packets smaller than this are padded).
pub const MIN_PAYLOAD: usize = 46;
/// Maximum MAC payload.
pub const MAX_PAYLOAD: usize = 1500;
/// Inter-frame gap at 10 Mb/s.
pub const INTERFRAME_GAP: Dur = Dur::from_micros(10); // 9.6 µs, rounded

/// Parameters for an Ethernet segment.
#[derive(Clone, Debug)]
pub struct EthernetParams {
    /// Number of attached hosts.
    pub nodes: usize,
    /// One-way propagation across the segment.
    pub propagation: Dur,
    /// CSMA/CD contention jitter: when the medium is already busy at frame
    /// submission, add a seeded pseudo-random backoff of up to this many
    /// slot times (51.2 µs each). Zero (the default) keeps the pure FIFO
    /// idealization.
    pub max_backoff_slots: u32,
    /// Seed for the backoff draw.
    pub jitter_seed: u64,
}

impl EthernetParams {
    /// A segment with `nodes` hosts and default timing (no jitter).
    pub fn new(nodes: usize) -> EthernetParams {
        EthernetParams {
            nodes,
            propagation: Dur::from_micros(10),
            max_backoff_slots: 0,
            jitter_seed: 0xE7E7,
        }
    }

    /// Enables contention backoff with up to `slots` slot times of jitter.
    pub fn with_backoff(mut self, slots: u32) -> EthernetParams {
        self.max_backoff_slots = slots;
        self
    }
}

/// The 10 Mb/s slot time (512 bit times).
pub const SLOT_TIME: Dur = Dur::from_ps(51_200_000);

/// The shared-medium fabric.
pub struct EthernetFabric {
    params: EthernetParams,
    medium: Arc<LinkState>,
    rng: Mutex<SimRng>,
}

impl EthernetFabric {
    /// Builds the segment.
    pub fn new(params: EthernetParams) -> EthernetFabric {
        assert!(params.nodes >= 2, "a segment needs at least two hosts");
        let mut spec = LinkSpec::ethernet10();
        spec.propagation = params.propagation;
        EthernetFabric {
            medium: LinkState::new(spec),
            rng: Mutex::new(SimRng::new(params.jitter_seed)),
            params,
        }
    }

    /// Wire bytes for a protocol payload of `bytes` (≤ [`MAX_PAYLOAD`]).
    pub fn wire_bytes(bytes: usize) -> usize {
        assert!(bytes <= MAX_PAYLOAD, "packet exceeds Ethernet MTU: {bytes}");
        bytes.max(MIN_PAYLOAD) + FRAME_OVERHEAD
    }

    /// The shared medium's utilization in `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.medium.utilization(now)
    }

    /// Total frames carried.
    pub fn frames_carried(&self) -> u64 {
        self.medium.chunks_carried()
    }
}

impl Fabric for EthernetFabric {
    fn nodes(&self) -> usize {
        self.params.nodes
    }

    fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        depart: SimTime,
    ) -> TransferTiming {
        assert!(src.idx() < self.params.nodes && dst.idx() < self.params.nodes);
        assert_ne!(src, dst, "loopback does not touch the wire");
        // Contention backoff: a station finding the wire busy costs the
        // segment a pseudo-random number of collision/backoff slot times
        // (dead wire) before its frame serializes.
        if self.params.max_backoff_slots > 0 && !self.medium.backlog(depart).is_zero() {
            let slots = self
                .rng
                .lock()
                .gen_range(u64::from(self.params.max_backoff_slots) + 1);
            if slots > 0 {
                self.medium.occupy(depart, SLOT_TIME.times(slots));
            }
        }
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
        format!("shared 10 Mb/s Ethernet, {} hosts", self.params.nodes)
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
        let f = EthernetFabric::new(EthernetParams::new(4));
        // 1474-byte packet -> 1500 wire bytes = 1.2 ms at 10 Mb/s.
        let tt = f.transfer(NodeId(0), NodeId(1), 1474, t(0));
        assert_eq!(tt.first_hop_done, t(1200));
        assert_eq!(tt.arrival, t(1210));
    }

    #[test]
    fn contending_hosts_serialize() {
        let f = EthernetFabric::new(EthernetParams::new(4));
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
        let f = EthernetFabric::new(EthernetParams::new(2));
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
        let f = EthernetFabric::new(EthernetParams::new(2));
        f.transfer(NodeId(1), NodeId(1), 100, t(0));
    }
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn backoff_only_fires_under_contention() {
        let f = EthernetFabric::new(EthernetParams::new(2).with_backoff(8));
        // Idle wire: no jitter ever.
        let a = f.transfer(NodeId(0), NodeId(1), 100, t(0));
        assert_eq!(a.first_hop_done, t(0) + f.medium.spec.tx_time(126));
        // Busy wire: the second frame starts no earlier than FIFO would
        // allow, possibly later by whole slot times of collision waste.
        let b = f.transfer(NodeId(1), NodeId(0), 100, t(0));
        let fifo_done = a.first_hop_done + INTERFRAME_GAP + f.medium.spec.tx_time(126);
        assert!(b.first_hop_done >= fifo_done);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p = EthernetParams::new(2).with_backoff(16);
            p.jitter_seed = seed;
            let f = EthernetFabric::new(p);
            let mut ends = Vec::new();
            for i in 0..20u64 {
                let tt = f.transfer(NodeId(0), NodeId(1), 1000, t(i));
                ends.push(tt.arrival);
            }
            ends
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn heavy_contention_with_backoff_slower_than_fifo() {
        let fifo = EthernetFabric::new(EthernetParams::new(4));
        let jitter = EthernetFabric::new(EthernetParams::new(4).with_backoff(16));
        let mut last_fifo = SimTime::ZERO;
        let mut last_jit = SimTime::ZERO;
        for i in 0..30u64 {
            let at = t(i); // everyone piles on at nearly the same instant
            last_fifo = last_fifo.max(fifo.transfer(NodeId(0), NodeId(1), 1400, at).arrival);
            last_jit = last_jit.max(jitter.transfer(NodeId(0), NodeId(1), 1400, at).arrival);
        }
        assert!(last_jit > last_fifo, "backoff must cost time under load");
    }
}
