//! Wire-level fabrics: who can reach whom, and when bits arrive.
//!
//! A [`Fabric`] answers one question: *if node `src` hands the wire a chunk
//! of `n` payload bytes at time `t`, when does the last bit reach `dst`?*
//! A chunk is the one granularity a fabric books: all queueing is FIFO
//! bookkeeping on [`crate::link::LinkState`]s, one slot per chunk per hop and
//! never a per-cell booking or event, which keeps multi-megabyte experiments
//! fast while preserving serialization, contention, and propagation
//! behaviour.
//!
//! Implementations: [`IdealFabric`] (tests), the shared-segment
//! [`crate::ethernet::EthernetFabric`], and the one switched ATM fabric,
//! [`crate::atm::AtmFabric`].

use ncs_sim::{Dur, SimTime};

/// A host's position on a fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index helper.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// When a booked chunk clears the sender and reaches the receiver.
#[derive(Clone, Copy, Debug)]
pub struct TransferTiming {
    /// When the chunk has fully left the sender's first-hop transmitter
    /// (the sender-side buffer holding it can be reused after this).
    pub first_hop_done: SimTime,
    /// When the last bit arrives at the destination.
    pub arrival: SimTime,
    /// The chunk was lost in flight (link outage or switch-buffer
    /// overflow); `arrival` is when it *would* have arrived. Transports
    /// must not deliver it.
    pub dropped: bool,
}

/// A wire-level topology with FIFO-queued links.
pub trait Fabric: Send + Sync + 'static {
    /// Number of attached hosts.
    fn nodes(&self) -> usize;

    /// Books a chunk of `payload_bytes` from `src` to `dst`, departing no
    /// earlier than `depart`. Framing (Ethernet headers, ATM cell tax) is
    /// the fabric's business; callers pass protocol-level bytes.
    fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        depart: SimTime,
    ) -> TransferTiming;

    /// Payload-effective rate (b/s) of `src`'s first hop, used by transport
    /// layers for send-buffer pacing.
    fn access_rate(&self, src: NodeId) -> u64;

    /// Bytes queued in the switch output port feeding `node`'s downlink at
    /// `now`. `None` when the fabric has no per-port output buffering to
    /// observe (e.g. [`IdealFabric`]). Observability hook only: reading it
    /// must not perturb timing.
    fn output_backlog(&self, node: NodeId, now: SimTime) -> Option<u64> {
        let _ = (node, now);
        None
    }

    /// Whether the route a chunk from `src` to `dst` would take at `at` is
    /// entirely severed — every link on it inside a scheduled outage
    /// window. Partition detection for the error-control layer: a sender
    /// whose loss-recovery timer fires against a severed route can fail
    /// fast instead of crawling through its retry budget. Default: never
    /// (fabrics without outage modeling are always connected). Reading it
    /// must not perturb timing.
    fn path_down(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        let _ = (src, dst, at);
        false
    }

    /// Human-readable summary for experiment reports.
    fn description(&self) -> String;
}

/// An infinitely fast fabric with a fixed one-way latency. For unit tests
/// that want to isolate protocol/CPU costs from wire behaviour.
pub struct IdealFabric {
    nodes: usize,
    latency: Dur,
}

impl IdealFabric {
    /// Creates an ideal fabric over `nodes` hosts with the given latency.
    pub fn new(nodes: usize, latency: Dur) -> IdealFabric {
        IdealFabric { nodes, latency }
    }
}

impl Fabric for IdealFabric {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        _payload_bytes: usize,
        depart: SimTime,
    ) -> TransferTiming {
        assert!(src.idx() < self.nodes && dst.idx() < self.nodes);
        TransferTiming {
            first_hop_done: depart,
            arrival: depart + self.latency,
            dropped: false,
        }
    }

    fn access_rate(&self, _src: NodeId) -> u64 {
        u64::MAX
    }

    fn description(&self) -> String {
        format!("ideal fabric, latency {}", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_fabric_fixed_latency() {
        let f = IdealFabric::new(4, Dur::from_micros(7));
        let t0 = SimTime::ZERO + Dur::from_millis(1);
        let tt = f.transfer(NodeId(0), NodeId(3), 1_000_000, t0);
        assert_eq!(tt.first_hop_done, t0);
        assert_eq!(tt.arrival, t0 + Dur::from_micros(7));
    }

    #[test]
    #[should_panic]
    fn ideal_fabric_bounds_checked() {
        let f = IdealFabric::new(2, Dur::ZERO);
        f.transfer(NodeId(0), NodeId(5), 10, SimTime::ZERO);
    }
}
