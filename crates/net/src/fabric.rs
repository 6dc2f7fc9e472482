//! Wire-level fabrics: who can reach whom, and when bits arrive.
//!
//! A [`Fabric`] answers one question: *if node `src` hands the wire a chunk
//! of `n` payload bytes at time `t`, when does the last bit reach `dst`?*
//! All queueing is FIFO bookkeeping on [`crate::link::LinkState`]s — no per-cell events —
//! which keeps multi-megabyte experiments fast while preserving
//! serialization, contention, and propagation behaviour.
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

/// Per-cell arrival geometry of a booked cell train: the whole-train
/// [`TransferTiming`] plus an arithmetically derived inter-cell spacing, so
/// transports that want per-cell instants (e.g. a per-cell-interrupt
/// receiver model) never force the fabric into per-cell bookings or the
/// kernel into per-cell bookkeeping it didn't ask for.
#[derive(Clone, Copy, Debug)]
pub struct TrainTiming {
    /// The train as a whole; `whole.arrival` is the final cell's arrival.
    pub whole: TransferTiming,
    /// Cells in the train (≥ 1).
    pub cells: usize,
    /// Spacing between consecutive cell arrivals at the destination.
    pub cell_gap: Dur,
}

impl TrainTiming {
    /// Train geometry derived arithmetically from a whole-chunk booking:
    /// cells spaced at the serialization time of `cell_wire_bytes` at
    /// `rate` b/s (exact where the last hop runs at that rate; an upper
    /// bound on bunching for multi-hop WANs), clamped so the first cell
    /// never appears to arrive before `depart`.
    pub fn paced(
        whole: TransferTiming,
        cells: usize,
        cell_wire_bytes: usize,
        rate: u64,
        depart: SimTime,
    ) -> TrainTiming {
        assert!(cells > 0, "a cell train needs at least one cell");
        let mut cell_gap = if cells == 1 || rate == u64::MAX {
            Dur::ZERO
        } else {
            Dur::for_bytes(cell_wire_bytes, rate)
        };
        let span = cell_gap * (cells - 1) as u64;
        let avail = whole.arrival.saturating_since(depart);
        if span > avail {
            cell_gap = avail / (cells - 1) as u64;
        }
        TrainTiming {
            whole,
            cells,
            cell_gap,
        }
    }

    /// Arrival instant of cell `i` (0-based): the last cell lands at
    /// `whole.arrival`, earlier cells one `cell_gap` apart before it.
    pub fn cell_arrival(&self, i: usize) -> SimTime {
        assert!(i < self.cells, "cell index out of train");
        self.whole.arrival - self.cell_gap * (self.cells - 1 - i) as u64
    }

    /// Arrival instant of the train's first cell. With
    /// [`TrainTiming::cell_gap`], this is all a transport needs to schedule
    /// the whole train as one self-rearming kernel event
    /// (`Sim::schedule_count_train`) instead of per-cell closures.
    pub fn first_arrival(&self) -> SimTime {
        self.cell_arrival(0)
    }
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

    /// Books `payload_bytes` as a train of `cells` cells of
    /// `cell_wire_bytes` wire bytes each, and reports per-cell arrival
    /// geometry. The default books via [`Fabric::transfer`] and paces the
    /// cells at the access-link rate ([`TrainTiming::paced`]).
    fn transfer_train(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        cells: usize,
        cell_wire_bytes: usize,
        depart: SimTime,
    ) -> TrainTiming {
        let whole = self.transfer(src, dst, payload_bytes, depart);
        TrainTiming::paced(whole, cells, cell_wire_bytes, self.access_rate(src), depart)
    }

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

    #[test]
    fn default_train_timing_is_arithmetic() {
        // An ideal fabric is infinitely fast: all cells of a train land
        // together at the whole-train arrival.
        let f = IdealFabric::new(2, Dur::from_micros(3));
        let t0 = SimTime::ZERO + Dur::from_millis(2);
        let train = f.transfer_train(NodeId(0), NodeId(1), 480, 11, 53, t0);
        assert_eq!(train.cells, 11);
        assert_eq!(train.cell_gap, Dur::ZERO);
        assert_eq!(train.cell_arrival(0), train.whole.arrival);
        assert_eq!(train.cell_arrival(10), train.whole.arrival);
        assert_eq!(train.whole.arrival, t0 + Dur::from_micros(3));
    }
}
