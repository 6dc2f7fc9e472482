//! The switched ATM fabric: one hop loop under four topologies — the FORE
//! single-switch LAN, the NYNET wide-area testbed, a campus fat-tree and a
//! wide-area ring.
//!
//! Chunks are carried as AAL5 PDUs: the fabric converts payload bytes to a
//! cell count (48 payload bytes per 53-byte cell plus the 8-byte trailer)
//! and books `cells × 53` wire bytes on every link of the route. Switching
//! is output-buffered with a fixed per-chunk switch latency; queueing falls
//! out of the per-link FIFO bookkeeping.
//!
//! Store-and-forward is applied per chunk at each hop. Real ATM switches
//! cut through per cell, so multi-hop latency for large chunks is slightly
//! overestimated; transports keep chunks at MTU/buffer size (≤ 16 KB), which
//! bounds the error to well under a millisecond per hop.
//!
//! [`AtmFabric`] owns every link in three flat banks (uplinks, downlinks,
//! trunks) and the one booking loop; a [`Topology`] only says *which
//! trunks, in order* join two hosts' switches. Routes are a pure function
//! of the endpoint pair, so [`Fabric::path_down`] answers partition queries
//! over exactly the links a chunk would traverse.

use ncs_sim::{Dur, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::aal5;
use crate::cell::CELL_BYTES;
use crate::fabric::{Fabric, NodeId, TransferTiming};
use crate::link::{LinkSpec, LinkState};
use crate::wan::{FatTreeParams, WanRingParams, CAMPUS_TRUNK};

/// Wire bytes for an AAL5-framed chunk of `payload` bytes.
pub(crate) fn atm_wire_bytes(payload: usize) -> usize {
    aal5::cells_for_pdu(payload) * CELL_BYTES
}

/// Does a chunk arriving at `link`'s output port at `at` find the buffer
/// already full? `None` models an infinite buffer.
///
/// Cut-through occupancy: the port streams the incoming chunk out cell by
/// cell while it arrives, so the chunk's own wire size never piles up —
/// only the backlog of *other* chunks' cells still queued ahead of it
/// counts. A chunk whose own cell count exceeds the capacity can therefore
/// still flow through an empty port; it is dropped only when the buffer is
/// already occupied to capacity when its first cell shows up.
fn output_buffer_full(link: &LinkState, at: SimTime, cap: Option<usize>) -> bool {
    match cap {
        Some(cells) => link.backlog_bytes(at) as usize / CELL_BYTES >= cells,
        None => false,
    }
}

/// Which switch of `count` a host hangs off when hosts are dealt out in
/// blocks of `per` (the last switch takes the remainder).
pub(crate) fn block_of(node: NodeId, per: usize, count: usize) -> usize {
    (node.idx() / per).min(count - 1)
}

/// Every host's access link on every topology, both directions: FORE's
/// TAXI-140 host interface.
pub(crate) const ACCESS: LinkSpec = LinkSpec::taxi_140();

/// Fixed per-chunk latency through every FORE switch: the LAN switch,
/// NYNET's site switches and backbone hop, fat-tree edges and cores, ring
/// sites, and the sharded model's site switches.
pub(crate) const SWITCH_LATENCY: Dur = Dur::from_micros(20);

/// NYNET's site-to-backbone trunk: OC-3c with 50 µs of propagation.
const NYNET_TRUNK: LinkSpec = LinkSpec::oc3(Dur::from_micros(50));

/// One-way upstate–downstate propagation, paid once per crossing on the
/// NYNET backbone hop.
const BACKBONE_PROPAGATION: Dur = Dur::from_millis(1);

/// Parameters of a single-switch ATM LAN.
#[derive(Clone, Debug)]
pub struct AtmLanParams {
    /// Number of attached hosts.
    pub(crate) nodes: usize,
}

impl AtmLanParams {
    /// The paper's configuration: TAXI-140 access into one FORE switch.
    pub fn fore_lan(nodes: usize) -> AtmLanParams {
        AtmLanParams { nodes }
    }
}

/// Parameters of the NYNET-style wide-area testbed: two (or more) ATM LAN
/// sites joined by OC-3c trunks over a shared backbone.
#[derive(Clone, Debug)]
pub struct NynetParams {
    /// Total hosts; they are split evenly across sites (first half at site
    /// 0, and so on), matching how the paper spreads a computation across
    /// the testbed.
    pub nodes: usize,
    /// Number of sites.
    pub sites: usize,
    /// Shared backbone link; its propagation is the wide-area crossing.
    /// There is exactly **one**: traffic in both directions, between every
    /// site pair, contends on the same FIFO. (A real SONET span is full
    /// duplex; the single queue is what Tables 1–3 were calibrated against,
    /// so it stays.)
    pub backbone: LinkSpec,
}

impl NynetParams {
    /// The paper's testbed shape: TAXI access, OC-3 site trunks, an OC-48
    /// backbone, and upstate–downstate propagation on the order of a
    /// millisecond.
    pub fn nynet(nodes: usize) -> NynetParams {
        NynetParams {
            nodes,
            sites: 2,
            backbone: LinkSpec::oc48(BACKBONE_PROPAGATION),
        }
    }

    /// Variant routed over the DS-3 upstate–downstate link.
    pub fn nynet_ds3(nodes: usize) -> NynetParams {
        NynetParams {
            backbone: LinkSpec::ds3(BACKBONE_PROPAGATION),
            ..NynetParams::nynet(nodes)
        }
    }

    /// Which site a node lives at.
    pub(crate) fn site_of(&self, node: NodeId) -> usize {
        block_of(node, self.nodes.div_ceil(self.sites), self.sites)
    }
}

/// The shape of a switched fabric: where the trunks are and which of them,
/// in order, a chunk crosses between its source's switch and its
/// destination's. Each variant wraps the public description it is built
/// from and fixes the layout of [`AtmFabric::trunk_links`].
#[derive(Clone, Debug)]
pub enum Topology {
    /// One switch, no trunks.
    Star(AtmLanParams),
    /// Sites on a shared backbone. Trunks: site→backbone per site, then
    /// backbone→site per site, then the backbone.
    Nynet(NynetParams),
    /// Edge switches under core switches. Trunks: edge→core (edge-major),
    /// then core→edge (edge-major).
    FatTree(FatTreeParams),
    /// Sites on a ring, shortest direction, clockwise on ties. Trunks: the
    /// clockwise segment leaving each site, then the counter-clockwise
    /// segment entering each site.
    Ring(WanRingParams),
}

impl From<AtmLanParams> for Topology {
    fn from(p: AtmLanParams) -> Topology {
        Topology::Star(p)
    }
}

impl From<NynetParams> for Topology {
    fn from(p: NynetParams) -> Topology {
        Topology::Nynet(p)
    }
}

impl From<FatTreeParams> for Topology {
    fn from(p: FatTreeParams) -> Topology {
        Topology::FatTree(p)
    }
}

impl From<WanRingParams> for Topology {
    fn from(p: WanRingParams) -> Topology {
        Topology::Ring(p)
    }
}

/// The trunks of one route as indices into the fabric's trunk bank, in hop
/// order. A by-value iterator: booking a transfer allocates nothing.
enum Route {
    /// Up to three trunks named outright: `hops[next..len]` are still ahead.
    Hops {
        hops: [usize; 3],
        next: usize,
        len: usize,
    },
    /// `left` consecutive ring segments in the bank half starting at
    /// `base`, from `site` stepping `step` sites (mod `sites`) per hop.
    Ring {
        base: usize,
        site: usize,
        step: usize,
        sites: usize,
        left: usize,
    },
}

impl Route {
    /// Same-switch route: no trunk at all.
    const DIRECT: Route = Route::Hops {
        hops: [0; 3],
        next: 0,
        len: 0,
    };
}

impl Iterator for Route {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Route::Hops { hops, next, len } => (*next < *len).then(|| {
                *next += 1;
                hops[*next - 1]
            }),
            Route::Ring {
                base,
                site,
                step,
                sites,
                left,
            } => (*left > 0).then(|| {
                let trunk = *base + *site;
                *site = (*site + *step) % *sites;
                *left -= 1;
                trunk
            }),
        }
    }
}

impl Topology {
    fn nodes(&self) -> usize {
        match self {
            Topology::Star(p) => p.nodes,
            Topology::Nynet(p) => p.nodes,
            Topology::FatTree(p) => p.nodes,
            Topology::Ring(p) => p.nodes,
        }
    }

    /// One spec per trunk, in the layout the variant documents and
    /// [`Topology::route`] indexes.
    fn trunk_specs(&self) -> Vec<LinkSpec> {
        match self {
            Topology::Star(_) => Vec::new(),
            Topology::Nynet(p) => {
                assert!(p.sites >= 2, "a WAN needs at least two sites");
                let mut specs = vec![NYNET_TRUNK; 2 * p.sites];
                specs.push(p.backbone.clone());
                specs
            }
            Topology::FatTree(p) => {
                assert!(p.hosts_per_edge >= 1 && p.cores >= 1);
                vec![CAMPUS_TRUNK; 2 * p.edges() * p.cores]
            }
            Topology::Ring(p) => {
                assert!(p.sites >= 2, "a ring needs at least two sites");
                assert_eq!(
                    p.segments.len(),
                    p.sites,
                    "one long-haul segment per ring position"
                );
                [p.segments.as_slice(), p.segments.as_slice()].concat()
            }
        }
    }

    /// The trunks a chunk from `src` to `dst` crosses, in hop order — a
    /// pure function of the endpoint pair, so repeated chunks of one
    /// conversation share a path (no reordering). Inlined into the hop loop:
    /// as a call it costs the single-switch booking about a nanosecond in
    /// fifty (`xp_micro fabric-booking/atm-lan-transfer`).
    #[inline(always)]
    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        match self {
            Topology::Star(_) => Route::DIRECT,
            Topology::Nynet(p) => match (p.site_of(src), p.site_of(dst)) {
                (a, b) if a == b => Route::DIRECT,
                (a, b) => Route::Hops {
                    hops: [a, 2 * p.sites, p.sites + b],
                    next: 0,
                    len: 3,
                },
            },
            Topology::FatTree(p) => match (p.edge_of(src), p.edge_of(dst)) {
                (a, b) if a == b => Route::DIRECT,
                (a, b) => {
                    let core = p.core_for(src, dst);
                    let down = (p.edges() + b) * p.cores + core;
                    Route::Hops {
                        hops: [a * p.cores + core, down, 0],
                        next: 0,
                        len: 2,
                    }
                }
            },
            Topology::Ring(p) => {
                let (a, b, sites) = (p.site_of(src), p.site_of(dst), p.sites);
                let cw = (b + sites - a) % sites;
                let ccw = (a + sites - b) % sites;
                if cw <= ccw {
                    Route::Ring {
                        base: 0,
                        site: a,
                        step: 1,
                        sites,
                        left: cw,
                    }
                } else {
                    // Entering site `a - 1` first, then one site back per hop.
                    Route::Ring {
                        base: sites,
                        site: (a + sites - 1) % sites,
                        step: sites - 1,
                        sites,
                        left: ccw,
                    }
                }
            }
        }
    }

    fn describe(&self) -> String {
        let access = ACCESS.name;
        match self {
            Topology::Star(p) => format!(
                "ATM LAN: {} hosts, {access} access, 1 switch ({SWITCH_LATENCY} latency)",
                p.nodes
            ),
            Topology::Nynet(p) => format!(
                "NYNET WAN: {} hosts over {} sites, {access} access, {} trunks, {} backbone, {} WAN propagation",
                p.nodes, p.sites, NYNET_TRUNK.name, p.backbone.name, p.backbone.propagation
            ),
            Topology::FatTree(p) => format!(
                "fat-tree: {} hosts, {} edges x {} cores, {access} access, {} trunks",
                p.nodes,
                p.edges(),
                p.cores,
                CAMPUS_TRUNK.name
            ),
            Topology::Ring(p) => {
                let grades: Vec<&str> = p.segments.iter().map(|s| s.name).collect();
                format!(
                    "WAN ring: {} hosts over {} sites, {access} access, segments [{}]",
                    p.nodes,
                    p.sites,
                    grades.join(", ")
                )
            }
        }
    }
}

/// A switched ATM fabric: every host has a dedicated full-duplex access
/// link to an output-buffered switch, and the switches are joined by the
/// trunks its [`Topology`] lays out. Built from any of the `*Params`
/// descriptions: `AtmFabric::new(AtmLanParams::fore_lan(8))`,
/// `AtmFabric::new(WanRingParams::mixed_ring(64, 4))`, …
///
/// This is the one place a chunk is booked onto wires.
pub struct AtmFabric {
    topology: Topology,
    nodes: usize,
    /// Output-port buffer capacity in cells at every switch output;
    /// `None` = infinite.
    output_buffer_cells: Option<usize>,
    /// Host → switch direction, per host.
    uplinks: Vec<Arc<LinkState>>,
    /// Switch → host direction, per host.
    downlinks: Vec<Arc<LinkState>>,
    /// Switch-to-switch links, in the topology's layout.
    trunks: Vec<Arc<LinkState>>,
    overflow_drops: AtomicU64,
}

/// The name the single-switch LAN was built under before the four fabrics
/// became one; `benchmark/` (frozen) still spells it this way.
pub type AtmLanFabric = AtmFabric;

impl AtmFabric {
    /// Builds the fabric a `*Params` description (or a [`Topology`]) names.
    pub fn new(topology: impl Into<Topology>) -> AtmFabric {
        let topology = topology.into();
        let nodes = topology.nodes();
        assert!(nodes >= 2, "a fabric needs at least two hosts");
        let access_links = || (0..nodes).map(|_| LinkState::new(ACCESS)).collect();
        AtmFabric {
            nodes,
            output_buffer_cells: None,
            uplinks: access_links(),
            downlinks: access_links(),
            trunks: topology
                .trunk_specs()
                .into_iter()
                .map(LinkState::new)
                .collect(),
            overflow_drops: AtomicU64::new(0),
            topology,
        }
    }

    /// Caps every switch output port at `cells` cells of buffering: a chunk
    /// arriving at a port whose queue already holds that many cells is
    /// dropped whole. `None`, what [`AtmFabric::new`] builds, is an
    /// infinite buffer.
    pub fn with_output_buffer(mut self, cells: Option<usize>) -> AtmFabric {
        self.output_buffer_cells = cells;
        self
    }

    /// The host→switch link of `node`, for flap scheduling and inspection.
    pub fn uplink(&self, node: NodeId) -> &Arc<LinkState> {
        &self.uplinks[node.idx()]
    }

    /// The switch→host link of `node`.
    pub fn downlink(&self, node: NodeId) -> &Arc<LinkState> {
        &self.downlinks[node.idx()]
    }

    /// Switch-to-switch links (trunks, backbone, ring long-hauls) in the
    /// stable order the [`Topology`] variant documents; empty for a single
    /// switch.
    pub fn trunk_links(&self) -> &[Arc<LinkState>] {
        &self.trunks
    }

    /// Chunks dropped to finite switch output buffers so far.
    pub fn overflow_drop_count(&self) -> u64 {
        self.overflow_drops.load(Ordering::Relaxed)
    }

    /// Chunks lost to scheduled link outages so far, across all links.
    pub fn flap_loss_count(&self) -> u64 {
        self.uplinks
            .iter()
            .chain(&self.downlinks)
            .chain(&self.trunks)
            .map(|l| l.flap_losses())
            .sum()
    }

    /// The hop loop, and the only place a chunk is put on a wire: books
    /// `wire_bytes` on the uplink, then the route's trunks in order, then
    /// `dst`'s downlink. Every hop after the uplink is fed by a switch and
    /// can overflow that switch's output buffer, which drops the chunk
    /// whole there.
    fn book(&self, src: NodeId, dst: NodeId, wire_bytes: usize, depart: SimTime) -> TransferTiming {
        assert!(src.idx() < self.nodes && dst.idx() < self.nodes);
        assert_ne!(src, dst, "loopback does not touch the fabric");
        let lat = SWITCH_LATENCY;
        let up = self.uplinks[src.idx()].enqueue(depart, wire_bytes, Dur::ZERO);
        let mut lost = up.lost;
        let mut at = up.arrival + lat;
        let mut route = self.topology.route(src, dst);
        loop {
            let trunk = route.next();
            let link = match trunk {
                Some(trunk) => &self.trunks[trunk],
                None => &self.downlinks[dst.idx()],
            };
            if output_buffer_full(link, at, self.output_buffer_cells) {
                self.overflow_drops.fetch_add(1, Ordering::Relaxed);
                return TransferTiming {
                    first_hop_done: up.end,
                    arrival: at,
                    dropped: true,
                };
            }
            let slot = link.enqueue(at, wire_bytes, Dur::ZERO);
            lost |= slot.lost;
            if trunk.is_none() {
                // The downlink ends at the host, not another switch.
                return TransferTiming {
                    first_hop_done: up.end,
                    arrival: slot.arrival,
                    dropped: lost,
                };
            }
            at = slot.arrival + lat;
        }
    }
}

impl Fabric for AtmFabric {
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
        self.book(src, dst, atm_wire_bytes(payload_bytes), depart)
    }

    fn access_rate(&self, _src: NodeId) -> u64 {
        ACCESS.rate_bps
    }

    fn output_backlog(&self, node: NodeId, now: SimTime) -> Option<u64> {
        Some(self.downlink(node).backlog_bytes(now))
    }

    fn path_down(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        // The route is unique and switches never fail, so the path is
        // severed iff some link on it is out.
        self.uplinks[src.idx()].is_down(at)
            || self.downlinks[dst.idx()].is_down(at)
            || self
                .topology
                .route(src, dst)
                .any(|trunk| self.trunks[trunk].is_down(at))
    }

    fn description(&self) -> String {
        self.topology.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn wire_bytes_cell_quantized() {
        assert_eq!(atm_wire_bytes(1), 53);
        assert_eq!(atm_wire_bytes(40), 53);
        assert_eq!(atm_wire_bytes(41), 106);
        assert_eq!(atm_wire_bytes(9140), atm_wire_bytes(9140));
        // 9140 + 8 = 9148 -> 191 cells
        assert_eq!(atm_wire_bytes(9140), 191 * 53);
    }

    #[test]
    fn lan_two_hop_timing() {
        let f = AtmFabric::new(AtmLanParams::fore_lan(4));
        let tt = f.transfer(NodeId(0), NodeId(1), 40, t(0));
        // One cell: 53 B at 140 Mb/s = 3.028 us per hop.
        let hop = LinkSpec::taxi_140().tx_time(53);
        let expect = SimTime::ZERO
            + hop // uplink
            + Dur::from_micros(5) // uplink propagation
            + Dur::from_micros(20) // switch
            + hop // downlink
            + Dur::from_micros(5); // downlink propagation
        assert_eq!(tt.arrival, expect);
        assert_eq!(tt.first_hop_done, SimTime::ZERO + hop);
    }

    #[test]
    fn lan_output_port_contention() {
        let f = AtmFabric::new(AtmLanParams::fore_lan(4));
        // Two senders target the same destination: downlink serializes.
        let big = 14_000; // ~292 cells
        let a = f.transfer(NodeId(0), NodeId(3), big, t(0));
        let b = f.transfer(NodeId(1), NodeId(3), big, t(0));
        assert!(b.arrival > a.arrival, "output port must serialize");
        // But their uplinks are independent:
        assert_eq!(a.first_hop_done, b.first_hop_done);
    }

    #[test]
    fn lan_distinct_destinations_parallel() {
        let f = AtmFabric::new(AtmLanParams::fore_lan(4));
        let a = f.transfer(NodeId(0), NodeId(2), 14_000, t(0));
        let b = f.transfer(NodeId(1), NodeId(3), 14_000, t(0));
        assert_eq!(a.arrival, b.arrival, "disjoint paths do not interfere");
    }

    #[test]
    fn wan_crossing_pays_propagation() {
        let p = NynetParams::nynet(4); // nodes 0,1 at site 0; 2,3 at site 1
        let f = AtmFabric::new(p);
        let local = f.transfer(NodeId(0), NodeId(1), 1000, t(0));
        let remote = f.transfer(NodeId(0), NodeId(2), 1000, t(0));
        assert!(remote.arrival.since(local.arrival) >= Dur::from_millis(1));
    }

    #[test]
    fn site_assignment_splits_evenly() {
        let p = NynetParams::nynet(8);
        assert_eq!(p.site_of(NodeId(0)), 0);
        assert_eq!(p.site_of(NodeId(3)), 0);
        assert_eq!(p.site_of(NodeId(4)), 1);
        assert_eq!(p.site_of(NodeId(7)), 1);
    }

    #[test]
    fn ds3_slower_than_oc48_backbone() {
        let big = 16_000;
        let f1 = AtmFabric::new(NynetParams::nynet(4));
        let f2 = AtmFabric::new(NynetParams::nynet_ds3(4));
        let a = f1.transfer(NodeId(0), NodeId(2), big, t(0));
        let b = f2.transfer(NodeId(0), NodeId(2), big, t(0));
        assert!(b.arrival > a.arrival);
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn cross_site_flows_share_the_trunk() {
        // Nodes 0,1 at site 0; 2,3 at site 1. Two simultaneous cross-site
        // bulk transfers from different sources serialize on the shared
        // site-0 uplink trunk; a DS-3 backbone makes it worse.
        let f = AtmFabric::new(NynetParams::nynet_ds3(4));
        let solo = {
            let f2 = AtmFabric::new(NynetParams::nynet_ds3(4));
            f2.transfer(NodeId(0), NodeId(2), 100_000, t(0)).arrival
        };
        let a = f.transfer(NodeId(0), NodeId(2), 100_000, t(0)).arrival;
        let b = f.transfer(NodeId(1), NodeId(3), 100_000, t(0)).arrival;
        assert_eq!(a, solo, "first flow unaffected");
        assert!(
            b.since(SimTime::ZERO) > solo.since(SimTime::ZERO),
            "second flow must queue behind the first on the trunk/backbone"
        );
    }

    #[test]
    fn intra_site_flows_avoid_the_backbone() {
        let f = AtmFabric::new(NynetParams::nynet_ds3(4));
        // Saturate the backbone with cross-site traffic…
        for _ in 0..4 {
            f.transfer(NodeId(0), NodeId(2), 100_000, t(0));
        }
        // …an intra-site transfer on untouched access links is unaffected
        // (2 -> 3: neither endpoint's links carry the cross-site flows).
        let local = f.transfer(NodeId(2), NodeId(3), 1_000, t(0));
        let fresh =
            AtmFabric::new(NynetParams::nynet_ds3(4)).transfer(NodeId(2), NodeId(3), 1_000, t(0));
        assert_eq!(local.arrival, fresh.arrival);
    }

    #[test]
    fn finite_output_buffer_drops_under_fanin() {
        // Two senders blast one destination through a 64-cell output port:
        // the second chunk finds the port full and is dropped whole.
        let f = AtmFabric::new(AtmLanParams::fore_lan(4)).with_output_buffer(Some(64));
        let big = 14_000; // ~292 cells, far beyond the port buffer
        let a = f.transfer(NodeId(0), NodeId(3), big, t(0));
        let b = f.transfer(NodeId(1), NodeId(3), big, t(0));
        assert!(!a.dropped, "first chunk finds an empty buffer");
        assert!(b.dropped, "second chunk must overflow the port");
        assert_eq!(f.overflow_drop_count(), 1);
    }

    #[test]
    fn infinite_buffer_never_overflows() {
        let f = AtmFabric::new(AtmLanParams::fore_lan(4));
        for _ in 0..20 {
            let tt = f.transfer(NodeId(0), NodeId(3), 14_000, t(0));
            assert!(!tt.dropped);
        }
        assert_eq!(f.overflow_drop_count(), 0);
    }

    #[test]
    fn lan_flap_on_uplink_drops_chunk() {
        let f = AtmFabric::new(AtmLanParams::fore_lan(4));
        f.uplink(NodeId(0)).schedule_flap(t(0), t(10));
        let tt = f.transfer(NodeId(0), NodeId(1), 40, t(0));
        assert!(tt.dropped);
        assert_eq!(f.flap_loss_count(), 1);
        // Traffic from an unaffected host is clean.
        let ok = f.transfer(NodeId(2), NodeId(1), 40, t(0));
        assert!(!ok.dropped);
    }

    #[test]
    fn wan_backbone_flap_only_hits_cross_site_traffic() {
        let f = AtmFabric::new(NynetParams::nynet(4));
        f.trunk_links()[4].schedule_flap(t(0), t(100_000));
        let local = f.transfer(NodeId(0), NodeId(1), 1000, t(0));
        let remote = f.transfer(NodeId(0), NodeId(2), 1000, t(0));
        assert!(!local.dropped, "intra-site traffic avoids the backbone");
        assert!(remote.dropped, "cross-site traffic crosses the dead trunk");
        assert_eq!(f.flap_loss_count(), 1);
    }

    #[test]
    fn wan_overflow_counts_and_drops() {
        let f = AtmFabric::new(NynetParams::nynet_ds3(4)).with_output_buffer(Some(32));
        // Saturate the slow DS-3 backbone with cross-site bulk transfers.
        let mut dropped = 0;
        for _ in 0..8 {
            if f.transfer(NodeId(0), NodeId(2), 16_000, t(0)).dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "backbone queue must overflow");
        assert_eq!(f.overflow_drop_count(), dropped);
    }

    #[test]
    fn more_sites_spread_hosts() {
        let mut p = NynetParams::nynet(9);
        p.sites = 3;
        assert_eq!(p.site_of(NodeId(0)), 0);
        assert_eq!(p.site_of(NodeId(3)), 1);
        assert_eq!(p.site_of(NodeId(8)), 2);
        let f = AtmFabric::new(p);
        // Cross-site pairs in disjoint sites do not interfere.
        let a = f.transfer(NodeId(0), NodeId(3), 50_000, t(0));
        let b = f.transfer(NodeId(6), NodeId(4), 50_000, t(0));
        // Both use the shared backbone, so at most one is delayed, but
        // site trunks are disjoint.
        assert!(b.arrival >= a.first_hop_done);
    }
}
