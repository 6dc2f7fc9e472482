//! Multi-switch WAN-scale topologies — a campus fat-tree and a wide-area
//! ring with DS-3/OC-48 long-haul segments — plus deterministic VBR
//! cross-traffic generators that contend with application traffic on the
//! same links.
//!
//! The two `*Params` here describe shapes of the one switched fabric,
//! [`crate::atm::AtmFabric`], and follow its conventions: chunks ride as
//! AAL5 cell streams, every hop is a FIFO-queued [`crate::link::LinkState`]
//! with payload-effective rates and per-link propagation, switching is
//! output-buffered with a fixed per-chunk switch latency, and finite output
//! buffers drop whole chunks on overflow.

use ncs_sim::{Dur, Sim, SimRng, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::atm::block_of;
use crate::fabric::{Fabric, NodeId};
use crate::link::LinkSpec;

/// The fat-tree's edge↔core trunk: OC-3c with 20 µs of propagation.
pub(crate) const CAMPUS_TRUNK: LinkSpec = LinkSpec::oc3(Dur::from_micros(20));

/// Bytes per VBR chunk (one CS-PDU's worth).
const VBR_CHUNK_BYTES: usize = 4096;
/// Mean VBR ON-period length (actual periods jitter 0.5×–1.5×, seeded).
const VBR_MEAN_ON: Dur = Dur::from_millis(1);
/// Mean VBR OFF-period length (same jitter law).
const VBR_MEAN_OFF: Dur = Dur::from_millis(3);

/// Parameters of a two-level fat-tree (edge switches × core switches).
#[derive(Clone, Debug)]
pub struct FatTreeParams {
    /// Total attached hosts.
    pub nodes: usize,
    /// Hosts per edge switch.
    pub hosts_per_edge: usize,
    /// Number of core switches (each edge has an up/down link pair to every
    /// core).
    pub cores: usize,
}

impl FatTreeParams {
    /// A campus-scale build-out of the paper's FORE LAN: TAXI access into
    /// edge switches, OC-3 trunks up to two cores.
    pub fn campus(nodes: usize) -> FatTreeParams {
        FatTreeParams {
            nodes,
            hosts_per_edge: 8,
            cores: 2,
        }
    }

    /// Which edge switch a host hangs off.
    pub fn edge_of(&self, node: NodeId) -> usize {
        node.idx() / self.hosts_per_edge
    }

    /// Number of edge switches.
    pub fn edges(&self) -> usize {
        self.nodes.div_ceil(self.hosts_per_edge)
    }

    /// Deterministic core pick for a host pair: a pure function of the
    /// endpoints, so repeated chunks of one conversation share a path (no
    /// reordering) and [`Fabric::path_down`] can reason about the exact
    /// route.
    pub fn core_for(&self, src: NodeId, dst: NodeId) -> usize {
        (src.idx() + dst.idx()) % self.cores
    }
}

/// Parameters of a wide-area ring: `sites` single-switch islands joined by
/// unidirectional long-haul segment pairs, shortest-direction routed.
#[derive(Clone, Debug)]
pub struct WanRingParams {
    /// Total hosts, split evenly across sites (first chunk at site 0, …).
    pub nodes: usize,
    /// Ring sites.
    pub sites: usize,
    /// Long-haul segment specs, one per ring position: `segments[i]` is the
    /// pair of links between site `i` and site `(i + 1) % sites`.
    pub segments: Vec<LinkSpec>,
}

impl WanRingParams {
    fn ring(nodes: usize, sites: usize, segment: LinkSpec) -> WanRingParams {
        WanRingParams {
            nodes,
            sites,
            segments: vec![segment; sites],
        }
    }

    /// All-OC-48 ring with 2 ms per-segment propagation (regional WAN).
    pub fn oc48_ring(nodes: usize, sites: usize) -> WanRingParams {
        WanRingParams::ring(nodes, sites, LinkSpec::oc48(Dur::from_millis(2)))
    }

    /// NYNET-flavoured ring: OC-48 segments with every other segment a
    /// DS-3 — the upstate–downstate mix of backbone grades.
    pub fn mixed_ring(nodes: usize, sites: usize) -> WanRingParams {
        let mut p = WanRingParams::oc48_ring(nodes, sites);
        for (i, seg) in p.segments.iter_mut().enumerate() {
            if i % 2 == 1 {
                *seg = LinkSpec::ds3(Dur::from_millis(2));
            }
        }
        p
    }

    /// Which site a node lives at.
    pub fn site_of(&self, node: NodeId) -> usize {
        block_of(node, self.nodes.div_ceil(self.sites), self.sites)
    }
}

/// One deterministic VBR cross-traffic flow: seeded on/off bursts of
/// 4 KiB AAL5 chunks (ON 1 ms, OFF 3 ms on average) booked straight onto
/// the fabric between two (typically extra, non-application) hosts. The
/// generator contends for the same FIFO links as application traffic
/// without producing deliveries, modeling the background video/bulk load
/// the paper's WAN shares its trunks with.
#[derive(Clone, Debug)]
pub struct VbrConfig {
    /// Source host of the flow.
    pub src: NodeId,
    /// Destination host of the flow.
    pub dst: NodeId,
    /// The generator stops at this virtual instant; without a horizon an
    /// always-on generator would keep feeding the event queue forever.
    pub horizon: Dur,
    /// RNG seed; same seed, same burst schedule.
    pub seed: u64,
}

/// Counters for a spawned VBR flow (shared with its running thread).
pub struct VbrHandle {
    bytes: Arc<AtomicU64>,
    chunks: Arc<AtomicU64>,
}

impl VbrHandle {
    /// Payload bytes booked onto the fabric so far.
    pub fn bytes_offered(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Chunks booked so far.
    pub fn chunks_offered(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }
}

/// Jittered period: uniform 0.5×–1.5× of `mean`.
fn jittered(mean: Dur, rng: &mut SimRng) -> Dur {
    let f = 0.5 + rng.gen_f64();
    Dur::from_ps((mean.as_ps() as f64 * f) as u64)
}

/// Spawns a VBR flow as a green thread that exits at the horizon. During
/// ON periods it books chunks back to back, pacing on the first hop's
/// drain time; during OFF periods it sleeps. All randomness comes from the
/// config's seed, so runs are bit-reproducible.
pub fn spawn_vbr(sim: &Sim, fabric: Arc<dyn Fabric>, cfg: VbrConfig) -> VbrHandle {
    assert_ne!(cfg.src, cfg.dst, "a VBR flow needs two distinct hosts");
    let bytes = Arc::new(AtomicU64::new(0));
    let chunks = Arc::new(AtomicU64::new(0));
    let handle = VbrHandle {
        bytes: Arc::clone(&bytes),
        chunks: Arc::clone(&chunks),
    };
    let name = format!("vbr-{}-{}", cfg.src, cfg.dst);
    sim.spawn(name, move |ctx| {
        let mut rng = SimRng::new(cfg.seed);
        let end = SimTime::ZERO + cfg.horizon;
        loop {
            if ctx.now() >= end {
                return;
            }
            let on_until = (ctx.now() + jittered(VBR_MEAN_ON, &mut rng)).min(end);
            while ctx.now() < on_until {
                let t = fabric.transfer(cfg.src, cfg.dst, VBR_CHUNK_BYTES, ctx.now());
                bytes.fetch_add(VBR_CHUNK_BYTES as u64, Ordering::Relaxed);
                chunks.fetch_add(1, Ordering::Relaxed);
                ctx.sim().with_tracer(|tr| {
                    tr.count("vbr.chunks", 1);
                    tr.count("vbr.bytes", VBR_CHUNK_BYTES as u64);
                });
                let pace = t.first_hop_done.saturating_since(ctx.now());
                ctx.sleep(if pace.is_zero() {
                    Dur::from_micros(1)
                } else {
                    pace
                });
            }
            if ctx.now() >= end {
                return;
            }
            ctx.sleep(jittered(VBR_MEAN_OFF, &mut rng));
        }
    });
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atm::{atm_wire_bytes, AtmFabric};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn fat_tree_same_edge_skips_the_core() {
        let f = AtmFabric::new(FatTreeParams::campus(16));
        // Hosts 0 and 1 share edge 0: two access hops plus one switch.
        let local = f.transfer(NodeId(0), NodeId(1), 1000, t(0));
        // Hosts 0 and 9 cross edges: two extra trunk hops and switches.
        let remote = f.transfer(NodeId(0), NodeId(9), 1000, t(0));
        assert!(!local.dropped && !remote.dropped);
        assert!(remote.arrival > local.arrival);
    }

    #[test]
    fn fat_tree_core_pick_is_deterministic() {
        let p = FatTreeParams::campus(32);
        assert_eq!(p.core_for(NodeId(0), NodeId(9)), p.core_for(NodeId(0), NodeId(9)));
        assert_eq!(p.core_for(NodeId(0), NodeId(9)), p.core_for(NodeId(9), NodeId(0)));
        assert!(p.core_for(NodeId(0), NodeId(9)) < p.cores);
    }

    #[test]
    fn fat_tree_path_down_follows_the_chosen_core() {
        let p = FatTreeParams::campus(32);
        let f = AtmFabric::new(p.clone());
        let (src, dst) = (NodeId(0), NodeId(9));
        let c = p.core_for(src, dst);
        // Edge→core trunks come first, edge-major.
        f.trunk_links()[p.edge_of(src) * p.cores + c].schedule_flap(t(0), t(1_000_000));
        assert!(f.path_down(src, dst, t(500)));
        // The other core's links are untouched: a pair routed through it
        // is unaffected.
        let other = NodeId(10); // 0 + 10 picks the other core than 0 + 9
        assert_ne!(p.core_for(src, other), c);
        assert!(!f.path_down(src, other, t(500)));
        // Same-edge traffic never touches the cores.
        assert!(!f.path_down(NodeId(0), NodeId(1), t(500)));
    }

    #[test]
    fn ring_routes_shortest_direction() {
        // 4 sites, 2 hosts each. Site 0 → site 1 is one clockwise hop;
        // site 0 → site 3 is one counter-clockwise hop; both beat the
        // 3-hop detour.
        let f = AtmFabric::new(WanRingParams::oc48_ring(8, 4));
        let one_hop = f.transfer(NodeId(0), NodeId(2), 1000, t(0)); // site 0 → 1
        let back_hop = f.transfer(NodeId(0), NodeId(6), 1000, t(0)); // site 0 → 3
        let two_hop = f.transfer(NodeId(0), NodeId(4), 1000, t(0)); // site 0 → 2
        assert!(!one_hop.dropped && !back_hop.dropped && !two_hop.dropped);
        // Each ring segment adds 2 ms of propagation: the 2-hop path is
        // visibly slower than either 1-hop path.
        assert!(two_hop.arrival > one_hop.arrival + Dur::from_millis(1));
        assert!(two_hop.arrival > back_hop.arrival + Dur::from_millis(1));
    }

    #[test]
    fn ring_path_down_tracks_the_route() {
        let f = AtmFabric::new(WanRingParams::mixed_ring(8, 4));
        // Sever the clockwise segment out of site 0: site 0 → site 1
        // traffic is partitioned, site 0 → site 3 (counter-clockwise)
        // is not.
        f.trunk_links()[0].schedule_flap(t(0), t(10_000_000));
        assert!(f.path_down(NodeId(0), NodeId(2), t(100)));
        assert!(!f.path_down(NodeId(0), NodeId(6), t(100)));
        // Intra-site traffic never rides the ring.
        assert!(!f.path_down(NodeId(0), NodeId(1), t(100)));
    }

    #[test]
    fn finite_ring_buffers_drop_on_overflow() {
        // A DS-3 segment fed from a TAXI access link at full blast with a
        // tiny output buffer must shed chunks.
        let ds3 = LinkSpec::ds3(Dur::from_millis(2));
        let f = AtmFabric::new(WanRingParams::ring(8, 4, ds3)).with_output_buffer(Some(32));
        let mut dropped = 0;
        for i in 0..200 {
            let tt = f.transfer(NodeId(0), NodeId(2), 9180, t(i * 10));
            if tt.dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no overflow under sustained overload");
        assert_eq!(f.overflow_drop_count(), dropped);
    }

    #[test]
    fn vbr_flow_is_deterministic_and_contends() {
        let run = || {
            let sim = Sim::new();
            let fabric = Arc::new(AtmFabric::new(FatTreeParams::campus(16)));
            let vbr = spawn_vbr(
                &sim,
                Arc::<AtmFabric>::clone(&fabric) as Arc<dyn Fabric>,
                VbrConfig {
                    src: NodeId(14),
                    dst: NodeId(15),
                    horizon: Dur::from_millis(20),
                    seed: 7,
                },
            );
            // An application thread outliving the flow's horizon.
            sim.spawn("app", move |ctx| ctx.sleep(Dur::from_millis(25)));
            sim.run().assert_clean();
            // The flow really occupied host 14's uplink: the link carried
            // at least the AAL5 wire size of every chunk offered.
            let carried = fabric.uplink(NodeId(14)).bytes_carried();
            assert!(
                carried >= vbr.chunks_offered() * atm_wire_bytes(VBR_CHUNK_BYTES) as u64,
                "uplink carried {carried} B for {} chunks",
                vbr.chunks_offered()
            );
            (vbr.chunks_offered(), vbr.bytes_offered())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same burst schedule");
        assert!(a.0 > 0, "the flow must actually offer traffic");
        assert_eq!(a.1, a.0 * VBR_CHUNK_BYTES as u64);
    }
}
