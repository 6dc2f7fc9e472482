//! Pins the one switched fabric's one booking path.
//!
//! The hashes and counters in [`timing_is_pinned_per_preset`] were captured
//! by running this exact script — every booking through [`Fabric::transfer`]
//! — at commit c22cb48, before the cell-train booking path beside
//! `transfer` was deleted; a route, a hop order, a buffer test or a rounding
//! that differs anywhere moves them.

use ncs_net::atm::{AtmLanParams, NynetParams};
use ncs_net::{AtmFabric, Fabric, FatTreeParams, NodeId, Topology, WanRingParams};
use ncs_sim::{fnv1a_fold, prop, Dur, SimRng, SimTime, FNV_OFFSET};

/// 2,000 seeded bookings between random host pairs, with 400-cell output
/// buffers and one flap window on the first trunk (the host-1 uplink where
/// there is none). `gap_ns` spaces the departures so the slowest hop runs
/// loaded but not saturated. Returns the FNV-1a fold of every
/// `(first_hop_done, arrival, dropped)` and the final counters, then the
/// counters themselves.
fn pin(topology: impl Into<Topology>, seed: u64, gap_ns: u64) -> (u64, u64, u64) {
    let f = AtmFabric::new(topology);
    let at = |k: u64| SimTime::ZERO + Dur::from_nanos(k * gap_ns);
    match f.trunk_links().first() {
        Some(trunk) => trunk.schedule_flap(at(100), at(200)),
        None => f.uplink(NodeId(1)).schedule_flap(at(100), at(200)),
    }
    let n = f.nodes() as u64;
    let mut rng = SimRng::new(seed);
    let mut h = FNV_OFFSET;
    let mut now = SimTime::ZERO;
    for _ in 0..2_000 {
        now += Dur::from_nanos(rng.gen_range(gap_ns));
        let src = rng.gen_range(n);
        let dst = (src + 1 + rng.gen_range(n - 1)) % n;
        let (src, dst) = (NodeId(src as u32), NodeId(dst as u32));
        let payload = 1 + rng.gen_range(16_000) as usize;
        let t = f.transfer(src, dst, payload, now);
        h = fnv1a_fold(h, t.first_hop_done.as_ps());
        h = fnv1a_fold(h, t.arrival.as_ps());
        h = fnv1a_fold(h, u64::from(t.dropped));
    }
    let (overflow, flap) = (f.overflow_drop_count(), f.flap_loss_count());
    h = fnv1a_fold(fnv1a_fold(h, overflow), flap);
    (h, overflow, flap)
}

#[test]
fn timing_is_pinned_per_preset() {
    assert_eq!(
        pin(
            AtmLanParams::fore_lan(16).with_output_buffer(400),
            1,
            200_000
        ),
        (0x6dff_ed8f_2072_5bdf, 133, 17),
        "fore_lan"
    );
    assert_eq!(
        pin(NynetParams::nynet(16).with_output_buffer(400), 2, 600_000),
        (0x7e77_2733_6475_c709, 408, 49),
        "nynet"
    );
    assert_eq!(
        pin(
            NynetParams::nynet_ds3(16).with_output_buffer(400),
            3,
            3_000_000
        ),
        (0x9f4d_7014_3795_f6bd, 108, 58),
        "nynet_ds3"
    );
    assert_eq!(
        pin(
            FatTreeParams::campus(24).with_output_buffer(400),
            4,
            400_000
        ),
        (0x9f90_1904_28c7_ea1f, 176, 22),
        "campus"
    );
    assert_eq!(
        pin(
            WanRingParams::mixed_ring(16, 4).with_output_buffer(400),
            5,
            3_000_000
        ),
        (0xcdae_ad1b_af6e_205a, 149, 32),
        "mixed_ring"
    );
}

/// Every link of the fabric, access links first.
fn all_links(f: &AtmFabric) -> Vec<&ncs_net::LinkState> {
    (0..f.nodes() as u32)
        .flat_map(|n| [f.uplink(NodeId(n)), f.downlink(NodeId(n))])
        .chain(f.trunk_links())
        .map(|l| &**l)
        .collect()
}

/// Indices (into `links`) of the links one `src → dst` booking rides.
fn booked(f: &AtmFabric, links: &[&ncs_net::LinkState], src: NodeId, dst: NodeId) -> Vec<usize> {
    let before: Vec<u64> = links.iter().map(|l| l.chunks_carried()).collect();
    f.transfer(src, dst, 1000, SimTime::ZERO);
    (0..links.len())
        .filter(|&i| links[i].chunks_carried() > before[i])
        .collect()
}

/// `path_down(s, d, t)` is true iff some link whose `chunks_carried` grows
/// when `transfer(s, d, ..)` is booked is down at `t` — on every topology.
#[test]
fn path_down_iff_a_booked_link_is_down() {
    prop::check("path_down_iff_a_booked_link_is_down", 256, |g| {
        let nodes = g.range(4..=24) as usize;
        let topology: Topology = match g.range(0..4) {
            0 => AtmLanParams::fore_lan(nodes).into(),
            1 => NynetParams {
                sites: g.range(2..=3) as usize,
                ..NynetParams::nynet(nodes)
            }
            .into(),
            2 => FatTreeParams {
                hosts_per_edge: g.range(1..=8) as usize,
                cores: g.range(1..=3) as usize,
                ..FatTreeParams::campus(nodes)
            }
            .into(),
            _ => WanRingParams::mixed_ring(nodes, g.range(2..=6) as usize).into(),
        };
        let f = AtmFabric::new(topology);
        let links = all_links(&f);
        let t = SimTime::ZERO + Dur::from_millis(5);
        let severed: Vec<usize> = (0..g.range(0..=3))
            .map(|_| g.range(0..links.len() as u64) as usize)
            .collect();
        for &i in &severed {
            links[i].schedule_flap(t, t + Dur::from_millis(1));
        }
        let src = g.range(0..nodes as u64);
        let dst = (src + g.range(1..nodes as u64)) % nodes as u64;
        let (src, dst) = (NodeId(src as u32), NodeId(dst as u32));
        let expected = booked(&f, &links, src, dst)
            .iter()
            .any(|i| severed.contains(i));
        assert_eq!(f.path_down(src, dst, t), expected, "{}", f.description());
        assert!(!f.path_down(src, dst, t + Dur::from_millis(1)));
    });
}

/// The chaos harnesses flap `trunk_links().first()` and the docs promise a
/// layout; pin both through which trunks one booking rides.
#[test]
fn trunk_order_is_pinned() {
    let rides = |f: &AtmFabric, src: u32, dst: u32| {
        let trunks: Vec<_> = f.trunk_links().iter().map(|l| &**l).collect();
        booked(f, &trunks, NodeId(src), NodeId(dst))
    };
    let grades =
        |f: &AtmFabric| -> Vec<&str> { f.trunk_links().iter().map(|l| l.spec.name).collect() };

    assert!(AtmFabric::new(AtmLanParams::fore_lan(4))
        .trunk_links()
        .is_empty());

    // NYNET, 2 sites: [up0, up1, down0, down1, backbone].
    let f = AtmFabric::new(NynetParams::nynet(8));
    assert_eq!(grades(&f), ["OC-3c", "OC-3c", "OC-3c", "OC-3c", "OC-48c"]);
    assert_eq!(rides(&f, 0, 4), [0, 3, 4]);
    assert_eq!(rides(&f, 4, 0), [1, 2, 4]);
    assert_eq!(rides(&f, 0, 1), [] as [usize; 0]);

    // Fat-tree, 3 edges × 2 cores: up[e][c] at 2e + c, down[e][c] at 6 + 2e + c.
    let f = AtmFabric::new(FatTreeParams::campus(24));
    assert_eq!(f.trunk_links().len(), 12);
    assert_eq!(rides(&f, 0, 9), [1, 9]);
    assert_eq!(rides(&f, 9, 0), [3, 7]);
    assert_eq!(rides(&f, 17, 2), [5, 7]);
    assert_eq!(rides(&f, 0, 1), [] as [usize; 0]);

    // Ring, 4 sites: cw[i] at i (site i → i+1), ccw[i] at 4 + i (i+1 → i).
    let f = AtmFabric::new(WanRingParams::mixed_ring(8, 4));
    let ring = ["OC-48c", "DS-3", "OC-48c", "DS-3"];
    assert_eq!(grades(&f), [ring, ring].concat());
    assert_eq!(rides(&f, 0, 2), [0]);
    assert_eq!(rides(&f, 0, 6), [7]);
    assert_eq!(rides(&f, 0, 4), [0, 1], "ties go clockwise");
    assert_eq!(rides(&f, 6, 2), [0, 3]);
    assert_eq!(rides(&f, 0, 1), [] as [usize; 0]);

    // Six sites: routes long enough to take more than one step either way.
    let f = AtmFabric::new(WanRingParams::oc48_ring(12, 6));
    assert_eq!(rides(&f, 0, 8), [10, 11], "two steps counter-clockwise");
    assert_eq!(rides(&f, 10, 2), [0, 5], "clockwise across the wrap");
    assert_eq!(rides(&f, 2, 8), [1, 2, 3], "three-all tie goes clockwise");
    assert_eq!(rides(&f, 8, 0), [4, 5]);
}
