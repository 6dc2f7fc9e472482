//! Property tests of the network models' invariants: adaptation-layer
//! roundtrips over arbitrary payloads, link FIFO monotonicity, fabric
//! timing sanity, and end-to-end payload integrity through each stack.

use bytes::Bytes;
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::ethernet::{EthernetFabric, EthernetParams};
use ncs_net::fabric::{Fabric, NodeId};
use ncs_net::link::{LinkSpec, LinkState};
use ncs_net::stack::{AtmApiNet, BlockingWait, Network, TcpNet, TcpParams};
use ncs_net::{aal34, aal5, AtmApiParams, HostParams};
use ncs_sim::prop;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng, SimTime};
use std::sync::Arc;

/// AAL5 segmentation/reassembly is lossless for any payload.
#[test]
fn aal5_roundtrip() {
    prop::check("aal5_roundtrip", 48, |g| {
        let payload = g.vec(0..4096, |g| g.range(0..256) as u8);
        let cells = aal5::segment(&payload, 3, 77).unwrap();
        assert_eq!(cells.len(), aal5::cells_for_pdu(payload.len()));
        let back = aal5::reassemble(&cells).unwrap();
        assert_eq!(back, payload);
    });
}

/// AAL3/4 likewise, and always needs at least as many cells as AAL5.
#[test]
fn aal34_roundtrip_and_overhead() {
    prop::check("aal34_roundtrip_and_overhead", 48, |g| {
        let payload = g.vec(0..2048, |g| g.range(0..256) as u8);
        let cells = aal34::segment(&payload, 0, 5, 9);
        let back = aal34::reassemble(&cells).unwrap();
        assert_eq!(&back, &payload);
        assert!(cells.len() >= aal5::cells_for_pdu(payload.len()).max(1) - 1);
    });
}

/// Any single corrupted payload byte in an AAL5 PDU is detected.
#[test]
fn aal5_detects_any_single_corruption() {
    prop::check("aal5_detects_any_single_corruption", 48, |g| {
        let len = g.range(1..600) as usize;
        let flip_byte = g.range(..) as usize;
        let flip_bit = g.range(0..8);
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut cells = aal5::segment(&payload, 0, 1).unwrap();
        let cell_idx = flip_byte % cells.len();
        let byte_idx = (flip_byte / cells.len()) % 48;
        let mut damaged = cells[cell_idx].payload.to_vec();
        damaged[byte_idx] ^= 1 << flip_bit;
        cells[cell_idx].payload = Bytes::from(damaged);
        // Either the CRC or (if padding/trailer got hit) length/framing
        // checks must reject it; silent acceptance of different data is
        // the only failure.
        match aal5::reassemble(&cells) {
            Err(_) => {}
            Ok(back) => assert_eq!(back, payload, "corruption silently altered data"),
        }
    });
}

/// Link bookings never overlap and never go backwards (FIFO invariant),
/// for arbitrary arrival patterns.
#[test]
fn link_fifo_monotone() {
    prop::check("link_fifo_monotone", 48, |g| {
        let mut arrivals = g.vec(1..40, |g| (g.range(0..10_000), g.range(1..3000) as usize));
        let link = LinkState::new(LinkSpec::ethernet10());
        let mut last_end = SimTime::ZERO;
        arrivals.sort_by_key(|&(t, _)| t);
        for (t, bytes) in arrivals {
            let slot = link.enqueue(SimTime::from_ps(t * 1000), bytes, Dur::ZERO);
            assert!(slot.start >= last_end, "overlapping transmissions");
            assert!(slot.end > slot.start);
            assert_eq!(slot.arrival, slot.end + link.spec.propagation);
            last_end = slot.end;
        }
    });
}

/// Fabric transfers: arrival strictly after departure, and first-hop
/// completion never after arrival.
#[test]
fn fabric_timing_sanity() {
    prop::check("fabric_timing_sanity", 48, |g| {
        let bytes = g.range(1..20_000) as usize;
        let depart = SimTime::ZERO + Dur::from_nanos(g.range(0..1_000_000));
        let timing = if g.bool() {
            let f = EthernetFabric::new(EthernetParams::new(3));
            let b = bytes.min(1460);
            f.transfer(NodeId(0), NodeId(1), b, depart)
        } else {
            let f = AtmFabric::new(AtmLanParams::fore_lan(3));
            f.transfer(NodeId(0), NodeId(2), bytes, depart)
        };
        assert!(timing.first_hop_done > depart);
        assert!(timing.arrival >= timing.first_hop_done);
    });
}

// End-to-end payload integrity through both transport stacks with random
// payload sizes (covers segmentation boundaries and the HSM chunking).
#[test]
fn stacks_deliver_arbitrary_payloads() {
    prop::check("stacks_deliver_arbitrary_payloads", 16, |g| {
        let seed = g.range(0..1000);
        let len = g.range(0..60_000);
        let hsm = g.bool();
        let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(2)));
        let hosts = vec![HostParams::test_fast(); 2];
        let net: Arc<dyn Network> = if hsm {
            Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()))
        } else {
            Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
        };
        let mut rng = SimRng::new(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let expect = payload.clone();
        let sim = Sim::new();
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                9,
                Bytes::from(payload),
            );
        });
        let ok = Arc::new(Mutex::new(false));
        let ok2 = Arc::clone(&ok);
        sim.spawn("rx", move |ctx| {
            let m = net.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!(m.tag, 9);
            *ok2.lock() = m.payload[..] == expect[..];
        });
        sim.run().assert_clean();
        assert!(*ok.lock(), "payload corrupted in transit");
    });
}
