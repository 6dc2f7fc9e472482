//! Two identical seeded runs over the fault injector, whose maps are ordered
//! since the `hash-collection` lint flagged them, replay bit-identically.

use bytes::Bytes;
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::fabric::NodeId;
use ncs_net::faults::{ChaosNet, ChaosParams};
use ncs_net::stack::{BlockingWait, Network, TcpNet, TcpParams};
use ncs_net::HostParams;
use ncs_sim::{Sim, SimTime};
use std::sync::Arc;

/// One seeded run over a faulty stack: three nodes exchange tagged
/// messages through a ChaosNet (exercising the crash schedule and the
/// cell bit-flip map) and the run's event digest is returned.
fn chaotic_run() -> u64 {
    let sim = Sim::new();
    let nodes = 3;
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(nodes)));
    let tcp: Arc<dyn Network> = Arc::new(TcpNet::new(
        fabric,
        vec![HostParams::sparc_ipx(); nodes],
        TcpParams::ip_over_atm(),
    ));
    // Clean cell-level parameters: this test is about replay determinism,
    // not survival — a damaged PDU would be dropped below the retransmit
    // layer and deterministically hang a receiver.
    let chaos = ChaosNet::new(tcp, ChaosParams::clean(0xDE7));
    // A crash far past the traffic keeps the schedule map populated (the
    // converted BTreeMap) without killing the exchange.
    chaos.crash_at(NodeId(2), SimTime::from_ps(u64::MAX / 2));
    let net: Arc<dyn Network> = chaos;
    for src in 0..nodes as u32 {
        let net = Arc::clone(&net);
        sim.spawn(format!("sender{src}"), move |ctx| {
            for dst in 0..3u32 {
                if dst == src {
                    continue;
                }
                let payload = Bytes::from(vec![src as u8; 600]);
                net.send(
                    ctx,
                    &BlockingWait,
                    NodeId(src),
                    NodeId(dst),
                    (src * 10 + dst) as u64,
                    payload,
                );
            }
        });
    }
    for dst in 0..nodes as u32 {
        let net = Arc::clone(&net);
        sim.spawn(format!("receiver{dst}"), move |ctx| {
            let inbox = net.inbox(NodeId(dst));
            for _ in 0..2 {
                let d = inbox.recv(ctx).expect("inbox closed early");
                assert_eq!(d.dst, NodeId(dst));
            }
        });
    }
    let out = sim.run();
    out.assert_clean();
    sim.trace_hash()
}

#[test]
fn identical_seeded_runs_have_identical_traces() {
    assert_eq!(
        chaotic_run(),
        chaotic_run(),
        "seeded runs over the faulty stack must replay bit-exactly"
    );
}
