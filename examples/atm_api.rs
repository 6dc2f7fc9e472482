//! Programming the raw ATM API (paper Figure 12): open virtual circuits
//! with traffic classes, push AAL5 PDUs through the High Speed Mode stack,
//! and watch two circuits between the same hosts stay isolated.
//!
//! ```text
//! cargo run --release --example atm_api
//! ```

use bytes::Bytes;
use ncs::net::atm::{AtmFabric, AtmLanParams};
use ncs::net::{AtmApi, AtmApiNet, AtmApiParams, HostParams, Network, NodeId, TrafficClass};
use ncs::sim::{Dur, Sim, SimTime};
use std::sync::Arc;

fn main() {
    let sim = Sim::new();
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(2)));
    let hosts = vec![HostParams::sparc_ipx(); 2];
    let net: Arc<dyn Network> = Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()));
    println!("stack: {}\n", net.description());

    let a = Arc::new(AtmApi::bind(NodeId(0), Arc::clone(&net)));
    let b = Arc::new(AtmApi::bind(NodeId(1), net));

    let a2 = Arc::clone(&a);
    sim.spawn("host-a", move |ctx| {
        // One CBR circuit for control, one UBR circuit for bulk.
        let control = a2.open(NodeId(1), TrafficClass::Cbr).unwrap();
        let bulk = a2.open(NodeId(1), TrafficClass::Ubr).unwrap();
        println!(
            "[{}] opened circuits: control vci={} bulk vci={}",
            ctx.now(),
            control.vci,
            bulk.vci
        );
        a2.send(ctx, bulk, Bytes::from(vec![0xAB; 48 * 1024]))
            .unwrap();
        a2.send(ctx, control, Bytes::from_static(b"bulk sent"))
            .unwrap();
        let ack = a2.recv(ctx, control).unwrap();
        println!(
            "[{}] control ack: {:?}",
            ctx.now(),
            std::str::from_utf8(&ack).unwrap()
        );
        a2.close(bulk).unwrap();
        a2.close(control).unwrap();
    });
    sim.spawn("host-b", move |ctx| {
        let control = b.open(NodeId(0), TrafficClass::Cbr).unwrap();
        let bulk = b.open(NodeId(0), TrafficClass::Ubr).unwrap();
        // Take the control PDU first even though bulk bytes arrive earlier:
        // circuit demultiplexing keeps the streams apart.
        let note = b.recv(ctx, control).unwrap();
        assert_eq!(&note[..], b"bulk sent");
        let t_note = ctx.now();
        let payload = b.recv(ctx, bulk).unwrap();
        assert_eq!(payload.len(), 48 * 1024);
        assert!(payload.iter().all(|&x| x == 0xAB));
        println!(
            "[{}] control note at {}, bulk PDU ({} KB) complete at {}",
            ctx.now(),
            t_note,
            payload.len() / 1024,
            ctx.now()
        );
        b.send(ctx, control, Bytes::from_static(b"got it")).unwrap();
    });
    let out = sim.run();
    out.assert_clean();
    println!(
        "\ndone at {} — {} cells' worth of PDUs crossed the LAN",
        out.end_time,
        (48 * 1024 + 64) / 48
    );
    let _ = SimTime::ZERO + Dur::ZERO;
}
