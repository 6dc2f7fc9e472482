//! NCS error control under fire: corruption and loss injected into the
//! transport, repaired by the checksum/NACK and timeout-retransmission
//! machinery selected at `NCS_init` — and the exception service reporting
//! a destination that is truly unreachable.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use bytes::Bytes;
use ncs::core::{ErrorControl, NcsConfig, NcsWorld, RtoConfig, ThreadAddr, EXC_DELIVERY_FAILED};
use ncs::net::{ChaosNet, ChaosParams, Network, Testbed};
use ncs::sim::{Dur, Sim};
use std::sync::Arc;

fn main() {
    // Part 1: a rough wire — 15% corruption, 15% loss — fully repaired.
    let sim = Sim::new();
    let base = Testbed::SunAtmLanTcp.build(2);
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.15, 0.15, 0xF001));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(150)),
        ..NcsConfig::default()
    };
    const MSGS: u32 = 40;
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..MSGS {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 2048]));
                }
            } else {
                for i in 0..MSGS {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert!(m.data.iter().all(|&b| b == i as u8), "message {i} damaged");
                }
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    println!(
        "rough wire: {MSGS} x 2 KB delivered intact in {}",
        out.end_time
    );
    println!(
        "  injected: {} corrupted, {} dropped; repaired with {} retransmissions",
        faulty.stats().snapshot().messages_corrupted,
        faulty.stats().snapshot().messages_dropped,
        world.procs()[0].retransmits(),
    );

    // Part 2: a dead wire — every frame lost. Error control gives up after
    // its retry budget and raises a local exception instead of hanging.
    let sim = Sim::new();
    let base = Testbed::SunAtmLanTcp.build(2);
    let dead: Arc<dyn Network> = ChaosNet::new(base, ChaosParams::message_level(0.0, 1.0, 0xF002));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(100)),
        max_retries: 4,
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![dead], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.on_exception(|e| {
                println!(
                    "  exception handler: code {:#X} toward {} (delivery failed)",
                    e.code, e.from
                );
                assert_eq!(e.code, EXC_DELIVERY_FAILED);
            });
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(
                    ThreadAddr::new(1, 0),
                    7,
                    Bytes::from_static(b"anyone there?"),
                );
            });
        }
    });
    let out = sim.run();
    assert!(out.panics.is_empty());
    println!(
        "\ndead wire: sender gave up after {} retries at {} and raised locally",
        4, out.end_time
    );
    let _ = world;
    sim.finish();
}
