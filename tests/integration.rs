//! Workspace integration tests: every layer of the stack exercised
//! together through the `ncs` facade — simulator, network models, MTS,
//! p4, NCS core, and the applications.

use bytes::Bytes;
use ncs::apps::fft::{fft_ncs, fft_p4, FftConfig};
use ncs::apps::jpeg_dist::{jpeg_ncs, jpeg_p4, JpegConfig};
use ncs::apps::matmul::{matmul_ncs, matmul_p4, MatmulConfig};
use ncs::core::{ErrorControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs::net::{ChaosNet, ChaosParams, Network, Testbed};
use ncs::sim::Sim;
use std::sync::Arc;

fn small_matmul(nodes: usize) -> MatmulConfig {
    MatmulConfig {
        dim: 64,
        nodes,
        seed: 77,
    }
}

#[test]
fn matmul_verified_on_every_testbed() {
    for testbed in [
        Testbed::SunEthernet,
        Testbed::SunAtmLanTcp,
        Testbed::NynetTcp,
        Testbed::SunAtmLanApi,
        Testbed::NynetApi,
    ] {
        let cfg = small_matmul(2);
        let p4 = matmul_p4(testbed.build(3), cfg);
        let ncs = matmul_ncs(testbed.build(3), cfg);
        assert!(p4.verified, "{}: p4 result", testbed.id());
        assert!(ncs.verified, "{}: NCS result", testbed.id());
    }
}

#[test]
fn ncs_beats_p4_on_the_paper_testbeds() {
    // The headline claim at reduced scale: multithreaded message passing
    // wins once communication is a real fraction of runtime.
    for testbed in [
        Testbed::SunEthernet,
        Testbed::SunAtmLanTcp,
        Testbed::NynetTcp,
    ] {
        let cfg = small_matmul(2);
        let p4 = matmul_p4(testbed.build(3), cfg);
        let ncs = matmul_ncs(testbed.build(3), cfg);
        assert!(
            ncs.elapsed < p4.elapsed,
            "{}: NCS {} !< p4 {}",
            testbed.id(),
            ncs.elapsed,
            p4.elapsed
        );
    }
}

#[test]
fn fft_verified_and_scales() {
    // Paper-scale input so computation dominates the fixed per-message
    // latencies and distribution actually pays off.
    let mut last = None;
    for nodes in [1usize, 2, 4] {
        let cfg = FftConfig {
            m: 512,
            sets: 4,
            nodes,
            seed: 5,
        };
        let run = fft_ncs(Testbed::SunAtmLanTcp.build(nodes + 1), cfg);
        assert!(run.verified, "{nodes} nodes");
        if let Some(prev) = last {
            assert!(
                run.elapsed < prev,
                "{nodes} nodes did not speed up: {} !< {}",
                run.elapsed,
                prev
            );
        }
        last = Some(run.elapsed);
    }
}

#[test]
fn fft_p4_variant_verified_on_wan() {
    let cfg = FftConfig {
        m: 256,
        sets: 2,
        nodes: 4,
        seed: 6,
    };
    let run = fft_p4(Testbed::NynetTcp.build(5), cfg);
    assert!(run.verified);
}

#[test]
fn jpeg_pipeline_verified_both_variants() {
    let cfg = JpegConfig {
        width: 192,
        height: 128,
        quality: 75,
        entropy: ncs::apps::jpeg::EntropyKind::RleVarint,
        nodes: 4,
        seed: 9,
    };
    let p4 = jpeg_p4(Testbed::SunEthernet.build(5), cfg);
    let ncs = jpeg_ncs(Testbed::SunEthernet.build(5), cfg);
    assert!(p4.verified && ncs.verified);
    assert!(ncs.elapsed < p4.elapsed, "pipeline overlap must win");
    // Real compression happened.
    assert!(p4.compressed_bytes > 0 && p4.compressed_bytes < 192 * 128);
}

#[test]
fn deterministic_replay_across_full_stack() {
    let run = || {
        let cfg = small_matmul(2);
        matmul_ncs(Testbed::NynetTcp.build(3), cfg).elapsed
    };
    assert_eq!(run(), run(), "same seed must replay bit-identically");
}

#[test]
fn error_control_survives_a_lossy_atm_lan() {
    // Corrupt-and-deliver faults over the ATM LAN + NCS checksum/retransmit:
    // application traffic arrives intact despite injected corruption.
    let sim = Sim::new();
    let base = Testbed::SunAtmLanTcp.build(2);
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.25, 0.0, 0xBAD));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..10u32 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 2048]));
                }
            } else {
                for i in 0..10u32 {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert!(m.data.iter().all(|&b| b == i as u8));
                }
            }
        });
    });
    sim.run().assert_clean();
    assert!(
        faulty.stats().snapshot().messages_corrupted > 0,
        "injection must fire"
    );
    assert!(
        world.procs()[0].retransmits() > 0,
        "retransmits must happen"
    );
}

#[test]
fn single_node_threading_overhead_is_small_but_real() {
    // Paper Table 1/3, nodes = 1: NCS carries user-level threading
    // overhead over the sequential baseline, and nothing more.
    let cfg = small_matmul(1);
    // The fabric needs two endpoints even when only one process runs.
    let p4 = matmul_p4(Testbed::SunEthernet.build(2), cfg);
    let ncs = matmul_ncs(Testbed::SunEthernet.build(2), cfg);
    assert!(p4.verified && ncs.verified);
    assert!(ncs.elapsed >= p4.elapsed, "threads are not free");
    let overhead =
        (ncs.elapsed.as_secs_f64() - p4.elapsed.as_secs_f64()) / p4.elapsed.as_secs_f64();
    assert!(overhead < 0.02, "overhead {overhead} should be under 2%");
}

#[test]
fn hsm_tier_delivers_faster_than_nsm_tier() {
    use ncs::net::stack::BlockingWait;
    use ncs::net::NodeId;
    use ncs::sim::{Dur, SimTime};
    use ncs_sim::sync::Mutex;

    let measure = |testbed: Testbed| {
        let sim = Sim::new();
        let net = testbed.build(2);
        let done: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from(vec![0u8; 100_000]),
            );
        });
        let d2 = Arc::clone(&done);
        sim.spawn("rx", move |ctx| {
            let m = net.inbox(NodeId(1)).recv(ctx).unwrap();
            ctx.sleep(net.recv_pickup_cost(NodeId(1), m.payload.len()));
            *d2.lock() = ctx.now();
        });
        sim.run().assert_clean();
        let t = *done.lock();
        t.since(SimTime::ZERO)
    };
    let nsm = measure(Testbed::SunAtmLanTcp);
    let hsm = measure(Testbed::SunAtmLanApi);
    assert!(hsm < nsm, "HSM {hsm} !< NSM {nsm}");
    assert!(hsm > Dur::ZERO);
}
