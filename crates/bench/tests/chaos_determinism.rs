//! Seeded-determinism gate for the chaos harness: two runs of the same
//! harsh scenario — multi-switch fabric, cell corruption and loss, link
//! flaps, VBR cross-traffic — with the same seed must agree *exactly*:
//! byte-identical Chrome traces and identical per-process error-control
//! statistics. Any hidden wall-clock, map-iteration, or RNG-order
//! dependence in the fault path shows up here as a diff.

use bytes::Bytes;
use ncs_bench::experiments::chaos::chaos_cfg;
use ncs_core::{ErrorStats, NcsWorld, ThreadAddr};
use ncs_net::{
    spawn_vbr, ChaosNet, ChaosParams, ChaosTopology, Fabric, Network, NodeId, VbrConfig,
};
use ncs_sim::{chrome_trace_json, Dur, Sim, SimTime};
use std::sync::Arc;

const HOSTS: usize = 8;
const EXTRAS: usize = 2;
const MSGS: u32 = 4;
const BYTES: usize = 2048;

/// One harsh fat-tree ring run under the error-control configuration of the
/// `xp_chaos` sweep (its own `chaos_cfg`); returns the per-process error statistics
/// and the full trace export.
fn run_harsh(seed: u64) -> (Vec<ErrorStats>, String) {
    let sim = Sim::new();
    sim.with_tracer(|tr| tr.enable_detail());
    let (fabric, base) = ChaosTopology::FatTree.build_chaos(HOSTS, EXTRAS, Some(2048));
    let chaos = ChaosNet::new(base, ChaosParams::new(5e-4, 5e-3, seed));
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
    // One access-link flap and one trunk flap inside the run window.
    fabric
        .downlink(NodeId(1))
        .schedule_flap(SimTime::from_ps(1_000_000_000), SimTime::from_ps(5_000_000_000));
    if let Some(trunk) = fabric.trunk_links().first() {
        trunk.schedule_flap(SimTime::from_ps(3_000_000_000), SimTime::from_ps(7_000_000_000));
    }
    for i in 0..EXTRAS {
        spawn_vbr(
            &sim,
            Arc::clone(&fabric) as Arc<dyn Fabric>,
            VbrConfig {
                src: NodeId((HOSTS + i) as u32),
                dst: NodeId((i * 3 + 1) as u32 % HOSTS as u32),
                horizon: Dur::from_millis(100),
                seed: seed.wrapping_add(i as u64),
            },
        );
    }
    let world = NcsWorld::launch(&sim, vec![net], HOSTS, chaos_cfg(), |id, proc_| {
        proc_.t_create("ring", 5, move |ncs| {
            let next = (id + 1) % HOSTS;
            let prev = (id + HOSTS - 1) % HOSTS;
            for i in 0..MSGS {
                ncs.send(
                    ThreadAddr::new(next, 0),
                    i,
                    Bytes::from(vec![(id as u32 + i) as u8; BYTES]),
                );
            }
            for i in 0..MSGS {
                let m = ncs.recv(Some(prev), None, Some(i));
                assert_eq!(m.data.len(), BYTES);
            }
        });
    });
    sim.run().assert_clean();
    let stats: Vec<ErrorStats> = world.procs().iter().map(|p| p.error_stats()).collect();
    let trace = sim.with_tracer(|tr| sim.with_metrics(|mm| chrome_trace_json(tr, mm)));
    sim.finish();
    (stats, trace)
}

#[test]
fn same_seed_harsh_runs_agree_exactly() {
    let (stats_a, trace_a) = run_harsh(0xC0FFEE);
    let (stats_b, trace_b) = run_harsh(0xC0FFEE);
    assert!(
        stats_a.iter().any(|s| s.retransmits > 0),
        "the scenario must actually exercise the fault path: {stats_a:?}"
    );
    assert_eq!(stats_a, stats_b, "error-control statistics diverged");
    assert_eq!(
        trace_a, trace_b,
        "fixed-seed harsh runs must export byte-identical traces \
         ({} vs {} bytes)",
        trace_a.len(),
        trace_b.len()
    );
}

#[test]
fn different_seeds_diverge() {
    // The inverse guard: if two different seeds agree byte-for-byte, the
    // seed is not actually feeding the fault RNG and the gate above is
    // vacuous.
    let (_, trace_a) = run_harsh(1);
    let (_, trace_b) = run_harsh(2);
    assert_ne!(trace_a, trace_b, "fault injection ignores its seed");
}
