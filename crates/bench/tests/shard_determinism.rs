//! The cross-shard differential suite: same seed ⇒ byte-identical results
//! no matter how many worker threads the simulation is sharded onto.
//!
//! The guarantee has two halves, both pinned here:
//!
//! * **Partition independence** — the merged workload digest
//!   ([`ShardedSim::merged_trace_hash`], the `(time, stamp)` stream in
//!   global order) and the per-host delivery digests are equal across
//!   1/2/4/8-shard runs of the same seeded workload, under both the wide
//!   (2 ms WAN) and tight (20 µs metro) lookahead windows.
//! * **Harness transparency** — at `shards = 1` the shard seam adds
//!   nothing: the golden matmul trace is byte-identical to the checked-in
//!   snapshot, and the chaos-recovery scenario replays exactly.
//!
//! Plus the interactions that historically break determinism walls:
//! window-boundary events, same-instant stamp ties, schedule exploration
//! on a sharded config, and per-shard MTS scheduler instances.

use ncs_bench::experiments::chaos::chaos_cfg;
use ncs_bench::experiments::observe::run_workload_on;
use ncs_core::{ErrorStats, NcsWorld, ThreadAddr};
use ncs_mts::{Mts, MtsConfig};
use ncs_net::{
    ChaosNet, ChaosParams, ChaosTopology, GossipConfig, GossipMesh, Network, ShardNetParams,
    ShardPlan,
};
use ncs_sim::sync::Mutex;
use ncs_sim::{
    chrome_trace_json, DecisionLog, Dur, RandomWalkPolicy, ScriptedPolicy, ShardedSim, SimTime,
};
use bytes::Bytes;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/trace_matmul.json");

/// One full gossip run; returns every observable the suite compares.
fn gossip_fingerprint(params: ShardNetParams, shards: usize, seed: u64) -> (u64, u64, Vec<u64>, u64) {
    let mesh = GossipMesh::new(
        params,
        shards,
        GossipConfig {
            rounds: 10,
            msg_bytes: 512,
            work: 0,
            seed,
        },
    );
    let out = mesh.run();
    out.assert_clean();
    mesh.assert_complete();
    (
        out.merged_trace_hash,
        mesh.delivery_digest(),
        mesh.host_digests(),
        mesh.delivered(),
    )
}

#[test]
fn same_seed_is_byte_identical_across_1_2_4_8_shards() {
    let base = gossip_fingerprint(ShardNetParams::wan_campus(256), 1, 42);
    for shards in [2usize, 4, 8] {
        let got = gossip_fingerprint(ShardNetParams::wan_campus(256), shards, 42);
        assert_eq!(base, got, "wan_campus fingerprint diverged at {shards} shards");
    }
    // Run-to-run: the same sharded configuration twice.
    assert_eq!(base, gossip_fingerprint(ShardNetParams::wan_campus(256), 4, 42));
}

#[test]
fn tight_lookahead_windows_are_also_partition_invariant() {
    // 20 µs windows: hundreds of barriers, every one a chance to misorder
    // a boundary event. The fingerprints must still match exactly.
    let base = gossip_fingerprint(ShardNetParams::metro_campus(128), 1, 9);
    for shards in [2usize, 4, 8] {
        let got = gossip_fingerprint(ShardNetParams::metro_campus(128), shards, 9);
        assert_eq!(base, got, "metro_campus fingerprint diverged at {shards} shards");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = gossip_fingerprint(ShardNetParams::metro_campus(64), 2, 1);
    let b = gossip_fingerprint(ShardNetParams::metro_campus(64), 2, 2);
    assert_ne!(a.1, b.1, "seed must reach the delivery digests");
}

#[test]
fn classification_witnesses_the_lookahead_bound() {
    for shards in [2usize, 4, 8] {
        let plan = ShardPlan::new(ShardNetParams::wan_campus(256), shards);
        let cut = plan.classify();
        assert!(cut.cross_shard_group_pairs > 0);
        assert!(
            cut.min_cross_latency >= plan.lookahead(),
            "classified min cross-shard latency undercuts the window width"
        );
    }
}

/// Window-boundary and same-instant-tie stress at the kernel level: events
/// posted exactly at multiples of the window width, plus stamp ties at the
/// same instant, from both sides of the shard boundary. The merged digest
/// must match the 1-shard reference exactly.
#[test]
fn window_boundary_events_and_stamp_ties_merge_exactly() {
    fn run(shards: usize) -> (u64, u64) {
        let window = 1_000u64; // ps
        let sharded = Arc::new(ShardedSim::new(shards, Dur::from_ps(window)));
        // Chains bouncing between logical hosts 0 and 1 (mapped to shards
        // 0 and shards-1): each delivery at k*window posts the next at
        // exactly (k+1)*window — always landing on a barrier boundary —
        // and a pair of same-instant "echo" events with adjacent stamps.
        fn hop(sharded: &Arc<ShardedSim>, shards: usize, k: u64) {
            const HOPS: u64 = 24;
            const WINDOW: u64 = 1_000;
            if k >= HOPS {
                return;
            }
            let dst = if k.is_multiple_of(2) { 0 } else { shards - 1 };
            let src = if k.is_multiple_of(2) { shards - 1 } else { 0 };
            let at = SimTime::from_ps((k + 1) * WINDOW);
            let weak = Arc::downgrade(sharded);
            // Three events at the same boundary instant, stamps 3k..3k+2:
            // one continues the chain, two are ties that must keep their
            // stamp order under every partition.
            sharded.post(src, dst, at, 3 * k + 1, |_| {});
            sharded.post(src, dst, at, 3 * k + 2, |_| {});
            sharded.post(src, dst, at, 3 * k, move |_| {
                if let Some(s) = weak.upgrade() {
                    hop(&s, shards, k + 1);
                }
            });
        }
        hop(&sharded, shards, 0);
        let out = sharded.run();
        out.assert_clean();
        (out.merged_trace_hash, out.merged_events)
    }
    let reference = run(1);
    assert_eq!(reference.1, 24 * 3);
    for shards in [2usize, 4, 8] {
        assert_eq!(run(shards), reference, "boundary merge diverged at {shards} shards");
    }
}

/// The exact golden workload from `golden_trace.rs` — `xp observe`'s own
/// function — but staged on the shard harness (`ShardedSim::single`): the
/// seam must be invisible.
fn run_golden_workload_on_shard_harness() -> String {
    let sharded = ShardedSim::single();
    run_workload_on("matmul", sharded.shard(0), || sharded.run().assert_clean()).trace_json
}

#[test]
fn golden_trace_is_unchanged_on_the_shard_harness() {
    assert_eq!(
        run_golden_workload_on_shard_harness(),
        GOLDEN,
        "shards=1 harness must reproduce the golden matmul trace byte-for-byte"
    );
}

/// The chaos-recovery scenario (corruption + loss + a link flap over a
/// fat-tree, the `xp_chaos` sweep's error-control configuration) on the
/// shard harness:
/// two same-seed runs must agree exactly, and recovery must complete.
fn run_chaos_on_shard_harness(seed: u64) -> (Vec<ErrorStats>, String) {
    const HOSTS: usize = 8;
    const MSGS: u32 = 4;
    const BYTES: usize = 2048;
    let sharded = ShardedSim::single();
    let sim = sharded.shard(0);
    sim.with_tracer(|tr| tr.enable_detail());
    let (fabric, base) = ChaosTopology::FatTree.build_chaos(HOSTS, 0, Some(2048));
    let chaos = ChaosNet::new(base, ChaosParams::new(5e-4, 5e-3, seed));
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
    fabric
        .downlink(ncs_net::NodeId(1))
        .schedule_flap(SimTime::from_ps(1_000_000_000), SimTime::from_ps(5_000_000_000));
    let world = NcsWorld::launch(sim, vec![net], HOSTS, chaos_cfg(), |id, proc_| {
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
    sharded.run().assert_clean();
    let stats: Vec<ErrorStats> = world.procs().iter().map(|p| p.error_stats()).collect();
    let trace = sim.with_tracer(|tr| sim.with_metrics(|mm| chrome_trace_json(tr, mm)));
    (stats, trace)
}

#[test]
fn chaos_recovery_replays_exactly_on_the_shard_harness() {
    let (stats_a, trace_a) = run_chaos_on_shard_harness(77);
    let (stats_b, trace_b) = run_chaos_on_shard_harness(77);
    assert_eq!(trace_a, trace_b, "same-seed chaos traces must be byte-identical");
    for (a, b) in stats_a.iter().zip(&stats_b) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// Schedule exploration on a sharded configuration: a random walk over
/// shard 0's tie-breaks (a) leaves the merged workload digest untouched —
/// it is an event-*set* digest in canonical order — and (b) is exactly
/// reproducible from its decision log via a scripted replay.
#[test]
fn exploration_smoke_replays_on_a_sharded_config() {
    let params = || ShardNetParams::metro_campus(64);
    let cfg = GossipConfig {
        rounds: 6,
        msg_bytes: 256,
        work: 0,
        seed: 5,
    };
    let canonical = {
        let mesh = GossipMesh::new(params(), 2, cfg);
        mesh.run().assert_clean();
        mesh.sharded().merged_trace_hash()
    };

    let walk_log = DecisionLog::new();
    let (walk_merged, walk_delivery) = {
        let mesh = GossipMesh::new(params(), 2, cfg);
        mesh.sharded()
            .shard(0)
            .set_schedule_policy(Box::new(RandomWalkPolicy::new(1234, Arc::clone(&walk_log))));
        mesh.run().assert_clean();
        mesh.assert_complete();
        (mesh.sharded().merged_trace_hash(), mesh.delivery_digest())
    };
    assert!(!walk_log.is_empty(), "the walk must have hit real choice points");
    assert_eq!(
        walk_merged, canonical,
        "explored schedules must preserve the merged workload digest"
    );

    let script: Vec<u32> = walk_log.snapshot().iter().map(|d| d.chosen).collect();
    let replay_log = DecisionLog::new();
    let (replay_merged, replay_delivery) = {
        let mesh = GossipMesh::new(params(), 2, cfg);
        mesh.sharded()
            .shard(0)
            .set_schedule_policy(Box::new(ScriptedPolicy::new(script, Arc::clone(&replay_log))));
        mesh.run().assert_clean();
        mesh.assert_complete();
        (mesh.sharded().merged_trace_hash(), mesh.delivery_digest())
    };
    assert_eq!((replay_merged, replay_delivery), (walk_merged, walk_delivery));
    assert_eq!(replay_log.len(), walk_log.len());
}

/// Per-shard MTS scheduler instances riding next to the gossip workload:
/// their (unkeyed, shard-local) events interleave with keyed deliveries
/// at every window without perturbing the merged workload digest, and
/// their own scheduling is deterministic run to run.
#[test]
fn per_shard_mts_instances_do_not_perturb_the_workload() {
    let cfg = GossipConfig {
        rounds: 8,
        msg_bytes: 256,
        work: 0,
        seed: 3,
    };
    let bare = {
        let mesh = GossipMesh::new(ShardNetParams::metro_campus(64), 2, cfg);
        mesh.run().assert_clean();
        (mesh.sharded().merged_trace_hash(), mesh.delivery_digest())
    };

    let with_mts = |_: usize| {
        let mesh = GossipMesh::new(ShardNetParams::metro_campus(64), 2, cfg);
        let switch_log: Arc<Mutex<[u64; 2]>> = Arc::new(Mutex::new([0; 2]));
        for shard in 0..2usize {
            let mts = Mts::new(
                mesh.sharded().shard(shard),
                format!("s{shard}:bg"),
                MtsConfig::default(),
            );
            for t in 0..3u64 {
                mts.spawn(format!("tick{t}"), 4, move |m| {
                    for step in 0..4 {
                        m.ctx().sleep(Dur::from_micros(7 + t * 3 + step));
                        m.yield_now();
                    }
                });
            }
            let log = Arc::clone(&switch_log);
            let starter = mts.clone();
            mesh.sharded().shard(shard).spawn("mts-main", move |ctx| {
                // `start` dispatches until every MTS thread has exited.
                starter.start(ctx);
                log.lock()[shard] = starter.stats().switches;
            });
        }
        let out = mesh.run();
        out.assert_clean();
        mesh.assert_complete();
        let switches = *switch_log.lock();
        (
            mesh.sharded().merged_trace_hash(),
            mesh.delivery_digest(),
            switches,
        )
    };

    let a = with_mts(0);
    let b = with_mts(1);
    assert_eq!(a, b, "MTS-augmented sharded runs must be deterministic");
    assert_eq!(
        (a.0, a.1),
        bare,
        "shard-local MTS activity must not perturb the workload digests"
    );
    assert!(a.2.iter().all(|&s| s > 0), "each shard's MTS must have dispatched");
}
