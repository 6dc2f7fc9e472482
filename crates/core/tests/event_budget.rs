//! The kernel-event budget of the message path, pinned exactly.
//!
//! Event counts repeat to the digit, so each scenario asserts its exact
//! [`RunOutcome::events`] beside the virtual end time the run had *before*
//! the MTS dispatch, the transport entry, the inbox merge, the end of the
//! receive thread's kernel wait and a thread's first dispatch stopped
//! costing events of their own (DESIGN.md "Event kernel"): the events went,
//! the model clock did not move. A change that adds an event per message
//! (or per dispatch) fails here by name; one that moves virtual time fails
//! on the end time next to it. Beside the events, each run pins the causal
//! timeline stamps it retains and the bytes they hold
//! (`MetricsRegistry::timeline_bytes`, by capacity: each kept timeline's
//! buffer and its place in the causal-id index are most of it) with the
//! registry keeping every timeline it folds
//! (`MetricsRegistry::keep_timelines`): a change that adds a stage or
//! fattens the stored format grows the timelines' memory, and fails here
//! without an RSS measurement.

use bytes::Bytes;
use ncs_core::{ErrorControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::stack::BlockingWait;
use ncs_net::{ChaosNet, ChaosParams, Network, NodeId, Testbed};
use ncs_sim::{Dur, RunOutcome, Sim, SimTime, ThreadId};
use std::sync::Arc;

const MSG_BYTES: usize = 512;

/// Runs `sim` to completion and returns the outcome after checking that
/// the split into thread resumes and callbacks adds up.
fn run_clean(sim: &Sim) -> RunOutcome {
    let out = sim.run();
    out.assert_clean();
    assert!(out.resumes <= out.events);
    out
}

fn end_ps(out: &RunOutcome) -> u64 {
    out.end_time.since(SimTime::ZERO).as_ps()
}

/// A simulation whose registry keeps every timeline it folds, so that the
/// stamps and bytes below count a whole run.
fn armed_sim() -> Sim {
    let sim = Sim::new();
    sim.with_metrics(|m| m.keep_timelines());
    sim
}

/// Causal-timeline stamps the run's registry retains.
fn stamps(sim: &Sim) -> usize {
    sim.with_metrics(|m| m.timelines().map(|(_, tl)| tl.len()).sum())
}

/// Bytes the run's retained timelines hold, counted by capacity.
fn timeline_bytes(sim: &Sim) -> usize {
    sim.with_metrics(|m| m.timeline_bytes())
}

#[test]
fn hsm_ping_pong_event_budget() {
    const ROUNDS: u32 = 16;
    let sim = armed_sim();
    let net = Testbed::SunAtmLanApi.build(2);
    NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            let data = Bytes::from(vec![0x5Au8; MSG_BYTES]);
            for r in 0..ROUNDS {
                if id == 0 {
                    ncs.send(ThreadAddr::new(1, 0), r, data.clone());
                    ncs.recv(Some(1), None, Some(r));
                } else {
                    ncs.recv(Some(0), None, Some(r));
                    ncs.send(ThreadAddr::new(0, 0), r, data.clone());
                }
            }
        });
    });
    let out = run_clean(&sim);
    assert_eq!(end_ps(&out), 15_397_634_304, "virtual end time moved");
    assert_eq!((out.events, out.resumes), (336, 304), "was (579, 547)");
    assert_eq!(stamps(&sim), 192, "32 messages, six stages each");
    assert_eq!(
        timeline_bytes(&sim),
        5_184,
        "was 66_256 in a 64 KiB arena chunk"
    );
}

#[test]
fn gather_broadcast_round_event_budget() {
    const HOSTS: usize = 8;
    let sim = armed_sim();
    let net = Testbed::SunAtmLanApi.build(HOSTS);
    NcsWorld::launch(&sim, vec![net], HOSTS, NcsConfig::default(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            let data = Bytes::from(vec![0xC3u8; MSG_BYTES]);
            if id == 0 {
                for p in 1..HOSTS {
                    ncs.recv(Some(p), None, Some(0));
                }
                for p in 1..HOSTS {
                    ncs.send(ThreadAddr::new(p, 0), 0, data.clone());
                }
            } else {
                ncs.send(ThreadAddr::new(0, 0), 0, data.clone());
                ncs.recv(Some(0), None, Some(0));
            }
        });
    });
    let out = run_clean(&sim);
    assert_eq!(end_ps(&out), 2_836_537_144, "virtual end time moved");
    assert_eq!((out.events, out.resumes), (181, 167), "was (346, 332)");
    assert_eq!(stamps(&sim), 84, "14 messages, six stages each");
    assert_eq!(
        timeline_bytes(&sim),
        2_368,
        "was 67_008 in a 64 KiB arena chunk"
    );
}

#[test]
fn checked_tcp_ring_event_budget() {
    // Error control on, over a wire that corrupts one message in ten at a
    // fixed seed: ACKs, NACKs and retransmissions all cross the transport
    // entry, and every one of them used to pay a zero-length sleep there.
    const HOSTS: usize = 4;
    const LAPS: u32 = 6;
    let sim = armed_sim();
    let base = Testbed::SunAtmLanTcp.build(HOSTS);
    let net: Arc<dyn Network> = ChaosNet::new(base, ChaosParams::message_level(0.1, 0.0, 1995));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![net], HOSTS, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            let data = Bytes::from(vec![id as u8; 4 * MSG_BYTES]);
            let (next, prev) = ((id + 1) % HOSTS, (id + HOSTS - 1) % HOSTS);
            for lap in 0..LAPS {
                ncs.send(ThreadAddr::new(next, 0), lap, data.clone());
                let m = ncs.recv(Some(prev), None, Some(lap));
                assert!(m.data.iter().all(|&b| b == prev as u8));
            }
        });
    });
    let out = run_clean(&sim);
    let retx: u64 = world
        .procs()
        .iter()
        .map(|p| p.error_stats().retransmits)
        .sum();
    assert!(retx > 0, "the seed must exercise the recovery path");
    assert_eq!(end_ps(&out), 367_538_885_720, "virtual end time moved");
    assert_eq!((out.events, out.resumes), (576, 468), "was (952, 844)");
    assert_eq!(
        stamps(&sim),
        147,
        "24 messages, six stages each, and three `retransmitted`"
    );
    assert_eq!(
        timeline_bytes(&sim),
        4_232,
        "was 66_776 in a 64 KiB arena chunk"
    );
}

#[test]
fn launch_spawns_no_forwarder_threads() {
    // One green thread per process main, per system thread and per user
    // thread — nothing whose only job is to move a delivery between queues.
    let sim = Sim::new();
    let nets = [Testbed::SunAtmLanApi, Testbed::SunAtmLanTcp].map(|t| t.build(3));
    NcsWorld::launch(&sim, nets.to_vec(), 3, NcsConfig::default(), |_, proc_| {
        proc_.t_create("w", 5, |_| {});
    });
    // Thread ids are slot indices: a probe's id is the population before it.
    let population = sim.spawn("probe", |_| {}).0;
    let names: Vec<String> = (0..population)
        .map(|i| sim.thread_name(ThreadId(i)))
        .collect();
    assert!(
        !names.iter().any(|n| n.contains("fwd")),
        "forwarder thread spawned: {names:?}"
    );
    // ncs-send + ncs-recv + main per process; user threads come later, on main.
    assert_eq!(population, 9, "{names:?}");
    run_clean(&sim);
}

#[test]
fn delivery_after_teardown_is_dropped_on_both_transports() {
    // The transport's delivery event now runs the merge itself, so a process
    // whose merged queue closed at teardown must refuse late traffic there
    // quietly, like a closed socket: dropped, not queued, not a panic.
    for testbed in [Testbed::SunAtmLanApi, Testbed::SunAtmLanTcp] {
        let sim = Sim::new();
        let net = testbed.build(2);
        let nets = vec![Arc::clone(&net)];
        NcsWorld::launch(&sim, nets, 2, NcsConfig::default(), |_, proc_| {
            proc_.t_create("w", 5, |_| {});
        });
        let stray = Arc::clone(&net);
        sim.spawn("stray", move |ctx| {
            ctx.sleep(Dur::from_secs(1)); // the world is long gone
            let payload = Bytes::from_static(b"late");
            stray.send(ctx, &BlockingWait, NodeId(0), NodeId(1), 0, payload);
        });
        let out = run_clean(&sim);
        assert!(out.end_time > SimTime::ZERO + Dur::from_secs(1));
        assert!(net.inbox(NodeId(1)).is_empty(), "late delivery was queued");
    }
}
