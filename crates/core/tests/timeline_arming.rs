//! Keeping timelines changes what the registry keeps, never what it records.
//!
//! By default the registry folds each message's timeline into its `obs.*`
//! stats at delivery and frees it; `MetricsRegistry::keep_timelines` seals
//! it into an arena instead, readable for the rest of the run. Each
//! workload here runs both ways and must leave the same trace hash, the
//! same event count and the same `summary()` text: every counter, every
//! gauge peak and every stat. Unarmed, the registry may hold only the
//! timelines that never folded (none on a clean run), and its timeline
//! memory must not grow with the rounds the workload runs: it is set by the
//! messages in flight at once, whose peak the first few rounds reach (a
//! round's stragglers overlap the next one's first messages), so each law
//! compares a run of that many rounds with one of four times as many.

use bytes::Bytes;
use ncs_core::env::NcsCtx;
use ncs_core::{ErrorControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{ChaosNet, ChaosParams, Network, Testbed};
use ncs_sim::{Sim, SimTime};
use std::sync::Arc;

/// A workload at `rounds`: a network, a config and the hosts' threads.
type Workload = fn(rounds: u32) -> (Arc<dyn Network>, NcsConfig, usize, Body);
type Body = Arc<dyn Fn(usize, &NcsCtx<'_>) + Send + Sync>;

/// What one run leaves behind.
struct Run {
    trace_hash: u64,
    events: u64,
    summary: String,
    /// Every timeline the registry can still read, as text.
    timelines: Vec<(u64, Vec<(String, SimTime)>)>,
    timeline_bytes: usize,
    retransmits: u64,
}

fn run(workload: Workload, rounds: u32, keep: bool) -> Run {
    let (net, cfg, hosts, body) = workload(rounds);
    let sim = Sim::new();
    if keep {
        sim.with_metrics(|m| m.keep_timelines());
    }
    let world = NcsWorld::launch(&sim, vec![net], hosts, cfg, move |id, proc_| {
        let body = Arc::clone(&body);
        proc_.t_create("w", 5, move |ncs| body(id, ncs));
    });
    let out = sim.run();
    out.assert_clean();
    let retransmits = world
        .procs()
        .iter()
        .map(|p| p.error_stats().retransmits)
        .sum();
    let (summary, timelines, timeline_bytes) = sim.with_metrics(|m| {
        let timelines = m
            .timelines()
            .map(|(c, tl)| (c, tl.iter().map(|&(s, t)| (s.to_string(), t)).collect()))
            .collect();
        (m.summary(), timelines, m.timeline_bytes())
    });
    Run {
        trace_hash: sim.trace_hash(),
        events: out.events,
        summary,
        timelines,
        timeline_bytes,
        retransmits,
    }
}

/// `rounds` gathers to host 0 and broadcasts back over the HSM stack, the
/// broadcast posted nonblocking so request timelines fold too.
fn gather_broadcast(rounds: u32) -> (Arc<dyn Network>, NcsConfig, usize, Body) {
    const HOSTS: usize = 6;
    let body: Body = Arc::new(move |id, ncs| {
        let data = Bytes::from(vec![0xC3u8; 512]);
        for r in 0..rounds {
            if id == 0 {
                for p in 1..HOSTS {
                    ncs.recv(Some(p), None, Some(r));
                }
                let sends: Vec<_> = (1..HOSTS)
                    .map(|p| ncs.isend(ThreadAddr::new(p, 0), r, data.clone()))
                    .collect();
                for h in sends {
                    ncs.wait(h);
                }
            } else {
                ncs.send(ThreadAddr::new(0, 0), r, data.clone());
                ncs.recv(Some(0), None, Some(r));
            }
        }
    });
    let net = Testbed::SunAtmLanApi.build(HOSTS);
    (net, NcsConfig::default(), HOSTS, body)
}

/// A ring under checksum/retransmit over a wire that corrupts one message
/// in ten at a fixed seed.
fn lossy_ring(rounds: u32) -> (Arc<dyn Network>, NcsConfig, usize, Body) {
    const HOSTS: usize = 4;
    let body: Body = Arc::new(move |id, ncs| {
        let data = Bytes::from(vec![id as u8; 2048]);
        let (next, prev) = ((id + 1) % HOSTS, (id + HOSTS - 1) % HOSTS);
        for lap in 0..rounds {
            ncs.send(ThreadAddr::new(next, 0), lap, data.clone());
            let m = ncs.recv(Some(prev), None, Some(lap));
            assert!(m.data.iter().all(|&b| b == prev as u8));
        }
    });
    let base = Testbed::SunAtmLanTcp.build(HOSTS);
    let net: Arc<dyn Network> = ChaosNet::new(base, ChaosParams::message_level(0.1, 0.0, 1995));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        ..NcsConfig::default()
    };
    (net, cfg, HOSTS, body)
}

/// 8 KiB messages through 1 KiB I/O buffers, checksummed: every message is
/// chunked on the wire and reassembled.
fn fragmented(rounds: u32) -> (Arc<dyn Network>, NcsConfig, usize, Body) {
    let body: Body = Arc::new(move |id, ncs| {
        let data = Bytes::from(vec![0x5Au8; 8 * 1024]);
        for r in 0..rounds {
            if id == 0 {
                ncs.send(ThreadAddr::new(1, 0), r, data.clone());
                ncs.recv(Some(1), None, Some(r));
            } else {
                let m = ncs.recv(Some(0), None, Some(r));
                assert_eq!(m.data, data);
                ncs.send(ThreadAddr::new(0, 0), r, Bytes::from(vec![1u8]));
            }
        }
    });
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        io_buffer_bytes: 1024,
        ..NcsConfig::default()
    };
    (Testbed::SunAtmLanApi.build(2), cfg, 2, body)
}

/// Whether a timeline was folded: a message's at `delivered`, a request's
/// at `completed`.
fn folded(tl: &[(String, SimTime)]) -> bool {
    tl.last()
        .is_some_and(|(s, _)| s == "delivered" || s == "completed")
}

/// The law for one workload at `rounds`; returns the unarmed run.
fn armed_matches_unarmed(what: &str, workload: Workload, rounds: u32) -> Run {
    let armed = run(workload, rounds, true);
    let free = run(workload, rounds, false);
    assert_eq!(armed.trace_hash, free.trace_hash, "{what}: trace hash");
    assert_eq!(armed.events, free.events, "{what}: event count");
    assert_eq!(armed.summary, free.summary, "{what}: registry summary");
    assert!(armed.summary.contains("obs.e2e"), "{what}: nothing folded");
    assert!(
        armed.timelines.iter().any(|(_, tl)| folded(tl)),
        "{what}: the armed run kept no folded timeline"
    );
    let open: Vec<_> = armed
        .timelines
        .iter()
        .filter(|(_, tl)| !folded(tl))
        .cloned()
        .collect();
    assert_eq!(free.timelines, open, "{what}: unarmed, only open timelines");
    free
}

#[test]
fn gather_broadcast_is_the_same_armed_or_not() {
    let once = armed_matches_unarmed("gather/broadcast", gather_broadcast, 4);
    let four = armed_matches_unarmed("gather/broadcast x4", gather_broadcast, 16);
    assert!(once.summary.contains("obs.req_e2e"), "no request folded");
    assert!(once.timelines.is_empty() && four.timelines.is_empty());
    assert_eq!(once.timeline_bytes, four.timeline_bytes);
}

#[test]
fn lossy_ring_is_the_same_armed_or_not() {
    let once = armed_matches_unarmed("lossy ring", lossy_ring, 8);
    let four = armed_matches_unarmed("lossy ring x4", lossy_ring, 32);
    assert!(once.retransmits > 0, "the seed must exercise recovery");
    assert!(once.summary.contains("obs.wire"));
    assert!(once.timelines.is_empty() && four.timelines.is_empty());
    assert_eq!(once.timeline_bytes, four.timeline_bytes);
}

#[test]
fn fragmented_transfer_is_the_same_armed_or_not() {
    let once = armed_matches_unarmed("fragmented", fragmented, 3);
    let four = armed_matches_unarmed("fragmented x4", fragmented, 12);
    assert!(
        once.summary.contains("obs.reassembly"),
        "nothing reassembled"
    );
    assert!(once.timelines.is_empty() && four.timelines.is_empty());
    assert_eq!(once.timeline_bytes, four.timeline_bytes);
}
