//! Extension experiment **X7**: chaos sweep — the fault model meets the
//! applications.
//!
//! The paper's testbed was a real FORE ATM LAN, where cells really do get
//! damaged: single-bit header errors (corrected by HEC), payload damage
//! (rejected by the AAL5 CRC-32), cells lost to switch output-buffer
//! overflow, and links that flap. This harness injects all of those with
//! [`ncs_net::ChaosNet`] plus the fabric's own flap/overflow machinery and
//! reruns the paper's three applications — matmul (Table 1), the JPEG
//! pipeline (Table 2) and the FFT (Table 3) — under escalating damage.
//!
//! The claim under test: NCS error control (checksum + retransmit with an
//! adaptive, Jacobson-style RTO) delivers **bit-exact** application results
//! at every fault level, at a visible cost in elapsed time and
//! retransmissions. A transport microscope (one producer/consumer pair)
//! reports the retransmit/backoff/RTO numbers per level, and a
//! crash-stop scene shows sends to a dead peer failing fast with a
//! delivery-failure exception instead of hanging.
//!
//! Extension experiment **X11** rides in the same experiment: a WAN-scale
//! sweep over three switch topologies (single FORE switch, campus
//! fat-tree, mixed DS-3/OC-48 wide-area ring) at 64 application hosts,
//! each at three fault levels (clean / lossy / harsh). The harsh rung
//! adds deterministic link-flap windows on access and trunk links,
//! finite switch output buffers, and seeded VBR cross-traffic from
//! eight extra hosts that contend with the application on the shared
//! links. Every level asserts its invariants (a clean wire retransmits
//! nothing — and spuriously retransmits nothing; damage forces
//! retransmissions but never a delivery failure; reassembly backlogs
//! drain to zero) and the whole sweep lands in
//! `results/BENCH_chaos.json`.
//!
//! The sweep (smoke mode included) additionally runs a **sharded-harness
//! rider**: the clean-level ring at 128 hosts rebuilt on
//! [`ncs_sim::ShardedSim::single`], the shards=1 configuration of the X12
//! windowed multi-worker harness. The shard seam must be invisible to the
//! transport — bit-exact delivery with zero retransmissions (and zero
//! spurious ones) on a clean wire, same as the flat kernel.
//!
//! Every row splits its retransmissions by what drove them: **NACK-driven**
//! (the receiver saw a damaged frame — a failed AAL5 reassembly handed up
//! with its reception status — and asked again: recovery in one round
//! trip), **timer-driven** (nothing came back for a full RTO: the backstop
//! for losses that raise no indication), and the **duplicates** the
//! receivers suppressed (retransmissions provably unnecessary). With
//! `--guard` the sweep fails unless, on each topology's lossy row,
//! timer-driven retransmissions are a minority and goodput holds at least
//! 0.35× the clean row's, and unless the clean rows show no damaged PDU, no
//! NACK-driven and no other retransmission at all.
//!
//! ```text
//! cargo run --release -p ncs-bench -- chaos [--smoke] [--guard]
//! ```

use super::{worker_cpus, JsonDoc, Opts, SmallApp};
use crate::json::{fixed, obj, quoted};
use bytes::Bytes;
use ncs_core::{
    ErrorControl, ErrorStats, NcsConfig, NcsWorld, RtoConfig, ThreadAddr, EXC_DELIVERY_FAILED,
};
use ncs_net::atm::AtmFabric;
use ncs_net::{
    spawn_vbr, ChaosNet, ChaosParams, ChaosTopology, Fabric, FaultStatsSnapshot, Network, NodeId,
    VbrConfig,
};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, ShardedSim, Sim, SimTime};
use std::sync::Arc;

/// One rung of a fault ladder: the application ladder's (X7) or the
/// WAN-scale sweep's (X11).
struct Level {
    label: &'static str,
    /// Per-cell bit-flip probability.
    p_corrupt: f64,
    /// Per-cell loss probability.
    p_loss: f64,
    /// Deterministic outage windows: the host's uplink on the ladder; two
    /// access links and (where the topology has one) the first trunk in the
    /// sweep.
    flaps: bool,
    /// Seeded VBR cross-traffic from the sweep's extra hosts.
    vbr: bool,
    /// Cap the switch output ports (cells); `None` = lossless switch.
    output_buffer: Option<usize>,
}

const CLEAN: Level = Level {
    label: "clean",
    p_corrupt: 0.0,
    p_loss: 0.0,
    flaps: false,
    vbr: false,
    output_buffer: None,
};

/// The ladder. The acceptance bar for the fault model is the third rung
/// (corruption ≥ 1e-3 with loss ≥ 1e-2); the fourth adds a link flap and a
/// finite switch buffer on top.
const LEVELS: &[Level] = &[
    CLEAN,
    Level {
        label: "corrupt 1e-3",
        p_corrupt: 1e-3,
        ..CLEAN
    },
    Level {
        label: "corrupt 1e-3 + loss 1e-2",
        p_corrupt: 1e-3,
        p_loss: 1e-2,
        ..CLEAN
    },
    Level {
        label: "above + flap + 256-cell switch buffer",
        p_corrupt: 2e-3,
        p_loss: 1e-2,
        flaps: true,
        output_buffer: Some(256),
        ..CLEAN
    },
];

/// Host uplink outage window for flap levels: long enough (5 ms) to eat
/// several in-flight chunks, early enough that every app still has traffic
/// on the wire.
const FLAP_DOWN: SimTime = SimTime::from_ps(1_000_000_000); // 1 ms
const FLAP_UP: SimTime = SimTime::from_ps(6_000_000_000); // 6 ms

/// NCS configuration for every run (and for `tests/chaos_determinism.rs`):
/// checksum/retransmit error control with an adaptive RTO seeded at 10 ms.
/// The retry budget must cover the worst rung: an 8 KB message is ~172 cells, and at corrupt 2e-3 + loss 1e-2 a
/// transmission survives with p ≈ 0.13, so 64 tries push the spurious
/// give-up probability below 1e-3 per message.
pub fn chaos_cfg() -> NcsConfig {
    NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 64,
        ..NcsConfig::default()
    }
}

/// A fresh FORE-LAN TCP stack of `nodes` hosts wrapped in the cell-level
/// fault model. Returns the fabric (for flap scheduling and loss counters)
/// and the chaos decorator (for damage stats) alongside the `dyn Network`
/// handle the apps consume.
fn chaos_stack(
    nodes: usize,
    level: &Level,
    seed: u64,
) -> (Arc<AtmFabric>, Arc<ChaosNet>, Arc<dyn Network>) {
    let (fabric, tcp) = ChaosTopology::Lan.build_chaos(nodes, 0, level.output_buffer);
    if level.flaps {
        // One crash of the host's uplink: data (and the B/image/sample
        // fan-out) dies mid-flight; retransmission must carry it across.
        fabric.uplink(NodeId(0)).schedule_flap(FLAP_DOWN, FLAP_UP);
    }
    let chaos = ChaosNet::new(tcp, ChaosParams::new(level.p_corrupt, level.p_loss, seed));
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
    (fabric, chaos, net)
}

/// Outcome of one application run at one fault level.
struct AppOutcome {
    app: &'static str,
    elapsed: Dur,
    verified: bool,
    damage: FaultStatsSnapshot,
    overflow_drops: u64,
    flap_losses: u64,
}

fn print_outcome(out: &mut String, o: &AppOutcome) {
    *out += &format!("  {:6} | {:9.3}s | {:9} | {:5} corrupt {:5} lost | {:4} HEC-fixed {:4} PDU-rej | {:4} dropped | {:3} ovfl {:3} flap\n",
        o.app,
        o.elapsed.as_secs_f64(),
        if o.verified { "BIT-EXACT" } else { "WRONG" },
        o.damage.cells_corrupted,
        o.damage.cells_lost,
        o.damage.headers_corrected,
        o.damage.pdus_rejected,
        o.damage.messages_dropped,
        o.overflow_drops,
        o.flap_losses,
    );
}

fn run_app(app: SmallApp, level: &Level, seed: u64) -> AppOutcome {
    let (fabric, chaos, net) = chaos_stack(app.hosts(), level, seed);
    let (elapsed, verified) = app.run(net, chaos_cfg());
    AppOutcome {
        app: app.name(),
        elapsed,
        verified,
        damage: chaos.stats().snapshot(),
        overflow_drops: fabric.overflow_drop_count(),
        flap_losses: fabric.flap_loss_count(),
    }
}

/// Transport microscope: one producer streams tagged, content-checked
/// messages at one consumer over the same damaged stack, and the error
/// control's own counters (retransmits, backoffs, Karn-filtered RTT
/// samples, RTO trajectory) are read back from the sending process.
const SCOPE_MSGS: u32 = 128;
const SCOPE_BYTES: usize = 4 * 1024;

fn run_microscope(level: &Level, seed: u64) -> (ErrorStats, FaultStatsSnapshot, u64) {
    let sim = Sim::new();
    let (fabric, chaos, net) = chaos_stack(2, level, seed);
    let world = NcsWorld::launch(&sim, vec![net], 2, chaos_cfg(), |id, proc_| {
        if id == 0 {
            proc_.t_create("producer", 5, |ncs| {
                for i in 0..SCOPE_MSGS {
                    ncs.send(
                        ThreadAddr::new(1, 0),
                        i,
                        Bytes::from(vec![(i % 251) as u8; SCOPE_BYTES]),
                    );
                }
            });
        } else {
            proc_.t_create("consumer", 5, |ncs| {
                for i in 0..SCOPE_MSGS {
                    let m = ncs.recv(Some(0), None, Some(i));
                    // Bit-exactness at the transport granularity: payload
                    // must survive corruption, loss and replay unaltered.
                    assert_eq!(m.data.len(), SCOPE_BYTES, "tag {i}");
                    assert!(
                        m.data.iter().all(|&b| b == (i % 251) as u8),
                        "payload damaged at tag {i}"
                    );
                }
            });
        }
    });
    let out = sim.run();
    out.assert_clean();
    let stats = world.procs()[0].error_stats();
    (stats, chaos.stats().snapshot(), fabric.flap_loss_count())
}

fn print_microscope(out: &mut String, stats: &ErrorStats) {
    *out += &format!(
        "  stream | {:3} retx ({:3} nack {:3} timer) {:3} backoffs {:4} rtt samples |",
        stats.retransmits,
        stats.nack_retransmits,
        stats.timer_retransmits,
        stats.backoff_events,
        stats.rtt_samples,
    );
    for p in &stats.peers {
        *out += &format!(
            " peer {}: srtt {:.2}ms rto {:.2}ms",
            p.peer,
            p.srtt.as_secs_f64() * 1e3,
            p.rto.as_secs_f64() * 1e3,
        );
    }
    out.push('\n');
}

/// Crash-stop scene: peer 1 is dead from the start; the first send burns
/// its retry budget and raises a delivery-failure exception, marking the
/// peer dead so the second send fails fast instead of hanging.
fn run_crash_stop(out: &mut String) {
    *out += "## crash-stop: sends to a dead peer fail fast\n\n";
    let sim = Sim::new();
    let (_fabric, chaos, net) = chaos_stack(2, &CLEAN, 0xDEAD);
    chaos.crash_at(NodeId(1), SimTime::ZERO);
    let cfg = NcsConfig {
        max_retries: 5,
        ..chaos_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(
                    ThreadAddr::new(1, 0),
                    1,
                    Bytes::from_static(b"into the void"),
                );
                // Sleep past the whole backed-off retry schedule
                // (10 + 20 + 40 + 80 + 160 + 320 ms) so the budget is gone.
                ncs.ctx().sleep(Dur::from_secs(2));
                ncs.send(ThreadAddr::new(1, 0), 2, Bytes::from_static(b"fails fast"));
            });
        }
    });
    let end = sim.run();
    assert!(end.panics.is_empty(), "{:?}", end.panics);
    let proc0 = &world.procs()[0];
    let stats = proc0.error_stats();
    let exceptions = proc0.pending_exceptions();
    assert!(
        proc0.is_peer_dead(1),
        "retry exhaustion must mark the peer dead"
    );
    assert_eq!(
        exceptions.len(),
        2,
        "one give-up exception + one fail-fast exception: {exceptions:?}"
    );
    assert!(exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED));
    assert!(
        chaos.stats().snapshot().crash_drops > 0,
        "the crashed endpoint must have eaten traffic"
    );
    *out += &format!(
        "  peer 1 dead after {} retransmits ({} backoffs); {} delivery-failure \
         exceptions raised (give-up + fail-fast), {} messages eaten by the crash\n",
        stats.retransmits,
        stats.backoff_events,
        exceptions.len(),
        chaos.stats().snapshot().crash_drops,
    );
    sim.finish();
}

// ---------------------------------------------------------------------------
// X11: the WAN-scale sweep — topology × fault level at 64 hosts.
// ---------------------------------------------------------------------------

/// Clean / lossy / harsh. Loss rates are per *cell*; a 4 KB message is
/// ~90 cells, so harsh (5e-3) rejects roughly one in three CS-PDUs and
/// retransmission is constantly at work.
const SWEEP_LEVELS: &[Level] = &[
    CLEAN,
    Level {
        label: "lossy",
        p_corrupt: 1e-4,
        p_loss: 2e-3,
        ..CLEAN
    },
    Level {
        label: "harsh",
        p_corrupt: 5e-4,
        p_loss: 5e-3,
        flaps: true,
        vbr: true,
        output_buffer: Some(4096),
    },
];

/// Flap windows for the harsh rung. Early enough that every host still
/// has ring traffic on the wire, short enough (≪ the 160 ms pre-sample
/// RTO) that retransmission carries the losses and nobody is declared
/// partitioned — the sweep tests degradation, not fail-fast (the
/// dedicated recovery tests cover that).
const SWEEP_FLAPS: &[(SimTime, SimTime)] = &[
    (
        SimTime::from_ps(1_000_000_000),
        SimTime::from_ps(6_000_000_000),
    ), // 1–6 ms
    (
        SimTime::from_ps(3_000_000_000),
        SimTime::from_ps(8_000_000_000),
    ), // 3–8 ms
    (
        SimTime::from_ps(9_000_000_000),
        SimTime::from_ps(13_000_000_000),
    ), // 9–13 ms
];

/// Deterministic payload byte for (sender, tag, offset): the receiver
/// recomputes it, so bit-exactness is checked on every delivered byte.
fn fill_byte(src: usize, tag: u32, j: usize) -> u8 {
    (src as u32)
        .wrapping_mul(131)
        .wrapping_add(tag.wrapping_mul(17))
        .wrapping_add(j as u32) as u8
}

/// Everything one (topology, level) cell of the sweep leaves behind.
struct MeshOutcome {
    topo: ChaosTopology,
    level: &'static str,
    /// Ran on the `ShardedSim::single` harness instead of a flat `Sim`.
    sharded: bool,
    /// Virtual instant the last application thread finished (the VBR
    /// horizon may keep the simulator itself running longer).
    app_done: Dur,
    /// Application payload bytes delivered (hosts × msgs × msg_bytes).
    payload_bytes: u64,
    /// p99 end-to-end message latency from the `obs.e2e` histogram
    /// (conservative upper bound).
    p99: Dur,
    /// Every process's error-control counters, summed (`peers` and
    /// `dead_peers` stay empty: no peer may die in the sweep).
    stats: ErrorStats,
    backlog: usize,
    damage: FaultStatsSnapshot,
    overflow_drops: u64,
    flap_losses: u64,
    vbr_bytes: u64,
    vbr_chunks: u64,
}

impl MeshOutcome {
    fn goodput_mbps(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.app_done.as_secs_f64() / 1e6
    }
}

/// One sweep cell: `hosts` application processes in a ring (each sends
/// `msgs` tagged messages to its right neighbour and receives, verifying
/// every byte, from its left), over `topo` built with `extras` additional
/// cross-traffic hosts, damaged per `level`. With `sharded` the whole
/// cell runs on the shards=1 configuration of the windowed multi-worker
/// harness instead of a flat kernel — behaviour must be identical.
#[allow(clippy::too_many_arguments)]
fn run_mesh(
    topo: ChaosTopology,
    level: &Level,
    hosts: usize,
    extras: usize,
    msgs: u32,
    msg_bytes: usize,
    seed: u64,
    sharded: bool,
) -> MeshOutcome {
    let sharded_sim = sharded.then(ShardedSim::single);
    let flat_sim;
    let sim: &Sim = match &sharded_sim {
        Some(s) => s.shard(0),
        None => {
            flat_sim = Sim::new();
            &flat_sim
        }
    };
    let (fabric, raw) = topo.build_chaos(hosts, extras, level.output_buffer);
    let chaos = ChaosNet::new(raw, ChaosParams::new(level.p_corrupt, level.p_loss, seed));
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;

    if level.flaps {
        // Two access links and, where the topology has one, a trunk: the
        // multi-switch arms lose whole route bundles, the LAN only the
        // per-host edges.
        fabric
            .uplink(NodeId(1))
            .schedule_flap(SWEEP_FLAPS[0].0, SWEEP_FLAPS[0].1);
        fabric
            .downlink(NodeId(2))
            .schedule_flap(SWEEP_FLAPS[1].0, SWEEP_FLAPS[1].1);
        if let Some(trunk) = fabric.trunk_links().first() {
            trunk.schedule_flap(SWEEP_FLAPS[2].0, SWEEP_FLAPS[2].1);
        }
    }

    let vbr_handles: Vec<_> = if level.vbr {
        (0..extras)
            .map(|i| {
                // Each extra host streams at a distant application host:
                // the flows cross the trunks and contend with the ring
                // traffic on shared switch ports.
                spawn_vbr(
                    sim,
                    Arc::clone(&fabric) as Arc<dyn Fabric>,
                    VbrConfig {
                        src: NodeId((hosts + i) as u32),
                        dst: NodeId(((i * 11 + 3) % hosts) as u32),
                        chunk_bytes: 4096,
                        mean_on: Dur::from_millis(1),
                        mean_off: Dur::from_millis(3),
                        horizon: Dur::from_millis(250),
                        seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                    },
                )
            })
            .collect()
    } else {
        Vec::new()
    };

    let app_done = Arc::new(Mutex::new(SimTime::ZERO));
    let done_in = Arc::clone(&app_done);
    let world = NcsWorld::launch(sim, vec![net], hosts, chaos_cfg(), move |id, proc_| {
        let done = Arc::clone(&done_in);
        proc_.t_create("ring", 5, move |ncs| {
            let right = (id + 1) % hosts;
            let left = (id + hosts - 1) % hosts;
            for i in 0..msgs {
                let payload: Vec<u8> = (0..msg_bytes).map(|j| fill_byte(id, i, j)).collect();
                ncs.send(ThreadAddr::new(right, 0), i, Bytes::from(payload));
                let m = ncs.recv(Some(left), None, Some(i));
                assert_eq!(m.data.len(), msg_bytes, "proc {id} tag {i}");
                for (j, &b) in m.data.iter().enumerate() {
                    assert_eq!(
                        b,
                        fill_byte(left, i, j),
                        "proc {id} tag {i}: byte {j} damaged in flight"
                    );
                }
            }
            let now = ncs.ctx().now();
            let mut d = done.lock();
            if now > *d {
                *d = now;
            }
        });
    });

    match &sharded_sim {
        Some(s) => s.run().assert_clean(),
        None => sim.run().assert_clean(),
    }

    let mut o = MeshOutcome {
        topo,
        level: level.label,
        sharded,
        app_done: app_done.lock().since(SimTime::ZERO),
        payload_bytes: hosts as u64 * msgs as u64 * msg_bytes as u64,
        p99: sim.with_metrics(|m| {
            m.stat("obs.e2e")
                .and_then(|st| st.hist().quantile(0.99))
                .unwrap_or(Dur::ZERO)
        }),
        stats: ErrorStats::default(),
        backlog: 0,
        damage: chaos.stats().snapshot(),
        overflow_drops: fabric.overflow_drop_count(),
        flap_losses: fabric.flap_loss_count(),
        vbr_bytes: vbr_handles.iter().map(|h| h.bytes_offered()).sum(),
        vbr_chunks: vbr_handles.iter().map(|h| h.chunks_offered()).sum(),
    };
    for p in world.procs() {
        let st = p.error_stats();
        o.stats.retransmits += st.retransmits;
        o.stats.nack_retransmits += st.nack_retransmits;
        o.stats.timer_retransmits += st.timer_retransmits;
        o.stats.duplicates_suppressed += st.duplicates_suppressed;
        o.stats.spurious_retransmits += st.spurious_retransmits;
        o.stats.backoff_events += st.backoff_events;
        o.stats.retx_deferred += st.retx_deferred;
        o.stats.delivery_failures += st.delivery_failures;
        o.stats.reassembly_reclaimed += st.reassembly_reclaimed;
        o.backlog += p.reassembly_backlog();
        assert!(
            st.dead_peers.is_empty(),
            "{}/{}: no peer may be declared dead ({:?})",
            topo.id(),
            level.label,
            st.dead_peers
        );
    }
    match &sharded_sim {
        Some(s) => s.finish(),
        None => sim.finish(),
    }
    o
}

fn check_mesh_invariants(o: &MeshOutcome) {
    let at = format!("{}/{}", o.topo.id(), o.level);
    assert_eq!(
        o.stats.delivery_failures, 0,
        "{at}: degradation must stay graceful — no delivery failures"
    );
    assert_eq!(
        o.backlog, 0,
        "{at}: every reassembly buffer must drain (bounded memory)"
    );
    assert_eq!(
        o.stats.retransmits,
        o.stats.nack_retransmits + o.stats.timer_retransmits,
        "{at}: every resend has a cause"
    );
    if o.level == "clean" {
        assert_eq!(
            o.stats.retransmits, 0,
            "{at}: a clean wire must need no retransmissions"
        );
        assert_eq!(
            o.stats.spurious_retransmits, 0,
            "{at}: a clean wire must see no spurious retransmissions"
        );
    } else {
        assert!(
            o.stats.retransmits > 0,
            "{at}: damage ({} cells lost, {} corrupted, {} flap losses, {} overflow drops) \
             must force retransmissions",
            o.damage.cells_lost,
            o.damage.cells_corrupted,
            o.flap_losses,
            o.overflow_drops
        );
    }
    if o.level == "harsh" {
        assert!(
            o.flap_losses > 0,
            "{at}: the scheduled outage windows must eat in-flight cells"
        );
        assert!(o.vbr_chunks > 0, "{at}: cross-traffic must actually flow");
    }
}

fn print_mesh(out: &mut String, o: &MeshOutcome) {
    *out += &format!("  {:9} | {:5} | {:9.4}s | {:8.2} Mb/s | p99 {:9.3}ms | {:5} retx = {:5} nack + {:5} timer, {:4} dup {:4} acked-after-retx {:3} defer | {:5} lost {:4} corrupt | {:4} ovfl {:4} flap | {:6.2} MB vbr\n",
        if o.sharded {
            format!("{}~1sh", o.topo.id())
        } else {
            o.topo.id().to_string()
        },
        o.level,
        o.app_done.as_secs_f64(),
        o.goodput_mbps(),
        o.p99.as_secs_f64() * 1e3,
        o.stats.retransmits,
        o.stats.nack_retransmits,
        o.stats.timer_retransmits,
        o.stats.duplicates_suppressed,
        o.stats.spurious_retransmits,
        o.stats.retx_deferred,
        o.damage.cells_lost,
        o.damage.cells_corrupted,
        o.overflow_drops,
        o.flap_losses,
        o.vbr_bytes as f64 / 1e6,
    );
}

fn mesh_json(o: &MeshOutcome) -> String {
    obj(&[
        ("topology", &quoted(o.topo.id())),
        ("level", &quoted(o.level)),
        ("sharded_harness", &o.sharded),
        ("app_done_s", &fixed(o.app_done.as_secs_f64(), 9)),
        ("goodput_mbps", &fixed(o.goodput_mbps(), 3)),
        ("p99_ms", &fixed(o.p99.as_secs_f64() * 1e3, 6)),
        ("payload_bytes", &o.payload_bytes),
        ("retransmits", &o.stats.retransmits),
        ("nack_retransmits", &o.stats.nack_retransmits),
        ("timer_retransmits", &o.stats.timer_retransmits),
        ("duplicates_suppressed", &o.stats.duplicates_suppressed),
        ("spurious_retransmits", &o.stats.spurious_retransmits),
        ("backoffs", &o.stats.backoff_events),
        ("retx_deferred", &o.stats.retx_deferred),
        ("delivery_failures", &o.stats.delivery_failures),
        ("reassembly_reclaimed", &o.stats.reassembly_reclaimed),
        ("reassembly_backlog", &o.backlog),
        ("cells_lost", &o.damage.cells_lost),
        ("cells_corrupted", &o.damage.cells_corrupted),
        ("headers_corrected", &o.damage.headers_corrected),
        ("pdus_rejected", &o.damage.pdus_rejected),
        ("overflow_drops", &o.overflow_drops),
        ("flap_losses", &o.flap_losses),
        ("vbr_bytes", &o.vbr_bytes),
        ("vbr_chunks", &o.vbr_chunks),
    ])
}

/// The X11 sweep; returns its rows and the `BENCH_chaos.json` document.
fn run_sweep(out: &mut String, smoke: bool) -> (Vec<MeshOutcome>, JsonDoc) {
    let (hosts, extras, msgs, msg_bytes) = if smoke {
        (16, 4, 8, 4096)
    } else {
        (64, 8, 16, 4096)
    };
    *out += &format!(
        "## X11 — WAN-scale sweep: {hosts} app hosts + {extras} cross-traffic, \
         ring of {msgs} x {msg_bytes} B messages\n\n"
    );
    let mut outcomes = Vec::new();
    for topo in ChaosTopology::all() {
        for (li, level) in SWEEP_LEVELS.iter().enumerate() {
            let seed = 0xA7A7_0000 + li as u64 * 131 + topo.id().len() as u64;
            let o = run_mesh(topo, level, hosts, extras, msgs, msg_bytes, seed, false);
            print_mesh(out, &o);
            check_mesh_invariants(&o);
            outcomes.push(o);
        }
        out.push('\n');
    }
    // Sharded-harness rider (runs in smoke mode too): the clean ring at
    // 128 hosts on `ShardedSim::single` — the shards=1 configuration of
    // the windowed multi-worker harness. The seam must not cost a single
    // retransmission: `check_mesh_invariants` enforces the clean-level
    // zero-retransmit / zero-spurious bar, restated explicitly below.
    *out += "  (sharded harness, shards=1, 128 hosts)\n";
    let o = run_mesh(
        ChaosTopology::FatTree,
        &SWEEP_LEVELS[0],
        128,
        0,
        4,
        msg_bytes,
        0xA7A7_5EED,
        true,
    );
    print_mesh(out, &o);
    check_mesh_invariants(&o);
    assert_eq!(
        o.stats.retransmits, 0,
        "clean wire on the sharded harness must retransmit nothing"
    );
    outcomes.push(o);
    out.push('\n');
    let mut doc = JsonDoc::new("BENCH_chaos", "xp_chaos", smoke);
    doc.line(&[("worker_cpus", &worker_cpus())]);
    doc.line(&[
        ("hosts", &hosts),
        ("extra_hosts", &extras),
        ("msgs_per_host", &msgs),
        ("msg_bytes", &msg_bytes),
    ]);
    doc.rows("sweep", outcomes.iter().map(mesh_json));
    (outcomes, doc)
}

/// `--guard`: receiver-driven recovery must be doing the work. Per
/// topology, the lossy row's retransmissions are mostly NACK-driven and
/// its goodput holds at least 0.35× the clean row's (0.16–0.23× when every
/// loss waited for the RTO); the clean row saw no damaged PDU, so no NACK
/// was ever sent, and retransmitted nothing.
fn guard_sweep(out: &mut String, outcomes: &[MeshOutcome]) {
    for clean in outcomes.iter().filter(|o| o.level == "clean") {
        let at = format!(
            "{}/clean{}",
            clean.topo.id(),
            if clean.sharded { "~1sh" } else { "" }
        );
        assert_eq!(
            clean.damage.pdus_rejected, 0,
            "{at}: damaged PDUs on a clean wire"
        );
        assert_eq!(
            (clean.stats.nack_retransmits, clean.stats.retransmits),
            (0, 0),
            "{at}: NACK-driven / all retransmissions on a clean wire"
        );
        if clean.sharded {
            continue;
        }
        let lossy = outcomes
            .iter()
            .find(|o| o.level == "lossy" && o.topo.id() == clean.topo.id())
            .expect("every topology has a lossy row");
        let at = format!("{}/lossy", lossy.topo.id());
        assert!(
            2 * lossy.stats.timer_retransmits < lossy.stats.retransmits,
            "{at}: {} of {} retransmissions are timer-driven — loss recovery is waiting \
             for the RTO again",
            lossy.stats.timer_retransmits,
            lossy.stats.retransmits
        );
        let share = lossy.goodput_mbps() / clean.goodput_mbps();
        assert!(
            share >= 0.35,
            "{at}: goodput {:.2} Mb/s is {share:.2}x the clean row's {:.2} (floor 0.35x)",
            lossy.goodput_mbps(),
            clean.goodput_mbps()
        );
        *out += &format!(
            "  guard {at}: {:.2}x clean goodput, {} of {} retransmissions timer-driven\n",
            share, lossy.stats.timer_retransmits, lossy.stats.retransmits
        );
    }
    out.push('\n');
}

pub(super) fn run(opts: &Opts, out: &mut String) -> Option<JsonDoc> {
    let smoke = opts.smoke;
    *out += "# X7 — chaos sweep: cell-level faults vs NCS error control\n";
    if smoke {
        *out += "# smoke mode: reduced sweep\n";
    }
    *out += "# FORE ATM LAN stack; matmul 32x32/2 nodes, JPEG 64x64/2 nodes, FFT 512pt-class 64pt/2 sets/2 nodes\n";
    *out += &format!(
        "# microscope: {} x {} KB producer->consumer stream\n\n",
        SCOPE_MSGS,
        SCOPE_BYTES / 1024
    );

    let mut clean_elapsed = Dur::ZERO;
    let mut harsh_retx = 0u64;
    for (li, level) in LEVELS.iter().enumerate() {
        *out += &format!("## level {li}: {}\n", level.label);
        let seed = 0xC0FFEE + li as u64 * 97;
        let outcomes = [
            run_app(SmallApp::Matmul { nodes: 2 }, level, seed),
            run_app(SmallApp::Jpeg, level, seed + 1),
            run_app(SmallApp::Fft { sets: 2 }, level, seed + 2),
        ];
        for o in &outcomes {
            print_outcome(out, o);
            assert!(
                o.verified,
                "{} must be bit-exact at fault level '{}'",
                o.app, level.label
            );
        }
        let (stats, damage, flap) = run_microscope(level, seed + 3);
        print_microscope(out, &stats);
        assert!(
            stats.rtt_samples > 0,
            "the estimator must see clean samples at level '{}'",
            level.label
        );
        assert!(stats.delivery_failures == 0 && stats.dead_peers.is_empty());
        if level.label == "clean" {
            clean_elapsed = outcomes[0].elapsed;
            assert_eq!(
                stats.retransmits, 0,
                "a clean wire must need no retransmissions"
            );
        } else {
            assert!(
                stats.retransmits > 0,
                "damage at level '{}' must force retransmissions \
                 ({} cells corrupted, {} lost, {} flap losses)",
                level.label,
                damage.cells_corrupted,
                damage.cells_lost,
                flap
            );
            harsh_retx += stats.retransmits;
        }
        if level.flaps {
            assert!(
                flap > 0,
                "a 5 ms outage under a continuous stream must eat chunks"
            );
        }
        out.push('\n');
    }
    assert!(harsh_retx > 0);

    run_crash_stop(out);
    out.push('\n');

    let (outcomes, doc) = run_sweep(out, smoke);
    if opts.guard {
        guard_sweep(out, &outcomes);
    }
    let harsh_total: u64 = outcomes
        .iter()
        .filter(|o| o.level == "harsh")
        .map(|o| o.stats.retransmits)
        .sum();
    assert!(harsh_total > 0);

    *out += &format!(
        "(every app run at every fault level verified bit-exact; recovery is \
         paid for in time — matmul clean: {:.3}s — and in the retransmission \
         counters above, with the RTO tracking each peer's observed RTT)\n",
        clean_elapsed.as_secs_f64()
    );
    Some(doc)
}
