//! Extension experiment **X11**, run by the chaos experiment (X7): a WAN-scale
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
//! The sweep (smoke mode included) additionally runs a **128-host rider**:
//! the clean-level fat-tree ring at twice the sweep's largest host count,
//! with four messages per host — bit-exact delivery with zero
//! retransmissions (and zero spurious ones) on a clean wire.
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

use super::super::WORKER_CPUS;
use super::{chaos_cfg, Level, CLEAN};
use crate::{Col, Report};
use bytes::Bytes;
use ncs_core::{ErrorStats, NcsWorld, ThreadAddr};
use ncs_net::{
    spawn_vbr, ChaosNet, ChaosParams, ChaosTopology, Fabric, FaultStatsSnapshot, Network, NodeId,
    VbrConfig,
};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::Arc;

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
const SWEEP_FLAPS: [(SimTime, SimTime); 3] = [(ms(1), ms(6)), (ms(3), ms(8)), (ms(9), ms(13))];

const fn ms(ms: u64) -> SimTime {
    SimTime::from_ps(ms * 1_000_000_000)
}

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
/// cross-traffic hosts, damaged per `level`.
fn run_mesh(
    topo: ChaosTopology,
    level: &Level,
    hosts: usize,
    extras: usize,
    msgs: u32,
    msg_bytes: usize,
    seed: u64,
) -> MeshOutcome {
    let sim = Sim::new();
    let (fabric, raw) = topo.build_chaos(hosts, extras, level.output_buffer);
    let chaos = ChaosNet::new(raw, ChaosParams::new(level.p_corrupt, level.p_loss, seed));
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;

    if level.flaps {
        // Two access links and, where the topology has one, a trunk: the
        // multi-switch arms lose whole route bundles, the LAN only the
        // per-host edges.
        let [(d0, u0), (d1, u1), (d2, u2)] = SWEEP_FLAPS;
        fabric.uplink(NodeId(1)).schedule_flap(d0, u0);
        fabric.downlink(NodeId(2)).schedule_flap(d1, u1);
        if let Some(trunk) = fabric.trunk_links().first() {
            trunk.schedule_flap(d2, u2);
        }
    }

    let vbr_handles: Vec<_> = if level.vbr {
        (0..extras)
            .map(|i| {
                // Each extra host streams at a distant application host:
                // the flows cross the trunks and contend with the ring
                // traffic on shared switch ports.
                spawn_vbr(
                    &sim,
                    Arc::clone(&fabric) as Arc<dyn Fabric>,
                    VbrConfig {
                        src: NodeId((hosts + i) as u32),
                        dst: NodeId(((i * 11 + 3) % hosts) as u32),
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
    let world = NcsWorld::launch(&sim, vec![net], hosts, chaos_cfg(), move |id, proc_| {
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

    sim.run().assert_clean();

    let mut o = MeshOutcome {
        topo,
        level: level.label,
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
    sim.finish();
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

/// One row of the X11 sweep (an empty header: JSON only).
const SWEEP: &[Col<MeshOutcome>] = &[
    Col::text("topology", "topology", |o| o.topo.id()),
    Col::text("level", "level", |o| o.level),
    Col::fixed("app_done_s", "app done s", 9, |o| o.app_done.as_secs_f64()),
    Col::fixed("goodput_mbps", "Mb/s", 3, MeshOutcome::goodput_mbps),
    Col::fixed("p99_ms", "p99 ms", 6, |o| o.p99.as_secs_f64() * 1e3),
    Col::int("payload_bytes", "", |o| o.payload_bytes),
    Col::int("retransmits", "retx", |o| o.stats.retransmits),
    Col::int("nack_retransmits", "nack", |o| o.stats.nack_retransmits),
    Col::int("timer_retransmits", "timer", |o| o.stats.timer_retransmits),
    Col::int("duplicates_suppressed", "dup", |o| {
        o.stats.duplicates_suppressed
    }),
    Col::int("spurious_retransmits", "acked after retx", |o| {
        o.stats.spurious_retransmits
    }),
    Col::int("backoffs", "", |o| o.stats.backoff_events),
    Col::int("retx_deferred", "defer", |o| o.stats.retx_deferred),
    Col::int("delivery_failures", "", |o| o.stats.delivery_failures),
    Col::int("reassembly_reclaimed", "", |o| o.stats.reassembly_reclaimed),
    Col::int("reassembly_backlog", "", |o| o.backlog as u64),
    Col::int("cells_lost", "lost", |o| o.damage.cells_lost),
    Col::int("cells_corrupted", "corrupt", |o| o.damage.cells_corrupted),
    Col::int("headers_corrected", "", |o| o.damage.headers_corrected),
    Col::int("pdus_rejected", "", |o| o.damage.pdus_rejected),
    Col::int("overflow_drops", "ovfl", |o| o.overflow_drops),
    Col::int("flap_losses", "flap", |o| o.flap_losses),
    Col::int("vbr_bytes", "vbr bytes", |o| o.vbr_bytes),
    Col::int("vbr_chunks", "", |o| o.vbr_chunks),
];

/// The sweep's shape: hosts, cross-traffic hosts, messages and their size.
const SHAPE: &[Col<(usize, usize, u32, usize)>] = &[
    Col::int("hosts", "hosts", |s| s.0 as u64),
    Col::int("extra_hosts", "extra hosts", |s| s.1 as u64),
    Col::int("msgs_per_host", "msgs per host", |s| u64::from(s.2)),
    Col::int("msg_bytes", "msg bytes", |s| s.3 as u64),
];

/// The X11 sweep, which is all of `BENCH_chaos.json`; returns its rows and,
/// apart, the 128-host rider's.
fn run_sweep(out: &mut Report, smoke: bool) -> (Vec<MeshOutcome>, MeshOutcome) {
    let (hosts, extras, msgs, msg_bytes) = if smoke {
        (16, 4, 8, 4096)
    } else {
        (64, 8, 16, 4096)
    };
    out.bench = Some("BENCH_chaos");
    out.note("## X11 — WAN-scale sweep: a ring of app hosts beside cross-traffic hosts\n\n");
    out.record(WORKER_CPUS, &());
    out.record(SHAPE, &(hosts, extras, msgs, msg_bytes));
    let sweep = out.table("sweep", SWEEP);
    let mut outcomes = Vec::new();
    for topo in ChaosTopology::all() {
        for (li, level) in SWEEP_LEVELS.iter().enumerate() {
            let seed = 0xA7A7_0000 + li as u64 * 131 + topo.id().len() as u64;
            let o = run_mesh(topo, level, hosts, extras, msgs, msg_bytes, seed);
            out.row(&sweep, &o);
            check_mesh_invariants(&o);
            outcomes.push(o);
        }
    }
    // The 128-host rider (runs in smoke mode too): the clean fat-tree ring
    // at 128 hosts must not cost a single retransmission;
    // `check_mesh_invariants` enforces the clean-level zero-retransmit /
    // zero-spurious bar, restated explicitly below.
    let rider = run_mesh(
        ChaosTopology::FatTree,
        &SWEEP_LEVELS[0],
        128,
        0,
        4,
        msg_bytes,
        0xA7A7_5EED,
    );
    out.row(&sweep, &rider);
    check_mesh_invariants(&rider);
    assert_eq!(
        rider.stats.retransmits, 0,
        "clean wire at 128 hosts must retransmit nothing"
    );
    out.note("(the last row: the clean fat-tree ring at 128 hosts, 4 messages per host)\n\n");
    (outcomes, rider)
}

/// `--guard`: receiver-driven recovery must be doing the work. Per
/// topology, the lossy row's retransmissions are mostly NACK-driven and
/// its goodput holds at least 0.35× the clean row's (0.16–0.23× when every
/// loss waited for the RTO); the clean row saw no damaged PDU, so no NACK
/// was ever sent, and retransmitted nothing — the 128-host rider too.
fn guard_sweep(out: &mut Report, outcomes: &[MeshOutcome], rider: &MeshOutcome) {
    for clean in outcomes.iter().filter(|o| o.level == "clean") {
        guard_clean(&format!("{}/clean", clean.topo.id()), clean);
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
        out.note(format!(
            "  guard {at}: {:.2}x clean goodput, {} of {} retransmissions timer-driven\n",
            share, lossy.stats.timer_retransmits, lossy.stats.retransmits
        ));
    }
    guard_clean(&format!("{}/clean@128", rider.topo.id()), rider);
    out.note("\n");
}

/// A clean row saw no damaged PDU and retransmitted nothing.
fn guard_clean(at: &str, clean: &MeshOutcome) {
    assert_eq!(
        clean.damage.pdus_rejected, 0,
        "{at}: damaged PDUs on a clean wire"
    );
    assert_eq!(
        (clean.stats.nack_retransmits, clean.stats.retransmits),
        (0, 0),
        "{at}: NACK-driven / all retransmissions on a clean wire"
    );
}

/// The X11 sweep with its `--guard`; every harsh row must have needed
/// retransmissions.
pub(super) fn run(out: &mut Report, smoke: bool, guard: bool) {
    let (outcomes, rider) = run_sweep(out, smoke);
    if guard {
        guard_sweep(out, &outcomes, &rider);
    }
    let harsh_total: u64 = outcomes
        .iter()
        .filter(|o| o.level == "harsh")
        .map(|o| o.stats.retransmits)
        .sum();
    assert!(harsh_total > 0);
}
