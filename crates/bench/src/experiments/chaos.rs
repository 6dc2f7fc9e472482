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
//! The WAN-scale topology sweep (X11) rides in the same experiment;
//! see `chaos/sweep.rs`.
//!
//! ```text
//! cargo run --release -p ncs-bench -- chaos [--smoke] [--guard]
//! ```

use super::{Opts, SmallApp};
use crate::{Col, Report};
use bytes::Bytes;
use ncs_core::{
    ErrorControl, ErrorStats, NcsConfig, NcsWorld, RtoConfig, ThreadAddr, EXC_DELIVERY_FAILED,
};
use ncs_net::atm::AtmFabric;
use ncs_net::{ChaosNet, ChaosParams, ChaosTopology, FaultStatsSnapshot, Network, NodeId};
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::Arc;

mod sweep;

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
    level: &'static str,
    app: &'static str,
    elapsed: Dur,
    verified: bool,
    damage: FaultStatsSnapshot,
    overflow_drops: u64,
    flap_losses: u64,
}

const APPS: &[Col<AppOutcome>] = &[
    Col::text("level", "level", |o| o.level),
    Col::text("app", "app", |o| o.app),
    Col::fixed("elapsed_s", "elapsed s", 3, |o| o.elapsed.as_secs_f64()),
    Col::flag("verified", "bit-exact", |o| o.verified),
    Col::int("cells_corrupted", "corrupt", |o| o.damage.cells_corrupted),
    Col::int("cells_lost", "lost", |o| o.damage.cells_lost),
    Col::int("headers_corrected", "HEC-fixed", |o| {
        o.damage.headers_corrected
    }),
    Col::int("pdus_rejected", "PDU-rej", |o| o.damage.pdus_rejected),
    Col::int("messages_dropped", "dropped", |o| o.damage.messages_dropped),
    Col::int("overflow_drops", "ovfl", |o| o.overflow_drops),
    Col::int("flap_losses", "flap", |o| o.flap_losses),
];

fn run_app(app: SmallApp, level: &Level, seed: u64) -> AppOutcome {
    let (fabric, chaos, net) = chaos_stack(app.hosts(), level, seed);
    let (run, _) = ncs_apps::run_app(&Sim::new(), |sim| app.stage(sim, net, chaos_cfg()));
    AppOutcome {
        level: level.label,
        app: app.name(),
        elapsed: run.elapsed,
        verified: run.verified,
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

/// The sender's error control at one level; its one peer is process 1,
/// estimated once a sample came back.
const SCOPE: &[Col<(&str, ErrorStats)>] = &[
    Col::text("level", "level", |s| s.0),
    Col::int("retransmits", "retx", |s| s.1.retransmits),
    Col::int("nack_retransmits", "nack", |s| s.1.nack_retransmits),
    Col::int("timer_retransmits", "timer", |s| s.1.timer_retransmits),
    Col::int("backoffs", "backoffs", |s| s.1.backoff_events),
    Col::int("rtt_samples", "rtt samples", |s| s.1.rtt_samples),
    Col::fixed("srtt_ms", "srtt ms", 2, |s| {
        s.1.peers[0].srtt.as_secs_f64() * 1e3
    }),
    Col::fixed("rto_ms", "rto ms", 2, |s| {
        s.1.peers[0].rto.as_secs_f64() * 1e3
    }),
];

/// Crash-stop scene: peer 1 is dead from the start; the first send burns
/// its retry budget and raises a delivery-failure exception, marking the
/// peer dead so the second send fails fast instead of hanging.
fn run_crash_stop(out: &mut Report) {
    out.note("## crash-stop: sends to a dead peer fail fast\n\n");
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
    out.note(format!(
        "  peer 1 dead after {} retransmits ({} backoffs); {} delivery-failure \
         exceptions raised (give-up + fail-fast), {} messages eaten by the crash\n",
        stats.retransmits,
        stats.backoff_events,
        exceptions.len(),
        chaos.stats().snapshot().crash_drops,
    ));
    sim.finish();
}

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let smoke = opts.smoke;
    out.note("# X7 — chaos sweep: cell-level faults vs NCS error control\n");
    if smoke {
        out.note("# smoke mode: reduced sweep\n");
    }
    out.note("# FORE ATM LAN stack; matmul 32x32/2 nodes, JPEG 64x64/2 nodes, FFT 512pt-class 64pt/2 sets/2 nodes\n");
    out.note(format!(
        "# microscope: {} x {} KB producer->consumer stream\n\n",
        SCOPE_MSGS,
        SCOPE_BYTES / 1024
    ));

    let apps = out.table("", APPS);
    let scope = out.table("", SCOPE);
    let mut clean_elapsed = Dur::ZERO;
    let mut harsh_retx = 0u64;
    for (li, level) in LEVELS.iter().enumerate() {
        let seed = 0xC0FFEE + li as u64 * 97;
        let outcomes = [
            run_app(SmallApp::Matmul { nodes: 2 }, level, seed),
            run_app(SmallApp::Jpeg, level, seed + 1),
            run_app(SmallApp::Fft { sets: 2 }, level, seed + 2),
        ];
        for o in &outcomes {
            out.row(&apps, o);
            assert!(
                o.verified,
                "{} must be bit-exact at fault level '{}'",
                o.app, level.label
            );
        }
        let (stats, damage, flap) = run_microscope(level, seed + 3);
        assert!(
            stats.rtt_samples > 0,
            "the estimator must see clean samples at level '{}'",
            level.label
        );
        out.row(&scope, &(level.label, stats.clone()));
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
    }
    assert!(harsh_retx > 0);

    run_crash_stop(out);
    out.note("\n");

    sweep::run(out, smoke, opts.guard);

    out.note(format!(
        "(every app run at every fault level verified bit-exact; recovery is \
         paid for in time — matmul clean: {:.3}s — and in the retransmission \
         counters above, with the RTO tracking each peer's observed RTT)\n",
        clean_elapsed.as_secs_f64()
    ));
}
