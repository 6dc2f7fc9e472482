//! Fault-recovery scenes for the WAN-scale chaos work: crash-stop in the
//! middle of a chunked transfer, partition fail-fast with post-flap
//! recovery, a link flap cutting a cell train on the HSM stack, a path
//! that damages every PDU, and damaged deliveries under no error control.
//! Each scene checks the *graceful* part of degradation — typed exceptions
//! and reclaimed buffers instead of hangs, leaks, or spurious dead peers.

use bytes::Bytes;
use ncs_core::{
    ErrorControl, NcsConfig, NcsWorld, RtoConfig, ThreadAddr, EXC_DELIVERY_FAILED,
};
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::{
    AtmApiNet, AtmApiParams, ChaosNet, ChaosParams, ChaosTopology, HostParams, IdealFabric,
    Network, NodeId, TcpNet, TcpParams,
};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::Arc;

fn fast_net(n: usize, latency: Dur) -> Arc<dyn Network> {
    let fabric = Arc::new(IdealFabric::new(n, latency));
    let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
    Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
}

#[test]
fn crash_stop_mid_reassembly_reclaims_and_fails_cleanly() {
    // The receiver crash-stops after the first chunks of a fragmented
    // transfer have landed. The sender must burn its budget and raise
    // EXC_DELIVERY_FAILED (its send thread was parked on I/O buffers for
    // the dead peer — the purge has to unwedge it); the receiver's partial
    // reassembly buffer must be reclaimed by the timeout reaper, not leak.
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_millis(3));
    let chaos = ChaosNet::new(base, ChaosParams::clean(42));
    chaos.crash_at(NodeId(1), SimTime::from_ps(4_000_000_000)); // t = 4 ms
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(5)),
        max_retries: 3,
        io_buffer_bytes: 1024,
        reassembly_timeout: Some(Dur::from_millis(50)),
        poll_cost: Dur::from_nanos(100),
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                // 8 KB over 1 KB I/O buffers: an 8-chunk train.
                ncs.send(ThreadAddr::new(1, 0), 9, Bytes::from(vec![0x5A; 8 * 1024]));
            });
        }
        // Process 1 posts no receive; the crash eats the rest of the train.
    });
    let out = sim.run();
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    let sender = &world.procs()[0];
    let receiver = &world.procs()[1];
    assert!(
        sender.is_peer_dead(1),
        "retry exhaustion against the crashed node must mark it dead"
    );
    let exceptions = sender.pending_exceptions();
    assert!(
        !exceptions.is_empty() && exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED),
        "sender must fail with typed exceptions, not hang: {exceptions:?}"
    );
    let rstats = receiver.error_stats();
    assert!(
        rstats.reassembly_reclaimed >= 1,
        "partial reassembly must be reclaimed by the reaper: {rstats:?}"
    );
    assert_eq!(
        receiver.reassembly_backlog(),
        0,
        "no half-assembled transfer may leak past reclamation"
    );
    assert!(
        chaos.stats().snapshot().crash_drops > 0,
        "the crash must have eaten part of the train"
    );
    sim.finish();
}

#[test]
fn partition_failfast_then_recovery_after_flap() {
    // A link outage long enough to trip the partition detector: the
    // in-flight message fails fast with a typed exception (no dead-peer
    // mark, no full retry burn), and the first send after the link comes
    // back is delivered — the partition mark must drop on recovery.
    let sim = Sim::new();
    let (fabric, net) = ChaosTopology::Lan.build_chaos(2, 0, None);
    // Host 1 loses its access link from 5 ms to 300 ms.
    fabric
        .downlink(NodeId(1))
        .schedule_flap(SimTime::from_ps(5_000_000_000), SimTime::from_ps(300_000_000_000));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(2)),
        max_retries: 8,
        poll_cost: Dur::from_micros(1),
        ..NcsConfig::default()
    };
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = Arc::clone(&got);
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let g = Arc::clone(&g2);
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                // Into the outage window: lost on the wire, and the
                // loss-recovery timer finds the whole route down.
                ncs.ctx().sleep(Dur::from_millis(10));
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"into the outage"));
                // Well past the window: recovery must be possible.
                ncs.ctx().sleep(Dur::from_millis(500));
                ncs.send(ThreadAddr::new(1, 0), 2, Bytes::from_static(b"after the outage"));
            });
        } else {
            proc_.t_create("receiver", 5, move |ncs| {
                let m = ncs.recv(Some(0), None, Some(2));
                g.lock().push(m.tag);
            });
        }
    });
    let out = sim.run();
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    let sender = &world.procs()[0];
    let stats = sender.error_stats();
    assert!(
        stats.partition_failfasts >= 1,
        "the detector must have fired during the outage: {stats:?}"
    );
    assert!(
        !sender.is_peer_dead(1),
        "a partition is not a death sentence: fresh sends must stay possible"
    );
    assert!(
        !sender.is_peer_partitioned(1),
        "the partition mark must drop once a fresh send finds the route up"
    );
    let exceptions = sender.pending_exceptions();
    assert!(
        exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED),
        "{exceptions:?}"
    );
    assert_eq!(
        *got.lock(),
        vec![2],
        "the post-outage message must be delivered"
    );
    assert!(
        fabric.flap_loss_count() > 0,
        "the outage window never ate a transmission"
    );
    sim.finish();
}

#[test]
fn link_flap_during_train_recovers_bit_exact() {
    // HSM stack (NCS ATM API), chunked transfer: a short flap window cuts
    // the cell train mid-flight. Error control must retransmit the missing
    // chunks after the link returns and the application must see the full
    // payload bit-exact — with zero delivery failures and no dead peer.
    let sim = Sim::new();
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(2)));
    // Cut host 1's receive path for 10 ms in the middle of the train.
    fabric
        .downlink(NodeId(1))
        .schedule_flap(SimTime::from_ps(5_000_000_000), SimTime::from_ps(15_000_000_000));
    let hosts = vec![HostParams::sparc_ipx(); 2];
    let net: Arc<dyn Network> = Arc::new(AtmApiNet::new(
        Arc::clone(&fabric),
        hosts,
        AtmApiParams::default(),
    ));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(5)),
        max_retries: 16,
        io_buffer_bytes: 4096,
        poll_cost: Dur::from_micros(1),
        ..NcsConfig::default()
    };
    const BYTES: usize = 64 * 1024; // 16-chunk train over 4 KB buffers
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let ok = Arc::clone(&ok2);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                let payload: Vec<u8> = (0..BYTES).map(|j| (j % 251) as u8).collect();
                ncs.send(ThreadAddr::new(1, 0), 7, Bytes::from(payload));
            } else {
                let m = ncs.recv(Some(0), None, Some(7));
                assert_eq!(m.data.len(), BYTES);
                assert!(
                    m.data.iter().enumerate().all(|(j, &b)| b == (j % 251) as u8),
                    "payload corrupted across the flap"
                );
                *ok.lock() = true;
            }
        });
    });
    sim.run().assert_clean();
    assert!(*ok.lock(), "transfer never completed");
    let stats = world.procs()[0].error_stats();
    assert!(
        stats.retransmits > 0,
        "the flap must have forced retransmission: {stats:?}"
    );
    assert_eq!(stats.delivery_failures, 0, "{stats:?}");
    assert!(stats.dead_peers.is_empty(), "{stats:?}");
    assert!(
        fabric.flap_loss_count() > 0,
        "the flap window never ate a cell train"
    );
}

#[test]
fn persistent_damage_ends_in_the_give_up() {
    // A wire on which no data PDU ever reassembles: each copy arrives
    // damaged and is NACKed, each resend is damaged again. NACK-driven
    // resends spend the same retry budget as timeouts, so this must end in
    // EXC_DELIVERY_FAILED for every frame after at most `max_retries`
    // resends each — not ping-pong NACK → resend forever.
    //
    // Two wires. A flip in every cell: the one-cell NACKs mostly die too
    // (only a header hit is repaired by HEC), recovery is mostly the
    // timer's. A flip in every fifth cell: a 43-cell data PDU still never
    // survives, but four NACKs in five get through — the ping-pong proper.
    const MSGS: u32 = 48;
    const BUDGET: u32 = 6;
    for (p_corrupt, min_nack_resends) in [(1.0, 1), (0.2, u64::from(MSGS))] {
        let sim = Sim::new();
        let base = fast_net(2, Dur::from_millis(1));
        let chaos = ChaosNet::new(base, ChaosParams::new(p_corrupt, 0.0, 9));
        let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
        let cfg = NcsConfig {
            error: ErrorControl::ChecksumRetransmit,
            rto: RtoConfig::from_base(Dur::from_millis(5)),
            max_retries: BUDGET,
            poll_cost: Dur::from_micros(1),
            ..NcsConfig::default()
        };
        let world = NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
            if id == 0 {
                proc_.t_create("sender", 5, |ncs| {
                    for i in 0..MSGS {
                        ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 2048]));
                    }
                });
            }
            // Process 1 posts no receive: nothing may ever reach its stash.
        });
        let out = sim.run();
        assert!(out.panics.is_empty(), "{:?}", out.panics);
        let (sender, receiver) = (&world.procs()[0], &world.procs()[1]);
        let stats = sender.error_stats();
        assert!(sender.is_peer_dead(1), "{stats:?}");
        let exceptions = sender.pending_exceptions();
        assert_eq!(exceptions.len(), MSGS as usize, "one failure per message");
        assert!(exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED));
        assert_eq!(stats.delivery_failures, u64::from(MSGS));
        assert!(
            stats.nack_retransmits >= min_nack_resends && stats.timer_retransmits > 0,
            "p_corrupt {p_corrupt}: both recovery paths must have been tried: {stats:?}"
        );
        assert_eq!(
            stats.retransmits,
            stats.nack_retransmits + stats.timer_retransmits
        );
        assert!(
            stats.retransmits <= u64::from(MSGS * BUDGET),
            "p_corrupt {p_corrupt}: {} resends of {MSGS} frames exceed the budget of {BUDGET} each",
            stats.retransmits
        );
        // Fewer resends than the queue cap were ever made, so the queue
        // never reached it (and never had to defer).
        assert!((stats.retransmits as usize) < ncs_core::env::RETX_QUEUE_CAP);
        assert_eq!(stats.retx_deferred, 0);
        assert_eq!(
            receiver.msg_counts().1,
            0,
            "damaged bytes were consumed as data"
        );
        assert_eq!(receiver.peak_buffered(), 0);
        sim.finish();
    }
}

#[test]
fn without_error_control_damaged_deliveries_are_dropped_unread() {
    // ErrorControl::None trusts the transport — and the transport says, per
    // delivery, when that trust is misplaced. A damaged data message (or
    // exception) is counted and dropped; what the application does receive
    // is byte for byte what was sent.
    const MSGS: u32 = 80;
    let body = |i: u32| Bytes::from((0..3000u32).map(|j| (i * 7 + j) as u8).collect::<Vec<u8>>());
    let sim = Sim::new();
    let chaos = ChaosNet::new(
        fast_net(2, Dur::from_millis(1)),
        ChaosParams::new(1e-3, 5e-3, 3),
    );
    let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
    let cfg = NcsConfig {
        poll_cost: Dur::from_micros(1),
        ..NcsConfig::default()
    };
    assert_eq!(cfg.error, ErrorControl::None);
    let got = Arc::new(Mutex::new(0u32));
    let got_in = Arc::clone(&got);
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let got = Arc::clone(&got_in);
        if id == 0 {
            proc_.t_create("sender", 5, move |ncs| {
                for i in 0..MSGS {
                    ncs.send(ThreadAddr::new(1, 0), i, body(i));
                    ncs.raise(1, i, body(i));
                }
            });
        } else {
            proc_.t_create("receiver", 5, move |ncs| {
                while let Some(m) = ncs.recv_timeout(Some(0), None, None, Dur::from_millis(200)) {
                    assert_eq!(m.data, body(m.tag), "tag {} altered in flight", m.tag);
                    *got.lock() += 1;
                }
            });
        }
    });
    sim.run().assert_clean();
    let receiver = &world.procs()[1];
    for e in receiver.pending_exceptions() {
        assert_eq!(
            e.detail,
            body(e.code),
            "exception {} altered in flight",
            e.code
        );
    }
    let dropped = receiver.error_stats().damaged_dropped;
    let damage = chaos.stats().snapshot();
    assert!(
        dropped > 0,
        "the wire must have damaged something: {damage:?}"
    );
    let landed = u64::from(*got.lock()) + receiver.pending_exceptions().len() as u64;
    assert!(landed < u64::from(2 * MSGS));
    assert_eq!(
        landed + damage.messages_dropped,
        u64::from(2 * MSGS),
        "every message is consumed intact or counted damaged/lost"
    );
    assert!(dropped <= damage.messages_dropped);
}
