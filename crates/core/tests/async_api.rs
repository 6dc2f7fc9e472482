//! The completion-based async MPS API (`NCS_isend`/`NCS_irecv`/`NCS_wait`
//! /`NCS_waitany`): handle lifecycle, overlap semantics, the
//! observational-equivalence contract with the blocking calls (a fixed-size
//! slice of the property the `async_equivalence` property test sweeps) and
//! the misuse/leak invariant checks.

use bytes::Bytes;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::sync::Mutex;
use ncs_sim::{AnalysisConfig, Dur, EngineKind, Sim, SimTime};
use std::sync::Arc;

fn fast_net(n: usize, latency: Dur) -> Arc<dyn Network> {
    let fabric = Arc::new(IdealFabric::new(n, latency));
    let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
    Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
}

fn quick_cfg() -> NcsConfig {
    NcsConfig {
        poll_cost: Dur::from_nanos(100),
        ..NcsConfig::default()
    }
}

/// The pipelined configuration the equivalence property uses: credit flow
/// control, checksum/retransmit error control, and an I/O-buffer size that
/// decides monolithic vs chunked.
fn pipelined_cfg(io_buffer_bytes: usize) -> NcsConfig {
    NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        io_buffers: 4,
        io_buffer_bytes,
        poll_cost: Dur::from_nanos(100),
        ..NcsConfig::default()
    }
}

fn pattern(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect::<Vec<u8>>())
}

/// Runs one proc0 -> proc1 transfer and returns `(trace_hash, received)`.
/// `nonblocking` selects `isend`+`wait` / `irecv`+`wait` with zero work
/// between post and redeem — the pair the equivalence contract says is
/// indistinguishable from the blocking calls.
fn transfer(
    engine: EngineKind,
    len: usize,
    io_buffer_bytes: usize,
    nonblocking: bool,
) -> (u64, Vec<u8>) {
    let sim = Sim::with_engine(engine);
    let net = fast_net(2, Dur::from_micros(20));
    let payload = pattern(len);
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    NcsWorld::launch(
        &sim,
        vec![net],
        2,
        pipelined_cfg(io_buffer_bytes),
        move |id, proc_| {
            if id == 0 {
                let payload = payload.clone();
                proc_.t_create("sender", 5, move |ncs| {
                    if nonblocking {
                        let h = ncs.isend(ThreadAddr::new(1, 0), 7, payload.clone());
                        assert!(ncs.wait(h).is_none(), "send completion carries no message");
                    } else {
                        ncs.send(ThreadAddr::new(1, 0), 7, payload.clone());
                    }
                });
            } else {
                let sink = Arc::clone(&sink);
                proc_.t_create("receiver", 5, move |ncs| {
                    let m = if nonblocking {
                        let h = ncs.irecv(Some(0), None, Some(7));
                        ncs.wait(h).expect("irecv completion carries the message")
                    } else {
                        ncs.recv(Some(0), None, Some(7))
                    };
                    *sink.lock() = m.data.to_vec();
                });
            }
        },
    );
    sim.run().assert_clean();
    let received = got.lock().clone();
    (sim.trace_hash(), received)
}

#[test]
fn post_plus_wait_is_observationally_identical_to_blocking() {
    // Fixed-size slice of the equivalence property, on both engines and
    // both data paths (monolithic and chunked through 16 KiB buffers).
    // The kernel trace must be byte-identical, not merely the payloads:
    // the async pair may add spans and metrics, never events.
    for engine in [EngineKind::Coroutine, EngineKind::OsThread] {
        for len in [0usize, 1, 1024, 40_000, 200_000] {
            for io_buffer_bytes in [16 * 1024, usize::MAX] {
                let (h_block, d_block) = transfer(engine, len, io_buffer_bytes, false);
                let (h_async, d_async) = transfer(engine, len, io_buffer_bytes, true);
                assert_eq!(
                    d_block,
                    pattern(len).to_vec(),
                    "{engine:?}/{len}B blocking payload corrupted"
                );
                assert_eq!(
                    d_async, d_block,
                    "{engine:?}/{len}B async payload diverged from blocking"
                );
                assert_eq!(
                    h_async, h_block,
                    "{engine:?}/{len}B/{io_buffer_bytes}-buf: isend+wait trace \
                     diverged from blocking send"
                );
            }
        }
    }
}

#[test]
fn isend_returns_before_the_transfer_and_wait_completes_it() {
    // The overlap contract: posting a remote send costs the caller nothing
    // (the send system thread owns the transfer), while the blocking form
    // holds the caller for the full wire time.
    let len = 200_000;
    // Returns (time spent in the posting call, total sender time).
    let send_cost = |nonblocking: bool| {
        let sim = Sim::new();
        let net = fast_net(2, Dur::from_micros(20));
        let costs = Arc::new(Mutex::new((Dur::ZERO, SimTime::ZERO)));
        let c2 = Arc::clone(&costs);
        NcsWorld::launch(&sim, vec![net], 2, pipelined_cfg(16 * 1024), move |id, proc_| {
            if id == 0 {
                let c2 = Arc::clone(&c2);
                proc_.t_create("sender", 5, move |ncs| {
                    let payload = pattern(len);
                    let before = ncs.ctx().now();
                    if nonblocking {
                        let h = ncs.isend(ThreadAddr::new(1, 0), 1, payload);
                        c2.lock().0 = ncs.ctx().now().since(before);
                        ncs.wait(h);
                    } else {
                        ncs.send(ThreadAddr::new(1, 0), 1, payload);
                        c2.lock().0 = ncs.ctx().now().since(before);
                    }
                    c2.lock().1 = ncs.ctx().now();
                    let (posted, consumed, queued) = ncs.proc().request_counts();
                    assert_eq!(posted, consumed, "every posted request must be consumed");
                    assert_eq!(queued, 0, "redeemed completions must leave the queue");
                });
            } else {
                proc_.t_create("receiver", 5, move |ncs| {
                    let m = ncs.recv(Some(0), None, Some(1));
                    assert_eq!(m.data.len(), len);
                });
            }
        });
        sim.run().assert_clean();
        let out = *costs.lock();
        out
    };
    let (post_cost, t_isend_done) = send_cost(true);
    let (block_cost, t_send_done) = send_cost(false);
    // Posting a remote send is instantaneous in virtual time; the blocking
    // call pays the full transfer.
    assert_eq!(post_cost, Dur::ZERO, "isend must return at the posting instant");
    assert!(
        block_cost > Dur::ZERO,
        "blocking send of 200 KB should cost wire time"
    );
    // And redeeming the handle immediately costs the same total as the
    // blocking call did (equivalence seen from the clock).
    assert_eq!(t_isend_done, t_send_done);
}

#[test]
fn local_isend_completes_at_post_and_irecv_overlaps_compute() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                // Local (intra-process) send: the handle is born completed.
                let h = ncs.isend(ThreadAddr::new(0, 0), 9, Bytes::from_static(b"self"));
                assert!(ncs.wait(h).is_none());
                let m = ncs.recv(Some(0), None, Some(9));
                assert_eq!(&m.data[..], b"self");
                // Now the remote late sender.
                ncs.ctx().sleep(Dur::from_millis(5));
                ncs.send(ThreadAddr::new(1, 0), 3, Bytes::from_static(b"late"));
            });
        } else {
            proc_.t_create("receiver", 5, |ncs| {
                let h = ncs.irecv(Some(0), None, Some(3));
                // Compute proceeds while the message is in flight.
                ncs.compute(1_000_000, "overlap");
                let m = ncs.wait(h).expect("message");
                assert_eq!(&m.data[..], b"late");
            });
        }
    });
    sim.run().assert_clean();
}

#[test]
fn waitany_redeems_in_completion_order() {
    let sim = Sim::new();
    let net = fast_net(3, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 3, quick_cfg(), |id, proc_| {
        match id {
            0 => {
                proc_.t_create("collector", 5, |ncs| {
                    // Posted in the order slow-then-fast; redeemed in
                    // completion order fast-then-slow.
                    let slow = ncs.irecv(Some(1), None, None);
                    let fast = ncs.irecv(Some(2), None, None);
                    let (i, m) = ncs.waitany(&[slow, fast]);
                    assert_eq!(i, 1, "the fast sender must complete first");
                    assert_eq!(&m.expect("recv").data[..], b"fast");
                    let (i, m) = ncs.waitany(&[slow]);
                    assert_eq!(i, 0);
                    assert_eq!(&m.expect("recv").data[..], b"slow");
                });
            }
            1 => {
                proc_.t_create("slow", 5, |ncs| {
                    ncs.ctx().sleep(Dur::from_millis(40));
                    ncs.send(ThreadAddr::new(0, 0), 1, Bytes::from_static(b"slow"));
                });
            }
            _ => {
                proc_.t_create("fast", 5, |ncs| {
                    ncs.ctx().sleep(Dur::from_millis(1));
                    ncs.send(ThreadAddr::new(0, 0), 1, Bytes::from_static(b"fast"));
                });
            }
        }
    });
    sim.run().assert_clean();
}

#[test]
fn stale_and_leaked_handles_are_reported_under_analysis() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let (analysis, sink) = AnalysisConfig::recording();
    let cfg = NcsConfig {
        poll_cost: Dur::from_nanos(100),
        analysis,
        ..NcsConfig::default()
    };
    NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"a"));
                ncs.send(ThreadAddr::new(1, 0), 2, Bytes::from_static(b"b"));
            });
        } else {
            proc_.t_create("receiver", 5, |ncs| {
                let h = ncs.irecv(Some(0), None, Some(1));
                assert!(ncs.wait(h).is_some());
                // Double redeem: the generation went stale at the first
                // wait, so this is a reported violation, not a hang.
                assert!(ncs.wait(h).is_none());
                // And a handle that is never redeemed: its completion
                // leaks, which the shutdown sweep reports.
                let _leaked = ncs.irecv(Some(0), None, Some(2));
            });
        }
    });
    sim.run().assert_clean();
    let violations = sink.take();
    assert!(
        violations.iter().any(|v| v.check == "stale-request-handle"),
        "double wait unreported: {violations:#?}"
    );
    assert!(
        violations.iter().any(|v| v.check == "leaked-request-handle"),
        "leaked handle unreported: {violations:#?}"
    );
    // A leak is *not* a conservation break: the leaked slot is accounted
    // as live, so posted == consumed + live still balances. The
    // conservation check fires only on genuine bookkeeping corruption.
    assert!(
        !violations.iter().any(|v| v.check == "completion-conservation"),
        "leak misreported as conservation break: {violations:#?}"
    );
}

