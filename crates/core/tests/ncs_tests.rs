//! End-to-end tests of the NCS environment: the paper's API and, most
//! importantly, its core claim — that NCS_recv blocks only the calling
//! thread, so computation overlaps communication.

use bytes::Bytes;
use ncs_core::filters::{MpiFilter, P4Filter, PvmFilter};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{
    ChaosNet, ChaosParams, HostParams, IdealFabric, Network, TcpNet, TcpParams, Testbed,
};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
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

#[test]
fn ping_pong_between_threads() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(20));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("worker", 5, move |ncs| {
            if ncs.proc().id() == 0 {
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"ping"));
                let m = ncs.recv(Some(1), None, Some(2));
                assert_eq!(&m.data[..], b"pong");
            } else {
                let m = ncs.recv(Some(0), None, Some(1));
                assert_eq!(&m.data[..], b"ping");
                ncs.send(m.from, 2, Bytes::from_static(b"pong"));
            }
        });
        let _ = id;
    });
    sim.run().assert_clean();
}

#[test]
fn recv_blocks_only_calling_thread() {
    // The paper's core claim. Process 1 has two threads: one waits for a
    // message that arrives late, the other computes. With NCS the compute
    // thread finishes on schedule; the process CPU never idles while
    // useful work exists.
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let compute_done_at = Arc::new(Mutex::new(SimTime::ZERO));
    let cd = Arc::clone(&compute_done_at);
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), move |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                // Send only after 50 ms of "thinking".
                ncs.ctx().sleep(Dur::from_millis(50));
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"late"));
            });
        } else {
            proc_.t_create("receiver", 5, |ncs| {
                let m = ncs.recv_any();
                assert_eq!(&m.data[..], b"late");
                assert!(ncs.ctx().now() >= SimTime::ZERO + Dur::from_millis(50));
            });
            let cd = Arc::clone(&cd);
            proc_.t_create("computer", 6, move |ncs| {
                ncs.compute(10_000_000, "work"); // 10 ms at 1 GHz
                *cd.lock() = ncs.ctx().now();
            });
        }
    });
    sim.run().assert_clean();
    let done = *compute_done_at.lock();
    // The computer must NOT have waited for the receiver's message: it
    // finishes in ~10 ms, far before the 50 ms message.
    assert!(
        done < SimTime::ZERO + Dur::from_millis(20),
        "compute finished at {done}, was blocked behind recv"
    );
}

#[test]
fn single_threaded_process_blocks_like_p4() {
    // Sanity check of the baseline-vs-NCS distinction: if the same process
    // does recv-then-compute in ONE thread, the compute is delayed.
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let compute_done_at = Arc::new(Mutex::new(SimTime::ZERO));
    let cd = Arc::clone(&compute_done_at);
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), move |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.ctx().sleep(Dur::from_millis(50));
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"late"));
            });
        } else {
            let cd = Arc::clone(&cd);
            proc_.t_create("serial", 5, move |ncs| {
                let _ = ncs.recv_any();
                ncs.compute(10_000_000, "work");
                *cd.lock() = ncs.ctx().now();
            });
        }
    });
    sim.run().assert_clean();
    assert!(*compute_done_at.lock() >= SimTime::ZERO + Dur::from_millis(60));
}

#[test]
fn local_send_between_sibling_threads() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 1, quick_cfg(), |_, proc_| {
        proc_.t_create("producer", 5, |ncs| {
            ncs.send(ThreadAddr::new(0, 1), 7, Bytes::from_static(b"local"));
        });
        proc_.t_create("consumer", 5, |ncs| {
            let m = ncs.recv(Some(0), Some(0), Some(7));
            assert_eq!(&m.data[..], b"local");
            assert_eq!(m.from, ThreadAddr::new(0, 0));
        });
    });
    sim.run().assert_clean();
}

#[test]
fn wildcard_and_tag_matching() {
    let sim = Sim::new();
    let net = fast_net(3, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 3, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| match id {
            0 => {
                // Two messages arrive; take tag 9 first regardless of order.
                let m9 = ncs.recv(None, None, Some(9));
                assert_eq!(m9.from.proc, 2);
                let m8 = ncs.recv(None, None, None);
                assert_eq!(m8.tag, 8);
                assert_eq!(m8.from.proc, 1);
            }
            1 => ncs.send(ThreadAddr::new(0, 0), 8, Bytes::from_static(b"a")),
            _ => ncs.send(ThreadAddr::new(0, 0), 9, Bytes::from_static(b"b")),
        });
    });
    sim.run().assert_clean();
}

#[test]
fn bcast_reaches_listed_threads() {
    let sim = Sim::new();
    let net = fast_net(4, Dur::from_micros(10));
    let got = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&got);
    NcsWorld::launch(&sim, vec![net], 4, quick_cfg(), move |id, proc_| {
        let g = Arc::clone(&g);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                let list: Vec<ThreadAddr> = (1..4).map(|p| ThreadAddr::new(p, 0)).collect();
                ncs.bcast(&list, 3, Bytes::from_static(b"hello"));
            } else {
                let m = ncs.recv(Some(0), None, Some(3));
                assert_eq!(&m.data[..], b"hello");
                g.fetch_add(1, Ordering::SeqCst);
            }
        });
    });
    sim.run().assert_clean();
    assert_eq!(got.load(Ordering::SeqCst), 3);
}

#[test]
fn signal_and_wait() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.ctx().sleep(Dur::from_millis(3));
                ncs.signal(ThreadAddr::new(1, 0));
            } else {
                ncs.wait_signal(Some(ThreadAddr::new(0, 0)));
                assert!(ncs.ctx().now() >= SimTime::ZERO + Dur::from_millis(3));
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn cross_process_barrier() {
    let sim = Sim::new();
    let net = fast_net(4, Dur::from_micros(10));
    let after = Arc::new(Mutex::new(Vec::new()));
    let a2 = Arc::clone(&after);
    NcsWorld::launch(&sim, vec![net], 4, quick_cfg(), move |id, proc_| {
        let after = Arc::clone(&a2);
        proc_.t_create("w", 5, move |ncs| {
            ncs.ctx().sleep(Dur::from_millis(id as u64)); // skewed arrivals
            let parties: Vec<ThreadAddr> = (0..4).map(|p| ThreadAddr::new(p, 0)).collect();
            ncs.barrier(&parties);
            after.lock().push(ncs.ctx().now());
        });
    });
    sim.run().assert_clean();
    let after = after.lock();
    assert_eq!(after.len(), 4);
    let min = after.iter().min().unwrap();
    // Nobody leaves before the slowest (3 ms) arrival.
    assert!(*min >= SimTime::ZERO + Dur::from_millis(3));
}

#[test]
fn block_unblock_paper_jpeg_pattern() {
    // Figure 17: thread 1 reads the image, then NCS_unblock(tid2);
    // thread 2 NCS_block()s until then.
    let sim = Sim::new();
    let net = fast_net(1, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 1, quick_cfg(), |_, proc_| {
        proc_.t_create("t1", 5, |ncs| {
            ncs.ctx().sleep(Dur::from_millis(2)); // read file
            ncs.unblock(1);
        });
        proc_.t_create("t2", 5, |ncs| {
            ncs.block();
            assert!(ncs.ctx().now() >= SimTime::ZERO + Dur::from_millis(2));
        });
    });
    sim.run().assert_clean();
}

#[test]
fn credit_flow_control_paces_sender() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        ..quick_cfg()
    };
    let received = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&received);
    NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let r = Arc::clone(&r2);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..20u32 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![0u8; 256]));
                }
            } else {
                for i in 0..20u32 {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert_eq!(m.data.len(), 256);
                    r.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    assert_eq!(received.load(Ordering::SeqCst), 20);
}

#[test]
fn error_control_recovers_from_corruption() {
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.3, 0.0, 42));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..30u32 {
                    let payload: Vec<u8> = (0..64).map(|k| (i as u8) ^ (k as u8)).collect();
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(payload));
                }
            } else {
                for i in 0..30u32 {
                    let m = ncs.recv(Some(0), None, Some(i));
                    // Every delivered payload must be intact.
                    for (k, &b) in m.data.iter().enumerate() {
                        assert_eq!(b, (i as u8) ^ (k as u8), "msg {i} byte {k}");
                    }
                }
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    assert!(
        faulty.stats().snapshot().messages_corrupted > 0,
        "fault injection never fired"
    );
    assert!(
        world.procs()[0].error_stats().retransmits >= faulty.stats().snapshot().messages_corrupted,
        "every corruption must trigger a retransmit"
    );
}

#[test]
fn two_tier_nsm_hsm_selection() {
    let sim = Sim::new();
    let nsm = Testbed::SunAtmLanTcp.build(2);
    let hsm = Testbed::SunAtmLanApi.build(2);
    NcsWorld::launch(&sim, vec![hsm, nsm], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.send_via(0, ThreadAddr::new(1, 0), 1, Bytes::from(vec![1u8; 4096]));
                ncs.send_via(1, ThreadAddr::new(1, 0), 2, Bytes::from(vec![2u8; 4096]));
            } else {
                let a = ncs.recv(None, None, Some(1));
                let b = ncs.recv(None, None, Some(2));
                assert_eq!(a.data[0], 1);
                assert_eq!(b.data[0], 2);
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn p4_filter_ports_p4_style_code() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |_, proc_| {
        proc_.t_create("main", 5, |ncs| {
            let p4 = P4Filter::new(ncs);
            if p4.my_id() == 0 {
                p4.send(5, 1, Bytes::from_static(b"data"));
                let (t, from, d) = p4.recv(None, None);
                assert_eq!((t, from), (6, 1));
                assert_eq!(&d[..], b"result");
            } else {
                let (t, from, d) = p4.recv(Some(5), Some(0));
                assert_eq!((t, from), (5, 0));
                assert_eq!(&d[..], b"data");
                p4.send(6, 0, Bytes::from_static(b"result"));
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn pvm_and_mpi_filters() {
    let sim = Sim::new();
    let net = fast_net(3, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 3, quick_cfg(), |_, proc_| {
        proc_.t_create("main", 5, |ncs| {
            let mpi = MpiFilter::new(ncs);
            // MPI_Bcast from rank 1.
            let data = if mpi.rank() == 1 {
                Some(Bytes::from_static(b"cast"))
            } else {
                None
            };
            let got = mpi.bcast(1, data);
            assert_eq!(&got[..], b"cast");
            mpi.barrier();
            // PVM-style exchange ring: i -> (i+1) % 3.
            let pvm = PvmFilter::new(ncs);
            let me = pvm.mytid();
            pvm.send((me + 1) % 3, 77, Bytes::from(vec![me as u8]));
            let (from, tag, d) = pvm.recv(None, Some(77));
            assert_eq!(tag, 77);
            assert_eq!(from, (me + 2) % 3);
            assert_eq!(d[0], ((me + 2) % 3) as u8);
        });
    });
    sim.run().assert_clean();
}

#[test]
fn filter_broadcasts_reach_each_receiver_once() {
    // Over four processes: p4 rank 2 broadcasts to every other rank, PVM
    // task 0 multicasts to a list that names itself, MPI rank 1 is root.
    // Each receiver gets each payload once under its tag; no caller gets
    // its own, so every process's data sends and receives are exact and
    // nothing is left over.
    const P4_TYPE: i32 = 41;
    const PVM_TAG: u32 = 42;
    let sim = Sim::new();
    let net = fast_net(4, Dur::from_micros(10));
    let world = NcsWorld::launch(&sim, vec![net], 4, quick_cfg(), |id, proc_| {
        proc_.t_create("main", 5, move |ncs| {
            let p4 = P4Filter::new(ncs);
            let pvm = PvmFilter::new(ncs);
            let mpi = MpiFilter::new(ncs);
            match id {
                2 => p4.broadcast(P4_TYPE, Bytes::from_static(b"p4 all")),
                0 => pvm.mcast(&[3, 0, 1], PVM_TAG, Bytes::from_static(b"pvm some")),
                _ => {}
            }
            let data = (id == 1).then(|| Bytes::from_static(b"mpi root"));
            assert_eq!(&mpi.bcast(1, data)[..], b"mpi root");
            if id != 2 {
                let got = p4.recv(Some(P4_TYPE), Some(2));
                assert_eq!(got, (P4_TYPE, 2, Bytes::from_static(b"p4 all")));
            }
            if id == 1 || id == 3 {
                let got = pvm.recv(Some(0), Some(PVM_TAG));
                assert_eq!(got, (0, PVM_TAG, Bytes::from_static(b"pvm some")));
            }
            ncs.ctx().sleep(Dur::from_millis(20)); // a duplicate would have landed
            assert!(!ncs.probe(None, None, None), "proc {id}: stray message");
        });
    });
    sim.run().assert_clean();
    let counts: Vec<(u64, u64)> = world.procs().iter().map(|p| p.msg_counts()).collect();
    assert_eq!(counts, vec![(2, 2), (3, 2), (3, 1), (0, 3)]);
}

#[test]
fn message_counters_track_traffic() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let world = NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..5 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from_static(b"m"));
                }
            } else {
                for i in 0..5 {
                    ncs.recv(None, None, Some(i));
                }
            }
        });
    });
    sim.run().assert_clean();
    assert_eq!(world.procs()[0].msg_counts().0, 5);
    assert_eq!(world.procs()[1].msg_counts().1, 5);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let sim = Sim::new();
        let net = fast_net(3, Dur::from_micros(15));
        NcsWorld::launch(&sim, vec![net], 3, quick_cfg(), |id, proc_| {
            proc_.t_create("a", 5, move |ncs| {
                for i in 0..10u32 {
                    let peer = (id + 1) % 3;
                    ncs.send(
                        ThreadAddr::new(peer, 0),
                        i,
                        Bytes::from(vec![id as u8; 100]),
                    );
                    let m = ncs.recv(None, None, Some(i));
                    assert_eq!(m.data.len(), 100);
                }
            });
        });
        let out = sim.run();
        out.assert_clean();
        (out.end_time, sim.trace_hash())
    };
    assert_eq!(run(), run());
}

#[test]
fn exception_service_delivers_to_handler() {
    use std::sync::atomic::AtomicU32;
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let seen = Arc::new(AtomicU32::new(0));
    let s2 = Arc::clone(&seen);
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), move |id, proc_| {
        if id == 1 {
            let s3 = Arc::clone(&s2);
            proc_.on_exception(move |e| {
                assert_eq!(e.from.proc, 0);
                assert_eq!(&e.detail[..], b"disk full");
                s3.store(e.code, Ordering::SeqCst);
            });
        }
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.raise(1, 507, Bytes::from_static(b"disk full"));
                // Data traffic still flows alongside exceptions.
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"x"));
            } else {
                ncs.recv(Some(0), None, Some(1));
            }
        });
    });
    sim.run().assert_clean();
    assert_eq!(seen.load(Ordering::SeqCst), 507);
}

#[test]
fn exceptions_buffer_until_handler_installed() {
    let sim = Sim::new();
    let net = fast_net(1, Dur::from_micros(10));
    let world = NcsWorld::launch(&sim, vec![net], 1, quick_cfg(), |_, proc_| {
        proc_.t_create("w", 5, |ncs| {
            ncs.raise(0, 42, Bytes::from_static(b"self"));
        });
    });
    sim.run().assert_clean();
    let pending = world.procs()[0].pending_exceptions();
    assert_eq!(pending.len(), 1);
    assert_eq!(pending[0].code, 42);
}

#[test]
fn probe_and_recv_timeout() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.ctx().sleep(Dur::from_millis(20));
                ncs.send(ThreadAddr::new(1, 0), 9, Bytes::from_static(b"eventually"));
            } else {
                assert!(!ncs.probe(None, None, None), "nothing buffered yet");
                // Times out before the 20 ms message.
                let t0 = ncs.ctx().now();
                let r = ncs.recv_timeout(Some(0), None, Some(9), Dur::from_millis(5));
                assert!(r.is_none(), "must time out");
                assert!(ncs.ctx().now().since(t0) >= Dur::from_millis(5));
                // Succeeds with a generous timeout.
                let r = ncs.recv_timeout(Some(0), None, Some(9), Dur::from_secs(1));
                assert_eq!(&r.expect("delivered").data[..], b"eventually");
                // And probe sees nothing afterwards.
                assert!(!ncs.probe(None, None, None));
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn probe_true_when_message_waiting() {
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.send(ThreadAddr::new(1, 0), 3, Bytes::from_static(b"x"));
            } else {
                // Give the message time to land, then probe before recv.
                ncs.mctx().sleep(Dur::from_millis(50));
                assert!(ncs.probe(Some(0), None, Some(3)));
                assert!(!ncs.probe(Some(0), None, Some(4)), "wrong tag");
                let m = ncs.recv(Some(0), None, Some(3));
                assert_eq!(&m.data[..], b"x");
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn flow_and_error_control_compose() {
    // The two NCS_init services active together, over a corrupting
    // transport: credit pacing bounds buffering while checksum/retransmit
    // repairs the stream.
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.2, 0.0, 0xC0));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..24u32 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 512]));
                }
            } else {
                for i in 0..24u32 {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert!(m.data.iter().all(|&b| b == i as u8), "msg {i} corrupt");
                    ncs.compute(1_000_000, "drain");
                }
            }
        });
    });
    sim.run().assert_clean();
    assert!(faulty.stats().snapshot().messages_corrupted > 0);
    assert!(world.procs()[0].error_stats().retransmits > 0);
    assert!(
        world.procs()[1].peak_buffered() <= 8,
        "credit window must bound buffering even with retransmits: {}",
        world.procs()[1].peak_buffered()
    );
}

#[test]
fn filters_work_over_the_hsm_tier() {
    // Ported p4-style code running on the ATM API transport: the filter
    // stack composes with the HSM tier.
    let sim = Sim::new();
    let net = Testbed::SunAtmLanApi.build(2);
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |_, proc_| {
        proc_.t_create("main", 5, |ncs| {
            let p4 = P4Filter::new(ncs);
            if p4.my_id() == 0 {
                p4.send(1, 1, Bytes::from(vec![9u8; 20_000]));
                let (t, _, d) = p4.recv(Some(2), Some(1));
                assert_eq!(t, 2);
                assert_eq!(d.len(), 4);
            } else {
                let (_, _, d) = p4.recv(Some(1), Some(0));
                assert_eq!(d.len(), 20_000);
                p4.send(2, 0, Bytes::from_static(b"done"));
            }
        });
    });
    sim.run().assert_clean();
}

#[test]
fn messages_respect_destination_thread() {
    // A message addressed to thread 1 must never satisfy thread 0's recv.
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(ThreadAddr::new(1, 1), 5, Bytes::from_static(b"for-t1"));
                ncs.send(ThreadAddr::new(1, 0), 5, Bytes::from_static(b"for-t0"));
            });
        } else {
            proc_.t_create("t0", 5, |ncs| {
                let m = ncs.recv(None, None, Some(5));
                assert_eq!(&m.data[..], b"for-t0", "t0 stole t1's message");
            });
            proc_.t_create("t1", 5, |ncs| {
                let m = ncs.recv(None, None, Some(5));
                assert_eq!(&m.data[..], b"for-t1");
            });
        }
    });
    sim.run().assert_clean();
}

#[test]
fn communication_deadlock_is_reported_not_hung() {
    // Two threads both waiting for messages nobody sends: the run drains,
    // and the outcome names the blocked threads for diagnosis.
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    NcsWorld::launch(&sim, vec![net], 2, quick_cfg(), |_, proc_| {
        proc_.t_create("waiter", 5, |ncs| {
            let _ = ncs.recv_any(); // never satisfied
        });
    });
    let out = sim.run();
    assert!(out.panics.is_empty());
    assert!(
        out.blocked.iter().any(|n| n.contains("waiter")),
        "blocked list should name the stuck threads: {:?}",
        out.blocked
    );
    sim.finish();
}

#[test]
fn error_control_recovers_from_message_loss() {
    // Messages (including some ACKs) vanish outright; timeout-driven
    // retransmission with duplicate suppression still delivers everything
    // exactly once, in tag order.
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.0, 0.25, 77));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: ncs_core::RtoConfig::from_base(Dur::from_millis(20)),
        ..quick_cfg()
    };
    let received = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&received);
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, move |id, proc_| {
        let r = Arc::clone(&r2);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..25u32 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 128]));
                }
            } else {
                for i in 0..25u32 {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert!(m.data.iter().all(|&b| b == i as u8));
                    r.lock().push(i);
                }
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    assert!(
        faulty.stats().snapshot().messages_dropped > 0,
        "loss injection never fired"
    );
    assert!(
        world.procs()[0].error_stats().retransmits > 0,
        "no retransmits happened"
    );
    assert_eq!(*received.lock(), (0..25).collect::<Vec<_>>());
}

#[test]
fn error_control_gives_up_and_raises_exception() {
    // Total blackout: every message dropped. The sender's error control
    // exhausts its retries and raises EXC_DELIVERY_FAILED locally instead
    // of hanging the process forever.
    use ncs_core::EXC_DELIVERY_FAILED;
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let faulty = ChaosNet::new(base, ChaosParams::message_level(0.0, 1.0, 5));
    let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: ncs_core::RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 3,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(
                    ThreadAddr::new(1, 0),
                    1,
                    Bytes::from_static(b"into the void"),
                );
            });
        }
        // Process 1 creates no threads: it shuts down immediately and never
        // receives anything (the wire eats it all anyway).
    });
    let out = sim.run();
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    let exceptions = world.procs()[0].pending_exceptions();
    assert_eq!(exceptions.len(), 1, "expected one delivery failure");
    assert_eq!(exceptions[0].code, EXC_DELIVERY_FAILED);
    assert!(
        world.procs()[0].is_peer_dead(1),
        "retry exhaustion must mark the peer dead"
    );
    sim.finish();
}

#[test]
fn adaptive_rto_learns_from_samples() {
    // Clean wire: ACKs return unmolested, the estimator accumulates
    // Karn-clean samples, and the RTO converges near SRTT + 4·RTTVAR —
    // far below the 500 ms it would sit at with no samples.
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..10u32 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 256]));
                }
            } else {
                for i in 0..10u32 {
                    let _ = ncs.recv(Some(0), None, Some(i));
                }
            }
        });
    });
    sim.run().assert_clean();
    let stats = world.procs()[0].error_stats();
    assert!(stats.rtt_samples > 0, "no RTT samples: {stats:?}");
    assert_eq!(stats.retransmits, 0);
    assert_eq!(stats.delivery_failures, 0);
    assert!(stats.dead_peers.is_empty());
    let defaults = ncs_core::RtoConfig::default();
    let peer = stats
        .peers
        .iter()
        .find(|p| p.peer == 1)
        .expect("estimator for peer 1");
    assert!(peer.srtt > Dur::ZERO);
    assert!(peer.rto >= defaults.min && peer.rto <= defaults.max);
    assert!(
        peer.rto < defaults.initial,
        "RTO failed to adapt below the pre-sample initial: {:?}",
        peer.rto
    );
}

#[test]
fn lost_acks_never_cause_duplicate_delivery() {
    // Property sweep: under message loss that provably eats ACKs (the
    // receiver's duplicates_suppressed counter ticks only when a
    // retransmission arrives for an already-delivered frame), every data
    // message reaches the application exactly once.
    const MSGS: u32 = 30;
    let mut saw_ack_loss = false;
    for seed in [3u64, 17, 41, 99, 1234, 777777] {
        let sim = Sim::new();
        let base = fast_net(2, Dur::from_micros(10));
        let faulty = ChaosNet::new(base, ChaosParams::message_level(0.0, 0.25, seed));
        let faulty_dyn: Arc<dyn Network> = Arc::clone(&faulty) as Arc<dyn Network>;
        let cfg = NcsConfig {
            error: ErrorControl::ChecksumRetransmit,
            rto: ncs_core::RtoConfig::from_base(Dur::from_millis(20)),
            max_retries: 12,
            ..quick_cfg()
        };
        let tags = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&tags);
        let world = NcsWorld::launch(&sim, vec![faulty_dyn], 2, cfg, move |id, proc_| {
            let t = Arc::clone(&t2);
            proc_.t_create("w", 5, move |ncs| {
                if id == 0 {
                    for i in 0..MSGS {
                        ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 96]));
                    }
                } else {
                    // Wildcard receives: a duplicate, if one leaked through,
                    // would consume a slot and break the multiset check.
                    for _ in 0..MSGS {
                        let m = ncs.recv(Some(0), None, None);
                        assert!(m.data.iter().all(|&b| b == m.tag as u8));
                        t.lock().push(m.tag);
                    }
                }
            });
        });
        let out = sim.run();
        out.assert_clean();
        let mut got = tags.lock().clone();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..MSGS).collect::<Vec<_>>(),
            "seed {seed}: duplicate or missing delivery"
        );
        if world.procs()[1].error_stats().duplicates_suppressed > 0 {
            saw_ack_loss = true;
        }
    }
    assert!(
        saw_ack_loss,
        "sweep never exercised the lost-ACK path; pick different seeds"
    );
}

#[test]
fn dead_peer_sends_fail_fast() {
    // Blackout wire. The first send exhausts its retry budget and marks
    // the peer dead; a later send fails immediately with the same
    // exception instead of burning a fresh budget (or hanging).
    use ncs_core::EXC_DELIVERY_FAILED;
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let dead: Arc<dyn Network> = ChaosNet::new(base, ChaosParams::message_level(0.0, 1.0, 11));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: ncs_core::RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 3,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![dead], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"first"));
                // Idle past the whole retry schedule (10 + 20 + 40 + 80 ms
                // of backed-off timeouts) so the budget is provably gone.
                ncs.ctx().sleep(Dur::from_secs(2));
                ncs.send(ThreadAddr::new(1, 0), 2, Bytes::from_static(b"second"));
            });
        }
    });
    let out = sim.run();
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    assert!(world.procs()[0].is_peer_dead(1));
    let exceptions = world.procs()[0].pending_exceptions();
    assert_eq!(
        exceptions.len(),
        2,
        "one give-up exception + one fail-fast exception: {exceptions:?}"
    );
    assert!(exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED));
    let stats = world.procs()[0].error_stats();
    assert_eq!(stats.retransmits, 3);
    assert!(stats.backoff_events >= 3);
    sim.finish();
}

#[test]
fn oversized_message_is_chunked_not_fatal() {
    // Regression: a >64 KiB message used to blow past the AAL5 65 535-byte
    // CS-PDU ceiling (a panic deep in segmentation). The pipelined data
    // path now chunks it through the I/O-buffer pool — over both the
    // TCP-based NSM and, critically, the ATM-API HSM whose PDUs really hit
    // AAL5 — with the protocol invariants armed.
    use ncs_sim::AnalysisConfig;
    let payload: Vec<u8> = (0..70_000u32).map(|i| (i * 31 + 7) as u8).collect();
    for hsm in [false, true] {
        let (analysis, sink) = AnalysisConfig::recording();
        let sim = Sim::new();
        let net = if hsm {
            Testbed::SunAtmLanApi.build(2)
        } else {
            fast_net(2, Dur::from_micros(10))
        };
        let cfg = NcsConfig {
            flow: FlowControl::Credit { window: 4 },
            error: ErrorControl::ChecksumRetransmit,
            analysis,
            ..quick_cfg()
        };
        let expect = payload.clone();
        let sent = Bytes::from(payload.clone());
        let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
            let sent = sent.clone();
            let expect = expect.clone();
            proc_.t_create("w", 5, move |ncs| {
                if id == 0 {
                    ncs.send(ThreadAddr::new(1, 0), 9, sent.clone());
                } else {
                    let m = ncs.recv(Some(0), None, Some(9));
                    assert_eq!(m.data.len(), expect.len(), "length mangled");
                    assert_eq!(&m.data[..], &expect[..], "bytes mangled");
                }
            });
        });
        sim.run().assert_clean();
        let (fragmented, chunks, _) = world.procs()[0].pipeline_stats();
        assert_eq!(fragmented, 1, "hsm={hsm}: message should have been chunked");
        assert_eq!(chunks, 70_000u64.div_ceil(16 * 1024), "hsm={hsm}");
        let (_, _, reassembled) = world.procs()[1].pipeline_stats();
        assert_eq!(reassembled, 1, "hsm={hsm}");
        let violations = sink.take();
        assert!(violations.is_empty(), "hsm={hsm}: {violations:?}");
    }
}

#[test]
fn seq_wraparound_with_full_window() {
    // Drive the per-destination sequence counter across the u32 wrap with
    // credit flow control keeping a full window in flight. The wrap-aware
    // duplicate window and ACK checks must keep delivery exact — before
    // them, seq u32::MAX acked fine but 0, 1, 2... after the wrap looked
    // like replays of the very first frames.
    use ncs_sim::AnalysisConfig;
    const MSGS: u32 = 8;
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        analysis,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for i in 0..MSGS {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![i as u8; 64]));
                }
            } else {
                for i in 0..MSGS {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert!(m.data.iter().all(|&b| b == i as u8));
                }
            }
        });
    });
    // Start the counter 4 frames shy of the wrap: messages 0..=3 use
    // u32::MAX-3..=u32::MAX, messages 4..=7 use 0..=3. The receiver's
    // cumulative floor starts where the sender's allocator does.
    world.procs()[0].debug_seed_next_seq(1, u32::MAX - 3);
    world.procs()[1].debug_seed_expected_seq(0, u32::MAX - 3);
    sim.run().assert_clean();
    let stats = world.procs()[0].error_stats();
    assert_eq!(stats.delivery_failures, 0);
    assert_eq!(world.procs()[1].error_stats().duplicates_suppressed, 0);
    assert_eq!(world.procs()[1].msg_counts().1, u64::from(MSGS));
    let violations = sink.take();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn peer_death_while_parked_on_credits_raises_not_hangs() {
    // Lost-wakeup regression: the send thread parks waiting for credits
    // from a peer that then dies (total blackout, retry budget exhausted
    // on the first frame). The give-up path must wake the parked sender
    // and surface EXC_DELIVERY_FAILED for the gated message too — not
    // leave the process wedged forever.
    use ncs_core::EXC_DELIVERY_FAILED;
    use ncs_sim::AnalysisConfig;
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    let base = fast_net(2, Dur::from_micros(10));
    let dead: Arc<dyn Network> = ChaosNet::new(base, ChaosParams::message_level(0.0, 1.0, 23));
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 1 },
        error: ErrorControl::ChecksumRetransmit,
        rto: ncs_core::RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 3,
        analysis,
        ..quick_cfg()
    };
    let world = NcsWorld::launch(&sim, vec![dead], 2, cfg, |id, proc_| {
        if id == 0 {
            proc_.t_create("sender", 5, |ncs| {
                // First send spends the only credit and vanishes on the
                // wire; the second parks the send thread on credits that
                // can never arrive.
                ncs.send(ThreadAddr::new(1, 0), 1, Bytes::from_static(b"first"));
                ncs.send(ThreadAddr::new(1, 0), 2, Bytes::from_static(b"second"));
            });
        }
        // Process 1 creates no threads and never grants anything.
    });
    let out = sim.run(); // completing at all proves the sender was woken
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    assert!(world.procs()[0].is_peer_dead(1));
    let exceptions = world.procs()[0].pending_exceptions();
    assert_eq!(exceptions.len(), 2, "both sends must fail: {exceptions:?}");
    assert!(exceptions.iter().all(|e| e.code == EXC_DELIVERY_FAILED));
    let violations = sink.take();
    assert!(violations.is_empty(), "{violations:?}");
    sim.finish();
}

#[test]
fn chunked_delivery_is_byte_identical_to_monolithic() {
    // The pipelined path is a transport detail: for every size across the
    // chunking boundaries (including zero bytes and a 200 KiB worst case),
    // the application sees exactly the bytes of a monolithic transfer.
    let chunk = 16 * 1024;
    for &len in &[0usize, 1, 37, chunk - 1, chunk, chunk + 1, 3 * chunk, 200_000] {
        let payload: Vec<u8> = (0..len).map(|i| (i as u32).wrapping_mul(2654435761) as u8).collect();
        for monolithic in [false, true] {
            let sim = Sim::new();
            let net = fast_net(2, Dur::from_micros(10));
            let cfg = NcsConfig {
                flow: FlowControl::Credit { window: 4 },
                error: ErrorControl::ChecksumRetransmit,
                // Monolithic baseline: buffers wide enough to never chunk.
                io_buffer_bytes: if monolithic { usize::MAX } else { chunk },
                ..quick_cfg()
            };
            let sent = Bytes::from(payload.clone());
            let expect = payload.clone();
            let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
                let sent = sent.clone();
                let expect = expect.clone();
                proc_.t_create("w", 5, move |ncs| {
                    if id == 0 {
                        ncs.send(ThreadAddr::new(1, 0), 5, sent.clone());
                    } else {
                        let m = ncs.recv(Some(0), None, Some(5));
                        assert_eq!(&m.data[..], &expect[..], "len {}", expect.len());
                    }
                });
            });
            sim.run().assert_clean();
            let (fragmented, _, _) = world.procs()[0].pipeline_stats();
            assert_eq!(
                fragmented,
                u64::from(!monolithic && len > chunk),
                "len {len}, monolithic {monolithic}"
            );
        }
    }
}

/// Drops a hand-built frame "from proc 0" straight into proc 1's transport
/// inbox at `at` — the wire's view of a damaged or hostile sender.
fn inject_frame(sim: &Sim, net: &Arc<dyn Network>, at: SimTime, tag: u64, payload: Vec<u8>) {
    use ncs_net::{Delivery, NodeId};
    let inbox = net.inbox(NodeId(1));
    sim.schedule_at(at, move |sim| {
        let d = Delivery {
            src: NodeId(0),
            dst: NodeId(1),
            tag,
            payload: Bytes::from(payload),
            sent_at: sim.now(),
            arrived_at: sim.now(),
            damaged: false,
        };
        assert!(inbox.offer(sim, d).is_ok(), "inbox closed before injection");
    });
}

#[test]
fn hostile_fragment_count_is_rejected_before_allocating() {
    // Regression: reassembly sized its table straight from the wire's
    // chunk count. With error control off nothing vouches for that field,
    // and a header declaring u32::MAX chunks asked for a ~128 GiB table.
    // It must be refused through the malformed-fragment path, and an honest
    // chunked transfer on the same pair must still go through.
    use ncs_core::addr::encode_tag;
    use ncs_core::MsgClass;
    use ncs_sim::AnalysisConfig;
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(10));
    let cfg = NcsConfig {
        error: ErrorControl::None,
        analysis,
        ..quick_cfg()
    };
    let chunk = cfg.io_buffer_bytes as u64;
    for (xfer, total) in [
        (900u32, u32::MAX),
        (901, (u64::from(u32::MAX) / chunk) as u32 + 2),
    ] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&xfer.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&total.to_le_bytes());
        frame.extend_from_slice(b"chunk zero of far too many");
        let tag = encode_tag(MsgClass::Frag, 0, 0, 9);
        inject_frame(&sim, &net, SimTime::ZERO + Dur::from_micros(1), tag, frame);
    }
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i * 17 + 1) as u8).collect();
    let sent = Bytes::from(payload.clone());
    let world = NcsWorld::launch(&sim, vec![Arc::clone(&net)], 2, cfg, move |id, proc_| {
        let sent = sent.clone();
        let expect = payload.clone();
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.send(ThreadAddr::new(1, 0), 9, sent.clone());
            } else {
                let m = ncs.recv(Some(0), None, Some(9));
                assert_eq!(&m.data[..], &expect[..], "honest transfer mangled");
            }
        });
    });
    sim.run().assert_clean();
    assert_eq!(
        world.procs()[1].reassembly_backlog(),
        0,
        "hostile header was given a slot"
    );
    let violations = sink.take();
    assert_eq!(violations.len(), 2, "{violations:?}");
    for v in &violations {
        assert_eq!(v.check, "malformed-fragment", "{v}");
        assert!(v.detail.contains("exceeds the u32 transfer size"), "{v}");
    }
}

#[test]
fn runt_checked_frame_is_dropped_without_a_nack() {
    // Regression: a checked frame too short to hold [seq][crc] was answered
    // with a NACK for sequence 0 — a number the receiver made up. Here that
    // NACK would reach proc 0 while its real frame 0 is still awaiting its
    // ACK and trigger a retransmission of a frame that was never damaged.
    use ncs_core::addr::encode_tag;
    use ncs_core::MsgClass;
    use ncs_sim::AnalysisConfig;
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    let net = fast_net(2, Dur::from_micros(50));
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        analysis,
        ..quick_cfg()
    };
    let tag = encode_tag(MsgClass::Data, 0, 0, 3);
    inject_frame(
        &sim,
        &net,
        SimTime::ZERO + Dur::from_micros(1),
        tag,
        vec![0xEE; 5],
    );
    let world = NcsWorld::launch(&sim, vec![Arc::clone(&net)], 2, cfg, |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.send(ThreadAddr::new(1, 0), 3, Bytes::from_static(b"frame zero"));
            } else {
                let m = ncs.recv(Some(0), None, Some(3));
                assert_eq!(&m.data[..], b"frame zero");
            }
        });
    });
    sim.run().assert_clean();
    let sender = world.procs()[0].error_stats();
    let receiver = world.procs()[1].error_stats();
    assert_eq!(
        sender.retransmits, 0,
        "a fabricated NACK retransmitted frame 0"
    );
    assert_eq!(receiver.duplicates_suppressed, 0);
    assert_eq!(receiver.malformed_frames, 1);
    let violations = sink.take();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].check, "malformed-frame", "{}", violations[0]);
}
