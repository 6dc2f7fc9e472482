//! Latency-decomposition accounting: every tracked data message's causal
//! timeline must be well-ordered against the canonical stage walk, and its
//! per-stage components must sum *exactly* to the observed end-to-end
//! latency — on both the monolithic and the chunked (pipelined,
//! multiple-I/O-buffer) data paths, on a clean wire and on one that makes
//! error control retransmit.

use bytes::Bytes;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, RtoConfig, ThreadAddr, ALL_STAGES};
use ncs_net::{ChaosNet, ChaosParams, HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::Arc;

fn net(nodes: usize) -> Arc<dyn Network> {
    let fabric = Arc::new(IdealFabric::new(nodes, Dur::from_micros(20)));
    let hosts = vec![HostParams::test_fast(); nodes];
    Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
}

/// Runs a ping-pong of `msgs` messages of `bytes` each and returns the sim
/// for timeline inspection.
fn run_transfer(bytes: usize, msgs: usize, io_buffer_bytes: usize) -> Sim {
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        io_buffer_bytes,
        ..NcsConfig::default()
    };
    run_transfer_on(net(2), cfg, bytes, msgs)
}

/// The same ping-pong over a wire that loses and corrupts cells, under
/// checksum/retransmit.
fn run_lossy_transfer(bytes: usize, msgs: usize, io_buffer_bytes: usize) -> Sim {
    let cfg = NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 64,
        io_buffer_bytes,
        ..NcsConfig::default()
    };
    let wire = ChaosNet::new(net(2), ChaosParams::new(1e-3, 1e-2, 77));
    run_transfer_on(wire, cfg, bytes, msgs)
}

fn run_transfer_on(net: Arc<dyn Network>, cfg: NcsConfig, bytes: usize, msgs: usize) -> Sim {
    let sim = Sim::new();
    let payload = Bytes::from(vec![0xA5u8; bytes]);
    NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let payload = payload.clone();
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                for k in 0..msgs {
                    ncs.send(ThreadAddr::new(1, 0), k as u32, payload.clone());
                    ncs.recv(Some(1), None, Some(k as u32));
                }
            } else {
                for k in 0..msgs {
                    let m = ncs.recv(Some(0), None, Some(k as u32));
                    assert_eq!(m.data.len(), payload.len());
                    assert_ne!(m.causal(), 0, "remote data must be tracked");
                    ncs.send(ThreadAddr::new(0, 0), k as u32, Bytes::from(vec![1u8]));
                }
            }
        });
    });
    sim.run().assert_clean();
    sim
}

/// The accounting checks shared by both paths. Returns the number of
/// delivered (complete) timelines and how many visited `reassembled`.
fn check_books(sim: &Sim, ctx: &str) -> (usize, usize) {
    sim.with_metrics(|m| {
        let errs = m.validate_timelines(&ALL_STAGES);
        assert!(errs.is_empty(), "{ctx}: disordered timelines: {errs:?}");
        let mut delivered = 0;
        let mut reassembled = 0;
        for (causal, tl) in m.timelines() {
            assert!(!tl.is_empty(), "{ctx}: empty timeline {causal}");
            if tl.last().expect("non-empty").0 != "delivered" {
                continue;
            }
            delivered += 1;
            if tl.iter().any(|&(s, _)| s == "reassembled") {
                reassembled += 1;
            }
            // A delivered message must have walked the full wire path.
            for stage in ["enqueued", "sq_popped", "wire_start", "arrived", "picked"] {
                assert!(
                    tl.iter().any(|&(s, _)| s == stage),
                    "{ctx}: causal {causal} missing stage {stage}: {tl:?}"
                );
            }
            // Exact accounting: consecutive stage diffs telescope to the
            // end-to-end latency, with no gaps and no double counting.
            let first = tl.first().expect("non-empty").1;
            let last = tl.last().expect("non-empty").1;
            let mut sum = Dur::ZERO;
            let mut prev: Option<SimTime> = None;
            for &(_, t) in tl.iter() {
                if let Some(p) = prev {
                    sum += t.since(p); // panics if time runs backwards
                }
                prev = Some(t);
            }
            assert_eq!(
                sum,
                last.since(first),
                "{ctx}: causal {causal}: components must sum exactly to end-to-end"
            );
        }
        (delivered, reassembled)
    })
}

#[test]
fn monolithic_path_components_sum_to_e2e() {
    // 2 KiB < the 16 KiB I/O buffer: single-frame sends, no reassembly.
    let sim = run_transfer(2048, 4, 16 * 1024);
    let (delivered, reassembled) = check_books(&sim, "monolithic");
    // 4 pings + 4 pongs, all tracked.
    assert_eq!(delivered, 8, "all remote data messages must complete");
    assert_eq!(reassembled, 0, "no message should visit reassembly");
}

#[test]
fn chunked_path_components_sum_to_e2e() {
    // 8 KiB over 1 KiB I/O buffers: the pipelined Frag path, one shared
    // causal id per logical message, `reassembled` stamped on completion.
    let sim = run_transfer(8 * 1024, 3, 1024);
    let (delivered, reassembled) = check_books(&sim, "chunked");
    assert_eq!(delivered, 6, "all remote data messages must complete");
    assert_eq!(reassembled, 3, "each chunked ping must visit reassembly");
}

/// The registry's own component histograms must cover `obs.e2e` exactly.
fn assert_components_cover_e2e(sim: &Sim) {
    sim.with_metrics(|m| {
        let comp_total: Dur = [
            "obs.queue_wait",
            "obs.inject",
            "obs.wire",
            "obs.pickup",
            "obs.reassembly",
            "obs.deliver",
        ]
        .iter()
        .filter_map(|n| m.stat(n))
        .fold(Dur::ZERO, |acc, st| acc + st.summary().total());
        let e2e = m.stat("obs.e2e").expect("e2e").summary().total();
        assert_eq!(comp_total, e2e);
    });
}

#[test]
fn retransmitted_messages_finish_their_timelines() {
    // A tenth of these 4 KiB frames is hit in flight. Whatever recovered
    // a message — a NACK, the timer, a duplicate racing its original — its
    // timeline must reach `delivered`, in order, summing exactly; and a
    // message whose accepted copy was not the first says so.
    const MSGS: usize = 40;
    let sim = run_lossy_transfer(4096, MSGS, 16 * 1024);
    let (delivered, _) = check_books(&sim, "lossy monolithic");
    assert_eq!(
        delivered,
        2 * MSGS,
        "every message must complete its timeline"
    );
    let recovered = sim.with_metrics(|m| {
        let marked = |tl: &ncs_sim::Timeline| tl.iter().any(|&(s, _)| s == "retransmitted");
        m.timelines().filter(|(_, tl)| marked(tl)).count()
    });
    assert!(recovered > 0, "the wire must have forced a retransmission");
    assert!(recovered < MSGS, "most frames get through first time");
    assert_components_cover_e2e(&sim);
}

#[test]
fn retransmitted_chunks_finish_their_timelines() {
    // 8 KiB over 1 KiB I/O buffers on the same wire: any chunk may be the
    // one that needed recovery, including the last to arrive.
    const MSGS: usize = 12;
    let sim = run_lossy_transfer(8 * 1024, MSGS, 1024);
    let (delivered, reassembled) = check_books(&sim, "lossy chunked");
    assert_eq!(delivered, 2 * MSGS);
    assert_eq!(reassembled, MSGS);
    assert_components_cover_e2e(&sim);
}

#[test]
fn local_delivery_is_untracked() {
    let sim = Sim::new();
    NcsWorld::launch(
        &sim,
        vec![net(2)],
        1,
        NcsConfig::default(),
        move |_, proc_| {
            proc_.t_create("tx", 5, move |ncs| {
                ncs.send(ThreadAddr::new(0, 1), 9, Bytes::from(vec![7u8; 64]));
            });
            proc_.t_create("rx", 5, move |ncs| {
                let m = ncs.recv(None, None, Some(9));
                assert_eq!(m.causal(), 0, "local delivery never hits the wire");
            });
        },
    );
    sim.run().assert_clean();
    let timelines = sim.with_metrics(|m| m.timelines().count());
    assert_eq!(timelines, 0, "no causal ids allocated for local traffic");
}

#[test]
fn component_histograms_are_fed() {
    let sim = run_transfer(2048, 4, 16 * 1024);
    sim.with_metrics(|m| {
        for name in ["obs.queue_wait", "obs.wire", "obs.pickup", "obs.deliver", "obs.e2e"] {
            let st = m.stat(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(st.summary().count(), 8, "{name}: one sample per message");
        }
    });
    // Totals cross-check: components cover e2e exactly.
    assert_components_cover_e2e(&sim);
}

#[test]
fn same_instant_senders_keep_their_own_timelines() {
    // Two processes put the same tag on the wire toward one destination at
    // the same instant — the first round of every gather. The sender-side
    // binding the receiver claims on pickup must tell them apart, or one
    // message's timeline stops at `wire_start` and the other is credited
    // with the wrong sender's stamps.
    let sim = Sim::new();
    NcsWorld::launch(
        &sim,
        vec![net(3)],
        3,
        NcsConfig::default(),
        move |id, proc_| {
            proc_.t_create("w", 5, move |ncs| {
                if id == 0 {
                    for src in [1, 2] {
                        let m = ncs.recv(Some(src), None, Some(7));
                        assert_eq!(m.data[0] as usize, src);
                        assert_ne!(m.causal(), 0, "remote data must be tracked");
                    }
                } else {
                    ncs.send(ThreadAddr::new(0, 0), 7, Bytes::from(vec![id as u8; 256]));
                }
            });
        },
    );
    sim.run().assert_clean();
    let (delivered, _) = check_books(&sim, "same-instant senders");
    assert_eq!(delivered, 2, "both messages must reach `delivered`");
    sim.with_metrics(|m| {
        let wire_starts: Vec<SimTime> = m
            .timelines()
            .map(|(_, tl)| {
                tl.iter()
                    .find(|&&(s, _)| s == "wire_start")
                    .expect("wire_start stamped")
                    .1
            })
            .collect();
        assert_eq!(wire_starts.len(), 2);
        assert_eq!(
            wire_starts[0], wire_starts[1],
            "the senders must collide in time for this case to mean anything"
        );
        assert_eq!(m.stat("obs.e2e").expect("e2e").summary().count(), 2);
    });
}
