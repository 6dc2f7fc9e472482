//! Extension experiment **X3**: flow-control strategy ablation (the
//! Figure-5 QOS argument — different applications want different flow
//! control, selectable at `NCS_init`).
//!
//! A bursty producer streams fixed-size messages at a consumer that
//! drains slowly. With no NCS-level flow control the transport absorbs
//! the burst (deep receiver queue, high memory high-water mark); with
//! credit flow control the producer is paced and the queue stays bounded
//! at the window, trading throughput for bounded buffering.
//!
//! ```text
//! cargo run --release -p ncs-bench -- flow
//! ```

use super::{Opts, Report};
use bytes::Bytes;
use ncs_core::{FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::Testbed;
use ncs_sim::{Dur, Sim};

const MSGS: u32 = 64;
const MSG_BYTES: usize = 4 * 1024;

struct Outcome {
    elapsed: Dur,
    peak_inbox_depth: usize,
}

fn stream(flow: FlowControl) -> Outcome {
    let sim = Sim::new();
    let net = Testbed::SunAtmLanTcp.build(2);
    let cfg = NcsConfig {
        flow,
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        if id == 0 {
            proc_.t_create("producer", 5, |ncs| {
                for i in 0..MSGS {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from(vec![0u8; MSG_BYTES]));
                }
            });
        } else {
            proc_.t_create("consumer", 5, move |ncs| {
                for i in 0..MSGS {
                    let m = ncs.recv(Some(0), None, Some(i));
                    assert_eq!(m.data.len(), MSG_BYTES);
                    ncs.compute(2_000_000, "drain"); // 50 ms at 40 MHz
                }
            });
        }
    });
    let out = sim.run();
    out.assert_clean();
    // Peak count of messages buffered in the consumer process awaiting a
    // matching receive.
    let peak = world.procs()[1].peak_buffered();
    Outcome {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        peak_inbox_depth: peak,
    }
}

pub(super) fn run(_: &Opts, out: &mut Report) {
    out.note("# X3 — flow-control ablation: bursty producer vs slow consumer\n");
    out.note(format!(
        "# {} messages x {} KB, consumer drains at 50 ms/message\n\n",
        MSGS,
        MSG_BYTES / 1024
    ));
    out.note("flow control      | total time | peak receiver queue (msgs)\n");
    out.note("------------------+------------+---------------------------\n");
    let mut results = Vec::new();
    for (label, flow) in [
        ("none (transport)", FlowControl::None),
        ("credit, window 4", FlowControl::Credit { window: 4 }),
        ("credit, window 16", FlowControl::Credit { window: 16 }),
    ] {
        let o = stream(flow);
        out.note(format!(
            "{:17} | {:9.3}s | {}\n",
            label,
            o.elapsed.as_secs_f64(),
            o.peak_inbox_depth
        ));
        results.push(o);
    }
    assert!(
        results[1].peak_inbox_depth < results[0].peak_inbox_depth,
        "credit flow control must bound receiver buffering"
    );
    out.note("\n(credit windows bound receiver-side buffering — the QOS knob a\n");
    out.note(" VOD-style consumer needs — at a small cost in elapsed time)\n");
}
