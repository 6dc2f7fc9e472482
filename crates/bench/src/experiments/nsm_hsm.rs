//! Extension experiment **X1**: Normal Speed Mode vs High Speed Mode.
//!
//! The paper's second NCS_MPS implementation (over the ATM API) was "not
//! fully operational when this paper is written"; this experiment shows
//! what it buys. Ping-pong latency and one-way streaming bandwidth over the
//! same FORE ATM LAN fabric, once through sockets/TCP/IP (NSM) and once
//! through the mapped-buffer ATM API path (HSM).
//!
//! ```text
//! cargo run --release -p ncs-bench -- nsm_hsm
//! ```

use super::{stream, Opts, Report};
use bytes::Bytes;
use ncs_net::stack::BlockingWait;
use ncs_net::{Network, NodeId, Testbed};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, DurHistogram, Sim};
use std::sync::Arc;

/// Round-trip time for one `bytes`-sized ping-pong.
fn ping_pong(net: Arc<dyn Network>, bytes: usize) -> Dur {
    let sim = Sim::new();
    let rtt = Arc::new(Mutex::new(Dur::ZERO));
    let n0 = Arc::clone(&net);
    let r0 = Arc::clone(&rtt);
    sim.spawn("ping", move |ctx| {
        let t0 = ctx.now();
        n0.send(
            ctx,
            &BlockingWait,
            NodeId(0),
            NodeId(1),
            1,
            Bytes::from(vec![0u8; bytes]),
        );
        let inbox = n0.inbox(NodeId(0));
        let m = inbox.recv(ctx).unwrap();
        ctx.sleep(n0.recv_pickup_cost(NodeId(0), m.payload.len()));
        *r0.lock() = ctx.now().since(t0);
    });
    sim.spawn("pong", move |ctx| {
        let inbox = net.inbox(NodeId(1));
        let m = inbox.recv(ctx).unwrap();
        ctx.sleep(net.recv_pickup_cost(NodeId(1), m.payload.len()));
        net.send(ctx, &BlockingWait, NodeId(1), NodeId(0), 2, m.payload);
    });
    sim.run().assert_clean();
    let d = *rtt.lock();
    d
}

/// One-way bandwidth (MB/s) streaming `count` messages of `bytes`, plus the
/// per-message delivery-latency distribution.
fn stream_bw(net: Arc<dyn Network>, bytes: usize, count: usize) -> (f64, DurHistogram) {
    let (total, hist) = stream(net, bytes, count);
    ((bytes * count) as f64 / total.as_secs_f64() / 1e6, hist)
}

pub(super) fn run(_: &Opts, out: &mut Report) {
    out.note("# X1 — NSM (sockets/TCP/IP) vs HSM (NCS ATM API), same ATM LAN\n\n");
    out.note("## Ping-pong round-trip latency\n");
    out.note("  size   |    NSM (TCP) |  HSM (ATM API) | speedup\n");
    out.note("---------+--------------+----------------+--------\n");
    for bytes in [64usize, 1 << 10, 8 << 10, 64 << 10] {
        let nsm = ping_pong(Testbed::SunAtmLanTcp.build(2), bytes);
        let hsm = ping_pong(Testbed::SunAtmLanApi.build(2), bytes);
        out.note(format!(
            "{:6} B | {:>12} | {:>14} | {:.2}x\n",
            bytes,
            format!("{nsm}"),
            format!("{hsm}"),
            nsm.as_secs_f64() / hsm.as_secs_f64()
        ));
    }
    out.note("\n## One-way streaming bandwidth (MB/s, 32 messages)\n");
    out.note("  size   |  NSM (TCP) | HSM (ATM API) | speedup\n");
    out.note("---------+------------+---------------+--------\n");
    for bytes in [8 << 10, 64 << 10, 256 << 10] {
        let (nsm, _) = stream_bw(Testbed::SunAtmLanTcp.build(2), bytes, 32);
        let (hsm, _) = stream_bw(Testbed::SunAtmLanApi.build(2), bytes, 32);
        out.note(format!(
            "{:6} KB | {:10.2} | {:13.2} | {:.2}x\n",
            bytes / 1024,
            nsm,
            hsm,
            hsm / nsm
        ));
    }
    out.note("\n## Per-message delivery latency under streaming load (8 KB x 64)\n");
    let (_, nsm_h) = stream_bw(Testbed::SunAtmLanTcp.build(2), 8 << 10, 64);
    let (_, hsm_h) = stream_bw(Testbed::SunAtmLanApi.build(2), 8 << 10, 64);
    out.note(format!("  NSM: {}\n", nsm_h.report()));
    out.note(format!("  HSM: {}\n", hsm_h.report()));
    out.note("\n(HSM wins on both axes: traps instead of syscalls, 3 instead of\n");
    out.note(" 5 bus accesses per word, no TCP per-packet work, no p4-layer\n");
    out.note(" marshalling, and the Figure-2 buffer pipeline)\n");
}
