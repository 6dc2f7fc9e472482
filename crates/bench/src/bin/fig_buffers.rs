//! Regenerates **Figure 2**: concurrent data transfer through multiple
//! I/O buffers. Sweeps the number of mapped kernel buffers and the
//! transfer size on the HSM (ATM API) stack and reports one-way delivery
//! latency — buffer count 1 serializes host copy and adapter DMA; 2 or
//! more pipeline them.
//!
//! ```text
//! cargo run --release -p ncs-bench --bin fig_buffers
//! ```

use bytes::Bytes;
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::stack::BlockingWait;
use ncs_net::{AtmApiNet, AtmApiParams, HostParams, Network, NodeId};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim};
use std::sync::Arc;

fn one_way(num_buffers: usize, bytes: usize) -> Dur {
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(2)));
    let hosts = vec![HostParams::sparc_ipx(); 2];
    let params = AtmApiParams {
        num_buffers,
        ..AtmApiParams::default()
    };
    let net = Arc::new(AtmApiNet::new(fabric, hosts, params));
    let sim = Sim::new();
    let lat = Arc::new(Mutex::new(Dur::ZERO));
    let n2 = Arc::clone(&net);
    sim.spawn("tx", move |ctx| {
        n2.send(
            ctx,
            &BlockingWait,
            NodeId(0),
            NodeId(1),
            0,
            Bytes::from(vec![0u8; bytes]),
        );
    });
    let l2 = Arc::clone(&lat);
    sim.spawn("rx", move |ctx| {
        let m = net.inbox(NodeId(1)).recv(ctx).unwrap();
        ctx.sleep(net.recv_pickup_cost(NodeId(1), m.payload.len()));
        *l2.lock() = ctx.now().since(m.sent_at);
    });
    sim.run().assert_clean();
    let d = *lat.lock();
    d
}

fn main() {
    println!("# Figure 2 — Concurrent data transfers via multiple I/O buffers");
    println!("# (one-way latency, SPARC IPX on the FORE ATM LAN, HSM stack)\n");
    println!("transfer size | 1 buffer | 2 buffers | 4 buffers | 8 buffers | 2-buf speedup");
    println!("--------------+----------+-----------+-----------+-----------+--------------");
    for bytes in [8 << 10, 32 << 10, 128 << 10, 512 << 10] {
        let lats: Vec<Dur> = [1, 2, 4, 8].iter().map(|&n| one_way(n, bytes)).collect();
        println!(
            "{:10} KB | {:>8.2} | {:>9.2} | {:>9.2} | {:>9.2} | {:.2}x",
            bytes / 1024,
            lats[0].as_secs_f64() * 1e3,
            lats[1].as_secs_f64() * 1e3,
            lats[2].as_secs_f64() * 1e3,
            lats[3].as_secs_f64() * 1e3,
            lats[0].as_secs_f64() / lats[1].as_secs_f64(),
        );
    }
    println!("\n(times in milliseconds; the paper's Figure 2 is the 1->2 buffer");
    println!(" transition: host fills buffer k+1 while the SBA-200 drains k)");
}
