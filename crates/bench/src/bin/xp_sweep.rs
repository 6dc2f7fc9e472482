//! Extension experiment **X4**: message-size sweep of one-way latency and
//! effective bandwidth across all five testbeds — the classic
//! characterization figure, showing where each wire/stack combination's
//! crossovers fall.
//!
//! ```text
//! cargo run --release -p ncs-bench --bin xp_sweep
//! ```

use bytes::Bytes;
use ncs_net::stack::BlockingWait;
use ncs_net::{Network, NodeId, Testbed};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimTime};
use std::sync::Arc;

/// One-way delivery time (send entry to picked-up) for one message.
fn one_way(net: Arc<dyn Network>, bytes: usize) -> Dur {
    let sim = Sim::new();
    let out = Arc::new(Mutex::new(Dur::ZERO));
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
    let o2 = Arc::clone(&out);
    sim.spawn("rx", move |ctx| {
        let m = net.inbox(NodeId(1)).recv(ctx).unwrap();
        ctx.sleep(net.recv_pickup_cost(NodeId(1), m.payload.len()));
        *o2.lock() = ctx.now().since(SimTime::ZERO);
    });
    sim.run().assert_clean();
    let d = *out.lock();
    d
}

fn main() {
    let testbeds = [
        Testbed::SunEthernet,
        Testbed::SunAtmLanTcp,
        Testbed::NynetTcp,
        Testbed::SunAtmLanApi,
        Testbed::NynetApi,
    ];
    println!("# X4 — one-way latency (ms) by message size and testbed\n");
    print!("{:>9}", "size");
    for tb in testbeds {
        print!(" | {:>12}", tb.id());
    }
    println!();
    println!("{}", "-".repeat(9 + testbeds.len() * 15));
    let sizes = [64usize, 1 << 10, 8 << 10, 64 << 10, 512 << 10];
    let mut grid = Vec::new();
    for &size in &sizes {
        print!("{:>8}B", size);
        let mut row = Vec::new();
        for tb in testbeds {
            let d = one_way(tb.build(2), size);
            print!(" | {:>10.3}ms", d.as_secs_f64() * 1e3);
            row.push(d);
        }
        println!();
        grid.push(row);
    }
    println!("\n# effective one-way bandwidth at 512 KB (MB/s)\n");
    for (i, tb) in testbeds.iter().enumerate() {
        let d = grid[sizes.len() - 1][i];
        println!(
            "{:>12}: {:.2} MB/s",
            tb.id(),
            (512 << 10) as f64 / d.as_secs_f64() / 1e6
        );
    }
    // Shape assertions: the HSM stack must dominate its NSM sibling at
    // every size, and ATM must beat Ethernet for bulk.
    for (i, row) in grid.iter().enumerate() {
        assert!(
            row[3] < row[1],
            "HSM !< NSM on ATM LAN at {} bytes",
            sizes[i]
        );
    }
    assert!(grid[4][1] < grid[4][0], "ATM LAN !< Ethernet at 512 KB");
    println!("\n(shape checks passed: HSM < NSM at every size; ATM < Ethernet bulk)");
}
