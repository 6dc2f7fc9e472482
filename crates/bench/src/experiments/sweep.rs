//! Extension experiment **X4**: message-size sweep of one-way latency and
//! effective bandwidth across all five testbeds — the classic
//! characterization figure, showing where each wire/stack combination's
//! crossovers fall.
//!
//! ```text
//! cargo run --release -p ncs-bench -- sweep
//! ```

use super::{one_way, Opts, Report};
use ncs_net::Testbed;

pub(super) fn run(_: &Opts, out: &mut Report) {
    let testbeds = [
        Testbed::SunEthernet,
        Testbed::SunAtmLanTcp,
        Testbed::NynetTcp,
        Testbed::SunAtmLanApi,
        Testbed::NynetApi,
    ];
    out.note("# X4 — one-way latency (ms) by message size and testbed\n\n");
    out.note(format!("{:>9}", "size"));
    for tb in testbeds {
        out.note(format!(" | {:>12}", tb.id()));
    }
    out.note("\n");
    out.note(format!("{}\n", "-".repeat(9 + testbeds.len() * 15)));
    let sizes = [64usize, 1 << 10, 8 << 10, 64 << 10, 512 << 10];
    let mut grid = Vec::new();
    for &size in &sizes {
        out.note(format!("{:>8}B", size));
        let mut row = Vec::new();
        for tb in testbeds {
            let d = one_way(tb.build(2), size);
            out.note(format!(" | {:>10.3}ms", d.as_secs_f64() * 1e3));
            row.push(d);
        }
        out.note("\n");
        grid.push(row);
    }
    out.note("\n# effective one-way bandwidth at 512 KB (MB/s)\n\n");
    for (i, tb) in testbeds.iter().enumerate() {
        let d = grid[sizes.len() - 1][i];
        out.note(format!(
            "{:>12}: {:.2} MB/s\n",
            tb.id(),
            (512 << 10) as f64 / d.as_secs_f64() / 1e6
        ));
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
    out.note("\n(shape checks passed: HSM < NSM at every size; ATM < Ethernet bulk)\n");
}
