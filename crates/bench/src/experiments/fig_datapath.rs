//! Regenerates **Figure 3**: the datapath comparison — five memory-bus
//! accesses per word on the socket/TCP/IP path versus three on the NCS
//! mapped-buffer path — and what that means for copy time and achievable
//! memory-limited bandwidth on the paper's hosts.
//!
//! ```text
//! cargo run --release -p ncs-bench -- fig_datapath
//! ```

use super::{Opts, Report};
use ncs_net::{DatapathKind, HostParams};

pub(super) fn run(_: &Opts, out: &mut Report) {
    out.note("# Figure 3 — Datapath during communication\n\n");
    out.note(format!(
        "per-word memory-bus accesses: socket/TCP = {}, NCS mapped buffers = {}\n\n",
        DatapathKind::SocketTcp.accesses_per_word(),
        DatapathKind::NcsMapped.accesses_per_word()
    ));
    for host in [HostParams::sparc_ipx(), HostParams::sparc_elc()] {
        out.note(format!("## {}\n", host.name));
        out.note("message size |  TCP copy time |  NCS copy time | ratio\n");
        out.note("-------------+----------------+----------------+------\n");
        for size in [
            1usize << 10,
            4 << 10,
            16 << 10,
            64 << 10,
            256 << 10,
            1 << 20,
        ] {
            let tcp = host.copy_time(size, DatapathKind::SocketTcp);
            let ncs = host.copy_time(size, DatapathKind::NcsMapped);
            out.note(format!(
                "{:9} KB | {:>14} | {:>14} | {:.3}\n",
                size / 1024,
                format!("{tcp}"),
                format!("{ncs}"),
                tcp.as_secs_f64() / ncs.as_secs_f64()
            ));
        }
        out.note(format!(
            "memory-limited bandwidth: TCP {:.2} MB/s, NCS {:.2} MB/s\n\n",
            host.datapath_bandwidth(DatapathKind::SocketTcp) / 1e6,
            host.datapath_bandwidth(DatapathKind::NcsMapped) / 1e6
        ));
    }
    out.note("(the 5:3 access ratio is the paper's Figure 3 argument; the\n");
    out.note(" time ratio equals it exactly because both paths move the\n");
    out.note(" same words over the same bus)\n");
}
