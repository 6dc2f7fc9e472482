//! Distributed matrix multiplication on a simulated workstation cluster —
//! the paper's Section 5.1 experiment at one configuration, with both
//! variants and verified results.
//!
//! ```text
//! cargo run --release --example matmul_cluster -- [nodes] [dim]
//! ```

use ncs::apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs::apps::run_app;
use ncs::core::NcsConfig;
use ncs::net::Testbed;
use ncs::sim::Sim;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().map_or(4, |s| s.parse().expect("nodes"));
    let dim: usize = args.next().map_or(128, |s| s.parse().expect("dim"));
    let cfg = MatmulConfig {
        dim,
        nodes,
        seed: 0x4D4D,
    };
    println!("C = A·B with {dim}x{dim} matrices on {nodes} nodes + 1 host\n");
    for (label, testbed) in [
        ("Ethernet (SPARC ELC)", Testbed::SunEthernet),
        ("ATM LAN  (SPARC IPX)", Testbed::SunAtmLanTcp),
        ("NYNET WAN (SPARC IPX)", Testbed::NynetTcp),
    ] {
        let net = || testbed.build(nodes + 1);
        let (p4, _) = run_app(&Sim::new(), |sim| setup_matmul_p4(sim, net(), cfg));
        let (ncs, _) = run_app(&Sim::new(), |sim| {
            setup_matmul_ncs_with(sim, net(), cfg, NcsConfig::default())
        });
        assert!(p4.verified && ncs.verified, "result verification failed");
        println!(
            "{label}: p4 {:7.3}s   NCS_MTS/p4 {:7.3}s   improvement {:4.1}%   (both verified)",
            p4.elapsed.as_secs_f64(),
            ncs.elapsed.as_secs_f64(),
            (p4.elapsed.as_secs_f64() - ncs.elapsed.as_secs_f64()) / p4.elapsed.as_secs_f64()
                * 100.0
        );
    }
}
