//! Distributed DIF FFT across the NYNET wide-area testbed (paper Section
//! 5.3), including the OC-48 vs DS-3 backbone comparison — the upstate–
//! downstate link of Figure 1.
//!
//! ```text
//! cargo run --release --example fft_wan -- [nodes]
//! ```

use ncs::apps::fft::{fft_ncs_setup_with, setup_fft_p4, FftConfig};
use ncs::apps::run_app;
use ncs::core::NcsConfig;
use ncs::net::atm::{AtmFabric, NynetParams};
use ncs::net::HostParams;
use ncs::net::{Network, TcpNet, TcpParams};
use ncs::sim::Sim;
use std::sync::Arc;

fn nynet(nodes: usize, ds3: bool) -> Arc<dyn Network> {
    let params = if ds3 {
        NynetParams::nynet_ds3(nodes)
    } else {
        NynetParams::nynet(nodes)
    };
    let fabric = Arc::new(AtmFabric::new(params));
    let hosts = vec![HostParams::sparc_ipx(); nodes];
    Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
}

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .map_or(4, |s| s.parse().expect("nodes"));
    let cfg = FftConfig::paper(nodes);
    println!(
        "DIF FFT: M = {} points x {} sample sets, {} nodes across 2 NYNET sites\n",
        cfg.m, cfg.sets, nodes
    );
    for (label, ds3) in [("OC-48 backbone", false), ("DS-3  backbone", true)] {
        let net = || nynet(nodes + 1, ds3);
        let (p4, _) = run_app(&Sim::new(), |sim| setup_fft_p4(sim, net(), cfg));
        let (ncs, _) = run_app(&Sim::new(), |sim| {
            fft_ncs_setup_with(sim, net(), cfg, NcsConfig::default())
        });
        assert!(p4.verified && ncs.verified, "spectra must verify");
        println!(
            "  {label}: p4 {:6.3}s   NCS_MTS/p4 {:6.3}s   improvement {:4.1}%",
            p4.elapsed.as_secs_f64(),
            ncs.elapsed.as_secs_f64(),
            (p4.elapsed.as_secs_f64() - ncs.elapsed.as_secs_f64()) / p4.elapsed.as_secs_f64()
                * 100.0
        );
    }
    println!("\n(every spectrum is checked against the sequential FFT; the NCS");
    println!(" variant's final exchange step is local between sibling threads)");
}
