//! Extension experiment **X2b**: how the user-level context-switch cost
//! shapes the NCS results — the ablation behind DESIGN.md's "cooperative
//! dispatch with context-switch accounting" choice.
//!
//! Sweeps `MtsConfig::context_switch` and reruns the 2-node matmul: the
//! single-node run isolates pure threading overhead (the paper's 25.77 vs
//! 25.85 s rows), while the 2-node run shows how much switch cost the
//! overlap gain can absorb before NCS loses its edge.
//!
//! ```text
//! cargo run --release -p ncs-bench -- cs_sweep
//! ```

use super::{Opts, Report};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_apps::run_app;
use ncs_core::NcsConfig;
use ncs_mts::MtsConfig;
use ncs_net::Testbed;
use ncs_sim::{Dur, Sim};

pub(super) fn run(_: &Opts, out: &mut Report) {
    out.note("# X2b — context-switch cost ablation (matmul, Ethernet)\n\n");
    let cfg1 = MatmulConfig::paper(1);
    let cfg2 = MatmulConfig::paper(2);
    let p4 = |cfg: MatmulConfig| {
        let net = Testbed::SunEthernet.build(cfg.nodes + 1);
        run_app(&Sim::new(), |sim| setup_matmul_p4(sim, net, cfg)).0
    };
    let (p4_1, p4_2) = (p4(cfg1), p4(cfg2));
    out.note(format!(
        "p4 baselines: 1 node {:.3}s, 2 nodes {:.3}s\n\n",
        p4_1.elapsed.as_secs_f64(),
        p4_2.elapsed.as_secs_f64()
    ));
    out.note("switch cost | NCS 1-node | overhead | NCS 2-node | improvement\n");
    out.note("------------+------------+----------+------------+------------\n");
    for cs_us in [0u64, 15, 50, 150, 500, 2000] {
        let mts = MtsConfig {
            context_switch: Dur::from_micros(cs_us),
        };
        let ncs = |cfg: MatmulConfig| {
            let net = Testbed::SunEthernet.build(cfg.nodes + 1);
            let ncs_cfg = NcsConfig {
                mts: mts.clone(),
                ..NcsConfig::default()
            };
            let (run, _) = run_app(&Sim::new(), |sim| {
                setup_matmul_ncs_with(sim, net, cfg, ncs_cfg)
            });
            run.elapsed
        };
        let (ncs_1, ncs_2) = (ncs(cfg1), ncs(cfg2));
        out.note(format!(
            "{:9}us | {:9.3}s | {:+7.3}% | {:9.3}s | {:+9.1}%\n",
            cs_us,
            ncs_1.as_secs_f64(),
            (ncs_1.as_secs_f64() - p4_1.elapsed.as_secs_f64()) / p4_1.elapsed.as_secs_f64() * 100.0,
            ncs_2.as_secs_f64(),
            (p4_2.elapsed.as_secs_f64() - ncs_2.as_secs_f64()) / p4_2.elapsed.as_secs_f64() * 100.0,
        ));
    }
    out.note("\n(the paper's QuickThreads-era ~15 us switch is effectively free;\n");
    out.note(" even millisecond-class process switches would not erase the\n");
    out.note(" 2-node overlap gain — threading wins by a robust margin)\n");
}
