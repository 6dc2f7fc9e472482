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

use super::{JsonDoc, Opts};
use ncs_apps::matmul::{matmul_ncs_configured, matmul_p4, MatmulConfig};
use ncs_mts::MtsConfig;
use ncs_net::Testbed;
use ncs_sim::Dur;

pub(super) fn run(_: &Opts, out: &mut String) -> Option<JsonDoc> {
    *out += "# X2b — context-switch cost ablation (matmul, Ethernet)\n\n";
    let cfg1 = MatmulConfig::paper(1);
    let cfg2 = MatmulConfig::paper(2);
    let p4_1 = matmul_p4(Testbed::SunEthernet.build(2), cfg1);
    let p4_2 = matmul_p4(Testbed::SunEthernet.build(3), cfg2);
    *out += &format!(
        "p4 baselines: 1 node {:.3}s, 2 nodes {:.3}s\n\n",
        p4_1.elapsed.as_secs_f64(),
        p4_2.elapsed.as_secs_f64()
    );
    *out += "switch cost | NCS 1-node | overhead | NCS 2-node | improvement\n";
    *out += "------------+------------+----------+------------+------------\n";
    for cs_us in [0u64, 15, 50, 150, 500, 2000] {
        let mts = MtsConfig {
            context_switch: Dur::from_micros(cs_us),
            ..MtsConfig::default()
        };
        let ncs_1 = matmul_ncs_configured(Testbed::SunEthernet.build(2), cfg1, mts.clone()).elapsed;
        let ncs_2 = matmul_ncs_configured(Testbed::SunEthernet.build(3), cfg2, mts).elapsed;
        *out += &format!(
            "{:9}us | {:9.3}s | {:+7.3}% | {:9.3}s | {:+9.1}%\n",
            cs_us,
            ncs_1.as_secs_f64(),
            (ncs_1.as_secs_f64() - p4_1.elapsed.as_secs_f64()) / p4_1.elapsed.as_secs_f64() * 100.0,
            ncs_2.as_secs_f64(),
            (p4_2.elapsed.as_secs_f64() - ncs_2.as_secs_f64()) / p4_2.elapsed.as_secs_f64() * 100.0,
        );
    }
    *out += "\n(the paper's QuickThreads-era ~15 us switch is effectively free;\n";
    *out += " even millisecond-class process switches would not erase the\n";
    *out += " 2-node overlap gain — threading wins by a robust margin)\n";
    None
}
