//! Regenerates **Figures 4 and 16**: the computation/communication overlap
//! timelines. Runs a small matmul (Fig. 4) or JPEG pipeline (Fig. 16) in
//! both variants with span tracing enabled and renders ASCII Gantt charts
//! plus per-actor utilization.
//!
//! ```text
//! cargo run --release -p ncs-bench -- fig_overlap matmul
//! cargo run --release -p ncs-bench -- fig_overlap jpeg
//! ```

use super::{Opts, Report};
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, setup_jpeg_p4, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_apps::{run_app, Verify};
use ncs_core::NcsConfig;
use ncs_net::Testbed;
use ncs_sim::{Sim, SpanKind};

/// Runs what `stage` puts on a span-traced simulator, checks its result,
/// and renders the timeline: an ASCII Gantt chart plus per-actor
/// utilization.
fn timeline<H: Verify>(out: &mut Report, variant: &str, stage: impl FnOnce(&Sim) -> H) {
    let sim = Sim::new();
    sim.with_tracer(|tr| tr.enable());
    assert!(run_app(&sim, stage).0.verified);
    out.note(format!("\n### {variant}, total {}\n", sim.now()));
    let gantt = sim.with_tracer(|tr| tr.render_gantt(100));
    out.note(gantt);
    let util = sim.with_tracer(|tr| tr.utilization());
    out.note("actor utilization (compute / comm / idle, seconds):\n");
    for (actor, kinds) in util {
        let g = |k: SpanKind| kinds.get(&k).map_or(0.0, |d| d.as_secs_f64());
        out.note(format!(
            "  {:24} {:8.2} / {:8.2} / {:8.2}\n",
            actor,
            g(SpanKind::Compute),
            g(SpanKind::Comm),
            g(SpanKind::Idle)
        ));
    }
}

const P4: &str = "p4 (single-threaded)";
const NCS: &str = "NCS_MTS/p4 (two threads per process)";

pub(super) fn run(opts: &Opts, out: &mut Report) {
    match opts.args.first().map_or("matmul", String::as_str) {
        "matmul" => {
            out.note("# Figure 4 — matmul overlap timeline (2 nodes, NYNET testbed)\n");
            let cfg = MatmulConfig::paper(2);
            timeline(out, P4, |sim| {
                setup_matmul_p4(sim, Testbed::NynetTcp.build(3), cfg)
            });
            timeline(out, NCS, |sim| {
                let net = Testbed::NynetTcp.build(3);
                setup_matmul_ncs_with(sim, net, cfg, NcsConfig::default())
            });
        }
        "jpeg" => {
            out.note("# Figure 16 — JPEG pipeline timeline (4 nodes, Ethernet)\n");
            let cfg = JpegConfig::paper(4);
            timeline(out, P4, |sim| {
                setup_jpeg_p4(sim, Testbed::SunEthernet.build(5), cfg)
            });
            timeline(out, NCS, |sim| {
                let net = Testbed::SunEthernet.build(5);
                setup_jpeg_ncs_with(sim, net, cfg, NcsConfig::default())
            });
        }
        other => panic!("unknown figure '{other}': use 'matmul' or 'jpeg'"),
    }
}
