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
use ncs_apps::jpeg_dist::{setup_jpeg_ncs, setup_jpeg_p4, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs, setup_matmul_p4, MatmulConfig};
use ncs_net::Testbed;
use ncs_sim::{Sim, SpanKind};

/// Runs what `stage` puts on a span-traced simulator, checks the result it
/// hands back a verifier for, and renders the timeline: an ASCII Gantt
/// chart plus per-actor utilization.
fn timeline<V: FnOnce() -> bool>(out: &mut Report, variant: &str, stage: impl FnOnce(&Sim) -> V) {
    let sim = Sim::new();
    sim.with_tracer(|tr| tr.enable());
    let verify = stage(&sim);
    let end = sim.run();
    end.assert_clean();
    assert!(verify());
    out.note(format!("\n### {variant}, total {}\n", end.end_time));
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
                let h = setup_matmul_p4(sim, Testbed::NynetTcp.build(3), cfg);
                move || h.verify()
            });
            timeline(out, NCS, |sim| {
                let h = setup_matmul_ncs(sim, Testbed::NynetTcp.build(3), cfg);
                move || h.verify()
            });
        }
        "jpeg" => {
            out.note("# Figure 16 — JPEG pipeline timeline (4 nodes, Ethernet)\n");
            let cfg = JpegConfig::paper(4);
            timeline(out, P4, |sim| {
                let h = setup_jpeg_p4(sim, Testbed::SunEthernet.build(5), cfg);
                move || h.verify()
            });
            timeline(out, NCS, |sim| {
                let h = setup_jpeg_ncs(sim, Testbed::SunEthernet.build(5), cfg);
                move || h.verify()
            });
        }
        other => panic!("unknown figure '{other}': use 'matmul' or 'jpeg'"),
    }
}
