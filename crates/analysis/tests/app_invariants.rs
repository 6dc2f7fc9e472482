//! The three paper applications run with every runtime invariant armed:
//! credit flow control, checksum-retransmit error control, deadlock and
//! lost-wakeup detection, queue validation, and the protocol conservation
//! checks. A clean stack must verify its results, report nothing, and
//! leave every tracked message's causal timeline in canonical stage order.

use ncs_apps::fft::{fft_ncs_setup_with, FftConfig};
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, MatmulConfig};
use ncs_apps::{run_app, Verify};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, ALL_STAGES};
use ncs_net::{Network, Testbed};
use ncs_sim::{AnalysisConfig, InvariantSink, Sim};
use std::sync::Arc;

fn checked_cfg() -> (NcsConfig, Arc<InvariantSink>) {
    let (analysis, sink) = AnalysisConfig::recording();
    (
        NcsConfig {
            flow: FlowControl::Credit { window: 4 },
            error: ErrorControl::ChecksumRetransmit,
            analysis,
            ..NcsConfig::default()
        },
        sink,
    )
}

/// Runs what `stage` schedules on a 3-host ATM LAN under `checked_cfg`:
/// the result must verify, the sink stay empty, and every timeline the run
/// stamped follow the canonical `enqueued -> ... -> delivered` walk in
/// order.
fn run_armed<H: Verify>(stage: impl FnOnce(&Sim, Arc<dyn Network>, NcsConfig) -> H) {
    let sim = Sim::new();
    let (cfg, sink) = checked_cfg();
    let (run, _) = run_app(&sim, |sim| stage(sim, Testbed::SunAtmLanTcp.build(3), cfg));
    assert!(run.verified);
    let violations = sink.take();
    assert!(violations.is_empty(), "violations: {violations:#?}");
    let errs = sim.with_metrics(|m| m.validate_timelines(&ALL_STAGES));
    assert!(errs.is_empty(), "timeline errors: {errs:#?}");
}

#[test]
fn matmul_verifies_with_invariants_armed() {
    let cfg = MatmulConfig {
        dim: 32,
        nodes: 2,
        seed: 0x4D4D,
    };
    run_armed(|sim, net, ncs| setup_matmul_ncs_with(sim, net, cfg, ncs));
}

#[test]
fn fft_verifies_with_invariants_armed() {
    let cfg = FftConfig {
        m: 64,
        sets: 1,
        nodes: 2,
        seed: 0xFF7,
    };
    run_armed(|sim, net, ncs| fft_ncs_setup_with(sim, net, cfg, ncs));
}

#[test]
fn jpeg_verifies_with_invariants_armed() {
    let cfg = JpegConfig {
        width: 64,
        height: 64,
        quality: 60,
        entropy: ncs_apps::jpeg::EntropyKind::RleVarint,
        nodes: 2,
        seed: 4,
    };
    run_armed(|sim, net, ncs| setup_jpeg_ncs_with(sim, net, cfg, ncs));
}
