//! What the frozen benchmark package compiles against, used the way
//! `benchmark/src/{layers,workloads,probes}.rs` use it: the paper's grid
//! from `paper_table1..3`, measured rows built as `Row { nodes, p4, ncs }`
//! and copied out of the grid, and the `Comparison { .. }.shape_violations()`
//! count; the `ncs-apps` drivers it stages, `fft_p4` and
//! `reference_pipeline_with`; and the counter and stat names it reads at
//! run time. A change to one of these fails here, in tier-1, not only in a
//! benchmark run.

use bytes::Bytes;
use ncs_apps::fft::{fft_ncs_setup_with, fft_p4, FftConfig};
use ncs_apps::jpeg_dist::{
    reference_pipeline_with, setup_jpeg_ncs_with, setup_jpeg_p4, JpegConfig,
};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_apps::GrayImage;
use ncs_bench::{paper_table1, paper_table2, paper_table3, Comparison, Row};
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::Testbed;
use ncs_sim::{Sim, SimRng};

#[test]
fn the_paper_grid_and_its_shape_check_keep_their_signatures() {
    let mut grid: Vec<(&str, Row)> = Vec::new();
    for label in ["Ethernet", "NYNET"] {
        for table in [
            paper_table1(label),
            paper_table2(label),
            paper_table3(label),
        ] {
            grid.extend(table.into_iter().map(|paper| {
                let measured = Row {
                    nodes: paper.nodes,
                    p4: paper.p4,
                    ncs: paper.ncs,
                };
                (label, measured)
            }));
        }
    }
    assert_eq!(
        grid.len(),
        19,
        "the benchmark's paper_apps runs 2 x 19 cells"
    );
    assert!(grid
        .iter()
        .all(|(_, r)| r.nodes == 1 || r.improvement() > 0.0));
    let violations = Comparison {
        testbed: "paper_apps",
        measured: grid.iter().map(|&(_, measured)| measured).collect(),
        paper: Vec::new(),
    }
    .shape_violations();
    assert!(
        violations.is_empty(),
        "the paper's own rows hold its shape: {violations:?}"
    );
}

/// What `benchmark/src/workloads.rs` reads, after four messages on HSM and TCP.
#[test]
fn the_names_the_benchmark_reads_are_written() {
    for (testbed, tracer) in [
        (Testbed::SunAtmLanApi, &["atm.cells", "atm.bytes"][..]),
        (Testbed::SunAtmLanTcp, &["tcp.bytes"][..]),
    ] {
        let (sim, net) = (Sim::new(), testbed.build(2));
        NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
            proc_.t_create("w", 5, move |ncs| {
                for k in 0..4 {
                    if id == 0 {
                        ncs.send(ThreadAddr::new(1, 0), k, Bytes::from(vec![0x5Au8; 512]));
                    } else {
                        ncs.recv(Some(0), None, Some(k));
                    }
                }
            });
        });
        sim.run().assert_clean();
        for name in tracer {
            let n = sim.with_tracer(|tr| tr.counter(name));
            assert!(n > 0, "{testbed:?}: tracer counter {name} unwritten");
        }
        sim.with_metrics(|m| {
            let n = m.counter("mts.dispatches");
            assert!(n > 0, "{testbed:?}: mts.dispatches unwritten");
            for name in ["obs.e2e", "mts.runnable_wait", "mts.run_slice"] {
                let n = m.stat(name).map_or(0, |s| s.summary().count());
                assert!(n > 0, "{testbed:?}: stat {name} unwritten");
            }
        });
    }
}

/// The `paper_apps` cells at small sizes, staged side by side on one
/// simulator and each `.verify()`-ed after `sim.run()`; the p4 FFT's run
/// form; the JPEG probe's sequential reference.
#[test]
fn the_app_drivers_the_benchmark_stages_keep_their_signatures() {
    let m_cfg = MatmulConfig {
        dim: 16,
        ..MatmulConfig::paper(2)
    };
    let j_cfg = JpegConfig {
        width: 32,
        height: 32,
        ..JpegConfig::paper(2)
    };
    let f_cfg = FftConfig {
        m: 16,
        sets: 1,
        ..FftConfig::paper(2)
    };
    let sim = Sim::new();
    let net = || Testbed::SunEthernet.build(3);
    let ncs = NcsConfig::default;
    let matmul = [
        setup_matmul_p4(&sim, net(), m_cfg),
        setup_matmul_ncs_with(&sim, net(), m_cfg, ncs()),
    ];
    let jpeg = [
        setup_jpeg_p4(&sim, net(), j_cfg),
        setup_jpeg_ncs_with(&sim, net(), j_cfg, ncs()),
    ];
    let fft = fft_ncs_setup_with(&sim, net(), f_cfg, ncs());
    sim.run().assert_clean();
    assert!(matmul.iter().all(|h| h.verify()) && jpeg.iter().all(|h| h.verify()) && fft.verify());

    let run = fft_p4(Testbed::SunEthernet.build(3), f_cfg);
    assert!(run.verified && run.elapsed.as_secs_f64() > 0.0 && run.elapsed.as_ps() > 0);

    let img = GrayImage::synthetic(32, 32, &mut SimRng::new(j_cfg.seed));
    let out = reference_pipeline_with(&img, 2, j_cfg.quality, j_cfg.entropy);
    assert_eq!((out.width, out.height), (img.width, img.height));
}
