//! Regenerates **Tables 1–3**: execution times, p4 vs NCS_MTS/p4, on the
//! Ethernet and NYNET testbeds, of the 128×128 matrix multiplication
//! (Table 1), the JPEG compression/decompression pipeline on a ~600 KB
//! image (Table 2) and the distributed DIF FFT, M = 512 points, 8 sample
//! sets (Table 3).
//!
//! ```text
//! cargo run --release -p ncs-bench -- table1
//! ```

use crate::{paper_table1, paper_table2, paper_table3, Comparison, Report, Row};
use ncs_apps::fft::{fft_ncs_setup_with, setup_fft_p4, FftConfig};
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, setup_jpeg_p4, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_apps::{run_app, Verify};
use ncs_core::NcsConfig;
use ncs_net::Testbed;
use ncs_sim::Sim;

/// One of the paper's tables: what it runs, and the values (and node
/// counts) it is printed beside.
pub(super) struct Table {
    title: &'static str,
    /// Stages one variant (`ncs` or the p4 baseline) on `nodes` nodes of
    /// `testbed`.
    app: fn(sim: &Sim, testbed: Testbed, nodes: usize, ncs: bool) -> Box<dyn Verify>,
    paper: fn(&str) -> Vec<Row>,
}

pub(super) const TABLE1: Table = Table {
    title: "Table 1 — Execution times of Matrix Multiplication",
    app: |sim, testbed, nodes, ncs| {
        let net = testbed.build(nodes + 1);
        let cfg = MatmulConfig::paper(nodes);
        if ncs {
            Box::new(setup_matmul_ncs_with(sim, net, cfg, NcsConfig::default()))
        } else {
            Box::new(setup_matmul_p4(sim, net, cfg))
        }
    },
    paper: paper_table1,
};

pub(super) const TABLE2: Table = Table {
    title: "Table 2 — Total execution times of JPEG pipeline",
    app: |sim, testbed, nodes, ncs| {
        let net = testbed.build(nodes + 1);
        let cfg = JpegConfig::paper(nodes);
        if ncs {
            Box::new(setup_jpeg_ncs_with(sim, net, cfg, NcsConfig::default()))
        } else {
            Box::new(setup_jpeg_p4(sim, net, cfg))
        }
    },
    paper: paper_table2,
};

pub(super) const TABLE3: Table = Table {
    title: "Table 3 — Execution times of FFT",
    app: |sim, testbed, nodes, ncs| {
        let net = testbed.build(nodes + 1);
        let cfg = FftConfig::paper(nodes);
        if ncs {
            Box::new(fft_ncs_setup_with(sim, net, cfg, NcsConfig::default()))
        } else {
            Box::new(setup_fft_p4(sim, net, cfg))
        }
    },
    paper: paper_table3,
};

pub(super) fn run(table: &Table, out: &mut Report) {
    out.note(format!("# {} (seconds)\n\n", table.title));
    for (label, testbed) in [
        ("Ethernet", Testbed::SunEthernet),
        ("NYNET", Testbed::NynetTcp),
    ] {
        let paper = (table.paper)(label);
        let measured = paper.iter().map(|&Row { nodes, .. }| {
            let [p4, ncs] = [false, true]
                .map(|ncs| run_app(&Sim::new(), |sim| (table.app)(sim, testbed, nodes, ncs)).0);
            assert!(p4.verified, "p4 result mismatch at {nodes} nodes");
            assert!(ncs.verified, "NCS result mismatch at {nodes} nodes");
            Row {
                nodes,
                p4: p4.elapsed.as_secs_f64(),
                ncs: ncs.elapsed.as_secs_f64(),
            }
        });
        let cmp = Comparison {
            testbed: label,
            measured: measured.collect(),
            paper,
        };
        // Verbatim notes: the checked-in tables are hand-aligned (a rule one
        // dash short, a one-node "-" of its own width), which no table
        // rendering reproduces byte for byte.
        out.note(format!("## {label}\n"));
        out.note("nodes |   p4 (sim) |  NCS (sim) | impr(sim) |  p4 (paper) | NCS (paper) | impr(paper)\n");
        out.note("------+------------+------------+-----------+-------------+-------------+-----------\n");
        for (m, p) in cmp.measured.iter().zip(&cmp.paper) {
            let (mi, pi) = match m.nodes {
                1 => ("        -".to_string(), "      -".to_string()),
                _ => (
                    format!("{:8.1}%", m.improvement()),
                    format!("{:10.1}%", p.improvement()),
                ),
            };
            out.note(format!(
                "{:5} | {:10.2} | {:10.2} | {mi} | {:11.2} | {:11.2} | {pi}\n",
                m.nodes, m.p4, m.ncs, p.p4, p.ncs
            ));
        }
        out.note("\n");
        for v in cmp.shape_violations() {
            out.note(format!("SHAPE VIOLATION: {v}\n"));
        }
    }
}
