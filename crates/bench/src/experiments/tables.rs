//! Regenerates **Tables 1–3**: execution times, p4 vs NCS_MTS/p4, on the
//! Ethernet and NYNET testbeds, of the 128×128 matrix multiplication
//! (Table 1), the JPEG compression/decompression pipeline on a ~600 KB
//! image (Table 2) and the distributed DIF FFT, M = 512 points, 8 sample
//! sets (Table 3).
//!
//! ```text
//! cargo run --release -p ncs-bench -- table1
//! ```

use crate::{paper_table1, paper_table2, paper_table3, Comparison, JsonDoc, Row};
use ncs_apps::fft::{fft_ncs, fft_p4, FftConfig};
use ncs_apps::jpeg_dist::{jpeg_ncs, jpeg_p4, JpegConfig};
use ncs_apps::matmul::{matmul_ncs, matmul_p4, MatmulConfig};
use ncs_net::{Network, Testbed};
use ncs_sim::Dur;
use std::sync::Arc;

/// One of the paper's tables: what it runs, on how many nodes, and the
/// values it is printed beside.
pub(super) struct Table {
    title: &'static str,
    /// Runs one variant (`ncs` or the p4 baseline) on `nodes` nodes over
    /// `net`: `(elapsed, result verified)`.
    app: fn(net: Arc<dyn Network>, nodes: usize, ncs: bool) -> (Dur, bool),
    paper: fn(&str) -> Vec<Row>,
    ethernet_nodes: &'static [usize],
    nynet_nodes: &'static [usize],
}

pub(super) const TABLE1: Table = Table {
    title: "Table 1 — Execution times of Matrix Multiplication",
    app: |net, nodes, ncs| {
        let cfg = MatmulConfig::paper(nodes);
        let run = if ncs {
            matmul_ncs(net, cfg)
        } else {
            matmul_p4(net, cfg)
        };
        (run.elapsed, run.verified)
    },
    paper: paper_table1,
    ethernet_nodes: &[1, 2, 4, 8],
    nynet_nodes: &[1, 2, 4],
};

pub(super) const TABLE2: Table = Table {
    title: "Table 2 — Total execution times of JPEG pipeline",
    app: |net, nodes, ncs| {
        let cfg = JpegConfig::paper(nodes);
        let run = if ncs {
            jpeg_ncs(net, cfg)
        } else {
            jpeg_p4(net, cfg)
        };
        (run.elapsed, run.verified)
    },
    paper: paper_table2,
    ethernet_nodes: &[2, 4, 8],
    nynet_nodes: &[2, 4],
};

pub(super) const TABLE3: Table = Table {
    title: "Table 3 — Execution times of FFT",
    app: |net, nodes, ncs| {
        let cfg = FftConfig::paper(nodes);
        let run = if ncs {
            fft_ncs(net, cfg)
        } else {
            fft_p4(net, cfg)
        };
        (run.elapsed, run.verified)
    },
    paper: paper_table3,
    ethernet_nodes: &[1, 2, 4, 8],
    nynet_nodes: &[1, 2, 4],
};

pub(super) fn run(table: &Table, out: &mut String) -> Option<JsonDoc> {
    *out += &format!("# {} (seconds)\n\n", table.title);
    for (label, testbed, nodes_list) in [
        ("Ethernet", Testbed::SunEthernet, table.ethernet_nodes),
        ("NYNET", Testbed::NynetTcp, table.nynet_nodes),
    ] {
        let measured = nodes_list.iter().map(|&nodes| {
            let (p4, p4_ok) = (table.app)(testbed.build(nodes + 1), nodes, false);
            let (ncs, ncs_ok) = (table.app)(testbed.build(nodes + 1), nodes, true);
            assert!(p4_ok, "p4 result mismatch at {nodes} nodes");
            assert!(ncs_ok, "NCS result mismatch at {nodes} nodes");
            Row {
                nodes,
                p4: p4.as_secs_f64(),
                ncs: ncs.as_secs_f64(),
            }
        });
        let cmp = Comparison {
            testbed: label,
            measured: measured.collect(),
            paper: (table.paper)(label),
        };
        *out += &format!("{}\n", cmp.render());
        for v in cmp.shape_violations() {
            *out += &format!("SHAPE VIOLATION: {v}\n");
        }
    }
    None
}
