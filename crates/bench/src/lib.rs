//! # ncs-bench — experiment harness
//!
//! Every table, figure and extension experiment of the reproduction is one
//! entry of [`EXPERIMENTS`] — a name, a line of description and a function
//! that fills in a [`Report`] — and one binary, `xp`, runs them (`xp list`
//! is `DESIGN.md`'s experiment index):
//!
//! ```text
//! cargo run --release -p ncs-bench -- <name> [args] [--smoke] [--guard]
//! cargo run --release -p ncs-bench -- list | report | all --smoke [--guard]
//! ```
//!
//! Beside the registry this library holds what the experiments share: the
//! paper's Tables 1–3 (each regenerated table prints measured values side
//! by side with the paper's, plus the derived "% improvement" columns the
//! paper reports), the one wall-clock timing loop of the host-time
//! experiments, [`Report`]: tables whose columns are declared once and
//! rendered both as text and as the `results/BENCH_*.json` documents, and
//! [`mod@explore`], the schedule-space explorer `xp explore` runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::time::{Duration, Instant}; // ncs-lint: allow(wall-clock)

pub mod experiments;
pub mod explore;
mod report;

pub use experiments::{find, list, results_dir, Experiment, Opts, EXPERIMENTS};
pub(crate) use report::Col;
pub use report::Report;

/// Host nanoseconds per call of `op`: the minimum over `batches` timed
/// batches of at least `budget` each. The minimum, because everything a
/// shared machine adds to a batch (preemption, a cold cache, a frequency
/// step) only ever makes it slower.
pub(crate) fn min_ns_per_call(batches: u32, budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now(); // ncs-lint: allow(wall-clock)
        let mut calls = 0u64;
        while start.elapsed() < budget {
            for _ in 0..16 {
                op();
            }
            calls += 16;
        }
        best = best.min(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// One row of a p4-vs-NCS comparison table.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Node count.
    pub nodes: usize,
    /// p4 execution time, seconds.
    pub p4: f64,
    /// NCS_MTS/p4 execution time, seconds.
    pub ncs: f64,
}

impl Row {
    /// The paper's "% improvement": (p4 − ncs) / p4 × 100.
    pub fn improvement(&self) -> f64 {
        (self.p4 - self.ncs) / self.p4 * 100.0
    }
}

/// A reproduced table for one testbed, with the paper's reference values.
pub struct Comparison {
    /// Testbed label (e.g. "Ethernet").
    pub testbed: &'static str,
    /// Measured rows (simulated).
    pub measured: Vec<Row>,
    /// The paper's rows (absent entries mean the paper has no value).
    pub paper: Vec<Row>,
}

impl Comparison {
    /// Checks the qualitative shape against the paper: NCS wins wherever
    /// the paper says it wins, and single-node threading overhead makes NCS
    /// slightly slower. Returns a list of violations (empty = shape holds).
    pub fn shape_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for m in &self.measured {
            if m.nodes == 1 {
                if m.ncs < m.p4 {
                    v.push(format!(
                        "{} nodes=1: NCS ({:.2}s) should carry threading overhead over p4 ({:.2}s)",
                        self.testbed, m.ncs, m.p4
                    ));
                }
            } else if m.ncs >= m.p4 {
                v.push(format!(
                    "{} nodes={}: NCS ({:.2}s) did not beat p4 ({:.2}s)",
                    self.testbed, m.nodes, m.ncs, m.p4
                ));
            }
        }
        v
    }
}

/// The paper's Table 1 (matrix multiplication, seconds).
pub fn paper_table1(testbed: &str) -> Vec<Row> {
    match testbed {
        "Ethernet" => vec![
            Row {
                nodes: 1,
                p4: 25.77,
                ncs: 25.85,
            },
            Row {
                nodes: 2,
                p4: 16.89,
                ncs: 13.72,
            },
            Row {
                nodes: 4,
                p4: 10.64,
                ncs: 7.88,
            },
            Row {
                nodes: 8,
                p4: 5.90,
                ncs: 4.62,
            },
        ],
        "NYNET" => vec![
            Row {
                nodes: 1,
                p4: 24.89,
                ncs: 25.03,
            },
            Row {
                nodes: 2,
                p4: 14.40,
                ncs: 11.51,
            },
            Row {
                nodes: 4,
                p4: 7.52,
                ncs: 5.41,
            },
        ],
        _ => Vec::new(),
    }
}

/// The paper's Table 2 (JPEG pipeline, seconds).
pub fn paper_table2(testbed: &str) -> Vec<Row> {
    match testbed {
        "Ethernet" => vec![
            Row {
                nodes: 2,
                p4: 10.721,
                ncs: 9.037,
            },
            Row {
                nodes: 4,
                p4: 15.325,
                ncs: 8.849,
            },
            Row {
                nodes: 8,
                p4: 17.343,
                ncs: 6.541,
            },
        ],
        "NYNET" => vec![
            Row {
                nodes: 2,
                p4: 6.248,
                ncs: 4.837,
            },
            Row {
                nodes: 4,
                p4: 10.154,
                ncs: 4.074,
            },
        ],
        _ => Vec::new(),
    }
}

/// The paper's Table 3 (FFT, seconds).
pub fn paper_table3(testbed: &str) -> Vec<Row> {
    match testbed {
        "Ethernet" => vec![
            Row {
                nodes: 1,
                p4: 5.76,
                ncs: 5.84,
            },
            Row {
                nodes: 2,
                p4: 5.09,
                ncs: 4.76,
            },
            Row {
                nodes: 4,
                p4: 4.58,
                ncs: 4.32,
            },
            Row {
                nodes: 8,
                p4: 3.91,
                ncs: 3.47,
            },
        ],
        "NYNET" => vec![
            Row {
                nodes: 1,
                p4: 5.25,
                ncs: 5.32,
            },
            Row {
                nodes: 2,
                p4: 3.65,
                ncs: 3.34,
            },
            Row {
                nodes: 4,
                p4: 2.72,
                ncs: 2.43,
            },
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_matches_paper_math() {
        // Paper: 4-node matmul Ethernet ≈ 26%.
        let r = Row {
            nodes: 4,
            p4: 10.64,
            ncs: 7.88,
        };
        assert!((r.improvement() - 25.9).abs() < 0.1);
    }

    #[test]
    fn shape_violations_flag_regressions() {
        let c = Comparison {
            testbed: "X",
            measured: vec![
                Row {
                    nodes: 1,
                    p4: 10.0,
                    ncs: 10.1,
                },
                Row {
                    nodes: 2,
                    p4: 10.0,
                    ncs: 11.0,
                },
            ],
            paper: Vec::new(),
        };
        assert_eq!(
            c.shape_violations(),
            ["X nodes=2: NCS (11.00s) did not beat p4 (10.00s)"]
        );
    }

    #[test]
    fn paper_tables_complete() {
        assert_eq!(paper_table1("Ethernet").len(), 4);
        assert_eq!(paper_table1("NYNET").len(), 3);
        assert_eq!(paper_table2("Ethernet").len(), 3);
        assert_eq!(paper_table3("NYNET").len(), 3);
    }
}
