//! What the frozen benchmark package compiles against, used the way
//! `benchmark/src/{layers,workloads}.rs` use it: the paper's grid from
//! `paper_table1..3`, measured rows built as `Row { nodes, p4, ncs }` and
//! copied out of the grid, and the `Comparison { .. }.shape_violations()`
//! count. A rewrite of `ncs-bench` that changes one of these fails here, in
//! tier-1, and not only in the benchmark's own smoke run.

use ncs_bench::{paper_table1, paper_table2, paper_table3, Comparison, Row};

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
