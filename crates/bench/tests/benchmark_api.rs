//! What the frozen benchmark package compiles against, used the way
//! `benchmark/src/{layers,workloads}.rs` use it: the paper's grid from
//! `paper_table1..3`, measured rows built as `Row { nodes, p4, ncs }` and
//! copied out of the grid, and the `Comparison { .. }.shape_violations()`
//! count; and the counter and stat names it reads at run time. A change to
//! one of these fails here, in tier-1, not only in a benchmark run.

use bytes::Bytes;
use ncs_bench::{paper_table1, paper_table2, paper_table3, Comparison, Row};
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::Testbed;
use ncs_sim::Sim;

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
