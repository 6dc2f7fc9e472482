//! Property tests for the wait-for-graph cycle detector: no false
//! positives on DAGs, and exactly the planted cycles on constructed
//! graphs.

use ncs_sim::prop::{self, Gen};
use ncs_sim::WaitGraph;

/// `0..n` in a random order: an arbitrary relabeling of the nodes.
fn relabeling(g: &mut Gen, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    g.rng().shuffle(&mut perm);
    perm
}

/// Up to `max` candidate edges over `n` nodes.
fn edges(g: &mut Gen, n: usize, max: usize) -> Vec<(usize, usize)> {
    let n = n as u64;
    g.vec(0..max as u64, |g| {
        (g.range(0..n) as usize, g.range(0..n) as usize)
    })
}

/// Edges only ever point from a lower to a higher rank (under an
/// arbitrary relabeling), so the graph is acyclic by construction and
/// the detector must stay silent.
#[test]
fn dag_has_no_false_positives() {
    prop::check("dag_has_no_false_positives", 256, |g| {
        let n = g.range(2..40) as usize;
        let edges = edges(g, n, 3 * n);
        let perm = relabeling(g, n);
        let mut graph = WaitGraph::new(n);
        for (a, b) in edges {
            if a < b {
                graph.add_edge(perm[a], perm[b]);
            }
        }
        assert!(graph.cycles().is_empty());
    });
}

/// Splits a random permutation into chunks; chunks of two or more
/// nodes become rings, singletons optionally get a self-loop, and
/// extra "tail" edges only ever point from later chunks into earlier
/// ones (so they cannot create or merge cycles). The detector must
/// return exactly the planted cycles.
#[test]
fn planted_cycles_are_found_exactly() {
    prop::check("planted_cycles_are_found_exactly", 256, |g| {
        let n = g.range(2..30) as usize;
        let perm = relabeling(g, n);
        let cuts: Vec<bool> = (0..n).map(|_| g.bool()).collect();
        let self_loops: Vec<bool> = (0..n).map(|_| g.bool()).collect();
        let cross = edges(g, n, 2 * n);
        // Chunk the permutation: a true cut flag starts a new chunk.
        let mut chunks: Vec<Vec<usize>> = vec![Vec::new()];
        for (i, &node) in perm.iter().enumerate() {
            if i > 0 && cuts[i] {
                chunks.push(Vec::new());
            }
            chunks.last_mut().expect("chunk present").push(node);
        }

        let mut graph = WaitGraph::new(n);
        let mut chunk_of = vec![0usize; n];
        let mut expected: Vec<Vec<usize>> = Vec::new();
        for (ci, chunk) in chunks.iter().enumerate() {
            for &node in chunk {
                chunk_of[node] = ci;
            }
            if chunk.len() >= 2 {
                for w in 0..chunk.len() {
                    graph.add_edge(chunk[w], chunk[(w + 1) % chunk.len()]);
                }
                let mut c = chunk.clone();
                c.sort_unstable();
                expected.push(c);
            } else if self_loops[chunk[0]] {
                graph.add_edge(chunk[0], chunk[0]);
                expected.push(chunk.clone());
            }
        }
        // Tail edges: strictly from a later chunk into an earlier one, so
        // every cross-chunk path decreases the chunk index — no new SCCs.
        for (a, b) in cross {
            if chunk_of[a] > chunk_of[b] {
                graph.add_edge(a, b);
            }
        }
        expected.sort();
        assert_eq!(graph.cycles(), expected);
    });
}
