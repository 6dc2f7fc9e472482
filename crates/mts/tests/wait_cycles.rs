//! Property tests for the scheduler's deadlock report over real MTS runs:
//! threads wait on each other with `block_on`, and when the process goes
//! idle the armed scan must report exactly the wait-for rings — never an
//! acyclic chain, and each ring once, naming exactly its threads.

use ncs_mts::{Mts, MtsConfig, MtsTid};
use ncs_sim::prop::{self, Gen};
use ncs_sim::{AnalysisConfig, Dur, Sim, StopReason};

/// What one thread does: wait on a sibling, block with no named sibling,
/// or sleep and exit.
#[derive(Clone, Copy, Debug)]
enum Act {
    WaitOn(usize),
    Anonymous,
    Exit,
}

/// Runs one process whose thread `i` (tid `i`, name `w<i>`) does
/// `acts[i]`, with analysis armed, and returns the details of its
/// `"deadlock"` reports in order.
fn deadlock_details(acts: &[Act]) -> Vec<String> {
    let sim = Sim::new();
    let (analysis, sink) = AnalysisConfig::recording();
    sim.set_analysis(analysis);
    let mts = Mts::new(&sim, "p", MtsConfig::default());
    for (i, &act) in acts.iter().enumerate() {
        let tid = mts.spawn(format!("w{i}"), 5, move |m| match act {
            Act::WaitOn(j) => m.block_on(MtsTid(j as u32)),
            Act::Anonymous => m.block(),
            Act::Exit => m.sleep(Dur::from_micros(3)),
        });
        assert_eq!(tid, MtsTid(i as u32));
    }
    let mts2 = mts.clone();
    sim.spawn("main", move |ctx| mts2.start(ctx));
    assert_eq!(sim.run().reason, StopReason::Completed);
    let violations = sink.take();
    assert!(violations
        .iter()
        .all(|v| v.check == "deadlock" || v.check == "lost-wakeup"));
    violations
        .into_iter()
        .filter(|v| v.check == "deadlock")
        .inspect(|v| assert_eq!(v.actor, "p"))
        .map(|v| v.detail)
        .collect()
}

/// `0..n` in a random order: an arbitrary relabeling of the threads.
fn relabeling(g: &mut Gen, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, g.rng().gen_index(i + 1));
    }
    perm
}

/// A thread that waits on no one blocks anonymously or exits.
fn root(g: &mut Gen) -> Act {
    if g.bool() {
        Act::Anonymous
    } else {
        Act::Exit
    }
}

/// Every thread waits only on a thread of higher rank (under an
/// arbitrary relabeling) or on no one, so the waits form chains and
/// trees but never a ring: the scan must stay silent.
#[test]
fn acyclic_wait_chains_report_no_deadlock() {
    prop::check("acyclic_wait_chains_report_no_deadlock", 64, |g| {
        let n = g.range(1..12) as usize;
        let perm = relabeling(g, n);
        let mut acts = vec![Act::Exit; n];
        for rank in 0..n {
            acts[perm[rank]] = if rank + 1 < n && g.bool() {
                Act::WaitOn(perm[g.range(rank as u64 + 1..n as u64) as usize])
            } else {
                root(g)
            };
        }
        assert_eq!(deadlock_details(&acts), Vec::<String>::new(), "{acts:?}");
    });
}

/// Splits a random permutation into chunks: a chunk of two or more
/// threads is a ring, a singleton is a tail that waits on some thread of
/// an earlier chunk (a ring member or another tail) or on no one. Tails
/// lead into rings without joining them, so the scan must report exactly
/// the planted rings, each once, in tid order. (`block_on` refuses a
/// thread's own tid, so no run can plant a ring of one; the scan's unit
/// tests set that edge directly.)
#[test]
fn planted_rings_are_reported_once_each() {
    prop::check("planted_rings_are_reported_once_each", 64, |g| {
        let n = g.range(1..12) as usize;
        let perm = relabeling(g, n);
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        for (i, &t) in perm.iter().enumerate() {
            if i == 0 || g.bool() {
                chunks.push(Vec::new());
            }
            chunks.last_mut().expect("a chunk").push(t);
        }
        let mut acts = vec![Act::Exit; n];
        let mut rings: Vec<Vec<usize>> = Vec::new();
        let mut earlier: Vec<usize> = Vec::new();
        for chunk in &chunks {
            if chunk.len() >= 2 {
                for (k, &t) in chunk.iter().enumerate() {
                    acts[t] = Act::WaitOn(chunk[(k + 1) % chunk.len()]);
                }
                let mut ring = chunk.clone();
                ring.sort_unstable();
                rings.push(ring);
            } else if !earlier.is_empty() && g.bool() {
                acts[chunk[0]] = Act::WaitOn(*g.pick(&earlier));
            } else {
                acts[chunk[0]] = root(g);
            }
            earlier.extend(chunk);
        }
        rings.sort_unstable();
        let expected: Vec<String> = rings
            .iter()
            .map(|ring| {
                let edges: Vec<String> = ring
                    .iter()
                    .map(|&t| {
                        let Act::WaitOn(w) = acts[t] else {
                            unreachable!("a ring member waits on the next")
                        };
                        format!("t{t}/w{t} -> t{w}/w{w}")
                    })
                    .collect();
                format!("cyclic wait among blocked threads: {}", edges.join(", "))
            })
            .collect();
        assert_eq!(deadlock_details(&acts), expected, "{acts:?}");
    });
}
