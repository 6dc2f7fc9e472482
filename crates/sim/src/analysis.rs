//! Runtime-analysis primitives shared by every layer above the kernel.
//!
//! The analysis pass is deliberately split in two:
//!
//! * this module holds the *mechanism* — a cheap on/off [`AnalysisConfig`]
//!   flag that travels inside the existing configuration structs, a shared
//!   [`InvariantSink`] collecting structured [`Violation`] reports, and a
//!   [`WaitGraph`] cycle detector over blocked threads;
//! * the `ncs-analysis` crate holds the *policy* — the source-level
//!   determinism lint and post-run classification; `ncs-bench` holds the
//!   schedule explorer that arms them across alternative schedules.
//!
//! Keeping the mechanism here lets the MTS runtime, the message-passing
//! core, and the kernel itself report violations without any dependency
//! cycles: everything already depends on `ncs-sim`.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Key of one directed application-visible channel: `(src proc, dst proc,
/// tag)`. The delivered-payload sequence per channel is the observable a
/// schedule-exploration run compares across interleavings.
pub type ChannelKey = (usize, usize, u64);

/// FNV-1a offset basis: the digest of nothing, and the start value of the
/// kernel's trace digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a digest of a byte string — the compact payload fingerprint kept
/// in the delivery log.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds the 64-bit word `v` into the running digest `h` — the step behind
/// the kernel trace hash, three words per event. One multiply per word
/// (byte-wise FNV-1a costs eight, serially dependent) carries every bit of
/// `h ^ v` upwards; the xor-shift brings the high half back down, so later
/// words mix with all of it. Both steps are bijections of `u64`, so for a
/// fixed sequence of later words the final digest is a bijection of any
/// one word: changing any bit of any folded word changes the digest.
#[inline]
pub(crate) fn word_fold(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// One invariant violation detected by a runtime analysis pass.
///
/// Violations are structured so a failing CI run names the actor (process
/// or thread) and enough detail to act on — wait edges for deadlocks,
/// counter values for conservation checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable check identifier, e.g. `"deadlock"` or `"credit-conservation"`.
    pub check: &'static str,
    /// The process or thread the violation was observed on.
    pub actor: String,
    /// Human-readable specifics (thread ids, wait edges, counter values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.check, self.actor, self.detail)
    }
}

/// Thread-safe collector for [`Violation`]s.
///
/// One sink is shared (via `Arc`) between every component of a run that
/// was handed the same [`AnalysisConfig`]; the driver drains it once the
/// simulation finishes.
#[derive(Debug, Default)]
pub struct InvariantSink {
    violations: Mutex<Vec<Violation>>,
    /// Per-channel sequence of delivered-payload digests, in delivery
    /// order — the cross-schedule observational-equivalence record.
    deliveries: Mutex<BTreeMap<ChannelKey, Vec<u64>>>,
}

impl InvariantSink {
    /// Creates an empty sink.
    pub fn new() -> InvariantSink {
        InvariantSink::default()
    }

    /// Records one violation.
    pub fn push(&self, v: Violation) {
        self.violations.lock().push(v);
    }

    /// Clones out everything recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().clone()
    }

    /// Drains the sink, returning everything recorded so far.
    pub fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.violations.lock())
    }

    /// Number of violations recorded so far.
    pub fn len(&self) -> usize {
        self.violations.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.violations.lock().is_empty()
    }

    /// Appends one delivered payload digest to channel `(src, dst, tag)`.
    /// Called from the message-passing core at the moment a message is
    /// accepted for the application (never on duplicates or retransmits),
    /// so the per-channel sequence is exactly what the application saw.
    pub fn note_delivery(&self, src: usize, dst: usize, tag: u64, payload_hash: u64) {
        self.deliveries
            .lock()
            .entry((src, dst, tag))
            .or_default()
            .push(payload_hash);
    }

    /// The delivery log: per-channel delivered-payload digest sequences.
    pub fn deliveries(&self) -> BTreeMap<ChannelKey, Vec<u64>> {
        self.deliveries.lock().clone()
    }
}

/// Switch for the runtime analysis pass.
///
/// The default is *off*: a disabled config is one `Option` test on every
/// hook, so production runs pay nothing. [`AnalysisConfig::recording`]
/// returns an enabled config plus the shared sink violations land in; a
/// config is enabled exactly when it has a sink.
#[derive(Clone, Debug, Default)]
pub struct AnalysisConfig {
    sink: Option<Arc<InvariantSink>>,
}

impl AnalysisConfig {
    /// A disabled config (the default): every hook is a cheap no-op.
    pub fn off() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    /// An enabled config plus the sink its violations are pushed into.
    pub fn recording() -> (AnalysisConfig, Arc<InvariantSink>) {
        let sink = Arc::new(InvariantSink::new());
        (
            AnalysisConfig {
                sink: Some(Arc::clone(&sink)),
            },
            sink,
        )
    }

    /// True when the analysis pass should run its checks.
    pub fn active(&self) -> bool {
        self.sink.is_some()
    }

    /// The shared sink, if this config is recording.
    pub fn sink(&self) -> Option<&Arc<InvariantSink>> {
        self.sink.as_ref()
    }

    /// Records a violation (no-op when disabled).
    pub fn report(&self, check: &'static str, actor: impl Into<String>, detail: impl Into<String>) {
        if let Some(sink) = &self.sink {
            sink.push(Violation {
                check,
                actor: actor.into(),
                detail: detail.into(),
            });
        }
    }

    /// Records a delivered payload on channel `(src, dst, tag)` (no-op
    /// when disabled). Only the FNV-1a digest is kept.
    pub fn note_delivery(&self, src: usize, dst: usize, tag: u64, payload: &[u8]) {
        if let Some(sink) = &self.sink {
            sink.note_delivery(src, dst, tag, fnv1a(payload));
        }
    }
}

/// A wait-for graph over dense thread ids.
///
/// Node `t` having an edge to `u` means "thread `t` is blocked until
/// thread `u` acts". A cycle therefore proves a deadlock among the threads
/// on it. Cycle enumeration is Tarjan's strongly-connected-components
/// algorithm; an SCC is a deadlock when it has more than one node, or a
/// single node with a self-loop.
#[derive(Clone, Debug, Default)]
pub struct WaitGraph {
    edges: Vec<Vec<usize>>,
}

impl WaitGraph {
    /// An empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> WaitGraph {
        WaitGraph {
            edges: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the wait edge `from -> to`, growing the graph as needed.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        let need = from.max(to) + 1;
        if self.edges.len() < need {
            self.edges.resize(need, Vec::new());
        }
        self.edges[from].push(to);
    }

    /// Every deadlocked group: SCCs of size ≥ 2, plus single nodes with a
    /// self-loop. Each group is sorted by node id; groups are sorted by
    /// their smallest member, so output is deterministic regardless of
    /// insertion order.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        let n = self.edges.len();
        let mut state = TarjanState {
            edges: &self.edges,
            index: vec![usize::MAX; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            sccs: Vec::new(),
        };
        for v in 0..n {
            if state.index[v] == usize::MAX {
                state.visit(v);
            }
        }
        let mut out: Vec<Vec<usize>> = state
            .sccs
            .into_iter()
            .filter(|scc| scc.len() > 1 || self.edges[scc[0]].contains(&scc[0]))
            .map(|mut scc| {
                scc.sort_unstable();
                scc
            })
            .collect();
        out.sort();
        out
    }
}

struct TarjanState<'a> {
    edges: &'a [Vec<usize>],
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    sccs: Vec<Vec<usize>>,
}

impl TarjanState<'_> {
    /// Iterative Tarjan visit (explicit work stack, so deep chains in
    /// property tests cannot overflow the call stack).
    fn visit(&mut self, root: usize) {
        // (node, next-neighbour-position) frames.
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, pos)) = frames.last() {
            if pos == 0 {
                self.index[v] = self.next_index;
                self.lowlink[v] = self.next_index;
                self.next_index += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
            }
            if let Some(&w) = self.edges[v].get(pos) {
                frames.last_mut().expect("frame present").1 = pos + 1;
                if self.index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w]);
                }
                continue;
            }
            // All neighbours done: close the frame.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[v]);
            }
            if self.lowlink[v] == self.index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = self.stack.pop().expect("tarjan stack underflow");
                    self.on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(scc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_dag_have_no_cycles() {
        assert!(WaitGraph::new(0).cycles().is_empty());
        let mut g = WaitGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        g.add_edge(3, 2);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_loop_and_two_cycle_found() {
        let mut g = WaitGraph::new(5);
        g.add_edge(4, 4);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.add_edge(0, 1); // tail into the cycle, not part of it
        assert_eq!(g.cycles(), vec![vec![1, 2], vec![4]]);
    }

    #[test]
    fn add_edge_grows_graph() {
        let mut g = WaitGraph::new(0);
        g.add_edge(2, 0);
        g.add_edge(0, 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.cycles(), vec![vec![0, 2]]);
    }

    #[test]
    fn delivery_log_orders_per_channel() {
        let (cfg, sink) = AnalysisConfig::recording();
        cfg.note_delivery(0, 1, 7, b"first");
        cfg.note_delivery(0, 1, 7, b"second");
        cfg.note_delivery(1, 0, 7, b"first");
        AnalysisConfig::off().note_delivery(0, 1, 7, b"dropped");
        let log = sink.deliveries();
        assert_eq!(log.len(), 2);
        assert_eq!(log[&(0, 1, 7)], vec![fnv1a(b"first"), fnv1a(b"second")]);
        assert_eq!(log[&(1, 0, 7)], vec![fnv1a(b"first")]);
        assert_ne!(fnv1a(b"first"), fnv1a(b"second"));
    }

    #[test]
    fn sink_report_roundtrip() {
        let (cfg, sink) = AnalysisConfig::recording();
        assert!(cfg.active());
        cfg.report("deadlock", "p0", "t1 -> t2 -> t1");
        assert_eq!(sink.len(), 1);
        let v = sink.take();
        assert_eq!(v[0].check, "deadlock");
        assert!(sink.is_empty());
        assert!(!AnalysisConfig::off().active());
    }
}
