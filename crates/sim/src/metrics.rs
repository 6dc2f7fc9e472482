//! Structured runtime metrics: counters, gauges, duration statistics, and
//! per-message causal timelines.
//!
//! [`MetricsRegistry`] is the always-on companion to the span
//! [`crate::trace::Tracer`]: where spans reconstruct *timelines*, the
//! registry aggregates *quantities* — how many, how deep, how long. It is
//! cheap enough to stay enabled by default, so every run can answer "where
//! did the time go" without a special build: an update is O(1) and
//! allocation-free. Counter, gauge and stat names are `&'static str`
//! literals, so a name resolves to its slot by *address* — a scan of a few
//! pointer-and-length pairs, no string compare (the table is shared with
//! the tracer's counters; see `names.rs`) — and only a name (or an address
//! of it) never seen before takes the sorted-index path that the readers
//! use. A gauge name holds a dense
//! vector of series indexed by `idx` (a node id), so a `gauge_set` is a
//! name lookup and an index; an index never set holds an empty series that
//! the readers skip. Timelines are indexed densely by the sequential causal
//! id, in a window that starts at the oldest open one, so a `mark` is a
//! name lookup and an index, not a tree walk. Each timeline lives in one
//! `(Stage, SimTime)` buffer from its first mark on, and its fold reads it
//! there. A folded timeline is then freed: its stats hold what the run
//! reads of it, so the registry's timeline memory follows the messages in
//! flight, not the messages sent. A caller that reads whole-run timelines
//! arms [`MetricsRegistry::keep_timelines`] first; then a folded timeline
//! stays in its buffer (see `timeline.rs`). Either way, folds resolve their
//! stats once per distinct stage sequence.
//!
//! Four families:
//!
//! - **Counters** (`inc`): monotonic event counts (`"mps.msgs"`).
//! - **Gauges** (`gauge_set`): sampled instantaneous values with the sim
//!   time of each change (`("switch.out_cells", node)`), exportable as
//!   Chrome-trace counter tracks.
//! - **Duration stats** (`observe`): a log-bucketed [`DurHistogram`] per
//!   name, keeping its streaming [`DurSummary`] beside the buckets,
//!   reporting count/mean/p50/p95/p99/max.
//! - **Timelines** (`next_causal` / `mark` / `observe_stages`): per-message
//!   causal records. A producer allocates a causal id, then every layer the
//!   message crosses marks a named stage with the current sim time.
//!   Consecutive stages decompose end-to-end latency into contiguous,
//!   non-overlapping components (the paper's send/recv overhead breakdown),
//!   which `observe_stages` folds into duration stats at delivery.
//!
//! Cross-process correlation: a message's causal id is known to the sending
//! process but does not ride on the wire (the transport tag is fully
//! packed). Because all processes share one [`crate::Sim`] — and hence one
//! registry — the sender [`MetricsRegistry::bind_wire`]s the id under a
//! `(src→dst, tag, instance)` triple that the receiver can rebuild from the
//! delivery, and the receiver [`MetricsRegistry::resolve_wire`]s the same
//! triple on pickup. The instance is the departure instant for a frame
//! sent once, without error control; a checked frame is keyed by its
//! error-control sequence number, so whichever copy of a retransmitted
//! frame is accepted claims the id. The source belongs in the key: two
//! senders can put one tag on the wire toward one destination at one
//! instant, and a second `bind_wire` of a key replaces the first. This is
//! observer bookkeeping, not simulated shared memory: it never influences
//! protocol behaviour.

use std::collections::BTreeMap;

use crate::names::NameTable;
use crate::stats::{DurHistogram, DurSummary};
use crate::time::{Dur, SimTime};
use crate::timeline::{Stage, Timeline, TimelineStore};

/// A gauge's sample history: the value is `samples.last()` until the next
/// change; only changes are stored.
#[derive(Clone, Debug, Default)]
pub struct GaugeSeries {
    samples: Vec<(SimTime, i64)>,
}

impl GaugeSeries {
    /// All recorded `(time, value)` change points, in record order.
    pub fn samples(&self) -> &[(SimTime, i64)] {
        &self.samples
    }

    /// The most recent value (None if never set).
    pub(crate) fn last(&self) -> Option<i64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// The largest value ever recorded.
    pub fn max(&self) -> Option<i64> {
        self.samples.iter().map(|&(_, v)| v).max()
    }
}

/// One named duration series: a histogram, which keeps the streaming
/// summary of the same observations.
#[derive(Clone, Debug, Default)]
pub struct DurStat {
    hist: DurHistogram,
}

impl DurStat {
    fn record(&mut self, d: Dur) {
        self.hist.record(d);
    }

    /// The streaming count/min/max/mean summary.
    pub fn summary(&self) -> &DurSummary {
        self.hist.summary()
    }

    /// The log-bucketed histogram (conservative p50/p95/p99 upper bounds).
    pub fn hist(&self) -> &DurHistogram {
        &self.hist
    }

    /// One-line report: `n=.. mean=.. p50<=.. p95<=.. p99<=.. max=..`.
    pub(crate) fn report(&self) -> String {
        self.hist.report()
    }
}

/// How one timeline shape folds under one `(component, e2e)` pair: the
/// stat slot of every gap, in stage order, and of the first-to-last span.
struct FoldPlan {
    component: fn(&str) -> &'static str,
    e2e: &'static str,
    gaps: Box<[u32]>,
    span: u32,
}

/// The registry. One per [`crate::Sim`], reached via `Sim::with_metrics`.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: NameTable<u64>,
    /// Gauge `(name, idx)` at index `idx` of its name's vector; an index
    /// never set holds an empty series.
    gauges: NameTable<Vec<GaugeSeries>>,
    stats: NameTable<DurStat>,
    next_causal: u64,
    /// Stage name → its process-wide handle, resolved by address.
    stages: NameTable<Stage>,
    timelines: TimelineStore,
    /// Per timeline shape, how it folds under each `(component, e2e)`
    /// pair seen so far.
    folds: Vec<Vec<FoldPlan>>,
    wire_keys: BTreeMap<(u64, u64, u64), u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to a named counter.
    pub fn inc(&mut self, name: &'static str, n: u64) {
        *self.counters.slot(name) += n;
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Records gauge `(name, idx)` at value `v` as of time `t`. Consecutive
    /// identical values are coalesced, so an unchanged gauge costs one name
    /// lookup, one index and no storage.
    pub fn gauge_set(&mut self, name: &'static str, idx: u32, t: SimTime, v: i64) {
        let series = self.gauges.slot(name);
        let idx = idx as usize;
        if idx >= series.len() {
            series.resize_with(idx + 1, GaugeSeries::default);
        }
        let series = &mut series[idx];
        if series.last() != Some(v) {
            series.samples.push((t, v));
        }
    }

    /// Reads one gauge series.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str, idx: u32) -> Option<&GaugeSeries> {
        self.gauges
            .get(name)?
            .get(idx as usize)
            .filter(|g| !g.samples.is_empty())
    }

    /// All gauge series ever set, sorted by `(name, idx)`.
    pub fn gauges(&self) -> impl Iterator<Item = ((&'static str, u32), &GaugeSeries)> {
        self.gauges.iter().flat_map(|(name, series)| {
            series
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.samples.is_empty())
                .map(move |(idx, g)| ((name, idx as u32), g))
        })
    }

    /// Adds one duration observation to the named stat.
    pub fn observe(&mut self, name: &'static str, d: Dur) {
        self.stats.slot(name).record(d);
    }

    /// Reads one duration stat.
    pub fn stat(&self, name: &str) -> Option<&DurStat> {
        self.stats.get(name)
    }

    /// All duration stats, sorted by name.
    pub fn stats(&self) -> impl Iterator<Item = (&'static str, &DurStat)> {
        self.stats.iter()
    }

    /// Allocates a fresh causal id (never 0; 0 means "untracked").
    pub fn next_causal(&mut self) -> u64 {
        self.next_causal += 1;
        self.next_causal
    }

    /// Marks stage `stage` of message `causal` at time `t`. Re-marking a
    /// stage overwrites it (for chunked transfers, the last chunk's
    /// boundary is the message's). `causal == 0` is ignored, and so is a
    /// mark on a timeline already folded and freed: it is neither reopened
    /// nor folded again.
    pub fn mark(&mut self, causal: u64, stage: &'static str, t: SimTime) {
        if causal == 0 {
            return;
        }
        let stage = *self.stages.slot_with(stage, || Stage::intern(stage));
        self.timelines.mark(causal, stage, t);
    }

    /// Keeps every timeline folded from now on in its buffer, readable by
    /// [`MetricsRegistry::timelines`] and [`MetricsRegistry::stamp`] and
    /// counted by [`MetricsRegistry::timeline_bytes`], instead of freeing
    /// it. Arm it before the run's first mark to keep the whole run; what
    /// the run records does not change, only what it keeps. Reached
    /// through `Sim::with_metrics`.
    pub fn keep_timelines(&mut self) {
        self.timelines.keep();
    }

    /// The readable timelines, in ascending causal-id order: every marked
    /// one if the registry keeps them, else the open ones (not folded yet).
    pub fn timelines(&self) -> impl Iterator<Item = (u64, &Timeline)> + '_ {
        self.timelines.iter()
    }

    /// When `stage` was stamped on message `causal` (`None` if it was not,
    /// or if its timeline was folded and freed), read in place. The stage's
    /// handle is resolved by the name's address (remembered on first use)
    /// and compared as a pointer.
    pub fn stamp(&mut self, causal: u64, stage: &'static str) -> Option<SimTime> {
        let stage = *self.stages.slot_with(stage, || Stage::intern(stage));
        self.timelines.stamp(causal, stage)
    }

    /// Bytes the timelines hold, counted by capacity: the causal-id index,
    /// the timelines' buffers and the shape table.
    pub fn timeline_bytes(&self) -> usize {
        self.timelines.bytes()
    }

    /// Folds message `causal`'s timeline into the duration stats: every gap
    /// between consecutive stages is observed under `component(stage)` of
    /// the stage that *ends* it, and the first-to-last span under `e2e`.
    /// The components are contiguous, so they sum to `e2e` exactly. Does
    /// nothing for an id with no marks. Frees the timeline, so a second
    /// fold of it does nothing; if the registry keeps timelines, leaves it
    /// in its buffer instead: it stays readable, a later mark lands in it
    /// and a second fold records it twice. `component` runs once per stage
    /// of each distinct stage sequence (and `e2e`), not per message.
    pub fn observe_stages(
        &mut self,
        causal: u64,
        component: fn(&str) -> &'static str,
        e2e: &'static str,
    ) {
        let MetricsRegistry {
            timelines,
            stats,
            folds,
            ..
        } = self;
        let Some((shape, tl)) = timelines.close(causal) else {
            return;
        };
        let shape = shape as usize;
        if shape >= folds.len() {
            folds.resize_with(shape + 1, Vec::new);
        }
        let plans = &mut folds[shape];
        let known = plans
            .iter()
            .position(|p| std::ptr::eq(p.e2e, e2e) && std::ptr::fn_addr_eq(p.component, component));
        let plan = match known {
            Some(at) => &plans[at],
            None => {
                let gaps = tl
                    .iter()
                    .skip(1)
                    .map(|&(stage, _)| {
                        stats.index_with(component(stage.as_str()), DurStat::default)
                    })
                    .collect();
                let span = stats.index_with(e2e, DurStat::default);
                plans.push(FoldPlan {
                    component,
                    e2e,
                    gaps,
                    span,
                });
                &plans[plans.len() - 1]
            }
        };
        for (w, &gap) in tl.windows(2).zip(plan.gaps.iter()) {
            stats.at_mut(gap).record(w[1].1.saturating_since(w[0].1));
        }
        if let (Some(&(_, first)), Some(&(_, last))) = (tl.first(), tl.last()) {
            stats.at_mut(plan.span).record(last.saturating_since(first));
        }
    }

    /// Associates a wire-level key (conventionally `(source and destination
    /// node in one word, transport tag, instance)`, the instance being the
    /// departure instant in ps for an unchecked frame and the error-control
    /// sequence number for a checked one) with a causal id, for the
    /// receiving process to claim on pickup. Binding a key that is
    /// already bound replaces the earlier id.
    pub fn bind_wire(&mut self, key: (u64, u64, u64), causal: u64) {
        self.wire_keys.insert(key, causal);
    }

    /// Claims (removes) the causal id bound to a wire key, if any.
    pub fn resolve_wire(&mut self, key: (u64, u64, u64)) -> Option<u64> {
        self.wire_keys.remove(&key)
    }

    /// Checks every timeline against an expected stage order: marked stages
    /// must appear as a subsequence of `order` with non-decreasing times.
    /// Returns one description per violating timeline (empty = all clean).
    /// Used by the analysis smoke driver to catch instrumentation drift.
    pub fn validate_timelines(&self, order: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for (causal, tl) in self.timelines() {
            let mut cursor = 0usize;
            let mut prev: Option<(Stage, SimTime)> = None;
            for &(stage, t) in tl.iter() {
                let pos = order[cursor..].iter().position(|&s| s == stage);
                match pos {
                    Some(p) => cursor += p + 1,
                    None => {
                        out.push(format!(
                            "causal {causal}: stage {stage:?} out of order (expected one of {:?})",
                            &order[cursor..]
                        ));
                        break;
                    }
                }
                if let Some((ps, pt)) = prev {
                    if t < pt {
                        out.push(format!(
                            "causal {causal}: stage {stage:?} at {t} precedes {ps:?} at {pt}"
                        ));
                        break;
                    }
                }
                prev = Some((stage, t));
            }
        }
        out
    }

    /// Human-readable summary: counters, gauge peaks, and stat reports.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in self.counters.iter() {
                s.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges (peak):\n");
            for ((name, idx), g) in self.gauges() {
                s.push_str(&format!(
                    "  {:<28} {}\n",
                    format!("{name}[{idx}]"),
                    g.max().unwrap_or(0)
                ));
            }
        }
        if !self.stats.is_empty() {
            s.push_str("durations:\n");
            for (k, v) in self.stats.iter() {
                s.push_str(&format!("  {k:<28} {}\n", v.report()));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    fn texts(tl: &Timeline) -> Vec<(&'static str, SimTime)> {
        tl.iter().map(|&(s, t)| (s.as_str(), t)).collect()
    }

    #[test]
    fn counters_and_stats_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("msgs", 2);
        m.inc("msgs", 3);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("absent"), 0);
        m.observe("lat", Dur::from_micros(10));
        m.observe("lat", Dur::from_micros(30));
        let s = m.stat("lat").unwrap();
        assert_eq!(s.summary().count(), 2);
        assert_eq!(s.summary().mean(), Some(Dur::from_micros(20)));
        assert!(s.report().contains("p99<="));
    }

    #[test]
    fn gauge_coalesces_unchanged_values() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 1, t(0), 4);
        m.gauge_set("depth", 1, t(5), 4);
        m.gauge_set("depth", 1, t(9), 7);
        let g = m.gauge("depth", 1).unwrap();
        assert_eq!(g.samples().len(), 2);
        assert_eq!(g.last(), Some(7));
        assert_eq!(g.max(), Some(7));
    }

    #[test]
    fn timeline_marks_overwrite_stages() {
        let mut m = MetricsRegistry::new();
        let c = m.next_causal();
        assert_eq!(c, 1);
        m.mark(c, "a", t(1));
        m.mark(c, "b", t(2));
        m.mark(c, "b", t(4));
        assert_eq!(
            texts(m.timelines.get(c).unwrap()),
            [("a", t(1)), ("b", t(4))]
        );
        m.mark(0, "ignored", t(9));
        assert_eq!(m.timelines().count(), 1);
    }

    #[test]
    fn timelines_are_dense_by_causal_id() {
        let mut m = MetricsRegistry::new();
        let ids: Vec<u64> = (0..4).map(|_| m.next_causal()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        // Marked out of order; id 2 allocated but never marked.
        m.mark(4, "a", t(4));
        m.mark(1, "a", t(1));
        m.mark(3, "a", t(3));
        let seen: Vec<u64> = m.timelines().map(|(c, _)| c).collect();
        assert_eq!(seen, vec![1, 3, 4], "ascending, unmarked ids skipped");
        assert!(m.timelines.get(0).is_none(), "0 means untracked");
        assert!(m.timelines.get(2).is_none(), "allocated, never marked");
        assert!(m.timelines.get(5).is_none(), "never allocated");
        assert!(m.timelines.get(u64::MAX).is_none());
        assert_eq!(texts(m.timelines.get(3).unwrap()), [("a", t(3))]);
        assert!(m.validate_timelines(&["a"]).is_empty());
    }

    #[test]
    fn one_name_at_two_addresses_is_one_slot() {
        // The same text reaches the registry through different literals
        // (one per crate); address lookup must not split it.
        let a: &'static str = "dup.name";
        let b: &'static str = Box::leak(String::from("dup.name").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        let mut m = MetricsRegistry::new();
        m.inc(a, 1);
        m.inc(b, 2);
        m.inc(a, 4);
        m.observe(b, Dur::from_micros(1));
        m.observe(a, Dur::from_micros(3));
        assert_eq!(m.counter("dup.name"), 7);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.stat("dup.name").unwrap().summary().count(), 2);
        assert_eq!(m.stats().count(), 1);
    }

    #[test]
    fn readers_iterate_in_name_order_whatever_the_write_order() {
        let mut m = MetricsRegistry::new();
        for name in ["m.z", "m.a", "m.k", "m.a", "m.b"] {
            m.inc(name, 1);
            m.observe(name, Dur::from_micros(1));
        }
        let counters: Vec<_> = m.counters().collect();
        assert_eq!(
            counters,
            vec![("m.a", 2), ("m.b", 1), ("m.k", 1), ("m.z", 1)]
        );
        let stats: Vec<_> = m.stats().map(|(k, v)| (k, v.summary().count())).collect();
        assert_eq!(stats, vec![("m.a", 2), ("m.b", 1), ("m.k", 1), ("m.z", 1)]);
        assert!(m.stat("m.c").is_none());
    }

    #[test]
    fn observe_stages_telescopes_to_e2e() {
        fn component(stage: &str) -> &'static str {
            match stage {
                "b" => "c.ab",
                "c" => "c.bc",
                _ => "c.other",
            }
        }
        let mut m = MetricsRegistry::new();
        let c = m.next_causal();
        m.mark(c, "a", t(1));
        m.mark(c, "b", t(4));
        m.mark(c, "c", t(9));
        m.observe_stages(c, component, "c.e2e");
        m.observe_stages(0, component, "c.e2e"); // untracked: no-op
        m.observe_stages(c + 1, component, "c.e2e"); // never marked: no-op
        let total = |name: &str| m.stat(name).unwrap().summary().total();
        assert_eq!(total("c.ab"), Dur::from_micros(3));
        assert_eq!(total("c.bc"), Dur::from_micros(5));
        assert_eq!(total("c.e2e"), Dur::from_micros(8));
        assert_eq!(m.stat("c.e2e").unwrap().summary().count(), 1);
        assert!(m.stat("c.other").is_none());
    }

    #[test]
    fn a_folded_timeline_is_freed_unless_kept() {
        fn component(_: &str) -> &'static str {
            "k.gap"
        }
        let fold_twice = |m: &mut MetricsRegistry| {
            let c = m.next_causal();
            m.mark(c, "a", t(1));
            m.mark(c, "b", t(3));
            m.observe_stages(c, component, "k.e2e");
            m.mark(c, "b", t(7));
            m.observe_stages(c, component, "k.e2e");
            let count = m.stat("k.e2e").unwrap().summary().count();
            (count, m.stamp(c, "b"), m.timelines().count())
        };
        let mut free = MetricsRegistry::new();
        assert_eq!(fold_twice(&mut free), (1, None, 0), "neither reopened nor refolded");
        let mut kept = MetricsRegistry::new();
        kept.keep_timelines();
        assert_eq!(
            fold_twice(&mut kept),
            (2, Some(t(7)), 1),
            "marked in place and refolded"
        );
    }

    #[test]
    fn summary_of_a_fixed_write_sequence_is_pinned() {
        let mut m = MetricsRegistry::new();
        m.inc("net.msgs", 3);
        m.inc("app.done", 1);
        m.inc("net.msgs", 4);
        m.gauge_set("q.depth", 2, t(0), 5);
        m.gauge_set("q.depth", 2, t(1), 9);
        m.gauge_set("q.depth", 0, t(1), 1);
        m.observe("lat.b", Dur::from_micros(10));
        m.observe("lat.a", Dur::from_micros(250));
        m.observe("lat.b", Dur::from_micros(30));
        assert_eq!(m.summary(), SUMMARY_PINNED);
    }

    #[test]
    fn sparse_gauges_read_in_name_and_index_order() {
        // Index 5 before index 0, indices 1-4 never set, names out of order.
        let mut m = MetricsRegistry::new();
        m.gauge_set("z.port", 5, t(0), 3);
        m.gauge_set("a.nic", 2, t(0), 1);
        m.gauge_set("z.port", 0, t(1), 8);
        m.gauge_set("z.port", 5, t(2), 6);
        m.gauge_set("z.port", 5, t(3), 6);
        let seen: Vec<_> = m.gauges().map(|(k, g)| (k, g.samples().to_vec())).collect();
        assert_eq!(
            seen,
            vec![
                (("a.nic", 2), vec![(t(0), 1)]),
                (("z.port", 0), vec![(t(1), 8)]),
                (("z.port", 5), vec![(t(0), 3), (t(2), 6)]),
            ]
        );
        assert!(m.gauge("z.port", 3).is_none(), "never set");
        assert!(m.gauge("z.port", 9).is_none(), "past the end");
        assert!(m.gauge("a.nic", 0).is_none());
        assert_eq!(
            m.summary(),
            "gauges (peak):\n  a.nic[2]                     1\n  z.port[0]                    8\n  z.port[5]                    6\n"
        );
    }

    const SUMMARY_PINNED: &str = "\
counters:
  app.done                     1
  net.msgs                     7
gauges (peak):
  q.depth[0]                   1
  q.depth[2]                   9
durations:
  lat.a                        n=1 mean=250.000us p50<=250.000us p95<=250.000us p99<=250.000us max=250.000us
  lat.b                        n=2 mean=20.000us p50<=10.000us p95<=30.000us p99<=30.000us max=30.000us
";

    #[test]
    fn wire_keys_keep_same_instant_senders_apart() {
        // What ncs-core binds: (source and destination in one word, tag,
        // instance). Two sources with one tag, one destination and one
        // instance are two keys; a re-bind of one key replaces it.
        let mut m = MetricsRegistry::new();
        let key = |src: u64| (src << 32 | 9, 0xBEEF, 1_000);
        m.bind_wire(key(1), 11);
        m.bind_wire(key(2), 22);
        assert_eq!(m.resolve_wire(key(2)), Some(22));
        assert_eq!(m.resolve_wire(key(1)), Some(11));
        m.bind_wire(key(1), 11);
        m.bind_wire(key(1), 33);
        assert_eq!(m.resolve_wire(key(1)), Some(33));
        assert_eq!(m.resolve_wire(key(1)), None);
    }

    #[test]
    fn wire_keys_resolve_once() {
        let mut m = MetricsRegistry::new();
        m.bind_wire((1, 2, 3), 7);
        assert_eq!(m.resolve_wire((1, 2, 3)), Some(7));
        assert_eq!(m.resolve_wire((1, 2, 3)), None);
    }

    /// What a keeping registry's timelines must read as: plain vectors of
    /// `(text, time)`, a fold recording every gap however often it runs,
    /// and a shape table of every distinct stage sequence folded.
    #[derive(Default)]
    struct Model {
        timelines: Vec<Vec<(&'static str, SimTime)>>,
        /// Per id: folded since its last mark, and folded at least once.
        folded: Vec<(bool, bool)>,
        folds: BTreeMap<&'static str, (u64, Dur)>,
        shapes: Vec<Vec<&'static str>>,
        fold_count: u32,
        last_shape: Option<usize>,
        /// `timeline_bytes` at the last step: capacities only grow.
        bytes: usize,
    }

    /// Situations the model test must reach, counted over all its cases.
    #[derive(Default, Debug)]
    struct Reached {
        remark_after_fold: u32,
        refold_after_remark: u32,
        second_fold: u32,
        /// A fold back to an older shape while three or more exist.
        interleaved_shapes: u32,
        /// A shape first folded after twenty folds of the case.
        late_shape: u32,
        /// A first mark on an id below one already marked.
        out_of_order: u32,
    }

    fn model_component(stage: &str) -> &'static str {
        match stage {
            "tl.a" => "fold.a",
            "tl.b" => "fold.b",
            "tl.c" => "fold.c",
            "tl.d" => "fold.d",
            _ => "fold.e",
        }
    }

    #[test]
    fn timelines_match_a_naive_model() {
        const NAMES: [&str; 10] = [
            "tl.a", "tl.b", "tl.c", "tl.d", "tl.e", "tl.f", "tl.g", "tl.h", "tl.i", "tl.j",
        ];
        const FOLDS: [&str; 6] = ["fold.a", "fold.b", "fold.c", "fold.d", "fold.e", "fold.e2e"];
        // Each name at two addresses.
        let names: Vec<[&'static str; 2]> = NAMES
            .iter()
            .map(|&n| [n, &*Box::leak(String::from(n).into_boxed_str())])
            .collect();
        let reached = std::cell::RefCell::new(Reached::default());
        crate::prop::check("timelines_match_a_naive_model", 300, |g| {
            // Few ids pile many stages onto each; many spread them thin.
            let ids = g.range(1..=8);
            // Few names make few shapes; many make long timelines.
            let names = &names[..g.range(3..=10) as usize];
            let mut m = MetricsRegistry::new();
            m.keep_timelines();
            let mut model = Model::default();
            let mut reached = reached.borrow_mut();
            for _ in 0..g.range(0..150) {
                let causal = g.range(0..=ids);
                let idx = causal.checked_sub(1).map(|c| c as usize);
                if let Some(i) = idx {
                    if i >= model.timelines.len() {
                        model.timelines.resize_with(i + 1, Vec::new);
                        model.folded.resize(i + 1, (false, false));
                    }
                }
                match g.range(0..59) {
                    0..=35 => {
                        let name = g.pick(names)[g.range(0..2) as usize];
                        let at = t(g.range(0..100));
                        m.mark(causal, name, at);
                        let Some(i) = idx else { continue };
                        if std::mem::take(&mut model.folded[i].0) {
                            reached.remark_after_fold += 1;
                        }
                        if model.timelines[i].is_empty()
                            && model.timelines[i + 1..].iter().any(|tl| !tl.is_empty())
                        {
                            reached.out_of_order += 1;
                        }
                        let tl = &mut model.timelines[i];
                        match tl.iter_mut().find(|(s, _)| *s == name) {
                            Some(slot) => slot.1 = at,
                            None => tl.push((name, at)),
                        }
                    }
                    _ => {
                        m.observe_stages(causal, model_component, "fold.e2e");
                        let Some(i) = idx else { continue };
                        let tl = &model.timelines[i];
                        if tl.is_empty() {
                            continue;
                        }
                        for w in tl.windows(2) {
                            let e = model.folds.entry(model_component(w[1].0)).or_default();
                            *e = (e.0 + 1, e.1 + w[1].1.saturating_since(w[0].1));
                        }
                        let e = model.folds.entry("fold.e2e").or_default();
                        let span = tl[tl.len() - 1].1.saturating_since(tl[0].1);
                        *e = (e.0 + 1, e.1 + span);
                        let (folded, before) = &mut model.folded[i];
                        if *folded {
                            reached.second_fold += 1;
                            continue;
                        }
                        if *before {
                            reached.refold_after_remark += 1;
                        }
                        (*folded, *before) = (true, true);
                        let stages: Vec<&str> = tl.iter().map(|&(s, _)| s).collect();
                        let shape = match model.shapes.iter().position(|s| *s == stages) {
                            Some(shape) => {
                                if model.shapes.len() >= 3
                                    && model.last_shape.is_some_and(|last| last > shape)
                                {
                                    reached.interleaved_shapes += 1;
                                }
                                shape
                            }
                            None => {
                                if model.fold_count >= 20 {
                                    reached.late_shape += 1;
                                }
                                model.shapes.push(stages);
                                model.shapes.len() - 1
                            }
                        };
                        model.last_shape = Some(shape);
                        model.fold_count += 1;
                    }
                }
                let want: Vec<(u64, Vec<(&str, SimTime)>)> = model
                    .timelines
                    .iter()
                    .enumerate()
                    .filter(|(_, tl)| !tl.is_empty())
                    .map(|(i, tl)| (i as u64 + 1, tl.clone()))
                    .collect();
                let got: Vec<(u64, Vec<(&str, SimTime)>)> =
                    m.timelines().map(|(c, tl)| (c, texts(tl))).collect();
                assert_eq!(got, want);
                for c in 0..=ids + 1 {
                    let want = want.iter().find(|(k, _)| *k == c).map(|(_, tl)| tl.clone());
                    assert_eq!(m.timelines.get(c).map(texts), want, "causal {c}");
                    for name in names.iter().map(|n| n[1]) {
                        let stamped = want
                            .as_ref()
                            .and_then(|tl| tl.iter().find(|&&(s, _)| s == name).map(|&(_, at)| at));
                        assert_eq!(m.stamp(c, name), stamped, "causal {c} stage {name}");
                    }
                }
                for name in FOLDS {
                    let got = m
                        .stat(name)
                        .map(|s| (s.summary().count(), s.summary().total()));
                    assert_eq!(got, model.folds.get(name).copied(), "{name}");
                }
                assert_eq!(m.timelines.shapes(), model.shapes.len());
                // Every stamp and shape stage counts, and nothing the store
                // keeps is ever given back.
                let stamps: usize = model.timelines.iter().map(|tl| tl.len() * 16).sum();
                let shapes: usize = model.shapes.iter().map(|s| s.len() * 8).sum();
                let bytes = m.timeline_bytes();
                assert!(bytes >= stamps + shapes + 8 * model.timelines.len());
                assert!(bytes >= model.bytes, "{bytes} < {}", model.bytes);
                model.bytes = bytes;
            }
        });
        let reached = reached.into_inner();
        assert!(reached.remark_after_fold > 0, "{reached:?}");
        assert!(reached.refold_after_remark > 0, "{reached:?}");
        assert!(reached.second_fold > 0, "{reached:?}");
        assert!(reached.interleaved_shapes > 0, "{reached:?}");
        assert!(reached.late_shape > 0, "{reached:?}");
        assert!(reached.out_of_order > 0, "{reached:?}");
    }

    #[test]
    fn timeline_validation_flags_disorder() {
        let mut m = MetricsRegistry::new();
        let a = m.next_causal();
        m.mark(a, "x", t(1));
        m.mark(a, "y", t(2));
        assert!(m.validate_timelines(&["x", "y", "z"]).is_empty());
        let b = m.next_causal();
        m.mark(b, "y", t(3));
        m.mark(b, "x", t(4));
        let v = m.validate_timelines(&["x", "y"]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("out of order"));
        let c = m.next_causal();
        m.mark(c, "x", t(9));
        m.mark(c, "y", t(4));
        assert_eq!(m.validate_timelines(&["x", "y"]).len(), 2);
    }
}
