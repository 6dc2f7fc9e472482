//! Structured runtime metrics: counters, gauges, duration statistics, and
//! per-message causal timelines.
//!
//! [`MetricsRegistry`] is the always-on companion to the span
//! [`crate::trace::Tracer`]: where spans reconstruct *timelines*, the
//! registry aggregates *quantities* — how many, how deep, how long. It is
//! cheap enough to stay enabled by default, so every run can answer "where
//! did the time go" without a special build: an update is O(1) and
//! allocation-free. Counter and stat names are `&'static str` literals, so
//! a name resolves to its slot by *address* — a scan of a few
//! pointer-and-length pairs, no string compare — and only a name (or an
//! address of it) never seen before takes the sorted-index path that the
//! readers use. Timelines are a dense vector indexed by the sequential
//! causal id, so a `mark` is an index, not a tree walk.
//!
//! Four families:
//!
//! - **Counters** (`inc`): monotonic event counts (`"mps.msgs"`).
//! - **Gauges** (`gauge_set`): sampled instantaneous values with the sim
//!   time of each change (`("switch.out_cells", node)`), exportable as
//!   Chrome-trace counter tracks.
//! - **Duration stats** (`observe`): a streaming [`DurSummary`] plus a
//!   log-bucketed [`DurHistogram`] per name, reporting
//!   count/mean/p50/p95/p99/max.
//! - **Timelines** (`next_causal` / `mark` / `timeline`): per-message causal
//!   records. A producer allocates a causal id, then every layer the message
//!   crosses marks a named stage with the current sim time. Consecutive
//!   stages decompose end-to-end latency into contiguous, non-overlapping
//!   components (the paper's send/recv overhead breakdown).
//!
//! Cross-process correlation: a message's causal id is known to the sending
//! process but does not ride on the wire (the transport tag is fully
//! packed). Because all processes share one [`crate::Sim`] — and hence one
//! registry — the sender [`MetricsRegistry::bind_wire`]s the id under the
//! `(src→dst, tag, depart-time)` triple its transport stamps on the
//! delivery, and the receiver [`MetricsRegistry::resolve_wire`]s the same
//! triple on pickup. The source belongs in the key: two senders can put
//! one tag on the wire toward one destination at one instant, and a
//! second `bind_wire` of a key replaces the first. This is observer
//! bookkeeping, not simulated shared memory: it never influences protocol
//! behaviour.

use std::collections::BTreeMap;

use crate::stats::{DurHistogram, DurSummary};
use crate::time::{Dur, SimTime};

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
    pub fn last(&self) -> Option<i64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// The largest value ever recorded.
    pub fn max(&self) -> Option<i64> {
        self.samples.iter().map(|&(_, v)| v).max()
    }
}

/// Streaming summary plus histogram for one named duration series.
#[derive(Clone, Debug, Default)]
pub struct DurStat {
    summary: DurSummary,
    hist: DurHistogram,
}

impl DurStat {
    fn record(&mut self, d: Dur) {
        self.summary.record(d);
        self.hist.record(d);
    }

    /// The streaming count/min/max/mean summary.
    pub fn summary(&self) -> &DurSummary {
        &self.summary
    }

    /// The log-bucketed histogram (conservative p50/p95/p99 upper bounds).
    pub fn hist(&self) -> &DurHistogram {
        &self.hist
    }

    /// One-line report: `n=.. mean=.. p50<=.. p95<=.. p99<=.. max=..`.
    pub fn report(&self) -> String {
        self.hist.report()
    }
}

/// One message's causal timeline: named stage boundaries in record order.
pub type Timeline = Vec<(&'static str, SimTime)>;

/// Values keyed by `&'static str` name: O(1) update by the name's address,
/// sorted iteration and lookup by text for the readers.
struct NameTable<T> {
    /// One entry per distinct name, in first-write order.
    slots: Vec<(&'static str, T)>,
    /// Every distinct *address* a name was written through → its slot. The
    /// same text can live at more than one address (one literal per crate or
    /// codegen unit); each is remembered so it takes the slow path once.
    by_addr: Vec<(&'static str, u32)>,
    /// Slot indices ordered by name.
    sorted: Vec<u32>,
}

impl<T> Default for NameTable<T> {
    fn default() -> NameTable<T> {
        NameTable {
            slots: Vec::new(),
            by_addr: Vec::new(),
            sorted: Vec::new(),
        }
    }
}

impl<T: Default> NameTable<T> {
    fn slot(&mut self, name: &'static str) -> &mut T {
        let hit = self.by_addr.iter().find(|(n, _)| std::ptr::eq(*n, name));
        let i = match hit {
            Some(&(_, i)) => i,
            None => {
                let i = match self.position(name) {
                    Ok(pos) => self.sorted[pos],
                    Err(pos) => {
                        let i = u32::try_from(self.slots.len()).expect("metric name overflow");
                        self.slots.push((name, T::default()));
                        self.sorted.insert(pos, i);
                        i
                    }
                };
                self.by_addr.push((name, i));
                i
            }
        };
        &mut self.slots[i as usize].1
    }
}

impl<T> NameTable<T> {
    /// Where `name` is (`Ok`) or belongs (`Err`) in `sorted`.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&i| self.slots[i as usize].0.cmp(name))
    }

    fn get(&self, name: &str) -> Option<&T> {
        let pos = self.position(name).ok()?;
        Some(&self.slots[self.sorted[pos] as usize].1)
    }

    /// All entries, sorted by name.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.sorted.iter().map(|&i| {
            let (name, v) = &self.slots[i as usize];
            (*name, v)
        })
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.by_addr.clear();
        self.sorted.clear();
    }
}

/// Where causal id `causal` lives in the dense timeline store (`None` for
/// 0, the "untracked" id).
fn timeline_index(causal: u64) -> Option<usize> {
    usize::try_from(causal.checked_sub(1)?).ok()
}

/// The registry. One per [`crate::Sim`], reached via `Sim::with_metrics`.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: NameTable<u64>,
    gauges: BTreeMap<(&'static str, u32), GaugeSeries>,
    stats: NameTable<DurStat>,
    next_causal: u64,
    /// Timeline of causal id `c` at index `c - 1`; an id that was allocated
    /// but never marked holds an empty (unallocated) vector.
    timelines: Vec<Timeline>,
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
    /// identical values are coalesced, so an unchanged gauge costs one map
    /// probe and no storage.
    pub fn gauge_set(&mut self, name: &'static str, idx: u32, t: SimTime, v: i64) {
        let series = self.gauges.entry((name, idx)).or_default();
        if series.samples.last().map(|&(_, last)| last) != Some(v) {
            series.samples.push((t, v));
        }
    }

    /// Reads one gauge series.
    pub fn gauge(&self, name: &str, idx: u32) -> Option<&GaugeSeries> {
        self.gauges
            .iter()
            .find(|(&(n, i), _)| n == name && i == idx)
            .map(|(_, g)| g)
    }

    /// All gauge series, sorted by `(name, idx)`.
    pub fn gauges(&self) -> impl Iterator<Item = ((&'static str, u32), &GaugeSeries)> {
        self.gauges.iter().map(|(&k, v)| (k, v))
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
    /// boundary is the message's). `causal == 0` is ignored.
    pub fn mark(&mut self, causal: u64, stage: &'static str, t: SimTime) {
        let Some(idx) = timeline_index(causal) else {
            return;
        };
        if idx >= self.timelines.len() {
            self.timelines.resize_with(idx + 1, Timeline::new);
        }
        let tl = &mut self.timelines[idx];
        match tl.iter_mut().find(|(s, _)| *s == stage) {
            Some(slot) => slot.1 = t,
            None => tl.push((stage, t)),
        }
    }

    /// Reads one message's timeline (`None` for an id never marked).
    pub fn timeline(&self, causal: u64) -> Option<&Timeline> {
        self.timelines
            .get(timeline_index(causal)?)
            .filter(|tl| !tl.is_empty())
    }

    /// All marked timelines, in ascending causal-id order.
    pub fn timelines(&self) -> impl Iterator<Item = (u64, &Timeline)> {
        self.timelines
            .iter()
            .enumerate()
            .filter(|(_, tl)| !tl.is_empty())
            .map(|(i, tl)| (i as u64 + 1, tl))
    }

    /// Folds message `causal`'s timeline into the duration stats: every gap
    /// between consecutive stages is observed under `component(stage)` of
    /// the stage that *ends* it, and the first-to-last span under `e2e`.
    /// The components are contiguous, so they sum to `e2e` exactly. Does
    /// nothing for an id with no marks.
    pub fn observe_stages(
        &mut self,
        causal: u64,
        component: fn(&str) -> &'static str,
        e2e: &'static str,
    ) {
        let MetricsRegistry {
            timelines, stats, ..
        } = self;
        let Some(tl) = timeline_index(causal).and_then(|i| timelines.get(i)) else {
            return;
        };
        for w in tl.windows(2) {
            let (_, t0) = w[0];
            let (stage, t1) = w[1];
            stats.slot(component(stage)).record(t1.saturating_since(t0));
        }
        if let (Some(&(_, first)), Some(&(_, last))) = (tl.first(), tl.last()) {
            stats.slot(e2e).record(last.saturating_since(first));
        }
    }

    /// Associates a wire-level key (conventionally `(source and destination
    /// node in one word, transport tag, depart-time ps)`) with a causal id,
    /// for the receiving process to claim on pickup. Binding a key that is
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
            let mut prev: Option<(&str, SimTime)> = None;
            for &(stage, t) in tl {
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
            for (&(name, idx), g) in &self.gauges {
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

    /// Clears everything (counters, gauges, stats, timelines, keys).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.stats.clear();
        self.timelines.clear();
        self.wire_keys.clear();
        self.next_causal = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
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
        assert_eq!(m.timeline(c).unwrap().as_slice(), &[("a", t(1)), ("b", t(4))]);
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
        assert!(m.timeline(0).is_none(), "0 means untracked");
        assert!(m.timeline(2).is_none(), "allocated, never marked");
        assert!(m.timeline(5).is_none(), "never allocated");
        assert!(m.timeline(u64::MAX).is_none());
        assert_eq!(m.timeline(3).unwrap().as_slice(), &[("a", t(3))]);
        assert!(m.validate_timelines(&["a"]).is_empty());
        m.clear();
        assert_eq!(m.timelines().count(), 0);
        assert!(m.timeline(1).is_none());
        assert_eq!(m.next_causal(), 1, "clear() restarts id allocation");
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
        // departure instant). Two sources with one tag, one destination and
        // one instant are two keys; a re-bind of one key replaces it.
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
