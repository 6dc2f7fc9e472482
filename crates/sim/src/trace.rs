//! Span tracing for timeline ("Gantt") reconstruction.
//!
//! The paper's Figures 4 and 16 show per-thread compute / communication /
//! idle timelines with and without multithreading. Runtime components record
//! [`Span`]s here; the bench harness renders them as ASCII Gantt charts,
//! computes per-actor utilization, and exports Chrome `trace_event` JSON
//! (see [`crate::chrome`]).
//!
//! Recording is allocation-free on the hot path: actor names are interned
//! once into small [`ActorId`]s (components intern at construction and
//! record with [`Tracer::span_on`]), and labels are `&'static str`. Spans
//! recorded with [`Tracer::span_full`] carry a per-message causal id, so
//! one message's spans can be followed across threads and processes.
//!
//! Two recording levels: [`Tracer::enable`] turns on application-level spans
//! (compute, send, recv — the timeline figures); [`Tracer::enable_detail`]
//! additionally records high-rate scheduler timelines (per-thread run /
//! runnable / blocked transitions from the MTS runtime), which the
//! observability harness exports but the standard figures omit.

use std::collections::BTreeMap;

use crate::names::NameTable;
use crate::time::{Dur, SimTime};

/// What an actor was doing during a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Useful application computation.
    Compute,
    /// Moving data (protocol processing, copying, wire time).
    Comm,
    /// Blocked waiting for a message or event.
    Idle,
    /// Runtime bookkeeping (context switches, queue management).
    Overhead,
    /// Runnable but not dispatched (waiting for the CPU; detail level).
    Runnable,
}

impl SpanKind {
    /// One-character glyph used in rendered timelines.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Compute => '#',
            SpanKind::Comm => '~',
            SpanKind::Idle => '.',
            SpanKind::Overhead => 'o',
            SpanKind::Runnable => '+',
        }
    }

    /// Short category name (Chrome-trace `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Comm => "comm",
            SpanKind::Idle => "idle",
            SpanKind::Overhead => "overhead",
            SpanKind::Runnable => "runnable",
        }
    }
}

/// An interned actor name (conventionally `"<node>/<thread>"`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(u32);

impl ActorId {
    /// Dense index of this actor in [`Tracer::actors`] order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A closed interval of activity by one actor.
#[derive(Clone, Debug)]
pub struct Span {
    /// Who (interned; resolve via [`Tracer::actor_name`]).
    pub actor: ActorId,
    /// Activity class.
    pub kind: SpanKind,
    /// Static label (phase name, component name).
    pub label: &'static str,
    /// Start instant.
    pub t0: SimTime,
    /// End instant.
    pub t1: SimTime,
    /// Per-message causal id linking spans across threads (0 = none).
    pub causal: u64,
}

/// Collected spans plus named counters.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    counters: NameTable<u64>,
    actors: Vec<String>,
    actor_ids: BTreeMap<String, u32>,
    enabled: bool,
    detail: bool,
}

impl Tracer {
    /// Creates a tracer. Span recording starts disabled (counters always
    /// work); call [`Tracer::enable`] when reconstructing timelines.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Enables span recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Enables span recording *including* high-rate scheduler detail
    /// (run/runnable transitions recorded via [`Tracer::detail_enabled`]
    /// guards in the MTS runtime).
    pub fn enable_detail(&mut self) {
        self.enabled = true;
        self.detail = true;
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether scheduler-detail spans should be recorded.
    pub fn detail_enabled(&self) -> bool {
        self.enabled && self.detail
    }

    /// Interns an actor name, returning a stable id. Idempotent; ids are
    /// assigned in first-intern order (deterministic under the sim).
    pub fn intern(&mut self, name: &str) -> ActorId {
        if let Some(&id) = self.actor_ids.get(name) {
            return ActorId(id);
        }
        let id = u32::try_from(self.actors.len()).expect("actor intern overflow");
        self.actors.push(name.to_string());
        self.actor_ids.insert(name.to_string(), id);
        ActorId(id)
    }

    /// Resolves an interned actor id back to its name.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.actors[id.index()]
    }

    /// All interned actor names, in id order.
    pub fn actors(&self) -> &[String] {
        &self.actors
    }

    /// Records a span by actor name (interning it) if recording is enabled
    /// and the span is non-empty. Hot paths should intern once and use
    /// [`Tracer::span_on`] instead.
    pub fn span(&mut self, actor: &str, kind: SpanKind, label: &'static str, t0: SimTime, t1: SimTime) {
        if self.enabled && t1 > t0 {
            let actor = self.intern(actor);
            self.span_full(actor, kind, label, t0, t1, 0);
        }
    }

    /// Records a span on a pre-interned actor. Allocation-free.
    pub fn span_on(
        &mut self,
        actor: ActorId,
        kind: SpanKind,
        label: &'static str,
        t0: SimTime,
        t1: SimTime,
    ) {
        self.span_full(actor, kind, label, t0, t1, 0);
    }

    /// Records a span on a pre-interned actor with a per-message causal id
    /// (0 = none) if recording is enabled and the span is non-empty.
    pub fn span_full(
        &mut self,
        actor: ActorId,
        kind: SpanKind,
        label: &'static str,
        t0: SimTime,
        t1: SimTime,
        causal: u64,
    ) {
        if self.enabled && t1 > t0 {
            self.spans.push(Span {
                actor,
                kind,
                label,
                t0,
                t1,
                causal,
            });
        }
    }

    /// Adds to a named counter (always recorded). The name is a literal,
    /// resolved by its address like the registry's (see `names.rs`).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.slot(name) += n;
    }

    /// Reads a named counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time each actor spent in each kind, over `[t_begin, t_end]`.
    pub fn utilization(&self) -> BTreeMap<String, BTreeMap<SpanKind, Dur>> {
        let mut out: BTreeMap<String, BTreeMap<SpanKind, Dur>> = BTreeMap::new();
        for s in &self.spans {
            let e = out
                .entry(self.actor_name(s.actor).to_string())
                .or_default()
                .entry(s.kind)
                .or_insert(Dur::ZERO);
            *e += s.t1.since(s.t0);
        }
        out
    }

    /// Renders an ASCII Gantt chart: one row per actor, `width` time buckets.
    /// Later spans overwrite earlier ones within a bucket; idle gaps show as
    /// spaces.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width >= 10, "gantt width too small");
        let drawn = &self.spans;
        if drawn.is_empty() {
            return String::from("(no spans recorded)\n");
        }
        let t0 = drawn.iter().map(|s| s.t0).min().unwrap();
        let t1 = drawn.iter().map(|s| s.t1).max().unwrap();
        let total = t1.since(t0).as_ps().max(1);
        let mut actors: Vec<&str> = drawn.iter().map(|s| self.actor_name(s.actor)).collect();
        actors.sort_unstable();
        actors.dedup();
        let name_w = actors.iter().map(|a| a.len()).max().unwrap_or(0).max(8);
        let mut out = String::new();
        out.push_str(&format!(
            "{:name_w$} |{}|  span {} .. {}\n",
            "actor",
            "-".repeat(width),
            t0,
            t1,
        ));
        for actor in actors {
            let mut row = vec![' '; width];
            for s in drawn.iter().filter(|s| self.actor_name(s.actor) == actor) {
                let b0 =
                    ((s.t0.since(t0).as_ps() as u128 * width as u128) / total as u128) as usize;
                let b1 =
                    ((s.t1.since(t0).as_ps() as u128 * width as u128) / total as u128) as usize;
                let b1 = b1.clamp(b0 + 1, width).min(width);
                for cell in row.iter_mut().take(b1).skip(b0.min(width - 1)) {
                    *cell = s.kind.glyph();
                }
            }
            out.push_str(&format!(
                "{:name_w$} |{}|\n",
                actor,
                row.into_iter().collect::<String>()
            ));
        }
        out.push_str("legend: # compute   ~ comm   . idle   o overhead   + runnable\n");
        out
    }

    /// Clears spans and counters (interned actors stay valid).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn spans_only_recorded_when_enabled() {
        let mut tr = Tracer::new();
        tr.span("n0/t0", SpanKind::Compute, "x", t(0), t(5));
        assert!(tr.spans().is_empty());
        tr.enable();
        tr.span("n0/t0", SpanKind::Compute, "x", t(0), t(5));
        assert_eq!(tr.spans().len(), 1);
    }

    #[test]
    fn empty_spans_dropped() {
        let mut tr = Tracer::new();
        tr.enable();
        tr.span("a", SpanKind::Idle, "", t(3), t(3));
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut tr = Tracer::new();
        tr.count("cells", 3);
        tr.count("cells", 4);
        assert_eq!(tr.counter("cells"), 7);
        assert_eq!(tr.counter("missing"), 0);
    }

    #[test]
    fn span_gate_follows_the_tracer_switch_mid_run() {
        // `Sim::with_spans` reads a mirror of the tracer's switch. The
        // mirror is refreshed by the very `with_tracer` call that flips the
        // switch, so the gate cannot lag it: before — closure not even run;
        // inside the enabling call — recorded; right after — gate open.
        use crate::Sim;
        let sim = Sim::new();
        let seen = sim.clone();
        sim.spawn("t", move |ctx| {
            let a = seen.with_tracer(|tr| tr.intern("n0/t"));
            ctx.sleep(Dur::from_micros(1));
            let mut gate_ran = false;
            seen.with_spans(|tr| {
                gate_ran = true;
                tr.span_on(a, SpanKind::Compute, "off", t(0), t(1));
            });
            assert!(!gate_ran, "spans off: the gate skips the tracer lock");
            seen.with_tracer(|tr| {
                tr.enable();
                tr.span_on(a, SpanKind::Compute, "enabling", t(0), t(1));
            });
            seen.with_spans(|tr| {
                assert!(!tr.detail_enabled());
                tr.span_on(a, SpanKind::Compute, "on", t(1), t(2));
            });
            ctx.sleep(Dur::from_micros(1));
            seen.with_tracer(|tr| tr.enable_detail());
            seen.with_spans(|tr| {
                if tr.detail_enabled() {
                    tr.span_on(a, SpanKind::Runnable, "detail", t(2), t(3));
                }
            });
        });
        sim.run().assert_clean();
        let labels: Vec<&str> = sim.with_tracer(|tr| tr.spans().iter().map(|s| s.label).collect());
        assert_eq!(labels, vec!["enabling", "on", "detail"]);
    }

    #[test]
    fn interning_is_stable_and_idempotent() {
        let mut tr = Tracer::new();
        let a = tr.intern("n0/t0");
        let b = tr.intern("n0/t1");
        assert_eq!(tr.intern("n0/t0"), a);
        assert_ne!(a, b);
        assert_eq!(tr.actor_name(a), "n0/t0");
        assert_eq!(tr.actors(), &["n0/t0".to_string(), "n0/t1".to_string()]);
    }

    #[test]
    fn span_on_records_without_interning_again() {
        let mut tr = Tracer::new();
        tr.enable();
        let a = tr.intern("n0/t0");
        tr.span_on(a, SpanKind::Comm, "send", t(1), t(4));
        assert_eq!(tr.spans()[0].actor, a);
        assert_eq!(tr.spans()[0].causal, 0);
        tr.span_full(a, SpanKind::Comm, "wire", t(2), t(3), 42);
        assert_eq!(tr.spans()[1].causal, 42);
    }

    #[test]
    fn detail_level_gates_scheduler_spans() {
        let mut tr = Tracer::new();
        tr.enable();
        assert!(!tr.detail_enabled());
        tr.enable_detail();
        assert!(tr.detail_enabled());
    }

    #[test]
    fn utilization_sums_per_kind() {
        let mut tr = Tracer::new();
        tr.enable();
        tr.span("a", SpanKind::Compute, "", t(0), t(4));
        tr.span("a", SpanKind::Compute, "", t(6), t(8));
        tr.span("a", SpanKind::Idle, "", t(4), t(6));
        let u = tr.utilization();
        assert_eq!(u["a"][&SpanKind::Compute], Dur::from_micros(6));
        assert_eq!(u["a"][&SpanKind::Idle], Dur::from_micros(2));
    }

    #[test]
    fn gantt_renders_all_actors() {
        let mut tr = Tracer::new();
        tr.enable();
        tr.span("n0/t0", SpanKind::Compute, "", t(0), t(50));
        tr.span("n1/t0", SpanKind::Comm, "", t(25), t(100));
        let g = tr.render_gantt(40);
        assert!(g.contains("n0/t0"));
        assert!(g.contains("n1/t0"));
        assert!(g.contains('#'));
        assert!(g.contains('~'));
    }

    #[test]
    fn gantt_handles_empty() {
        let tr = Tracer::new();
        assert!(tr.render_gantt(40).contains("no spans"));
    }
}
