//! Runtime-analysis primitives shared by every layer above the kernel.
//!
//! The analysis pass is deliberately split in two:
//!
//! * this module holds the *mechanism* — a cheap on/off [`AnalysisConfig`]
//!   flag that travels inside the existing configuration structs and a
//!   shared [`InvariantSink`] collecting structured [`Violation`] reports
//!   and the per-channel delivery log;
//! * each layer holds its own *checks*, next to the state they read: the
//!   kernel flags threads still parked when the queue drains (lost
//!   wakeups), the MTS scheduler walks its wait-for edges when a process
//!   goes idle (deadlocks), and the message-passing core checks its
//!   protocol conservation laws. `ncs-bench`'s schedule explorer arms them
//!   across alternative schedules.
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
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
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
    pub(crate) fn new() -> InvariantSink {
        InvariantSink::default()
    }

    /// Records one violation.
    pub(crate) fn push(&self, v: Violation) {
        self.violations.lock().push(v);
    }

    /// Drains the sink, returning everything recorded so far.
    pub fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.violations.lock())
    }

    /// Appends one delivered payload digest to channel `(src, dst, tag)`.
    /// Called from the message-passing core at the moment a message is
    /// accepted for the application (never on duplicates or retransmits),
    /// so the per-channel sequence is exactly what the application saw.
    pub(crate) fn note_delivery(&self, src: usize, dst: usize, tag: u64, payload_hash: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let v = sink.take();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "deadlock");
        assert!(sink.take().is_empty(), "take drains the sink");
        assert!(!AnalysisConfig::off().active());
    }
}
