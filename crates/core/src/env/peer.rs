//! One [`Peer`] record per remote process: everything the error-control
//! and flow-control threads of the paper keep about one destination
//! (sequence numbers, unacknowledged frames, the RTT estimator, credits,
//! liveness) and one source (the duplicate window, credits owed, partial
//! chunked transfers).
//!
//! The reliability transitions are plain methods: frames, acknowledgments,
//! clock readings and reachability in, an action out. Nothing here touches
//! the simulator — the system-thread drivers ([`super::send`],
//! [`super::recv`]) own the timers, the send queue and the wakeups.

use ncs_sim::{Dur, SimTime, TimerHandle};
use std::collections::{BTreeMap, BTreeSet};

use super::reassembly::{registered_xfer, Reassembly};
use super::{RtoConfig, SendReq};
use crate::addr::{MsgClass, ThreadAddr};

/// Error-control statistics for one process (the FaultStats surface of the
/// reliability layer): aggregate counters plus the current per-destination
/// RTO trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ErrorStats {
    /// Frames retransmitted: `nack_retransmits + timer_retransmits`.
    pub retransmits: u64,
    /// Retransmissions the receiver asked for: it saw a damaged frame (a
    /// failed AAL5 reassembly handed up with its reception status, or a
    /// failed NCS checksum) and NACKed it. Recovery within one round trip.
    pub nack_retransmits: u64,
    /// Retransmissions the loss-recovery timer fired: nothing came back for
    /// a full RTO. The backstop for losses that raise no indication.
    pub timer_retransmits: u64,
    /// Timeout events that doubled a destination's RTO.
    pub backoff_events: u64,
    /// Clean RTT samples folded into an estimator (Karn-filtered).
    pub rtt_samples: u64,
    /// User sends that can never complete, each raised once as
    /// [`EXC_DELIVERY_FAILED`](super::EXC_DELIVERY_FAILED): one per send
    /// (a chunked transfer is one send), whether it failed fast toward a
    /// peer already dead or cut off, or was abandoned in the give-up after
    /// its retry budget ran out. A given-up credit grant, which no user
    /// thread sent, is not one. Equal to the number of such exceptions
    /// raised.
    pub delivery_failures: u64,
    /// Duplicate frames re-ACKed but not delivered: retransmissions the
    /// receiver can *prove* were unnecessary, because a copy had already
    /// arrived (the ACK was lost or late, or the timer fired behind a
    /// NACK-driven resend).
    pub duplicates_suppressed: u64,
    /// Deliveries marked damaged by the transport that error control could
    /// not answer with a NACK — ACKs and NACKs, any frame with
    /// checksum/retransmit off, checked frames too short to claim a
    /// sequence number — dropped unread, never consumed.
    pub damaged_dropped: u64,
    /// Checked frames shorter than the error-control header: dropped
    /// without a NACK (there is no sequence number to name), left to the
    /// sender's RTO.
    pub malformed_frames: u64,
    /// Acknowledgments that arrived for a frame that had been
    /// retransmitted. Karn-ambiguous, not proof of waste: the ACK may
    /// answer the retransmission (which was then needed) or a late original
    /// (which made it unnecessary), and the sender cannot tell. Under loss
    /// nearly every retransmitted frame ends here although nearly every one
    /// was needed; the retransmissions provably unnecessary are
    /// `duplicates_suppressed`, counted by the receiver.
    pub spurious_retransmits: u64,
    /// Partition fail-fast events: a loss-recovery timer found every route
    /// to the peer down and failed its outstanding frames immediately.
    pub partition_failfasts: u64,
    /// Retransmissions deferred by the bounded retransmit queue.
    pub retx_deferred: u64,
    /// Partial reassembly buffers reclaimed by timeout.
    pub reassembly_reclaimed: u64,
    /// Destinations declared dead (retry budget exhausted).
    pub dead_peers: Vec<usize>,
    /// Per-destination estimator snapshot, sorted by peer id.
    pub peers: Vec<PeerRto>,
}

/// One destination's RTT/RTO estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerRto {
    /// Destination process id.
    pub peer: usize,
    /// Smoothed round-trip time (zero before the first sample).
    pub srtt: Dur,
    /// Round-trip time variance estimate.
    pub rttvar: Dur,
    /// The timeout the next transmission to this peer would get.
    pub rto: Dur,
}

/// Serial-number comparison (RFC 1982 style): is `a` strictly ahead of `b`
/// on the wrapping u32 circle?
fn seq_after(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000_0000
}

/// Wrap-aware duplicate detector for one source's delivered sequence
/// numbers: the cumulative `floor` — the lowest number not yet delivered,
/// starting at 0 as the sender's allocator does — plus the exact set
/// delivered ahead of it. A number behind the floor was delivered; one
/// ahead of it is judged on membership, however far the stream has run on
/// since (an unfragmented stream without flow control bounds nothing, so a
/// frame whose retransmission is overtaken by thousands of successors must
/// still be accepted when it finally lands).
#[derive(Default)]
struct SeqWindow {
    floor: u32,
    ahead: BTreeSet<u32>,
}

impl SeqWindow {
    /// Records `seq` as delivered; returns `true` if it already was.
    fn observe(&mut self, seq: u32) -> bool {
        if seq == self.floor {
            self.floor = self.floor.wrapping_add(1);
            while self.ahead.remove(&self.floor) {
                self.floor = self.floor.wrapping_add(1);
            }
            false
        } else if seq_after(seq, self.floor) {
            !self.ahead.insert(seq)
        } else {
            true
        }
    }
}

/// Jacobson/Karn RTT estimation state for one destination.
#[derive(Clone, Copy, Debug, Default)]
struct RttEstimator {
    srtt_ps: u64,
    rttvar_ps: u64,
    has_sample: bool,
    /// Consecutive-timeout exponential-backoff exponent.
    backoff_exp: u32,
}

impl RttEstimator {
    /// Folds in one clean RTT sample (Jacobson's gains: 1/8 and 1/4) and
    /// resets the backoff.
    fn observe(&mut self, rtt: Dur) {
        let rtt_ps = rtt.as_ps();
        if self.has_sample {
            let err = self.srtt_ps.abs_diff(rtt_ps);
            self.rttvar_ps = (3 * self.rttvar_ps + err) / 4;
            self.srtt_ps = (7 * self.srtt_ps + rtt_ps) / 8;
        } else {
            self.srtt_ps = rtt_ps;
            self.rttvar_ps = rtt_ps / 2;
            self.has_sample = true;
        }
        self.backoff_exp = 0;
    }

    /// The current timeout: `SRTT + 4·RTTVAR` (or the configured initial
    /// value before any sample), clamped to `[min, max]`, then doubled per
    /// outstanding backoff step, capped at `max`.
    fn rto(&self, cfg: &RtoConfig) -> Dur {
        let base_ps = if self.has_sample {
            self.srtt_ps.saturating_add(4 * self.rttvar_ps)
        } else {
            cfg.initial.as_ps()
        };
        let clamped = base_ps.clamp(cfg.min.as_ps(), cfg.max.as_ps());
        let backed = clamped.saturating_mul(1u64 << self.backoff_exp.min(20));
        Dur::from_ps(backed.min(cfg.max.as_ps()))
    }
}

/// One sent-but-unacknowledged frame.
pub(super) struct Unacked {
    /// The retransmission, ready to queue: the wrapped payload under the
    /// frame's original addressing and class (a retransmitted chunk must
    /// still be routed into reassembly), in the
    /// [`Retransmit`](super::FrameState::Retransmit) state.
    frame: SendReq,
    /// Retransmissions so far, timeout- and NACK-driven alike: both spend
    /// the one `max_retries` budget.
    retries: u32,
    /// When the frame first hit the wire (None until transmitted).
    sent_at: Option<SimTime>,
    /// The frame has been retransmitted at least once; Karn's rule bars
    /// its ACK from RTT sampling (the echo is ambiguous).
    retransmitted: bool,
}

/// Outcome of an acknowledgment that retired a frame.
#[derive(PartialEq, Eq, Debug)]
pub(super) struct Acked {
    /// No frame toward the peer is outstanding any more: retract the
    /// loss-recovery timer rather than restarting it.
    pub last: bool,
}

/// What a NACK asks of the driver.
pub(super) enum NackAction {
    /// Names no outstanding frame.
    Ignored,
    /// The retransmit queue is at its cap: skip the NACK-driven resend; the
    /// destination's loss-recovery timer is still armed and will retry once
    /// the queue drains.
    Deferred,
    /// The frame has spent its retry budget: no resend. The loss-recovery
    /// timer is still armed, and its next expiry gives the peer up.
    Exhausted,
    /// Queue this retransmission.
    Retransmit(SendReq),
}

/// What a loss-recovery timer expiry asks of the driver.
pub(super) enum TimeoutAction {
    /// Nothing on the wire: everything was acknowledged meanwhile.
    Idle,
    /// Queue this retransmission of the oldest frame (now at `retries`
    /// timeouts) and re-arm with the doubled timeout.
    Retransmit {
        frame: SendReq,
        seq: u32,
        retries: u32,
    },
    /// The retransmit queue is at its cap: re-arm with the doubled timeout
    /// and let the queue drain meanwhile.
    Deferred,
    /// Every outstanding frame was abandoned; report the user sends
    /// [`Peer::purge`] returned as failed. Either the retry budget is spent
    /// and the peer is permanently dead, or every route to it is down
    /// (partition fail-fast, recoverable when the route heals).
    Failed(Vec<(ThreadAddr, u32)>),
}

/// Everything this process keeps about one remote process.
#[derive(Default)]
pub(super) struct Peer {
    /// Remaining send credits toward the peer (credit flow control).
    credits: u32,
    /// Data messages ingested from the peer since the last credit grant.
    consumed: u32,
    /// Next sequence number toward the peer (wraps at u32).
    next_seq: u32,
    /// Sequence numbers ever allocated toward the peer — `next_seq` alone
    /// is ambiguous once it wraps.
    pub seqs_allocated: u64,
    /// Sent-but-unacknowledged frames, by sequence number.
    pub unacked: BTreeMap<u32, Unacked>,
    /// RTT estimator, created by the first sample or backoff.
    rtt: Option<RttEstimator>,
    /// The retry budget toward the peer was exhausted: sends fail fast with
    /// [`EXC_DELIVERY_FAILED`](super::EXC_DELIVERY_FAILED).
    pub dead: bool,
    /// Every link on the route was found down: sends fail fast like `dead`,
    /// but the mark is dropped — and the credit window re-seeded — the
    /// moment a fresh send finds the route up again.
    pub partitioned: bool,
    /// The loss-recovery timer, timing the *oldest* unacknowledged frame
    /// (TCP-style): restarted on partial acknowledgment, retracted when the
    /// last frame is acked. Whoever replaces or retracts the handle
    /// cancels it (a firing takes its own), so a firing always finds its
    /// own timer armed.
    pub timer: Option<TimerHandle>,
    /// The chunked transfer toward the peer whose last chunk the send loop
    /// has yet to register: until it has, a failure of that transfer is the
    /// loop's to report, not the purge's.
    pub chunking: Option<u32>,
    /// Delivered sequence numbers from the peer — a retransmitted frame
    /// whose ACK was lost must not be delivered twice.
    seen: SeqWindow,
    /// Partially reassembled chunked transfers from the peer.
    pub reasm: Reassembly,
}

impl Peer {
    pub fn new(credits: u32) -> Peer {
        Peer {
            credits,
            ..Peer::default()
        }
    }

    /// Sends toward the peer fail fast (dead or behind a partition).
    pub fn cut_off(&self) -> bool {
        self.dead || self.partitioned
    }

    // ---- flow control ----

    /// Spends one send credit if one is held.
    pub fn spend_credit(&mut self) -> bool {
        let held = self.credits > 0;
        if held {
            self.credits -= 1;
        }
        held
    }

    /// Banks `n` credits granted by the peer; returns the balance.
    pub fn grant(&mut self, n: u32) -> u32 {
        self.credits += n;
        self.credits
    }

    /// The route is up again: drops the partition mark and re-seeds the
    /// credit window, since the frames that spent credits were purged and
    /// the peer can never grant them back.
    pub fn heal(&mut self, window: u32) {
        self.partitioned = false;
        self.credits = window;
    }

    /// Counts one frame from the peer accepted for delivery; once half the
    /// window is owed, returns the batch to grant back. Only accepted
    /// frames count: the sender spends a credit per fresh logical message
    /// (retransmissions ride free), so granting per raw arrival would push
    /// its balance above the window.
    pub fn consume(&mut self, window: u32) -> Option<u32> {
        self.consumed += 1;
        (self.consumed >= (window / 2).max(1)).then(|| std::mem::take(&mut self.consumed))
    }

    // ---- error control, receive side ----

    /// Records `seq` from the peer as delivered; `true` if it already was.
    pub fn observe_seq(&mut self, seq: u32) -> bool {
        self.seen.observe(seq)
    }

    /// Test hook: the next sequence number expected from the peer.
    pub fn seed_expected_seq(&mut self, seq: u32) {
        self.seen.floor = seq;
    }

    // ---- error control, send side ----

    /// The timeout the next (re)transmission to the peer should get.
    pub fn rto(&self, cfg: &RtoConfig) -> Dur {
        self.rtt.unwrap_or_default().rto(cfg)
    }

    /// The estimator snapshot, once a sample or backoff created one.
    pub fn rto_snapshot(&self, peer: usize, cfg: &RtoConfig) -> Option<PeerRto> {
        self.rtt.map(|e| PeerRto {
            peer,
            srtt: Dur::from_ps(e.srtt_ps),
            rttvar: Dur::from_ps(e.rttvar_ps),
            rto: e.rto(cfg),
        })
    }

    fn back_off(&mut self, errs: &mut ErrorStats) {
        errs.backoff_events += 1;
        self.rtt
            .get_or_insert_with(RttEstimator::default)
            .backoff_exp += 1;
    }

    /// Allocates the next sequence number toward the peer. Wraps rather
    /// than overflows: sequence numbers are serial numbers, and the
    /// receiver's duplicate window compares them as such.
    pub fn alloc_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        self.seqs_allocated += 1;
        seq
    }

    /// Test hook: where the sequence allocator stands.
    pub fn seed_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    /// Whether `seq` is among the numbers ever allocated toward the peer:
    /// the `seqs_allocated` values on the u32 circle ending just before
    /// `next_seq`.
    pub fn allocated(&self, seq: u32) -> bool {
        let back = self.next_seq.wrapping_sub(1).wrapping_sub(seq);
        self.seqs_allocated > 0
            && (self.seqs_allocated >= (1u64 << 32) || u64::from(back) < self.seqs_allocated)
    }

    /// Keeps `frame` (the wrapped payload as a ready retransmission) until
    /// `seq` is acknowledged. Returns `false` if `seq` was still awaiting
    /// acknowledgement — u32 wrap-around with a full window reused it.
    pub fn register(&mut self, seq: u32, frame: SendReq) -> bool {
        let u = Unacked {
            frame,
            retries: 0,
            sent_at: None,
            retransmitted: false,
        };
        self.unacked.insert(seq, u).is_none()
    }

    /// Starts the RTT clock of `seq` — at the instant the frame actually
    /// hits the wire, never at queue time. First transmission only.
    pub fn stamp_sent(&mut self, seq: u32, now: SimTime) {
        if let Some(u) = self.unacked.get_mut(&seq) {
            u.sent_at.get_or_insert(now);
        }
    }

    /// An acknowledgment of `seq` arrived at `now`. `None` if it names no
    /// outstanding frame (a duplicate acknowledgment).
    pub fn on_ack(&mut self, seq: u32, now: SimTime, errs: &mut ErrorStats) -> Option<Acked> {
        let u = self.unacked.remove(&seq)?;
        if u.retransmitted {
            // Stop backing off: the peer is alive.
            errs.spurious_retransmits += 1;
            self.rtt
                .get_or_insert_with(RttEstimator::default)
                .backoff_exp = 0;
        } else if let Some(sent) = u.sent_at {
            // Karn's rule: only frames never retransmitted give
            // unambiguous round-trip samples.
            self.rtt
                .get_or_insert_with(RttEstimator::default)
                .observe(now.since(sent));
            errs.rtt_samples += 1;
        }
        Some(Acked {
            last: self.unacked.is_empty(),
        })
    }

    /// A NACK for `seq` arrived; `queue_full` is whether the retransmit
    /// queue is at [`RETX_QUEUE_CAP`](super::RETX_QUEUE_CAP). The resend is
    /// immediate and leaves the RTO alone (a NACK is news from a live
    /// peer, not silence), but it spends one of the frame's `max_retries`
    /// like a timeout does: a path that damages every copy must end in the
    /// give-up, not in a NACK → resend loop.
    ///
    /// The driver leaves the destination's loss-recovery timer running at
    /// its old deadline. When that falls inside the resend's round trip the
    /// timer sends a second copy behind the first; the receiver suppresses
    /// one of them as a duplicate, and the pair is what recovers a frame
    /// whose resend is itself hit without another round trip. Restarting
    /// the timer instead halves the duplicates and costs 3–4 % of virtual
    /// time on the lossy ring (EXPERIMENTS.md X11, "timer policy").
    pub fn on_nack(
        &mut self,
        seq: u32,
        max_retries: u32,
        queue_full: bool,
        errs: &mut ErrorStats,
    ) -> NackAction {
        let Some(u) = self.unacked.get_mut(&seq) else {
            return NackAction::Ignored;
        };
        if u.retries >= max_retries {
            return NackAction::Exhausted;
        }
        if queue_full {
            errs.retx_deferred += 1;
            return NackAction::Deferred;
        }
        u.retries += 1;
        u.retransmitted = true; // Karn: timing now ambiguous
        errs.retransmits += 1;
        errs.nack_retransmits += 1;
        NackAction::Retransmit(u.frame.clone())
    }

    /// The loss-recovery timer expired: the oldest frame on the wire has
    /// gone a full RTO unacknowledged. Retransmit it (with exponential RTO
    /// backoff), unless every route to the peer is down (`unreachable`,
    /// asked of the frame's transport tier: fail all outstanding frames
    /// fast — a partition should cost one RTO, not a `max_retries` backoff
    /// crawl), the retry budget is spent (declare the peer dead — a send
    /// to a crashed node must not hang the scheduler), or the retransmit
    /// queue is full (defer, so memory stays bounded under sustained
    /// faults).
    pub fn on_timeout(
        &mut self,
        unreachable: impl FnOnce(usize) -> bool,
        max_retries: u32,
        queue_full: bool,
        errs: &mut ErrorStats,
    ) -> TimeoutAction {
        // The timer times the oldest frame actually transmitted. Frames
        // still queued locally (`sent_at == None`) have not started their
        // clock — a queued frame never inherits a stale send-time.
        let oldest = self
            .unacked
            .iter_mut()
            .filter(|(_, u)| u.sent_at.is_some())
            .min_by_key(|(_, u)| u.sent_at);
        let Some((&seq, u)) = oldest else {
            return TimeoutAction::Idle;
        };
        if unreachable(u.frame.tier) {
            // Retrying into an outage burns the budget for nothing. Do NOT
            // declare the peer dead — when the outage ends, fresh sends
            // recover.
            self.partitioned = true;
            errs.partition_failfasts += 1;
            return TimeoutAction::Failed(self.purge());
        }
        if u.retries >= max_retries {
            self.dead = true;
            return TimeoutAction::Failed(self.purge());
        }
        if queue_full {
            errs.retx_deferred += 1;
            self.back_off(errs);
            return TimeoutAction::Deferred;
        }
        u.retries += 1;
        u.retransmitted = true; // Karn: its ACK is now ambiguous
        let action = TimeoutAction::Retransmit {
            frame: u.frame.clone(),
            seq,
            retries: u.retries,
        };
        errs.retransmits += 1;
        errs.timer_retransmits += 1;
        self.back_off(errs);
        action
    }

    /// Abandons every outstanding frame toward the peer, returning the
    /// user sends they carried as `(endpoint, tag)`, each once: none for a
    /// credit grant, which no user thread sent, and one per chunked
    /// transfer however many of its chunks were outstanding — none for the
    /// transfer still [`chunking`](Peer::chunking), which its send loop
    /// reports.
    pub fn purge(&mut self) -> Vec<(ThreadAddr, u32)> {
        let mut xfers = BTreeSet::new();
        std::mem::take(&mut self.unacked)
            .into_values()
            .filter(|u| match u.frame.class {
                MsgClass::Credit => false,
                MsgClass::Frag => {
                    let xfer = registered_xfer(&u.frame.data);
                    self.chunking != Some(xfer) && xfers.insert(xfer)
                }
                _ => true,
            })
            .map(|u| (u.frame.to, u.frame.user_tag))
            .collect()
    }
}

#[cfg(test)]
mod pair_check;

#[cfg(test)]
mod tests {
    use super::super::reassembly::frag_header;
    use super::super::{wrap_checked, FrameState};
    use super::*;
    use bytes::Bytes;

    const T0: SimTime = SimTime::ZERO;

    fn at(ms: u64) -> SimTime {
        T0 + Dur::from_millis(ms)
    }

    /// A peer with frames `0..n` toward `(proc 1, thread n)` tagged
    /// `100 + n`, frame `i` on the wire since `i` ms.
    fn peer_with_frames(n: u32) -> Peer {
        let mut p = Peer::new(0);
        for i in 0..n {
            let seq = p.alloc_seq();
            let mut frame = SendReq::new(
                0,
                ThreadAddr::new(1, i),
                MsgClass::Data,
                100 + i,
                Bytes::new(),
                0,
            );
            frame.state = FrameState::Retransmit;
            assert!(p.register(seq, frame));
            p.stamp_sent(seq, at(u64::from(i)));
        }
        p
    }

    fn up(_tier: usize) -> bool {
        false
    }

    #[test]
    fn first_sample_seeds_estimator() {
        let cfg = RtoConfig {
            initial: Dur::from_millis(500),
            min: Dur::from_millis(1),
            max: Dur::from_secs(4),
        };
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(&cfg), cfg.initial, "no sample yet: initial RTO");
        e.observe(Dur::from_millis(40));
        // SRTT = 40 ms, RTTVAR = 20 ms, RTO = 40 + 4*20 = 120 ms.
        assert_eq!(e.rto(&cfg), Dur::from_millis(120));
    }

    #[test]
    fn smoothing_follows_jacobson_gains() {
        let cfg = RtoConfig::default();
        let mut e = RttEstimator::default();
        e.observe(Dur::from_millis(40));
        e.observe(Dur::from_millis(80));
        // SRTT = 40 + (80-40)/8 = 45 ms; RTTVAR = 20 + (40-20)/4 = 25 ms.
        assert_eq!(e.srtt_ps, Dur::from_millis(45).as_ps());
        assert_eq!(e.rttvar_ps, Dur::from_millis(25).as_ps());
        assert_eq!(e.rto(&cfg), Dur::from_millis(145));
    }

    #[test]
    fn backoff_doubles_and_caps_at_max() {
        let cfg = RtoConfig {
            initial: Dur::from_millis(100),
            min: Dur::from_millis(10),
            max: Dur::from_millis(350),
        };
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(&cfg), Dur::from_millis(100));
        e.backoff_exp = 1;
        assert_eq!(e.rto(&cfg), Dur::from_millis(200));
        e.backoff_exp = 2; // 400 ms, over the ceiling
        assert_eq!(e.rto(&cfg), Dur::from_millis(350));
        e.backoff_exp = 63; // shift capped internally, no overflow
        assert_eq!(e.rto(&cfg), Dur::from_millis(350));
    }

    #[test]
    fn fresh_sample_resets_backoff() {
        let cfg = RtoConfig::default();
        let mut e = RttEstimator::default();
        e.observe(Dur::from_millis(20));
        e.backoff_exp = 5;
        e.observe(Dur::from_millis(20));
        assert_eq!(e.backoff_exp, 0);
        assert_eq!(e.rto(&cfg), e.rto(&cfg).min(cfg.max));
    }

    #[test]
    fn rto_respects_floor() {
        let cfg = RtoConfig {
            initial: Dur::from_millis(100),
            min: Dur::from_millis(50),
            max: Dur::from_secs(1),
        };
        let mut e = RttEstimator::default();
        e.observe(Dur::from_micros(10)); // tiny RTT: raw RTO ~30 us
        assert_eq!(e.rto(&cfg), cfg.min);
    }

    #[test]
    fn late_frame_far_behind_the_stream_is_delivered_once() {
        // Frame 0 is lost and its retransmission overtaken by 5000
        // successors (nothing bounds an unfragmented stream without flow
        // control). It was never delivered, so it must not be judged a
        // duplicate however far the high-water mark has moved on.
        let mut w = SeqWindow::default();
        for seq in 1..=5000 {
            assert!(!w.observe(seq), "first sight of {seq}");
        }
        assert!(w.observe(4000), "a replay inside the run is a duplicate");
        assert!(!w.observe(0), "the straggler is new, not a stale replay");
        assert!(w.observe(0), "and a duplicate the second time");
        assert!(
            w.ahead.is_empty(),
            "the floor swept up everything delivered"
        );
        assert_eq!(w.floor, 5001);
    }

    #[test]
    fn window_follows_the_stream_across_the_wrap() {
        let mut w = SeqWindow {
            floor: u32::MAX - 1,
            ..SeqWindow::default()
        };
        for seq in [u32::MAX, 1, u32::MAX - 1, 0] {
            assert!(!w.observe(seq), "first sight of {seq}");
        }
        assert_eq!(w.floor, 2);
        for seq in [u32::MAX - 1, u32::MAX, 0, 1] {
            assert!(w.observe(seq), "replay of {seq}");
        }
    }

    #[test]
    fn timeout_retransmits_the_oldest_frame_and_backs_off() {
        let cfg = RtoConfig::default();
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(3);
        match p.on_timeout(up, 8, false, &mut errs) {
            TimeoutAction::Retransmit {
                frame,
                seq,
                retries,
            } => {
                assert_eq!((seq, retries), (0, 1));
                assert_eq!((frame.to, frame.user_tag), (ThreadAddr::new(1, 0), 100));
                assert!(frame.state == FrameState::Retransmit && frame.waiter.is_none());
            }
            _ => panic!("expected a retransmission"),
        }
        assert_eq!((errs.retransmits, errs.backoff_events), (1, 1));
        assert_eq!(p.rto(&cfg), cfg.initial.times(2));
    }

    #[test]
    fn timeout_at_the_queue_cap_defers_without_spending_a_retry() {
        let cfg = RtoConfig::default();
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(2);
        assert!(matches!(
            p.on_timeout(up, 1, true, &mut errs),
            TimeoutAction::Deferred
        ));
        assert_eq!(
            (errs.retx_deferred, errs.backoff_events, errs.retransmits),
            (1, 1, 0)
        );
        assert_eq!(
            p.rto(&cfg),
            cfg.initial.times(2),
            "deferral still backs off"
        );
        assert_eq!(p.unacked[&0].retries, 0);
        assert!(!p.unacked[&0].retransmitted, "its ACK still gives a sample");
        // The budget is one retry: had the deferral spent it, this would be
        // the give-up instead of the first real retransmission.
        assert!(matches!(
            p.on_timeout(up, 1, false, &mut errs),
            TimeoutAction::Retransmit { retries: 1, .. }
        ));
        // A NACK at the cap is likewise left to the timer.
        assert!(matches!(
            p.on_nack(1, 1, true, &mut errs),
            NackAction::Deferred
        ));
        assert_eq!((errs.retx_deferred, errs.retransmits), (2, 1));
        assert_eq!(p.unacked[&1].retries, 0, "a deferred NACK spends nothing");
    }

    #[test]
    fn timeout_with_the_route_down_purges_but_does_not_kill() {
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(3);
        // Even with the budget spent, a partition is judged first.
        match p.on_timeout(|tier| tier == 0, 0, false, &mut errs) {
            TimeoutAction::Failed(failed) => assert_eq!(failed.len(), 3),
            _ => panic!("expected a partition purge"),
        }
        assert!(p.partitioned && !p.dead && p.cut_off());
        assert!(p.unacked.is_empty());
        assert_eq!(errs.partition_failfasts, 1);
        assert_eq!(errs.delivery_failures, 0, "counted where it is raised");
        assert_eq!(errs.backoff_events, 0);
    }

    #[test]
    fn spent_budget_kills_the_peer_and_returns_every_outstanding_frame() {
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(3);
        assert!(matches!(
            p.on_timeout(up, 1, false, &mut errs),
            TimeoutAction::Retransmit { .. }
        ));
        match p.on_timeout(up, 1, false, &mut errs) {
            TimeoutAction::Failed(failed) => {
                let want: Vec<_> = (0..3).map(|i| (ThreadAddr::new(1, i), 100 + i)).collect();
                assert_eq!(failed, want);
            }
            _ => panic!("expected the give-up"),
        }
        assert!(p.dead && !p.partitioned);
        assert_eq!(errs.delivery_failures, 0, "counted where it is raised");
        assert!(matches!(
            p.on_timeout(up, 1, false, &mut errs),
            TimeoutAction::Idle
        ));
    }

    #[test]
    fn a_purge_reports_each_chunked_transfer_once() {
        // Transfer 7 (3 chunks) was fully registered, and its last chunk
        // already acknowledged; transfer 8 is still being chunked. Beside
        // them, one data frame and one credit grant.
        let mut p = Peer::new(0);
        let mut errs = ErrorStats::default();
        let to = ThreadAddr::new(1, 0);
        let mut register = |class, tag, head: &[u8]| {
            let seq = p.alloc_seq();
            let data = wrap_checked(seq, head, b"body");
            let mut frame = SendReq::new(0, to, class, tag, data, 0);
            frame.state = FrameState::Retransmit;
            assert!(p.register(seq, frame));
        };
        for idx in 0..3 {
            register(MsgClass::Frag, 70, &frag_header(7, idx, 3));
        }
        register(MsgClass::Data, 71, &[]);
        register(MsgClass::Credit, 1, &[]);
        for idx in 0..2 {
            register(MsgClass::Frag, 80, &frag_header(8, idx, 4));
        }
        p.chunking = Some(8);
        assert!(p.on_ack(2, T0, &mut errs).is_some());
        // Transfer 7 once, the data frame; not the grant, and not transfer
        // 8, whose send loop reports it.
        assert_eq!(p.purge(), vec![(to, 70), (to, 71)]);
        assert!(p.unacked.is_empty());
    }

    #[test]
    fn unsent_frames_do_not_run_the_timer() {
        let mut p = Peer::new(0);
        let seq = p.alloc_seq();
        p.register(seq, SendReq::control(MsgClass::Data, 1, 0, 0));
        let mut errs = ErrorStats::default();
        assert!(matches!(
            p.on_timeout(up, 0, false, &mut errs),
            TimeoutAction::Idle
        ));
        assert_eq!(errs, ErrorStats::default());
    }

    #[test]
    fn ack_of_a_retransmitted_frame_gives_no_sample() {
        let cfg = RtoConfig::default();
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(2);
        p.on_timeout(up, 8, false, &mut errs); // frame 0 retransmitted
        assert_eq!(p.rto(&cfg), cfg.initial.times(2));
        // Karn: the echo is ambiguous — no sample, but the backoff resets.
        let acked = p.on_ack(0, at(700), &mut errs);
        assert_eq!(acked, Some(Acked { last: false }));
        assert_eq!((errs.rtt_samples, errs.spurious_retransmits), (0, 1));
        assert_eq!(p.rto(&cfg), cfg.initial);
        // Frame 1 went out at 1 ms and was never retransmitted: a 40 ms
        // sample, SRTT 40, RTTVAR 20.
        let acked = p.on_ack(1, at(41), &mut errs);
        assert_eq!(acked, Some(Acked { last: true }));
        assert_eq!((errs.rtt_samples, errs.spurious_retransmits), (1, 1));
        assert_eq!(p.rto(&cfg), Dur::from_millis(120));
        assert_eq!(p.on_ack(1, at(50), &mut errs), None, "duplicate ACK");
    }

    #[test]
    fn nack_retransmits_without_backoff_and_bars_the_sample() {
        let cfg = RtoConfig::default();
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(1);
        assert!(matches!(
            p.on_nack(9, 8, false, &mut errs),
            NackAction::Ignored
        ));
        assert!(matches!(
            p.on_nack(0, 8, false, &mut errs),
            NackAction::Retransmit(_)
        ));
        assert_eq!((errs.retransmits, errs.backoff_events), (1, 0));
        assert_eq!((errs.nack_retransmits, errs.timer_retransmits), (1, 0));
        assert!(p.rto_snapshot(1, &cfg).is_none(), "no estimator yet");
        assert!(p.on_ack(0, at(5), &mut errs).is_some(), "outstanding");
        assert_eq!((errs.rtt_samples, errs.spurious_retransmits), (0, 1));
    }

    #[test]
    fn nack_resends_spend_the_retry_budget() {
        // A path that damages every copy: each NACK-driven resend counts
        // against `max_retries` exactly like a timeout, so the frame is
        // resent at most that often and the next timer expiry gives up.
        const BUDGET: u32 = 3;
        let mut errs = ErrorStats::default();
        let mut p = peer_with_frames(1);
        for _ in 0..BUDGET {
            assert!(matches!(
                p.on_nack(0, BUDGET, false, &mut errs),
                NackAction::Retransmit(_)
            ));
        }
        for _ in 0..10 {
            assert!(matches!(
                p.on_nack(0, BUDGET, false, &mut errs),
                NackAction::Exhausted
            ));
        }
        assert_eq!(u64::from(BUDGET), errs.retransmits);
        assert_eq!((errs.nack_retransmits, errs.timer_retransmits), (3, 0));
        assert_eq!(errs.backoff_events, 0, "a NACK never backs the RTO off");
        assert!(!p.dead, "only the timer declares a peer dead");
        match p.on_timeout(up, BUDGET, false, &mut errs) {
            TimeoutAction::Failed(failed) => {
                assert_eq!(failed, vec![(ThreadAddr::new(1, 0), 100)]);
            }
            _ => panic!("expected the give-up"),
        }
        assert!(p.dead, "the timer's give-up declares the peer dead");
        // Mixed: one timeout and one NACK fill a budget of two.
        let mut p = peer_with_frames(1);
        assert!(matches!(
            p.on_timeout(up, 2, false, &mut errs),
            TimeoutAction::Retransmit { retries: 1, .. }
        ));
        assert!(matches!(
            p.on_nack(0, 2, false, &mut errs),
            NackAction::Retransmit(_)
        ));
        assert!(matches!(
            p.on_nack(0, 2, false, &mut errs),
            NackAction::Exhausted
        ));
        assert!(matches!(
            p.on_timeout(up, 2, false, &mut errs),
            TimeoutAction::Failed(_)
        ));
        assert!(p.dead);
    }

    #[test]
    fn acks_are_checked_against_the_allocated_range() {
        let mut p = Peer::new(0);
        assert!(!p.allocated(0), "nothing allocated yet");
        p.seed_next_seq(u32::MAX - 1);
        for _ in 0..3 {
            p.alloc_seq();
        }
        for seq in [u32::MAX - 1, u32::MAX, 0] {
            assert!(p.allocated(seq), "{seq} was allocated");
        }
        for seq in [u32::MAX - 2, 1] {
            assert!(!p.allocated(seq), "{seq} was not");
        }
    }

    #[test]
    fn credits_are_conserved_across_spend_grant_and_heal() {
        const WINDOW: u32 = 4;
        let (mut sender, mut receiver) = (Peer::new(WINDOW), Peer::new(WINDOW));
        let mut in_flight = 0;
        for round in 0..10 {
            while sender.spend_credit() {
                in_flight += 1;
            }
            assert_eq!(
                in_flight, WINDOW,
                "round {round}: the window bounds the flight"
            );
            // The receiver accepts them one by one, granting in half-window
            // batches; held + owed + in flight never exceeds the window.
            for _ in 0..WINDOW {
                in_flight -= 1;
                if let Some(g) = receiver.consume(WINDOW) {
                    assert_eq!(g, WINDOW / 2);
                    assert!(sender.grant(g) + in_flight <= WINDOW);
                }
            }
        }
        // A partition purges the frames that spent credits; healing
        // re-seeds the whole window and drops the mark.
        while sender.spend_credit() {}
        sender.partitioned = true;
        sender.heal(WINDOW);
        assert!(!sender.cut_off());
        assert_eq!(sender.grant(0), WINDOW);
    }
}
