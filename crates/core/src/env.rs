//! The NCS process environment: NCS_MPS over NCS_MTS (paper Figure 8).
//!
//! One [`NcsProc`] models one multithreaded NCS process. `init` (the
//! `NCS_init` of Figure 10) builds the MTS runtime and the **system
//! threads**; `t_create` adds user compute threads; `start` (`NCS_start`)
//! runs everything to completion.
//!
//! The paper's architecture is kept intact:
//!
//! * `NCS_send` / `NCS_recv` *"wake up the send and receive threads
//!   respectively and block the calling thread"* — only the calling
//!   user-level thread blocks, never the process;
//! * the **send thread** serializes outgoing transfers and spends its wire
//!   waits through an MTS-aware policy, so sibling compute threads run
//!   during transmission;
//! * the **receive thread** polls the transport (`messages_available`
//!   style) while siblings are runnable and parks in the kernel only when
//!   the process would otherwise idle;
//! * optional **flow control** (credit-based, Figure 5's per-application
//!   QOS choice) gates data sends in the send thread and returns credits
//!   from the receive thread.
//!
//! Message-class plumbing (signals, barriers, credits) shares the same two
//! system threads, which is exactly the modularity argument of Section 3.

use bytes::Bytes;
use ncs_mts::{Mts, MtsConfig, MtsCtx, MtsTid};
use ncs_net::crc::Crc32;
use ncs_net::stack::WaitPolicy;
use ncs_net::{Delivery, HostParams, Network, NodeId};
use ncs_sim::{
    ActorId, AnalysisConfig, Ctx, Dur, Sim, SimChannel, SimTime, SpanKind, TimerHandle,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Weak};

use crate::addr::{decode_tag, encode_tag, MsgClass, ThreadAddr};

/// Flow-control strategy (the `flow` argument of `NCS_init`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowControl {
    /// No NCS-level flow control: rely on the transport (what the paper's
    /// NCS_MTS/p4 measurements use — "the flow and error control provided
    /// by p4").
    None,
    /// Credit-based: a sender may have at most `window` unacknowledged data
    /// messages to any one destination; the receiver returns credits as it
    /// ingests.
    Credit {
        /// Per-destination message window.
        window: u32,
    },
}

/// Error-control strategy (the `error` argument of `NCS_init`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorControl {
    /// Trust the transport (TCP or ATM with AAL5 CRC).
    None,
    /// NCS-level checksum with retransmit-on-NACK, for transports modeled
    /// as corrupting (see [`crate::faulty::FaultyNet`]).
    ChecksumRetransmit,
}

/// Configuration for one NCS process (the arguments of `NCS_init` plus
/// scheduler and polling costs).
#[derive(Clone, Debug)]
pub struct NcsConfig {
    /// User-level scheduler parameters.
    pub mts: MtsConfig,
    /// Flow-control thread selection.
    pub flow: FlowControl,
    /// Error-control thread selection.
    pub error: ErrorControl,
    /// CPU cost of one receive-thread poll of the transport
    /// (`p4_messages_available`).
    pub poll_cost: Dur,
    /// Error control: adaptive retransmission-timeout parameters.
    pub rto: RtoConfig,
    /// Error control: give up (and raise a local delivery-failure
    /// exception, code [`EXC_DELIVERY_FAILED`]) after this many timeouts.
    /// Exhausting the budget also marks the destination **dead**: further
    /// sends to it fail fast with the same exception instead of hanging.
    pub max_retries: u32,
    /// Pipelined data path (the paper's Approach 2): number of I/O buffers
    /// the send thread may keep in flight per destination. A data message
    /// larger than [`NcsConfig::io_buffer_bytes`] is chunked into
    /// buffer-sized CS-PDUs; with checksum/retransmit error control active,
    /// at most this many chunks ride unacknowledged at once, and the send
    /// thread refills buffers as acknowledgments free them.
    pub io_buffers: u32,
    /// Size of one I/O buffer: the chunk granularity of the pipelined data
    /// path. Large messages are split at this boundary, which also keeps
    /// every CS-PDU under the AAL5 65 535-byte ceiling (a >64 KiB send used
    /// to die in the adaptation layer; now it is designed behavior).
    pub io_buffer_bytes: usize,
    /// Graceful degradation: at most this many retransmissions may sit in
    /// the send queue at once. A timer that fires while the queue is at the
    /// cap defers (backing the RTO off and counting `retx.backpressure`)
    /// instead of queueing — under sustained loss the retransmit backlog
    /// stays bounded rather than growing without limit.
    pub retx_queue_cap: usize,
    /// Receiver-side reclamation: a partial chunk-reassembly buffer that
    /// sees no new chunk for this long is dropped and its memory reclaimed
    /// (a crash-stopped sender must not leak receiver buffers forever).
    /// Must be set comfortably above the sender's give-up horizon
    /// (`max_retries` × max RTO): chunks are acknowledged individually, so
    /// reclaiming a transfer whose sender is still retrying would lose the
    /// already-acknowledged bytes silently. `None` (the default) disables
    /// reclamation.
    pub reassembly_timeout: Option<Dur>,
    /// Runtime analysis pass: deadlock / lost-wakeup detection in the
    /// scheduler plus protocol conservation checks (credits, sequence
    /// numbers, retry budgets) in the system threads. Off by default; an
    /// active config here is also installed into [`NcsConfig::mts`] (and
    /// the sim kernel) unless one was set there explicitly.
    pub analysis: AnalysisConfig,
}

/// Adaptive retransmission-timeout parameters (Jacobson's algorithm).
///
/// Error control keeps a per-destination smoothed RTT and variance from
/// acknowledged frames (`SRTT += (rtt − SRTT)/8`, `RTTVAR += (|rtt − SRTT|
/// − RTTVAR)/4`) and times out at `SRTT + 4·RTTVAR`, clamped to `[min,
/// max]`. Karn's rule: retransmitted frames never contribute samples, since
/// their ACKs are ambiguous. Each timeout doubles the timeout (exponential
/// backoff), still capped at `max`; a fresh sample resets the backoff.
#[derive(Clone, Copy, Debug)]
pub struct RtoConfig {
    /// Timeout used before the first RTT sample from a destination.
    pub initial: Dur,
    /// Floor for the computed timeout.
    pub min: Dur,
    /// Ceiling for the computed timeout, including backoff.
    pub max: Dur,
}

impl Default for RtoConfig {
    fn default() -> RtoConfig {
        RtoConfig {
            initial: Dur::from_millis(500),
            min: Dur::from_millis(10),
            max: Dur::from_secs(4),
        }
    }
}

impl RtoConfig {
    /// A config whose three parameters scale from one base timeout:
    /// `initial = base × 16` (= `max`), `min = base / 4`, `max = base ×
    /// 16`. Convenient for tests and experiments that used to set a single
    /// fixed timeout.
    ///
    /// The pre-sample timeout is deliberately the *ceiling*, not the base:
    /// until the first RTT measurement exists there is nothing to justify
    /// an aggressive timer, and an `initial` below the real path RTT
    /// guarantees a spurious retransmission of the very first frame (RFC
    /// 6298 makes the same call with its 1-second initial RTO). Jacobson's
    /// estimator pulls the timeout down as soon as the first ACK lands.
    pub fn from_base(base: Dur) -> RtoConfig {
        RtoConfig {
            initial: base.times(16),
            min: Dur::from_ps((base.as_ps() / 4).max(1)),
            max: base.times(16),
        }
    }
}

/// Exception code raised locally when error control exhausts its retries.
pub const EXC_DELIVERY_FAILED: u32 = 0xDEAD_5E0D;

impl Default for NcsConfig {
    fn default() -> NcsConfig {
        NcsConfig {
            mts: MtsConfig::default(),
            flow: FlowControl::None,
            error: ErrorControl::None,
            poll_cost: Dur::from_micros(10),
            rto: RtoConfig::default(),
            max_retries: 8,
            io_buffers: 4,
            io_buffer_bytes: 16 * 1024,
            retx_queue_cap: 256,
            reassembly_timeout: None,
            analysis: AnalysisConfig::off(),
        }
    }
}

/// A message delivered to an NCS thread.
#[derive(Clone, Debug)]
pub struct NcsMsg {
    /// Sending endpoint.
    pub from: ThreadAddr,
    /// Receiving thread (within this process).
    pub to_thread: u32,
    /// User tag.
    pub tag: u32,
    /// Payload.
    pub data: Bytes,
    class: MsgClass,
    /// Causal timeline id threaded from `NCS_send` to delivery (0 when the
    /// message is untracked: local delivery, control traffic).
    causal: u64,
}

impl NcsMsg {
    /// Causal timeline id assigned at `NCS_send` (0 = untracked). Look the
    /// per-layer stage marks up with [`ncs_sim::MetricsRegistry::timeline`].
    pub fn causal(&self) -> u64 {
        self.causal
    }
}

struct SendReq {
    from_thread: u32,
    to: ThreadAddr,
    class: MsgClass,
    user_tag: u32,
    data: Bytes,
    /// Transport tier index ([`NcsProc`] can carry several, e.g. NSM + HSM).
    tier: usize,
    /// Request-table slot to complete once the transfer is done (None for
    /// system-generated traffic like credits; the blocking `NCS_send`
    /// rides the same handle machinery via its post+wait wrapper).
    waiter: Option<u32>,
    /// Payload already carries the error-control header (a retransmission).
    prewrapped: bool,
    /// Error-control sequence number, set when the send thread wraps a
    /// first transmission — after the wire send it stamps `sent_at` on the
    /// matching [`UnackedMsg`] and arms the retransmission timer.
    seq: Option<u32>,
    /// Causal timeline id (0 = untracked). Chunks of one fragmented
    /// transfer all carry the logical message's id.
    causal: u64,
}

struct RecvReq {
    req_id: u64,
    to_thread: u32,
    class: MsgClass,
    from_proc: Option<usize>,
    from_thread: Option<u32>,
    user_tag: Option<u32>,
    waiter: RecvWaiter,
}

/// Completion target of a queued receive request. The legacy `Thread` form
/// (kept for [`NcsCtx::recv_timeout`], whose expiry path has no handle to
/// poll) deposits the message in a dedicated slot and wakes the waiter; the
/// `Handle` form completes a request-table slot like sends do.
enum RecvWaiter {
    Thread {
        tid: MtsTid,
        slot: Arc<Mutex<Option<NcsMsg>>>,
    },
    Handle(u32),
}

/// Generation-counted completion handle returned by [`NcsCtx::isend`] /
/// [`NcsCtx::irecv`] (the paper API's `NCS_isend`/`NCS_irecv` extension).
/// Copyable; the generation detects use of a handle whose request was
/// already consumed by `NCS_wait`/`NCS_waitany`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NcsRequest {
    slot: u32,
    gen: u32,
}

/// What a request-table slot is tracking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqKind {
    Send,
    Recv,
}

/// Lifecycle of a request-table slot. `Free` slots are recycled through
/// `MpsState::req_free`; the generation counter bumps on every release so
/// stale handles are detected instead of aliasing the new occupant.
enum ReqState {
    Free,
    Pending,
    Complete(Option<NcsMsg>),
}

/// One entry of the per-process request table backing the completion-based
/// async API.
struct ReqSlot {
    gen: u32,
    kind: ReqKind,
    state: ReqState,
    /// User thread parked in `wait`/`waitany` on this handle, woken at
    /// completion. At most one waiter per live handle.
    parked: Option<MtsTid>,
    /// Logical user thread that posted the request (leak reports).
    owner: u32,
    /// Causal id of the request's own `posted -> progressed -> completed`
    /// timeline. 0 for the blocking wrappers, which must not touch the
    /// metrics registry (the no-async golden trace stays byte-identical).
    req_causal: u64,
    /// Whether `progressed` was already stamped (the mark must not move).
    progressed: bool,
}

struct MpsState {
    send_q: VecDeque<SendReq>,
    recv_reqs: Vec<RecvReq>,
    stash: VecDeque<NcsMsg>,
    /// Remaining send credits per destination (credit flow control).
    credits: BTreeMap<usize, u32>,
    /// Data messages ingested per source since the last credit grant.
    consumed: BTreeMap<usize, u32>,
    /// The send thread is parked waiting for credits to this destination.
    send_waiting_credit: Option<usize>,
    /// The send thread is parked waiting for an acknowledgment to free an
    /// I/O buffer toward this destination (pipelined chunked transfer).
    send_waiting_ack: Option<usize>,
    shutdown: bool,
    user_live: usize,
    /// Statistics: data messages sent / received.
    sent_msgs: u64,
    recv_msgs: u64,
    /// High-water mark of buffered-but-unconsumed messages (the stash).
    peak_stash: usize,
    /// Error control: next sequence number per destination (wraps at u32).
    next_seq: BTreeMap<usize, u32>,
    /// Error control: total sequence numbers ever allocated per
    /// destination — `next_seq` alone is ambiguous once it wraps.
    seqs_allocated: BTreeMap<usize, u64>,
    /// Chunked-transfer id allocator (pipelined data path).
    next_xfer_id: u32,
    /// Partially reassembled chunked transfers, keyed by (source process,
    /// transfer id).
    reassembly: BTreeMap<(usize, u32), FragAsm>,
    /// Error control: sent-but-unacknowledged wrapped payloads, keyed by
    /// (destination process, sequence number).
    unacked: BTreeMap<(usize, u32), UnackedMsg>,
    /// Statistics: retransmissions performed.
    retransmits: u64,
    /// Receive-request id allocator.
    next_req_id: u64,
    /// Error control: wrap-aware per-source record of delivered sequence
    /// numbers — a retransmitted frame whose ACK was lost must not be
    /// delivered twice, including across u32 wrap-around.
    seen_seqs: BTreeMap<usize, SeqWindow>,
    /// Error control: per-destination RTT estimator driving the adaptive
    /// retransmission timeout.
    rtt: BTreeMap<usize, RttEstimator>,
    /// Destinations whose retry budget was exhausted: sends to them fail
    /// fast with [`EXC_DELIVERY_FAILED`] instead of queueing.
    dead_peers: BTreeSet<usize>,
    /// Destinations behind a detected partition (every link on the route
    /// down): sends fail fast like `dead_peers`, but the mark is dropped —
    /// and the credit window re-seeded — the moment a fresh send finds the
    /// route up again (recovery after a flap window ends).
    partitioned_peers: BTreeSet<usize>,
    /// One loss-recovery timer per destination with frames in flight,
    /// timing the *oldest* unacknowledged frame (TCP-style). Restarted on
    /// partial acknowledgment, retracted when the last frame is acked.
    retx_timers: BTreeMap<usize, RetxTimer>,
    /// Monotonic allocator for [`RetxTimer::epoch`].
    timer_epoch: u64,
    /// Statistics: timeout-driven backoff doublings.
    backoff_events: u64,
    /// Statistics: clean RTT samples folded into an estimator.
    rtt_samples: u64,
    /// Statistics: frames abandoned after the retry budget.
    delivery_failures: u64,
    /// Statistics: duplicate frames re-ACKed but not delivered (the
    /// retransmitted-frame-whose-ACK-was-lost case).
    dup_suppressed: u64,
    /// Statistics: checked frames too short to carry the error-control
    /// header, dropped without a NACK.
    malformed_frames: u64,
    /// Statistics: data messages that went out chunked through the
    /// I/O-buffer pool.
    fragmented_msgs: u64,
    /// Statistics: chunks transmitted (first transmissions only).
    fragments_sent: u64,
    /// Statistics: chunked transfers reassembled to completion.
    reassembled_msgs: u64,
    /// Statistics: acknowledgments that arrived for frames already
    /// retransmitted — each one means the (re)transmission may have been
    /// unnecessary (`retx.spurious`).
    spurious_retx: u64,
    /// Statistics: partition fail-fast events (`rto.partition_failfast`).
    partition_failfasts: u64,
    /// Statistics: retransmissions deferred by the bounded queue
    /// (`retx.backpressure`).
    retx_deferred: u64,
    /// Statistics: partial reassembly buffers reclaimed by timeout
    /// (`reasm.reclaimed`).
    reassembly_reclaimed: u64,
    /// Request table backing the completion-based async API (and the
    /// blocking wrappers over it). Indexed by [`NcsRequest::slot`].
    req_slots: Vec<ReqSlot>,
    /// Free-list of reusable request-table slots.
    req_free: Vec<u32>,
    /// Per-process completion queue: `(slot, gen)` pushed at completion,
    /// removed when `wait`/`waitany` consumes the handle. Conservation
    /// (every completion consumed exactly once) is checked at shutdown.
    completions: VecDeque<(u32, u32)>,
    /// Statistics: requests posted through the request table.
    reqs_posted: u64,
    /// Statistics: requests consumed by `wait`/`waitany`.
    reqs_consumed: u64,
}

/// One armed per-destination loss-recovery timer.
struct RetxTimer {
    handle: TimerHandle,
    /// Guards against a stale firing racing a restart: a fired callback
    /// whose epoch no longer matches the armed timer's is ignored.
    epoch: u64,
}

/// Serial-number comparison (RFC 1982 style): is `a` strictly ahead of `b`
/// on the wrapping u32 circle?
fn seq_after(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000_0000
}

/// Wrap-aware duplicate detector for one source's delivered sequence
/// numbers. Tracks the high-water mark `hi` plus the exact set of seqs seen
/// within [`SeqWindow::DEPTH`] behind it; anything older than the window is
/// treated as a duplicate (a retransmission can only lag by the in-flight
/// window, which is orders of magnitude smaller than `DEPTH`).
#[derive(Default)]
struct SeqWindow {
    hi: u32,
    started: bool,
    recent: BTreeSet<u32>,
}

impl SeqWindow {
    /// How far behind the high-water mark a frame may arrive and still be
    /// judged on exact membership. Far larger than any credit or I/O-buffer
    /// window, far smaller than the wrap distance.
    const DEPTH: u32 = 4096;

    /// Records `seq` as delivered; returns `true` if it was already seen
    /// (or is too stale to be anything but a replay).
    fn observe(&mut self, seq: u32) -> bool {
        if !self.started {
            self.started = true;
            self.hi = seq;
            self.recent.insert(seq);
            return false;
        }
        if seq_after(seq, self.hi) {
            self.hi = seq;
            self.recent.insert(seq);
            let hi = self.hi;
            self.recent
                .retain(|&s| hi.wrapping_sub(s) < Self::DEPTH);
            return false;
        }
        if self.hi.wrapping_sub(seq) < Self::DEPTH {
            // Within the exact window (includes seq == hi).
            !self.recent.insert(seq)
        } else {
            // Older than anything we still track: a stale replay.
            true
        }
    }
}

/// One chunk-reassembly buffer (receive side of the pipelined data path).
struct FragAsm {
    total: u32,
    parts: Vec<Option<Bytes>>,
    have: u32,
    /// When the last chunk was accepted (drives timeout reclamation).
    last_progress: SimTime,
    /// The armed reclamation timer, if [`NcsConfig::reassembly_timeout`]
    /// is set; retracted when the transfer completes.
    reaper: Option<TimerHandle>,
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

struct UnackedMsg {
    to: ThreadAddr,
    from_thread: u32,
    user_tag: u32,
    tier: usize,
    /// Wire class of the frame ([`MsgClass::Data`] or [`MsgClass::Frag`]):
    /// a retransmitted chunk must still be routed into reassembly.
    class: MsgClass,
    wrapped: Bytes,
    /// Timeout-driven retransmissions so far.
    retries: u32,
    /// When the frame first hit the wire (None until transmitted).
    sent_at: Option<SimTime>,
    /// The frame has been retransmitted at least once; Karn's rule bars
    /// its ACK from RTT sampling (the echo is ambiguous).
    retransmitted: bool,
}

struct UserThread {
    mts_tid: MtsTid,
    name: String,
}

struct ProcInner {
    id: usize,
    n: usize,
    sim: Sim,
    mts: Mts,
    cfg: NcsConfig,
    nets: Vec<Arc<dyn Network>>,
    merged: SimChannel<(usize, Delivery)>,
    state: Mutex<MpsState>,
    sys: Mutex<SysThreads>,
    users: Mutex<Vec<UserThread>>,
    /// Exception handler invoked (on the receive system thread) for
    /// incoming Exception-class messages.
    exception_handler: Mutex<Option<ExceptionHandler>>,
    /// Exceptions received before a handler was installed, or kept for
    /// polling-style consumers.
    pending_exceptions: Mutex<Vec<NcsException>>,
    /// Collective termination barrier shared by all processes of one
    /// [`crate::NcsWorld`]; `None` for a standalone process, which tears
    /// down at local quiescence as before.
    term: Option<Arc<TermBarrier>>,
}

/// Callback invoked for incoming exceptions.
pub type ExceptionHandler = Box<dyn Fn(&NcsException) + Send + 'static>;

/// Error-control statistics for one process (the FaultStats surface of the
/// reliability layer): aggregate counters plus the current per-destination
/// RTO trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ErrorStats {
    /// Frames retransmitted (timeout- and NACK-driven).
    pub retransmits: u64,
    /// Timeout events that doubled a destination's RTO.
    pub backoff_events: u64,
    /// Clean RTT samples folded into an estimator (Karn-filtered).
    pub rtt_samples: u64,
    /// Frames abandoned after exhausting the retry budget.
    pub delivery_failures: u64,
    /// Duplicate frames re-ACKed but not delivered (retransmissions whose
    /// original already arrived — i.e. the ACK, not the data, was lost).
    pub duplicates_suppressed: u64,
    /// Checked frames shorter than the error-control header: dropped
    /// without a NACK (there is no sequence number to name), left to the
    /// sender's RTO.
    pub malformed_frames: u64,
    /// Acknowledgments that arrived for frames already retransmitted
    /// (each marks a possibly-unnecessary retransmission; the
    /// `retx.spurious` counter).
    pub spurious_retransmits: u64,
    /// Partition fail-fast events: a loss-recovery timer found every route
    /// to the peer down and failed its outstanding frames immediately
    /// (the `rto.partition_failfast` counter).
    pub partition_failfasts: u64,
    /// Retransmissions deferred by the bounded retransmit queue
    /// (the `retx.backpressure` counter).
    pub retx_deferred: u64,
    /// Partial reassembly buffers reclaimed by timeout
    /// (the `reasm.reclaimed` counter).
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

/// Delivers an exception to the local handler, or buffers it for later.
fn raise_local_exception(inner: &ProcInner, exc: NcsException) {
    let handled = {
        let h = inner.exception_handler.lock();
        if let Some(h) = h.as_ref() {
            h(&exc);
            true
        } else {
            false
        }
    };
    if !handled {
        inner.pending_exceptions.lock().push(exc);
    }
}

/// A cross-process exception notification (the paper's exception-handling
/// service class).
#[derive(Clone, Debug)]
pub struct NcsException {
    /// Raising endpoint.
    pub from: ThreadAddr,
    /// Application-defined code.
    pub code: u32,
    /// Free-form detail bytes.
    pub detail: Bytes,
}

#[derive(Default)]
struct SysThreads {
    send: Option<MtsTid>,
    recv: Option<MtsTid>,
}

/// Collective-termination barrier: `NCS_end` is a collective operation, so
/// a process that is locally quiescent (user threads done, every outgoing
/// frame acknowledged or abandoned) must not tear down its receive
/// machinery while a peer may still be retransmitting a frame whose
/// acknowledgment was lost on the wire — the sender would burn its whole
/// retry budget against a deaf host and spuriously declare it dead. Each
/// process instead signals quiescence here and lingers, re-ACKing
/// duplicates; only when the whole world is quiescent (no frame anywhere
/// is outstanding, so no retransmission can ever arrive again) are the
/// merged channels closed and the lingering system threads released. The
/// message-passing analogue of TCP's TIME-WAIT, with the world-wide
/// quiescence fact standing in for the 2·MSL clock.
pub(crate) struct TermBarrier {
    state: Mutex<TermState>,
}

struct TermState {
    /// Which processes have signalled local quiescence (idempotence: a
    /// process re-signals when a late duplicate re-empties its tables).
    ready: Vec<bool>,
    /// Processes still running.
    remaining: usize,
    /// Weak backrefs used to release every process once the last one
    /// arrives (weak: the barrier must not keep a dropped world alive).
    procs: Vec<Weak<ProcInner>>,
    complete: bool,
}

impl TermBarrier {
    pub(crate) fn new(n: usize) -> Arc<TermBarrier> {
        Arc::new(TermBarrier {
            state: Mutex::new(TermState {
                ready: vec![false; n],
                remaining: n,
                procs: Vec::with_capacity(n),
                complete: false,
            }),
        })
    }

    fn register(&self, inner: &Arc<ProcInner>) {
        self.state.lock().procs.push(Arc::downgrade(inner));
    }

    fn complete(&self) -> bool {
        self.state.lock().complete
    }

    /// Marks process `id` locally quiescent. The last arrival closes every
    /// process's merged channel (ending the receive threads' kernel waits)
    /// and wakes every send thread so it can observe completion and exit.
    fn proc_ready(&self, id: usize) {
        let released = {
            let mut st = self.state.lock();
            if st.complete || st.ready[id] {
                return;
            }
            st.ready[id] = true;
            st.remaining -= 1;
            if st.remaining > 0 {
                return;
            }
            st.complete = true;
            std::mem::take(&mut st.procs)
        };
        for w in released {
            let Some(p) = w.upgrade() else { continue };
            p.merged.close(&p.sim);
            let send = p.sys.lock().send;
            if let Some(tid) = send {
                p.mts.unblock(&p.sim, tid);
            }
        }
    }
}

/// The process has just become locally quiescent (shutdown requested and
/// no outstanding unacknowledged frame). Standalone processes tear down
/// immediately; collective ones linger at the termination barrier.
fn signal_quiescent(inner: &Arc<ProcInner>) {
    match &inner.term {
        None => inner.merged.close(&inner.sim),
        Some(t) => t.proc_ready(inner.id),
    }
}

/// Whether a system thread may exit: the process is locally quiescent
/// and, when part of a collective, the whole world is too.
fn may_teardown(inner: &ProcInner, st: &MpsState) -> bool {
    st.shutdown
        && st.unacked.is_empty()
        && inner.term.as_ref().is_none_or(|t| t.complete())
}

/// Handle to one NCS process.
#[derive(Clone)]
pub struct NcsProc {
    inner: Arc<ProcInner>,
}

/// MTS priority of the send system thread (highest: transfers start
/// promptly once the CPU is free).
pub const SEND_THREAD_PRIORITY: usize = 0;
/// MTS priority of the receive system thread (lowest: it polls only when
/// no user thread can run).
pub const RECV_THREAD_PRIORITY: usize = ncs_mts::PRIORITY_LEVELS - 1;

impl NcsProc {
    /// `NCS_init`: builds the MTS runtime and system threads for process
    /// `id` of `n`, attached to one or more transport tiers (`nets[0]` is
    /// the default tier; a second entry typically carries the other of
    /// NSM/HSM).
    pub fn init(
        sim: &Sim,
        id: usize,
        n: usize,
        nets: Vec<Arc<dyn Network>>,
        cfg: NcsConfig,
    ) -> NcsProc {
        Self::init_inner(sim, id, n, nets, cfg, None)
    }

    /// `NCS_init` for a process belonging to a collective computation:
    /// identical to [`NcsProc::init`], except the process lingers at the
    /// shared [`TermBarrier`] after local quiescence so late
    /// retransmissions from slower peers still find a live receiver.
    pub(crate) fn init_collective(
        sim: &Sim,
        id: usize,
        n: usize,
        nets: Vec<Arc<dyn Network>>,
        cfg: NcsConfig,
        term: &Arc<TermBarrier>,
    ) -> NcsProc {
        Self::init_inner(sim, id, n, nets, cfg, Some(Arc::clone(term)))
    }

    fn init_inner(
        sim: &Sim,
        id: usize,
        n: usize,
        nets: Vec<Arc<dyn Network>>,
        cfg: NcsConfig,
        term: Option<Arc<TermBarrier>>,
    ) -> NcsProc {
        assert!(!nets.is_empty(), "need at least one transport tier");
        for net in &nets {
            assert!(n <= net.nodes(), "more processes than testbed nodes");
        }
        assert!(id < n);
        let mut mts_cfg = cfg.mts.clone();
        if cfg.analysis.active() && !mts_cfg.analysis.active() {
            mts_cfg.analysis = cfg.analysis.clone();
        }
        let mts = Mts::new(sim, format!("proc{id}"), mts_cfg);
        let merged = SimChannel::unbounded(format!("ncs-merged-{id}"));
        let inner = Arc::new(ProcInner {
            id,
            n,
            sim: sim.clone(),
            mts,
            cfg,
            nets,
            merged,
            state: Mutex::new(MpsState {
                send_q: VecDeque::new(),
                recv_reqs: Vec::new(),
                stash: VecDeque::new(),
                credits: BTreeMap::new(),
                consumed: BTreeMap::new(),
                send_waiting_credit: None,
                send_waiting_ack: None,
                shutdown: false,
                user_live: 0,
                sent_msgs: 0,
                recv_msgs: 0,
                peak_stash: 0,
                next_seq: BTreeMap::new(),
                seqs_allocated: BTreeMap::new(),
                next_xfer_id: 0,
                reassembly: BTreeMap::new(),
                unacked: BTreeMap::new(),
                retransmits: 0,
                next_req_id: 0,
                seen_seqs: BTreeMap::new(),
                rtt: BTreeMap::new(),
                dead_peers: BTreeSet::new(),
                partitioned_peers: BTreeSet::new(),
                retx_timers: BTreeMap::new(),
                timer_epoch: 0,
                backoff_events: 0,
                rtt_samples: 0,
                delivery_failures: 0,
                dup_suppressed: 0,
                malformed_frames: 0,
                fragmented_msgs: 0,
                fragments_sent: 0,
                reassembled_msgs: 0,
                spurious_retx: 0,
                partition_failfasts: 0,
                retx_deferred: 0,
                reassembly_reclaimed: 0,
                req_slots: Vec::new(),
                req_free: Vec::new(),
                completions: VecDeque::new(),
                reqs_posted: 0,
                reqs_consumed: 0,
            }),
            sys: Mutex::new(SysThreads::default()),
            users: Mutex::new(Vec::new()),
            exception_handler: Mutex::new(None),
            pending_exceptions: Mutex::new(Vec::new()),
            term,
        });
        if let Some(t) = &inner.term {
            t.register(&inner);
        }
        let proc_ = NcsProc { inner };
        proc_.spawn_forwarders();
        proc_.spawn_system_threads();
        proc_.seed_credits();
        proc_
    }

    /// Forwarder daemons merge all transport inboxes into one channel so a
    /// single receive thread can wait on "any tier" (pure plumbing: no
    /// virtual time cost; the real pickup cost is charged by the receive
    /// thread).
    fn spawn_forwarders(&self) {
        for (tier, net) in self.inner.nets.iter().enumerate() {
            let inbox = net.inbox(NodeId(self.inner.id as u32));
            let merged = self.inner.merged.clone();
            self.inner
                .sim
                .spawn_daemon(format!("proc{}-fwd{}", self.inner.id, tier), move |ctx| {
                    while let Ok(d) = inbox.recv(ctx) {
                        if merged.offer(ctx.sim(), (tier, d)).is_err() {
                            break; // process shut down
                        }
                    }
                });
        }
    }

    fn spawn_system_threads(&self) {
        let send_inner = Arc::clone(&self.inner);
        let send_tid = self
            .inner
            .mts
            .spawn("ncs-send", SEND_THREAD_PRIORITY, move |m| {
                send_thread_body(&send_inner, m);
            });
        let recv_inner = Arc::clone(&self.inner);
        let recv_tid = self
            .inner
            .mts
            .spawn("ncs-recv", RECV_THREAD_PRIORITY, move |m| {
                recv_thread_body(&recv_inner, m);
            });
        let mut sys = self.inner.sys.lock();
        sys.send = Some(send_tid);
        sys.recv = Some(recv_tid);
    }

    fn seed_credits(&self) {
        if let FlowControl::Credit { window } = self.inner.cfg.flow {
            let mut st = self.inner.state.lock();
            for p in 0..self.inner.n {
                if p != self.inner.id {
                    st.credits.insert(p, window);
                }
            }
        }
    }

    /// `NCS_t_create`: creates a user compute thread. Returns its logical
    /// thread id (0 for the first created thread, matching the paper's
    /// THREAD1/THREAD2 numbering shifted to 0-based).
    pub fn t_create(
        &self,
        name: impl Into<String>,
        priority: usize,
        body: impl FnOnce(&NcsCtx) + Send + 'static,
    ) -> u32 {
        assert!(
            priority > SEND_THREAD_PRIORITY && priority < RECV_THREAD_PRIORITY,
            "user priorities must lie strictly between the system threads'"
        );
        let name = name.into();
        let logical = {
            let users = self.inner.users.lock();
            users.len() as u32
        };
        self.inner.state.lock().user_live += 1;
        let proc_ = self.clone();
        let mts_tid = self.inner.mts.spawn(name.clone(), priority, move |m| {
            let nctx = NcsCtx {
                proc: proc_.clone(),
                mctx: m,
                thread: logical,
                actor: m.mts().actor_id(m.tid()),
            };
            body(&nctx);
            proc_.user_thread_done();
        });
        self.inner.users.lock().push(UserThread { mts_tid, name });
        logical
    }

    /// `NCS_start`: runs threads to completion. Blocks the calling green
    /// thread (the process "main") until all user threads exit and the
    /// system threads wind down.
    pub fn start(&self, ctx: &Ctx) {
        {
            // A process with no user threads shuts down immediately.
            let st = self.inner.state.lock();
            if st.user_live == 0 {
                drop(st);
                self.begin_shutdown();
            }
        }
        self.inner.mts.start(ctx);
    }

    fn user_thread_done(&self) {
        let last = {
            let mut st = self.inner.state.lock();
            st.user_live -= 1;
            st.user_live == 0
        };
        if last {
            self.begin_shutdown();
        }
    }

    fn begin_shutdown(&self) {
        let can_close = {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
            st.unacked.is_empty()
        };
        // Wake the send thread so it can drain and exit; signal quiescence
        // so the receive thread's kernel wait can end. With error control
        // active, the signal waits for the last acknowledgment (see
        // `ingest`), since retransmissions may still be needed; in a
        // collective world the process additionally lingers at the
        // termination barrier until *every* peer is quiescent (TIME-WAIT).
        let send = self.inner.sys.lock().send;
        if let Some(tid) = send {
            self.inner.mts.unblock(&self.inner.sim, tid);
        }
        if can_close {
            signal_quiescent(&self.inner);
        }
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Number of processes in the computation.
    pub fn num_procs(&self) -> usize {
        self.inner.n
    }

    /// The host model this process runs on (tier 0).
    pub fn host(&self) -> &HostParams {
        self.inner.nets[0].host(NodeId(self.inner.id as u32))
    }

    /// The MTS runtime (for stats and advanced use).
    pub fn mts(&self) -> &Mts {
        &self.inner.mts
    }

    /// Data messages sent and received so far.
    pub fn msg_counts(&self) -> (u64, u64) {
        let st = self.inner.state.lock();
        (st.sent_msgs, st.recv_msgs)
    }

    /// Completion-handle accounting: requests posted and consumed so far
    /// (the blocking wrappers post too, so these move even without any
    /// `NCS_isend`/`NCS_irecv`), plus how many completions currently sit
    /// unredeemed in the completion queue.
    pub fn request_counts(&self) -> (u64, u64, usize) {
        let st = self.inner.state.lock();
        (st.reqs_posted, st.reqs_consumed, st.completions.len())
    }

    /// Error-control retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.inner.state.lock().retransmits
    }

    /// Full error-control statistics: retransmit/backoff/sample counters
    /// and the per-destination SRTT/RTTVAR/RTO trajectory.
    pub fn error_stats(&self) -> ErrorStats {
        let st = self.inner.state.lock();
        let mut dead: Vec<usize> = st.dead_peers.iter().copied().collect();
        dead.sort_unstable();
        let mut peers: Vec<PeerRto> = st
            .rtt
            .iter()
            .map(|(&peer, e)| PeerRto {
                peer,
                srtt: Dur::from_ps(e.srtt_ps),
                rttvar: Dur::from_ps(e.rttvar_ps),
                rto: e.rto(&self.inner.cfg.rto),
            })
            .collect();
        peers.sort_unstable_by_key(|p| p.peer);
        ErrorStats {
            retransmits: st.retransmits,
            backoff_events: st.backoff_events,
            rtt_samples: st.rtt_samples,
            delivery_failures: st.delivery_failures,
            duplicates_suppressed: st.dup_suppressed,
            malformed_frames: st.malformed_frames,
            spurious_retransmits: st.spurious_retx,
            partition_failfasts: st.partition_failfasts,
            retx_deferred: st.retx_deferred,
            reassembly_reclaimed: st.reassembly_reclaimed,
            dead_peers: dead,
            peers,
        }
    }

    /// Whether error control has declared `peer` dead (sends fail fast).
    pub fn is_peer_dead(&self, peer: usize) -> bool {
        self.inner.state.lock().dead_peers.contains(&peer)
    }

    /// Whether error control currently holds `peer` behind a detected
    /// partition (fail-fast, but recoverable: the mark drops as soon as a
    /// fresh send finds the route up again).
    pub fn is_peer_partitioned(&self, peer: usize) -> bool {
        self.inner.state.lock().partitioned_peers.contains(&peer)
    }

    /// Partial chunk-reassembly buffers currently held (receive side of
    /// the pipelined data path) — zero after a clean run, and zero again
    /// after timeout reclamation of a crash-stopped sender's leftovers.
    pub fn reassembly_backlog(&self) -> usize {
        self.inner.state.lock().reassembly.len()
    }

    /// High-water mark of messages buffered in this process awaiting a
    /// matching receive (the flow-control ablation's figure of merit).
    pub fn peak_buffered(&self) -> usize {
        self.inner.state.lock().peak_stash
    }

    /// Pipelined-data-path counters: `(messages chunked, chunks sent,
    /// messages reassembled)` — sender-side fragmentation and receiver-side
    /// completion statistics for the I/O-buffer pool.
    pub fn pipeline_stats(&self) -> (u64, u64, u64) {
        let st = self.inner.state.lock();
        (st.fragmented_msgs, st.fragments_sent, st.reassembled_msgs)
    }

    /// Test hook: seeds the error-control sequence counter toward `dst`,
    /// so wrap-around behavior can be exercised without 2^32 sends.
    #[doc(hidden)]
    pub fn debug_seed_next_seq(&self, dst: usize, seq: u32) {
        self.inner.state.lock().next_seq.insert(dst, seq);
    }

    /// Looks up the MTS tid of logical user thread `t`.
    fn user_mts_tid(&self, t: u32) -> MtsTid {
        self.inner.users.lock()[t as usize].mts_tid
    }

    /// Name of logical user thread `t`.
    pub fn thread_name(&self, t: u32) -> String {
        self.inner.users.lock()[t as usize].name.clone()
    }

    /// Installs the exception handler (the paper's exception-handling
    /// service). Runs on the receive system thread for each incoming
    /// exception; previously buffered exceptions are delivered immediately.
    pub fn on_exception(&self, handler: impl Fn(&NcsException) + Send + 'static) {
        let backlog = {
            let mut h = self.inner.exception_handler.lock();
            *h = Some(Box::new(handler));
            std::mem::take(&mut *self.inner.pending_exceptions.lock())
        };
        if let Some(h) = self.inner.exception_handler.lock().as_ref() {
            for e in &backlog {
                h(e);
            }
        }
    }

    /// Exceptions received so far with no handler installed.
    pub fn pending_exceptions(&self) -> Vec<NcsException> {
        self.inner.pending_exceptions.lock().clone()
    }

    /// Delivers a same-process message directly (threads share the address
    /// space, so "the B matrix is sent to a particular node only once").
    fn deliver_local(&self, msg: NcsMsg) {
        if msg.class == MsgClass::Exception {
            raise_local_exception(
                &self.inner,
                NcsException {
                    from: msg.from,
                    code: msg.tag,
                    detail: msg.data,
                },
            );
            return;
        }
        let mut st = self.inner.state.lock();
        st.stash.push_back(msg);
        st.peak_stash = st.peak_stash.max(st.stash.len());
        match_requests(&self.inner, &mut st);
    }
}

/// Per-thread API handle (what the paper's primitives take implicitly from
/// the calling thread's identity).
pub struct NcsCtx<'a> {
    proc: NcsProc,
    mctx: &'a MtsCtx<'a>,
    thread: u32,
    actor: ActorId,
}

/// MTS-aware wait policy: wire waits block only the calling (system)
/// thread, letting sibling compute threads use the CPU — the heart of the
/// paper's computation/communication overlap.
struct MtsWait<'a, 'b>(&'a MtsCtx<'b>);

impl WaitPolicy for MtsWait<'_, '_> {
    fn wait(&self, _ctx: &Ctx, d: Dur) {
        self.0.sleep(d);
    }
}

impl NcsCtx<'_> {
    /// This thread's address.
    pub fn my_addr(&self) -> ThreadAddr {
        ThreadAddr::new(self.proc.id(), self.thread)
    }

    /// This thread's logical id.
    pub fn thread_id(&self) -> u32 {
        self.thread
    }

    /// The owning process.
    pub fn proc(&self) -> &NcsProc {
        &self.proc
    }

    /// The MTS thread context.
    pub fn mctx(&self) -> &MtsCtx<'_> {
        self.mctx
    }

    /// Raw simulation context.
    pub fn ctx(&self) -> &Ctx {
        self.mctx.ctx()
    }

    /// Charges `cycles` of computation to this thread (CPU held) and
    /// records a compute span for the timeline figures.
    pub fn compute(&self, cycles: u64, label: &'static str) {
        let t0 = self.ctx().now();
        self.proc.host().compute(self.ctx(), cycles);
        let t1 = self.ctx().now();
        self.proc.inner.sim.with_spans(|tr| {
            tr.span_on(self.actor, SpanKind::Compute, label, t0, t1);
        });
    }

    /// `NCS_send`: transfers `data` to thread `to.thread` of process
    /// `to.proc`. Blocks only this thread; the send system thread performs
    /// the transfer.
    pub fn send(&self, to: ThreadAddr, tag: u32, data: Bytes) {
        self.send_class(MsgClass::Data, to, tag, data, 0);
    }

    /// `NCS_send` on an explicit transport tier (NSM vs HSM selection).
    pub fn send_via(&self, tier: usize, to: ThreadAddr, tag: u32, data: Bytes) {
        self.send_class(MsgClass::Data, to, tag, data, tier);
    }

    fn send_class(&self, class: MsgClass, to: ThreadAddr, tag: u32, data: Bytes, tier: usize) {
        let t0 = self.ctx().now();
        // Remote data messages get a causal timeline: every layer stamps
        // its hand-off so the end-to-end latency decomposes per stage.
        let causal = self.message_causal(class, to, t0);
        // Blocking send is the async pair with zero daylight between post
        // and wait: the post enqueues the transfer and wakes the send
        // system thread, the wait parks this thread on the completion —
        // exactly the event sequence the one-piece implementation had, so
        // the kernel trace stays byte-identical. `req_causal = 0` keeps the
        // request itself off the metrics timelines.
        let h = self.post_send(class, to, tag, data, tier, causal, 0);
        let _ = self.wait_inner(h);
        let t1 = self.ctx().now();
        self.proc.inner.sim.with_spans(|tr| {
            tr.span_full(self.actor, SpanKind::Comm, "send", t0, t1, None, causal);
        });
    }

    /// Allocates the per-message causal timeline id (remote data messages
    /// only) and stamps its `enqueued` origin.
    fn message_causal(&self, class: MsgClass, to: ThreadAddr, t0: SimTime) -> u64 {
        if class == MsgClass::Data && to.proc != self.proc.id() {
            self.proc.inner.sim.with_metrics(|mm| {
                let c = mm.next_causal();
                mm.mark(c, "enqueued", t0);
                c
            })
        } else {
            0
        }
    }

    /// Allocates a *request* causal timeline (separate from the message's)
    /// and stamps `posted`. Only the nonblocking entry points call this;
    /// blocking wrappers pass `req_causal = 0` so their metrics output is
    /// unchanged.
    fn request_causal(&self, t0: SimTime) -> u64 {
        self.proc.inner.sim.with_metrics(|mm| {
            let c = mm.next_causal();
            mm.mark(c, "posted", t0);
            c
        })
    }

    /// Posts a send without waiting: returns a request handle whose
    /// completion the send system thread will signal. Local and dead-peer
    /// sends complete immediately (the handle is born completed).
    #[allow(clippy::too_many_arguments)]
    fn post_send(
        &self,
        class: MsgClass,
        to: ThreadAddr,
        tag: u32,
        data: Bytes,
        tier: usize,
        causal: u64,
        req_causal: u64,
    ) -> NcsRequest {
        assert!(to.proc < self.proc.num_procs(), "destination out of range");
        assert!(tier < self.proc.inner.nets.len(), "no such transport tier");
        if to.proc == self.proc.id() {
            // Local delivery: one copy at memory speed, no wire. The copy
            // charges the *posting* thread — there is nothing to overlap.
            let h = self.proc.host();
            let words = data.len().div_ceil(4) as u64;
            self.ctx().sleep(h.bus_access.times(words.max(1)));
            if class == MsgClass::Data {
                self.proc.inner.state.lock().sent_msgs += 1;
            }
            self.proc.deliver_local(NcsMsg {
                from: self.my_addr(),
                to_thread: to.thread,
                tag,
                data,
                class,
                causal: 0,
            });
            return self.immediate_request(ReqKind::Send, req_causal, None);
        }
        // One visit to the process state: the dead-peer check and, when the
        // peer is alive, the request slot plus its place in the send queue.
        let mut st = self.proc.inner.state.lock();
        if st.dead_peers.contains(&to.proc) {
            drop(st);
            // Error control exhausted its retries on this destination:
            // fail fast with the delivery-failure exception instead of
            // queueing a transfer that can never complete.
            raise_local_exception(
                &self.proc.inner,
                NcsException {
                    from: to,
                    code: EXC_DELIVERY_FAILED,
                    detail: Bytes::from(tag.to_le_bytes().to_vec()),
                },
            );
            return self.immediate_request(ReqKind::Send, req_causal, None);
        }
        let h = alloc_request(&mut st, ReqKind::Send, self.thread, req_causal);
        st.send_q.push_back(SendReq {
            from_thread: self.thread,
            to,
            class,
            user_tag: tag,
            data,
            tier,
            waiter: Some(h.slot),
            prewrapped: false,
            seq: None,
            causal,
        });
        drop(st);
        let send_tid = self
            .proc
            .inner
            .sys
            .lock()
            .send
            .expect("send thread missing");
        self.mctx.unblock(send_tid);
        h
    }

    /// Posts a receive without waiting: a stash hit completes the handle on
    /// the spot; a miss queues a handle-carrying request for the receive
    /// system thread's matcher.
    fn post_recv(
        &self,
        class: MsgClass,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
        req_causal: u64,
    ) -> NcsRequest {
        let now = self.ctx().now();
        let mut st = self.proc.inner.state.lock();
        let h = alloc_request(&mut st, ReqKind::Recv, self.thread, req_causal);
        match take_from_stash(
            &mut st.stash,
            self.thread,
            class,
            from_proc,
            from_thread,
            tag,
        ) {
            Some(m) => {
                let parked =
                    complete_slot(&self.proc.inner, &mut st, h.slot, Some(m), now);
                debug_assert!(parked.is_none(), "fresh request already had a waiter");
            }
            None => {
                let req_id = st.next_req_id;
                st.next_req_id += 1;
                st.recv_reqs.push(RecvReq {
                    req_id,
                    to_thread: self.thread,
                    class,
                    from_proc,
                    from_thread,
                    user_tag: tag,
                    waiter: RecvWaiter::Handle(h.slot),
                });
            }
        }
        h
    }

    /// Allocates a request slot already in the completed state (local
    /// sends, stash hits): the matching `wait` returns without parking.
    fn immediate_request(&self, kind: ReqKind, req_causal: u64, msg: Option<NcsMsg>) -> NcsRequest {
        let now = self.ctx().now();
        let mut st = self.proc.inner.state.lock();
        let h = alloc_request(&mut st, kind, self.thread, req_causal);
        let parked = complete_slot(&self.proc.inner, &mut st, h.slot, msg, now);
        debug_assert!(parked.is_none(), "fresh request already had a waiter");
        h
    }

    /// `NCS_recv`: receives a data message addressed to this thread,
    /// optionally filtered by source process, source thread, and tag
    /// (`None` = the paper's `-1` wildcard). Blocks only this thread.
    pub fn recv(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> NcsMsg {
        self.recv_class(MsgClass::Data, from_proc, from_thread, tag)
    }

    /// Receives any data message for this thread.
    pub fn recv_any(&self) -> NcsMsg {
        self.recv(None, None, None)
    }

    /// Non-blocking check whether a matching data message is already
    /// buffered for this thread (the NCS-level `messages_available`).
    pub fn probe(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> bool {
        let st = self.proc.inner.state.lock();
        st.stash.iter().any(|m| {
            m.class == MsgClass::Data
                && m.to_thread == self.thread
                && from_proc.is_none_or(|p| p == m.from.proc)
                && from_thread.is_none_or(|t| t == m.from.thread)
                && tag.is_none_or(|t| t == m.tag)
        })
    }

    /// Like [`NcsCtx::recv`] but gives up after `timeout`, returning `None`
    /// (for soft-deadline consumers such as the VOD player of Figure 5).
    pub fn recv_timeout(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
        timeout: Dur,
    ) -> Option<NcsMsg> {
        // Fast path.
        {
            let mut st = self.proc.inner.state.lock();
            if let Some(m) = take_from_stash(
                &mut st.stash,
                self.thread,
                MsgClass::Data,
                from_proc,
                from_thread,
                tag,
            ) {
                st.recv_msgs += 1;
                drop(st);
                observe_delivery(&self.proc.inner, m.causal, self.ctx().now());
                note_app_delivery(&self.proc.inner, &m);
                return Some(m);
            }
        }
        let slot = Arc::new(Mutex::new(None));
        let timed_out = Arc::new(Mutex::new(false));
        let req_id = {
            let mut st = self.proc.inner.state.lock();
            let req_id = st.next_req_id;
            st.next_req_id += 1;
            st.recv_reqs.push(RecvReq {
                req_id,
                to_thread: self.thread,
                class: MsgClass::Data,
                from_proc,
                from_thread,
                user_tag: tag,
                waiter: RecvWaiter::Thread {
                    tid: self.mctx.tid(),
                    slot: Arc::clone(&slot),
                },
            });
            req_id
        };
        // Arm the expiry: if the request is still queued when the timer
        // fires, cancel it and wake the waiter empty-handed. The handle
        // lets a satisfied receive retract the timer from the kernel queue.
        let inner = Arc::clone(&self.proc.inner);
        let waiter = self.mctx.tid();
        let timed_out2 = Arc::clone(&timed_out);
        let sim = self.ctx().sim();
        let timer = sim.schedule_cancellable(sim.now() + timeout, move |sim| {
            let fire = {
                let mut st = inner.state.lock();
                match st.recv_reqs.iter().position(|r| r.req_id == req_id) {
                    Some(pos) => {
                        st.recv_reqs.remove(pos);
                        true
                    }
                    None => false, // already satisfied
                }
            };
            if fire {
                *timed_out2.lock() = true;
                inner.mts.unblock(sim, waiter);
            }
        });
        loop {
            self.mctx.block();
            if let Some(m) = slot.lock().take() {
                // Satisfied before expiry: retract the timer.
                self.ctx().sim().cancel_scheduled(timer);
                self.proc.inner.state.lock().recv_msgs += 1;
                observe_delivery(&self.proc.inner, m.causal, self.ctx().now());
                note_app_delivery(&self.proc.inner, &m);
                return Some(m);
            }
            if *timed_out.lock() {
                return None;
            }
            // Spurious unblock: wait again.
        }
    }

    fn recv_class(
        &self,
        class: MsgClass,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> NcsMsg {
        let t0 = self.ctx().now();
        // Blocking receive = post + wait, same as send: the post's stash
        // probe and the wait's park reproduce the old one-piece event
        // sequence exactly.
        let h = self.post_recv(class, from_proc, from_thread, tag, 0);
        let msg = self
            .wait_inner(h)
            .expect("recv completed without a message");
        let t1 = self.ctx().now();
        self.proc.inner.sim.with_spans(|tr| {
            tr.span_full(self.actor, SpanKind::Comm, "recv", t0, t1, None, msg.causal);
        });
        msg
    }

    /// `NCS_isend`: posts an asynchronous send of `data` to `to` and
    /// returns a completion handle immediately. The send system thread
    /// performs the transfer while this thread keeps computing; redeem the
    /// handle with [`NcsCtx::wait`], [`NcsCtx::test`], or
    /// [`NcsCtx::waitany`]. Local sends still charge the caller the memory
    /// copy (there is no wire to overlap) and return a completed handle.
    pub fn isend(&self, to: ThreadAddr, tag: u32, data: Bytes) -> NcsRequest {
        self.isend_class(MsgClass::Data, to, tag, data, 0)
    }

    /// `NCS_isend` on an explicit transport tier (NSM vs HSM selection).
    pub fn isend_via(&self, tier: usize, to: ThreadAddr, tag: u32, data: Bytes) -> NcsRequest {
        self.isend_class(MsgClass::Data, to, tag, data, tier)
    }

    fn isend_class(
        &self,
        class: MsgClass,
        to: ThreadAddr,
        tag: u32,
        data: Bytes,
        tier: usize,
    ) -> NcsRequest {
        let t0 = self.ctx().now();
        let causal = self.message_causal(class, to, t0);
        let req_causal = self.request_causal(t0);
        let h = self.post_send(class, to, tag, data, tier, causal, req_causal);
        let t1 = self.ctx().now();
        self.proc.inner.sim.with_spans(|tr| {
            tr.span_full(self.actor, SpanKind::Comm, "isend", t0, t1, None, causal);
        });
        h
    }

    /// `NCS_irecv`: posts an asynchronous receive (same wildcard filters as
    /// [`NcsCtx::recv`]) and returns a completion handle immediately. The
    /// message is delivered when the handle is redeemed with
    /// [`NcsCtx::wait`] or [`NcsCtx::waitany`].
    pub fn irecv(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> NcsRequest {
        let t0 = self.ctx().now();
        let req_causal = self.request_causal(t0);
        let h = self.post_recv(MsgClass::Data, from_proc, from_thread, tag, req_causal);
        self.proc.inner.sim.with_spans(|tr| {
            tr.span_full(self.actor, SpanKind::Comm, "irecv", t0, t0, None, 0);
        });
        h
    }

    /// `NCS_wait`: blocks until the request completes, consuming the
    /// handle. Returns the received message for receives, `None` for
    /// sends. A handle may be redeemed exactly once; waiting a consumed
    /// (stale) handle is reported as a `stale-request-handle` violation
    /// under analysis (a panic otherwise) and returns `None`.
    pub fn wait(&self, h: NcsRequest) -> Option<NcsMsg> {
        let t0 = self.ctx().now();
        let msg = self.wait_inner(h);
        let t1 = self.ctx().now();
        self.proc.inner.sim.with_spans(|tr| {
            let causal = msg.as_ref().map_or(0, |m| m.causal);
            tr.span_full(self.actor, SpanKind::Comm, "wait", t0, t1, None, causal);
        });
        msg
    }

    /// `NCS_test`: non-blocking completion probe. Returns `true` once the
    /// request has completed (or the handle is stale — i.e. already
    /// consumed); the handle stays live until redeemed by a wait.
    pub fn test(&self, h: NcsRequest) -> bool {
        let st = self.proc.inner.state.lock();
        let s = &st.req_slots[h.slot as usize];
        s.gen != h.gen || !matches!(s.state, ReqState::Pending)
    }

    /// `NCS_waitany`: blocks until at least one of `hs` completes, consumes
    /// exactly that one handle, and returns its index plus its message (for
    /// receives). The other handles stay live. Completion order, not list
    /// order, decides the winner; ties go to the lowest index.
    pub fn waitany(&self, hs: &[NcsRequest]) -> (usize, Option<NcsMsg>) {
        assert!(!hs.is_empty(), "waitany on an empty handle list");
        loop {
            let (has_send, has_recv) = {
                let mut st = self.proc.inner.state.lock();
                let mut winner = None;
                for (i, h) in hs.iter().enumerate() {
                    let s = &st.req_slots[h.slot as usize];
                    if s.gen != h.gen {
                        drop(st);
                        self.handle_misuse(format!(
                            "waitany on stale handle slot {} gen {} (now {})",
                            h.slot,
                            h.gen,
                            self.proc.inner.state.lock().req_slots[h.slot as usize].gen,
                        ));
                        return (i, None);
                    }
                    if matches!(s.state, ReqState::Complete(_)) {
                        winner = Some(i);
                        break;
                    }
                }
                if let Some(i) = winner {
                    // The losers keep their slots but must forget this
                    // thread: a later completion must not wake a thread
                    // that is no longer waiting here.
                    let me = self.mctx.tid();
                    for h in hs {
                        let s = &mut st.req_slots[h.slot as usize];
                        if s.gen == h.gen && s.parked == Some(me) {
                            s.parked = None;
                        }
                    }
                    let msg = consume_completed(&self.proc.inner, &mut st, hs[i]);
                    drop(st);
                    if let Some(m) = &msg {
                        self.finish_recv_consume(m);
                    }
                    return (i, msg);
                }
                let mut kinds = (false, false);
                for h in hs {
                    let s = &mut st.req_slots[h.slot as usize];
                    if let Some(other) = s.parked {
                        if other != self.mctx.tid() {
                            let what = format!(
                                "handle slot {} gen {} already waited by another thread",
                                h.slot, h.gen
                            );
                            drop(st);
                            self.handle_misuse(what);
                            return (0, None);
                        }
                    }
                    s.parked = Some(self.mctx.tid());
                    match s.kind {
                        ReqKind::Send => kinds.0 = true,
                        ReqKind::Recv => kinds.1 = true,
                    }
                }
                kinds
            };
            // Park outside the state lock (the completer takes it). A
            // single-kind set gets a precise wait-for edge toward its
            // system thread; a mixed set can be woken by either, so no
            // one edge is truthful — fall back to an unattributed block.
            // Copy the tid out of `sys` before parking: the waker takes
            // `sys` too, so the guard must not be held across the park.
            let target = {
                let sys = self.proc.inner.sys.lock();
                match (has_send, has_recv) {
                    (true, false) => sys.send,
                    (false, true) => sys.recv,
                    _ => None,
                }
            };
            match target {
                Some(t) if t != self.mctx.tid() => self.mctx.block_on(t),
                _ => self.mctx.block(),
            }
        }
    }

    /// The wait engine shared by the blocking wrappers and the public
    /// async redeem paths: park until the slot completes, then consume it.
    fn wait_inner(&self, h: NcsRequest) -> Option<NcsMsg> {
        loop {
            let kind = {
                let mut st = self.proc.inner.state.lock();
                let s = &mut st.req_slots[h.slot as usize];
                if s.gen != h.gen {
                    let gen_now = s.gen;
                    drop(st);
                    self.handle_misuse(format!(
                        "wait on stale handle slot {} gen {} (now {gen_now})",
                        h.slot, h.gen
                    ));
                    return None;
                }
                if matches!(s.state, ReqState::Complete(_)) {
                    let msg = consume_completed(&self.proc.inner, &mut st, h);
                    drop(st);
                    if let Some(m) = &msg {
                        self.finish_recv_consume(m);
                    }
                    return msg;
                }
                if let Some(other) = s.parked {
                    if other != self.mctx.tid() {
                        let what = format!(
                            "handle slot {} gen {} already waited by another thread",
                            h.slot, h.gen
                        );
                        drop(st);
                        self.handle_misuse(what);
                        return None;
                    }
                }
                s.parked = Some(self.mctx.tid());
                s.kind
            };
            // Record the wait edge toward the completing system thread
            // for deadlock analysis. Copy the tid out first: the waker
            // runs on that system thread and takes `sys`, so the guard
            // must not be held across the park.
            let target = {
                let sys = self.proc.inner.sys.lock();
                match kind {
                    ReqKind::Send => sys.send,
                    ReqKind::Recv => sys.recv,
                }
            };
            match target {
                Some(t) if t != self.mctx.tid() => self.mctx.block_on(t),
                _ => self.mctx.block(),
            }
        }
    }

    /// Post-consumption bookkeeping for a received message: delivery
    /// observability and the analysis delivery log, both outside the state
    /// lock.
    fn finish_recv_consume(&self, m: &NcsMsg) {
        observe_delivery(&self.proc.inner, m.causal, self.ctx().now());
        note_app_delivery(&self.proc.inner, m);
    }

    /// Misused completion handle (stale redeem, cross-thread double wait):
    /// a reported violation under analysis, a panic otherwise.
    fn handle_misuse(&self, what: String) {
        let inner = &self.proc.inner;
        if inner.cfg.analysis.active() {
            inner.cfg.analysis.report(
                "stale-request-handle",
                format!("proc{}/t{}", inner.id, self.thread),
                what,
            );
        } else {
            panic!("{what}");
        }
    }

    /// `NCS_bcast`: sends `data` to every endpoint in `list`.
    pub fn bcast(&self, list: &[ThreadAddr], tag: u32, data: Bytes) {
        for &to in list {
            self.send(to, tag, data.clone());
        }
    }

    /// Sends a zero-byte synchronization signal to `to`.
    pub fn signal(&self, to: ThreadAddr) {
        self.send_class(MsgClass::Signal, to, 0, Bytes::new(), 0);
    }

    /// Raises an exception at process `to_proc` (the paper's exception
    /// handling service): delivered asynchronously to the remote process's
    /// handler rather than to a receiving thread.
    pub fn raise(&self, to_proc: usize, code: u32, detail: Bytes) {
        self.send_class(
            MsgClass::Exception,
            ThreadAddr::new(to_proc, 0),
            code,
            detail,
            0,
        );
    }

    /// Waits for a signal (optionally from a specific endpoint).
    pub fn wait_signal(&self, from: Option<ThreadAddr>) {
        let (fp, ft) = match from {
            Some(a) => (Some(a.proc), Some(a.thread)),
            None => (None, None),
        };
        self.recv_class(MsgClass::Signal, fp, ft, None);
    }

    /// Barrier among the listed endpoints; `parties[0]` acts as root.
    /// Every listed thread must call this with the same list.
    pub fn barrier(&self, parties: &[ThreadAddr]) {
        if parties.len() <= 1 {
            return;
        }
        let root = parties[0];
        let me = self.my_addr();
        debug_assert!(parties.contains(&me), "caller must be a party");
        if me == root {
            for _ in 1..parties.len() {
                self.recv_class(MsgClass::BarArrive, None, None, None);
            }
            for &p in &parties[1..] {
                self.send_class(MsgClass::BarGo, p, 0, Bytes::new(), 0);
            }
        } else {
            self.send_class(MsgClass::BarArrive, root, 0, Bytes::new(), 0);
            self.recv_class(MsgClass::BarGo, Some(root.proc), Some(root.thread), None);
        }
    }

    /// `NCS_block` on this thread (paper API; used with [`NcsCtx::unblock`]
    /// for intra-process synchronization as in the JPEG host code).
    pub fn block(&self) {
        self.mctx.block();
    }

    /// `NCS_unblock`: unblocks logical user thread `t` of this process.
    pub fn unblock(&self, t: u32) {
        let tid = self.proc.user_mts_tid(t);
        self.mctx.unblock(tid);
    }

    /// Yields the CPU to sibling threads.
    pub fn yield_now(&self) {
        self.mctx.yield_now();
    }
}

fn take_from_stash(
    stash: &mut VecDeque<NcsMsg>,
    to_thread: u32,
    class: MsgClass,
    from_proc: Option<usize>,
    from_thread: Option<u32>,
    tag: Option<u32>,
) -> Option<NcsMsg> {
    let pos = stash.iter().position(|m| {
        m.class == class
            && m.to_thread == to_thread
            && from_proc.is_none_or(|p| p == m.from.proc)
            && from_thread.is_none_or(|t| t == m.from.thread)
            && tag.is_none_or(|t| t == m.tag)
    })?;
    stash.remove(pos)
}

/// Matches queued receive requests against stashed messages, unblocking
/// satisfied waiters. Must be called with the state lock held.
fn match_requests(inner: &ProcInner, st: &mut MpsState) {
    let now = inner.sim.now();
    let mut i = 0;
    while i < st.recv_reqs.len() {
        let req = &st.recv_reqs[i];
        let hit = take_from_stash(
            &mut st.stash,
            req.to_thread,
            req.class,
            req.from_proc,
            req.from_thread,
            req.user_tag,
        );
        // Borrow gymnastics: `take_from_stash` needs &mut stash while req
        // borrows recv_reqs — split via index re-borrowing.
        match hit {
            Some(msg) => {
                let req = st.recv_reqs.remove(i);
                match req.waiter {
                    RecvWaiter::Thread { tid, slot } => {
                        *slot.lock() = Some(msg);
                        inner.mts.unblock(&inner.sim, tid);
                    }
                    RecvWaiter::Handle(slot) => {
                        let parked = complete_slot(inner, st, slot, Some(msg), now);
                        if let Some(t) = parked {
                            inner.mts.unblock(&inner.sim, t);
                        }
                    }
                }
            }
            None => {
                // The MPS layer examined (and re-queued) the request: the
                // first such scan is the async timeline's `progressed`.
                if let RecvWaiter::Handle(slot) = req.waiter {
                    mark_request_progressed(inner, st, slot, now);
                }
                i += 1;
            }
        }
    }
}

/// Allocates a request-table slot in the `Pending` state. Call with the
/// state lock held.
fn alloc_request(st: &mut MpsState, kind: ReqKind, owner: u32, req_causal: u64) -> NcsRequest {
    st.reqs_posted += 1;
    match st.req_free.pop() {
        Some(slot) => {
            let s = &mut st.req_slots[slot as usize];
            debug_assert!(matches!(s.state, ReqState::Free), "free-list slot not free");
            s.kind = kind;
            s.state = ReqState::Pending;
            s.parked = None;
            s.owner = owner;
            s.req_causal = req_causal;
            s.progressed = false;
            NcsRequest { slot, gen: s.gen }
        }
        None => {
            let slot = st.req_slots.len() as u32;
            st.req_slots.push(ReqSlot {
                gen: 0,
                kind,
                state: ReqState::Pending,
                parked: None,
                owner,
                req_causal,
                progressed: false,
            });
            NcsRequest { slot, gen: 0 }
        }
    }
}

/// Stamps `completed` on a request's own timeline and folds the stage
/// diffs into the request-latency histograms: `posted -> progressed` is
/// `obs.req_wait` (queued before the progress engine serviced it),
/// `progressed -> completed` is `obs.req_service`, and the two telescope
/// exactly to `obs.req_e2e`.
fn observe_request(inner: &ProcInner, causal: u64, now: SimTime) {
    inner.sim.with_metrics(|mm| {
        mm.mark(causal, "completed", now);
        mm.observe_stages(causal, causal_component, "obs.req_e2e");
    });
}

/// Stamps `progressed` on the request's timeline the first time the
/// progress engine (a system thread) picks the request up. Idempotent; a
/// no-op for untraced (blocking-wrapper) requests. Call with the state
/// lock held.
fn mark_request_progressed(inner: &ProcInner, st: &mut MpsState, slot: u32, now: SimTime) {
    let s = &mut st.req_slots[slot as usize];
    if s.req_causal != 0 && !s.progressed {
        s.progressed = true;
        inner
            .sim
            .with_metrics(|mm| mm.mark(s.req_causal, "progressed", now));
    }
}

/// Completes request-table slot `slot`: stores the result, pushes the
/// completion-queue entry, stamps the request timeline, and returns the
/// thread parked on the handle (if any) for the caller to unblock. Call
/// with the state lock held; unblocking the returned thread is safe either
/// under or outside the lock (waking never parks).
fn complete_slot(
    inner: &ProcInner,
    st: &mut MpsState,
    slot: u32,
    msg: Option<NcsMsg>,
    now: SimTime,
) -> Option<MtsTid> {
    let s = &mut st.req_slots[slot as usize];
    debug_assert!(
        matches!(s.state, ReqState::Pending),
        "completing a request slot that is not pending"
    );
    if s.req_causal != 0 {
        if !s.progressed {
            s.progressed = true;
            inner
                .sim
                .with_metrics(|mm| mm.mark(s.req_causal, "progressed", now));
        }
        observe_request(inner, s.req_causal, now);
    }
    s.state = ReqState::Complete(msg);
    let gen = s.gen;
    let parked = s.parked.take();
    st.completions.push_back((slot, gen));
    parked
}

/// Consumes a completed request slot: removes its completion-queue entry
/// (its absence is a conservation violation), frees the slot, and bumps
/// the generation so the handle goes stale. Call with the state lock held.
fn consume_completed(inner: &ProcInner, st: &mut MpsState, h: NcsRequest) -> Option<NcsMsg> {
    match st.completions.iter().position(|&e| e == (h.slot, h.gen)) {
        Some(p) => {
            st.completions.remove(p);
        }
        None => {
            // Every completion pushes exactly one queue entry and every
            // consume pops exactly one; a miss means the accounting broke.
            if inner.cfg.analysis.active() {
                inner.cfg.analysis.report(
                    "completion-conservation",
                    format!("proc{}", inner.id),
                    format!(
                        "completed slot {} gen {} has no completion-queue entry",
                        h.slot, h.gen
                    ),
                );
            }
        }
    }
    let s = &mut st.req_slots[h.slot as usize];
    let msg = match std::mem::replace(&mut s.state, ReqState::Free) {
        ReqState::Complete(m) => m,
        other => {
            s.state = other;
            return None;
        }
    };
    s.gen = s.gen.wrapping_add(1);
    s.parked = None;
    s.req_causal = 0;
    st.req_free.push(h.slot);
    st.reqs_consumed += 1;
    if msg.as_ref().is_some_and(|m| m.class == MsgClass::Data) {
        st.recv_msgs += 1;
    }
    msg
}

/// Completes a finished send's request slot and wakes the thread parked on
/// its handle, if any.
fn finish_send_waiter(inner: &Arc<ProcInner>, m: &MtsCtx, slot: u32) {
    let parked = {
        let mut st = inner.state.lock();
        complete_slot(inner, &mut st, slot, None, m.now())
    };
    if let Some(t) = parked {
        m.unblock(t);
    }
}

/// Bytes of the error-control header a checked frame carries:
/// `[seq u32 LE][crc u32 LE]`.
const CHECKED_HEADER_BYTES: usize = 8;

/// Wraps a payload with the error-control header: `[seq u32][crc u32]data`
/// where the CRC covers the sequence number and the data. The payload is
/// given as `head ‖ body` so a chunk header and the slice of the user
/// message it describes go into the frame in one copy; the CRC is streamed
/// over the finished frame in place.
pub fn wrap_checked(seq: u32, head: &[u8], body: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(CHECKED_HEADER_BYTES + head.len() + body.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&[0; 4]);
    v.extend_from_slice(head);
    v.extend_from_slice(body);
    let crc = Crc32::new()
        .update(&v[..4])
        .update(&v[CHECKED_HEADER_BYTES..])
        .finish();
    v[4..CHECKED_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(v)
}

/// Why a checked frame was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Shorter than the error-control header: there is no sequence number
    /// to name in a NACK.
    Runt,
    /// The CRC does not cover the frame; `seq` is what the (possibly
    /// damaged) header claims.
    BadCrc {
        /// The sequence number read from the frame.
        seq: u32,
    },
}

/// Parses and verifies a checked payload, returning its sequence number and
/// a zero-copy view of the data.
pub fn unwrap_checked(b: &Bytes) -> Result<(u32, Bytes), FrameError> {
    if b.len() < CHECKED_HEADER_BYTES {
        return Err(FrameError::Runt);
    }
    let seq = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
    let calc = Crc32::new()
        .update(&b[..4])
        .update(&b[CHECKED_HEADER_BYTES..])
        .finish();
    if calc == crc {
        Ok((seq, b.slice(CHECKED_HEADER_BYTES..)))
    } else {
        Err(FrameError::BadCrc { seq })
    }
}

/// The timeout the next (re)transmission to `dst` should get, from its
/// estimator state (or the configured initial value before any sample).
fn current_rto(st: &MpsState, cfg: &RtoConfig, dst: usize) -> Dur {
    st.rtt.get(&dst).copied().unwrap_or_default().rto(cfg)
}

/// (Re)arms the per-destination loss-recovery timer at `now + RTO(dst)`,
/// replacing any armed one. One timer per destination, TCP-style, timing
/// the **oldest** frame on the wire: restarted on every partial
/// acknowledgment (so under deep pipelining a later frame's queueing delay
/// behind its siblings never counts against its own timeout) and after
/// each timer-driven retransmission (with the backed-off RTO).
fn restart_retx_timer(inner: &Arc<ProcInner>, dst: usize) {
    let (timeout, epoch) = {
        let mut st = inner.state.lock();
        st.timer_epoch += 1;
        (current_rto(&st, &inner.cfg.rto, dst), st.timer_epoch)
    };
    let sim = inner.sim.clone();
    let cb_inner = Arc::clone(inner);
    let handle = sim.schedule_cancellable(sim.now() + timeout, move |sim| {
        retx_fire(&cb_inner, sim, dst, epoch);
    });
    let mut st = inner.state.lock();
    if let Some(old) = st.retx_timers.insert(dst, RetxTimer { handle, epoch }) {
        // Replaced: retract the superseded timer from the kernel queue
        // rather than letting it fire as a stale no-op event.
        inner.sim.cancel_scheduled(old.handle);
    }
}

/// Arms the destination's loss-recovery timer only if none is armed —
/// the path for first transmissions: frame N+1 joining an already-timed
/// pipeline must not push frame N's deadline out.
fn ensure_retx_timer(inner: &Arc<ProcInner>, dst: usize) {
    {
        let st = inner.state.lock();
        let outstanding = st.unacked.keys().any(|&(d, _)| d == dst);
        if st.retx_timers.contains_key(&dst) || !outstanding {
            return;
        }
    }
    restart_retx_timer(inner, dst);
}

/// Retracts the destination's loss-recovery timer (last frame acked, or
/// outstanding frames purged).
fn cancel_retx_timer(inner: &ProcInner, st: &mut MpsState, dst: usize) {
    if let Some(t) = st.retx_timers.remove(&dst) {
        inner.sim.cancel_scheduled(t.handle);
    }
}

/// Purges every outstanding frame toward `dst`, returning the
/// `(endpoint, tag)` pairs to raise [`EXC_DELIVERY_FAILED`] for, and
/// unwedges a send thread parked on the peer's credits or I/O buffers.
fn purge_unacked(inner: &ProcInner, st: &mut MpsState, dst: usize) -> Vec<(ThreadAddr, u32)> {
    let keys: Vec<(usize, u32)> = st
        .unacked
        .keys()
        .filter(|&&(d, _)| d == dst)
        .copied()
        .collect();
    let mut failed = Vec::with_capacity(keys.len());
    for k in keys {
        let u = st.unacked.remove(&k).expect("key just listed");
        failed.push((u.to, u.user_tag));
    }
    st.delivery_failures += failed.len() as u64;
    cancel_retx_timer(inner, st, dst);
    if st.send_waiting_credit == Some(dst) {
        st.send_waiting_credit = None;
    }
    if st.send_waiting_ack == Some(dst) {
        st.send_waiting_ack = None;
    }
    failed
}

/// Expiry of a destination's loss-recovery timer: the oldest frame on the
/// wire toward `dst` has gone a full RTO unacknowledged. Retransmit it
/// (with exponential RTO backoff), unless the retransmit queue is at its
/// cap (defer, with backpressure accounting), every route to the peer is
/// down (fail all outstanding frames fast — a partition should cost one
/// RTO, not a `max_retries` backoff crawl), or the retry budget is spent
/// (declare the peer dead) — a send to a crashed node must not hang the
/// scheduler.
fn retx_fire(inner: &Arc<ProcInner>, sim: &Sim, dst: usize, epoch: u64) {
    enum Action {
        Done,
        Retry,
        Deferred,
        /// `true`: the peer is permanently dead (budget exhausted);
        /// `false`: partition fail-fast, recoverable when the route heals.
        Failed(Vec<(ThreadAddr, u32)>, bool),
    }
    let action = {
        let mut st = inner.state.lock();
        // Superseded by a restart (a partial ack landed after this firing
        // was already dequeued): the newer timer owns loss recovery now.
        if st.retx_timers.get(&dst).map(|t| t.epoch) != Some(epoch) {
            return;
        }
        st.retx_timers.remove(&dst);
        // The timer times the oldest frame actually transmitted. Frames
        // still queued locally (`sent_at == None`) have not started their
        // clock — a queued frame never inherits a stale send-time.
        let oldest = st
            .unacked
            .iter()
            .filter(|((d, _), u)| *d == dst && u.sent_at.is_some())
            .min_by_key(|(_, u)| u.sent_at)
            .map(|(&(_, s), u)| (s, u.tier, u.retries));
        match oldest {
            None => Action::Done, // everything acknowledged meanwhile
            Some((seq, tier, retries)) => {
                let unreachable = inner.nets[tier].peer_unreachable(
                    NodeId(inner.id as u32),
                    NodeId(dst as u32),
                    sim.now(),
                );
                if unreachable {
                    // Partition: every route to the peer is inside an
                    // outage window right now; retrying into it burns the
                    // budget for nothing. Fail the outstanding frames with
                    // typed exceptions, but do NOT declare the peer dead —
                    // when the outage ends, fresh sends recover.
                    st.partitioned_peers.insert(dst);
                    st.partition_failfasts += 1;
                    let failed = purge_unacked(inner, &mut st, dst);
                    Action::Failed(failed, false)
                } else if retries >= inner.cfg.max_retries {
                    st.dead_peers.insert(dst);
                    let failed = purge_unacked(inner, &mut st, dst);
                    Action::Failed(failed, true)
                } else if st.send_q.iter().filter(|r| r.prewrapped).count()
                    >= inner.cfg.retx_queue_cap.max(1)
                {
                    // Bounded retransmit queue: the send thread is already
                    // drowning in queued retransmissions. Defer this one —
                    // back the RTO off and let the re-armed timer retry —
                    // so memory stays bounded under sustained faults.
                    st.retx_deferred += 1;
                    st.backoff_events += 1;
                    st.rtt.entry(dst).or_default().backoff_exp += 1;
                    Action::Deferred
                } else {
                    let u = st.unacked.get_mut(&(dst, seq)).expect("key just found");
                    u.retries += 1;
                    u.retransmitted = true; // Karn: its ACK is now ambiguous
                    // Budget accounting: the give-up branch above must fire
                    // before a frame can exceed its configured retry budget.
                    if inner.cfg.analysis.active() && u.retries > inner.cfg.max_retries {
                        inner.cfg.analysis.report(
                            "retransmit-budget",
                            format!("proc{}", inner.id),
                            format!(
                                "frame (proc{dst}, seq {seq}) at {} retries exceeds budget {}",
                                u.retries, inner.cfg.max_retries
                            ),
                        );
                    }
                    let req = SendReq {
                        from_thread: u.from_thread,
                        to: u.to,
                        // A retransmitted chunk must still carry its
                        // original class so the receiver routes it into
                        // reassembly.
                        class: u.class,
                        user_tag: u.user_tag,
                        data: u.wrapped.clone(),
                        tier: u.tier,
                        waiter: None,
                        prewrapped: true,
                        seq: None,
                        causal: 0,
                    };
                    st.retransmits += 1;
                    st.backoff_events += 1;
                    st.rtt.entry(dst).or_default().backoff_exp += 1;
                    st.send_q.push_back(req);
                    Action::Retry
                }
            }
        }
    };
    match action {
        Action::Done => {}
        Action::Retry => {
            if let Some(tid) = inner.sys.lock().send {
                inner.mts.unblock(sim, tid);
            }
            // Re-arm with the doubled timeout.
            restart_retx_timer(inner, dst);
        }
        Action::Deferred => {
            inner.sim.with_metrics(|mm| mm.inc("retx.backpressure", 1));
            // Re-arm with the doubled timeout; the queue drains meanwhile.
            restart_retx_timer(inner, dst);
        }
        Action::Failed(failed, permanent) => {
            if !permanent {
                inner.sim.with_metrics(|mm| mm.inc("rto.partition_failfast", 1));
            }
            for (to, tag) in failed {
                raise_local_exception(
                    inner,
                    NcsException {
                        from: to,
                        code: EXC_DELIVERY_FAILED,
                        detail: Bytes::from(tag.to_le_bytes().to_vec()),
                    },
                );
            }
            // Wake the send thread unconditionally: it may be parked on
            // credits for the unreachable peer, or draining for shutdown.
            if let Some(tid) = inner.sys.lock().send {
                inner.mts.unblock(sim, tid);
            }
            let (empty, shutdown) = {
                let st = inner.state.lock();
                (st.unacked.is_empty(), st.shutdown)
            };
            if empty && shutdown {
                signal_quiescent(inner);
            }
        }
    }
}

/// Bytes of the chunk header a [`MsgClass::Frag`] payload carries:
/// `[xfer_id u32 LE][chunk index u32 LE][chunk count u32 LE]`.
const FRAG_HEADER_BYTES: usize = 12;

/// The chunk header of chunk `idx` of `total` in transfer `xfer`.
fn frag_header(xfer: u32, idx: u32, total: u32) -> [u8; FRAG_HEADER_BYTES] {
    let mut h = [0; FRAG_HEADER_BYTES];
    h[0..4].copy_from_slice(&xfer.to_le_bytes());
    h[4..8].copy_from_slice(&idx.to_le_bytes());
    h[8..12].copy_from_slice(&total.to_le_bytes());
    h
}

/// Allocates a sequence number toward `req.to` (wrapping at u32) and
/// registers the wrapped form of the payload `head ‖ body` for
/// retransmission (`req.data` is not read: a chunk's payload exists only
/// inside its wire frame). Returns `(seq, wrapped payload)`. Must only be
/// called with checksum/retransmit error control active.
fn register_unacked(
    inner: &Arc<ProcInner>,
    st: &mut MpsState,
    req: &SendReq,
    head: &[u8],
    body: &[u8],
) -> (u32, Bytes) {
    let dst = req.to;
    let seq = {
        let c = st.next_seq.entry(dst.proc).or_insert(0);
        let s = *c;
        // Wrap rather than overflow: sequence numbers are serial numbers,
        // and the receiver's duplicate window compares them as such.
        *c = c.wrapping_add(1);
        s
    };
    *st.seqs_allocated.entry(dst.proc).or_insert(0) += 1;
    // Monotonicity: a freshly allocated sequence number must never
    // collide with a frame still awaiting acknowledgement (u32
    // wrap-around with a full window would silently reuse one).
    if inner.cfg.analysis.active() && st.unacked.contains_key(&(dst.proc, seq)) {
        inner.cfg.analysis.report(
            "seq-monotonicity",
            format!("proc{}", inner.id),
            format!(
                "seq {seq} toward proc{} re-allocated while still unacknowledged",
                dst.proc
            ),
        );
    }
    let wrapped = wrap_checked(seq, head, body);
    st.unacked.insert(
        (dst.proc, seq),
        UnackedMsg {
            to: dst,
            from_thread: req.from_thread,
            user_tag: req.user_tag,
            tier: req.tier,
            class: req.class,
            wrapped: wrapped.clone(),
            retries: 0,
            sent_at: None,
            retransmitted: false,
        },
    );
    (seq, wrapped)
}

/// The causal stage sequence a tracked data message walks from `NCS_send`
/// to `NCS_recv`. Chunked transfers visit `reassembled`; monolithic ones
/// skip it. Consecutive present stages are contiguous, so their diffs sum
/// exactly to the end-to-end latency.
pub const CAUSAL_STAGES: [&str; 7] = [
    "enqueued",
    "sq_popped",
    "wire_start",
    "arrived",
    "picked",
    "reassembled",
    "delivered",
];

/// The stage sequence an *async request* (`NCS_isend`/`NCS_irecv` handle)
/// walks on its own causal timeline, separate from the message's:
/// `posted` when the handle is created, `progressed` when the progress
/// engine (send/receive system thread) first picks the request up,
/// `completed` when the operation finishes. The two diffs telescope
/// exactly to `obs.req_e2e`.
pub const REQUEST_STAGES: [&str; 3] = ["posted", "progressed", "completed"];

/// Every causal stage any timeline may visit, in global order — message
/// stages interleaved with the request lifecycle stages. Timeline
/// validators check against this merged order so both kinds of causal id
/// pass the same monotonicity sweep.
pub const ALL_STAGES: [&str; 10] = [
    "posted",
    "enqueued",
    "sq_popped",
    "progressed",
    "wire_start",
    "arrived",
    "picked",
    "reassembled",
    "delivered",
    "completed",
];

/// Latency-component histogram fed by the stage *ending* at this mark.
pub fn causal_component(stage: &str) -> &'static str {
    match stage {
        "sq_popped" => "obs.queue_wait",
        "wire_start" => "obs.inject",
        "arrived" => "obs.wire",
        "picked" => "obs.pickup",
        "reassembled" => "obs.reassembly",
        "delivered" => "obs.deliver",
        // Request-lifecycle timelines (async handles).
        "progressed" => "obs.req_wait",
        "completed" => "obs.req_service",
        _ => "obs.other",
    }
}

/// Stamps `delivered` on the message's timeline and folds the stage diffs
/// into the per-component latency histograms (plus `obs.e2e`).
fn observe_delivery(inner: &Arc<ProcInner>, causal: u64, now: SimTime) {
    if causal == 0 {
        return;
    }
    inner.sim.with_metrics(|mm| {
        mm.mark(causal, "delivered", now);
        mm.observe_stages(causal, causal_component, "obs.e2e");
    });
}

/// Records `msg` in the analysis delivery log at the instant the
/// application accepts it. This feeds schedule exploration's
/// observational-equivalence oracle: the delivered-payload sequence per
/// `(src, dst, tag)` channel must be identical across every legal
/// interleaving of the same workload. Thread ids ride in the key's high
/// tag bits so each thread-to-thread flow is its own channel (cross-
/// thread matching order genuinely may vary between legal schedules).
fn note_app_delivery(inner: &Arc<ProcInner>, msg: &NcsMsg) {
    if inner.cfg.analysis.active() {
        let tag = (u64::from(msg.from.thread & 0xFFFF) << 48)
            | (u64::from(msg.to_thread & 0xFFFF) << 32)
            | u64::from(msg.tag);
        inner
            .cfg
            .analysis
            .note_delivery(msg.from.proc, inner.id, tag, &msg.data);
    }
}

/// The registry key under which a sender binds a message's causal id and its
/// receiver claims it: the (source, destination) pair packed into one word,
/// the wire tag, and the departure instant. The source is part of the key
/// because two senders can put the same tag on the wire toward one
/// destination at the same instant (the first round of a gather does).
fn wire_key(src: usize, dst: usize, tag: u64, depart: SimTime) -> (u64, u64, u64) {
    (((src as u64) << 32) | dst as u64, tag, depart.as_ps())
}

/// Puts one request on the wire and runs its post-send bookkeeping: RTT
/// stamp + retransmission timer for checked frames, the sent counter, and
/// the blocked sender's wakeup.
fn transmit_one(inner: &Arc<ProcInner>, m: &MtsCtx, req: SendReq) {
    let policy = MtsWait(m);
    let net = &inner.nets[req.tier];
    let tag = encode_tag(req.class, req.from_thread, req.to.thread, req.user_tag);
    let dst = req.to;
    if req.causal != 0 {
        // The wire tag is fully packed, so the causal id cannot ride it.
        // Correlate across processes through the shared registry instead:
        // the transport stamps `sent_at = now()` at its entry, which is
        // exactly this instant, so (src → dst, tag, sent_at) keys the
        // delivery.
        let t = m.ctx().now();
        inner.sim.with_metrics(|mm| {
            mm.mark(req.causal, "wire_start", t);
            mm.bind_wire(wire_key(inner.id, dst.proc, tag, t), req.causal);
        });
    }
    net.send(
        m.ctx(),
        &policy,
        NodeId(inner.id as u32),
        NodeId(dst.proc as u32),
        tag,
        req.data,
    );
    // First transmission of a checked frame: stamp the RTT clock — at the
    // instant the frame actually hits the wire, never at queue time — and
    // make sure the destination's loss-recovery timer is running.
    // Retransmissions are re-armed by `retx_fire` itself.
    if let Some(seq) = req.seq {
        {
            let mut st = inner.state.lock();
            if let Some(u) = st.unacked.get_mut(&(dst.proc, seq)) {
                if u.sent_at.is_none() {
                    u.sent_at = Some(m.ctx().now());
                }
            }
        }
        ensure_retx_timer(inner, dst.proc);
    }
    if req.class == MsgClass::Data {
        inner.state.lock().sent_msgs += 1;
    }
    if let Some(w) = req.waiter {
        finish_send_waiter(inner, m, w);
    }
}

/// Transmits queued control traffic (credit grants, ACKs, NACKs) and
/// retransmissions while the send thread is gated on credits or I/O
/// buffers. Without this, a gated data send head-of-line-blocks the very
/// frames whose round trip would open the gate — two peers both parked on
/// credits with grants queued behind them would deadlock. Returns whether
/// anything was sent.
fn drain_control(inner: &Arc<ProcInner>, m: &MtsCtx) -> bool {
    let mut any = false;
    loop {
        let req = {
            let mut st = inner.state.lock();
            let pos = st.send_q.iter().position(|r| {
                r.prewrapped
                    || matches!(
                        r.class,
                        MsgClass::Credit | MsgClass::Ack | MsgClass::Nack
                    )
            });
            pos.and_then(|i| st.send_q.remove(i))
        };
        let Some(req) = req else { break };
        // A retransmission toward a peer declared dead (or partitioned)
        // mid-queue is dropped silently: the purge already raised its
        // exception.
        if req.prewrapped && {
            let st = inner.state.lock();
            st.dead_peers.contains(&req.to.proc)
                || st.partitioned_peers.contains(&req.to.proc)
        } {
            continue;
        }
        transmit_one(inner, m, req);
        any = true;
    }
    any
}

/// Blocks the send thread until a credit toward `dst` is available (and
/// spends it), draining control traffic while parked. Returns `false` if
/// the peer was declared dead while waiting — credits will never arrive.
fn acquire_send_credit(inner: &Arc<ProcInner>, m: &MtsCtx, dst: usize) -> bool {
    if !matches!(inner.cfg.flow, FlowControl::Credit { .. }) {
        return true;
    }
    enum Gate {
        Open,
        Dead,
        Starved,
    }
    loop {
        let gate = {
            let mut st = inner.state.lock();
            if st.dead_peers.contains(&dst) || st.partitioned_peers.contains(&dst) {
                // The retry path declared the peer dead (or the partition
                // detector cut it off) while we were parked; credits will
                // never arrive.
                st.send_waiting_credit = None;
                Gate::Dead
            } else {
                let c = st.credits.entry(dst).or_insert(0);
                if *c > 0 {
                    *c -= 1;
                    Gate::Open
                } else {
                    st.send_waiting_credit = Some(dst);
                    Gate::Starved
                }
            }
        };
        match gate {
            Gate::Open => return true,
            Gate::Dead => return false,
            Gate::Starved => {
                if drain_control(inner, m) {
                    continue; // a grant/retransmission went out; recheck
                }
                // Woken when credits arrive (or the peer dies). The
                // grant comes in through the receive system thread, so
                // record the wait edge toward it for the deadlock
                // analysis; it is External (never Blocked) and cannot
                // close a false cycle. Copy the tid out first: the
                // grant path takes `sys`, so the guard must not be
                // held across the park.
                let recv = inner.sys.lock().recv;
                match recv {
                    Some(t) => m.block_on(t),
                    None => m.block(),
                }
            }
        }
    }
}

/// Blocks the send thread until fewer than `window` frames toward `dst`
/// await acknowledgment — i.e. until an I/O buffer frees up — draining
/// control traffic while parked. Returns `false` if the peer was declared
/// dead while waiting.
fn wait_for_io_buffer(inner: &Arc<ProcInner>, m: &MtsCtx, dst: usize, window: usize) -> bool {
    enum Gate {
        Open,
        Dead,
        Full,
    }
    loop {
        let gate = {
            let mut st = inner.state.lock();
            if st.dead_peers.contains(&dst) || st.partitioned_peers.contains(&dst) {
                st.send_waiting_ack = None;
                Gate::Dead
            } else if st.unacked.keys().filter(|&&(d, _)| d == dst).count() < window {
                Gate::Open
            } else {
                st.send_waiting_ack = Some(dst);
                Gate::Full
            }
        };
        match gate {
            Gate::Open => return true,
            Gate::Dead => return false,
            Gate::Full => {
                // The acks that would free a buffer may themselves depend on
                // retransmissions (or our own acks) queued behind this
                // transfer — drain them before parking, or the pipeline
                // wedges with a full window of lost chunks.
                if drain_control(inner, m) {
                    continue;
                }
                let recv = inner.sys.lock().recv;
                match recv {
                    Some(t) => m.block_on(t),
                    None => m.block(),
                }
            }
        }
    }
}

/// The pipelined Approach-2 data path: chunks one large data message into
/// I/O-buffer-sized CS-PDUs ([`MsgClass::Frag`] frames), keeping up to
/// [`NcsConfig::io_buffers`] of them in flight toward the destination and
/// refilling buffers as acknowledgments free them. One credit covers the
/// whole logical message; the receiver grants it back on reassembly.
fn send_fragmented(inner: &Arc<ProcInner>, m: &MtsCtx, req: SendReq) {
    let chunk_bytes = inner.cfg.io_buffer_bytes.max(1);
    let total = req.data.len().div_ceil(chunk_bytes) as u32;
    let window = inner.cfg.io_buffers.max(1) as usize;
    let checked = inner.cfg.error == ErrorControl::ChecksumRetransmit;
    let xfer = {
        let mut st = inner.state.lock();
        let x = st.next_xfer_id;
        st.next_xfer_id = st.next_xfer_id.wrapping_add(1);
        x
    };
    let mut peer_died = !acquire_send_credit(inner, m, req.to.proc);
    let mut any_registered = false;
    if !peer_died {
        for idx in 0..total {
            if checked && !wait_for_io_buffer(inner, m, req.to.proc, window) {
                peer_died = true;
                break;
            }
            let lo = idx as usize * chunk_bytes;
            let hi = (lo + chunk_bytes).min(req.data.len());
            let header = frag_header(xfer, idx, total);
            let body = &req.data[lo..hi];
            let mut chunk = SendReq {
                from_thread: req.from_thread,
                to: req.to,
                class: MsgClass::Frag,
                user_tag: req.user_tag,
                data: Bytes::new(),
                tier: req.tier,
                waiter: None,
                prewrapped: false,
                seq: None,
                causal: req.causal,
            };
            // Either way the chunk's bytes are copied exactly once, straight
            // into the frame that goes on the wire.
            if checked {
                let mut st = inner.state.lock();
                let (seq, wrapped) = register_unacked(inner, &mut st, &chunk, &header, body);
                chunk.seq = Some(seq);
                chunk.data = wrapped;
                any_registered = true;
            } else {
                chunk.data = Bytes::from([&header[..], body].concat());
            }
            transmit_one(inner, m, chunk);
        }
    }
    {
        let mut st = inner.state.lock();
        if peer_died {
            st.delivery_failures += 1;
        } else {
            st.sent_msgs += 1;
            st.fragmented_msgs += 1;
            st.fragments_sent += u64::from(total);
        }
    }
    if peer_died && !any_registered {
        // No chunk reached the unacked table, so the give-up purge had
        // nothing of this message to report — raise the failure here.
        raise_local_exception(
            inner,
            NcsException {
                from: req.to,
                code: EXC_DELIVERY_FAILED,
                detail: Bytes::from(req.user_tag.to_le_bytes().to_vec()),
            },
        );
    }
    if let Some(w) = req.waiter {
        finish_send_waiter(inner, m, w);
    }
}

/// Body of the send system thread.
fn send_thread_body(inner: &Arc<ProcInner>, m: &MtsCtx) {
    loop {
        // One visit to the process state per request: the pop, the
        // `progressed` stamp, and the two fail-fast peer sets.
        let popped = {
            let mut st = inner.state.lock();
            match st.send_q.pop_front() {
                Some(req) => {
                    if req.causal != 0 {
                        let t = m.ctx().now();
                        inner
                            .sim
                            .with_metrics(|mm| mm.mark(req.causal, "sq_popped", t));
                    }
                    // The progress engine has the request in hand: stamp
                    // `progressed` on the async request's own timeline
                    // (first pickup only).
                    if let Some(slot) = req.waiter {
                        mark_request_progressed(inner, &mut st, slot, m.now());
                    }
                    let gated = matches!(req.class, MsgClass::Data | MsgClass::Frag);
                    let dead = gated && st.dead_peers.contains(&req.to.proc);
                    let partitioned = gated && st.partitioned_peers.contains(&req.to.proc);
                    Some((req, dead, partitioned))
                }
                None => {
                    if may_teardown(inner, &st) {
                        break;
                    }
                    None
                }
            }
        };
        let Some((mut req, dead, partitioned)) = popped else {
            m.block(); // woken by NCS_send (or shutdown / final ack)
            continue;
        };
        // Queued frames toward a peer already declared dead fail here
        // rather than burning a fresh retry budget each. A prewrapped frame
        // is a retransmission whose give-up purge already raised the
        // exception, so it is dropped silently.
        if dead {
            if !req.prewrapped {
                raise_local_exception(
                    inner,
                    NcsException {
                        from: req.to,
                        code: EXC_DELIVERY_FAILED,
                        detail: Bytes::from(req.user_tag.to_le_bytes().to_vec()),
                    },
                );
                inner.state.lock().delivery_failures += 1;
            }
            if let Some(w) = req.waiter {
                finish_send_waiter(inner, m, w);
            }
            continue;
        }
        // A destination behind a detected partition: probe the route. If
        // the outage window has ended, drop the mark and proceed — this is
        // the recovery path — re-seeding the credit window, since the
        // frames that spent credits were purged and the peer can never
        // grant them back. Otherwise fail fast with the same typed
        // exception the partition purge used.
        if partitioned {
            let reachable = !inner.nets[req.tier].peer_unreachable(
                NodeId(inner.id as u32),
                NodeId(req.to.proc as u32),
                m.ctx().now(),
            );
            if reachable {
                let mut st = inner.state.lock();
                st.partitioned_peers.remove(&req.to.proc);
                if let FlowControl::Credit { window } = inner.cfg.flow {
                    st.credits.insert(req.to.proc, window);
                }
            } else {
                if !req.prewrapped {
                    raise_local_exception(
                        inner,
                        NcsException {
                            from: req.to,
                            code: EXC_DELIVERY_FAILED,
                            detail: Bytes::from(req.user_tag.to_le_bytes().to_vec()),
                        },
                    );
                    inner.state.lock().delivery_failures += 1;
                }
                if let Some(w) = req.waiter {
                    finish_send_waiter(inner, m, w);
                }
                continue;
            }
        }
        // Approach 2: a data message wider than one I/O buffer goes out
        // chunked, with multiple buffer-sized CS-PDUs in flight.
        if req.class == MsgClass::Data
            && !req.prewrapped
            && req.data.len() > inner.cfg.io_buffer_bytes
        {
            send_fragmented(inner, m, req);
            continue;
        }
        // Error control: frame data messages with a sequence number and
        // checksum, keeping a copy for retransmission until acknowledged.
        if inner.cfg.error == ErrorControl::ChecksumRetransmit
            && req.class == MsgClass::Data
            && !req.prewrapped
        {
            let mut st = inner.state.lock();
            let (seq, wrapped) = register_unacked(inner, &mut st, &req, &[], &req.data);
            drop(st);
            req.seq = Some(seq);
            req.data = wrapped;
        }
        // Credit flow control gates fresh application data; retransmissions
        // ride free (the receiver grants credits only for frames it accepts
        // for delivery, so spending per retransmission would leak).
        if req.class == MsgClass::Data
            && !req.prewrapped
            && !acquire_send_credit(inner, m, req.to.proc)
        {
            // Peer died while we were parked on credits. Any unacked entry
            // was purged and reported by the give-up path; a frame without
            // one (no error control) must raise its failure here, or the
            // send would vanish silently.
            if req.seq.is_none() {
                raise_local_exception(
                    inner,
                    NcsException {
                        from: req.to,
                        code: EXC_DELIVERY_FAILED,
                        detail: Bytes::from(req.user_tag.to_le_bytes().to_vec()),
                    },
                );
                inner.state.lock().delivery_failures += 1;
            }
            if let Some(w) = req.waiter {
                finish_send_waiter(inner, m, w);
            }
            continue;
        }
        transmit_one(inner, m, req);
    }
}

/// Body of the receive system thread.
fn recv_thread_body(inner: &Arc<ProcInner>, m: &MtsCtx) {
    loop {
        // Poll the transport (a `p4_messages_available` round).
        if !inner.cfg.poll_cost.is_zero() {
            m.ctx().sleep(inner.cfg.poll_cost);
        }
        let mut progress = false;
        while let Some((tier, d)) = inner.merged.try_recv(&inner.sim) {
            ingest(inner, m, tier, d);
            progress = true;
        }
        {
            let mut st = inner.state.lock();
            match_requests(inner, &mut st);
        }
        if progress {
            continue;
        }
        {
            // Exit only when the process is done, error control has no
            // outstanding frames that might still need retransmission,
            // and (in a collective) every peer is equally quiescent — a
            // lingering receiver keeps re-ACKing duplicates for peers
            // whose final acknowledgment was lost.
            let st = inner.state.lock();
            if may_teardown(inner, &st) && inner.merged.is_empty() {
                break;
            }
        }
        if inner.mts.has_runnable() {
            // Others can use the CPU; poll again at the next dispatch.
            m.yield_now();
            continue;
        }
        // Process otherwise idle: wait in the kernel for the next delivery.
        let next = m.external_block(|| inner.merged.recv(m.ctx()));
        match next {
            Ok((tier, d)) => {
                ingest(inner, m, tier, d);
                let mut st = inner.state.lock();
                match_requests(inner, &mut st);
            }
            Err(_closed) => break,
        }
    }
    // Conservation at shutdown: every data message that reached this
    // process must have been consumed by some thread; data stranded in the
    // stash was sent (and acknowledged) but never received.
    if inner.cfg.analysis.active() {
        let st = inner.state.lock();
        for msg in st.stash.iter().filter(|s| s.class == MsgClass::Data) {
            inner.cfg.analysis.report(
                "unconsumed-message",
                format!("proc{}", inner.id),
                format!(
                    "data message tag {} from proc{}/t{} to thread {} was never received",
                    msg.tag, msg.from.proc, msg.from.thread, msg.to_thread
                ),
            );
        }
        // Likewise no chunked transfer may end half-reassembled: every
        // chunk was individually acknowledged, so the bytes are stranded.
        for (&(src, xfer), asm) in st.reassembly.iter() {
            inner.cfg.analysis.report(
                "incomplete-transfer",
                format!("proc{}", inner.id),
                format!(
                    "chunked transfer {xfer} from proc{src} ended with {}/{} chunks",
                    asm.have, asm.total
                ),
            );
        }
        // Async-request conservation: every posted request must have been
        // consumed by a wait. A slot still pending means an in-flight
        // operation was abandoned; one still completed means its handle
        // leaked (its message, if any, was silently dropped).
        let mut live = 0u64;
        for (slot, s) in st.req_slots.iter().enumerate() {
            let leak = match s.state {
                ReqState::Free => continue,
                ReqState::Pending => "still pending",
                ReqState::Complete(_) => "completed but never waited",
            };
            live += 1;
            inner.cfg.analysis.report(
                "leaked-request-handle",
                format!("proc{}", inner.id),
                format!(
                    "{:?} request slot {slot} gen {} posted by t{} {leak} at shutdown",
                    s.kind, s.gen, s.owner
                ),
            );
        }
        // The completion queue must hold exactly the completed-unconsumed
        // slots, and the posted/consumed counters must balance against the
        // live remainder.
        let completed = st
            .req_slots
            .iter()
            .filter(|s| matches!(s.state, ReqState::Complete(_)))
            .count();
        if st.completions.len() != completed || st.reqs_posted != st.reqs_consumed + live {
            inner.cfg.analysis.report(
                "completion-conservation",
                format!("proc{}", inner.id),
                format!(
                    "posted {} != consumed {} + live {} (completion queue {} vs {} completed slots)",
                    st.reqs_posted,
                    st.reqs_consumed,
                    live,
                    st.completions.len(),
                    completed
                ),
            );
        }
    }
}

/// Returns one flow-control credit to `src` for a frame accepted for
/// delivery, batching grants at half the window. Only accepted frames
/// grant: the sender spends a credit per fresh logical message
/// (retransmissions ride free), so granting per raw arrival would push
/// its balance above the window.
fn grant_credit(inner: &Arc<ProcInner>, tier: usize, src: usize) {
    let FlowControl::Credit { window } = inner.cfg.flow else {
        return;
    };
    let grant = {
        let mut st = inner.state.lock();
        let consumed = st.consumed.entry(src).or_insert(0);
        *consumed += 1;
        let grant_at = (window / 2).max(1);
        if *consumed >= grant_at {
            let g = *consumed;
            *consumed = 0;
            st.send_q.push_back(SendReq {
                from_thread: 0,
                to: ThreadAddr::new(src, 0),
                class: MsgClass::Credit,
                user_tag: g,
                data: Bytes::new(),
                tier,
                waiter: None,
                prewrapped: false,
                seq: None,
                causal: 0,
            });
            true
        } else {
            false
        }
    };
    if grant {
        if let Some(tid) = inner.sys.lock().send {
            inner.mts.unblock(&inner.sim, tid);
        }
    }
}

/// Routes one accepted [`MsgClass::Frag`] chunk into its reassembly slot.
/// Completing the set stashes the rebuilt [`MsgClass::Data`] message and
/// grants back the one credit its sender spent on the whole transfer.
fn ingest_fragment(
    inner: &Arc<ProcInner>,
    tier: usize,
    from: ThreadAddr,
    to_thread: u32,
    user_tag: u32,
    payload: Bytes,
    causal: u64,
) {
    let malformed = |why: String| {
        if inner.cfg.analysis.active() {
            inner.cfg.analysis.report(
                "malformed-fragment",
                format!("proc{}", inner.id),
                format!("fragment from proc{}: {why}", from.proc),
            );
        }
    };
    if payload.len() < FRAG_HEADER_BYTES {
        malformed(format!("{} bytes is shorter than the chunk header", payload.len()));
        return;
    }
    let xfer = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
    let idx = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
    let total = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    if total == 0 || idx >= total {
        malformed(format!("chunk {idx} outside its declared count {total}"));
        return;
    }
    // `total` sizes the reassembly table below, and it comes off the wire
    // (unchecked when error control is off). The smallest transfer that
    // needs `total` chunks fills `total - 1` I/O buffers; refuse one that
    // would not fit the u32 length space before allocating for it.
    let chunk_bytes = inner.cfg.io_buffer_bytes.max(1) as u64;
    if u64::from(total - 1).saturating_mul(chunk_bytes) >= u64::from(u32::MAX) {
        malformed(format!(
            "declared count {total} x {chunk_bytes}-byte chunks exceeds the u32 transfer size"
        ));
        return;
    }
    let key = (from.proc, xfer);
    let mut mismatch = None;
    let arm_reaper;
    let complete = {
        let now = inner.sim.now();
        let mut st = inner.state.lock();
        let slot = st.reassembly.entry(key).or_insert_with(|| FragAsm {
            total,
            parts: vec![None; total as usize],
            have: 0,
            last_progress: now,
            reaper: None,
        });
        let done = if slot.total != total {
            mismatch = Some(slot.total);
            false
        } else if slot.parts[idx as usize].is_some() {
            // A duplicate chunk that slipped past the sequence window
            // (e.g. with error control off): already placed, ignore.
            false
        } else {
            slot.parts[idx as usize] = Some(payload.slice(FRAG_HEADER_BYTES..));
            slot.have += 1;
            slot.last_progress = now;
            slot.have == slot.total
        };
        // First chunk of a transfer with reclamation enabled: arm the
        // reaper once the lock is released. (It lazily re-checks progress
        // on expiry, so per-chunk re-arming is unnecessary.)
        arm_reaper =
            !done && slot.reaper.is_none() && inner.cfg.reassembly_timeout.is_some();
        if done {
            let asm = st.reassembly.remove(&key).expect("entry just completed");
            // The transfer is whole: the reclamation timer is dead weight
            // in the kernel queue — retract it.
            if let Some(h) = asm.reaper {
                inner.sim.cancel_scheduled(h);
            }
            let mut v = Vec::with_capacity(
                asm.parts.iter().map(|p| p.as_ref().map_or(0, Bytes::len)).sum(),
            );
            for p in asm.parts {
                v.extend_from_slice(&p.expect("all chunks present"));
            }
            st.stash.push_back(NcsMsg {
                from,
                to_thread,
                tag: user_tag,
                data: Bytes::from(v),
                class: MsgClass::Data,
                causal,
            });
            st.peak_stash = st.peak_stash.max(st.stash.len());
            st.reassembled_msgs += 1;
        }
        done
    };
    if complete && causal != 0 {
        let t = inner.sim.now();
        inner.sim.with_metrics(|mm| mm.mark(causal, "reassembled", t));
    }
    if let Some(expected) = mismatch {
        malformed(format!(
            "transfer {xfer} declares {total} chunks, earlier chunks declared {expected}"
        ));
    }
    if arm_reaper {
        arm_reassembly_reaper(inner, key);
    }
    if complete {
        grant_credit(inner, tier, from.proc);
    }
}

/// Arms the reclamation timer for one partial reassembly buffer at
/// `last_progress + reassembly_timeout`. The expiry re-checks progress, so
/// chunks landing meanwhile simply push the deadline out.
fn arm_reassembly_reaper(inner: &Arc<ProcInner>, key: (usize, u32)) {
    let Some(timeout) = inner.cfg.reassembly_timeout else {
        return;
    };
    let deadline = {
        let st = inner.state.lock();
        match st.reassembly.get(&key) {
            Some(asm) => asm.last_progress + timeout,
            None => return, // completed (or reclaimed) meanwhile
        }
    };
    let sim = inner.sim.clone();
    let cb_inner = Arc::clone(inner);
    let handle = sim.schedule_cancellable(deadline, move |sim| {
        reasm_reaper_fire(&cb_inner, sim, key);
    });
    let mut st = inner.state.lock();
    match st.reassembly.get_mut(&key) {
        Some(asm) => {
            if let Some(old) = asm.reaper.replace(handle) {
                inner.sim.cancel_scheduled(old);
            }
        }
        None => {
            // Completed (or reclaimed) meanwhile: retract the fresh timer.
            sim.cancel_scheduled(handle);
        }
    }
}

/// Expiry of a reassembly reclamation timer: if the transfer has seen no
/// chunk for a full `reassembly_timeout`, its sender is gone (crash-stop,
/// give-up) — drop the partial buffers so receiver memory is not leaked;
/// otherwise re-arm from the latest progress.
fn reasm_reaper_fire(inner: &Arc<ProcInner>, sim: &Sim, key: (usize, u32)) {
    let timeout = inner.cfg.reassembly_timeout.expect("reaper only armed when set");
    let reclaimed = {
        let mut st = inner.state.lock();
        match st.reassembly.get(&key) {
            None => return, // completed meanwhile
            Some(asm) if sim.now().saturating_since(asm.last_progress) >= timeout => {
                st.reassembly.remove(&key);
                st.reassembly_reclaimed += 1;
                true
            }
            Some(_) => false,
        }
    };
    if reclaimed {
        inner.sim.with_metrics(|mm| mm.inc("reasm.reclaimed", 1));
    } else {
        arm_reassembly_reaper(inner, key);
    }
}

/// Moves one delivery into the stash, charging receive-side protocol cost
/// and running class-specific plumbing (credits).
fn ingest(inner: &Arc<ProcInner>, m: &MtsCtx, tier: usize, d: Delivery) {
    let net = &inner.nets[tier];
    let cost = net.recv_pickup_cost(NodeId(inner.id as u32), d.payload.len());
    m.ctx().sleep(cost);
    // Resolve the sender's wire-key binding back to its causal timeline
    // (0 for control traffic and untracked frames). Stage marks are only
    // stamped on the accepted paths below, so duplicates and corrupted
    // frames never disorder a timeline.
    let causal = inner
        .sim
        .with_metrics(|mm| mm.resolve_wire(wire_key(d.src.idx(), inner.id, d.tag, d.sent_at)))
        .unwrap_or(0);
    let t_arrived = d.arrived_at;
    let t_picked = m.ctx().now();
    let (class, from_thread, to_thread, user_tag) = decode_tag(d.tag);
    let from = ThreadAddr::new(d.src.idx(), from_thread);
    let mut payload = d.payload;
    // Error control: verify framed data; acknowledge or request retransmit.
    if inner.cfg.error == ErrorControl::ChecksumRetransmit
        && matches!(class, MsgClass::Data | MsgClass::Frag)
    {
        let (seq, reply_class, duplicate) = match unwrap_checked(&payload) {
            Ok((seq, clean)) => {
                payload = clean;
                let dup = inner
                    .state
                    .lock()
                    .seen_seqs
                    .entry(from.proc)
                    .or_default()
                    .observe(seq);
                (seq, MsgClass::Ack, dup)
            }
            Err(FrameError::BadCrc { seq }) => (seq, MsgClass::Nack, false),
            Err(FrameError::Runt) => {
                // No sequence number to name: a NACK would have to invent
                // one, and could trigger the retransmission of an unrelated
                // frame in flight. Drop it; the sender's RTO recovers.
                inner.state.lock().malformed_frames += 1;
                if inner.cfg.analysis.active() {
                    inner.cfg.analysis.report(
                        "malformed-frame",
                        format!("proc{}", inner.id),
                        format!(
                            "{}-byte frame from proc{} is shorter than the \
                             {CHECKED_HEADER_BYTES}-byte error-control header",
                            payload.len(),
                            from.proc
                        ),
                    );
                }
                return;
            }
        };
        {
            let mut st = inner.state.lock();
            st.send_q.push_back(SendReq {
                from_thread: 0,
                to: ThreadAddr::new(from.proc, 0),
                class: reply_class,
                user_tag: seq,
                data: Bytes::new(),
                tier,
                waiter: None,
                prewrapped: false,
                seq: None,
                causal: 0,
            });
        }
        if let Some(tid) = inner.sys.lock().send {
            inner.mts.unblock(&inner.sim, tid);
        }
        if reply_class == MsgClass::Nack {
            return; // drop the corrupted frame; the sender retransmits
        }
        if duplicate {
            inner.state.lock().dup_suppressed += 1;
            return; // re-ACKed above; already delivered once
        }
    }
    match class {
        MsgClass::Ack => {
            let seq = user_tag;
            let mut spurious = false;
            let mut restart = false;
            let (wake_send, empty_after, shutdown) = {
                let mut st = inner.state.lock();
                // Monotonicity: an ACK can only name a sequence number this
                // process has already allocated toward that peer. Wrap-aware:
                // the valid numbers are the `total` values on the u32 circle
                // ending just before `next_seq`.
                if inner.cfg.analysis.active() {
                    let total = st.seqs_allocated.get(&from.proc).copied().unwrap_or(0);
                    let next = st.next_seq.get(&from.proc).copied().unwrap_or(0);
                    let back = next.wrapping_sub(1).wrapping_sub(seq);
                    let valid =
                        total > 0 && (total >= (1u64 << 32) || u64::from(back) < total);
                    if !valid {
                        inner.cfg.analysis.report(
                            "ack-unallocated-seq",
                            format!("proc{}", inner.id),
                            format!(
                                "ACK from proc{} names seq {seq}, outside the {total} \
                                 sequence numbers ever allocated toward it",
                                from.proc
                            ),
                        );
                    }
                }
                if let Some(u) = st.unacked.remove(&(from.proc, seq)) {
                    if !u.retransmitted {
                        // Karn's rule: only frames never retransmitted give
                        // unambiguous round-trip samples.
                        if let Some(sent) = u.sent_at {
                            let rtt = m.ctx().now().since(sent);
                            st.rtt.entry(from.proc).or_default().observe(rtt);
                            st.rtt_samples += 1;
                        }
                    } else {
                        // An ACK for a frame already retransmitted: either
                        // echo is ambiguous (Karn bars the sample), and the
                        // retransmission may well have been unnecessary —
                        // count it. Stop backing off: the peer is alive.
                        st.spurious_retx += 1;
                        spurious = true;
                        st.rtt.entry(from.proc).or_default().backoff_exp = 0;
                    }
                    // One loss-recovery timer per destination, timing the
                    // oldest frame on the wire: a partial acknowledgment
                    // restarts it (the new oldest frame gets a full RTO
                    // from now), the final one retracts it — rather than
                    // paying a stale-timer event at RTO expiry (and, for
                    // the last frame, dragging end_time out to the
                    // timeout horizon).
                    if st.unacked.keys().any(|&(d, _)| d == from.proc) {
                        restart = true;
                    } else {
                        cancel_retx_timer(inner, &mut st, from.proc);
                    }
                }
                // A freed I/O buffer reopens the pipelined send window.
                let mut wake = false;
                if st.send_waiting_ack == Some(from.proc) {
                    st.send_waiting_ack = None;
                    wake = true;
                }
                (wake, st.unacked.is_empty(), st.shutdown)
            };
            if spurious {
                inner.sim.with_metrics(|mm| mm.inc("retx.spurious", 1));
            }
            if restart {
                restart_retx_timer(inner, from.proc);
            }
            if wake_send || empty_after {
                if let Some(tid) = inner.sys.lock().send {
                    inner.mts.unblock(&inner.sim, tid);
                }
            }
            if empty_after && shutdown {
                signal_quiescent(inner);
            }
        }
        MsgClass::Nack => {
            let seq = user_tag;
            let (resend, deferred) = {
                let mut st = inner.state.lock();
                let at_cap = st.send_q.iter().filter(|r| r.prewrapped).count()
                    >= inner.cfg.retx_queue_cap.max(1);
                match st.unacked.get_mut(&(from.proc, seq)) {
                    Some(_) if at_cap => {
                        // Bounded retransmit queue: skip the NACK-driven
                        // resend; the destination's loss-recovery timer is
                        // still armed and will retry once the queue drains.
                        st.retx_deferred += 1;
                        (None, true)
                    }
                    Some(u) => {
                        u.retransmitted = true; // Karn: timing now ambiguous
                        let req = SendReq {
                            from_thread: u.from_thread,
                            to: u.to,
                            class: u.class,
                            user_tag: u.user_tag,
                            data: u.wrapped.clone(),
                            tier: u.tier,
                            waiter: None,
                            prewrapped: true,
                            seq: None,
                            causal: 0,
                        };
                        st.retransmits += 1;
                        st.send_q.push_back(req);
                        (Some(()), false)
                    }
                    None => (None, false),
                }
            };
            if deferred {
                inner.sim.with_metrics(|mm| mm.inc("retx.backpressure", 1));
            }
            if resend.is_some() {
                if let Some(tid) = inner.sys.lock().send {
                    inner.mts.unblock(&inner.sim, tid);
                }
            }
        }
        MsgClass::Exception => {
            raise_local_exception(
                inner,
                NcsException {
                    from,
                    code: user_tag,
                    detail: payload,
                },
            );
        }
        MsgClass::Credit => {
            let wake = {
                let mut st = inner.state.lock();
                let c = st.credits.entry(from.proc).or_insert(0);
                *c += user_tag;
                let total = *c;
                // Conservation: credits in flight plus credits held can
                // never exceed the window the receiver seeded.
                if inner.cfg.analysis.active() {
                    if let FlowControl::Credit { window } = inner.cfg.flow {
                        if total > window {
                            inner.cfg.analysis.report(
                                "credit-conservation",
                                format!("proc{}", inner.id),
                                format!(
                                    "credits toward proc{} reached {total}, window {window}",
                                    from.proc
                                ),
                            );
                        }
                    }
                }
                st.send_waiting_credit == Some(from.proc)
            };
            if wake {
                let send = inner.sys.lock().send;
                if let Some(tid) = send {
                    inner.state.lock().send_waiting_credit = None;
                    inner.mts.unblock(&inner.sim, tid);
                }
            }
        }
        MsgClass::Frag => {
            if causal != 0 {
                inner.sim.with_metrics(|mm| {
                    mm.mark(causal, "arrived", t_arrived);
                    mm.mark(causal, "picked", t_picked);
                });
            }
            ingest_fragment(inner, tier, from, to_thread, user_tag, payload, causal);
        }
        _ => {
            if causal != 0 {
                inner.sim.with_metrics(|mm| {
                    mm.mark(causal, "arrived", t_arrived);
                    mm.mark(causal, "picked", t_picked);
                });
            }
            {
                let mut st = inner.state.lock();
                st.stash.push_back(NcsMsg {
                    from,
                    to_thread,
                    tag: user_tag,
                    data: payload,
                    class,
                    causal,
                });
                st.peak_stash = st.peak_stash.max(st.stash.len());
            }
            if class == MsgClass::Data {
                grant_credit(inner, tier, from.proc);
            }
        }
    }
}

#[cfg(test)]
mod rto_tests {
    use super::*;

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
    fn from_base_scales_all_three_knobs() {
        let r = RtoConfig::from_base(Dur::from_millis(20));
        // Pre-sample RTO sits at the ceiling (RFC 6298-style conservative
        // initial): a first-frame timer below the real path RTT would fire
        // a guaranteed-spurious retransmission.
        assert_eq!(r.initial, Dur::from_millis(320));
        assert_eq!(r.min, Dur::from_millis(5));
        assert_eq!(r.max, Dur::from_millis(320));
    }
}

#[cfg(test)]
mod framing_tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 + 5) as u8).collect()
    }

    #[test]
    fn wire_format_is_pinned() {
        // [seq LE][crc LE]data, CRC-32/BZIP2 over seq ‖ data. The frame was
        // computed independently of this crate; it must never drift.
        let frame = wrap_checked(0x0102_0304, &[], b"NCS/ATM");
        let pinned: [u8; 15] = [
            0x04, 0x03, 0x02, 0x01, // seq
            0xbc, 0x73, 0x16, 0x68, // crc 0x681673bc
            0x4e, 0x43, 0x53, 0x2f, 0x41, 0x54, 0x4d, // "NCS/ATM"
        ];
        assert_eq!(&frame[..], &pinned[..]);
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        for n in [0, 1, 7, 8, 9, 64, 4096, 16 * 1024] {
            let data = payload(n);
            let seq = 0xFFFF_FF00u32.wrapping_add(n as u32);
            let frame = wrap_checked(seq, &[], &data);
            assert_eq!(frame.len(), CHECKED_HEADER_BYTES + n);
            let (got_seq, got) = unwrap_checked(&frame).expect("clean frame");
            assert_eq!(got_seq, seq);
            assert_eq!(&got[..], &data[..], "payload of {n} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = wrap_checked(42, &[], &payload(64 - CHECKED_HEADER_BYTES));
        assert_eq!(frame.len(), 64);
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    unwrap_checked(&Bytes::from(bad)),
                    Err(FrameError::BadCrc { .. })
                ),
                "flip of bit {bit} accepted"
            );
        }
    }

    #[test]
    fn runt_frame_has_no_sequence_number() {
        let frame = wrap_checked(7, &[], &[]);
        assert!(unwrap_checked(&frame).is_ok(), "header-only frame is legal");
        for n in 0..CHECKED_HEADER_BYTES {
            assert_eq!(unwrap_checked(&frame.slice(..n)), Err(FrameError::Runt));
        }
    }

    #[test]
    fn fragment_frame_equals_wrapped_header_and_chunk() {
        // The send path builds [seq][crc][xfer][idx][total][chunk] in one
        // allocation from two parts; the bytes must be those of wrapping the
        // concatenated payload.
        let chunk = payload(1000);
        let header = frag_header(0xA1B2_C3D4, 3, 9);
        assert_eq!(
            header,
            [0xD4, 0xC3, 0xB2, 0xA1, 3, 0, 0, 0, 9, 0, 0, 0],
            "chunk header layout"
        );
        let joined = [&header[..], &chunk[..]].concat();
        let frame = wrap_checked(77, &header, &chunk);
        assert_eq!(frame, wrap_checked(77, &[], &joined));
        let (seq, data) = unwrap_checked(&frame).expect("clean frame");
        assert_eq!(seq, 77);
        assert_eq!(&data[..], &joined[..]);
    }
}
