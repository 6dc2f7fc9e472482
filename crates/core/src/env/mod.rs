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
//! system threads, which is exactly the modularity argument of Section 3 —
//! and, under error control, the same sequenced path as data.
//!
//! The module is laid out along the paper's pieces:
//!
//! | file | paper service | owns |
//! |---|---|---|
//! | `config` | the arguments of `NCS_init` | [`NcsConfig`] and its parts |
//! | `frame` | error control, on the wire | the checked-frame format |
//! | `peer` | error + flow control threads | one `Peer` record per remote process |
//! | `reassembly` | Approach 2 I/O buffers, receive side | the chunk format and partial transfers |
//! | `request` | `NCS_wait` and friends | the request table and completion queue |
//! | `term` | `NCS_end` | the collective termination barrier |
//! | `send` | the send thread | the send queue's consumer, gates and timers |
//! | `recv` | the receive thread | ingest, matching, credit grants |
//! | `proc`, `ctx` | the primitives of Figure 10 | [`NcsProc`], [`NcsCtx`] |
//!
//! `peer`, `reassembly` and `request` are plain state machines with no
//! simulator in sight; `send` and `recv` drive them and are the only places
//! that touch timers, the scheduler and the wire. This file holds what they
//! all share: the per-process state behind one lock and its small helpers.

mod config;
mod ctx;
mod frame;
mod peer;
mod proc;
mod reassembly;
mod recv;
mod request;
mod send;
mod term;

pub use config::{
    ErrorControl, FlowControl, NcsConfig, RtoConfig, EXC_DELIVERY_FAILED, RETX_QUEUE_CAP,
};
pub(crate) use config::{RECV_THREAD_PRIORITY, SEND_THREAD_PRIORITY};
pub use ctx::NcsCtx;
pub(crate) use frame::FrameError;
pub use frame::{unwrap_checked, wrap_checked};
pub use peer::ErrorStats;
pub use proc::NcsProc;
pub(crate) use request::NcsRequest;
pub(crate) use term::TermBarrier;

use bytes::Bytes;
use ncs_mts::{Mts, MtsTid};
use ncs_net::{Delivery, Network};
use ncs_sim::sync::Mutex;
use ncs_sim::{Sim, SimChannel};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};

use crate::addr::{MsgClass, ThreadAddr};
use peer::Peer;
use request::RequestTable;

/// A message delivered to an NCS thread.
#[derive(Clone, Debug)]
pub struct NcsMsg {
    /// Sending endpoint.
    pub from: ThreadAddr,
    /// Receiving thread (within this process).
    pub(crate) to_thread: u32,
    /// User tag.
    pub tag: u32,
    /// Payload.
    pub data: Bytes,
    class: MsgClass,
    /// Causal timeline id threaded from `NCS_send` to delivery (0 when the
    /// message is untracked: local delivery, control traffic).
    causal: u64,
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

/// Callback invoked for incoming exceptions.
pub(crate) type ExceptionHandler = Box<dyn Fn(&NcsException) + Send + 'static>;

/// One entry of the send queue.
#[derive(Clone)]
struct SendReq {
    from_thread: u32,
    to: ThreadAddr,
    class: MsgClass,
    user_tag: u32,
    data: Bytes,
    /// Transport tier index ([`NcsProc`] can carry several, e.g. NSM + HSM).
    tier: usize,
    /// Request-table slot to complete once the transfer is done (None for
    /// system-generated traffic like credits, which is what may pass a
    /// gated send thread; the blocking `NCS_send` rides the same handle
    /// machinery via its post+wait wrapper).
    waiter: Option<u32>,
    /// Sequencing: none yet, a first transmission, or a retransmission.
    state: FrameState,
    /// Causal timeline id (0 = untracked). Chunks of one fragmented
    /// transfer all carry the logical message's id.
    causal: u64,
}

impl SendReq {
    /// A first transmission nobody waits for and nothing tracks; callers
    /// set the remaining fields they need.
    fn new(
        from_thread: u32,
        to: ThreadAddr,
        class: MsgClass,
        user_tag: u32,
        data: Bytes,
        tier: usize,
    ) -> Self {
        SendReq {
            from_thread,
            to,
            class,
            user_tag,
            data,
            tier,
            waiter: None,
            state: FrameState::Unsequenced,
            causal: 0,
        }
    }

    /// System-generated control traffic (credit grant, ACK, NACK) toward
    /// process `to`, its one word of content riding the tag.
    fn control(class: MsgClass, to: usize, word: u32, tier: usize) -> Self {
        SendReq::new(0, ThreadAddr::new(to, 0), class, word, Bytes::new(), tier)
    }
}

/// Where a queued frame stands under error control.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrameState {
    /// Carries no sequence number (yet): ACKs and NACKs, every frame
    /// without error control, and a sequenced class's frame until the send
    /// thread wraps it.
    Unsequenced,
    /// A first transmission wrapped under this sequence number: after the
    /// wire send it stamps the frame's RTT clock and arms the
    /// retransmission timer.
    First(u32),
    /// A retransmission: the payload already carries the error-control
    /// header.
    Retransmit,
}

/// What a receive is willing to take (`None` = the paper's `-1` wildcard).
#[derive(Clone, Copy)]
struct Match {
    to_thread: u32,
    class: MsgClass,
    from_proc: Option<usize>,
    from_thread: Option<u32>,
    tag: Option<u32>,
}

impl Match {
    fn accepts(&self, m: &NcsMsg) -> bool {
        m.class == self.class
            && m.to_thread == self.to_thread
            && self.from_proc.is_none_or(|p| p == m.from.proc)
            && self.from_thread.is_none_or(|t| t == m.from.thread)
            && self.tag.is_none_or(|t| t == m.tag)
    }
}

/// A posted receive the stash could not satisfy yet; completes request
/// slot `slot` when a matching message arrives.
struct RecvReq {
    slot: u32,
    want: Match,
}

/// Why the send thread is parked mid-transfer (indexes
/// [`MpsState::send_waiting`]).
#[derive(Clone, Copy)]
enum Gate {
    /// For a credit from the destination.
    Credit,
    /// For an acknowledgment to free an I/O buffer toward the destination
    /// (pipelined chunked transfer).
    IoBuffer,
}

/// The [`Peer`] table: one lazily-created record per remote process.
#[derive(Default)]
struct Peers {
    map: BTreeMap<usize, Peer>,
    /// Credits a new record starts with: the window under credit flow
    /// control (what the receiver will let this process have in flight).
    credit_seed: u32,
}

impl Peers {
    fn get(&mut self, id: usize) -> &mut Peer {
        let seed = self.credit_seed;
        self.map.entry(id).or_insert_with(|| Peer::new(seed))
    }

    /// The route to `id` is up again: see [`Peer::heal`].
    fn heal(&mut self, id: usize) {
        let seed = self.credit_seed;
        self.get(id).heal(seed);
    }

    fn find(&self, id: usize) -> Option<&Peer> {
        self.map.get(&id)
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Peer)> {
        self.map.iter().map(|(&id, p)| (id, p))
    }
}

/// Everything the system threads and the API share, behind one lock.
#[derive(Default)]
struct MpsState {
    send_q: VecDeque<SendReq>,
    /// Retransmissions currently in `send_q` (bounded by
    /// [`RETX_QUEUE_CAP`]).
    retx_queued: usize,
    recv_reqs: Vec<RecvReq>,
    /// Messages buffered awaiting a matching receive, and the high-water
    /// mark of their count.
    stash: VecDeque<NcsMsg>,
    peak_stash: usize,
    peers: Peers,
    /// The destination the send thread is (or last was) parked on, per
    /// [`Gate`].
    send_waiting: [Option<usize>; 2],
    shutdown: bool,
    user_live: usize,
    /// Statistics: data messages sent / received.
    sent_msgs: u64,
    recv_msgs: u64,
    /// Chunked-transfer id allocator (pipelined data path).
    next_xfer_id: u32,
    /// Error-control counters (the snapshot fills in the per-peer lists).
    errs: ErrorStats,
    /// Statistics: data messages that went out chunked through the
    /// I/O-buffer pool, chunks transmitted (first transmissions only),
    /// chunked transfers reassembled to completion.
    fragmented_msgs: u64,
    fragments_sent: u64,
    reassembled_msgs: u64,
    /// Request table backing the completion-based API.
    reqs: RequestTable,
}

impl MpsState {
    fn push_send(&mut self, req: SendReq) {
        self.retx_queued += usize::from(req.state == FrameState::Retransmit);
        self.send_q.push_back(req);
    }

    /// Removes the queued request at `pos` (the head, or the first the
    /// caller's scan selected).
    fn take_send(&mut self, pos: usize) -> Option<SendReq> {
        let req = self.send_q.remove(pos)?;
        self.retx_queued -= usize::from(req.state == FrameState::Retransmit);
        Some(req)
    }

    fn retx_queue_full(&self) -> bool {
        self.retx_queued >= RETX_QUEUE_CAP
    }

    fn stash_msg(&mut self, msg: NcsMsg) {
        self.stash.push_back(msg);
        self.peak_stash = self.peak_stash.max(self.stash.len());
    }

    fn take_from_stash(&mut self, want: &Match) -> Option<NcsMsg> {
        let pos = self.stash.iter().position(|m| want.accepts(m))?;
        self.stash.remove(pos)
    }

    /// Whether the send thread's last park at `gate` was on `dst`; clears
    /// the mark if so (the caller is about to wake it, or the wait is moot).
    fn clear_waiting(&mut self, gate: Gate, dst: usize) -> bool {
        let waiting = &mut self.send_waiting[gate as usize];
        let was = *waiting == Some(dst);
        if was {
            *waiting = None;
        }
        was
    }

    /// No frame toward any peer awaits acknowledgment.
    fn all_acked(&self) -> bool {
        self.peers.iter().all(|(_, p)| p.unacked.is_empty())
    }

    /// Shutdown was requested and no frame awaits acknowledgment.
    fn quiescent(&self) -> bool {
        self.shutdown && self.all_acked()
    }
}

/// The two system threads, spawned once by `NCS_init`.
struct SysThreads {
    send: MtsTid,
    recv: MtsTid,
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
    sys: OnceLock<SysThreads>,
    /// The MTS tid of each logical user thread, in `t_create` order.
    users: Mutex<Vec<MtsTid>>,
    /// Exception handler invoked (on the receive system thread) for
    /// incoming Exception-class messages.
    exception_handler: Mutex<Option<ExceptionHandler>>,
    /// Exceptions received before a handler was installed, or kept for
    /// polling-style consumers.
    pending_exceptions: Mutex<Vec<NcsException>>,
    /// Collective termination barrier shared by all processes of one
    /// [`crate::NcsWorld`]: the one teardown path.
    term: Arc<TermBarrier>,
}

impl ProcInner {
    fn sys(&self) -> &SysThreads {
        self.sys
            .get()
            .expect("system threads are spawned by NCS_init")
    }

    /// Wakes the send thread: there is work in the send queue, a gate may
    /// have opened, or it is time to drain and exit.
    fn wake_send(&self) {
        self.mts.unblock(&self.sim, self.sys().send);
    }

    /// Ends the receive thread's kernel wait, if it is in one: it finds the
    /// merged queue closed and exits (teardown).
    fn end_recv_wait(&self) {
        self.mts.end_kernel_wait(self.sys().recv);
    }

    /// Reports a protocol-invariant violation under the analysis pass:
    /// `violation` (evaluated only when the pass is on) describes it, or
    /// finds nothing wrong.
    fn audit(&self, check: &'static str, violation: impl FnOnce() -> Option<String>) {
        if self.cfg.analysis.active() {
            if let Some(what) = violation() {
                self.cfg
                    .analysis
                    .report(check, format!("proc{}", self.id), what);
            }
        }
    }

    /// Delivers an exception to the local handler, or buffers it for later.
    fn raise(&self, exc: NcsException) {
        match self.exception_handler.lock().as_ref() {
            Some(h) => h(&exc),
            None => self.pending_exceptions.lock().push(exc),
        }
    }

    /// Declares user sends failed, each given as its `(destination, tag)`:
    /// counts them in [`ErrorStats::delivery_failures`] and raises
    /// [`EXC_DELIVERY_FAILED`] for each — the one place either happens.
    /// Every user send that can never complete passes here exactly once,
    /// reported by whoever holds it: the path that has it in hand until it
    /// is registered for retransmission, the give-up purge after that (a
    /// chunked transfer is registered with its last chunk). Called without
    /// the state lock: the exception handler is user code.
    fn fail_sends(&self, sends: &[(ThreadAddr, u32)]) {
        self.state.lock().errs.delivery_failures += sends.len() as u64;
        for &(to, tag) in sends {
            self.raise(NcsException {
                from: to,
                code: EXC_DELIVERY_FAILED,
                detail: Bytes::from(tag.to_le_bytes().to_vec()),
            });
        }
    }
}

/// Every causal stage any timeline may visit, in global order. A tracked
/// data message walks `enqueued` … `delivered` from `NCS_send` to
/// `NCS_recv`: chunked transfers visit `reassembled`, monolithic ones skip
/// it, and `retransmitted` — the departure of the accepted copy, when it
/// was not the first — appears only if error control had to recover the
/// message. Consecutive present stages are contiguous, so their diffs sum
/// exactly to the end-to-end latency. An async request (`NCS_isend` /
/// `NCS_irecv` handle) walks `posted` → `progressed` (the progress engine
/// first picks it up) → `completed` on its own timeline; those two diffs
/// telescope exactly to `obs.req_e2e`. Timeline validators check both kinds
/// against this one merged order.
pub const ALL_STAGES: [&str; 11] = [
    "posted",
    "enqueued",
    "sq_popped",
    "progressed",
    "wire_start",
    "retransmitted",
    "arrived",
    "picked",
    "reassembled",
    "delivered",
    "completed",
];

/// Latency-component histogram fed by the stage *ending* at this mark.
pub(crate) fn causal_component(stage: &str) -> &'static str {
    match stage {
        "sq_popped" => "obs.queue_wait",
        "wire_start" => "obs.inject",
        // Loss recovery is wire time too: `wire_start → retransmitted` is
        // what the copies that died cost, `retransmitted → arrived` the
        // flight of the one that made it.
        "retransmitted" | "arrived" => "obs.wire",
        "picked" => "obs.pickup",
        "reassembled" => "obs.reassembly",
        "delivered" => "obs.deliver",
        // Request-lifecycle timelines (async handles).
        "progressed" => "obs.req_wait",
        "completed" => "obs.req_service",
        _ => "obs.other",
    }
}

/// The registry key under which a sender binds a message's causal id and its
/// receiver claims it: the (source, destination) pair packed into one word,
/// the wire tag, and one word telling transmissions under that tag apart.
/// The source is part of the key because two senders can put the same tag on
/// the wire toward one destination at the same instant (the first round of a
/// gather does). The last word is the departure instant in picoseconds for
/// an unchecked frame, which goes out once, and the error-control sequence
/// number for a checked one: every copy of the frame then answers to the one
/// key, so whichever copy is accepted first claims the timeline — a
/// retransmission racing its original orphans neither — and a copy that
/// never arrives leaves no key behind. (Only a frame never delivered at all
/// keeps its key, beside the timeline it keeps anyway.)
fn wire_key(src: usize, dst: usize, tag: u64, instance: u64) -> (u64, u64, u64) {
    (((src as u64) << 32) | dst as u64, tag, instance)
}
