//! The send system thread: serializes outgoing transfers, gates fresh data
//! on credits and I/O buffers, chunks large messages, and runs the
//! per-destination loss-recovery timers.

use bytes::Bytes;
use ncs_mts::MtsCtx;
use ncs_net::stack::WaitPolicy;
use ncs_net::NodeId;
use ncs_sim::{Ctx, Dur};
use std::sync::Arc;

use super::peer::{Peer, TimeoutAction};
use super::reassembly::frag_header;
use super::request::{complete_request, mark_progressed};
use super::term::may_teardown;
use super::{
    wire_key, wrap_checked, ErrorControl, FlowControl, FrameState, Gate, MpsState, ProcInner,
    SendReq,
};
use crate::addr::{encode_tag, MsgClass};

/// MTS-aware wait policy: wire waits block only the calling (system)
/// thread, letting sibling compute threads use the CPU — the heart of the
/// paper's computation/communication overlap.
struct MtsWait<'a, 'b>(&'a MtsCtx<'b>);

impl WaitPolicy for MtsWait<'_, '_> {
    fn wait(&self, _ctx: &Ctx, d: Dur) {
        self.0.sleep(d);
    }
}

/// Whether every route from this process to `dst` over `tier` is inside an
/// outage window right now.
fn unreachable(inner: &ProcInner, tier: usize, dst: usize) -> bool {
    let (me, dst) = (NodeId(inner.id as u32), NodeId(dst as u32));
    inner.nets[tier].peer_unreachable(me, dst, inner.sim.now())
}

/// (Re)arms the loss-recovery timer toward `dst` at `now + RTO(dst)`,
/// replacing any armed one. One timer per destination, TCP-style, timing
/// the **oldest** frame on the wire: restarted on every partial
/// acknowledgment (so under deep pipelining a later frame's queueing delay
/// behind its siblings never counts against its own timeout) and after
/// each timer-driven retransmission (with the backed-off RTO).
pub(super) fn arm_retx_timer(inner: &Arc<ProcInner>, st: &mut MpsState, dst: usize) {
    let p = st.peers.get(dst);
    let cb = Arc::clone(inner);
    let handle =
        inner
            .sim
            .schedule_cancellable(inner.sim.now() + p.rto(&inner.cfg.rto), move |_| {
                retx_fire(&cb, dst);
            });
    if let Some(old) = p.timer.replace(handle) {
        // Replaced: retract the superseded timer from the kernel queue, so
        // it never fires.
        inner.sim.cancel_scheduled(old);
    }
}

/// Expiry of the loss-recovery timer toward `dst`: asks the peer record
/// what to do ([`Peer::on_timeout`]) and does it.
fn retx_fire(inner: &Arc<ProcInner>, dst: usize) {
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    let queue_full = st.retx_queue_full();
    let p = st.peers.get(dst);
    let fired = p.timer.take();
    debug_assert!(fired.is_some(), "a retracted timer toward proc{dst} fired");
    let max_retries = inner.cfg.max_retries;
    let action = p.on_timeout(
        |tier| unreachable(inner, tier, dst),
        max_retries,
        queue_full,
        &mut st.errs,
    );
    match action {
        TimeoutAction::Idle => {}
        TimeoutAction::Retransmit {
            frame,
            seq,
            retries,
        } => {
            // Budget accounting: the give-up branch must fire before a
            // frame can exceed its configured retry budget.
            inner.audit("retransmit-budget", || {
                (retries > max_retries).then(|| {
                    format!(
                        "frame (proc{dst}, seq {seq}) at {retries} retries exceeds budget {max_retries}"
                    )
                })
            });
            st.push_send(frame);
            inner.wake_send();
            arm_retx_timer(inner, st, dst);
        }
        TimeoutAction::Deferred => arm_retx_timer(inner, st, dst),
        TimeoutAction::Failed(failed) => {
            // Unwedge a send thread parked on the peer's credits or I/O
            // buffers: neither will ever come.
            st.clear_waiting(Gate::Credit, dst);
            st.clear_waiting(Gate::IoBuffer, dst);
            let quiescent = st.quiescent();
            drop(guard);
            inner.fail_sends(&failed);
            // Wake the send thread unconditionally: it may be parked on
            // credits for the unreachable peer, or draining for shutdown.
            inner.wake_send();
            if quiescent {
                inner.term.proc_ready(inner.id);
            }
        }
    }
}

/// Allocates a sequence number toward `req.to`, makes `req` the first
/// transmission of the wrapped payload `head ‖ body` (the old `req.data` is
/// not read: a chunk's payload exists only inside its wire frame), and keeps
/// a copy for retransmission. Must only be called with checksum/retransmit
/// error control active; [`sequence`] is the whole-payload form that checks.
fn register_unacked(
    inner: &ProcInner,
    st: &mut MpsState,
    req: &mut SendReq,
    head: &[u8],
    body: &[u8],
) {
    let p = st.peers.get(req.to.proc);
    let seq = p.alloc_seq();
    req.data = wrap_checked(seq, head, body);
    req.state = FrameState::First(seq);
    let mut frame = SendReq::new(
        req.from_thread,
        req.to,
        req.class,
        req.user_tag,
        req.data.clone(),
        req.tier,
    );
    frame.state = FrameState::Retransmit;
    if !p.register(seq, frame) {
        // Monotonicity: a freshly allocated sequence number must never
        // collide with a frame still awaiting acknowledgement.
        inner.audit("seq-monotonicity", || {
            Some(format!(
                "seq {seq} toward proc{} re-allocated while still unacknowledged",
                req.to.proc
            ))
        });
    }
}

/// Under checksum/retransmit error control, sequences and checksums a
/// first transmission of a [sequenced](MsgClass::sequenced) class and keeps
/// it for retransmission until acknowledged; otherwise leaves it as it is.
pub(super) fn sequence(inner: &ProcInner, st: &mut MpsState, req: &mut SendReq) {
    if inner.cfg.error == ErrorControl::ChecksumRetransmit {
        let body = std::mem::take(&mut req.data);
        register_unacked(inner, st, req, &[], &body);
    }
}

/// Puts one request on the wire and runs its post-send bookkeeping: RTT
/// stamp + retransmission timer for checked frames, the sent counter, and
/// the blocked sender's wakeup.
fn transmit_one(inner: &Arc<ProcInner>, m: &MtsCtx, req: SendReq) {
    let tag = encode_tag(req.class, req.from_thread, req.to.thread, req.user_tag);
    let dst = req.to.proc;
    if req.causal != 0 {
        // The wire tag is fully packed, so the causal id cannot ride it.
        // Correlate across processes through the shared registry instead
        // (see `wire_key`): a checked frame is bound here, once, under its
        // sequence number — its retransmissions carry no causal id and
        // need none; an unchecked one under its departure instant — the
        // transport stamps `sent_at = now()` at its entry, which is exactly
        // this instant.
        let t = m.now();
        let instance = match req.state {
            FrameState::First(seq) => u64::from(seq),
            _ => t.as_ps(),
        };
        inner.sim.with_metrics(|mm| {
            mm.mark(req.causal, "wire_start", t);
            mm.bind_wire(wire_key(inner.id, dst, tag, instance), req.causal);
        });
    }
    inner.nets[req.tier].send(
        m.ctx(),
        &MtsWait(m),
        NodeId(inner.id as u32),
        NodeId(dst as u32),
        tag,
        req.data,
    );
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    // First transmission of a checked frame: start its RTT clock and make
    // sure the destination's loss-recovery timer is running — armed only if
    // none is: frame N+1 joining an already-timed pipeline must not push
    // frame N's deadline out. Retransmissions are re-armed by `retx_fire`.
    if let FrameState::First(seq) = req.state {
        let p = st.peers.get(dst);
        p.stamp_sent(seq, m.now());
        if p.timer.is_none() && !p.unacked.is_empty() {
            arm_retx_timer(inner, st, dst);
        }
    }
    if req.class == MsgClass::Data {
        st.sent_msgs += 1;
    }
    if let Some(w) = req.waiter {
        complete_request(inner, st, w, None);
    }
}

/// Abandons a queued transfer toward a peer that is dead or cut off and
/// completes the sender's handle. Reports the failure unless the frame was
/// registered for retransmission, which makes it the give-up purge's.
fn abandon(inner: &ProcInner, req: &SendReq) {
    if req.state == FrameState::Unsequenced {
        inner.fail_sends(&[(req.to, req.user_tag)]);
    }
    if let Some(w) = req.waiter {
        complete_request(inner, &mut inner.state.lock(), w, None);
    }
}

/// Transmits queued system traffic — what no user thread posted: credit
/// grants, ACKs, NACKs, retransmissions — while the send thread is gated
/// on credits or I/O buffers. Without this, a gated data send
/// head-of-line-blocks the very frames whose round trip would open the
/// gate — two peers both parked on credits with grants queued behind them
/// would deadlock. Returns whether
/// anything was sent.
fn drain_control(inner: &Arc<ProcInner>, m: &MtsCtx) -> bool {
    let mut any = false;
    loop {
        let req = {
            let mut st = inner.state.lock();
            let pos = st.send_q.iter().position(|r| r.waiter.is_none());
            let Some(req) = pos.and_then(|i| st.take_send(i)) else {
                return any;
            };
            // A retransmission toward a peer declared dead (or partitioned)
            // mid-queue is dropped silently: the purge reported its send.
            let retx = req.state == FrameState::Retransmit;
            if retx && st.peers.find(req.to.proc).is_some_and(Peer::cut_off) {
                continue;
            }
            req
        };
        transmit_one(inner, m, req);
        any = true;
    }
}

/// Parks the send thread until `open` lets a fresh frame toward `dst`
/// through (taking whatever it hands out: a credit, an I/O buffer),
/// draining control traffic meanwhile — the acks and grants that would
/// open the gate may themselves depend on retransmissions (or our own
/// acks) queued behind this transfer. Returns `false` if the peer was
/// declared dead (or cut off by the partition detector) while waiting:
/// the gate will never open.
fn send_gate(
    inner: &Arc<ProcInner>,
    m: &MtsCtx,
    dst: usize,
    gate: Gate,
    mut open: impl FnMut(&mut Peer) -> bool,
) -> bool {
    loop {
        {
            let mut guard = inner.state.lock();
            let st = &mut *guard;
            let p = st.peers.get(dst);
            if p.cut_off() {
                st.send_waiting[gate as usize] = None;
                return false;
            }
            if open(p) {
                return true;
            }
            st.send_waiting[gate as usize] = Some(dst);
        }
        if drain_control(inner, m) {
            continue; // a grant/retransmission went out; recheck
        }
        // Woken when the gate may have opened (or the peer died). Credits
        // and acknowledgments come in through the receive system thread, so
        // record the wait edge toward it for the deadlock analysis; it is
        // External (never Blocked) and cannot close a false cycle.
        m.block_on(inner.sys().recv);
    }
}

/// Spends a credit toward `dst`, waiting for one if need be. Always open
/// without credit flow control.
fn acquire_send_credit(inner: &Arc<ProcInner>, m: &MtsCtx, dst: usize) -> bool {
    !matches!(inner.cfg.flow, FlowControl::Credit { .. })
        || send_gate(inner, m, dst, Gate::Credit, Peer::spend_credit)
}

/// The pipelined Approach-2 data path: chunks one large data message into
/// I/O-buffer-sized CS-PDUs ([`MsgClass::Frag`] frames), keeping up to
/// [`NcsConfig::io_buffers`](super::NcsConfig::io_buffers) of them in
/// flight toward the destination and refilling buffers as acknowledgments
/// free them. One credit covers the whole logical message; the receiver
/// grants it back on reassembly. Until the last chunk is registered for
/// retransmission, a failure of the transfer is this loop's to report
/// ([`Peer::chunking`]).
fn send_fragmented(inner: &Arc<ProcInner>, m: &MtsCtx, req: SendReq) {
    let chunk_bytes = inner.cfg.io_buffer_bytes.max(1);
    let total = req.data.len().div_ceil(chunk_bytes) as u32;
    let window = inner.cfg.io_buffers.max(1) as usize;
    let checked = inner.cfg.error == ErrorControl::ChecksumRetransmit;
    let dst = req.to.proc;
    let xfer = {
        let mut st = inner.state.lock();
        let x = st.next_xfer_id;
        st.next_xfer_id = x.wrapping_add(1);
        x
    };
    let has_buffer = |p: &mut Peer| p.unacked.len() < window;
    let mut peer_died = !acquire_send_credit(inner, m, dst);
    if !peer_died {
        for idx in 0..total {
            // With error control on, at most `window` chunks ride
            // unacknowledged: wait for an I/O buffer to free up.
            if checked && !send_gate(inner, m, dst, Gate::IoBuffer, has_buffer) {
                peer_died = true;
                break;
            }
            let lo = idx as usize * chunk_bytes;
            let hi = (lo + chunk_bytes).min(req.data.len());
            let header = frag_header(xfer, idx, total);
            let body = &req.data[lo..hi];
            let mut chunk = SendReq::new(
                req.from_thread,
                req.to,
                MsgClass::Frag,
                req.user_tag,
                Bytes::new(),
                req.tier,
            );
            chunk.causal = req.causal;
            // Either way the chunk's bytes are copied exactly once, straight
            // into the frame that goes on the wire.
            if checked {
                let mut st = inner.state.lock();
                register_unacked(inner, &mut st, &mut chunk, &header, body);
                st.peers.get(dst).chunking = (idx + 1 < total).then_some(xfer);
            } else {
                chunk.data = Bytes::from([&header[..], body].concat());
            }
            transmit_one(inner, m, chunk);
        }
    }
    if peer_died {
        inner.fail_sends(&[(req.to, req.user_tag)]);
    }
    let mut st = inner.state.lock();
    if !peer_died {
        st.sent_msgs += 1;
        st.fragmented_msgs += 1;
        st.fragments_sent += u64::from(total);
    }
    if let Some(w) = req.waiter {
        complete_request(inner, &mut st, w, None);
    }
}

/// Body of the send system thread.
pub(super) fn send_thread_body(inner: &Arc<ProcInner>, m: &MtsCtx) {
    loop {
        // One visit to the process state per request: the pop, the
        // `progressed` stamp, and the destination's fail-fast marks.
        let popped = {
            let mut guard = inner.state.lock();
            let st = &mut *guard;
            match st.take_send(0) {
                Some(req) => {
                    if req.causal != 0 {
                        let t = m.now();
                        inner
                            .sim
                            .with_metrics(|mm| mm.mark(req.causal, "sq_popped", t));
                    }
                    // The progress engine has the request in hand.
                    if let Some(slot) = req.waiter {
                        mark_progressed(inner, st, slot);
                    }
                    // A fresh sequenced frame or a retransmission; a credit
                    // grant, sequenced when granted, is the timer's to fail.
                    let fails_fast =
                        req.class.sequenced() && !matches!(req.state, FrameState::First(_));
                    let marks = st.peers.find(req.to.proc).filter(|_| fails_fast);
                    let marks = marks.map_or((false, false), |p| (p.dead, p.partitioned));
                    Some((req, marks))
                }
                None if may_teardown(inner, st) => return,
                None => None,
            }
        };
        let Some((mut req, (dead, partitioned))) = popped else {
            m.block(); // woken by NCS_send (or shutdown / final ack)
            continue;
        };
        let dst = req.to.proc;
        // Queued frames toward a peer already declared dead fail here
        // rather than burning a fresh retry budget each; likewise toward a
        // peer behind a detected partition, unless a probe finds the outage
        // window has ended — the recovery path.
        if dead || (partitioned && unreachable(inner, req.tier, dst)) {
            abandon(inner, &req);
            continue;
        }
        if partitioned {
            inner.state.lock().peers.heal(dst);
        }
        let fresh = req.state == FrameState::Unsequenced;
        let fresh_data = fresh && req.class == MsgClass::Data;
        // Approach 2: a data message wider than one I/O buffer goes out
        // chunked, with multiple buffer-sized CS-PDUs in flight.
        if fresh_data && req.data.len() > inner.cfg.io_buffer_bytes {
            send_fragmented(inner, m, req);
            continue;
        }
        if fresh && req.class.sequenced() {
            sequence(inner, &mut inner.state.lock(), &mut req);
        }
        // Credit flow control gates fresh application data; retransmissions
        // ride free (the receiver grants credits only for frames it accepts
        // for delivery, so spending per retransmission would leak). A gate
        // that never opens means the peer died while this send waited.
        if fresh_data && !acquire_send_credit(inner, m, dst) {
            abandon(inner, &req);
            continue;
        }
        transmit_one(inner, m, req);
    }
}
