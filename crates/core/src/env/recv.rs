//! The receive system thread: polls the transport, runs error and flow
//! control on what arrives (verify, acknowledge, filter duplicates, grant
//! credits, reassemble chunks), and matches stashed messages to posted
//! receives.

use bytes::Bytes;
use ncs_mts::MtsCtx;
use ncs_net::{Delivery, NodeId};
use ncs_sim::Sim;
use std::sync::Arc;

use super::frame::{claimed_seq, CHECKED_HEADER_BYTES};
use super::peer::NackAction;
use super::reassembly::{parse_chunk, Accepted, Expiry};
use super::request::{complete_request, mark_progressed};
use super::send::{arm_retx_timer, sequence};
use super::term::may_teardown;
use super::{
    unwrap_checked, wire_key, ErrorControl, FlowControl, FrameError, Gate, MpsState, NcsException,
    NcsMsg, ProcInner, SendReq,
};
use crate::addr::{decode_tag, MsgClass, ThreadAddr};

/// Body of the receive system thread.
pub(super) fn recv_thread_body(inner: &Arc<ProcInner>, m: &MtsCtx) {
    loop {
        // Poll the transport (a `p4_messages_available` round).
        if !inner.cfg.poll_cost.is_zero() {
            m.ctx().sleep(inner.cfg.poll_cost);
        }
        let mut progress = false;
        while let Some((tier, d)) = inner.merged.try_recv() {
            ingest(inner, m, tier, d);
            progress = true;
        }
        {
            let mut st = inner.state.lock();
            match_requests(inner, &mut st);
            // Exit only when the process is done, error control has no
            // outstanding frames that might still need retransmission,
            // and (in a collective) every peer is equally quiescent — a
            // lingering receiver keeps re-ACKing duplicates for peers
            // whose final acknowledgment was lost.
            if !progress && may_teardown(inner, &st) && inner.merged.is_empty() {
                break;
            }
        }
        if progress {
            continue;
        }
        if inner.mts.has_runnable() {
            // Others can use the CPU; poll again at the next dispatch.
            m.yield_now();
            continue;
        }
        // Process otherwise idle: wait in the kernel for the next delivery.
        // The transport's delivery event ends the wait with the delivery
        // queued; teardown ends it with the queue closed and drained.
        m.kernel_wait();
        match inner.merged.try_recv() {
            Some((tier, d)) => {
                ingest(inner, m, tier, d);
                match_requests(inner, &mut inner.state.lock());
            }
            None => break,
        }
    }
    audit_shutdown(inner);
}

/// Conservation at shutdown, under the analysis pass: nothing that reached
/// this process may be left stranded in it.
fn audit_shutdown(inner: &ProcInner) {
    if !inner.cfg.analysis.active() {
        return;
    }
    let st = inner.state.lock();
    // Every data message that reached this process must have been consumed
    // by some thread; data stranded in the stash was sent (and
    // acknowledged) but never received.
    for msg in st.stash.iter().filter(|s| s.class == MsgClass::Data) {
        inner.audit("unconsumed-message", || {
            Some(format!(
                "data message tag {} from proc{}/t{} to thread {} was never received",
                msg.tag, msg.from.proc, msg.from.thread, msg.to_thread
            ))
        });
    }
    // Likewise no chunked transfer may end half-reassembled: every chunk
    // was individually acknowledged, so the bytes are stranded.
    for (src, p) in st.peers.iter() {
        for (xfer, asm) in p.reasm.partial() {
            inner.audit("incomplete-transfer", || {
                Some(format!(
                    "chunked transfer {xfer} from proc{src} ended with {}/{} chunks",
                    asm.have, asm.total
                ))
            });
        }
    }
    let (leaked, breach) = st.reqs.leaks();
    for what in leaked {
        inner.audit("leaked-request-handle", || Some(what));
    }
    inner.audit("completion-conservation", || breach);
}

/// Matches queued receive requests against stashed messages, completing
/// (and so unblocking) the satisfied ones.
pub(super) fn match_requests(inner: &ProcInner, st: &mut MpsState) {
    let mut i = 0;
    while i < st.recv_reqs.len() {
        let want = st.recv_reqs[i].want;
        match st.take_from_stash(&want) {
            Some(msg) => {
                let req = st.recv_reqs.remove(i);
                complete_request(inner, st, req.slot, Some(msg));
            }
            None => {
                // The MPS layer examined (and re-queued) the request: the
                // first such scan is the async timeline's `progressed`.
                mark_progressed(inner, st, st.recv_reqs[i].slot);
                i += 1;
            }
        }
    }
}

/// Counts one frame from `src` accepted for delivery and, once a batch is
/// owed, queues the credit grant (see [`super::peer::Peer::consume`]). The
/// grant is sequenced here, under the lock, not when the send thread pops
/// it: until it is acknowledged the process is not quiescent.
fn grant_credit(inner: &ProcInner, st: &mut MpsState, tier: usize, src: usize) {
    if let FlowControl::Credit { window } = inner.cfg.flow {
        if let Some(g) = st.peers.get(src).consume(window) {
            let mut grant = SendReq::control(MsgClass::Credit, src, g, tier);
            sequence(inner, st, &mut grant);
            st.push_send(grant);
            inner.wake_send();
        }
    }
}

/// Arms the reclamation timer for one partial reassembly buffer at
/// `last_progress + reassembly_timeout`. The expiry re-checks progress, so
/// chunks landing meanwhile simply push the deadline out and per-chunk
/// re-arming is unnecessary.
fn arm_reaper(inner: &Arc<ProcInner>, st: &mut MpsState, key: (usize, u32)) {
    let Some(timeout) = inner.cfg.reassembly_timeout else {
        return;
    };
    let Some(asm) = st.peers.get(key.0).reasm.get_mut(key.1) else {
        return;
    };
    let cb = Arc::clone(inner);
    let handle = inner
        .sim
        .schedule_cancellable(asm.last_progress + timeout, move |sim| {
            reaper_fire(&cb, sim, key);
        });
    if let Some(old) = asm.reaper.replace(handle) {
        inner.sim.cancel_scheduled(old);
    }
}

/// Expiry of a reassembly reclamation timer: drop the partial buffers of a
/// stalled transfer so receiver memory is not leaked; otherwise re-arm
/// from the latest progress.
fn reaper_fire(inner: &Arc<ProcInner>, sim: &Sim, key: (usize, u32)) {
    let timeout = inner
        .cfg
        .reassembly_timeout
        .expect("reaper only armed when set");
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    match st.peers.get(key.0).reasm.expire(key.1, sim.now(), timeout) {
        Expiry::Gone => {}
        Expiry::Active => arm_reaper(inner, st, key),
        Expiry::Reclaimed => st.errs.reassembly_reclaimed += 1,
    }
}

/// Routes one accepted [`MsgClass::Frag`] chunk into its reassembly slot.
/// Completing the set stashes the rebuilt [`MsgClass::Data`] message and
/// grants back the one credit its sender spent on the whole transfer.
fn ingest_fragment(inner: &Arc<ProcInner>, tier: usize, mut msg: NcsMsg) {
    let src = msg.from.proc;
    let malformed = |why: String| {
        inner.audit("malformed-fragment", || {
            Some(format!("fragment from proc{src}: {why}"))
        });
    };
    let chunk = match parse_chunk(&msg.data, inner.cfg.io_buffer_bytes) {
        Ok(chunk) => chunk,
        Err(why) => return malformed(why),
    };
    let (xfer, total) = (chunk.xfer, chunk.total);
    let now = inner.sim.now();
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    match st.peers.get(src).reasm.accept(chunk, now) {
        Accepted::Duplicate | Accepted::Stored { first: false } => {}
        Accepted::Stored { first: true } => arm_reaper(inner, st, (src, xfer)),
        Accepted::Mismatch(expected) => malformed(format!(
            "transfer {xfer} declares {total} chunks, earlier chunks declared {expected}"
        )),
        Accepted::Complete { data, reaper } => {
            // The transfer is whole: the reclamation timer is dead weight
            // in the kernel queue — retract it.
            if let Some(h) = reaper {
                inner.sim.cancel_scheduled(h);
            }
            if msg.causal != 0 {
                inner
                    .sim
                    .with_metrics(|mm| mm.mark(msg.causal, "reassembled", now));
            }
            msg.data = data;
            msg.class = MsgClass::Data;
            st.stash_msg(msg);
            st.reassembled_msgs += 1;
            grant_credit(inner, st, tier, src);
        }
    }
}

/// Error control on an arriving sequenced frame: verify it, acknowledge it (or
/// ask for it again), and filter duplicates. Returns the sequence number
/// and clean payload of a frame to deliver. A frame the transport marked
/// `damaged` is never parsed as data: it is NACKed by the sequence number
/// its header claims (a garbage one names no outstanding frame and the
/// sender ignores it).
fn accept_checked(
    inner: &ProcInner,
    tier: usize,
    src: usize,
    frame: &Bytes,
    damaged: bool,
) -> Option<(u32, Bytes)> {
    let verdict = match (damaged, claimed_seq(frame)) {
        (false, _) => unwrap_checked(frame),
        (true, Some(seq)) => Err(FrameError::BadCrc { seq }),
        (true, None) => {
            // What is left of it does not even claim a sequence number.
            inner.state.lock().errs.damaged_dropped += 1;
            return None;
        }
    };
    let mut st = inner.state.lock();
    let (seq, reply, clean) = match verdict {
        Ok((seq, clean)) => (seq, MsgClass::Ack, Some(clean)),
        Err(FrameError::BadCrc { seq }) => (seq, MsgClass::Nack, None),
        Err(FrameError::Runt) => {
            // No sequence number to name: a NACK would have to invent
            // one, and could trigger the retransmission of an unrelated
            // frame in flight. Drop it; the sender's RTO recovers.
            st.errs.malformed_frames += 1;
            inner.audit("malformed-frame", || {
                Some(format!(
                    "{}-byte frame from proc{src} is shorter than the \
                     {CHECKED_HEADER_BYTES}-byte error-control header",
                    frame.len()
                ))
            });
            return None;
        }
    };
    let duplicate = clean.is_some() && st.peers.get(src).observe_seq(seq);
    st.push_send(SendReq::control(reply, src, seq, tier));
    inner.wake_send();
    if duplicate {
        // Re-ACKed above; already delivered once.
        st.errs.duplicates_suppressed += 1;
        return None;
    }
    // A corrupted frame (`None`) is dropped; the sender retransmits.
    clean.map(|clean| (seq, clean))
}

/// An acknowledgment of `seq` from `src`: retire the frame, restart or
/// retract the loss-recovery timer, reopen the pipelined send window.
fn ingest_ack(inner: &Arc<ProcInner>, src: usize, seq: u32) {
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    let p = st.peers.get(src);
    // Monotonicity: an ACK can only name a sequence number this process
    // has already allocated toward that peer.
    inner.audit("ack-unallocated-seq", || {
        (!p.allocated(seq)).then(|| {
            format!(
                "ACK from proc{src} names seq {seq}, outside the {} \
                 sequence numbers ever allocated toward it",
                p.seqs_allocated
            )
        })
    });
    if let Some(acked) = p.on_ack(seq, inner.sim.now(), &mut st.errs) {
        // One loss-recovery timer per destination, timing the oldest frame
        // on the wire: a partial acknowledgment restarts it (the new
        // oldest frame gets a full RTO from now), the final one retracts
        // it — rather than paying a stale-timer event at RTO expiry (and,
        // for the last frame, dragging end_time out to the timeout
        // horizon).
        if !acked.last {
            arm_retx_timer(inner, st, src);
        } else if let Some(t) = st.peers.get(src).timer.take() {
            inner.sim.cancel_scheduled(t);
        }
    }
    // Only with this peer's table empty can nothing be outstanding at all.
    let all_acked = st.peers.get(src).unacked.is_empty() && st.all_acked();
    // A freed I/O buffer reopens the pipelined send window; the last
    // acknowledgment lets a draining send thread exit.
    if st.clear_waiting(Gate::IoBuffer, src) || all_acked {
        inner.wake_send();
    }
    if st.shutdown && all_acked {
        drop(guard);
        inner.term.proc_ready(inner.id);
    }
}

/// Moves one delivery into the stash, charging receive-side protocol cost
/// and running class-specific plumbing (acknowledgments, credits).
fn ingest(inner: &Arc<ProcInner>, m: &MtsCtx, tier: usize, d: Delivery) {
    let net = &inner.nets[tier];
    let cost = net.recv_pickup_cost(NodeId(inner.id as u32), d.payload.len());
    m.ctx().sleep(cost);
    let t_picked = m.now();
    let (class, from_thread, to_thread, user_tag) = decode_tag(d.tag);
    let from = ThreadAddr::new(d.src.idx(), from_thread);
    let mut payload = d.payload;
    // Resolve the sender's wire-key binding back to its causal timeline
    // (0 for control traffic and untracked frames). A checked frame is
    // claimed by the first copy accepted, so duplicates and corrupted
    // frames never disorder a timeline.
    let instance = if class.sequenced() && inner.cfg.error == ErrorControl::ChecksumRetransmit {
        let Some((seq, clean)) = accept_checked(inner, tier, from.proc, &payload, d.damaged) else {
            return;
        };
        payload = clean;
        u64::from(seq)
    } else {
        d.sent_at.as_ps()
    };
    // One registry visit: the claim, for every class (damaged deliveries
    // too, so no key is left behind), and the pickup stamps of undamaged
    // data.
    let stamped = !d.damaged
        && !matches!(
            class,
            MsgClass::Ack | MsgClass::Nack | MsgClass::Exception | MsgClass::Credit
        );
    let causal = inner.sim.with_metrics(|mm| {
        let key = wire_key(d.src.idx(), inner.id, d.tag, instance);
        let causal = mm.resolve_wire(key).unwrap_or(0);
        if stamped && causal != 0 {
            // The accepted copy is a retransmission if it left after the
            // first one did; its departure splits the wire time into what
            // loss recovery cost and its own flight. (Not for chunks: a
            // chunked transfer's stages are its last chunk's, which one
            // chunk's recovery is not.)
            let first = mm.stamp(causal, "wire_start");
            if class == MsgClass::Data && first.is_some_and(|t0| d.sent_at > t0) {
                mm.mark(causal, "retransmitted", d.sent_at);
            }
            mm.mark(causal, "arrived", d.arrived_at);
            mm.mark(causal, "picked", t_picked);
        }
        causal
    });
    if d.damaged {
        // Nothing above could ask for it again — an ACK or NACK, any frame
        // with error control off: the bytes are not what was sent and must
        // never be consumed.
        inner.state.lock().errs.damaged_dropped += 1;
        return;
    }
    match class {
        MsgClass::Ack => ingest_ack(inner, from.proc, user_tag),
        MsgClass::Nack => {
            let mut guard = inner.state.lock();
            let st = &mut *guard;
            let queue_full = st.retx_queue_full();
            let max_retries = inner.cfg.max_retries;
            let p = st.peers.get(from.proc);
            if let NackAction::Retransmit(frame) =
                p.on_nack(user_tag, max_retries, queue_full, &mut st.errs)
            {
                st.push_send(frame);
                inner.wake_send();
                // The loss-recovery timer keeps its deadline (see
                // `Peer::on_nack`).
            }
        }
        MsgClass::Exception => inner.raise(NcsException {
            from,
            code: user_tag,
            detail: payload,
        }),
        MsgClass::Credit => {
            let mut guard = inner.state.lock();
            let st = &mut *guard;
            let total = st.peers.get(from.proc).grant(user_tag);
            // Conservation: credits in flight plus credits held can never
            // exceed the window the receiver seeded.
            inner.audit("credit-conservation", || match inner.cfg.flow {
                FlowControl::Credit { window } if total > window => Some(format!(
                    "credits toward proc{} reached {total}, window {window}",
                    from.proc
                )),
                _ => None,
            });
            if st.clear_waiting(Gate::Credit, from.proc) {
                inner.wake_send();
            }
        }
        _ => {
            let msg = NcsMsg {
                from,
                to_thread,
                tag: user_tag,
                data: payload,
                class,
                causal,
            };
            if class == MsgClass::Frag {
                return ingest_fragment(inner, tier, msg);
            }
            let mut st = inner.state.lock();
            st.stash_msg(msg);
            if class == MsgClass::Data {
                grant_credit(inner, &mut st, tier, from.proc);
            }
        }
    }
}
