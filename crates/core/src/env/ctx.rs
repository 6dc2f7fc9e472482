//! [`NcsCtx`]: the per-thread API — `NCS_send`, `NCS_recv`, their
//! nonblocking forms and `NCS_wait`/`NCS_waitany`, signals, barriers.

use bytes::Bytes;
use ncs_mts::MtsCtx;
use ncs_sim::{ActorId, Ctx, Dur, SimTime, SpanKind};
use std::sync::Arc;

use super::request::{complete_request, consume_request, ReqKind, Status};
use super::{causal_component, Match, NcsMsg, NcsProc, NcsRequest, ProcInner, RecvReq, SendReq};
use crate::addr::{MsgClass, ThreadAddr};

/// Per-thread API handle (what the paper's primitives take implicitly from
/// the calling thread's identity).
pub struct NcsCtx<'a> {
    proc: NcsProc,
    mctx: &'a MtsCtx<'a>,
    thread: u32,
    actor: ActorId,
}

impl<'a> NcsCtx<'a> {
    pub(super) fn new(proc: NcsProc, mctx: &'a MtsCtx<'a>, thread: u32) -> NcsCtx<'a> {
        NcsCtx {
            proc,
            mctx,
            thread,
            actor: mctx.mts().actor_id(mctx.tid()),
        }
    }
}

impl NcsCtx<'_> {
    fn inner(&self) -> &Arc<ProcInner> {
        &self.proc.inner
    }

    /// This thread's address.
    pub fn my_addr(&self) -> ThreadAddr {
        ThreadAddr::new(self.proc.id(), self.thread)
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

    /// Records a communication span `[t0, now]` for the timeline figures.
    fn comm_span(&self, label: &'static str, t0: SimTime, causal: u64) {
        let t1 = self.ctx().now();
        self.inner().sim.with_spans(|tr| {
            tr.span_full(self.actor, SpanKind::Comm, label, t0, t1, causal);
        });
    }

    /// Charges `cycles` of computation to this thread (CPU held) and
    /// records a compute span for the timeline figures.
    pub fn compute(&self, cycles: u64, label: &'static str) {
        let t0 = self.ctx().now();
        self.proc.host().compute(self.ctx(), cycles);
        let t1 = self.ctx().now();
        self.inner().sim.with_spans(|tr| {
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
        // system thread, the wait parks this thread on the completion.
        // `req_causal = 0` keeps the request itself off the metrics
        // timelines.
        let h = self.post_send(class, to, tag, data, tier, causal, 0);
        self.waitany(&[h]);
        self.comm_span("send", t0, causal);
    }

    /// Allocates the per-message causal timeline id (remote data messages
    /// only) and stamps its `enqueued` origin.
    fn message_causal(&self, class: MsgClass, to: ThreadAddr, t0: SimTime) -> u64 {
        if class == MsgClass::Data && to.proc != self.proc.id() {
            self.open_timeline("enqueued", t0)
        } else {
            0
        }
    }

    /// Allocates a causal timeline and stamps its origin `stage` at `t0`: a
    /// message's (`enqueued`) or, separately, a request's own (`posted`).
    /// Only the nonblocking entry points open a request timeline; blocking
    /// wrappers pass `req_causal = 0` so their metrics output is unchanged.
    fn open_timeline(&self, stage: &'static str, t0: SimTime) -> u64 {
        self.inner().sim.with_metrics(|mm| {
            let c = mm.next_causal();
            mm.mark(c, stage, t0);
            c
        })
    }

    /// Allocates a request already in the completed state (local sends,
    /// fail-fast sends): the matching `wait` returns without parking.
    fn completed_send(&self, req_causal: u64) -> NcsRequest {
        let mut st = self.inner().state.lock();
        let h = st.reqs.alloc(ReqKind::Send, self.thread, req_causal);
        complete_request(self.inner(), &mut st, h.slot, None);
        h
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
        let inner = self.inner();
        assert!(to.proc < self.proc.num_procs(), "destination out of range");
        assert!(tier < inner.nets.len(), "no such transport tier");
        if to.proc == self.proc.id() {
            // Local delivery: one copy at memory speed, no wire. The copy
            // charges the *posting* thread — there is nothing to overlap.
            let h = self.proc.host();
            let words = data.len().div_ceil(4) as u64;
            self.ctx().sleep(h.bus_access.times(words.max(1)));
            if class == MsgClass::Data {
                inner.state.lock().sent_msgs += 1;
            }
            self.proc.deliver_local(NcsMsg {
                from: self.my_addr(),
                to_thread: to.thread,
                tag,
                data,
                class,
                causal: 0,
            });
            return self.completed_send(req_causal);
        }
        // One visit to the process state: the dead-peer check and, when the
        // peer is alive, the request slot plus its place in the send queue.
        let mut st = inner.state.lock();
        if st.peers.find(to.proc).is_some_and(|p| p.dead) {
            drop(st);
            // Error control exhausted its retries on this destination:
            // fail fast with the delivery-failure exception instead of
            // queueing a transfer that can never complete.
            inner.fail_sends(&[(to, tag)]);
            return self.completed_send(req_causal);
        }
        let h = st.reqs.alloc(ReqKind::Send, self.thread, req_causal);
        let mut req = SendReq::new(self.thread, to, class, tag, data, tier);
        req.waiter = Some(h.slot);
        req.causal = causal;
        st.push_send(req);
        drop(st);
        inner.wake_send();
        h
    }

    /// What a receive posted by this thread takes.
    fn want(
        &self,
        class: MsgClass,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> Match {
        Match {
            to_thread: self.thread,
            class,
            from_proc,
            from_thread,
            tag,
        }
    }

    /// Posts a receive without waiting: a stash hit completes the handle on
    /// the spot; a miss queues the request for the receive system thread's
    /// matcher.
    fn post_recv(&self, want: Match, req_causal: u64) -> NcsRequest {
        let mut st = self.inner().state.lock();
        let h = st.reqs.alloc(ReqKind::Recv, self.thread, req_causal);
        match st.take_from_stash(&want) {
            Some(m) => complete_request(self.inner(), &mut st, h.slot, Some(m)),
            None => st.recv_reqs.push(RecvReq { slot: h.slot, want }),
        }
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
    // ncs-lint: allow(dead-surface) NCS_recv from any source: the paper's API
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
        let want = self.want(MsgClass::Data, from_proc, from_thread, tag);
        let st = self.inner().state.lock();
        st.stash.iter().any(|m| want.accepts(m))
    }

    /// Like [`NcsCtx::recv`] but gives up after `timeout`, returning `None`
    /// (for soft-deadline consumers such as the VOD player of Figure 5).
    // ncs-lint: allow(dead-surface) NCS_recv with a deadline: the paper's API
    pub fn recv_timeout(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
        timeout: Dur,
    ) -> Option<NcsMsg> {
        let h = self.post_recv(self.want(MsgClass::Data, from_proc, from_thread, tag), 0);
        // Arm the expiry unless the stash already had the message: if the
        // request is still queued when the timer fires, withdraw it and
        // complete the handle empty-handed.
        let timer = (!self.test(h)).then(|| {
            let inner = Arc::clone(self.inner());
            let sim = self.ctx().sim();
            sim.schedule_cancellable(sim.now() + timeout, move |_| {
                let mut st = inner.state.lock();
                let queued = st.recv_reqs.iter().position(|r| r.slot == h.slot);
                if let (Some(pos), Status::Pending) = (queued, st.reqs.status(h)) {
                    st.recv_reqs.remove(pos);
                    complete_request(&inner, &mut st, h.slot, None);
                }
            })
        });
        let msg = self.waitany(&[h]).1;
        if let (Some(timer), Some(_)) = (timer, &msg) {
            // Satisfied before expiry: retract the timer from the kernel
            // queue.
            self.ctx().sim().cancel_scheduled(timer);
        }
        msg
    }

    fn recv_class(
        &self,
        class: MsgClass,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> NcsMsg {
        let t0 = self.ctx().now();
        // Blocking receive = post + wait, same as send.
        let h = self.post_recv(self.want(class, from_proc, from_thread, tag), 0);
        let msg = self
            .waitany(&[h])
            .1
            .expect("recv completed without a message");
        self.comm_span("recv", t0, msg.causal);
        msg
    }

    /// `NCS_isend`: posts an asynchronous send of `data` to `to` and
    /// returns a completion handle immediately. The send system thread
    /// performs the transfer while this thread keeps computing; redeem the
    /// handle with [`NcsCtx::wait`], [`NcsCtx::test`], or
    /// [`NcsCtx::waitany`]. Local sends still charge the caller the memory
    /// copy (there is no wire to overlap) and return a completed handle.
    pub fn isend(&self, to: ThreadAddr, tag: u32, data: Bytes) -> NcsRequest {
        self.isend_via(0, to, tag, data)
    }

    /// `NCS_isend` on an explicit transport tier (NSM vs HSM selection).
    pub fn isend_via(&self, tier: usize, to: ThreadAddr, tag: u32, data: Bytes) -> NcsRequest {
        let t0 = self.ctx().now();
        let causal = self.message_causal(MsgClass::Data, to, t0);
        let req_causal = self.open_timeline("posted", t0);
        let h = self.post_send(MsgClass::Data, to, tag, data, tier, causal, req_causal);
        self.comm_span("isend", t0, causal);
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
        let req_causal = self.open_timeline("posted", t0);
        let want = self.want(MsgClass::Data, from_proc, from_thread, tag);
        let h = self.post_recv(want, req_causal);
        self.comm_span("irecv", t0, 0);
        h
    }

    /// `NCS_wait`: blocks until the request completes, consuming the
    /// handle. Returns the received message for receives, `None` for
    /// sends. A handle may be redeemed exactly once; waiting a consumed
    /// (stale) handle is reported as a `stale-request-handle` violation
    /// under analysis (a panic otherwise) and returns `None`.
    pub fn wait(&self, h: NcsRequest) -> Option<NcsMsg> {
        let t0 = self.ctx().now();
        let msg = self.waitany(&[h]).1;
        self.comm_span("wait", t0, msg.as_ref().map_or(0, |m| m.causal));
        msg
    }

    /// `NCS_test`: non-blocking completion probe. Returns `true` once the
    /// request has completed (or the handle is stale — i.e. already
    /// consumed); the handle stays live until redeemed by a wait.
    pub fn test(&self, h: NcsRequest) -> bool {
        self.inner().state.lock().reqs.status(h) != Status::Pending
    }

    /// `NCS_waitany`: blocks until at least one of `hs` completes, consumes
    /// exactly that one handle, and returns its index plus its message (for
    /// receives). The other handles stay live. Completion order, not list
    /// order, decides the winner; ties go to the lowest index.
    ///
    /// This is the one wait engine: `NCS_wait` and the blocking calls
    /// redeem a single handle through it.
    pub fn waitany(&self, hs: &[NcsRequest]) -> (usize, Option<NcsMsg>) {
        assert!(!hs.is_empty(), "waitany on an empty handle list");
        let inner = self.inner();
        let me = self.mctx.tid();
        loop {
            let mut st = inner.state.lock();
            let mut winner = None;
            for (i, &h) in hs.iter().enumerate() {
                match st.reqs.status(h) {
                    Status::Stale(now) => {
                        drop(st);
                        self.handle_misuse(format!(
                            "wait on stale handle slot {} gen {} (now {now})",
                            h.slot, h.gen
                        ));
                        return (i, None);
                    }
                    Status::Complete => {
                        winner = Some(i);
                        break;
                    }
                    Status::Pending => {}
                }
            }
            if let Some(i) = winner {
                // The losers keep their slots but must forget this thread.
                for &h in hs {
                    st.reqs.unpark(h, me);
                }
                let msg = consume_request(inner, &mut st, hs[i]);
                drop(st);
                // Delivery observability and the analysis delivery log,
                // both outside the state lock.
                if let Some(m) = &msg {
                    self.note_delivery(m);
                }
                return (i, msg);
            }
            let (mut sends, mut recvs) = (false, false);
            for &h in hs {
                match st.reqs.park(h, me) {
                    Ok(ReqKind::Send) => sends = true,
                    Ok(ReqKind::Recv) => recvs = true,
                    Err(()) => {
                        drop(st);
                        self.handle_misuse(format!(
                            "handle slot {} gen {} already waited by another thread",
                            h.slot, h.gen
                        ));
                        return (0, None);
                    }
                }
            }
            // Park outside the state lock (the completer takes it). A
            // single-kind set gets a precise wait-for edge toward its
            // system thread for the deadlock analysis; a mixed set can be
            // woken by either, so no one edge is truthful — fall back to
            // an unattributed block.
            drop(st);
            match (sends, recvs) {
                (true, false) => self.mctx.block_on(inner.sys().send),
                (false, true) => self.mctx.block_on(inner.sys().recv),
                _ => self.mctx.block(),
            }
        }
    }

    /// Stamps `delivered` on the message's timeline, folds the stage diffs
    /// into the per-component latency histograms (plus `obs.e2e`), and
    /// records the message in the analysis delivery log at the instant the
    /// application accepts it. The log feeds schedule exploration's
    /// observational-equivalence oracle: the delivered-payload sequence
    /// per `(src, dst, tag)` channel must be identical across every legal
    /// interleaving of the same workload. Thread ids ride in the key's
    /// high tag bits so each thread-to-thread flow is its own channel
    /// (cross-thread matching order genuinely may vary between legal
    /// schedules).
    fn note_delivery(&self, msg: &NcsMsg) {
        let inner = self.inner();
        if msg.causal != 0 {
            let now = self.ctx().now();
            inner.sim.with_metrics(|mm| {
                mm.mark(msg.causal, "delivered", now);
                mm.observe_stages(msg.causal, causal_component, "obs.e2e");
            });
        }
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

    /// Misused completion handle (stale redeem, cross-thread double wait):
    /// a reported violation under analysis, a panic otherwise.
    fn handle_misuse(&self, what: String) {
        let inner = self.inner();
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
