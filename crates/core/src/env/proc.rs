//! [`NcsProc`]: one multithreaded NCS process — `NCS_init`, `NCS_t_create`,
//! `NCS_start`, and the statistics surface.

use ncs_mts::{Mts, MtsTid};
use ncs_net::{HostParams, Network, NodeId};
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, Sim, SimChannel};
use std::sync::{Arc, OnceLock};

use super::recv::{match_requests, recv_thread_body};
use super::send::send_thread_body;
use super::{
    ErrorStats, FlowControl, MpsState, NcsConfig, NcsCtx, NcsException, NcsMsg, Peers, ProcInner,
    SysThreads, TermBarrier, UserThread, RECV_THREAD_PRIORITY, SEND_THREAD_PRIORITY,
};
use crate::addr::MsgClass;

/// Handle to one NCS process.
#[derive(Clone)]
pub struct NcsProc {
    pub(super) inner: Arc<ProcInner>,
}

impl NcsProc {
    /// `NCS_init`: builds the MTS runtime and system threads for process
    /// `id` of `n`, attached to one or more transport tiers (`nets[0]` is
    /// the default tier; a second entry typically carries the other of
    /// NSM/HSM). The process belongs to the collective computation of
    /// `term`: after local quiescence it lingers there, so late
    /// retransmissions from slower peers still find a live receiver.
    pub(crate) fn init(
        sim: &Sim,
        id: usize,
        n: usize,
        nets: Vec<Arc<dyn Network>>,
        cfg: NcsConfig,
        term: &Arc<TermBarrier>,
    ) -> NcsProc {
        assert!(!nets.is_empty(), "need at least one transport tier");
        for net in &nets {
            assert!(n <= net.nodes(), "more processes than testbed nodes");
        }
        assert!(id < n);
        if cfg.analysis.active() {
            sim.set_analysis(cfg.analysis.clone());
        }
        let mts = Mts::new(sim, format!("proc{id}"), cfg.mts.clone());
        let merged = SimChannel::unbounded();
        let credit_seed = match cfg.flow {
            FlowControl::Credit { window } => window,
            FlowControl::None => 0,
        };
        let inner = Arc::new(ProcInner {
            id,
            n,
            sim: sim.clone(),
            mts,
            cfg,
            nets,
            merged,
            state: Mutex::new(MpsState {
                peers: Peers {
                    credit_seed,
                    ..Peers::default()
                },
                ..MpsState::default()
            }),
            sys: OnceLock::new(),
            users: Mutex::new(Vec::new()),
            exception_handler: Mutex::new(None),
            pending_exceptions: Mutex::new(Vec::new()),
            term: Arc::clone(term),
        });
        term.register(&inner);
        let proc_ = NcsProc { inner };
        proc_.spawn_system_threads();
        // Every tier's inbox passes straight through to the one queue the
        // receive thread drains, inside the transport's delivery event, and
        // ends the receive thread's kernel wait there (pure plumbing: the
        // pickup cost is charged by the receive thread). Once `merged`
        // closes at teardown, late traffic is dropped.
        let inner = &proc_.inner;
        let recv = inner.sys().recv;
        for (tier, net) in inner.nets.iter().enumerate() {
            let (merged, mts) = (inner.merged.clone(), inner.mts.clone());
            net.inbox(NodeId(id as u32)).forward(sim, move |sim, d| {
                merged.offer(sim, (tier, d)).map_err(|(_, d)| d)?;
                mts.end_kernel_wait(recv);
                Ok(())
            });
        }
        proc_
    }

    fn spawn_system_threads(&self) {
        let mts = &self.inner.mts;
        let inner = Arc::clone(&self.inner);
        let send = mts.spawn("ncs-send", SEND_THREAD_PRIORITY, move |m| {
            send_thread_body(&inner, m);
        });
        let inner = Arc::clone(&self.inner);
        let recv = mts.spawn("ncs-recv", RECV_THREAD_PRIORITY, move |m| {
            recv_thread_body(&inner, m);
        });
        let fresh = self.inner.sys.set(SysThreads { send, recv }).is_ok();
        assert!(fresh, "system threads spawned twice");
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
        let logical = self.inner.users.lock().len() as u32;
        self.inner.state.lock().user_live += 1;
        let proc_ = self.clone();
        let mts_tid = self.inner.mts.spawn(name.clone(), priority, move |m| {
            body(&NcsCtx::new(proc_.clone(), m, logical));
            proc_.user_thread_done();
        });
        self.inner.users.lock().push(UserThread { mts_tid, name });
        logical
    }

    /// `NCS_start`: runs threads to completion. Blocks the calling green
    /// thread (the process "main") until all user threads exit and the
    /// system threads wind down.
    pub fn start(&self, ctx: &Ctx) {
        // A process with no user threads shuts down immediately.
        let idle = self.inner.state.lock().user_live == 0;
        if idle {
            self.begin_shutdown();
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
            st.quiescent()
        };
        // Wake the send thread so it can drain; signal quiescence at the
        // termination barrier, where the process lingers until *every*
        // peer is quiescent (TIME-WAIT). With error control active, the
        // signal waits for the last acknowledgment (see the receive
        // driver), since retransmissions may still be needed.
        self.inner.wake_send();
        if can_close {
            self.inner.term.proc_ready(self.inner.id);
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
    // ncs-lint: allow(dead-surface) oracle core/tests check message conservation against
    pub fn msg_counts(&self) -> (u64, u64) {
        let st = self.inner.state.lock();
        (st.sent_msgs, st.recv_msgs)
    }

    /// Completion-handle accounting: requests posted and consumed so far
    /// (the blocking wrappers post too, so these move even without any
    /// `NCS_isend`/`NCS_irecv`), plus how many completions currently sit
    /// unredeemed in the completion queue.
    // ncs-lint: allow(dead-surface) oracle core/tests/async_api.rs checks handle accounting against
    pub fn request_counts(&self) -> (u64, u64, usize) {
        let st = self.inner.state.lock();
        (st.reqs.posted, st.reqs.consumed, st.reqs.queued())
    }

    /// Full error-control statistics: retransmit/backoff/sample counters
    /// and the per-destination SRTT/RTTVAR/RTO trajectory.
    pub fn error_stats(&self) -> ErrorStats {
        let st = self.inner.state.lock();
        let rto = &self.inner.cfg.rto;
        ErrorStats {
            dead_peers: st
                .peers
                .iter()
                .filter(|(_, p)| p.dead)
                .map(|(id, _)| id)
                .collect(),
            peers: st
                .peers
                .iter()
                .filter_map(|(id, p)| p.rto_snapshot(id, rto))
                .collect(),
            ..st.errs.clone()
        }
    }

    /// Whether error control has declared `peer` dead (sends fail fast).
    pub fn is_peer_dead(&self, peer: usize) -> bool {
        self.inner
            .state
            .lock()
            .peers
            .find(peer)
            .is_some_and(|p| p.dead)
    }

    /// Whether error control currently holds `peer` behind a detected
    /// partition (fail-fast, but recoverable: the mark drops as soon as a
    /// fresh send finds the route up again).
    // ncs-lint: allow(dead-surface) oracle core/tests/chaos_recovery.rs checks partition healing against
    pub fn is_peer_partitioned(&self, peer: usize) -> bool {
        let st = self.inner.state.lock();
        st.peers.find(peer).is_some_and(|p| p.partitioned)
    }

    /// Partial chunk-reassembly buffers currently held (receive side of
    /// the pipelined data path) — zero after a clean run, and zero again
    /// after timeout reclamation of a crash-stopped sender's leftovers.
    pub fn reassembly_backlog(&self) -> usize {
        let st = self.inner.state.lock();
        st.peers
            .iter()
            .map(|(_, p)| p.reasm.partial().count())
            .sum()
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
    /// so wrap-around behavior can be exercised without 2^32 sends. Seed
    /// the receiving end to match with
    /// [`NcsProc::debug_seed_expected_seq`].
    #[doc(hidden)]
    // ncs-lint: allow(dead-surface) hook core/tests/ncs_tests.rs drives sequence wrap-around with
    pub fn debug_seed_next_seq(&self, dst: usize, seq: u32) {
        self.inner.state.lock().peers.get(dst).seed_next_seq(seq);
    }

    /// Test hook: the receiver-side counterpart of
    /// [`NcsProc::debug_seed_next_seq`] — the next sequence number this
    /// process expects from `src`.
    #[doc(hidden)]
    // ncs-lint: allow(dead-surface) hook core/tests/ncs_tests.rs drives sequence wrap-around with
    pub fn debug_seed_expected_seq(&self, src: usize, seq: u32) {
        self.inner
            .state
            .lock()
            .peers
            .get(src)
            .seed_expected_seq(seq);
    }

    /// Looks up the MTS tid of logical user thread `t`.
    pub(super) fn user_mts_tid(&self, t: u32) -> MtsTid {
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
    pub(super) fn deliver_local(&self, msg: NcsMsg) {
        if msg.class == MsgClass::Exception {
            return self.inner.raise(NcsException {
                from: msg.from,
                code: msg.tag,
                detail: msg.data,
            });
        }
        let mut st = self.inner.state.lock();
        st.stash_msg(msg);
        match_requests(&self.inner, &mut st);
    }
}
