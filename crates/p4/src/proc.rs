//! The p4 process API: typed, wildcard-matched message passing.
//!
//! Models the Argonne p4 primitives the paper builds on (Butler & Lusk):
//! `p4_send`, `p4_recv` with type/source wildcards, `p4_messages_available`,
//! `p4_broadcast`, and a global barrier. The defining baseline behaviour is
//! that **`recv` blocks the whole process** — p4 processes are
//! single-threaded Unix processes, so a blocking receive leaves the CPU
//! idle. NCS_MTS/p4 (ncs-core) wraps these same primitives but blocks only
//! the calling user-level thread.

use bytes::Bytes;
use ncs_net::stack::BlockingWait;
use ncs_net::{Delivery, Network, NodeId};
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, SimChannel};
use std::collections::VecDeque;
use std::sync::Arc;

/// Message type used internally for barrier arrivals.
pub const TYPE_BARRIER_ARRIVE: i32 = i32::MIN;
/// Message type used internally for barrier releases.
pub const TYPE_BARRIER_GO: i32 = i32::MIN + 1;

/// A received p4 message.
#[derive(Clone, Debug)]
pub struct P4Msg {
    /// Application message type.
    pub msg_type: i32,
    /// Sender rank.
    pub from: usize,
    /// Payload.
    pub data: Bytes,
}

/// One p4 process's endpoint.
///
/// Rank 0 conventionally plays "host" in the paper's host–node programs.
pub struct P4Proc {
    id: usize,
    n: usize,
    net: Arc<dyn Network>,
    inbox: SimChannel<Delivery>,
    /// Received but not yet matched messages, in arrival order.
    stash: Mutex<VecDeque<P4Msg>>,
    /// Tracing label.
    actor: String,
}

impl P4Proc {
    /// Creates the endpoint for rank `id` of `n` on `net`.
    pub fn new(id: usize, n: usize, net: Arc<dyn Network>) -> P4Proc {
        assert!(id < n && n <= net.nodes());
        P4Proc {
            id,
            n,
            net: Arc::clone(&net),
            inbox: net.inbox(NodeId(id as u32)),
            stash: Mutex::new(VecDeque::new()),
            actor: format!("proc{id}/main"),
        }
    }

    /// This process's rank (`p4_get_my_id`).
    pub fn my_id(&self) -> usize {
        self.id
    }

    /// Number of processes in the procgroup.
    pub fn num_procs(&self) -> usize {
        self.n
    }

    /// The network this procgroup runs on.
    pub fn net(&self) -> &Arc<dyn Network> {
        &self.net
    }

    /// Sends `data` of type `msg_type` to rank `to` (`p4_send`). Blocks the
    /// process for the full sender-side protocol cost.
    pub fn send(&self, ctx: &Ctx, msg_type: i32, to: usize, data: Bytes) {
        assert!(to < self.n, "rank {to} out of range");
        assert_ne!(to, self.id, "p4 self-send is not supported");
        let t0 = ctx.now();
        self.net.send(
            ctx,
            &BlockingWait,
            NodeId(self.id as u32),
            NodeId(to as u32),
            msg_type as u32 as u64,
            data,
        );
        let t1 = ctx.now();
        ctx.sim().with_spans(|tr| {
            tr.span(&self.actor, ncs_sim::SpanKind::Comm, "send", t0, t1);
        });
    }

    /// Receives the oldest message matching the filters (`p4_recv`).
    /// `None` means wildcard, like p4's `-1`. **Blocks the whole process**
    /// until a matching message exists.
    pub fn recv(&self, ctx: &Ctx, msg_type: Option<i32>, from: Option<usize>) -> P4Msg {
        let t0 = ctx.now();
        loop {
            if let Some(m) = self.take_matching(msg_type, from) {
                let t1 = ctx.now();
                ctx.sim().with_spans(|tr| {
                    tr.span(&self.actor, ncs_sim::SpanKind::Comm, "recv", t0, t1);
                });
                return m;
            }
            // Nothing stashed: block in the kernel for the next delivery.
            let d = self
                .inbox
                .recv(ctx)
                .expect("p4 inbox closed while receiving");
            self.ingest(ctx, d);
        }
    }

    /// Whether a matching message is already available without blocking
    /// (`p4_messages_available`). Pulls any landed deliveries out of the
    /// kernel first, paying their pickup cost.
    pub fn messages_available(
        &self,
        ctx: &Ctx,
        msg_type: Option<i32>,
        from: Option<usize>,
    ) -> bool {
        while let Some(d) = self.inbox.try_recv() {
            self.ingest(ctx, d);
        }
        self.stash
            .lock()
            .iter()
            .any(|m| Self::matches(m, msg_type, from))
    }

    /// Sends `data` to every other rank (`p4_broadcast`), lowest rank first.
    pub fn broadcast(&self, ctx: &Ctx, msg_type: i32, data: Bytes) {
        for to in 0..self.n {
            if to != self.id {
                self.send(ctx, msg_type, to, data.clone());
            }
        }
    }

    /// Global barrier over the procgroup (`p4_global_barrier`): everyone
    /// reports to rank 0, which releases everyone.
    pub fn barrier(&self, ctx: &Ctx) {
        if self.n == 1 {
            return;
        }
        if self.id == 0 {
            for _ in 1..self.n {
                self.recv(ctx, Some(TYPE_BARRIER_ARRIVE), None);
            }
            self.broadcast(ctx, TYPE_BARRIER_GO, Bytes::new());
        } else {
            self.send(ctx, TYPE_BARRIER_ARRIVE, 0, Bytes::new());
            self.recv(ctx, Some(TYPE_BARRIER_GO), Some(0));
        }
    }

    /// Moves a kernel delivery into the user-level stash, charging the
    /// receive-side protocol cost (interrupts, checksums, the copy to user
    /// space) plus the blocking-receiver reaction latency: a p4 process
    /// sleeps in select() between big-message fragments and pays a wakeup
    /// for each (NCS's polling receive thread does not — the measurable
    /// half of the paper's "avoid operating system overhead" claim).
    fn ingest(&self, ctx: &Ctx, d: Delivery) {
        let me = NodeId(self.id as u32);
        let cost = self.net.recv_pickup_cost(me, d.payload.len())
            + self.net.recv_reaction_cost(me, d.payload.len());
        ctx.sleep(cost);
        if d.damaged {
            // The transport's reception status says these are not the bytes
            // that were sent. p4 has no error control to ask for them
            // again; what it must not do is hand them to the application.
            ctx.sim()
                .with_tracer(|tr| tr.count("p4.damaged_dropped", 1));
            return;
        }
        self.stash.lock().push_back(P4Msg {
            msg_type: d.tag as u32 as i32,
            from: d.src.idx(),
            data: d.payload,
        });
    }

    fn take_matching(&self, msg_type: Option<i32>, from: Option<usize>) -> Option<P4Msg> {
        let mut stash = self.stash.lock();
        let pos = stash
            .iter()
            .position(|m| Self::matches(m, msg_type, from))?;
        stash.remove(pos)
    }

    fn matches(m: &P4Msg, msg_type: Option<i32>, from: Option<usize>) -> bool {
        msg_type.is_none_or(|t| t == m.msg_type) && from.is_none_or(|f| f == m.from)
    }
}

/// Spawns a procgroup of `n` processes on `net`, each running `body` as its
/// own green thread (one single-threaded Unix process each, in p4 style).
/// Returns after scheduling; run the simulation to execute.
pub fn create_procgroup(
    sim: &ncs_sim::Sim,
    net: Arc<dyn Network>,
    n: usize,
    body: impl Fn(&Ctx, Arc<P4Proc>) + Send + Sync + 'static,
) -> Vec<Arc<P4Proc>> {
    assert!(n >= 1 && n <= net.nodes(), "procgroup larger than testbed");
    let body = Arc::new(body);
    let mut procs = Vec::with_capacity(n);
    for id in 0..n {
        let proc_ = Arc::new(P4Proc::new(id, n, Arc::clone(&net)));
        procs.push(Arc::clone(&proc_));
        let body = Arc::clone(&body);
        sim.spawn(format!("p4-{id}"), move |ctx| {
            body(ctx, proc_);
        });
    }
    procs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::{HostParams, IdealFabric, TcpNet, TcpParams};
    use ncs_sim::{Dur, Sim, SimTime};

    fn test_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(n, Dur::from_micros(50)));
        let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
        // The zero-overhead profile: these tests exercise matching logic,
        // not the calibrated 1995 cost model.
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::raw(1460, 16 * 1024)))
    }

    #[test]
    fn ping_pong_roundtrip() {
        let sim = Sim::new();
        let net = test_net(2);
        create_procgroup(&sim, net, 2, |ctx, p| {
            if p.my_id() == 0 {
                p.send(ctx, 1, 1, Bytes::from_static(b"ping"));
                let m = p.recv(ctx, Some(2), Some(1));
                assert_eq!(&m.data[..], b"pong");
            } else {
                let m = p.recv(ctx, Some(1), Some(0));
                assert_eq!(&m.data[..], b"ping");
                p.send(ctx, 2, 0, Bytes::from_static(b"pong"));
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn wildcard_recv_matches_any() {
        let sim = Sim::new();
        let net = test_net(3);
        create_procgroup(&sim, net, 3, |ctx, p| match p.my_id() {
            0 => {
                let mut froms = Vec::new();
                for _ in 0..2 {
                    let m = p.recv(ctx, None, None);
                    froms.push(m.from);
                }
                froms.sort_unstable();
                assert_eq!(froms, vec![1, 2]);
            }
            id => p.send(ctx, id as i32, 0, Bytes::from(vec![id as u8])),
        });
        sim.run().assert_clean();
    }

    #[test]
    fn type_filter_skips_nonmatching() {
        let sim = Sim::new();
        let net = test_net(2);
        create_procgroup(&sim, net, 2, |ctx, p| {
            if p.my_id() == 1 {
                p.send(ctx, 10, 0, Bytes::from_static(b"first"));
                p.send(ctx, 20, 0, Bytes::from_static(b"second"));
            } else {
                // Ask for type 20 first: must skip over the earlier type 10.
                let m = p.recv(ctx, Some(20), None);
                assert_eq!(&m.data[..], b"second");
                let m = p.recv(ctx, Some(10), None);
                assert_eq!(&m.data[..], b"first");
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn recv_blocks_whole_process() {
        // The baseline property: while rank 0 is in recv, its virtual time
        // advances to the arrival — no other work happens in that process.
        let sim = Sim::new();
        let net = test_net(2);
        create_procgroup(&sim, net, 2, |ctx, p| {
            if p.my_id() == 0 {
                let t0 = ctx.now();
                let _ = p.recv(ctx, None, None);
                assert!(ctx.now().since(t0) >= Dur::from_millis(5));
            } else {
                ctx.sleep(Dur::from_millis(5)); // compute before sending
                p.send(ctx, 1, 0, Bytes::from_static(b"x"));
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn messages_available_polls_without_blocking() {
        let sim = Sim::new();
        let net = test_net(2);
        create_procgroup(&sim, net, 2, |ctx, p| {
            if p.my_id() == 0 {
                assert!(!p.messages_available(ctx, None, None));
                ctx.sleep(Dur::from_millis(10));
                assert!(p.messages_available(ctx, Some(5), Some(1)));
                assert!(!p.messages_available(ctx, Some(6), None));
                let m = p.recv(ctx, Some(5), None);
                assert_eq!(m.from, 1);
            } else {
                p.send(ctx, 5, 0, Bytes::from_static(b"hello"));
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let sim = Sim::new();
        let net = test_net(4);
        create_procgroup(&sim, net, 4, |ctx, p| {
            if p.my_id() == 0 {
                p.broadcast(ctx, 3, Bytes::from_static(b"all"));
            } else {
                let m = p.recv(ctx, Some(3), Some(0));
                assert_eq!(&m.data[..], b"all");
            }
        });
        sim.run().assert_clean();
    }

    #[test]
    fn barrier_aligns_processes() {
        let sim = Sim::new();
        let net = test_net(4);
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        create_procgroup(&sim, net, 4, move |ctx, p| {
            ctx.sleep(Dur::from_millis(p.my_id() as u64)); // skewed arrivals
            p.barrier(ctx);
            t2.lock().push(ctx.now());
        });
        sim.run().assert_clean();
        let times = times.lock();
        assert_eq!(times.len(), 4);
        let first = times[0];
        // All exit at (nearly) the same time: within the release fan-out.
        for &t in times.iter() {
            assert!(
                t.saturating_since(first) < Dur::from_millis(2)
                    && first.saturating_since(t) < Dur::from_millis(2),
                "barrier skew too large"
            );
        }
        assert!(times
            .iter()
            .all(|&t| t >= SimTime::ZERO + Dur::from_millis(3)));
    }

    #[test]
    fn damaged_deliveries_never_reach_the_application() {
        // p4 over a lossy ATM plant with corrupted-SDU delivery on: what
        // the SAR could not reassemble comes up marked damaged, and p4 —
        // which has no error control of its own — must drop it rather than
        // hand the application bytes nobody sent.
        use ncs_net::{ChaosNet, ChaosParams};
        const MSGS: i32 = 60;
        fn body(t: i32) -> Bytes {
            Bytes::from((0..2000).map(|j| (t * 31 + j) as u8).collect::<Vec<u8>>())
        }
        let sim = Sim::new();
        let net = ChaosNet::new(test_net(2), ChaosParams::new(2e-3, 1e-2, 61));
        let got = Arc::new(Mutex::new(Vec::new()));
        let got_in = Arc::clone(&got);
        create_procgroup(&sim, net, 2, move |ctx, p| {
            if p.my_id() == 0 {
                for t in 0..MSGS {
                    p.send(ctx, t, 1, body(t));
                }
            } else {
                ctx.sleep(Dur::from_millis(100)); // everything has landed
                while p.messages_available(ctx, None, None) {
                    got_in.lock().push(p.recv(ctx, None, None));
                }
            }
        });
        sim.run().assert_clean();
        let got = got.lock();
        for m in got.iter() {
            assert_eq!(m.data, body(m.msg_type), "type {} altered", m.msg_type);
        }
        let dropped = sim.with_tracer(|tr| tr.counter("p4.damaged_dropped"));
        assert!(dropped > 0, "the plant must have damaged something");
        assert!(got.len() + dropped as usize <= MSGS as usize);
    }

    #[test]
    fn single_proc_barrier_is_noop() {
        let sim = Sim::new();
        let net = test_net(1);
        create_procgroup(&sim, net, 1, |ctx, p| {
            let t0 = ctx.now();
            p.barrier(ctx);
            assert_eq!(ctx.now(), t0);
        });
        sim.run().assert_clean();
    }
}
