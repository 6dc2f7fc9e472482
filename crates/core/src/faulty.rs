//! Fault injection: a corrupting transport wrapper.
//!
//! ATM links in the field flip bits; AAL5's CRC-32 catches them at the
//! adaptation layer, but NCS's Normal Speed Mode can also ride transports
//! modeled as unreliable. [`FaultyNet`] wraps any [`Network`] and corrupts
//! message payloads with a configurable, seeded probability, so tests can
//! drive the NCS checksum/retransmit error-control thread end to end
//! ([`crate::env::ErrorControl::ChecksumRetransmit`]).

use bytes::Bytes;
use ncs_net::stack::WaitPolicy;
use ncs_net::{Delivery, HostParams, Network, NodeId};
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, Dur, SimChannel, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transport decorator that corrupts one payload byte with probability
/// `p_corrupt`, and silently discards whole messages with probability
/// `p_drop`, per message. Deterministic under a fixed seed.
///
/// Faults are rolled per *transmission*, not per logical message: a
/// retransmission of the same frame draws fresh luck, which is what makes
/// timeout-driven recovery converge under partial loss.
pub struct FaultyNet {
    inner: Arc<dyn Network>,
    p_corrupt: f64,
    p_drop: f64,
    rng: Mutex<SimRng>,
    corrupted: AtomicU64,
    dropped: AtomicU64,
}

impl FaultyNet {
    /// Wraps `inner`, corrupting with probability `p_corrupt` (0..=1).
    pub fn new(inner: Arc<dyn Network>, p_corrupt: f64, seed: u64) -> FaultyNet {
        Self::with_loss(inner, p_corrupt, 0.0, seed)
    }

    /// Wraps `inner` with both corruption and loss.
    pub fn with_loss(inner: Arc<dyn Network>, p_corrupt: f64, p_drop: f64, seed: u64) -> FaultyNet {
        assert!((0.0..=1.0).contains(&p_corrupt));
        assert!((0.0..=1.0).contains(&p_drop));
        FaultyNet {
            inner,
            p_corrupt,
            p_drop,
            rng: Mutex::new(SimRng::new(seed)),
            corrupted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Messages corrupted so far.
    pub fn corrupted_count(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Messages silently discarded so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Network for FaultyNet {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn host(&self, node: NodeId) -> &HostParams {
        self.inner.host(node)
    }

    fn send(
        &self,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
    ) {
        {
            let mut rng = self.rng.lock();
            if rng.gen_bool(self.p_drop) {
                // The message vanishes on the wire (a burst error past the
                // CRC budget, a dropped cell). Sender-side costs are
                // skipped with it — loss is rare enough that the timing
                // error is negligible, and the protocol-level consequences
                // (timeout, retransmit) are what the tests exercise.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let payload = {
            let mut rng = self.rng.lock();
            if !payload.is_empty() && rng.gen_bool(self.p_corrupt) {
                let mut v = payload.to_vec();
                let idx = rng.gen_index(v.len());
                v[idx] ^= 0x40;
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                Bytes::from(v)
            } else {
                payload
            }
        };
        self.inner.send(ctx, policy, src, dst, tag, payload);
    }

    fn inbox(&self, node: NodeId) -> SimChannel<Delivery> {
        self.inner.inbox(node)
    }

    fn recv_pickup_cost(&self, node: NodeId, bytes: usize) -> Dur {
        self.inner.recv_pickup_cost(node, bytes)
    }

    fn recv_reaction_cost(&self, node: NodeId, bytes: usize) -> Dur {
        // Must delegate: the trait default is zero, which would silently
        // erase the wrapped transport's blocking-receiver latency.
        self.inner.recv_reaction_cost(node, bytes)
    }

    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: ncs_sim::SimTime) -> bool {
        // Must delegate: the trait default is "never partitioned", which
        // would hide the wrapped fabric's outage windows.
        self.inner.peer_unreachable(src, dst, now)
    }

    fn description(&self) -> String {
        format!(
            "{} with byte corruption p={}",
            self.inner.description(),
            self.p_corrupt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::stack::BlockingWait;
    use ncs_net::{IdealFabric, TcpNet, TcpParams};
    use ncs_sim::Sim;

    fn base_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(n, Dur::from_micros(5)));
        let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::ethernet()))
    }

    #[test]
    fn zero_probability_never_corrupts() {
        let net = Arc::new(FaultyNet::new(base_net(2), 0.0, 1));
        let sim = Sim::new();
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            for _ in 0..50 {
                n2.send(
                    ctx,
                    &BlockingWait,
                    NodeId(0),
                    NodeId(1),
                    0,
                    Bytes::from_static(b"abc"),
                );
            }
        });
        let n3 = Arc::clone(&net);
        sim.spawn("rx", move |ctx| {
            let inbox = n3.inbox(NodeId(1));
            for _ in 0..50 {
                let d = inbox.recv(ctx).unwrap();
                assert_eq!(&d.payload[..], b"abc");
            }
        });
        sim.run().assert_clean();
        assert_eq!(net.corrupted_count(), 0);
    }

    #[test]
    fn certain_probability_always_corrupts() {
        let net = Arc::new(FaultyNet::new(base_net(2), 1.0, 2));
        let sim = Sim::new();
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from_static(b"abcd"),
            );
        });
        let n3 = Arc::clone(&net);
        sim.spawn("rx", move |ctx| {
            let d = n3.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_ne!(&d.payload[..], b"abcd", "must be corrupted");
            assert_eq!(d.payload.len(), 4, "corruption preserves length");
        });
        sim.run().assert_clean();
        assert_eq!(net.corrupted_count(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let net = Arc::new(FaultyNet::new(base_net(2), 0.5, seed));
            let sim = Sim::new();
            let n2 = Arc::clone(&net);
            sim.spawn("tx", move |ctx| {
                for i in 0..100u8 {
                    n2.send(
                        ctx,
                        &BlockingWait,
                        NodeId(0),
                        NodeId(1),
                        0,
                        Bytes::from(vec![i; 16]),
                    );
                }
            });
            sim.run().assert_clean();
            net.corrupted_count()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(1234567), "different seeds should differ");
    }

    #[test]
    fn faults_rerolled_per_transmission() {
        // The same frame sent repeatedly (as a retransmitting sender would)
        // draws fresh luck each time: under p_drop = 0.5 some copies die and
        // some survive, rather than every copy sharing one verdict.
        let net = Arc::new(FaultyNet::with_loss(base_net(2), 0.0, 0.5, 42));
        let sim = Sim::new();
        let n2 = Arc::clone(&net);
        const COPIES: u64 = 64;
        sim.spawn("tx", move |ctx| {
            for _ in 0..COPIES {
                n2.send(
                    ctx,
                    &BlockingWait,
                    NodeId(0),
                    NodeId(1),
                    7,
                    Bytes::from_static(b"same frame"),
                );
            }
        });
        sim.run().assert_clean();
        let dropped = net.dropped_count();
        assert!(dropped > 0, "no copy was ever dropped");
        assert!(dropped < COPIES, "every copy was dropped");
    }

    #[test]
    fn reaction_cost_delegates_to_inner() {
        let inner = base_net(2);
        let wrapped = FaultyNet::new(Arc::clone(&inner), 0.5, 9);
        for bytes in [0usize, 1 << 10, 1 << 20] {
            assert_eq!(
                wrapped.recv_reaction_cost(NodeId(1), bytes),
                inner.recv_reaction_cost(NodeId(1), bytes),
                "reaction cost must pass through for {bytes} bytes"
            );
        }
    }

    #[test]
    fn empty_payloads_pass_untouched() {
        let net = Arc::new(FaultyNet::new(base_net(2), 1.0, 3));
        let sim = Sim::new();
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(ctx, &BlockingWait, NodeId(0), NodeId(1), 9, Bytes::new());
        });
        sim.run().assert_clean();
        assert_eq!(net.corrupted_count(), 0);
    }
}
