//! Cell-level fault injection: a [`Network`] decorator that damages traffic
//! the way a real ATM plant does.
//!
//! [`ChaosNet`] sits between a message layer and a transport stack. For each
//! message it models the AAL5 cell stream the transport would emit and rolls
//! seeded per-cell faults:
//!
//! * **bit flips** — one random bit of the 53-byte cell (or a multi-bit
//!   burst). Header hits go through real HEC correction-mode decoding
//!   (`CellHeader::unpack_correcting`): single-bit errors are repaired,
//!   worse ones discard the cell. Payload hits ride to the receiver where
//!   the AAL5 CRC-32 rejects the CS-PDU ([`aal5::reassemble`]).
//! * **cell loss** — the cell vanishes (switch congestion elsewhere), so
//!   reassembly fails on framing or length.
//! * **crash-stop nodes** — after a scheduled instant a node emits and
//!   absorbs nothing; traffic to or from it disappears silently.
//!
//! A CS-PDU that fails its CRC-32 or length check is not silently eaten: a
//! real AAL5 receiver sees the failure when the end-of-PDU cell arrives and
//! can hand the corrupted SDU up with an error indication (I.363.5's
//! reception status). ChaosNet does the same — the transport is given what
//! the receiving SAR actually reassembled (lost cells' 48-byte spans
//! missing, flipped bits flipped) through [`Network::send_damaged`], and
//! the message lands in the inbox with [`Delivery::damaged`] set. The
//! sender pays the CPU and wire time of the PDU it sent; the receiver must
//! never consume the bytes, but learns *that* something died and can ask
//! for it again one round trip after the loss instead of one timeout.
//! What stays silent: a message whose end-of-message cell was lost or
//! discarded (the SAR cannot delimit it), one that reassembles to nothing
//! (an ACK or NACK, whose single cell carries no user bytes), and anything
//! to or from a crashed node — there the sender's timeout is the only
//! recovery. Every retransmission re-rolls its faults. All damage is
//! tallied in [`FaultStats`].
//!
//! Two **message-level** faults model a transport with no adaptation-layer
//! CRC under it ([`ChaosParams::message_level`]): the message vanishes
//! whole, or one payload byte is flipped and the message is delivered
//! *unmarked* — the damage only the NCS checksum can catch. They roll on
//! their own [`SimRng`] split and draw nothing at probability zero, so they
//! never move the cell-level stream.
//!
//! Deterministic link up/down flap windows and switch output-buffer
//! overflow live *below* the transport, on [`crate::link::LinkState`] and
//! the ATM fabric, because they depend on wire timing; this module handles
//! the payload-integrity faults that depend on message contents.

use bytes::Bytes;
use ncs_sim::sync::Mutex;
use ncs_sim::{ChoicePoint, Ctx, Dur, Sim, SimChannel, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::aal5;
use crate::cell::{AtmCell, CellHeader, CELL_BYTES, CELL_HEADER, CELL_PAYLOAD};
use crate::fabric::NodeId;
use crate::host::HostParams;
use crate::stack::{Delivery, Network, WaitPolicy};

/// Fault-injection knobs for [`ChaosNet`].
#[derive(Clone, Debug)]
pub struct ChaosParams {
    /// Per-cell probability of a bit-flip event.
    pub(crate) p_cell_corrupt: f64,
    /// Per-cell probability the cell is lost outright.
    pub(crate) p_cell_loss: f64,
    /// Probability a bit-flip event is a multi-bit burst (three flips in
    /// one byte) instead of a single bit — bursts in the header defeat
    /// HEC's single-bit correction.
    pub(crate) p_burst: f64,
    /// Per-message probability that one payload byte is flipped and the
    /// message delivered anyway (empty payloads pass untouched).
    pub(crate) p_msg_corrupt: f64,
    /// Per-message probability the whole message vanishes.
    pub(crate) p_msg_drop: f64,
    /// CS-PDU chunking applied to large messages before cell accounting
    /// (the transports hand AAL5 one I/O buffer at a time).
    pub(crate) pdu_bytes: usize,
    /// RNG seed; the same seed over the same traffic damages the same
    /// cells.
    pub(crate) seed: u64,
}

impl ChaosParams {
    /// No faults at all (useful as a baseline in sweeps).
    pub fn clean(seed: u64) -> ChaosParams {
        ChaosParams {
            p_cell_corrupt: 0.0,
            p_cell_loss: 0.0,
            p_burst: 0.1,
            p_msg_corrupt: 0.0,
            p_msg_drop: 0.0,
            pdu_bytes: 9180,
            seed,
        }
    }

    /// Corruption and loss at the given per-cell rates.
    pub fn new(p_cell_corrupt: f64, p_cell_loss: f64, seed: u64) -> ChaosParams {
        ChaosParams {
            p_cell_corrupt,
            p_cell_loss,
            ..ChaosParams::clean(seed)
        }
    }

    /// Message-level faults only: corrupt-and-deliver and whole-message
    /// drop at the given per-message rates, every cell intact.
    pub fn message_level(p_msg_corrupt: f64, p_msg_drop: f64, seed: u64) -> ChaosParams {
        ChaosParams {
            p_msg_corrupt,
            p_msg_drop,
            ..ChaosParams::clean(seed)
        }
    }
}

/// Running damage tally, shared by reference with the harness.
#[derive(Default)]
pub struct FaultStats {
    /// Cells that entered the fault model.
    pub(crate) cells_total: AtomicU64,
    /// Cells hit by a bit-flip event.
    pub(crate) cells_corrupted: AtomicU64,
    /// Cells lost outright.
    pub(crate) cells_lost: AtomicU64,
    /// Headers repaired by HEC single-bit correction.
    pub(crate) headers_corrected: AtomicU64,
    /// Cells discarded for uncorrectable headers.
    pub(crate) cells_discarded: AtomicU64,
    /// CS-PDUs rejected by the AAL5 CRC-32 or framing checks.
    pub(crate) pdus_rejected: AtomicU64,
    /// Messages that did not arrive as sent: one of their PDUs failed
    /// reassembly (delivered damaged where the SAR could delimit it,
    /// nothing otherwise), or the message-level drop fired.
    pub(crate) messages_dropped: AtomicU64,
    /// Messages delivered with one payload byte flipped.
    pub(crate) messages_corrupted: AtomicU64,
    /// Messages discarded because an endpoint had crashed.
    pub(crate) crash_drops: AtomicU64,
}

/// A plain-value copy of [`FaultStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Cells that entered the fault model.
    pub cells_total: u64,
    /// Cells hit by a bit-flip event.
    pub cells_corrupted: u64,
    /// Cells lost outright.
    pub cells_lost: u64,
    /// Headers repaired by HEC single-bit correction.
    pub headers_corrected: u64,
    /// Cells discarded for uncorrectable headers.
    pub(crate) cells_discarded: u64,
    /// CS-PDUs rejected by the AAL5 CRC-32 or framing checks.
    pub pdus_rejected: u64,
    /// Messages that did not arrive as sent (damaged or lost).
    pub messages_dropped: u64,
    /// Messages delivered with one payload byte flipped.
    pub messages_corrupted: u64,
    /// Messages discarded because an endpoint had crashed.
    pub crash_drops: u64,
}

impl FaultStats {
    /// Reads all counters.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            cells_total: self.cells_total.load(Ordering::Relaxed),
            cells_corrupted: self.cells_corrupted.load(Ordering::Relaxed),
            cells_lost: self.cells_lost.load(Ordering::Relaxed),
            headers_corrected: self.headers_corrected.load(Ordering::Relaxed),
            cells_discarded: self.cells_discarded.load(Ordering::Relaxed),
            pdus_rejected: self.pdus_rejected.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            messages_corrupted: self.messages_corrupted.load(Ordering::Relaxed),
            crash_drops: self.crash_drops.load(Ordering::Relaxed),
        }
    }
}

/// The fault-injecting network decorator.
pub struct ChaosNet {
    inner: Arc<dyn Network>,
    params: ChaosParams,
    rng: Mutex<SimRng>,
    /// The message-level faults' own stream, split off the seed.
    msg_rng: Mutex<SimRng>,
    stats: Arc<FaultStats>,
    /// Crash-stop schedule: node → instant after which it is dead.
    crashes: Mutex<BTreeMap<usize, SimTime>>,
}

impl ChaosNet {
    /// Wraps `inner` with the given fault parameters.
    pub fn new(inner: Arc<dyn Network>, params: ChaosParams) -> Arc<ChaosNet> {
        assert!((0.0..=1.0).contains(&params.p_cell_corrupt));
        assert!((0.0..=1.0).contains(&params.p_cell_loss));
        assert!((0.0..=1.0).contains(&params.p_burst));
        assert!((0.0..=1.0).contains(&params.p_msg_corrupt));
        assert!((0.0..=1.0).contains(&params.p_msg_drop));
        assert!(params.pdu_bytes > 0 && params.pdu_bytes <= aal5::MAX_PDU);
        let rng = SimRng::new(params.seed);
        Arc::new(ChaosNet {
            inner,
            msg_rng: Mutex::new(rng.split_str("message-level")),
            rng: Mutex::new(rng),
            stats: Arc::new(FaultStats::default()),
            crashes: Mutex::new(BTreeMap::new()),
            params,
        })
    }

    /// The damage tally (shared; keep a clone before moving the net).
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// Schedules `node` to crash-stop at `at`: from then on it neither
    /// sends nor receives.
    pub fn crash_at(&self, node: NodeId, at: SimTime) {
        self.crashes.lock().insert(node.idx(), at);
    }

    /// Whether `node` has crashed as of `now`.
    pub(crate) fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        self.crashes
            .lock()
            .get(&node.idx())
            .is_some_and(|&at| at <= now)
    }

    /// Runs one CS-PDU through the cell-level fault model: what the
    /// receiver's AAL5 layer makes of it.
    fn pdu_fate(&self, sim: &Sim, chunk: &[u8], rng: &mut SimRng) -> PduFate {
        let n_cells = aal5::cells_for_pdu(chunk.len());
        self.stats
            .cells_total
            .fetch_add(n_cells as u64, Ordering::Relaxed);
        // A clean wire would draw two numbers a cell and hit nothing. The
        // stream has no other reader and the params never change, so
        // skipping the draws changes no outcome.
        if self.params.p_cell_loss == 0.0 && self.params.p_cell_corrupt == 0.0 {
            return PduFate::Intact;
        }

        // Cheap pass: draw each cell's fate without materializing anything.
        let mut lost = Vec::new();
        let mut flips: Vec<(usize, Vec<usize>)> = Vec::new();
        for i in 0..n_cells {
            if rng.gen_bool(self.params.p_cell_loss) {
                lost.push(i);
                continue;
            }
            if rng.gen_bool(self.params.p_cell_corrupt) {
                let first = rng.gen_index(CELL_BYTES * 8);
                let mut bits = vec![first];
                if rng.gen_bool(self.params.p_burst) {
                    // A burst: two more flips within the same byte.
                    let byte = first / 8;
                    bits.push(byte * 8 + rng.gen_index(8));
                    bits.push(byte * 8 + rng.gen_index(8));
                    bits.dedup();
                }
                flips.push((i, bits));
            }
        }
        self.stats
            .cells_lost
            .fetch_add(lost.len() as u64, Ordering::Relaxed);
        self.stats
            .cells_corrupted
            .fetch_add(flips.len() as u64, Ordering::Relaxed);
        if lost.is_empty() && flips.is_empty() {
            return PduFate::Intact;
        }

        // Exploration: *which* cell of the train a rolled fault lands on is
        // timing, not semantics — any position is a legal victim. Let the
        // installed schedule policy rotate each hit; choice 0 keeps the
        // rolled position, so replaying an empty script is the canonical
        // fault pattern. Never consulted outside exploration runs.
        if n_cells >= 2 && sim.has_schedule_policy() {
            for i in lost.iter_mut().chain(flips.iter_mut().map(|(i, _)| i)) {
                let shift = sim.schedule_choice(ChoicePoint::FaultTiming, n_cells);
                *i = (*i + shift) % n_cells;
            }
            lost.sort_unstable();
            lost.dedup();
        }

        // Something was hit: run the real ATM receive pipeline over the
        // materialized cell stream to decide the PDU's fate.
        let cells = aal5::segment(chunk, 0, 32).expect("chunk bounded by pdu_bytes <= MAX_PDU");
        debug_assert_eq!(cells.len(), n_cells);
        let flip_map: BTreeMap<usize, &[usize]> = flips
            .iter()
            .map(|(i, bits)| (*i, bits.as_slice()))
            .collect();
        let mut received = Vec::with_capacity(n_cells);
        // The user bytes of the cells that reach the SAR, in order: cell
        // `i` carries `chunk[48 i ..]`, the tail cells pad and trailer.
        let mut bytes = Vec::with_capacity(chunk.len());
        for (i, cell) in cells.iter().enumerate() {
            if lost.binary_search(&i).is_ok() {
                continue;
            }
            let mut wire = cell.to_bytes();
            if let Some(bits) = flip_map.get(&i) {
                for &b in *bits {
                    wire[b / 8] ^= 1 << (b % 8);
                }
            }
            let mut hdr = [0u8; CELL_HEADER];
            hdr.copy_from_slice(&wire[..CELL_HEADER]);
            match CellHeader::unpack_correcting(&hdr) {
                Ok((header, corrected)) => {
                    if corrected {
                        self.stats.headers_corrected.fetch_add(1, Ordering::Relaxed);
                    }
                    let user = chunk
                        .len()
                        .saturating_sub(i * CELL_PAYLOAD)
                        .min(CELL_PAYLOAD);
                    bytes.extend_from_slice(&wire[CELL_HEADER..CELL_HEADER + user]);
                    received.push(AtmCell::new(
                        header,
                        Bytes::copy_from_slice(&wire[CELL_HEADER..]),
                    ));
                }
                Err(_) => {
                    self.stats.cells_discarded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match aal5::reassemble(&received) {
            Ok(data) if data == chunk => PduFate::Intact,
            _ => {
                self.stats.pdus_rejected.fetch_add(1, Ordering::Relaxed);
                PduFate::Damaged {
                    bytes,
                    delimited: received.last().is_some_and(|c| c.header.end_of_pdu()),
                }
            }
        }
    }

    /// Rolls the message-level faults. `Err`: the message vanished whole
    /// (handed back: its sender still pays for it); otherwise the payload to
    /// carry on with, one byte flipped if the corruption fired. Rolled per
    /// *transmission*: a retransmission of the same frame draws fresh luck,
    /// which is what lets timeout-driven recovery converge under partial
    /// loss.
    fn message_faults(&self, payload: Bytes) -> Result<Bytes, Bytes> {
        let (p_corrupt, p_drop) = (self.params.p_msg_corrupt, self.params.p_msg_drop);
        if p_corrupt == 0.0 && p_drop == 0.0 {
            return Ok(payload);
        }
        let mut rng = self.msg_rng.lock();
        if rng.gen_bool(p_drop) {
            self.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
            return Err(payload);
        }
        if payload.is_empty() || !rng.gen_bool(p_corrupt) {
            return Ok(payload);
        }
        let mut damaged = payload.to_vec();
        let at = rng.gen_index(damaged.len());
        damaged[at] ^= 0x40;
        self.stats
            .messages_corrupted
            .fetch_add(1, Ordering::Relaxed);
        Ok(Bytes::from(damaged))
    }

    /// Runs a whole message through the cell-level fault model. `None`:
    /// every CS-PDU reassembled, the message arrives as sent. Otherwise what
    /// the receiving SAR hands up instead — each PDU's surviving bytes in
    /// order — or nothing at all when the end-of-message cell never came:
    /// without it the SAR cannot delimit the message, and whatever it
    /// gathered is discarded with the next one.
    fn cell_faults(&self, sim: &Sim, payload: &[u8]) -> Option<Bytes> {
        let mut rng = self.rng.lock();
        let pdu = self.params.pdu_bytes;
        let mut arrived: Option<Vec<u8>> = None;
        let mut delimited = true;
        // An empty payload still rides one (trailer-only) PDU.
        for lo in (0..payload.len().max(1)).step_by(pdu) {
            let chunk = &payload[lo..payload.len().min(lo + pdu)];
            // Keep draining the RNG for every chunk so fault positions do
            // not depend on earlier chunks' outcomes.
            match self.pdu_fate(sim, chunk, &mut rng) {
                PduFate::Intact => {
                    if let Some(a) = &mut arrived {
                        a.extend_from_slice(chunk);
                    }
                    delimited = true;
                }
                PduFate::Damaged {
                    bytes,
                    delimited: d,
                } => {
                    arrived
                        .get_or_insert_with(|| payload[..lo].to_vec())
                        .extend_from_slice(&bytes);
                    delimited = d;
                }
            }
        }
        let mut arrived = arrived?;
        self.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
        if !delimited {
            arrived.clear();
        }
        Some(Bytes::from(arrived))
    }
}

/// What the receiving SAR makes of one CS-PDU.
enum PduFate {
    /// Every cell arrived (header hits repaired by HEC) and the CRC and
    /// length check out: the payload goes up as sent.
    Intact,
    /// The CRC-32 or the framing/length check failed.
    Damaged {
        /// The user bytes of the cells that reached the SAR, in order,
        /// flipped bits flipped.
        bytes: Vec<u8>,
        /// The end-of-PDU cell was among them.
        delimited: bool,
    },
}

impl Network for ChaosNet {
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
        let now = ctx.now();
        if self.is_crashed(src, now) || self.is_crashed(dst, now) {
            self.stats.crash_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Whatever happens in flight, the sender has paid for the whole
        // transmission: a broken message goes down the same send path as
        // an intact one, only what comes out at the far end differs.
        let (payload, arrived) = match self.message_faults(payload) {
            Ok(payload) => {
                let arrived = self.cell_faults(ctx.sim(), &payload);
                (payload, arrived)
            }
            Err(vanished) => (vanished, Some(Bytes::new())),
        };
        match arrived {
            None => self.inner.send(ctx, policy, src, dst, tag, payload),
            Some(arrived) => self
                .inner
                .send_damaged(ctx, policy, src, dst, tag, payload, arrived),
        }
    }

    fn inbox(&self, node: NodeId) -> SimChannel<Delivery> {
        self.inner.inbox(node)
    }

    fn recv_pickup_cost(&self, node: NodeId, bytes: usize) -> Dur {
        self.inner.recv_pickup_cost(node, bytes)
    }

    fn recv_reaction_cost(&self, node: NodeId, bytes: usize) -> Dur {
        self.inner.recv_reaction_cost(node, bytes)
    }

    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        // Crash-stop is not a partition: the links stay up, the peer is
        // silent. Only real route severance counts.
        self.inner.peer_unreachable(src, dst, now)
    }

    fn description(&self) -> String {
        format!(
            "chaos(corrupt {:.1e}/cell, loss {:.1e}/cell, seed {}) over {}",
            self.params.p_cell_corrupt,
            self.params.p_cell_loss,
            self.params.seed,
            self.inner.description()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::IdealFabric;
    use crate::stack::{BlockingWait, TcpNet, TcpParams};
    use ncs_sim::Sim;

    fn base_net() -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(5)));
        let hosts = (0..2).map(|_| HostParams::test_fast()).collect();
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
    }

    /// Sends each payload 0 → 1 through `net`; returns what lands.
    fn landed(net: &Arc<ChaosNet>, payloads: Vec<Bytes>) -> Vec<Delivery> {
        let sim = Sim::new();
        let tx = Arc::clone(net);
        sim.spawn("sender", move |ctx| {
            for (i, p) in payloads.into_iter().enumerate() {
                tx.send(ctx, &BlockingWait, NodeId(0), NodeId(1), i as u64, p);
            }
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        let (got2, rx) = (Arc::clone(&got), Arc::clone(net));
        sim.spawn("receiver", move |ctx| {
            let inbox = rx.inbox(NodeId(1));
            while let Ok(d) = inbox.recv(ctx) {
                got2.lock().push(d);
            }
        });
        let outcome = sim.run();
        assert!(outcome.panics.is_empty(), "{:?}", outcome.panics);
        let got = got.lock().clone();
        got
    }

    /// Sends each payload 0 → 1 through `net`; returns what arrives intact.
    fn carried(net: &Arc<ChaosNet>, payloads: Vec<Bytes>) -> Vec<Bytes> {
        let intact = landed(net, payloads).into_iter().filter(|d| !d.damaged);
        intact.map(|d| d.payload).collect()
    }

    /// Sends `n` messages of `bytes` through `net`; returns how many arrive
    /// intact.
    fn deliveries(net: Arc<ChaosNet>, n: usize, bytes: usize) -> usize {
        carried(&net, vec![Bytes::from(vec![0xA5u8; bytes]); n]).len()
    }

    /// A payload of `spans` 48-byte spans, span `k` filled with `k`: cell
    /// `k` of its PDU carries exactly span `k`, and one more cell carries
    /// the trailer alone.
    fn spans(n: usize) -> Bytes {
        Bytes::from(
            (0..n * CELL_PAYLOAD)
                .map(|j| (j / CELL_PAYLOAD) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn clean_params_are_transparent() {
        let net = ChaosNet::new(base_net(), ChaosParams::clean(1));
        let stats = net.stats();
        let sim = Sim::new();
        let tx = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            tx.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                9,
                Bytes::from_static(b"hello cells"),
            );
        });
        let ok = Arc::new(Mutex::new(false));
        let ok2 = Arc::clone(&ok);
        let rx = Arc::clone(&net);
        sim.spawn("receiver", move |ctx| {
            let d = rx.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!(&d.payload[..], b"hello cells");
            assert!(!d.damaged);
            *ok2.lock() = true;
        });
        sim.run();
        assert!(*ok.lock());
        let s = stats.snapshot();
        assert_eq!(s.cells_corrupted, 0);
        assert_eq!(s.messages_dropped, 0);
        assert!(s.cells_total > 0);
    }

    #[test]
    fn heavy_corruption_drops_messages() {
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.5, 0.0, 7));
        let stats = net.stats();
        let sim = Sim::new();
        let tx = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            for i in 0..10u64 {
                tx.send(
                    ctx,
                    &BlockingWait,
                    NodeId(0),
                    NodeId(1),
                    i,
                    Bytes::from(vec![3u8; 4096]),
                );
            }
        });
        sim.run();
        let s = stats.snapshot();
        assert!(s.cells_corrupted > 0);
        assert!(s.messages_dropped > 0, "{s:?}");
        // Payload hits must be caught by the AAL5 CRC.
        assert!(s.pdus_rejected > 0, "{s:?}");
    }

    #[test]
    fn single_bit_header_hits_are_survivable() {
        // With bursts disabled every header hit is a single flipped bit,
        // which HEC correction repairs; only payload hits kill PDUs.
        let mut p = ChaosParams::new(0.05, 0.0, 21);
        p.p_burst = 0.0;
        let net = ChaosNet::new(base_net(), p);
        let stats = net.stats();
        let sim = Sim::new();
        let tx = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            for i in 0..200u64 {
                tx.send(
                    ctx,
                    &BlockingWait,
                    NodeId(0),
                    NodeId(1),
                    i,
                    Bytes::from(vec![17u8; 1024]),
                );
            }
        });
        sim.run();
        let s = stats.snapshot();
        assert!(s.headers_corrected > 0, "header hits occur at 5% {s:?}");
        assert_eq!(s.cells_discarded, 0, "single-bit headers always repair");
    }

    #[test]
    fn cell_loss_breaks_reassembly() {
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, 0.3, 5));
        let stats = net.stats();
        let intact = deliveries(Arc::clone(&net), 20, 2048);
        let s = stats.snapshot();
        assert!(s.cells_lost > 0);
        assert!(s.messages_dropped > 0);
        assert!(intact < 20);
        assert_eq!(
            s.messages_dropped as usize + intact,
            20,
            "every message either arrives intact or is counted dropped"
        );
    }

    #[test]
    fn damaged_delivery_is_the_surviving_cells_in_order() {
        // Loss only, on span-labelled payloads: what the SAR hands up of a
        // broken PDU is the spans of the cells that reached it, in order —
        // and it hands something up only if the end-of-PDU cell did.
        const SPANS: usize = 20;
        const MSGS: usize = 200;
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, 0.05, 17));
        let got = landed(&net, vec![spans(SPANS); MSGS]);
        let (mut damaged, mut missing) = (0, 0);
        for d in &got {
            if !d.damaged {
                assert_eq!(d.payload, spans(SPANS));
                continue;
            }
            damaged += 1;
            assert!(
                !d.payload.is_empty(),
                "nothing reassembled: nothing delivered"
            );
            assert_eq!(d.payload.len() % CELL_PAYLOAD, 0, "whole spans only");
            let labels: Vec<u8> = d.payload.chunks(CELL_PAYLOAD).map(|c| c[0]).collect();
            for (c, &k) in d.payload.chunks(CELL_PAYLOAD).zip(&labels) {
                assert!(c.iter().all(|&b| b == k), "span {k} altered");
            }
            assert!(
                labels.windows(2).all(|w| w[0] < w[1]),
                "out of order: {labels:?}"
            );
            // Every span present would mean only the trailer cell died, and
            // without it the SAR cannot delimit the PDU at all.
            assert!(labels.len() < SPANS, "PDU delivered without its last cell");
            missing += SPANS - labels.len();
        }
        let s = net.stats().snapshot();
        assert!(
            damaged > 0 && got.len() < MSGS,
            "both fates must occur: {s:?}"
        );
        assert_eq!(s.messages_dropped as usize, damaged + MSGS - got.len());
        assert_eq!(s.pdus_rejected, s.messages_dropped, "one PDU per message");
        assert!(missing as u64 <= s.cells_lost);
    }

    #[test]
    fn flipped_bits_arrive_flipped() {
        // One flipped bit in every cell, no bursts: header hits are
        // repaired, payload hits ride up. Nothing is lost, so the damaged
        // copy has the length of the original and differs from it by at
        // most one bit per cell.
        let mut p = ChaosParams::new(1.0, 0.0, 23);
        p.p_burst = 0.0;
        let net = ChaosNet::new(base_net(), p);
        let sent = spans(40);
        let got = landed(&net, vec![sent.clone(); 10]);
        assert_eq!(got.len(), 10, "every end-of-PDU cell arrives");
        for d in &got {
            assert!(d.damaged, "41 cells, one flip each: some hit the payload");
            assert_eq!(d.payload.len(), sent.len());
            let flips: u32 = d
                .payload
                .iter()
                .zip(&sent[..])
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert!((1..=41).contains(&flips), "{flips} bits differ");
            for (a, b) in d
                .payload
                .chunks(CELL_PAYLOAD)
                .zip(sent.chunks(CELL_PAYLOAD))
            {
                let in_cell: u32 = a.iter().zip(b).map(|(a, b)| (a ^ b).count_ones()).sum();
                assert!(in_cell <= 1);
            }
        }
    }

    #[test]
    fn undelimited_and_empty_pdus_are_dropped_not_delivered() {
        // A one-cell PDU's only cell is its end-of-PDU cell: losing it
        // leaves the SAR nothing to delimit, so a lossy wire delivers it
        // intact or not at all — never damaged.
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, 0.5, 29));
        let got = landed(&net, vec![Bytes::from_static(b"fits in one cell"); 40]);
        assert!(got
            .iter()
            .all(|d| !d.damaged && &d.payload[..] == b"fits in one cell"));
        let s = net.stats().snapshot();
        assert!(!got.is_empty() && got.len() < 40);
        assert_eq!(got.len() + s.messages_dropped as usize, 40);
        // An empty payload rides one trailer-only cell (an ACK does): if a
        // flip breaks its CRC there is nothing to hand up.
        let mut p = ChaosParams::new(1.0, 0.0, 31);
        p.p_burst = 0.0;
        let net = ChaosNet::new(base_net(), p);
        let got = landed(&net, vec![Bytes::new(); 200]);
        assert!(got.iter().all(|d| !d.damaged && d.payload.is_empty()));
        let s = net.stats().snapshot();
        assert!(
            s.headers_corrected > 0,
            "header hits are repaired and arrive"
        );
        assert_eq!(got.len() as u64, s.headers_corrected);
        assert_eq!(got.len() as u64 + s.pdus_rejected, 200);
        // Every cell lost: the sender pays, nothing comes out.
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, 1.0, 37));
        assert!(landed(&net, vec![spans(5); 4]).is_empty());
        assert_eq!(net.stats().snapshot().messages_dropped, 4);
    }

    #[test]
    fn multi_pdu_message_keeps_its_intact_pdus() {
        // Three PDUs of 10 spans; whatever is hit, the message's damaged
        // copy is each PDU's surviving spans in message order.
        let mut p = ChaosParams::new(0.0, 0.02, 41);
        p.pdu_bytes = 10 * CELL_PAYLOAD;
        let net = ChaosNet::new(base_net(), p);
        let got = landed(&net, vec![spans(30); 100]);
        let damaged: Vec<_> = got.iter().filter(|d| d.damaged).collect();
        assert!(!damaged.is_empty());
        for d in damaged {
            let labels: Vec<u8> = d.payload.chunks(CELL_PAYLOAD).map(|c| c[0]).collect();
            assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
        }
    }

    #[test]
    fn sender_pays_for_what_the_wire_breaks() {
        // The same traffic costs its sender the same time whether the wire
        // delivers it, damages it or loses it outright.
        let busy = |params: ChaosParams| {
            let net = ChaosNet::new(base_net(), params);
            let sim = Sim::new();
            let done = Arc::new(Mutex::new(SimTime::ZERO));
            let done_in = Arc::clone(&done);
            sim.spawn("sender", move |ctx| {
                for i in 0..10 {
                    net.send(ctx, &BlockingWait, NodeId(0), NodeId(1), i, spans(40));
                }
                *done_in.lock() = ctx.now();
            });
            sim.run();
            let t = *done.lock();
            t
        };
        let clean = busy(ChaosParams::clean(1));
        assert!(clean > SimTime::ZERO);
        assert_eq!(busy(ChaosParams::new(0.5, 0.0, 1)), clean, "damaged");
        assert_eq!(busy(ChaosParams::new(0.0, 1.0, 1)), clean, "lost");
        assert_eq!(
            busy(ChaosParams::message_level(0.0, 1.0, 1)),
            clean,
            "vanished"
        );
    }

    #[test]
    fn crashed_destination_absorbs_nothing() {
        let net = ChaosNet::new(base_net(), ChaosParams::clean(3));
        net.crash_at(NodeId(1), SimTime::ZERO);
        let stats = net.stats();
        let delivered = deliveries(Arc::clone(&net), 5, 64);
        assert_eq!(delivered, 0);
        assert_eq!(stats.snapshot().crash_drops, 5);
    }

    #[test]
    fn crash_takes_effect_at_its_instant() {
        let net = ChaosNet::new(base_net(), ChaosParams::clean(3));
        net.crash_at(NodeId(1), SimTime::ZERO + Dur::from_millis(1));
        assert!(!net.is_crashed(NodeId(1), SimTime::ZERO));
        assert!(net.is_crashed(NodeId(1), SimTime::ZERO + Dur::from_millis(2)));
    }

    #[test]
    fn same_seed_same_damage() {
        let run = |seed: u64| {
            let net = ChaosNet::new(base_net(), ChaosParams::new(0.02, 0.01, seed));
            let stats = net.stats();
            deliveries(net, 30, 1500);
            stats.snapshot()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn empty_messages_still_traverse() {
        let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, 0.0, 1));
        let delivered = deliveries(Arc::clone(&net), 3, 0);
        assert_eq!(delivered, 3);
        // An empty payload still rides one cell (trailer only).
        assert_eq!(net.stats().snapshot().cells_total, 3);
    }

    #[test]
    fn fault_rolls_are_per_cell_not_per_batch() {
        // Fault decisions are drawn per cell *before* any transport
        // batching (I/O buffers, cell trains), so loss probability cannot
        // depend on how the transport groups cells. With the same seed,
        // one large message and the same bytes split into per-PDU messages
        // consume the RNG identically: the damage tallies must be *equal*,
        // not merely statistically close.
        let pdu = ChaosParams::clean(0).pdu_bytes;
        let run = |msgs: usize, bytes: usize| {
            let net = ChaosNet::new(base_net(), ChaosParams::new(0.01, 0.02, 99));
            let stats = net.stats();
            deliveries(net, msgs, bytes);
            stats.snapshot()
        };
        let whole = run(1, 10 * pdu);
        let split = run(10, pdu);
        assert_eq!(whole.cells_total, split.cells_total);
        assert_eq!(whole.cells_lost, split.cells_lost);
        assert_eq!(whole.cells_corrupted, split.cells_corrupted);
        assert_eq!(whole.pdus_rejected, split.pdus_rejected);
    }

    #[test]
    fn loss_rate_statistical_regression() {
        // Fixed seed, fixed traffic: the observed per-cell loss count must
        // (a) be byte-for-byte reproducible and (b) sit within 5 sigma of
        // the binomial expectation — a seeded-RNG regression net for the
        // fault model.
        let p_loss = 0.05;
        let run = || {
            let net = ChaosNet::new(base_net(), ChaosParams::new(0.0, p_loss, 4242));
            let stats = net.stats();
            deliveries(net, 50, 8192);
            stats.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same traffic, same damage");
        let n = a.cells_total as f64;
        let mean = n * p_loss;
        let sigma = (n * p_loss * (1.0 - p_loss)).sqrt();
        let lo = (mean - 5.0 * sigma).floor() as u64;
        let hi = (mean + 5.0 * sigma).ceil() as u64;
        assert!(
            (lo..=hi).contains(&a.cells_lost),
            "cells_lost {} outside [{lo}, {hi}] for n={n} p={p_loss}",
            a.cells_lost
        );
    }

    #[test]
    fn message_corruption_delivers_a_damaged_copy() {
        let net = ChaosNet::new(base_net(), ChaosParams::message_level(1.0, 0.0, 2));
        let got = carried(&net, vec![Bytes::from_static(b"abcd")]);
        assert_eq!(got.len(), 1, "corrupted, not dropped");
        assert_ne!(&got[0][..], b"abcd", "must be corrupted");
        assert_eq!(got[0].len(), 4, "corruption preserves length");
        let s = net.stats().snapshot();
        assert_eq!((s.messages_corrupted, s.messages_dropped), (1, 0));
    }

    #[test]
    fn message_faults_rerolled_per_transmission() {
        // The same frame sent repeatedly (as a retransmitting sender would)
        // draws fresh luck each time: under p_msg_drop = 0.5 some copies die
        // and some survive, rather than every copy sharing one verdict.
        const COPIES: usize = 64;
        let net = ChaosNet::new(base_net(), ChaosParams::message_level(0.0, 0.5, 42));
        let got = carried(&net, vec![Bytes::from_static(b"same frame"); COPIES]);
        let dropped = net.stats().snapshot().messages_dropped as usize;
        assert!(dropped > 0, "no copy was ever dropped");
        assert!(dropped < COPIES, "every copy was dropped");
        assert_eq!(got.len() + dropped, COPIES);
    }

    #[test]
    fn empty_payloads_pass_message_corruption_untouched() {
        let net = ChaosNet::new(base_net(), ChaosParams::message_level(1.0, 0.0, 3));
        let got = carried(&net, vec![Bytes::new()]);
        assert_eq!(got, vec![Bytes::new()]);
        assert_eq!(net.stats().snapshot().messages_corrupted, 0);
    }

    #[test]
    fn message_faults_deterministic_under_seed() {
        let run = |seed: u64| {
            let net = ChaosNet::new(base_net(), ChaosParams::message_level(0.5, 0.1, seed));
            let sent = (0..100u8).map(|i| Bytes::from(vec![i; 16])).collect();
            (carried(&net, sent), net.stats().snapshot())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(1234567).1, "different seeds should differ");
    }

    #[test]
    fn message_level_draws_leave_the_cell_stream_alone() {
        // Same seed, same traffic, message-level corruption on or off: the
        // cell-level faults land on exactly the same cells.
        let run = |p_msg_corrupt: f64| {
            let net = ChaosNet::new(
                base_net(),
                ChaosParams {
                    p_msg_corrupt,
                    ..ChaosParams::new(0.02, 0.01, 11)
                },
            );
            deliveries(Arc::clone(&net), 30, 1500);
            net.stats().snapshot()
        };
        let (off, on) = (run(0.0), run(0.5));
        assert!(on.messages_corrupted > 0);
        assert_eq!(
            (on.cells_total, on.cells_lost, on.cells_corrupted),
            (off.cells_total, off.cells_lost, off.cells_corrupted)
        );
    }

    #[test]
    fn reaction_cost_delegates_to_inner() {
        // The trait default is zero, which would silently erase the wrapped
        // transport's blocking-receiver latency.
        let inner = base_net();
        let wrapped = ChaosNet::new(Arc::clone(&inner), ChaosParams::clean(9));
        for bytes in [0usize, 1 << 10, 1 << 20] {
            assert_eq!(
                wrapped.recv_reaction_cost(NodeId(1), bytes),
                inner.recv_reaction_cost(NodeId(1), bytes),
                "reaction cost must pass through for {bytes} bytes"
            );
        }
    }
}
