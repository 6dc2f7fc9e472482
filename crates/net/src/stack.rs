//! Transport stacks: how a process's bytes become wire traffic.
//!
//! Two stacks implement the same [`Network`] interface over any [`Fabric`].
//! Both are a [`Stack`]: one endpoint table (the fabric, a host model and an
//! inbox per node) holding the single delivery tail and every [`Network`]
//! method the two share, plus a [`Transport`] — the send loop and costs
//! that make each stack what it is:
//!
//! * [`TcpNet`] — the Normal Speed Mode / baseline path: Unix sockets and
//!   TCP/IP. Syscall entry, per-segment protocol processing, the 5-access
//!   datapath of Figure 3, MSS segmentation, and send-socket-buffer pacing.
//! * [`AtmApiNet`] — NCS High Speed Mode (the paper's "second approach"):
//!   traps instead of syscalls, the 3-access mmap'ed-buffer datapath, and
//!   the multiple-I/O-buffer pipeline of Figure 2 in which the host fills
//!   buffer *k+1* while the SBA-200 drains buffer *k*.
//!
//! How *wait* time (wire pacing, buffer availability) is spent is the
//! caller's policy: a Unix process blocks in the kernel ([`BlockingWait`]),
//! while NCS's user-level runtime can hand the CPU to a sibling thread
//! (ncs-mts provides that policy). CPU time (copies, protocol processing)
//! is always charged to the calling thread — no runtime can overlap it.
//!
//! Both stacks have the AAL5 corrupted-SDU-delivery option on: a message a
//! fault injector broke in flight goes down the same send body as an
//! intact one ([`Network::send_damaged`] beside [`Network::send`] — the
//! sender cannot tell and pays the same), and what the receiving SAR made
//! of it lands in the inbox with [`Delivery::damaged`] set, for the layer
//! above to ask again rather than wait out a timeout. Consumers of an
//! inbox must check that flag before touching the payload.

use bytes::Bytes;
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, Dur, SimChannel, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::aal5;
use crate::fabric::{Fabric, NodeId};
use crate::host::{DatapathKind, HostParams};

/// How a transport spends non-CPU wait time.
pub trait WaitPolicy: Send + Sync {
    /// Waits `d` of virtual time on behalf of the calling thread.
    fn wait(&self, ctx: &Ctx, d: Dur);
}

/// Unix semantics: the wait blocks the whole process (plain sleep).
pub struct BlockingWait;

impl WaitPolicy for BlockingWait {
    fn wait(&self, ctx: &Ctx, d: Dur) {
        ctx.sleep(d);
    }
}

/// A message as it lands in a destination inbox.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Caller-defined tag (message type, thread routing, …).
    pub tag: u64,
    /// The actual payload bytes.
    pub payload: Bytes,
    /// When the sender entered the transport.
    pub sent_at: SimTime,
    /// When the last bit (plus receive-side NIC work) arrived.
    pub arrived_at: SimTime,
    /// Reception status (I.363.5's corrupted-SDU-delivery option): the
    /// receiving SAR failed this message's CRC or length check and hands up
    /// what it reassembled anyway. `payload` is then not what was sent —
    /// lost cells' spans are missing, flipped bits are flipped — and must
    /// never be consumed as data; it tells the receiver *that* something
    /// from `src` under `tag` died, so it can ask for it again.
    pub damaged: bool,
}

/// A transport stack bound to a fabric: the interface message-passing
/// layers (p4, NCS_MPS) build on.
pub trait Network: Send + Sync + 'static {
    /// Number of hosts.
    fn nodes(&self) -> usize;

    /// Host model of `node`.
    fn host(&self, node: NodeId) -> &HostParams;

    /// Transfers `payload` from `src` to `dst`. Blocks the calling green
    /// thread for all sender-side CPU work; non-CPU waits go through
    /// `policy`. Delivery into `dst`'s inbox happens asynchronously at the
    /// modeled arrival time.
    fn send(
        &self,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
    );

    /// Transfers `sent` like [`Network::send`] — the sender pays the same
    /// CPU and wire time — but the receiving SAR failed reassembly: `dst`
    /// is handed `arrived`, what was reassembled of it, with
    /// [`Delivery::damaged`] set. An empty `arrived` means nothing could be
    /// delimited (the end-of-message cell never came): the wire time is
    /// spent and nothing is delivered. Called by fault injectors, never by
    /// message layers. Default: a transport without the corrupted-SDU
    /// delivery option discards the PDU.
    #[allow(clippy::too_many_arguments)]
    fn send_damaged(
        &self,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        sent: Bytes,
        arrived: Bytes,
    ) {
        let _ = (ctx, policy, src, dst, tag, sent, arrived);
    }

    /// The arrival queue for `node`.
    fn inbox(&self, node: NodeId) -> SimChannel<Delivery>;

    /// Receiver-side CPU cost to move an arrived message of `bytes` into
    /// the application (charged by the caller when it picks the message up).
    fn recv_pickup_cost(&self, node: NodeId, bytes: usize) -> Dur;

    /// Additional receiver-side latency paid only by *blocking* receivers:
    /// the message layer's large-message protocol hands data over in
    /// fragments, and a process that sleeps in the kernel between fragments
    /// eats a scheduler wakeup for each one. A polling receiver (NCS's
    /// receive system thread) avoids this entirely — the "reduce operating
    /// system overhead" claim of the paper's Section 1. Defaults to zero.
    fn recv_reaction_cost(&self, node: NodeId, bytes: usize) -> Dur {
        let _ = (node, bytes);
        Dur::ZERO
    }

    /// Whether every route from `src` to `dst` is severed at `now` (see
    /// [`Fabric::path_down`]). Error-control layers use this to distinguish
    /// a partition (fail fast with an exception) from ordinary loss (retry).
    /// Default: never partitioned.
    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        let _ = (src, dst, now);
        false
    }

    /// Human-readable summary.
    fn description(&self) -> String;
}

/// The half of a transport stack that differs between NSM and HSM: how a
/// message crosses the sender's host and adapter onto the fabric, and what
/// receiving one costs. [`Stack`] supplies everything else.
pub trait Transport: Send + Sync + 'static {
    /// Carries a `len`-byte message from `src` (host model `host`) to `dst`
    /// over `fabric`: the calling thread sleeps through its own CPU work and
    /// spends non-CPU waits through `policy`. Returns when the message is in
    /// `dst`'s receive path, and whether the fabric lost any of it.
    #[allow(clippy::too_many_arguments)]
    fn carry<F: Fabric>(
        &self,
        fabric: &F,
        host: &HostParams,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        len: usize,
    ) -> (SimTime, bool);

    /// [`Network::recv_pickup_cost`] on a host with model `host`.
    fn pickup_cost(&self, host: &HostParams, bytes: usize) -> Dur;

    /// [`Network::recv_reaction_cost`]; zero unless the stack says otherwise.
    fn reaction_cost(&self, _bytes: usize) -> Dur {
        Dur::ZERO
    }

    /// What [`Network::description`] says before "over" the fabric.
    fn name(&self) -> String;
}

/// A transport stack bound to a fabric: the endpoint table both stacks
/// share — the fabric, one host model and one inbox per node — and `T`,
/// the stack's own send loop and costs ([`TcpNet`], [`AtmApiNet`]).
pub struct Stack<F: Fabric, T> {
    fabric: Arc<F>,
    hosts: Vec<HostParams>,
    inboxes: Vec<SimChannel<Delivery>>,
    transport: T,
}

impl<F: Fabric, T: Transport> Stack<F, T> {
    fn bind(fabric: Arc<F>, hosts: Vec<HostParams>, transport: T) -> Stack<F, T> {
        assert_eq!(hosts.len(), fabric.nodes(), "one host model per node");
        let inboxes = hosts.iter().map(|_| SimChannel::unbounded()).collect();
        Stack {
            fabric,
            hosts,
            inboxes,
            transport,
        }
    }

    /// The one send body: `payload` is carried onto the wire, then takes
    /// the single delivery tail; `damaged_as` is what the far end
    /// reassembled of it when a fault injector broke it in flight
    /// ([`Network::send_damaged`]).
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &self,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
        damaged_as: Option<Bytes>,
    ) {
        let sent_at = ctx.now();
        let host = &self.hosts[src.idx()];
        let (arrived_at, lost) =
            self.transport
                .carry(&*self.fabric, host, ctx, policy, src, dst, payload.len());
        // A fabric-level loss (link flap, switch-buffer overflow) kills the
        // message in flight: the wire time was spent but nothing arrives.
        // Recovery is the error-control layer's job.
        if lost {
            return;
        }
        // What lands is the payload as sent, or — reassembly having failed at
        // the receiving SAR — what it made of it, marked damaged; nothing
        // when it could delimit nothing.
        let (payload, damaged) = match damaged_as {
            None => (payload, false),
            Some(arrived) if arrived.is_empty() => return,
            Some(arrived) => (arrived, true),
        };
        let inbox = self.inboxes[dst.idx()].clone();
        let msg = Delivery {
            src,
            dst,
            tag,
            payload,
            sent_at,
            arrived_at,
            damaged,
        };
        ctx.sim().schedule_at(arrived_at, move |sim| {
            // Destinations that have shut down simply drop late traffic,
            // like a closed socket.
            let _ = inbox.offer(sim, msg);
        });
    }
}

impl<F: Fabric, T: Transport> Network for Stack<F, T> {
    fn nodes(&self) -> usize {
        self.hosts.len()
    }

    fn host(&self, node: NodeId) -> &HostParams {
        &self.hosts[node.idx()]
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
        self.transmit(ctx, policy, src, dst, tag, payload, None);
    }

    fn send_damaged(
        &self,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        sent: Bytes,
        arrived: Bytes,
    ) {
        self.transmit(ctx, policy, src, dst, tag, sent, Some(arrived));
    }

    fn inbox(&self, node: NodeId) -> SimChannel<Delivery> {
        self.inboxes[node.idx()].clone()
    }

    fn recv_pickup_cost(&self, node: NodeId, bytes: usize) -> Dur {
        self.transport.pickup_cost(&self.hosts[node.idx()], bytes)
    }

    fn recv_reaction_cost(&self, _node: NodeId, bytes: usize) -> Dur {
        self.transport.reaction_cost(bytes)
    }

    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.fabric.path_down(src, dst, now)
    }

    fn description(&self) -> String {
        format!(
            "{} over {}",
            self.transport.name(),
            self.fabric.description()
        )
    }
}

/// TCP/IP header bytes per segment.
pub(crate) const TCP_IP_HEADERS: usize = 40;

/// p4's big-message fragment: messages at or below this size travel in one
/// fragment and pay no blocking-receiver reaction.
const P4_FRAGMENT_BYTES: usize = 8 * 1024;

/// p4's protocol window: at most this many bytes of a message are liable
/// for reaction latency; once the window opens, bulk data streams without
/// further blocking round trips.
const P4_WINDOW_BYTES: usize = 64 * 1024;

/// Parameters of the socket/TCP/IP stack.
#[derive(Clone, Debug)]
pub struct TcpParams {
    /// Maximum segment size (application bytes per packet).
    pub(crate) mss: usize,
    /// Send socket buffer: how far the CPU may run ahead of the first-hop
    /// wire before `write` blocks.
    pub(crate) sockbuf: usize,
    /// Message-passing-layer CPU cost per byte, in cycles, charged on both
    /// sides in addition to the kernel datapath copies. This models the p4
    /// layer's per-byte work — XDR data conversion, user-level buffering
    /// and bookkeeping — and is the dominant term on 1990s hosts. Fitted
    /// against the paper's measured p4 columns (see `EXPERIMENTS.md`
    /// §Calibration); the HSM stack has no analogue, which is precisely
    /// the paper's motivation for NCS's second MPS implementation.
    pub(crate) marshal_cycles_per_byte: u64,
    /// Sender-side *blocking wait* per byte: TCP window/ack stalls and
    /// shared-medium congestion, during which the sending process sits in
    /// the kernel rather than burning CPU. A single-threaded p4 process
    /// loses this time outright; NCS spends it through its MTS-aware wait
    /// policy, so sibling threads compute through it — this is the
    /// mechanically hideable share of the paper's communication overhead.
    /// Fitted per testbed (see `EXPERIMENTS.md` §Calibration).
    pub(crate) stall_per_byte: Dur,
    /// Per-byte receiver reaction latency charged to blocking receivers
    /// (see [`Network::recv_reaction_cost`]): p4's fragment-at-a-time
    /// big-message protocol multiplied by select()-wakeup latency, on the
    /// bytes past the first 8 KiB fragment and within the 64 KiB window.
    /// Fitted per testbed.
    pub(crate) blocking_reaction_per_byte: Dur,
    /// Fixed end-to-end delivery latency added to every message's arrival
    /// (select / queue traversal / time-shared scheduling on a 1990s
    /// workstation). Both runtimes experience it; it is hidden only where
    /// the application has independent work. Fitted against the
    /// small-message workload (Table 3).
    pub(crate) per_message_latency: Dur,
}

impl TcpParams {
    /// Classic Ethernet: 1460-byte MSS, 16 KB send buffer (SunOS-era), p4
    /// overheads fitted to Table 1's Ethernet column.
    pub(crate) fn ethernet() -> TcpParams {
        TcpParams {
            mss: 1460,
            sockbuf: 16 * 1024,
            marshal_cycles_per_byte: 20,
            stall_per_byte: Dur::from_nanos(1200),
            blocking_reaction_per_byte: Dur::from_nanos(15000),
            per_message_latency: Dur::from_millis(55),
        }
    }

    /// IP over ATM (RFC 1577 era): 9180-byte MTU, larger send buffer,
    /// overheads fitted to Table 1's NYNET column.
    pub fn ip_over_atm() -> TcpParams {
        TcpParams {
            mss: 9140,
            sockbuf: 48 * 1024,
            marshal_cycles_per_byte: 10,
            stall_per_byte: Dur::from_nanos(400),
            blocking_reaction_per_byte: Dur::from_nanos(11000),
            per_message_latency: Dur::from_millis(30),
        }
    }

    /// PVM-style transport over IP-over-ATM: PVM's default route relays
    /// every message through the local and remote pvmd daemons, adding an
    /// extra store-and-forward hop (double the delivery latency) and an
    /// extra user-level copy on each side. The paper's conclusion names
    /// "NCS_MTS/p4 ... with p4 replaced by PVM" as work in progress; this
    /// profile lets the experiments answer it.
    pub fn pvm_ip_over_atm() -> TcpParams {
        let base = TcpParams::ip_over_atm();
        TcpParams {
            marshal_cycles_per_byte: base.marshal_cycles_per_byte * 2,
            per_message_latency: base.per_message_latency.times(2),
            ..base
        }
    }

    /// A stack with no message-layer per-byte tax (unit tests that want
    /// kernel-datapath-dominated behaviour).
    pub fn raw(mss: usize, sockbuf: usize) -> TcpParams {
        TcpParams {
            mss,
            sockbuf,
            marshal_cycles_per_byte: 0,
            stall_per_byte: Dur::ZERO,
            blocking_reaction_per_byte: Dur::ZERO,
            per_message_latency: Dur::ZERO,
        }
    }
    /// Segments needed for `bytes` of payload.
    pub(crate) fn segments(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.mss).max(1)
    }
}

/// The Normal Speed Mode stack.
pub type TcpNet<F> = Stack<F, TcpParams>;

impl<F: Fabric> TcpNet<F> {
    /// Binds a TCP stack with per-node `hosts` onto `fabric`.
    pub fn new(fabric: Arc<F>, hosts: Vec<HostParams>, params: TcpParams) -> TcpNet<F> {
        assert!(params.mss > 0 && params.sockbuf >= params.mss);
        Stack::bind(fabric, hosts, params)
    }
}

/// The socket path: syscall entry, then per MSS segment the data-touching
/// costs, window stalls and send-buffer pacing.
impl Transport for TcpParams {
    fn carry<F: Fabric>(
        &self,
        fabric: &F,
        h: &HostParams,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        len: usize,
    ) -> (SimTime, bool) {
        // Syscall entry: CPU time adjacent to the first segment's with
        // nothing observable between them, so they share that sleep.
        let mut entry = h.syscall;
        let nseg = self.segments(len);
        let drain_budget = Dur::for_bytes(self.sockbuf, fabric.access_rate(src));
        let mut last_arrival = ctx.now();
        let mut lost = false;
        for i in 0..nseg {
            let lo = i * self.mss;
            let seg = len.saturating_sub(lo).min(self.mss);
            // Data-touching costs: message-layer marshalling, the 5-access
            // kernel datapath copy (incl. checksum), and fixed per-packet
            // protocol work.
            ctx.sleep(
                std::mem::take(&mut entry)
                    + h.cycles(seg as u64 * self.marshal_cycles_per_byte)
                    + h.copy_time(seg, DatapathKind::SocketTcp)
                    + h.tcp_per_packet,
            );
            // Window/ack stalls: blocking wait, hideable by an MTS-aware
            // wait policy.
            if !self.stall_per_byte.is_zero() {
                policy.wait(ctx, self.stall_per_byte.times(seg.max(1) as u64));
            }
            let timing = fabric.transfer(src, dst, seg + TCP_IP_HEADERS, ctx.now());
            lost |= timing.dropped;
            last_arrival = last_arrival.max(timing.arrival);
            // Observability: depth of the switch output port feeding dst,
            // sampled right after this segment was booked onto it.
            if let Some(b) = fabric.output_backlog(dst, ctx.now()) {
                ctx.sim()
                    .with_metrics(|m| m.gauge_set("switch.out_bytes", dst.0, ctx.now(), b as i64));
            }
            // Send-buffer pacing: the process may queue at most `sockbuf`
            // bytes ahead of the wire; beyond that, write() blocks.
            let ahead = timing.first_hop_done.saturating_since(ctx.now());
            if ahead > drain_budget {
                policy.wait(ctx, ahead - drain_budget);
            }
        }
        ctx.sim().with_tracer(|tr| {
            tr.count("tcp.bytes", len as u64);
            if lost {
                tr.count("tcp.fabric_drops", 1);
            }
        });
        (last_arrival + self.per_message_latency, lost)
    }

    fn pickup_cost(&self, h: &HostParams, bytes: usize) -> Dur {
        h.syscall
            + h.interrupt.times(self.segments(bytes) as u64)
            + h.cycles(bytes as u64 * self.marshal_cycles_per_byte)
            + h.copy_time(bytes, DatapathKind::SocketTcp)
    }

    fn reaction_cost(&self, bytes: usize) -> Dur {
        let liable = bytes.saturating_sub(P4_FRAGMENT_BYTES).min(P4_WINDOW_BYTES);
        self.blocking_reaction_per_byte.times(liable as u64)
    }

    fn name(&self) -> String {
        format!("TCP/IP (mss {}, sockbuf {})", self.mss, self.sockbuf)
    }
}

/// Size of each mapped kernel I/O buffer (one AAL5 PDU's worth).
const IO_BUFFER_BYTES: usize = 8 * 1024;

/// SBA-200 (25 MHz i960) segmentation/reassembly work per cell.
const SAR_PER_CELL: Dur = Dur::from_nanos(800);

/// DMA descriptor setup per buffer handed to the SBA-200.
const DMA_SETUP: Dur = Dur::from_micros(40);

/// Parameters of the High Speed Mode (ATM API) stack.
#[derive(Clone, Debug)]
pub struct AtmApiParams {
    /// Number of 8 KiB I/O buffers per direction (Figure 2's pipeline
    /// depth).
    pub num_buffers: usize,
}

impl Default for AtmApiParams {
    fn default() -> AtmApiParams {
        AtmApiParams { num_buffers: 2 }
    }
}

/// Per-node adapter state: when each I/O buffer frees up and when the SAR
/// engine is next idle. All bookkeeping is arithmetic, so waits have known
/// durations and can go through the caller's [`WaitPolicy`].
#[derive(Default)]
struct AdapterState {
    /// Completion times of buffers currently in flight (oldest first).
    tx_busy: VecDeque<SimTime>,
    /// When the outbound SAR engine frees up.
    tx_sar_free: SimTime,
    /// When the inbound SAR engine frees up.
    rx_sar_free: SimTime,
}

/// The High Speed Mode stack.
pub type AtmApiNet<F> = Stack<F, AtmAdapters>;

impl<F: Fabric> AtmApiNet<F> {
    /// Binds the ATM API stack onto `fabric`.
    pub fn new(fabric: Arc<F>, hosts: Vec<HostParams>, params: AtmApiParams) -> AtmApiNet<F> {
        assert!(params.num_buffers > 0);
        let nodes = hosts.iter().map(|_| Mutex::default()).collect();
        Stack::bind(fabric, hosts, AtmAdapters { params, nodes })
    }
}

/// The mapped-buffer path: the stack parameters and every node's SBA-200
/// adapter state.
pub struct AtmAdapters {
    params: AtmApiParams,
    nodes: Vec<Mutex<AdapterState>>,
}

impl Transport for AtmAdapters {
    fn carry<F: Fabric>(
        &self,
        fabric: &F,
        h: &HostParams,
        ctx: &Ctx,
        policy: &dyn WaitPolicy,
        src: NodeId,
        dst: NodeId,
        len: usize,
    ) -> (SimTime, bool) {
        // Control transfer into NCS's mapped-buffer path: a trap, not a
        // read/write syscall. Owed until the first buffer: slept with its
        // fill unless a buffer wait (the caller's policy) comes between.
        let mut entry = h.trap;
        let n_chunks = len.div_ceil(IO_BUFFER_BYTES).max(1);
        let mut last_arrival = ctx.now();
        let mut lost = false;
        let mut cells_sent = 0;
        for i in 0..n_chunks {
            let lo = i * IO_BUFFER_BYTES;
            let chunk = len.saturating_sub(lo).min(IO_BUFFER_BYTES);
            // Wait for a free I/O buffer (pipeline depth = num_buffers), as
            // seen once the owed entry cost is paid.
            let ready = ctx.now() + entry;
            let buffer_free = {
                let mut a = self.nodes[src.idx()].lock();
                while a.tx_busy.front().is_some_and(|&t| t <= ready) {
                    a.tx_busy.pop_front();
                }
                if a.tx_busy.len() >= self.params.num_buffers {
                    a.tx_busy.pop_front()
                } else {
                    None
                }
            };
            let wait = buffer_free.map_or(Dur::ZERO, |t| t.saturating_since(ready));
            if !wait.is_zero() {
                if !entry.is_zero() {
                    ctx.sleep(std::mem::take(&mut entry));
                }
                policy.wait(ctx, wait);
            }
            // Host fills the mapped buffer: the 3-access datapath.
            ctx.sleep(std::mem::take(&mut entry) + h.copy_time(chunk, DatapathKind::NcsMapped));
            // The adapter SARs and DMAs the buffer, then the cells ride the
            // fabric. The buffer is reusable once its cells cleared the
            // first hop.
            let cells = aal5::cells_for_pdu(chunk) as u64;
            cells_sent += cells;
            let (timing, depth) = {
                let mut a = self.nodes[src.idx()].lock();
                let start = ctx.now().max(a.tx_sar_free);
                let nic_done = start + DMA_SETUP + SAR_PER_CELL.times(cells);
                a.tx_sar_free = nic_done;
                let timing = fabric.transfer(src, dst, chunk, nic_done);
                a.tx_busy.push_back(timing.first_hop_done);
                (timing, a.tx_busy.len())
            };
            // Observability: adapter pipeline occupancy (buffers in flight)
            // and switch output-port depth for this destination.
            let now = ctx.now();
            let backlog = fabric.output_backlog(dst, now);
            ctx.sim().with_metrics(|m| {
                m.gauge_set("hsm.tx_busy", src.0, now, depth as i64);
                if let Some(b) = backlog {
                    m.gauge_set("switch.out_bytes", dst.0, now, b as i64);
                }
            });
            lost |= timing.dropped;
            // Receive-side reassembly on dst's adapter.
            let rx_done = {
                let mut a = self.nodes[dst.idx()].lock();
                let start = timing.arrival.max(a.rx_sar_free);
                let done = start + SAR_PER_CELL.times(cells);
                a.rx_sar_free = done;
                done
            };
            last_arrival = last_arrival.max(rx_done);
        }
        // One tracer visit per message, so the `atm.*` counters cover only
        // sends that complete: one cut off while it sleeps in the loop above
        // (a `run_bounded` horizon, or `Sim::finish`) counts none of the cells
        // it already put on the fabric.
        ctx.sim().with_tracer(|tr| {
            tr.count("atm.cells", cells_sent);
            tr.count("atm.bytes", len as u64);
            if lost {
                tr.count("atm.fabric_drops", 1);
            }
        });
        (last_arrival, lost)
    }

    fn pickup_cost(&self, h: &HostParams, bytes: usize) -> Dur {
        h.trap + h.copy_time(bytes, DatapathKind::NcsMapped)
    }

    fn name(&self) -> String {
        format!(
            "NCS ATM API ({} x {} B I/O buffers)",
            self.params.num_buffers, IO_BUFFER_BYTES
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::IdealFabric;
    use ncs_sim::Sim;

    fn fast_hosts(n: usize) -> Vec<HostParams> {
        (0..n).map(|_| HostParams::test_fast()).collect()
    }

    /// Sends `payload` from node 0 to node 1 under `tag`, blocking `ctx`.
    pub(super) fn send01<N: Network + ?Sized>(net: &N, ctx: &Ctx, tag: u64, payload: Bytes) {
        net.send(ctx, &BlockingWait, NodeId(0), NodeId(1), tag, payload);
    }

    /// (sender busy time, end-to-end delivery latency) of one transfer.
    fn run_transfer<N: Network>(net: Arc<N>, bytes: usize) -> (Dur, Dur) {
        let sim = Sim::new();
        let times = Arc::new(Mutex::new((Dur::ZERO, Dur::ZERO)));
        let (t2, n2) = (Arc::clone(&times), Arc::clone(&net));
        sim.spawn("sender", move |ctx| {
            send01(&*n2, ctx, 7, Bytes::from(vec![0u8; bytes]));
            t2.lock().0 = ctx.now().since(SimTime::ZERO);
        });
        let t2 = Arc::clone(&times);
        sim.spawn("receiver", move |ctx| {
            let msg = net.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!((msg.payload.len(), msg.tag), (bytes, 7));
            ctx.sleep(net.recv_pickup_cost(NodeId(1), bytes));
            t2.lock().1 = ctx.now().since(msg.sent_at);
        });
        sim.run().assert_clean();
        let times = *times.lock();
        times
    }

    #[test]
    fn tcp_delivers_payload() {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let net = Arc::new(TcpNet::new(fabric, fast_hosts(2), TcpParams::ethernet()));
        let (busy, latency) = run_transfer(net, 10_000);
        assert!(busy > Dur::ZERO && latency >= busy);
    }

    #[test]
    fn tcp_segment_count() {
        let params = TcpParams::ethernet();
        assert_eq!(params.segments(0), 1);
        assert_eq!(params.segments(1460), 1);
        assert_eq!(params.segments(1461), 2);
        assert_eq!(params.segments(14_600), 10);
    }

    #[test]
    fn the_delivery_tail_has_four_outcomes_on_both_stacks() {
        // The one tail every message takes once its wire time is paid, on
        // each stack: delivered intact, delivered marked damaged, nothing
        // for an empty reassembly, and nothing at all on a fabric loss.
        use crate::atm::{AtmFabric, AtmLanParams};
        type Landed = Vec<(Vec<u8>, bool)>;
        fn land<N: Network>(net: N, arrived: Option<&'static [u8]>) -> Landed {
            let (sim, net) = (Sim::new(), Arc::new(net));
            let tx = Arc::clone(&net);
            sim.spawn("tx", move |ctx| {
                let (src, dst, sent) = (NodeId(0), NodeId(1), Bytes::from_static(b"sent"));
                match arrived {
                    None => tx.send(ctx, &BlockingWait, src, dst, 3, sent),
                    Some(a) => {
                        let a = Bytes::from_static(a);
                        tx.send_damaged(ctx, &BlockingWait, src, dst, 3, sent, a)
                    }
                }
            });
            sim.run().assert_clean();
            let inbox = net.inbox(NodeId(1));
            std::iter::from_fn(|| inbox.try_recv())
                .map(|d| (d.payload.to_vec(), d.damaged))
                .collect()
        }
        let outcomes: [(Option<&'static [u8]>, Landed); 3] = [
            (None, vec![(b"sent".to_vec(), false)]),
            (Some(b"se"), vec![(b"se".to_vec(), true)]),
            (Some(b""), vec![]),
        ];
        for lossy in [false, true] {
            let fabric = || {
                let f = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(2)));
                if lossy {
                    f.uplink(NodeId(0))
                        .schedule_flap(SimTime::ZERO, SimTime::from_ps(1 << 60));
                }
                f
            };
            for (arrived, intact) in &outcomes {
                let expect = if lossy { &vec![] } else { intact };
                let tcp = TcpNet::new(fabric(), fast_hosts(2), TcpParams::raw(1460, 16 * 1024));
                let atm = AtmApiNet::new(fabric(), fast_hosts(2), AtmApiParams::default());
                let at = format!("lossy {lossy}, arrived {arrived:?}");
                assert_eq!(&land(tcp, *arrived), expect, "TCP, {at}");
                assert_eq!(&land(atm, *arrived), expect, "ATM API, {at}");
            }
        }
    }

    #[test]
    fn hsm_faster_than_nsm_on_same_fabric() {
        // The Figure-3 + Figure-2 claim: for the same wire, the mapped-buffer
        // path beats the socket path in sender CPU time and latency.
        let hosts = vec![HostParams::sparc_ipx(), HostParams::sparc_ipx()];
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let tcp = Arc::new(TcpNet::new(
            Arc::clone(&fabric),
            hosts.clone(),
            TcpParams::ip_over_atm(),
        ));
        let atm = Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()));
        let (tcp_busy, tcp_lat) = run_transfer(tcp, 64 * 1024);
        let (atm_busy, atm_lat) = run_transfer(atm, 64 * 1024);
        assert!(
            atm_busy < tcp_busy,
            "HSM sender busy {atm_busy} !< NSM {tcp_busy}"
        );
        assert!(atm_lat < tcp_lat, "HSM latency {atm_lat} !< NSM {tcp_lat}");
    }

    #[test]
    fn more_buffers_pipeline_better() {
        // Figure 2: two I/O buffers beat one; the gain saturates.
        let hosts = vec![HostParams::sparc_ipx(), HostParams::sparc_ipx()];
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(5)));
        let mut latencies = Vec::new();
        for num_buffers in [1, 2, 4] {
            let params = AtmApiParams { num_buffers };
            let net = Arc::new(AtmApiNet::new(Arc::clone(&fabric), hosts.clone(), params));
            let (_, lat) = run_transfer(net, 128 * 1024);
            latencies.push(lat);
        }
        assert!(
            latencies[1] < latencies[0],
            "2 buffers {} !< 1 buffer {}",
            latencies[1],
            latencies[0]
        );
        assert!(latencies[2] <= latencies[1]);
    }

    #[test]
    fn one_event_per_buffer_not_per_cell() {
        // What `xp_pipeline` part 1 relies on: a bulk HSM transfer arrives
        // intact, `atm.cells` counts every cell of every buffer-sized chunk,
        // no per-cell event is ever scheduled, and the run's event count is
        // at most half of what one extra event per cell would make it.
        let sim = Sim::new();
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(5)));
        let net = Arc::new(AtmApiNet::new(
            fabric,
            fast_hosts(2),
            AtmApiParams::default(),
        ));
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            send01(&*n2, ctx, 0, Bytes::from(vec![7u8; 24_000]));
        });
        sim.spawn("rx", move |ctx| {
            let msg = net.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!(msg.payload.len(), 24_000);
            assert!(msg.payload.iter().all(|&b| b == 7));
        });
        let out = sim.run();
        out.assert_clean();
        let chunks = [
            IO_BUFFER_BYTES,
            IO_BUFFER_BYTES,
            24_000 - 2 * IO_BUFFER_BYTES,
        ];
        let expected: usize = chunks.iter().map(|&c| aal5::cells_for_pdu(c)).sum();
        let cells = sim.with_tracer(|tr| tr.counter("atm.cells"));
        assert_eq!(cells, expected as u64);
        assert!(
            2 * out.events <= out.events + cells,
            "{} events for {cells} cells",
            out.events
        );
    }

    /// A lone sender issues `sizes` back to back with nobody else in the
    /// simulation, so every `Resume` beyond the first is one of its sleeps.
    /// Returns (resumes, sender busy time, arrival instants), times in ps.
    fn lone_sender<N: Network>(net: Arc<N>, sizes: &'static [usize]) -> (u64, u64, Vec<u64>) {
        let sim = Sim::new();
        let busy = Arc::new(Mutex::new(0));
        let (b2, n2) = (Arc::clone(&busy), Arc::clone(&net));
        sim.spawn("sender", move |ctx| {
            for &len in sizes {
                let payload = Bytes::from(vec![0u8; len]);
                send01(&*n2, ctx, 7, payload);
            }
            *b2.lock() = ctx.now().as_ps();
        });
        let out = sim.run();
        out.assert_clean();
        let inbox = net.inbox(NodeId(1));
        let arrivals = std::iter::from_fn(|| inbox.try_recv())
            .map(|d| d.arrived_at.as_ps())
            .collect();
        let busy = *busy.lock();
        (out.resumes, busy, arrivals)
    }

    #[test]
    fn one_buffer_hsm_send_sleeps_once() {
        // Trap and buffer fill are adjacent CPU charges of one thread with
        // nothing observable between them: one sleep, one kernel event. The
        // busy time and arrival instant are the parent commit's, where the
        // same send slept twice.
        let hosts = vec![HostParams::sparc_ipx(); 2];
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let net = Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()));
        let (resumes, busy, arrivals) = lone_sender(net, &[4096]);
        assert_eq!(resumes, 2, "first dispatch + one sleep");
        assert_eq!(busy, 995_040_000);
        assert_eq!(arrivals, [1_182_640_000]);
    }

    #[test]
    fn one_segment_tcp_send_sleeps_once() {
        let hosts = vec![HostParams::sparc_ipx(); 2];
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let net = Arc::new(TcpNet::new(fabric, hosts, TcpParams::raw(1460, 16 * 1024)));
        let (resumes, busy, arrivals) = lone_sender(net, &[1000]);
        assert_eq!(resumes, 2, "first dispatch + one sleep");
        assert_eq!(busy, 580_000_000);
        assert_eq!(arrivals, [590_000_000]);
    }

    #[test]
    fn send_waiting_for_an_io_buffer_sleeps_entry_wait_and_copy_apart() {
        // One I/O buffer: the second send finds it still draining into the
        // adapter, so its trap, its wait (the caller's policy: a sibling
        // may run there) and its copy stay three separate sleeps.
        let params = AtmApiParams { num_buffers: 1 };
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let net = Arc::new(AtmApiNet::new(fabric, fast_hosts(2), params));
        let (resumes, busy, arrivals) = lone_sender(net, &[8192, 8192]);
        assert_eq!(resumes, 1 + 1 + 3, "first dispatch, fused send, split send");
        assert_eq!(busy, 226_152_000);
        assert_eq!(arrivals, [348_376_000, 549_752_000]);
    }

    #[test]
    fn empty_message_still_delivered() {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(1)));
        let net = Arc::new(TcpNet::new(fabric, fast_hosts(2), TcpParams::ethernet()));
        let (_, latency) = run_transfer(net, 0);
        assert!(latency > Dur::ZERO);
    }

    #[test]
    fn closed_inbox_drops_late_traffic() {
        // A destination that shut down before the message lands loses it
        // quietly on either stack, like a closed socket.
        fn send_to_closed<N: Network>(net: Arc<N>) {
            let sim = Sim::new();
            let inbox = net.inbox(NodeId(1));
            inbox.close(&sim);
            sim.spawn("sender", move |ctx| {
                send01(&*net, ctx, 1, Bytes::from(vec![1u8; 100]));
            });
            sim.run().assert_clean();
            assert!(inbox.is_empty());
        }
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(1)));
        let tcp = TcpNet::new(Arc::clone(&fabric), fast_hosts(2), TcpParams::ethernet());
        send_to_closed(Arc::new(tcp));
        let atm = AtmApiNet::new(fabric, fast_hosts(2), AtmApiParams::default());
        send_to_closed(Arc::new(atm));
    }

    #[test]
    fn deliveries_keep_payload_content() {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(1)));
        let net = AtmApiNet::new(fabric, fast_hosts(2), AtmApiParams::default());
        let (sim, net) = (Sim::new(), Arc::new(net));
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let n2 = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            send01(&*n2, ctx, 1, Bytes::from(data));
        });
        sim.spawn("receiver", move |ctx| {
            let msg = net.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!(&msg.payload[..], &expect[..]);
        });
        sim.run().assert_clean();
    }
}

#[cfg(test)]
mod pacing_tests {
    use super::tests::send01;
    use super::*;
    use crate::ethernet::EthernetFabric;
    use ncs_sim::Sim;

    #[test]
    fn send_buffer_paces_cpu_ahead_of_slow_wire() {
        // A fast CPU writing a large message onto slow Ethernet must block
        // in the transport: by completion, the sender can be at most
        // sockbuf ahead of the wire.
        let fabric = Arc::new(EthernetFabric::new(2));
        let hosts = vec![HostParams::test_fast(); 2];
        let params = TcpParams {
            sockbuf: 8 * 1024,
            ..TcpParams::raw(1460, 8 * 1024)
        };
        let net = Arc::new(TcpNet::new(Arc::clone(&fabric), hosts, params));
        let sim = Sim::new();
        let bytes = 200 * 1024;
        let n2 = Arc::clone(&net);
        let sender_done = Arc::new(Mutex::new(SimTime::ZERO));
        let sd = Arc::clone(&sender_done);
        sim.spawn("tx", move |ctx| {
            send01(&*n2, ctx, 0, Bytes::from(vec![0u8; bytes]));
            *sd.lock() = ctx.now();
        });
        sim.spawn("rx", move |ctx| {
            let _ = net.inbox(NodeId(1)).recv(ctx).unwrap();
        });
        sim.run().assert_clean();
        let done = *sender_done.lock();
        // Wire time for 200 KB ≈ 168 ms at ~9.7 Mb/s effective; the sender
        // must have been paced to within a socket buffer of that.
        let wire_floor = Dur::for_bytes(bytes - 8 * 1024, 10_000_000);
        assert!(
            done.since(SimTime::ZERO) >= wire_floor,
            "sender finished at {done}, ran ahead of the wire"
        );
    }

    #[test]
    fn raw_profile_has_no_message_layer_costs() {
        let p = TcpParams::raw(1460, 16 * 1024);
        assert_eq!(p.marshal_cycles_per_byte, 0);
        assert!(p.stall_per_byte.is_zero());
        assert!(p.per_message_latency.is_zero());
        // No blocking-receiver reaction at any size: inside p4's first
        // fragment, one byte past it, and far past its window. The fitted
        // profiles pay theirs at the same sizes.
        let sizes = [1, 8 * 1024 + 1, 1 << 20];
        let cost = |p: TcpParams| sizes.map(|bytes| p.reaction_cost(bytes));
        assert_eq!(cost(p), [Dur::ZERO; 3]);
        let us = Dur::from_micros;
        assert_eq!(
            cost(TcpParams::ethernet()),
            [Dur::ZERO, us(15), us(983_040)]
        );
        assert_eq!(
            cost(TcpParams::ip_over_atm()),
            [Dur::ZERO, us(11), us(720_896)]
        );
    }

    #[test]
    fn reaction_cost_thresholds_and_caps() {
        let fabric = Arc::new(crate::fabric::IdealFabric::new(2, Dur::ZERO));
        let hosts = vec![HostParams::test_fast(); 2];
        let net = TcpNet::new(fabric, hosts, TcpParams::ethernet());
        let small = net.recv_reaction_cost(NodeId(0), 4 * 1024);
        assert!(small.is_zero(), "below threshold: {small}");
        let medium = net.recv_reaction_cost(NodeId(0), 40 * 1024);
        let large = net.recv_reaction_cost(NodeId(0), 10 << 20);
        assert!(!medium.is_zero());
        assert!(large > medium);
        // Cap: liable bytes never exceed p4's 64 KiB window.
        let capped = Dur::from_nanos(15_000).times(64 * 1024);
        assert_eq!(large, capped);
    }
}

#[cfg(test)]
mod counter_tests {
    use super::tests::send01;
    use super::*;
    use crate::fabric::IdealFabric;
    use ncs_sim::Sim;

    #[test]
    fn transport_counters_track_traffic() {
        let sim = Sim::new();
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(1)));
        let hosts = vec![HostParams::test_fast(); 2];
        let tcp = TcpNet::new(
            Arc::clone(&fabric),
            hosts.clone(),
            TcpParams::raw(1460, 16 * 1024),
        );
        let atm = AtmApiNet::new(fabric, hosts, AtmApiParams::default());
        sim.spawn("tx", move |ctx| {
            send01(&tcp, ctx, 0, Bytes::from(vec![0; 3000]));
            send01(&atm, ctx, 0, Bytes::from(vec![0; 100]));
        });
        sim.run().assert_clean();
        sim.with_tracer(|tr| {
            assert_eq!(tr.counter("tcp.bytes"), 3000);
            assert_eq!(tr.counter("atm.bytes"), 100);
            assert_eq!(tr.counter("atm.cells"), 3); // ceil((100+8)/48)
        });
    }
}
