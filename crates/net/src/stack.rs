//! Transport stacks: how a process's bytes become wire traffic.
//!
//! Two stacks implement the same [`Network`] interface over any [`Fabric`]:
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

/// What lands in the inbox of a transfer whose wire time has been paid:
/// the payload as sent (`damaged_as` is `None`), or — reassembly having
/// failed at the receiving SAR — what it made of it, marked damaged;
/// `None` when it could delimit nothing.
fn as_received(sent: Bytes, damaged_as: Option<Bytes>) -> Option<(Bytes, bool)> {
    match damaged_as {
        None => Some((sent, false)),
        Some(arrived) if arrived.is_empty() => None,
        Some(arrived) => Some((arrived, true)),
    }
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

/// TCP/IP header bytes per segment.
pub const TCP_IP_HEADERS: usize = 40;

/// Parameters of the socket/TCP/IP stack.
#[derive(Clone, Debug)]
pub struct TcpParams {
    /// Maximum segment size (application bytes per packet).
    pub mss: usize,
    /// Send socket buffer: how far the CPU may run ahead of the first-hop
    /// wire before `write` blocks.
    pub sockbuf: usize,
    /// Message-passing-layer CPU cost per byte, in cycles, charged on both
    /// sides in addition to the kernel datapath copies. This models the p4
    /// layer's per-byte work — XDR data conversion, user-level buffering
    /// and bookkeeping — and is the dominant term on 1990s hosts. Fitted
    /// against the paper's measured p4 columns (see `EXPERIMENTS.md`
    /// §Calibration); the HSM stack has no analogue, which is precisely
    /// the paper's motivation for NCS's second MPS implementation.
    pub marshal_cycles_per_byte: u64,
    /// Sender-side *blocking wait* per byte: TCP window/ack stalls and
    /// shared-medium congestion, during which the sending process sits in
    /// the kernel rather than burning CPU. A single-threaded p4 process
    /// loses this time outright; NCS spends it through its MTS-aware wait
    /// policy, so sibling threads compute through it — this is the
    /// mechanically hideable share of the paper's communication overhead.
    /// Fitted per testbed (see `EXPERIMENTS.md` §Calibration).
    pub stall_per_byte: Dur,
    /// Per-byte receiver reaction latency charged to blocking receivers
    /// (see [`Network::recv_reaction_cost`]): p4's fragment-at-a-time
    /// big-message protocol multiplied by select()-wakeup latency. Fitted
    /// per testbed.
    pub blocking_reaction_per_byte: Dur,
    /// Messages at or below this size travel in one fragment and pay no
    /// blocking-receiver reaction (p4's big-message protocol only engages
    /// beyond its internal fragment size).
    pub reaction_threshold: usize,
    /// At most this many bytes are liable for reaction latency per message:
    /// once the protocol window opens, bulk data streams without further
    /// blocking round trips.
    pub reaction_cap: usize,
    /// Fixed end-to-end delivery latency added to every message's arrival
    /// (select / queue traversal / time-shared scheduling on a 1990s
    /// workstation). Both runtimes experience it; it is hidden only where
    /// the application has independent work. Fitted against the
    /// small-message workload (Table 3).
    pub per_message_latency: Dur,
}

impl TcpParams {
    /// Classic Ethernet: 1460-byte MSS, 16 KB send buffer (SunOS-era), p4
    /// overheads fitted to Table 1's Ethernet column.
    pub fn ethernet() -> TcpParams {
        TcpParams {
            mss: 1460,
            sockbuf: 16 * 1024,
            marshal_cycles_per_byte: 20,
            stall_per_byte: Dur::from_nanos(1200),
            blocking_reaction_per_byte: Dur::from_nanos(15000),
            reaction_threshold: 8 * 1024,
            reaction_cap: 64 * 1024,
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
            reaction_threshold: 8 * 1024,
            reaction_cap: 64 * 1024,
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

    /// PVM-style transport over Ethernet (see
    /// [`TcpParams::pvm_ip_over_atm`]).
    pub fn pvm_ethernet() -> TcpParams {
        let base = TcpParams::ethernet();
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
            reaction_threshold: usize::MAX,
            reaction_cap: 0,
            per_message_latency: Dur::ZERO,
        }
    }
}

/// The Normal Speed Mode stack.
pub struct TcpNet<F: Fabric> {
    fabric: Arc<F>,
    hosts: Vec<HostParams>,
    params: TcpParams,
    inboxes: Vec<SimChannel<Delivery>>,
}

impl<F: Fabric> TcpNet<F> {
    /// Binds a TCP stack with per-node `hosts` onto `fabric`.
    pub fn new(fabric: Arc<F>, hosts: Vec<HostParams>, params: TcpParams) -> TcpNet<F> {
        assert_eq!(hosts.len(), fabric.nodes(), "one host model per node");
        assert!(params.mss > 0 && params.sockbuf >= params.mss);
        let inboxes = hosts.iter().map(|_| SimChannel::unbounded()).collect();
        TcpNet {
            fabric,
            hosts,
            params,
            inboxes,
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Segments needed for `bytes` of payload.
    pub fn segments(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.params.mss).max(1)
    }

    /// The one send body: `payload` goes through the socket path and onto
    /// the wire; `damaged_as` is what the far end reassembled of it when a
    /// fault injector broke it in flight ([`Network::send_damaged`]).
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
        let h = &self.hosts[src.idx()];
        let sent_at = ctx.now();
        // Syscall entry: CPU time adjacent to the first segment's with
        // nothing observable between them, so they share that sleep.
        let mut entry = h.syscall;
        let len = payload.len();
        let nseg = self.segments(len);
        let drain_budget = Dur::for_bytes(self.params.sockbuf, self.fabric.access_rate(src));
        let mut last_arrival = sent_at;
        let mut lost = false;
        for i in 0..nseg {
            let lo = i * self.params.mss;
            let seg = len.saturating_sub(lo).min(self.params.mss);
            // Data-touching costs: message-layer marshalling, the 5-access
            // kernel datapath copy (incl. checksum), and fixed per-packet
            // protocol work.
            ctx.sleep(
                std::mem::take(&mut entry)
                    + h.cycles(seg as u64 * self.params.marshal_cycles_per_byte)
                    + h.copy_time(seg, DatapathKind::SocketTcp)
                    + h.tcp_per_packet,
            );
            // Window/ack stalls: blocking wait, hideable by an MTS-aware
            // wait policy.
            if !self.params.stall_per_byte.is_zero() {
                policy.wait(ctx, self.params.stall_per_byte.times(seg.max(1) as u64));
            }
            let timing = self
                .fabric
                .transfer(src, dst, seg + TCP_IP_HEADERS, ctx.now());
            lost |= timing.dropped;
            last_arrival = last_arrival.max(timing.arrival);
            // Observability: depth of the switch output port feeding dst,
            // sampled right after this segment was booked onto it.
            if let Some(b) = self.fabric.output_backlog(dst, ctx.now()) {
                ctx.sim().with_metrics(|m| {
                    m.gauge_set("switch.out_bytes", dst.0, ctx.now(), b as i64)
                });
            }
            // Send-buffer pacing: the process may queue at most `sockbuf`
            // bytes ahead of the wire; beyond that, write() blocks.
            let ahead = timing.first_hop_done.saturating_since(ctx.now());
            if ahead > drain_budget {
                policy.wait(ctx, ahead - drain_budget);
            }
        }
        let last_arrival = last_arrival + self.params.per_message_latency;
        ctx.sim().with_tracer(|tr| {
            tr.count("tcp.msgs", 1);
            tr.count("tcp.bytes", len as u64);
            tr.count("tcp.segments", nseg as u64);
        });
        // A fabric-level loss (link flap, switch-buffer overflow) kills the
        // message in flight: the wire time was spent but nothing arrives.
        // Recovery is the error-control layer's job.
        if lost {
            ctx.sim().with_tracer(|tr| tr.count("tcp.fabric_drops", 1));
            return;
        }
        let Some((payload, damaged)) = as_received(payload, damaged_as) else {
            return;
        };
        let inbox = self.inboxes[dst.idx()].clone();
        let msg = Delivery {
            src,
            dst,
            tag,
            payload,
            sent_at,
            arrived_at: last_arrival,
            damaged,
        };
        ctx.sim().schedule_at(last_arrival, move |sim| {
            // Destinations that have shut down simply drop late traffic,
            // like a closed socket.
            let _ = inbox.offer(sim, msg);
        });
    }
}

impl<F: Fabric> Network for TcpNet<F> {
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
        let h = &self.hosts[node.idx()];
        let nseg = self.segments(bytes) as u64;
        h.syscall
            + h.interrupt.times(nseg)
            + h.cycles(bytes as u64 * self.params.marshal_cycles_per_byte)
            + h.copy_time(bytes, DatapathKind::SocketTcp)
    }

    fn recv_reaction_cost(&self, node: NodeId, bytes: usize) -> Dur {
        let _ = node;
        let liable = bytes
            .saturating_sub(self.params.reaction_threshold)
            .min(self.params.reaction_cap);
        self.params.blocking_reaction_per_byte.times(liable as u64)
    }

    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.fabric.path_down(src, dst, now)
    }

    fn description(&self) -> String {
        format!(
            "TCP/IP (mss {}, sockbuf {}) over {}",
            self.params.mss,
            self.params.sockbuf,
            self.fabric.description()
        )
    }
}

/// Parameters of the High Speed Mode (ATM API) stack.
#[derive(Clone, Debug)]
pub struct AtmApiParams {
    /// Size of each mapped kernel I/O buffer.
    pub buffer_bytes: usize,
    /// Number of I/O buffers per direction (Figure 2's pipeline depth).
    pub num_buffers: usize,
    /// SBA-200 (25 MHz i960) segmentation/reassembly work per cell.
    pub sar_per_cell: Dur,
    /// DMA descriptor setup per buffer handed to the adapter.
    pub dma_setup: Dur,
}

impl Default for AtmApiParams {
    fn default() -> AtmApiParams {
        AtmApiParams {
            buffer_bytes: 8 * 1024,
            num_buffers: 2,
            sar_per_cell: Dur::from_nanos(800),
            dma_setup: Dur::from_micros(40),
        }
    }
}

/// Per-node adapter state: when each I/O buffer frees up and when the SAR
/// engine is next idle. All bookkeeping is arithmetic, so waits have known
/// durations and can go through the caller's [`WaitPolicy`].
struct AdapterState {
    /// Completion times of buffers currently in flight (oldest first).
    tx_busy: VecDeque<SimTime>,
    /// When the outbound SAR engine frees up.
    tx_sar_free: SimTime,
    /// When the inbound SAR engine frees up.
    rx_sar_free: SimTime,
}

/// The High Speed Mode stack.
pub struct AtmApiNet<F: Fabric> {
    fabric: Arc<F>,
    hosts: Vec<HostParams>,
    params: AtmApiParams,
    adapters: Vec<Mutex<AdapterState>>,
    inboxes: Vec<SimChannel<Delivery>>,
}

impl<F: Fabric> AtmApiNet<F> {
    /// Binds the ATM API stack onto `fabric`.
    pub fn new(fabric: Arc<F>, hosts: Vec<HostParams>, params: AtmApiParams) -> AtmApiNet<F> {
        assert_eq!(hosts.len(), fabric.nodes(), "one host model per node");
        assert!(params.buffer_bytes > 0 && params.num_buffers > 0);
        assert!(
            params.buffer_bytes + aal5::TRAILER_BYTES <= aal5::MAX_PDU,
            "I/O buffer must fit one AAL5 PDU"
        );
        let adapters = (0..hosts.len())
            .map(|_| {
                Mutex::new(AdapterState {
                    tx_busy: VecDeque::new(),
                    tx_sar_free: SimTime::ZERO,
                    rx_sar_free: SimTime::ZERO,
                })
            })
            .collect();
        let inboxes = hosts.iter().map(|_| SimChannel::unbounded()).collect();
        AtmApiNet {
            fabric,
            hosts,
            params,
            adapters,
            inboxes,
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// The stack parameters.
    pub fn params(&self) -> &AtmApiParams {
        &self.params
    }

    /// The one send body: `payload` goes through the mapped-buffer
    /// pipeline and onto the wire; `damaged_as` is what the far adapter
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
        let h = &self.hosts[src.idx()];
        let sent_at = ctx.now();
        // Control transfer into NCS's mapped-buffer path: a trap, not a
        // read/write syscall. Owed until the first buffer: slept with its
        // fill unless a buffer wait (the caller's policy) comes between.
        let mut entry = h.trap;
        let len = payload.len();
        let n_chunks = len.div_ceil(self.params.buffer_bytes).max(1);
        let mut last_arrival = sent_at;
        let mut lost = false;
        for i in 0..n_chunks {
            let lo = i * self.params.buffer_bytes;
            let chunk = len.saturating_sub(lo).min(self.params.buffer_bytes);
            // Wait for a free I/O buffer (pipeline depth = num_buffers), as
            // seen once the owed entry cost is paid.
            let ready = ctx.now() + entry;
            let buffer_free = {
                let mut a = self.adapters[src.idx()].lock();
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
            ctx.sim().with_tracer(|tr| tr.count("atm.cells", cells));
            let (timing, depth) = {
                let mut a = self.adapters[src.idx()].lock();
                let start = ctx.now().max(a.tx_sar_free);
                let nic_done =
                    start + self.params.dma_setup + self.params.sar_per_cell.times(cells);
                a.tx_sar_free = nic_done;
                let timing = self.fabric.transfer(src, dst, chunk, nic_done);
                a.tx_busy.push_back(timing.first_hop_done);
                (timing, a.tx_busy.len())
            };
            // Observability: adapter pipeline occupancy (buffers in flight)
            // and switch output-port depth for this destination.
            ctx.sim().with_metrics(|m| {
                m.gauge_set("hsm.tx_busy", src.0, ctx.now(), depth as i64);
            });
            if let Some(b) = self.fabric.output_backlog(dst, ctx.now()) {
                ctx.sim().with_metrics(|m| {
                    m.gauge_set("switch.out_bytes", dst.0, ctx.now(), b as i64)
                });
            }
            lost |= timing.dropped;
            // Receive-side reassembly on dst's adapter.
            let rx_done = {
                let mut a = self.adapters[dst.idx()].lock();
                let start = timing.arrival.max(a.rx_sar_free);
                let done = start + self.params.sar_per_cell.times(cells);
                a.rx_sar_free = done;
                done
            };
            last_arrival = last_arrival.max(rx_done);
        }
        ctx.sim().with_tracer(|tr| {
            tr.count("atm.msgs", 1);
            tr.count("atm.bytes", len as u64);
        });
        // Fabric-level loss: the cells never reassemble at the far side.
        if lost {
            ctx.sim().with_tracer(|tr| tr.count("atm.fabric_drops", 1));
            return;
        }
        let Some((payload, damaged)) = as_received(payload, damaged_as) else {
            return;
        };
        let inbox = self.inboxes[dst.idx()].clone();
        let msg = Delivery {
            src,
            dst,
            tag,
            payload,
            sent_at,
            arrived_at: last_arrival,
            damaged,
        };
        ctx.sim().schedule_at(last_arrival, move |sim| {
            // Destinations that have shut down simply drop late traffic.
            let _ = inbox.offer(sim, msg);
        });
    }
}

impl<F: Fabric> Network for AtmApiNet<F> {
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
        let h = &self.hosts[node.idx()];
        h.trap + h.copy_time(bytes, DatapathKind::NcsMapped)
    }

    fn peer_unreachable(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.fabric.path_down(src, dst, now)
    }

    fn description(&self) -> String {
        format!(
            "NCS ATM API ({} x {} B I/O buffers) over {}",
            self.params.num_buffers,
            self.params.buffer_bytes,
            self.fabric.description()
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

    fn run_transfer<N: Network>(net: Arc<N>, bytes: usize) -> (Dur, Dur) {
        // Returns (sender busy time, end-to-end delivery latency).
        let sim = Sim::new();
        let sender_busy = Arc::new(Mutex::new(Dur::ZERO));
        let latency = Arc::new(Mutex::new(Dur::ZERO));
        let sb = Arc::clone(&sender_busy);
        let n2 = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            let t0 = ctx.now();
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                7,
                Bytes::from(vec![0u8; bytes]),
            );
            *sb.lock() = ctx.now().since(t0);
        });
        let lt = Arc::clone(&latency);
        sim.spawn("receiver", move |ctx| {
            let inbox = net.inbox(NodeId(1));
            let msg = inbox.recv(ctx).unwrap();
            assert_eq!(msg.payload.len(), bytes);
            assert_eq!(msg.tag, 7);
            ctx.sleep(net.recv_pickup_cost(NodeId(1), bytes));
            *lt.lock() = ctx.now().since(msg.sent_at);
        });
        sim.run().assert_clean();
        let a = *sender_busy.lock();
        let b = *latency.lock();
        (a, b)
    }

    #[test]
    fn tcp_delivers_payload() {
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
        let net = Arc::new(TcpNet::new(fabric, fast_hosts(2), TcpParams::ethernet()));
        let (busy, latency) = run_transfer(net, 10_000);
        assert!(busy > Dur::ZERO);
        assert!(latency >= busy);
    }

    #[test]
    fn tcp_segment_count() {
        let fabric = Arc::new(IdealFabric::new(2, Dur::ZERO));
        let net = TcpNet::new(fabric, fast_hosts(2), TcpParams::ethernet());
        assert_eq!(net.segments(0), 1);
        assert_eq!(net.segments(1460), 1);
        assert_eq!(net.segments(1461), 2);
        assert_eq!(net.segments(14_600), 10);
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
            let params = AtmApiParams {
                num_buffers,
                ..AtmApiParams::default()
            };
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
        let params = AtmApiParams::default();
        let buffer = params.buffer_bytes;
        let net = Arc::new(AtmApiNet::new(fabric, fast_hosts(2), params));
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from(vec![7u8; 24_000]),
            );
        });
        sim.spawn("rx", move |ctx| {
            let msg = net.inbox(NodeId(1)).recv(ctx).unwrap();
            assert_eq!(msg.payload.len(), 24_000);
            assert!(msg.payload.iter().all(|&b| b == 7));
        });
        let out = sim.run();
        out.assert_clean();
        let chunks = [buffer, buffer, 24_000 - 2 * buffer];
        let expected: usize = chunks.iter().map(|&c| aal5::cells_for_pdu(c)).sum();
        let cells = sim.with_tracer(|tr| {
            assert_eq!(tr.counter("atm.cell_events"), 0);
            tr.counter("atm.cells")
        });
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
                n2.send(ctx, &BlockingWait, NodeId(0), NodeId(1), 7, payload);
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
        let params = AtmApiParams {
            num_buffers: 1,
            ..AtmApiParams::default()
        };
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
                net.send(
                    ctx,
                    &BlockingWait,
                    NodeId(0),
                    NodeId(1),
                    1,
                    Bytes::from(vec![1u8; 100]),
                );
            });
            sim.run().assert_clean();
            assert_eq!(inbox.total_sent(), 0);
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
        let net = Arc::new(AtmApiNet::new(
            fabric,
            fast_hosts(2),
            AtmApiParams::default(),
        ));
        let sim = Sim::new();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let n2 = Arc::clone(&net);
        sim.spawn("sender", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                1,
                Bytes::from(data),
            );
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
    use super::*;
    use crate::ethernet::{EthernetFabric, EthernetParams};
    use ncs_sim::Sim;

    #[test]
    fn send_buffer_paces_cpu_ahead_of_slow_wire() {
        // A fast CPU writing a large message onto slow Ethernet must block
        // in the transport: by completion, the sender can be at most
        // sockbuf ahead of the wire.
        let fabric = Arc::new(EthernetFabric::new(EthernetParams::new(2)));
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
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from(vec![0u8; bytes]),
            );
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
        assert_eq!(p.reaction_cap, 0);
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
        // Cap: liable bytes never exceed reaction_cap.
        let capped = Dur::from_nanos(15_000).times(64 * 1024);
        assert_eq!(large, capped);
    }
}

#[cfg(test)]
mod counter_tests {
    use super::*;
    use crate::fabric::IdealFabric;
    use ncs_sim::Sim;

    #[test]
    fn transport_counters_track_traffic() {
        let sim = Sim::new();
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(1)));
        let hosts = vec![HostParams::test_fast(); 2];
        let tcp = Arc::new(TcpNet::new(
            Arc::clone(&fabric),
            hosts.clone(),
            TcpParams::raw(1460, 16 * 1024),
        ));
        let atm = Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()));
        let t2 = Arc::clone(&tcp);
        let a2 = Arc::clone(&atm);
        sim.spawn("tx", move |ctx| {
            t2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from(vec![0; 3000]),
            );
            a2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(1),
                0,
                Bytes::from(vec![0; 100]),
            );
        });
        sim.run().assert_clean();
        sim.with_tracer(|tr| {
            assert_eq!(tr.counter("tcp.msgs"), 1);
            assert_eq!(tr.counter("tcp.bytes"), 3000);
            assert_eq!(tr.counter("tcp.segments"), 3); // ceil(3000/1460)
            assert_eq!(tr.counter("atm.msgs"), 1);
            assert_eq!(tr.counter("atm.bytes"), 100);
            assert_eq!(tr.counter("atm.cells"), 3); // ceil((100+8)/48)
        });
    }
}
