//! The five workloads. Each `run_*` function performs one *repetition*:
//! generate the inputs from the seed, build the network, launch the
//! program, run the simulation (the only timed region), read the counters,
//! verify every result bit for bit, and tear the simulation down. All sizes
//! are fixed; nothing here looks at the clock to decide how much to do.

use bytes::Bytes;
use ncs_apps::fft::{fft_ncs_setup_with, fft_p4, FftConfig};
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, setup_jpeg_p4, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, setup_matmul_p4, MatmulConfig};
use ncs_bench::{paper_table1, paper_table2, paper_table3, Row};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsProc, NcsWorld, RtoConfig, ThreadAddr};
use ncs_net::atm::{AtmLanFabric, AtmLanParams};
use ncs_net::{
    AtmApiNet, AtmApiParams, ChaosNet, ChaosParams, ChaosTopology, FaultStatsSnapshot, HostParams,
    Network, Testbed,
};
use ncs_sim::{
    fnv1a, AnalysisConfig, Dur, EngineKind, InvariantSink, RunOutcome, Sim, SimRng, SimTime,
    StopReason, DEFAULT_STACK_BYTES,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::spans::Spans;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CollectiveSmall,
    BulkPipeline,
    RingClean,
    RingLossy,
    PaperApps,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CollectiveSmall,
        Workload::BulkPipeline,
        Workload::RingClean,
        Workload::RingLossy,
        Workload::PaperApps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectiveSmall => "collective_small",
            Workload::BulkPipeline => "bulk_pipeline",
            Workload::RingClean => "ring_clean",
            Workload::RingLossy => "ring_lossy",
            Workload::PaperApps => "paper_apps",
        }
    }

    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CollectiveSmall => {
                "128 hosts x 1024 gather+broadcast rounds of ~512 B over the HSM stack: \
                 per-message software cost (wheel, switches, MTS, MPS locks, metrics) is everything, wire and CRC work nil"
            }
            Workload::BulkPipeline => {
                "4-host store-and-forward chain, 64 x ~1 MiB through the checksummed credit-window path: \
                 the byte path (CRC-32, copies) does the work, scheduling almost none"
            }
            Workload::RingClean => {
                "64-host WAN ring, 512 x ~4 KiB per host with error control on a clean wire: \
                 the control for ring_lossy, where added control traffic or timers show as cost"
            }
            Workload::RingLossy => {
                "ring_clean's traffic at 2e-3 cell loss and 1e-4 corruption: \
                 the reliability layer (RTO, sequence window, retransmit queue) sets virtual time"
            }
            Workload::PaperApps => {
                "the paper's whole grid, Tables 1-3 on Ethernet and NYNET, p4 and NCS variants (38 runs): \
                 the only path through p4, TCP/NSM, Ethernet and the apps; its virtual time is the paper's tables"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Messages (for `paper_apps`: application runs) one repetition verifies.
    pub fn attempted(self, scale_div: u32) -> u64 {
        match self {
            Workload::CollectiveSmall => {
                u64::from(COLLECTIVE_ROUNDS / scale_div) * 2 * (COLLECTIVE_HOSTS as u64 - 1)
            }
            Workload::BulkPipeline => u64::from(BULK_MSGS / scale_div),
            Workload::RingClean | Workload::RingLossy => {
                RING_HOSTS as u64 * u64::from(RING_MSGS / scale_div)
            }
            Workload::PaperApps => paper_grid().len() as u64 * 2,
        }
    }
}

/// How one repetition is run.
#[derive(Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// 1 = the benchmark's size; 8 = the traced/sensitivity size; 16 = smoke.
    /// Divides repetition counts, never host counts or message sizes.
    pub scale_div: u32,
    pub engine: EngineKind,
    /// Turn the program's own tracer on (scheduler detail included).
    pub trace: bool,
    /// Arm the runtime analysis pass (`AnalysisConfig::recording`).
    pub armed: bool,
    /// Also gather the per-layer counts and the stage decomposition.
    pub layers: bool,
}

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Wall seconds inside `Sim::run()` (summed over the grid for `paper_apps`).
    pub wall_s: f64,
    /// Wall seconds of the whole repetition.
    pub total_s: f64,
    pub virt_elapsed_ps: u64,
    /// Application payload bytes that were verified.
    pub payload_bytes: u64,
    pub attempted: u64,
    pub verified: u64,
    pub events: u64,
    /// FNV fold of every simulation's `trace_hash`, in run order.
    pub trace_hash: u64,
    /// Per-message latency in virtual time, sorted: from the call of
    /// `NCS_send` to the return of the matching `NCS_recv`, read off the
    /// virtual clock by the workload's own threads. `paper_apps` cannot see
    /// inside the applications' threads and takes the program's causal
    /// timelines (`enqueued -> delivered`) instead.
    pub latencies_ps: Vec<u64>,
    /// Conditions that make every operation of this repetition count as failed.
    pub breaches: Vec<String>,
    /// Exact counts by per-layer metric name (sums over the repetition's simulations).
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-stage latency samples, sorted (only with `RunCfg::layers`).
    pub stages_ps: BTreeMap<&'static str, Vec<u64>>,
    /// Chrome trace of the program (only with `RunCfg::trace`).
    pub chrome_json: Option<String>,
    /// Message timelines the program followed all the way to `delivered`.
    pub timelines_complete: u64,
    /// Picoseconds in the registry's per-stage histograms and in its
    /// end-to-end histogram (only with `RunCfg::layers`); the two must agree.
    pub obs_parts_ps: u64,
    pub obs_e2e_ps: u64,
    /// Counter and histogram names the program's registry held (only with
    /// `RunCfg::layers`): the key set the metrics probe replays.
    pub counter_keys: Vec<&'static str>,
    pub stat_keys: Vec<&'static str>,
    /// `paper_apps` only: simulated seconds per row of the paper's tables.
    pub grid: Vec<GridResult>,
    /// `paper_apps` only: wall seconds of the p4-variant runs.
    pub p4_wall_s: f64,
}

impl Rep {
    fn new(w: Workload, cfg: &RunCfg) -> Rep {
        Rep {
            attempted: w.attempted(cfg.scale_div),
            ..Rep::default()
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn peak(&mut self, name: &'static str, v: f64) {
        let slot = self.counts.entry(name).or_insert(0.0);
        if v > *slot {
            *slot = v;
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Folds one more simulation's digest into a repetition's.
fn fold_hash(so_far: u64, next: u64) -> u64 {
    fnv1a(&[so_far.to_le_bytes(), next.to_le_bytes()].concat())
}

fn random_bytes(rng: &mut SimRng, n: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(n + 8);
    while v.len() < n {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(n);
    v
}

/// Every message starts with its sequence number and sender, so a stale or
/// misrouted delivery fails verification whatever its tag says.
const STAMP: usize = 8;

fn stamped(body: &[u8], seq: u32, src: u32) -> Bytes {
    let mut v = body.to_vec();
    v[..4].copy_from_slice(&seq.to_le_bytes());
    v[4..STAMP].copy_from_slice(&src.to_le_bytes());
    Bytes::from(v)
}

fn stamp_matches(data: &[u8], body: &[u8], seq: u32, src: u32) -> bool {
    data.len() == body.len()
        && data[..4] == seq.to_le_bytes()
        && data[4..STAMP] == src.to_le_bytes()
        && data[STAMP..] == body[STAMP..]
}

/// A simulation pinned to the requested engine and the default stack size,
/// whatever `NCS_GREEN_ENGINE` / `NCS_GREEN_STACK_KIB` say.
fn new_sim(cfg: &RunCfg) -> Sim {
    let sim = Sim::with_engine_and_stack(cfg.engine, DEFAULT_STACK_BYTES);
    if cfg.trace {
        sim.with_tracer(|t| t.enable_detail());
    }
    sim
}

/// The program's own trace, in the format Perfetto loads.
fn chrome_json(sim: &Sim) -> String {
    sim.with_tracer(|tr| sim.with_metrics(|m| ncs_sim::chrome_trace_json(tr, m)))
}

fn analysis_for(cfg: &RunCfg) -> (AnalysisConfig, Option<Arc<InvariantSink>>) {
    if cfg.armed {
        let (a, sink) = AnalysisConfig::recording();
        (a, Some(sink))
    } else {
        (AnalysisConfig::off(), None)
    }
}

fn check_outcome(rep: &mut Rep, what: &str, out: &RunOutcome) {
    if !out.panics.is_empty() {
        rep.breaches
            .push(format!("{what}: green-thread panics {:?}", out.panics));
    }
    if out.reason != StopReason::Completed {
        rep.breaches
            .push(format!("{what}: run stopped with {:?}", out.reason));
    }
    if !out.blocked.is_empty() {
        rep.breaches
            .push(format!("{what}: threads still blocked {:?}", out.blocked));
    }
}

/// Stage names of the program's causal message timeline, paired with the
/// per-layer metric stem fed by the stage *ending* at that mark.
const STAGES: [(&str, &str); 6] = [
    ("sq_popped", "queue_wait"),
    ("wire_start", "inject"),
    ("arrived", "wire"),
    ("picked", "pickup"),
    ("reassembled", "reassembly"),
    ("delivered", "deliver"),
];

/// The registry's own per-component histograms, whose totals must telescope
/// to `obs.e2e`.
const OBS_COMPONENTS: [&str; 6] = [
    "obs.queue_wait",
    "obs.inject",
    "obs.wire",
    "obs.pickup",
    "obs.reassembly",
    "obs.deliver",
];

/// Reads everything the harness wants from one finished simulation.
/// `latencies_from_timelines` is for `paper_apps`, whose messages the
/// harness cannot time itself.
fn collect_sim(
    rep: &mut Rep,
    cfg: &RunCfg,
    sim: &Sim,
    out: &RunOutcome,
    latencies_from_timelines: bool,
) {
    rep.events += out.events;
    rep.trace_hash = fold_hash(rep.trace_hash, sim.trace_hash());
    rep.add("sim.events", out.events as f64);
    rep.peak("sim.peak_queue_depth", sim.peak_queue_depth() as f64);
    sim.with_metrics(|m| {
        let (mut retained, mut opened, mut complete) = (0u64, 0u64, 0u64);
        for (_, tl) in m.timelines() {
            retained += 1;
            let (Some(&(first, t0)), Some(&(last, t1))) = (tl.first(), tl.last()) else {
                continue;
            };
            if first != "enqueued" {
                continue;
            }
            opened += 1;
            // A timeline stops short of `delivered` when the program lost
            // track of the message on the wire (see README, "What the
            // program's own timelines miss").
            if last != "delivered" {
                continue;
            }
            complete += 1;
            if latencies_from_timelines {
                rep.latencies_ps.push(t1.since(t0).as_ps());
            }
            if cfg.layers {
                for w in tl.windows(2) {
                    let (stage, t) = w[1];
                    if let Some((_, stem)) = STAGES.iter().find(|(s, _)| *s == stage) {
                        rep.stages_ps
                            .entry(stem)
                            .or_default()
                            .push(t.since(w[0].1).as_ps());
                    }
                }
            }
        }
        rep.add("core.msgs", opened as f64);
        rep.timelines_complete += complete;
        rep.add("sim.timelines_retained", retained as f64);
        if !cfg.layers {
            return;
        }
        let mut gauge_samples = 0usize;
        let mut switch_peak = 0i64;
        for ((name, _), series) in m.gauges() {
            gauge_samples += series.samples().len();
            if name == "switch.out_bytes" {
                switch_peak = switch_peak.max(series.max().unwrap_or(0));
            }
        }
        for (name, _) in m.counters() {
            if !rep.counter_keys.contains(&name) {
                rep.counter_keys.push(name);
            }
        }
        for (name, _) in m.stats() {
            if !rep.stat_keys.contains(&name) {
                rep.stat_keys.push(name);
            }
        }
        rep.add("sim.gauge_samples_retained", gauge_samples as f64);
        rep.peak("net.switch_out_peak_bytes", switch_peak as f64);
        rep.add("mts.dispatches", m.counter("mts.dispatches") as f64);
        let quantile_us = |name: &str, q: f64| {
            m.stat(name)
                .and_then(|s| s.hist().quantile(q))
                .map_or(0.0, |d| d.as_ps() as f64 / 1e6)
        };
        rep.peak("mts.run_slice_p50_us", quantile_us("mts.run_slice", 0.5));
        rep.peak(
            "mts.runnable_wait_p99_us",
            quantile_us("mts.runnable_wait", 0.99),
        );
        rep.peak(
            "core.req_wait_p99_ms",
            quantile_us("obs.req_wait", 0.99) / 1e3,
        );
        rep.peak(
            "core.req_service_p99_ms",
            quantile_us("obs.req_service", 0.99) / 1e3,
        );
        let total_ps = |name: &str| m.stat(name).map_or(0, |s| s.summary().total().as_ps());
        rep.obs_parts_ps += OBS_COMPONENTS.iter().map(|c| total_ps(c)).sum::<u64>();
        rep.obs_e2e_ps += total_ps("obs.e2e");
    });
    if !cfg.layers {
        return;
    }
    sim.with_tracer(|tr| {
        rep.add("sim.tracer_spans", tr.spans().len() as f64);
        rep.add("net.cells", tr.counter("atm.cells") as f64);
        rep.add("net.cell_events", tr.counter("atm.cell_events") as f64);
        rep.add(
            "net.bytes",
            (tr.counter("atm.bytes") + tr.counter("tcp.bytes")) as f64,
        );
        rep.add(
            "net.fabric_drops",
            (tr.counter("atm.fabric_drops") + tr.counter("tcp.fabric_drops")) as f64,
        );
    });
}

/// Reads the reliability layer's counters from every process and records
/// the failure conditions they can show.
fn collect_procs(rep: &mut Rep, procs: &[NcsProc], clean_wire: bool) {
    let mut retransmits = 0u64;
    for p in procs {
        let st = p.error_stats();
        retransmits += st.retransmits;
        rep.add("core.retransmits", st.retransmits as f64);
        rep.add("core.spurious_retransmits", st.spurious_retransmits as f64);
        rep.add("core.backoffs", st.backoff_events as f64);
        rep.add("core.rtt_samples", st.rtt_samples as f64);
        rep.add("core.dup_suppressed", st.duplicates_suppressed as f64);
        rep.add("core.retx_deferred", st.retx_deferred as f64);
        rep.add("core.delivery_failures", st.delivery_failures as f64);
        rep.add("core.reasm_reclaimed", st.reassembly_reclaimed as f64);
        rep.add("core.dead_peers", st.dead_peers.len() as f64);
        rep.add("core.chunks", p.pipeline_stats().1 as f64);
        if st.delivery_failures > 0 {
            rep.breaches.push(format!(
                "proc {}: {} delivery failures",
                p.id(),
                st.delivery_failures
            ));
        }
        if !st.dead_peers.is_empty() {
            rep.breaches
                .push(format!("proc {}: dead peers {:?}", p.id(), st.dead_peers));
        }
        let backlog = p.reassembly_backlog();
        if backlog > 0 {
            rep.breaches
                .push(format!("proc {}: reassembly backlog {backlog}", p.id()));
        }
    }
    if clean_wire && retransmits > 0 {
        rep.breaches
            .push(format!("{retransmits} retransmissions on a clean wire"));
    }
}

fn collect_damage(rep: &mut Rep, d: &FaultStatsSnapshot) {
    rep.add("net.cells", d.cells_total as f64);
    rep.add("net.cells_lost", d.cells_lost as f64);
    rep.add("net.cells_corrupted", d.cells_corrupted as f64);
    rep.add("net.pdus_rejected", d.pdus_rejected as f64);
}

/// The shared tail of the four synthetic workloads: run (timed), collect,
/// verify, finish.
#[allow(clippy::too_many_arguments)]
fn run_and_collect(
    rep: &mut Rep,
    cfg: &RunCfg,
    spans: &mut Spans,
    sim: &Sim,
    world: &NcsWorld,
    probe: &Probe,
    sink: Option<Arc<InvariantSink>>,
    clean_wire: bool,
) {
    let (out, wall_s) = spans.timed("run", |_| sim.run());
    rep.wall_s += wall_s;
    spans.scope("collect", |_| {
        check_outcome(rep, "run", &out);
        collect_sim(rep, cfg, sim, &out, false);
        collect_procs(rep, world.procs(), clean_wire);
        rep.virt_elapsed_ps = probe.app_done_ps.load(Ordering::Relaxed);
        if let Some(sink) = sink {
            rep.add("analysis.violations", sink.take().len() as f64);
        }
        if cfg.trace {
            rep.chrome_json =
                Some(sim.with_tracer(|tr| sim.with_metrics(|m| ncs_sim::chrome_trace_json(tr, m))));
        }
    });
    spans.scope("verify", |_| {
        rep.verified = probe.verified.load(Ordering::Relaxed);
        rep.latencies_ps = probe
            .latency_ps
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect();
    });
    spans.scope("finish", |_| sim.finish());
}

/// What the workload's own threads observe from outside the program: how
/// many deliveries were bit-exact, each message's latency on the virtual
/// clock, and when the last thread finished.
struct Probe {
    verified: AtomicU64,
    /// One slot per message: the sender stores the instant it calls
    /// `NCS_send`, the receiver replaces it with the latency when its
    /// `NCS_recv` returns.
    latency_ps: Vec<AtomicU64>,
    app_done_ps: AtomicU64,
}

impl Probe {
    fn new(messages: u64) -> Arc<Probe> {
        Arc::new(Probe {
            verified: AtomicU64::new(0),
            latency_ps: (0..messages).map(|_| AtomicU64::new(0)).collect(),
            app_done_ps: AtomicU64::new(0),
        })
    }

    fn sending(&self, msg: usize, now: SimTime) {
        self.latency_ps[msg].store(now.since(SimTime::ZERO).as_ps(), Ordering::Relaxed);
    }

    fn received(&self, msg: usize, now: SimTime, bit_exact: bool) {
        let slot = &self.latency_ps[msg];
        let sent_ps = slot.load(Ordering::Relaxed);
        slot.store(
            now.since(SimTime::ZERO).as_ps() - sent_ps,
            Ordering::Relaxed,
        );
        if bit_exact {
            self.verified.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn thread_done(&self, now: SimTime) {
        self.app_done_ps
            .fetch_max(now.since(SimTime::ZERO).as_ps(), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// collective_small
// ---------------------------------------------------------------------------

const COLLECTIVE_HOSTS: usize = 128;
const COLLECTIVE_ROUNDS: u32 = 1024;
const COLLECTIVE_BYTES: usize = 512;
/// A run's largest message is `BYTES - k`, `k` drawn from `[0, BASE_JITTER)`;
/// each message is up to `JITTER - 1` bytes shorter than that. The model
/// clock so differs a little from seed to seed and not at all within one.
const COLLECTIVE_BASE_JITTER: u64 = 16;
const COLLECTIVE_JITTER: u64 = 32;

/// The FORE-LAN High Speed Mode stack: ATM API over a single switch,
/// SPARCstation IPX hosts.
fn hsm_stack(nodes: usize) -> Arc<dyn Network> {
    let fabric = Arc::new(AtmLanFabric::new(AtmLanParams::fore_lan(nodes)));
    let hosts = vec![HostParams::sparc_ipx(); nodes];
    Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()))
}

struct CollectiveInputs {
    rounds: usize,
    /// One seeded body per host; a message is a stamped prefix of it.
    bodies: Vec<Vec<u8>>,
    /// Message length by `host * rounds + round`.
    lens: Vec<u16>,
}

impl CollectiveInputs {
    /// The unstamped bytes host `src` sends in `round`.
    fn body(&self, src: usize, round: u32) -> &[u8] {
        let len = usize::from(self.lens[src * self.rounds + round as usize]);
        &self.bodies[src][..len]
    }
}

fn run_collective(cfg: &RunCfg, spans: &mut Spans) -> Rep {
    let mut rep = Rep::new(Workload::CollectiveSmall, cfg);
    let hosts = COLLECTIVE_HOSTS;
    let rounds = COLLECTIVE_ROUNDS / cfg.scale_div;

    let inputs = spans.scope("gen_inputs", |_| {
        let mut rng = SimRng::new(cfg.seed).split_str("collective_small");
        let bodies = (0..hosts)
            .map(|_| random_bytes(&mut rng, COLLECTIVE_BYTES))
            .collect();
        let base = COLLECTIVE_BYTES as u64 - rng.gen_range(COLLECTIVE_BASE_JITTER);
        let lens = (0..hosts * rounds as usize)
            .map(|_| (base - rng.gen_range(COLLECTIVE_JITTER)) as u16)
            .collect();
        Arc::new(CollectiveInputs {
            rounds: rounds as usize,
            bodies,
            lens,
        })
    });
    rep.payload_bytes = (0..rounds)
        .map(|r| {
            let gather: usize = (1..hosts).map(|p| inputs.body(p, r).len()).sum();
            (gather + (hosts - 1) * inputs.body(0, r).len()) as u64
        })
        .sum();

    let net = spans.scope("build_net", |_| hsm_stack(hosts));
    let sim = new_sim(cfg);
    let (analysis, sink) = analysis_for(cfg);
    let probe = Probe::new(rep.attempted);
    let world = spans.scope("launch", |_| {
        let probe = Arc::clone(&probe);
        let ncs_cfg = NcsConfig {
            analysis,
            ..NcsConfig::default()
        };
        NcsWorld::launch(&sim, vec![net], hosts, ncs_cfg, move |id, proc_| {
            let inp = Arc::clone(&inputs);
            let probe = Arc::clone(&probe);
            proc_.t_create("w", 5, move |ncs| {
                // Message slots: round-major, the gather half then the
                // broadcast half, by worker.
                let gather_slot = |r: u32, p: usize| r as usize * 2 * (hosts - 1) + p - 1;
                let bcast_slot = |r: u32, p: usize| gather_slot(r, p) + hosts - 1;
                for r in 0..rounds {
                    if id == 0 {
                        for p in 1..hosts {
                            let m = ncs.recv(Some(p), None, Some(r));
                            let ok = stamp_matches(&m.data, inp.body(p, r), r, p as u32);
                            probe.received(gather_slot(r, p), ncs.ctx().now(), ok);
                        }
                        let payload = stamped(inp.body(0, r), r, 0);
                        for p in 1..hosts {
                            probe.sending(bcast_slot(r, p), ncs.ctx().now());
                            ncs.send(ThreadAddr::new(p, 0), r, payload.clone());
                        }
                    } else {
                        let payload = stamped(inp.body(id, r), r, id as u32);
                        probe.sending(gather_slot(r, id), ncs.ctx().now());
                        ncs.send(ThreadAddr::new(0, 0), r, payload);
                        let m = ncs.recv(Some(0), None, Some(r));
                        let ok = stamp_matches(&m.data, inp.body(0, r), r, 0);
                        probe.received(bcast_slot(r, id), ncs.ctx().now(), ok);
                    }
                }
                probe.thread_done(ncs.ctx().now());
            });
        })
    });
    run_and_collect(&mut rep, cfg, spans, &sim, &world, &probe, sink, true);
    rep
}

// ---------------------------------------------------------------------------
// bulk_pipeline
// ---------------------------------------------------------------------------

const BULK_HOSTS: usize = 4;
const BULK_HOPS: usize = BULK_HOSTS - 1;
const BULK_MSGS: u32 = 64;
const BULK_BYTES: usize = 1024 * 1024;
/// A run's message length is `BYTES - 256 * k`, `k` drawn from
/// `[0, JITTER_STEPS)`: one length per run, so the allocator sees the same
/// sizes over and over and `peak_rss_mib` does not depend on how they mix.
const BULK_JITTER_STEPS: u64 = 64;
/// Distinct seeded source buffers; message `i` is a stamped prefix of
/// buffer `i % POOL`, so the harness holds 8 MiB of inputs, not 64.
const BULK_POOL: usize = 8;

fn run_bulk(cfg: &RunCfg, spans: &mut Spans) -> Rep {
    let mut rep = Rep::new(Workload::BulkPipeline, cfg);
    let msgs = BULK_MSGS / cfg.scale_div;

    let (pool, len) = spans.scope("gen_inputs", |_| {
        let mut rng = SimRng::new(cfg.seed).split_str("bulk_pipeline");
        let pool: Vec<Vec<u8>> = (0..BULK_POOL)
            .map(|_| random_bytes(&mut rng, BULK_BYTES))
            .collect();
        let len = BULK_BYTES - 256 * rng.gen_range(BULK_JITTER_STEPS) as usize;
        (Arc::new(pool), len)
    });
    rep.payload_bytes = u64::from(msgs) * len as u64;

    let net = spans.scope("build_net", |_| hsm_stack(BULK_HOSTS));
    let sim = new_sim(cfg);
    let (analysis, sink) = analysis_for(cfg);
    // Every hop is an NCS message of its own: one latency slot per hop.
    let probe = Probe::new(rep.attempted * BULK_HOPS as u64);
    let world = spans.scope("launch", |_| {
        let probe = Arc::clone(&probe);
        let ncs_cfg = NcsConfig {
            flow: FlowControl::Credit { window: 4 },
            error: ErrorControl::ChecksumRetransmit,
            // A relay acknowledges a chunk only after the ~0.3 s it spends
            // forwarding the previous 1 MiB, so the default 10 ms timeout
            // floor fires once per message on a clean wire (318 spurious
            // retransmissions). This workload is about the byte path; the
            // timers are ring_*'s subject, so the floor sits above that delay.
            rto: RtoConfig {
                initial: Dur::from_secs(4),
                min: Dur::from_secs(1),
                max: Dur::from_secs(4),
            },
            analysis,
            ..NcsConfig::default()
        };
        NcsWorld::launch(&sim, vec![net], BULK_HOSTS, ncs_cfg, move |id, proc_| {
            let pool = Arc::clone(&pool);
            let probe = Arc::clone(&probe);
            proc_.t_create("stage", 5, move |ncs| {
                let slot = |i: u32, hop: usize| i as usize * BULK_HOPS + hop;
                for i in 0..msgs {
                    let body = &pool[i as usize % BULK_POOL][..len];
                    let data = if id == 0 {
                        stamped(body, i, 0)
                    } else {
                        let m = ncs.recv(Some(id - 1), None, Some(i));
                        let at_sink = id == BULK_HOPS;
                        let ok = at_sink && stamp_matches(&m.data, body, i, 0);
                        probe.received(slot(i, id - 1), ncs.ctx().now(), ok);
                        if at_sink {
                            continue;
                        }
                        m.data
                    };
                    probe.sending(slot(i, id), ncs.ctx().now());
                    ncs.send(ThreadAddr::new(id + 1, 0), i, data);
                }
                probe.thread_done(ncs.ctx().now());
            });
        })
    });
    run_and_collect(&mut rep, cfg, spans, &sim, &world, &probe, sink, true);
    rep
}

// ---------------------------------------------------------------------------
// ring_clean / ring_lossy
// ---------------------------------------------------------------------------

const RING_HOSTS: usize = 64;
const RING_MSGS: u32 = 512;
const RING_BYTES: usize = 4096;
/// A run's largest message is `BYTES - 16 * k`, `k` drawn from
/// `[0, BASE_JITTER_STEPS)`; each message is up to `JITTER_STEPS - 1` steps
/// of 16 bytes shorter than that.
const RING_BASE_JITTER_STEPS: u64 = 8;
const RING_JITTER_STEPS: u64 = 16;
/// Distinct seeded bodies per host (2 MiB of inputs in all).
const RING_POOL: usize = 8;
/// X11's "lossy" rung.
const RING_P_CORRUPT: f64 = 1e-4;
const RING_P_LOSS: f64 = 2e-3;

/// X11's `chaos_cfg`: checksum/retransmit with an adaptive RTO seeded at
/// 10 ms and a retry budget that outlasts the harshest rung.
fn chaos_cfg(analysis: AnalysisConfig) -> NcsConfig {
    NcsConfig {
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(10)),
        max_retries: 64,
        analysis,
        ..NcsConfig::default()
    }
}

struct RingInputs {
    msgs: usize,
    /// `host * POOL + k`.
    bodies: Vec<Vec<u8>>,
    /// `host * msgs + i`.
    lens: Vec<u16>,
}

impl RingInputs {
    /// The unstamped bytes of host `src`'s message `i`.
    fn body(&self, src: usize, i: u32) -> &[u8] {
        let len = usize::from(self.lens[src * self.msgs + i as usize]);
        &self.bodies[src * RING_POOL + i as usize % RING_POOL][..len]
    }
}

fn run_ring(cfg: &RunCfg, spans: &mut Spans, lossy: bool) -> Rep {
    let mut rep = Rep::new(Workload::RingClean, cfg);
    let hosts = RING_HOSTS;
    let msgs = RING_MSGS / cfg.scale_div;

    // Both rings draw the same traffic from the seed; only the wire differs.
    let root = SimRng::new(cfg.seed).split_str("ring");
    let inputs = spans.scope("gen_inputs", |_| {
        let mut rng = root.split_str("traffic");
        let bodies = (0..hosts * RING_POOL)
            .map(|_| random_bytes(&mut rng, RING_BYTES))
            .collect();
        let base = RING_BYTES as u64 - 16 * rng.gen_range(RING_BASE_JITTER_STEPS);
        let lens = (0..hosts * msgs as usize)
            .map(|_| (base - 16 * rng.gen_range(RING_JITTER_STEPS)) as u16)
            .collect();
        Arc::new(RingInputs {
            msgs: msgs as usize,
            bodies,
            lens,
        })
    });
    rep.payload_bytes = inputs.lens.iter().map(|&l| u64::from(l)).sum();

    let (fabric, chaos) = spans.scope("build_net", |_| {
        let (fabric, raw) = ChaosTopology::WanRing.build_chaos(hosts, 0, None);
        let (p_corrupt, p_loss) = if lossy {
            (RING_P_CORRUPT, RING_P_LOSS)
        } else {
            (0.0, 0.0)
        };
        let chaos_seed = root.split_str("chaos").next_u64();
        let chaos = ChaosNet::new(raw, ChaosParams::new(p_corrupt, p_loss, chaos_seed));
        (fabric, chaos)
    });
    let sim = new_sim(cfg);
    let (analysis, sink) = analysis_for(cfg);
    let probe = Probe::new(rep.attempted);
    let world = spans.scope("launch", |_| {
        let probe = Arc::clone(&probe);
        let net: Arc<dyn Network> = Arc::clone(&chaos) as Arc<dyn Network>;
        NcsWorld::launch(
            &sim,
            vec![net],
            hosts,
            chaos_cfg(analysis),
            move |id, proc_| {
                let inp = Arc::clone(&inputs);
                let probe = Arc::clone(&probe);
                proc_.t_create("ring", 5, move |ncs| {
                    let slot = |src: usize, i: u32| src * inp.msgs + i as usize;
                    let right = (id + 1) % hosts;
                    let left = (id + hosts - 1) % hosts;
                    for i in 0..msgs {
                        let payload = stamped(inp.body(id, i), i, id as u32);
                        probe.sending(slot(id, i), ncs.ctx().now());
                        ncs.send(ThreadAddr::new(right, 0), i, payload);
                        let m = ncs.recv(Some(left), None, Some(i));
                        let ok = stamp_matches(&m.data, inp.body(left, i), i, left as u32);
                        probe.received(slot(left, i), ncs.ctx().now(), ok);
                    }
                    probe.thread_done(ncs.ctx().now());
                });
            },
        )
    });
    run_and_collect(&mut rep, cfg, spans, &sim, &world, &probe, sink, !lossy);
    spans.scope("collect", |_| {
        collect_damage(&mut rep, &chaos.stats().snapshot());
        rep.add("net.fabric_drops", fabric.overflow_drop_count() as f64);
    });
    rep
}

// ---------------------------------------------------------------------------
// paper_apps
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    Matmul,
    Jpeg,
    Fft,
}

/// One row of the paper's Tables 1-3.
#[derive(Clone, Copy, Debug)]
pub struct GridCell {
    pub app: App,
    pub testbed: Testbed,
    /// Testbed label as `ncs_bench::paper_table*` spells it.
    pub label: &'static str,
    /// The paper's node count and p4 / NCS seconds for this row.
    pub paper: Row,
}

/// Every node count the paper reports, with the paper's own seconds.
pub fn paper_grid() -> Vec<GridCell> {
    let mut grid = Vec::new();
    for app in [App::Matmul, App::Jpeg, App::Fft] {
        for (label, testbed) in [
            ("Ethernet", Testbed::SunEthernet),
            ("NYNET", Testbed::NynetTcp),
        ] {
            let table = match app {
                App::Matmul => paper_table1(label),
                App::Jpeg => paper_table2(label),
                App::Fft => paper_table3(label),
            };
            grid.extend(table.into_iter().map(|paper| GridCell {
                app,
                testbed,
                label,
                paper,
            }));
        }
    }
    grid
}

/// Simulated seconds of one grid row, p4 and NCS.
#[derive(Clone, Copy, Debug)]
pub struct GridResult {
    pub cell: GridCell,
    pub measured: Row,
}

/// Bytes of application data one verified run consumed and produced.
fn app_bytes(app: App, m: &MatmulConfig, j: &JpegConfig, f: &FftConfig) -> u64 {
    (match app {
        App::Matmul => 3 * m.dim * m.dim * 8,
        App::Jpeg => 2 * j.width * j.height,
        App::Fft => 2 * f.sets * f.m * 16,
    }) as u64
}

/// The matmul, JPEG and FFT workload seeds `paper_apps` derives from `seed`.
pub fn paper_seeds(seed: u64) -> (u64, u64, u64) {
    let root = SimRng::new(seed).split_str("paper_apps");
    (
        root.split_str("matmul").next_u64(),
        root.split_str("jpeg").next_u64(),
        root.split_str("fft").next_u64(),
    )
}

fn run_paper_apps(cfg: &RunCfg, spans: &mut Spans) -> Rep {
    let mut rep = Rep::new(Workload::PaperApps, cfg);
    // The drivers generate their own matrices, images and signals from
    // these seeds inside `setup_*`; that time is in the `launch` span.
    let (matmul_seed, jpeg_seed, fft_seed) = spans.scope("gen_inputs", |_| paper_seeds(cfg.seed));
    let mut most_spans = 0usize;

    for cell in paper_grid() {
        let nodes = cell.paper.nodes;
        let m_cfg = MatmulConfig {
            seed: matmul_seed,
            ..MatmulConfig::paper(nodes)
        };
        let j_cfg = JpegConfig {
            seed: jpeg_seed,
            ..JpegConfig::paper(nodes)
        };
        let f_cfg = FftConfig {
            seed: fft_seed,
            ..FftConfig::paper(nodes)
        };
        let mut secs = [0.0f64; 2];
        for (vi, is_ncs) in [false, true].into_iter().enumerate() {
            let what = format!(
                "{:?}/{}/{}/{}",
                cell.app,
                cell.label,
                nodes,
                if is_ncs { "ncs" } else { "p4" }
            );
            let net = spans.scope("build_net", |_| cell.testbed.build(nodes + 1));

            // The p4 FFT driver has no staged form: it owns its simulation,
            // so its whole call (workload generation and reference FFT of
            // 8 x 512 points included) is the timed region and its events
            // and trace hash cannot be read.
            if cell.app == App::Fft && !is_ncs {
                let (run, wall_s) = spans.timed("run", |_| fft_p4(net, f_cfg));
                rep.wall_s += wall_s;
                rep.p4_wall_s += wall_s;
                secs[vi] = run.elapsed.as_secs_f64();
                rep.trace_hash = fold_hash(rep.trace_hash, run.elapsed.as_ps());
                rep.verified += u64::from(run.verified);
                continue;
            }

            let sim = new_sim(cfg);
            let (analysis, sink) = analysis_for(cfg);
            let ncs_cfg = NcsConfig {
                analysis: analysis.clone(),
                ..NcsConfig::default()
            };
            if !is_ncs && cfg.armed {
                sim.set_analysis(analysis);
            }
            // The staged drivers generate their workload and compute the
            // sequential reference inside `setup_*`, i.e. outside the timed
            // region.
            let verify = spans.scope("launch", |_| -> Box<dyn Fn() -> bool> {
                match (cell.app, is_ncs) {
                    (App::Matmul, false) => {
                        let h = setup_matmul_p4(&sim, net, m_cfg);
                        Box::new(move || h.verify())
                    }
                    (App::Matmul, true) => {
                        let h = setup_matmul_ncs_with(&sim, net, m_cfg, ncs_cfg);
                        Box::new(move || h.verify())
                    }
                    (App::Jpeg, false) => {
                        let h = setup_jpeg_p4(&sim, net, j_cfg);
                        Box::new(move || h.verify())
                    }
                    (App::Jpeg, true) => {
                        let h = setup_jpeg_ncs_with(&sim, net, j_cfg, ncs_cfg);
                        Box::new(move || h.verify())
                    }
                    (App::Fft, _) => {
                        let h = fft_ncs_setup_with(&sim, net, f_cfg, ncs_cfg);
                        Box::new(move || h.verify())
                    }
                }
            });
            let (out, wall_s) = spans.timed("run", |_| sim.run());
            rep.wall_s += wall_s;
            if !is_ncs {
                rep.p4_wall_s += wall_s;
            }
            spans.scope("collect", |_| {
                check_outcome(&mut rep, &what, &out);
                collect_sim(&mut rep, cfg, &sim, &out, true);
                secs[vi] = out.end_time.as_secs_f64();
                if is_ncs {
                    rep.virt_elapsed_ps += out.end_time.since(SimTime::ZERO).as_ps();
                }
                if let Some(sink) = sink {
                    rep.add("analysis.violations", sink.take().len() as f64);
                }
                let n_spans = sim.with_tracer(|tr| tr.spans().len());
                if cfg.trace && is_ncs && n_spans > most_spans {
                    most_spans = n_spans;
                    rep.chrome_json = Some(chrome_json(&sim));
                }
            });
            spans.scope("verify", |_| {
                if verify() {
                    rep.verified += 1;
                    if is_ncs {
                        rep.payload_bytes += app_bytes(cell.app, &m_cfg, &j_cfg, &f_cfg);
                    }
                }
            });
            spans.scope("finish", |_| sim.finish());
        }
        rep.grid.push(GridResult {
            cell,
            measured: Row {
                nodes,
                p4: secs[0],
                ncs: secs[1],
            },
        });
    }
    rep
}

/// One repetition of `w`, wrapped in a `rep` span.
pub fn run_rep(w: Workload, cfg: &RunCfg, spans: &mut Spans) -> Rep {
    let (mut rep, total_s) = spans.timed("rep", |spans| {
        let mut rep = match w {
            Workload::CollectiveSmall => run_collective(cfg, spans),
            Workload::BulkPipeline => run_bulk(cfg, spans),
            Workload::RingClean => run_ring(cfg, spans, false),
            Workload::RingLossy => run_ring(cfg, spans, true),
            Workload::PaperApps => run_paper_apps(cfg, spans),
        };
        // Percentiles want sorted samples; sorting is part of the
        // repetition's untimed work.
        rep.latencies_ps.sort_unstable();
        for samples in rep.stages_ps.values_mut() {
            samples.sort_unstable();
        }
        rep
    });
    rep.total_s = total_s;
    if rep.verified != rep.attempted {
        let (v, a) = (rep.verified, rep.attempted);
        rep.breaches.push(format!("verified {v} of {a}"));
    }
    rep
}
