//! Extension experiment **X10**: event-kernel scaling.
//!
//! Two questions about the timer-wheel kernel rewrite:
//!
//! 1. **Micro** — what does one schedule/pop round trip cost on the
//!    timer wheel (pooled records, O(1) bucket insert) versus the old
//!    `BinaryHeap` + boxed-closure design it replaced? Measured here
//!    in-process over the same operation sequence; the wheel must be at
//!    or better than the heap baseline recorded in the same file.
//! 2. **Macro** — how does the full ATM stack scale from 16 to 256
//!    hosts under a collective-heavy workload (gather + broadcast
//!    rounds of small messages, the per-message-overhead regime where
//!    the paper's NCS wins)? Reports simulator throughput (events/sec,
//!    ns/event of wall time), kernel events per message split into
//!    green-thread resumes and callbacks ([`ncs_sim::RunOutcome::resumes`])
//!    and the kernel's peak queue depth, sampled
//!    into the `kernel.queue_depth` gauge. The sweep runs on **both
//!    green-thread engines** — the coroutine default and the
//!    parked-OS-thread fallback it replaced — so the JSON carries the
//!    before/after ns/event rows for the engine switch.
//!
//! Extension experiment **X12** rides in the same experiment: the sharded
//! scaling sweep. A [`GossipMesh`] workload on the 8-site WAN campus
//! topology runs at 1k / 10k / 100k hosts, partitioned onto 1 / 2 / 4 / 8
//! shard worker threads under the conservative-lookahead window protocol,
//! reporting aggregate events/sec and the speedup over the 1-shard run.
//! Every point's merged workload digest and per-host delivery digests are
//! asserted equal across shard counts — the determinism wall's guarantee,
//! re-checked on the benchmark shapes themselves. The JSON records
//! `worker_cpus` (`std::thread::available_parallelism`) next to the
//! speedups: on a single-CPU runner the shard workers time-slice one core
//! and the speedup column honestly reports ≤ 1x; the parallel win needs a
//! multi-core host.
//!
//! Returns the `BENCH_kernel.json` document (`xp` writes it under `results/`).
//!
//! ```text
//! cargo run --release -p ncs-bench -- scale [--smoke] [--guard]
//! ```
//!
//! `--guard` is the CI perf-regression gate: it compares this machine's
//! *normalized* cost per message — the coroutine-engine sweep's wall ns
//! per collective message divided by the same run's micro wheel ns/event,
//! cancelling out raw machine speed — against the checked-in baseline
//! (`crates/bench/baselines/xp_scale_guard.txt`) and fails if any point
//! regressed by more than 15%. Per *message*, not per event: the events a
//! change removes are usually the cheap ones, so ns/event rises while the
//! run gets faster. The event count itself repeats to the digit, and so does
//! the number of causal-timeline stamps the run retains, so the baseline's
//! `events <hosts> <rounds> <count>` and `stamps <hosts> <rounds> <count>`
//! rows are held exactly, with no tolerance: a new stage fails there without
//! any memory measurement. Sharded sweep points (one event per delivery)
//! are guarded per event via the `sharded <hosts> <shards> <rounds> <ratio>`
//! rows.

use super::{worker_cpus, JsonDoc, Opts};
use crate::json::{fixed, obj};
use bytes::Bytes;
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{GossipConfig, GossipMesh, ShardNetParams, Testbed};
use ncs_sim::wheel::TimerWheel;
use ncs_sim::{Dur, EngineKind, Sim, SimRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
// Wall-clock reads below measure the *simulator's* real execution speed
// (events per host second); they never touch virtual time.
use std::time::Instant; // ncs-lint: allow(wall-clock)

/// Bytes per collective message: small enough that per-message software
/// overhead, not wire time, dominates — the regime the kernel rewrite
/// targets.
const MSG_BYTES: usize = 512;

/// Events in the micro schedule/pop comparison.
const MICRO_EVENTS: usize = 200_000;
/// Pending events held during the micro steady-state phase.
const MICRO_DEPTH: usize = 8_192;

/// The operation sequence both micro candidates replay: a ramp to
/// `MICRO_DEPTH` pending events, then a steady-state pop-one/push-one
/// phase (the kernel's actual regime), then a full drain. Times are
/// pseudo-random offsets spanning many wheel epochs.
fn micro_schedule(n: usize) -> Vec<u64> {
    let mut rng = SimRng::new(42);
    (0..n)
        .map(|_| match rng.gen_index(4) {
            0 => 0,
            1 => rng.gen_range(1 << 14),
            2 => rng.gen_range(1 << 20),
            _ => rng.gen_range(1 << 26),
        })
        .collect()
}

/// ns/event on the timer wheel (pooled records, no per-event allocation).
fn micro_wheel_ns(offsets: &[u64]) -> f64 {
    let t0 = Instant::now(); // ncs-lint: allow(wall-clock)
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut now = 0u64;
    let mut sum = 0u64;
    for (seq, &dt) in offsets.iter().enumerate() {
        if wheel.len() >= MICRO_DEPTH {
            let (t, _, v) = wheel.pop().expect("non-empty");
            now = now.max(t);
            sum = sum.wrapping_add(v);
        }
        wheel.push(now + dt, seq as u64, dt);
    }
    while let Some((_, _, v)) = wheel.pop() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e9 / offsets.len() as f64
}

/// ns/event on the design the wheel replaced: a `BinaryHeap` ordered by
/// `(time, seq)` whose every entry carries a boxed closure — the old
/// kernel's `HeapEntry { time, seq, Box<dyn FnOnce> }` shape.
fn micro_heap_ns(offsets: &[u64]) -> f64 {
    struct Ent {
        key: Reverse<(u64, u64)>,
        f: Box<dyn FnOnce() -> u64 + Send>,
    }
    impl PartialEq for Ent {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Ent {}
    impl PartialOrd for Ent {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ent {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }
    let t0 = Instant::now(); // ncs-lint: allow(wall-clock)
    let mut heap: BinaryHeap<Ent> = BinaryHeap::new();
    let mut now = 0u64;
    let mut sum = 0u64;
    for (seq, &dt) in offsets.iter().enumerate() {
        if heap.len() >= MICRO_DEPTH {
            let e = heap.pop().expect("non-empty");
            now = now.max(e.key.0 .0);
            sum = sum.wrapping_add((e.f)());
        }
        heap.push(Ent {
            key: Reverse((now + dt, seq as u64)),
            f: Box::new(move || dt),
        });
    }
    while let Some(e) = heap.pop() {
        sum = sum.wrapping_add((e.f)());
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e9 / offsets.len() as f64
}

/// Self-rearming sampler feeding the `kernel.queue_depth` gauge. Records
/// [`Sim::queue_depth`] — pending events *plus* the in-flight one — which
/// is the quantity the kernel's `peak_queue_depth` high-water mark tracks;
/// sampling `pending_events()` here was the historical off-by-one (gauge
/// peak 64 vs kernel peak 65: the sampler's own one-event footprint went
/// uncounted). At arm time (called synchronously before `run()`) nothing
/// is in flight yet and the about-to-be-pushed first sampler event plays
/// that role instead — add it back so both call positions count the
/// footprint exactly once, same as the wheel's peak counter sees it.
/// Stops rearming when the queue is otherwise empty (with every other
/// activity parked and nothing pending, the run is over).
fn sample_queue_depth(sim: &Sim, every: Dur) {
    let in_run = sim.queue_depth() > sim.pending_events();
    let depth = sim.queue_depth() + usize::from(!in_run);
    let now = sim.now();
    sim.with_metrics(|m| m.gauge_set("kernel.queue_depth", 0, now, depth as i64));
    if sim.pending_events() > 0 {
        sim.schedule_in(every, move |s| sample_queue_depth(s, every));
    }
}

struct ScalePoint {
    hosts: usize,
    rounds: u32,
    events: u64,
    /// Events that resumed a green thread; the rest ran a callback (the
    /// queue-depth sampler's one per 50 virtual µs among them).
    resumes: u64,
    virtual_s: f64,
    wall_s: f64,
    events_per_sec: f64,
    peak_queue_depth: usize,
    gauge_samples: usize,
    gauge_peak: i64,
    /// Causal-timeline stamps the registry retains after the run.
    stamps: u64,
}

impl ScalePoint {
    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }
    /// Messages the collective delivers: one gather and one broadcast
    /// message per worker per round.
    fn messages(&self) -> u64 {
        2 * (self.hosts as u64 - 1) * u64::from(self.rounds)
    }
    /// What `--guard` normalises: a change that removes cheap events
    /// raises ns/event while the run gets faster, and this falls with it.
    fn ns_per_message(&self) -> f64 {
        self.wall_s * 1e9 / self.messages() as f64
    }
    /// (thread resumes, callbacks) per message.
    fn events_per_message(&self) -> (f64, f64) {
        let per_message = |n: u64| n as f64 / self.messages() as f64;
        (
            per_message(self.resumes),
            per_message(self.events - self.resumes),
        )
    }
}

/// The collective: `rounds` iterations of gather-to-root (every worker
/// sends to proc 0) followed by a root broadcast, all through the full
/// ATM HSM stack, on the requested green-thread engine.
fn run_collective(hosts: usize, rounds: u32, engine: EngineKind) -> ScalePoint {
    let sim = Sim::with_engine(engine);
    let net = Testbed::SunAtmLanApi.build(hosts);
    let payload = Bytes::from(vec![0xC3u8; MSG_BYTES]);
    NcsWorld::launch(
        &sim,
        vec![net],
        hosts,
        NcsConfig::default(),
        move |id, proc_| {
            let payload = payload.clone();
            let n = hosts;
            proc_.t_create("w", 5, move |ncs| {
                for r in 0..rounds {
                    if id == 0 {
                        for p in 1..n {
                            ncs.recv(Some(p), None, Some(r));
                        }
                        for p in 1..n {
                            ncs.send(ThreadAddr::new(p, 0), r, payload.clone());
                        }
                    } else {
                        ncs.send(ThreadAddr::new(0, 0), r, payload.clone());
                        ncs.recv(Some(0), None, Some(r));
                    }
                }
            });
        },
    );
    sample_queue_depth(&sim, Dur::from_micros(50));
    let t0 = Instant::now(); // ncs-lint: allow(wall-clock)
    let out = sim.run();
    let wall_s = t0.elapsed().as_secs_f64(); // ncs-lint: allow(wall-clock)
    out.assert_clean();
    let (gauge_samples, gauge_peak, stamps) = sim.with_metrics(|m| {
        let (samples, peak) = m
            .gauges()
            .filter(|((name, _), _)| *name == "kernel.queue_depth")
            .map(|(_, series)| {
                let s = series.samples();
                (s.len(), s.iter().map(|&(_, v)| v).max().unwrap_or(0))
            })
            .next()
            .unwrap_or((0, 0));
        let stamps = m.timelines().map(|(_, tl)| tl.len() as u64).sum();
        (samples, peak, stamps)
    });
    let point = ScalePoint {
        hosts,
        rounds,
        events: out.events,
        resumes: out.resumes,
        virtual_s: out.end_time.as_secs_f64(),
        wall_s,
        events_per_sec: out.events as f64 / wall_s,
        peak_queue_depth: sim.peak_queue_depth(),
        gauge_samples,
        gauge_peak,
        stamps,
    };
    sim.finish();
    point
}

/// Per-delivery CPU work iterations in the sharded sweep: enough that a
/// shard worker has real computation to overlap (the regime where the
/// window protocol pays off on multi-core hosts), small enough that the
/// kernel path still matters.
const SHARD_WORK: u32 = 64;

/// One point of the X12 sharded sweep.
struct ShardPoint {
    hosts: usize,
    shards: usize,
    rounds: u32,
    /// Gossip messages delivered (2 per host per round).
    delivered: u64,
    /// Kernel events executed, summed over shards.
    events: u64,
    /// Workload events folded into the merged digest.
    merged_events: u64,
    /// Barrier windows executed (0 on the 1-shard sequential fast path).
    windows: u64,
    wall_s: f64,
    /// Partition-independent merged workload digest.
    merged_hash: u64,
    /// Digest over every host's delivery digest and count.
    delivery_digest: u64,
    /// Events/s over the same host count's 1-shard run (set by the sweep).
    speedup: f64,
}

impl ShardPoint {
    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// One sharded gossip run on the WAN campus topology (8 sites, DS-3
/// trunks, 2 ms lookahead windows), wall-clock timed across the whole
/// windowed run including barrier synchronization and inbox merging.
fn run_sharded(hosts: usize, shards: usize, rounds: u32) -> ShardPoint {
    let mesh = GossipMesh::new(
        ShardNetParams::wan_campus(hosts),
        shards,
        GossipConfig {
            rounds,
            msg_bytes: MSG_BYTES,
            work: SHARD_WORK,
            seed: 0x5AD5,
        },
    );
    let t0 = Instant::now(); // ncs-lint: allow(wall-clock)
    let out = mesh.run();
    let wall_s = t0.elapsed().as_secs_f64(); // ncs-lint: allow(wall-clock)
    out.assert_clean();
    mesh.assert_complete();
    let p = ShardPoint {
        hosts,
        shards,
        rounds,
        delivered: mesh.delivered(),
        events: out.events,
        merged_events: out.merged_events,
        windows: out.windows,
        wall_s,
        merged_hash: out.merged_trace_hash,
        delivery_digest: mesh.delivery_digest(),
        speedup: 1.0,
    };
    mesh.sharded().finish();
    p
}

/// The X12 sweep: host counts × shard counts, with the determinism wall's
/// digest-equality guarantee re-asserted on every benchmark shape.
fn run_shard_sweep(
    out: &mut String,
    host_counts: &[usize],
    shard_counts: &[usize],
    rounds: u32,
) -> Vec<ShardPoint> {
    let cpus = worker_cpus();
    *out += &format!(
        "\n## X12 — sharded scaling: gossip on the 8-site WAN campus, \
         {MSG_BYTES}-byte messages, {rounds} round(s), {SHARD_WORK} work iters/delivery \
         ({cpus} cpu(s) available)\n"
    );
    if cpus < *shard_counts.iter().max().unwrap_or(&1) {
        *out += "#  note: fewer CPUs than shards — workers time-slice, speedup \
             honestly reports ~1x or below on this machine\n";
    }
    let mut points = Vec::new();
    for &hosts in host_counts {
        let mut base_eps = None;
        for &shards in shard_counts {
            let mut p = run_sharded(hosts, shards, rounds);
            p.speedup = p.events_per_sec() / *base_eps.get_or_insert(p.events_per_sec());
            *out += &format!("  {:6} hosts x {} shard(s) | {:9} ev | {:7} merged | {:5} windows | {:6.3}s wall | {:9.0} ev/s | {:5.1} ns/ev | {:4.2}x\n",
                p.hosts,
                p.shards,
                p.events,
                p.merged_events,
                p.windows,
                p.wall_s,
                p.events_per_sec(),
                p.ns_per_event(),
                p.speedup,
            );
            assert_eq!(
                p.delivered,
                2 * hosts as u64 * u64::from(rounds),
                "gossip delivery count at {hosts} hosts"
            );
            points.push(p);
        }
        // The determinism wall, re-checked on the benchmark shapes: every
        // shard count must produce the same merged workload digest and the
        // same per-host delivery digests.
        let same_hosts: Vec<&ShardPoint> = points.iter().filter(|p| p.hosts == hosts).collect();
        for p in &same_hosts[1..] {
            assert_eq!(
                (p.merged_hash, p.delivery_digest),
                (same_hosts[0].merged_hash, same_hosts[0].delivery_digest),
                "digest diverged between {} and {} shards at {hosts} hosts",
                same_hosts[0].shards,
                p.shards,
            );
        }
    }
    points
}

/// The checked-in normalized-cost baseline consumed by `--guard`, and the
/// path it is compiled in from.
const GUARD_BASELINE: &str = "crates/bench/baselines/xp_scale_guard.txt";
const GUARD_BASELINE_TEXT: &str = include_str!("../../baselines/xp_scale_guard.txt");
/// Allowed regression over the baseline's normalized cost per event.
const GUARD_HEADROOM: f64 = 1.15;

/// `--guard`: machine-normalized perf-regression gate. Each measured
/// coroutine-engine point's cost ratio (`ns_per_message / wheel_ns`) is
/// compared against the checked-in baseline for the same `<hosts> <rounds>`
/// shape — and each sharded point's (`ns_per_event / wheel_ns`) against the
/// baseline's `sharded <hosts> <shards> <rounds>` row — so raw machine
/// speed divides out and the gate travels across CI runners. Fails (exits
/// non-zero via panic) past 15% regression, and on any difference at all
/// from an `events <hosts> <rounds>` or `stamps <hosts> <rounds>` row: event
/// and stamp counts are deterministic.
fn run_guard(out: &mut String, points: &[ScalePoint], sharded: &[ShardPoint], wheel_ns: f64) {
    // Baseline rows: a shape (single-spaced), then its ratio.
    let baseline: Vec<(String, f64)> = GUARD_BASELINE_TEXT
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            match words.pop().map(str::parse) {
                Some(Ok(ratio)) if matches!(words.len(), 2..=4) => (words.join(" "), ratio),
                _ => panic!("--guard: malformed baseline line: {line:?}"),
            }
        })
        .collect();
    // Measured points: shape as the baseline spells it, label, wall ns per
    // message (flat) or per event (sharded).
    let flat = points.iter().map(|p| {
        let shape = format!("{} {}", p.hosts, p.rounds);
        (shape, format!("{:3} hosts", p.hosts), p.ns_per_message())
    });
    let sharded = sharded.iter().map(|p| {
        let shape = format!("sharded {} {} {}", p.hosts, p.shards, p.rounds);
        let label = format!("{:6} hosts x {} shard(s)", p.hosts, p.shards);
        (shape, label, p.ns_per_event())
    });
    *out += &format!("\n## perf-regression guard (normalized vs {GUARD_BASELINE})\n");
    // The exact rows first: a difference there is the code, never noise.
    for p in points {
        for (kind, count) in [("events", p.events), ("stamps", p.stamps)] {
            let shape = format!("{kind} {} {}", p.hosts, p.rounds);
            let Some(&(_, base)) = baseline.iter().find(|(known, _)| *known == shape) else {
                continue;
            };
            let base = base as u64;
            let verdict = if count == base { "ok" } else { "FAIL" };
            *out += &format!(
                "  {:3} hosts | {count:7} {kind} | baseline {base:7} | {:5.2} per message | {verdict}\n",
                p.hosts,
                count as f64 / p.messages() as f64,
            );
            assert!(
                count == base,
                "{kind} count at {} hosts moved: {count} against the baseline's {base} — {kind} \
                 counts repeat to the digit, so this is the code; re-baseline if it is meant",
                p.hosts,
            );
        }
    }
    let mut checked = 0;
    for (shape, label, ns) in flat.chain(sharded) {
        let Some(&(_, base)) = baseline.iter().find(|(known, _)| *known == shape) else {
            continue;
        };
        let (ratio, limit) = (ns / wheel_ns, base * GUARD_HEADROOM);
        let verdict = if ratio <= limit { "ok" } else { "FAIL" };
        *out += &format!(
            "  {label} | ratio {ratio:7.2} | baseline {base:7.2} | limit {limit:7.2} | {verdict}\n"
        );
        assert!(
            ratio <= limit,
            "wall time at {} regressed: normalized cost {ratio:.2} exceeds baseline {base:.2} \
             by more than {:.0}%",
            label.trim(),
            (GUARD_HEADROOM - 1.0) * 100.0
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "--guard: no baseline entry matched the measured sweep shape"
    );
}

pub(super) fn run(opts: &Opts, out: &mut String) -> Option<JsonDoc> {
    let smoke = opts.smoke;
    *out += "# X10 — event-kernel scaling (timer wheel, 16..256 hosts)\n";
    *out += "# X12 — sharded scaling (conservative-lookahead windows, 1k..100k hosts)\n";
    if smoke {
        *out += "# smoke mode: reduced sweep\n";
    }

    // Part 1: schedule/pop micro comparison, min of three runs each.
    let micro_n = if smoke {
        MICRO_EVENTS / 10
    } else {
        MICRO_EVENTS
    };
    let offsets = micro_schedule(micro_n);
    let wheel_ns = (0..3)
        .map(|_| micro_wheel_ns(&offsets))
        .fold(f64::INFINITY, f64::min);
    let heap_ns = (0..3)
        .map(|_| micro_heap_ns(&offsets))
        .fold(f64::INFINITY, f64::min);
    *out += &format!("\n## schedule/pop round trip ({micro_n} events, depth {MICRO_DEPTH})\n");
    *out += &format!("  timer wheel   | {wheel_ns:6.1} ns/event\n");
    *out += &format!("  heap + boxes  | {heap_ns:6.1} ns/event\n");
    assert!(
        wheel_ns <= heap_ns,
        "the wheel ({wheel_ns:.1} ns) must not be slower than the heap \
         baseline it replaced ({heap_ns:.1} ns)"
    );

    // Part 2: collective-heavy scaling sweep through the full ATM stack,
    // once per green-thread engine. The coroutine engine is the product
    // configuration; the parked-OS-thread fallback supplies the "before"
    // rows for the engine switch.
    let host_counts: &[usize] = if smoke {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };
    let rounds: u32 = if smoke { 1 } else { 4 };
    // Coroutine rows first: the product configuration.
    let [points, os_points] = [
        (EngineKind::Coroutine, "coroutine"),
        (EngineKind::OsThread, "os-thread"),
    ]
    .map(|(engine, label)| {
        *out += &format!(
            "\n## collective gather+broadcast, {MSG_BYTES}-byte messages, \
             {rounds} round(s), {label} engine\n"
        );
        let mut points = Vec::new();
        for &hosts in host_counts {
            let p = run_collective(hosts, rounds, engine);
            let (resumes, callbacks) = p.events_per_message();
            *out += &format!("  {:3} hosts | {:8} ev | {:5.2} ev/msg = {:5.2} resumes + {:4.2} callbacks | {:9.6}s virtual | {:6.3}s wall | {:9.0} ev/s | peak q {:5} | gauge peak {:5} ({} samples)\n",
                p.hosts,
                p.events,
                resumes + callbacks,
                resumes,
                callbacks,
                p.virtual_s,
                p.wall_s,
                p.events_per_sec,
                p.peak_queue_depth,
                p.gauge_peak,
                p.gauge_samples,
            );
            assert!(
                p.gauge_samples > 0,
                "queue-depth sampler never fired at {hosts} hosts"
            );
            assert_eq!(
                p.gauge_peak as usize, p.peak_queue_depth,
                "the queue-depth gauge's peak must agree exactly with the \
                 kernel's high-water mark (the sampler reads Sim::queue_depth)"
            );
            points.push(p);
        }
        points
    });

    *out += "\n## engine switch: ns/event, os-thread -> coroutine\n";
    for (c, o) in points.iter().zip(os_points.iter()) {
        *out += &format!(
            "  {:3} hosts | {:8.1} -> {:6.1} ns/event | {:4.1}x\n",
            c.hosts,
            o.ns_per_event(),
            c.ns_per_event(),
            o.ns_per_event() / c.ns_per_event(),
        );
    }

    // Part 3: the X12 sharded sweep — host counts × shard counts on the
    // windowed multi-worker harness, digests asserted shard-count-invariant.
    let shard_hosts: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let shard_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let shard_rounds: u32 = if smoke { 2 } else { 4 };
    let shard_points = run_shard_sweep(out, shard_hosts, shard_counts, shard_rounds);

    if opts.guard {
        run_guard(out, &points, &shard_points, wheel_ns);
    }

    let mut doc = JsonDoc::new("BENCH_kernel", "xp_scale", smoke);
    doc.line(&[(
        "micro",
        &obj(&[
            ("events", &micro_n),
            ("depth", &MICRO_DEPTH),
            ("wheel_ns_per_event", &fixed(wheel_ns, 2)),
            ("heap_ns_per_event", &fixed(heap_ns, 2)),
        ]),
    )]);
    for (key, pts) in [("scaling", &points), ("scaling_os_thread", &os_points)] {
        doc.rows(
            key,
            pts.iter().map(|p| {
                let (resumes_per_message, callbacks_per_message) = p.events_per_message();
                obj(&[
                    ("hosts", &p.hosts),
                    ("rounds", &p.rounds),
                    ("msg_bytes", &MSG_BYTES),
                    ("events", &p.events),
                    ("resumes", &p.resumes),
                    ("messages", &p.messages()),
                    ("resumes_per_message", &fixed(resumes_per_message, 3)),
                    ("callbacks_per_message", &fixed(callbacks_per_message, 3)),
                    ("virtual_s", &fixed(p.virtual_s, 9)),
                    ("wall_s", &fixed(p.wall_s, 6)),
                    ("events_per_sec", &fixed(p.events_per_sec, 0)),
                    ("ns_per_event", &fixed(p.ns_per_event(), 1)),
                    ("ns_per_message", &fixed(p.ns_per_message(), 1)),
                    ("peak_queue_depth", &p.peak_queue_depth),
                    ("queue_depth_gauge_peak", &p.gauge_peak),
                    ("queue_depth_samples", &p.gauge_samples),
                ])
            }),
        );
    }
    doc.rows(
        "engine_speedup",
        points.iter().zip(os_points.iter()).map(|(c, o)| {
            obj(&[
                ("hosts", &c.hosts),
                ("os_thread_ns_per_event", &fixed(o.ns_per_event(), 1)),
                ("coroutine_ns_per_event", &fixed(c.ns_per_event(), 1)),
                ("speedup", &fixed(o.ns_per_event() / c.ns_per_event(), 2)),
            ])
        }),
    );
    doc.line(&[("worker_cpus", &worker_cpus())]);
    let hex = |digest: u64| format!("\"{digest:#018x}\"");
    doc.rows(
        "sharded",
        shard_points.iter().map(|p| {
            obj(&[
                ("hosts", &p.hosts),
                ("shards", &p.shards),
                ("rounds", &p.rounds),
                ("msg_bytes", &MSG_BYTES),
                ("work_iters", &SHARD_WORK),
                ("delivered", &p.delivered),
                ("events", &p.events),
                ("merged_events", &p.merged_events),
                ("windows", &p.windows),
                ("wall_s", &fixed(p.wall_s, 6)),
                ("events_per_sec", &fixed(p.events_per_sec(), 0)),
                ("ns_per_event", &fixed(p.ns_per_event(), 1)),
                ("speedup_vs_1shard", &fixed(p.speedup, 3)),
                ("merged_trace_hash", &hex(p.merged_hash)),
                ("delivery_digest", &hex(p.delivery_digest)),
            ])
        }),
    );
    Some(doc)
}
