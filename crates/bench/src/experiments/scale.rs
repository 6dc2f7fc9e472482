//! Extension experiment **X10**: event-kernel scaling.
//!
//! Two questions about the event kernel:
//!
//! 1. **Micro** — what does one schedule/pop round trip cost on the
//!    kernel's event queue (a pooled binary heap) held at a fixed depth?
//!    It is also `--guard`'s normaliser.
//! 2. **Macro** — how does the full ATM stack scale from 16 to 256
//!    hosts under a collective-heavy workload (gather + broadcast
//!    rounds of small messages, the per-message-overhead regime where
//!    the paper's NCS wins)? Reports kernel events per message split into
//!    green-thread resumes and callbacks ([`ncs_sim::RunOutcome::resumes`])
//!    and the kernel's peak queue depth, sampled
//!    into the `kernel.queue_depth` gauge: counts, which repeat to the
//!    digit. A sweep row times nothing, since one run of a shape lasts
//!    2–22 ms and one sample of it is no measurement; `--guard`'s
//!    interleaved medians are the wall-time evidence. The sweep runs on
//!    **both green-thread engines** — the coroutine default and the
//!    parked-OS-thread fallback it replaced — so the JSON carries the
//!    before/after ns/event rows for the engine switch. The JSON records
//!    `worker_cpus` (`std::thread::available_parallelism`) beside them.
//!    Every sweep run keeps its causal timelines
//!    (`MetricsRegistry::keep_timelines`), so the guard's stamp and byte
//!    rows count a whole run.
//!
//! Its report is the `BENCH_kernel.json` document (`xp` writes it under
//! `results/`).
//!
//! ```text
//! cargo run --release -p ncs-bench -- scale [--smoke] [--guard]
//! ```
//!
//! `--guard` is the CI perf-regression gate: it compares this machine's
//! *normalized* cost per message — a coroutine-engine shape's wall ns per
//! collective message divided by a queue micro's ns/event taken right
//! before it, cancelling out raw machine speed — against the checked-in
//! baseline (`crates/bench/baselines/xp_scale_guard.txt`) and fails if any
//! point regressed by more than 15%. Each point is the median of five such
//! ratios, the guarded shapes taking turns, so a single noisy sample on
//! either side of the ratio cannot fail it. Per *message*, not per event:
//! the events a change removes are usually the cheap ones, so ns/event
//! rises while the run gets faster. The event count itself repeats to the digit, and so does
//! the number of causal-timeline stamps a run that keeps them retains and
//! the bytes they hold, so the baseline's `events <hosts> <rounds>
//! <count>`, `stamps <hosts> <rounds> <count>` and `tl_bytes <hosts>
//! <rounds> <bytes>` rows are held exactly, with no tolerance: a new stage
//! or a fatter timeline format fails there without any RSS measurement.
//! So is `tl_open <hosts> <rounds> <bytes>`, the timeline bytes of the
//! same shape run as the default registry runs it, freeing each timeline
//! at delivery: set by the messages in flight at once, the same at one
//! round as at four.

use super::{Opts, WORKER_CPUS};
use crate::{Col, Report};
use bytes::Bytes;
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::Testbed;
use ncs_sim::wheel::TimerWheel;
use ncs_sim::{Dur, EngineKind, Sim, SimRng};
use std::hint::black_box;
// Wall-clock reads below measure the *simulator's* real execution speed
// (events per host second); they never touch virtual time.
use std::time::Instant; // ncs-lint: allow(wall-clock)

/// Bytes per collective message: small enough that per-message software
/// overhead, not wire time, dominates — the regime the kernel rewrite
/// targets.
const MSG_BYTES: usize = 512;

/// Events in the micro schedule/pop round trip.
const MICRO_EVENTS: usize = 200_000;
/// Pending events held during the micro steady-state phase.
const MICRO_DEPTH: usize = 8_192;

/// The operation sequence the micro replays: a ramp to
/// `MICRO_DEPTH` pending events, then a steady-state pop-one/push-one
/// phase (the kernel's actual regime), then a full drain. Times are
/// pseudo-random offsets, from the same instant to 2^26 units ahead.
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

/// ns/event on the event queue (pooled records, no per-event allocation).
fn micro_queue_ns(offsets: &[u64]) -> f64 {
    let t0 = Instant::now(); // ncs-lint: allow(wall-clock)
    let mut queue: TimerWheel<u64> = TimerWheel::new();
    let mut now = 0u64;
    let mut sum = 0u64;
    for (seq, &dt) in offsets.iter().enumerate() {
        if queue.len() >= MICRO_DEPTH {
            let (t, _, v) = queue.pop().expect("non-empty");
            now = now.max(t);
            sum = sum.wrapping_add(v);
        }
        queue.push(now + dt, seq as u64, dt);
    }
    while let Some((_, _, v)) = queue.pop() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e9 / offsets.len() as f64
}

/// The micro: events replayed, then the queue's ns/event.
const MICRO: &[Col<(usize, f64)>] = &[
    Col::int("micro.events", "events", |m| m.0 as u64),
    Col::int("micro.depth", "depth", |_| MICRO_DEPTH as u64),
    Col::fixed("micro.wheel_ns_per_event", "queue ns/ev", 2, |m| m.1),
];

/// Self-rearming sampler feeding the `kernel.queue_depth` gauge. Records
/// [`Sim::queue_depth`] — pending events *plus* the in-flight one — which
/// is the quantity the kernel's `peak_queue_depth` high-water mark tracks;
/// sampling `pending_events()` here was the historical off-by-one (gauge
/// peak 64 vs kernel peak 65: the sampler's own one-event footprint went
/// uncounted). At arm time (called synchronously before `run()`) nothing
/// is in flight yet and the about-to-be-pushed first sampler event plays
/// that role instead — add it back so both call positions count the
/// footprint exactly once, same as the queue's peak counter sees it.
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
    peak_queue_depth: usize,
    gauge_samples: usize,
    gauge_peak: i64,
    /// Causal-timeline stamps the registry retains after the run (none
    /// unless it keeps them).
    stamps: u64,
    /// Bytes the registry's timelines hold after the run, by capacity.
    tl_bytes: u64,
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

/// One point of the collective sweep (an empty header: JSON only).
const SCALING: &[Col<ScalePoint>] = &[
    Col::int("hosts", "hosts", |p| p.hosts as u64),
    Col::int("rounds", "rounds", |p| u64::from(p.rounds)),
    Col::int("msg_bytes", "msg B", |_| MSG_BYTES as u64),
    Col::int("events", "events", |p| p.events),
    Col::int("resumes", "", |p| p.resumes),
    Col::int("messages", "msgs", ScalePoint::messages),
    Col::fixed("resumes_per_message", "resumes/msg", 3, |p| {
        p.events_per_message().0
    }),
    Col::fixed("callbacks_per_message", "callbacks/msg", 3, |p| {
        p.events_per_message().1
    }),
    Col::fixed("virtual_s", "virtual s", 9, |p| p.virtual_s),
    Col::int("peak_queue_depth", "peak q", |p| p.peak_queue_depth as u64),
    Col::int("queue_depth_gauge_peak", "gauge peak", |p| {
        p.gauge_peak as u64
    }),
    Col::int("queue_depth_samples", "gauge samples", |p| {
        p.gauge_samples as u64
    }),
];

/// The engine switch at one host count: hosts, then ns/event on the
/// os-thread and on the coroutine engine.
const ENGINE_SPEEDUP: &[Col<(usize, f64, f64)>] = &[
    Col::int("hosts", "hosts", |e| e.0 as u64),
    Col::fixed("os_thread_ns_per_event", "os-thread ns/ev", 1, |e| e.1),
    Col::fixed("coroutine_ns_per_event", "coroutine ns/ev", 1, |e| e.2),
    Col::fixed("speedup", "speedup", 2, |e| e.1 / e.2),
];

/// The collective: `rounds` iterations of gather-to-root (every worker
/// sends to proc 0) followed by a root broadcast, all through the full
/// ATM HSM stack, on the requested green-thread engine, its registry
/// keeping its timelines if `keep`.
fn run_collective(hosts: usize, rounds: u32, engine: EngineKind, keep: bool) -> ScalePoint {
    let sim = Sim::with_engine(engine);
    if keep {
        sim.with_metrics(|m| m.keep_timelines());
    }
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
    let (gauge_samples, gauge_peak, stamps, tl_bytes) = sim.with_metrics(|m| {
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
        (samples, peak, stamps, m.timeline_bytes() as u64)
    });
    let point = ScalePoint {
        hosts,
        rounds,
        events: out.events,
        resumes: out.resumes,
        virtual_s: out.end_time.as_secs_f64(),
        wall_s,
        peak_queue_depth: sim.peak_queue_depth(),
        gauge_samples,
        gauge_peak,
        stamps,
        tl_bytes,
    };
    sim.finish();
    point
}

/// The checked-in normalized-cost baseline consumed by `--guard`, and the
/// path it is compiled in from.
const GUARD_BASELINE: &str = "crates/bench/baselines/xp_scale_guard.txt";
const GUARD_BASELINE_TEXT: &str = include_str!("../../baselines/xp_scale_guard.txt");
/// Allowed regression over the baseline's normalized cost per message.
const GUARD_HEADROOM: f64 = 1.15;
/// Interleaved (queue micro, shape) samples behind each wall row; the row
/// gates their median, so one noisy sample on either side cannot fail it.
const GUARD_SAMPLES: usize = 5;

/// `--guard`: machine-normalized perf-regression gate. Each guarded shape
/// — a coroutine-engine collective point with a baseline row — is sampled
/// [`GUARD_SAMPLES`] times, each sample a fresh queue micro (`offsets`)
/// right before a fresh run of the shape's `ns_per_message`, the shapes
/// taking turns; the median of the sample ratios is compared against the
/// checked-in baseline for the same `<hosts> <rounds>` row, so raw machine
/// speed divides out and the gate travels across CI runners. Fails (exits
/// non-zero via panic) past 15% regression, and on any difference at all
/// from an `events <hosts> <rounds>`, `stamps <hosts> <rounds>`,
/// `tl_bytes <hosts> <rounds>` or `tl_open <hosts> <rounds>` row: event
/// and stamp counts and the bytes the timelines hold are deterministic, so
/// the sweep's own `points` answer the first three, and one run of the
/// shape that frees its timelines answers the last.
fn run_guard(out: &mut Report, points: &[ScalePoint], offsets: &[u64]) {
    // Baseline rows: a shape (single-spaced), then its ratio.
    let baseline: Vec<(String, f64)> = GUARD_BASELINE_TEXT
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            match words.pop().map(str::parse) {
                Some(Ok(ratio)) if matches!(words.len(), 2..=3) => (words.join(" "), ratio),
                _ => panic!("--guard: malformed baseline line: {line:?}"),
            }
        })
        .collect();
    let base_of = |shape: &str| {
        baseline
            .iter()
            .find(|(known, _)| known == shape)
            .map(|&(_, base)| base)
    };
    out.note(format!(
        "## perf-regression guard (normalized vs {GUARD_BASELINE})\n"
    ));
    // The exact rows first: a difference there is the code, never noise.
    for p in points {
        let open = run_collective(p.hosts, p.rounds, EngineKind::Coroutine, false);
        let exact = [
            ("events", p.events),
            ("stamps", p.stamps),
            ("tl_bytes", p.tl_bytes),
            ("tl_open", open.tl_bytes),
        ];
        for (kind, count) in exact {
            let Some(base) = base_of(&format!("{kind} {} {}", p.hosts, p.rounds)) else {
                continue;
            };
            let base = base as u64;
            let verdict = if count == base { "ok" } else { "FAIL" };
            out.note(format!(
                "  {:3} hosts | {count:7} {kind} | baseline {base:7} | {:5.2} per message | {verdict}\n",
                p.hosts,
                count as f64 / p.messages() as f64,
            ));
            assert!(
                count == base,
                "{kind} count at {} hosts moved: {count} against the baseline's {base} — {kind} \
                 counts repeat to the digit, so this is the code; re-baseline if it is meant",
                p.hosts,
            );
        }
    }
    // The wall rows: every measured shape the baseline has a ratio for.
    let rows: Vec<(&ScalePoint, f64)> = points
        .iter()
        .filter_map(|p| Some((p, base_of(&format!("{} {}", p.hosts, p.rounds))?)))
        .collect();
    assert!(
        !rows.is_empty(),
        "--guard: no baseline entry matched the measured sweep shape"
    );
    let mut ratios = vec![Vec::with_capacity(GUARD_SAMPLES); rows.len()];
    for _ in 0..GUARD_SAMPLES {
        for ((p, _), samples) in rows.iter().zip(&mut ratios) {
            let queue_ns = micro_queue_ns(offsets);
            let run = run_collective(p.hosts, p.rounds, EngineKind::Coroutine, true);
            samples.push(run.ns_per_message() / queue_ns);
        }
    }
    // Every row is printed before any fails, so one run shows them all.
    let mut regressed = Vec::new();
    for ((p, base), mut samples) in rows.iter().zip(ratios) {
        samples.sort_by(f64::total_cmp);
        let (ratio, limit) = (samples[GUARD_SAMPLES / 2], base * GUARD_HEADROOM);
        let verdict = if ratio <= limit { "ok" } else { "FAIL" };
        out.note(format!(
            "  {:3} hosts | median ratio {ratio:7.2} ({:.2}..{:.2}) | baseline {base:7.2} | limit {limit:7.2} | {verdict}\n",
            p.hosts,
            samples[0],
            samples[GUARD_SAMPLES - 1],
        ));
        if ratio > limit {
            regressed.push(format!("{} hosts ({ratio:.2} > {limit:.2})", p.hosts));
        }
    }
    assert!(
        regressed.is_empty(),
        "wall time regressed: the median normalized cost of {GUARD_SAMPLES} samples exceeds \
         the baseline by more than {:.0}% at {}",
        (GUARD_HEADROOM - 1.0) * 100.0,
        regressed.join(", ")
    );
}

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let smoke = opts.smoke;
    out.note("# X10 — event-kernel scaling (16..256 hosts)\n");
    if smoke {
        out.note("# smoke mode: reduced sweep\n");
    }

    // Part 1: the queue's schedule/pop round trip, min of three runs.
    let micro_n = if smoke {
        MICRO_EVENTS / 10
    } else {
        MICRO_EVENTS
    };
    let offsets = micro_schedule(micro_n);
    let queue_ns = (0..3)
        .map(|_| micro_queue_ns(&offsets))
        .fold(f64::INFINITY, f64::min);
    out.bench = Some("BENCH_kernel");
    out.note("\n## schedule/pop round trip\n");
    out.record(MICRO, &(micro_n, queue_ns));

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
        (EngineKind::Coroutine, "coroutine", "scaling"),
        (EngineKind::OsThread, "os-thread", "scaling_os_thread"),
    ]
    .map(|(engine, label, key)| {
        out.note(format!(
            "## collective gather+broadcast through the HSM stack, {label} engine\n"
        ));
        let table = out.table(key, SCALING);
        let mut points = Vec::new();
        for &hosts in host_counts {
            let p = run_collective(hosts, rounds, engine, true);
            out.row(&table, &p);
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

    out.note("## engine switch: ns/event, os-thread -> coroutine\n");
    let table = out.table("engine_speedup", ENGINE_SPEEDUP);
    for (c, o) in points.iter().zip(os_points.iter()) {
        out.row(&table, &(c.hosts, o.ns_per_event(), c.ns_per_event()));
    }

    out.record(WORKER_CPUS, &());

    if opts.guard {
        run_guard(out, &points, &offsets);
    }
}
