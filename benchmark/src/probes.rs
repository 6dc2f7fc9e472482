//! Micro-probes: each times one layer's public functions alone, in this
//! process, after a warm-up pass, for at least [`PROBE_SECONDS`]. They give
//! the per-operation costs the traced run multiplies by the workload's exact
//! counts to say how much of `wall_s` a layer can account for.

use bytes::Bytes;
use ncs_apps::fft::{fft, FftConfig};
use ncs_apps::jpeg_dist::{reference_pipeline_with, JpegConfig};
use ncs_apps::matmul::{multiply, MatmulConfig};
use ncs_apps::workloads::{test_signal, GrayImage, Matrix};
use ncs_mts::{Mts, MtsConfig};
use ncs_net::{aal5, crc, BlockingWait, Network, NodeId, Testbed};
use ncs_sim::wheel::TimerWheel;
use ncs_sim::{Dur, EngineKind, MetricsRegistry, Sim, SimRng, SimTime, DEFAULT_STACK_BYTES};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::workloads::{paper_grid, App};

const PROBE_SECONDS: f64 = 0.2;

/// Runs `batch` once to warm up, then repeatedly for [`PROBE_SECONDS`];
/// `batch` returns how many operations it performed. Nanoseconds per
/// operation.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let budget = Duration::from_secs_f64(PROBE_SECONDS);
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < budget {
        ops += batch();
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

fn coro_sim() -> Sim {
    Sim::with_engine_and_stack(EngineKind::Coroutine, DEFAULT_STACK_BYTES)
}

fn run_clean(sim: &Sim) {
    sim.run().assert_clean();
    sim.finish();
}

/// `TimerWheel` pop + push held at `depth` pending events, the kernel's
/// steady-state regime, with offsets spanning many wheel epochs.
pub fn wheel_ns_per_op(depth: usize) -> f64 {
    let mut rng = SimRng::new(42);
    let offsets: Vec<u64> = (0..1 << 16)
        .map(|_| match rng.gen_index(4) {
            0 => 0,
            1 => rng.gen_range(1 << 14),
            2 => rng.gen_range(1 << 20),
            _ => rng.gen_range(1 << 26),
        })
        .collect();
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    for &dt in offsets.iter().cycle().take(depth.max(1)) {
        wheel.push(now + dt, seq, dt);
        seq += 1;
    }
    ns_per_op(|| {
        let mut sum = 0u64;
        for &dt in &offsets {
            let (t, _, v) = wheel.pop().expect("wheel held at depth");
            now = now.max(t);
            sum = sum.wrapping_add(v);
            wheel.push(now + dt, seq, dt);
            seq += 1;
        }
        black_box(sum);
        offsets.len() as u64
    })
}

/// Pending events (and runnable threads) the event and yield probes hold,
/// so the two differ only in what an event does.
const PROBE_DEPTH: u64 = 64;

fn rearm(sim: &Sim, left: u64) {
    if left > 0 {
        sim.schedule_in(Dur::from_nanos(1 + left % 7), move |s| rearm(s, left - 1));
    }
}

/// One closure event: `schedule_in` plus its turn in `run()`, with
/// [`PROBE_DEPTH`] self-rearming chains pending.
pub fn event_ns() -> f64 {
    const PER_CHAIN: u64 = 1_000;
    ns_per_op(|| {
        let sim = coro_sim();
        for _ in 0..PROBE_DEPTH {
            rearm(&sim, PER_CHAIN);
        }
        run_clean(&sim);
        PROBE_DEPTH * PER_CHAIN
    })
}

/// One `yield_now` among [`PROBE_DEPTH`] green threads: a resume event plus
/// a switch into the thread and back out.
pub fn yield_ns() -> f64 {
    const YIELDS: u64 = 1_000;
    ns_per_op(|| {
        let sim = coro_sim();
        for i in 0..PROBE_DEPTH {
            sim.spawn(format!("t{i}"), |ctx| {
                for _ in 0..YIELDS {
                    ctx.yield_now();
                }
            });
        }
        run_clean(&sim);
        PROBE_DEPTH * YIELDS
    })
}

/// One green thread from `spawn` through its exit to `finish`.
pub fn spawn_ns() -> f64 {
    const THREADS: u64 = 10_000;
    ns_per_op(|| {
        let sim = coro_sim();
        for i in 0..THREADS {
            sim.spawn(format!("t{i}"), |_| {});
        }
        run_clean(&sim);
        THREADS
    })
}

/// One `inc` / `observe` / `mark` against a registry that holds the
/// workload's counter and histogram names and as many timelines as the
/// workload retained.
pub fn metrics_ns_per_op(counters: &[&'static str], stats: &[&'static str], timelines: u64) -> f64 {
    let mut m = MetricsRegistry::new();
    for &c in counters {
        m.inc(c, 1);
    }
    for &s in stats {
        m.observe(s, Dur::from_micros(1));
    }
    let timelines = timelines.max(1);
    for _ in 0..timelines {
        let c = m.next_causal();
        m.mark(c, "enqueued", SimTime::ZERO);
    }
    let counters = if counters.is_empty() {
        &["probe.counter"][..]
    } else {
        counters
    };
    let stats = if stats.is_empty() {
        &["probe.stat"][..]
    } else {
        stats
    };
    let mut i = 0u64;
    ns_per_op(|| {
        const OPS: u64 = 30_000;
        for _ in 0..OPS / 3 {
            i += 1;
            m.inc(counters[i as usize % counters.len()], 1);
            m.observe(stats[i as usize % stats.len()], Dur::from_nanos(i % 4096));
            // A stride that is odd and large walks the timeline map the way
            // interleaved senders do, not in key order.
            let causal = 1 + i.wrapping_mul(0x9E37_79B1) % timelines;
            m.mark(causal, "delivered", SimTime::from_ps(i));
        }
        OPS
    })
}

/// One yield among [`PROBE_DEPTH`] equal-priority threads of one `Mts`,
/// with the modelled context-switch delay set to zero so a dispatch is
/// exactly one resume: what MTS adds is this minus [`yield_ns`].
pub fn mts_yield_ns() -> f64 {
    const THREADS: u64 = PROBE_DEPTH;
    const YIELDS: u64 = 500;
    ns_per_op(|| {
        let sim = coro_sim();
        let mts = Mts::new(
            &sim,
            "probe",
            MtsConfig {
                context_switch: Dur::ZERO,
                ..MtsConfig::default()
            },
        );
        for i in 0..THREADS {
            mts.spawn(format!("t{i}"), 5, |m| {
                for _ in 0..YIELDS {
                    m.yield_now();
                }
            });
        }
        sim.spawn("main", move |ctx| mts.start(ctx));
        run_clean(&sim);
        THREADS * YIELDS
    })
}

pub fn crc32_ns_per_byte() -> f64 {
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i * 131 + 17) as u8).collect();
    ns_per_op(|| {
        black_box(crc::crc32_aal5(black_box(&buf)));
        buf.len() as u64
    })
}

/// AAL5 `segment` + `reassemble` of one 9180-byte CS-PDU (the fault
/// model's PDU size), per payload byte.
pub fn aal5_ns_per_byte() -> f64 {
    let pdu: Vec<u8> = (0..9180).map(|i| (i * 31 + 7) as u8).collect();
    ns_per_op(|| {
        let cells = aal5::segment(black_box(&pdu), 0, 32).expect("PDU under the AAL5 ceiling");
        let back = aal5::reassemble(&cells).expect("undamaged cells reassemble");
        black_box(back.len());
        pdu.len() as u64
    })
}

pub fn hec_ns_per_cell() -> f64 {
    ns_per_op(|| {
        const CELLS: u32 = 100_000;
        let mut acc = 0u8;
        for i in 0..CELLS {
            acc ^= crc::hec(black_box(&i.to_le_bytes()));
        }
        black_box(acc);
        u64::from(CELLS)
    })
}

/// Wall nanoseconds per message of a bare `Network::send` ->
/// `inbox.recv` stream between two plain simulation threads: the transport
/// with no MPS or MTS above it.
fn raw_stream_ns_per_msg(build: impl Fn() -> Arc<dyn Network>, msgs: u64, bytes: usize) -> f64 {
    let payload = Bytes::from(vec![0x5Au8; bytes]);
    ns_per_op(|| {
        let sim = coro_sim();
        let net = build();
        let tx = Arc::clone(&net);
        let data = payload.clone();
        sim.spawn("tx", move |ctx| {
            for i in 0..msgs {
                tx.send(ctx, &BlockingWait, NodeId(0), NodeId(1), i, data.clone());
            }
        });
        sim.spawn("rx", move |ctx| {
            let inbox = net.inbox(NodeId(1));
            for _ in 0..msgs {
                let m = inbox.recv(ctx).expect("inbox stays open");
                assert_eq!(m.payload.len(), bytes);
            }
        });
        run_clean(&sim);
        msgs
    })
}

pub fn raw_hsm_us_per_msg() -> f64 {
    raw_stream_ns_per_msg(|| Testbed::SunAtmLanApi.build(2), 2_000, 512) / 1e3
}

pub fn raw_hsm_ns_per_byte() -> f64 {
    const BYTES: usize = 1024 * 1024;
    raw_stream_ns_per_msg(|| Testbed::SunAtmLanApi.build(2), 8, BYTES) / BYTES as f64
}

pub fn raw_nsm_us_per_msg() -> f64 {
    raw_stream_ns_per_msg(|| Testbed::SunAtmLanTcp.build(2), 2_000, 512) / 1e3
}

/// Wall seconds of the sequential kernels alone, once per run of the
/// `paper_apps` grid (each run, p4 or NCS, performs the row's whole
/// computation once, spread over its nodes): how much of that workload's
/// `wall_s` is arithmetic and not simulator.
pub fn apps_kernel_wall_s(matmul_seed: u64, jpeg_seed: u64, fft_seed: u64) -> f64 {
    let m_cfg = MatmulConfig::paper(1);
    let mut rng = SimRng::new(matmul_seed);
    let a = Matrix::random(m_cfg.dim, m_cfg.dim, &mut rng);
    let b = Matrix::random(m_cfg.dim, m_cfg.dim, &mut rng);
    let j_cfg = JpegConfig::paper(2);
    let img = GrayImage::synthetic(j_cfg.width, j_cfg.height, &mut SimRng::new(jpeg_seed));
    let f_cfg = FftConfig::paper(1);
    let mut rng = SimRng::new(fft_seed);
    let sets: Vec<Vec<(f64, f64)>> = (0..f_cfg.sets)
        .map(|_| test_signal(f_cfg.m, &mut rng))
        .collect();

    let grid = paper_grid();
    let pass = || {
        for cell in &grid {
            for _variant in 0..2 {
                match cell.app {
                    App::Matmul => {
                        black_box(multiply(&a, &b));
                    }
                    App::Jpeg => {
                        black_box(reference_pipeline_with(
                            &img,
                            cell.paper.nodes / 2,
                            j_cfg.quality,
                            j_cfg.entropy,
                        ));
                    }
                    App::Fft => {
                        for s in &sets {
                            black_box(fft(s));
                        }
                    }
                }
            }
        }
        1
    };
    ns_per_op(pass) / 1e9
}
