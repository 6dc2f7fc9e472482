//! Extension experiment **X8**: the pipelined Approach-2 data path.
//!
//! Three questions about the multiple-I/O-buffer design of the paper's
//! Figure 2, now that large messages stream through a pool of buffer-sized
//! CS-PDUs instead of one monolithic AAL5 PDU:
//!
//! 1. **Event economy** — the data path books and delivers a buffer's
//!    worth of cells (a cell train) at a time, so a bulk transfer costs a
//!    handful of simulator events. The baseline it is compared against
//!    lives here, not in the system: a data path that paid one event per
//!    53-byte cell would cost, by definition, the measured events plus the
//!    cells carried (`atm.cells`). Both are reported per megabyte (the
//!    acceptance bar is a ≥2× reduction at 64 KiB and above).
//! 2. **Buffer sweep** — the same bulk transfer with 1, 2, 4 and 8 I/O
//!    buffers in flight: with one buffer every chunk waits out the
//!    acknowledgment round trip; a deeper pool overlaps them.
//! 3. **Applications** — matmul, JPEG and FFT run with buffers small
//!    enough that their real traffic is chunked, with the protocol
//!    invariants armed; results must stay bit-exact.
//! 4. **Byte path** — host nanoseconds per byte of the CRC-32 kernel and
//!    of one error-control wrap + unwrap, at 512 B, 4 KiB and 16 KiB,
//!    against the bit-serial CRC and staging-buffer framing they replaced
//!    (the acceptance bar is ≥5× on the kernel at every size and on the
//!    frame from 4 KiB up). These are wall-clock numbers, so `worker_cpus`
//!    is recorded beside them.
//!
//! Its report is the `BENCH_pipeline.json` document (`xp` writes it under
//! `results/`).
//!
//! ```text
//! cargo run --release -p ncs-bench -- pipeline [--smoke]
//! ```

use super::{Opts, SmallApp, WORKER_CPUS};
use crate::{min_ns_per_call, Col, Report};
use bytes::Bytes;
use ncs_apps::run_app;
use ncs_core::env::{unwrap_checked, wrap_checked};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::crc::crc32_aal5;
use ncs_net::stack::BlockingWait;
use ncs_net::{NodeId, Testbed};
use ncs_sim::{AnalysisConfig, Dur, Sim};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Raw one-shot transfer at the transport layer: how many simulator events
/// does moving `bytes` from node 0 to node 1 cost, and how many cells did
/// it carry? No NCS machinery on top, so the counts isolate the data path
/// itself.
fn raw_transfer_events(bytes: usize) -> (u64, u64) {
    let sim = Sim::new();
    let net = Testbed::SunAtmLanApi.build(2);
    let tx = Arc::clone(&net);
    let payload = Bytes::from(vec![0x5Au8; bytes]);
    sim.spawn("tx", move |ctx| {
        tx.send(ctx, &BlockingWait, NodeId(0), NodeId(1), 1, payload);
    });
    sim.spawn("rx", move |ctx| {
        let m = net.inbox(NodeId(1)).recv(ctx).unwrap();
        assert_eq!(m.payload.len(), bytes);
    });
    let out = sim.run();
    out.assert_clean();
    (out.events, sim.with_tracer(|tr| tr.counter("atm.cells")))
}

/// One rung of the buffer sweep: elapsed time, kernel events and chunk
/// count for an NCS transfer of `bytes` with `io_buffers` in flight.
struct SweepPoint {
    bytes: usize,
    io_buffers: u32,
    elapsed: Dur,
    events: u64,
    chunks: u64,
}

/// Full-path NCS transfer over the HSM stack with the protocol invariants
/// armed; panics on any violation or byte mismatch. Elapsed is the virtual
/// time at which the receiving thread held the reassembled message (the
/// run's `end_time` would instead measure the last chunk's trailing
/// retransmission timer).
fn ncs_transfer(bytes: usize, io_buffers: u32) -> SweepPoint {
    use ncs_sim::sync::Mutex;
    use ncs_sim::SimTime;
    let (analysis, sink) = AnalysisConfig::recording();
    let sim = Sim::new();
    let net = Testbed::SunAtmLanApi.build(2);
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        io_buffers,
        analysis,
        ..NcsConfig::default()
    };
    let payload: Vec<u8> = (0..bytes).map(|i| (i * 131 + 17) as u8).collect();
    let sent = Bytes::from(payload.clone());
    let delivered_at = Arc::new(Mutex::new(SimTime::ZERO));
    let da = Arc::clone(&delivered_at);
    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let sent = sent.clone();
        let expect = payload.clone();
        let da = Arc::clone(&da);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                ncs.send(ThreadAddr::new(1, 0), 1, sent.clone());
            } else {
                let m = ncs.recv(Some(0), None, Some(1));
                assert_eq!(&m.data[..], &expect[..], "transfer mangled bytes");
                *da.lock() = ncs.ctx().now();
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    let violations = sink.take();
    assert!(violations.is_empty(), "{violations:?}");
    let (_, chunks, _) = world.procs()[0].pipeline_stats();
    let elapsed = delivered_at.lock().since(SimTime::ZERO);
    SweepPoint {
        bytes,
        io_buffers,
        elapsed,
        events: out.events,
        chunks,
    }
}

/// Application outcome with invariants armed and traffic forced through
/// the chunked path (1 KiB I/O buffers).
struct AppPoint {
    app: &'static str,
    elapsed: Dur,
    verified: bool,
}

fn app_cfg(analysis: AnalysisConfig) -> NcsConfig {
    NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        io_buffer_bytes: 1024,
        analysis,
        ..NcsConfig::default()
    }
}

fn run_apps() -> Vec<AppPoint> {
    [
        SmallApp::Matmul { nodes: 2 },
        SmallApp::Jpeg,
        SmallApp::Fft { sets: 1 },
    ]
    .into_iter()
    .map(|app| {
        let (analysis, sink) = AnalysisConfig::recording();
        let net = Testbed::SunAtmLanApi.build(app.hosts());
        let (run, _) = run_app(&Sim::new(), |sim| app.stage(sim, net, app_cfg(analysis)));
        let violations = sink.take();
        assert!(violations.is_empty(), "{}: {violations:?}", app.name());
        AppPoint {
            app: app.name(),
            elapsed: run.elapsed,
            verified: run.verified,
        }
    })
    .collect()
}

/// The checked byte path as it stood before the table-driven CRC: the
/// bit-serial CRC-32 and the framing that staged `seq ‖ data` in a scratch
/// buffer to checksum it. This is the "before" side of the `byte_path`
/// rows — a measuring stick, cross-checked against the live code on every
/// run — not a second implementation anything else may call.
mod seed_byte_path {
    use bytes::Bytes;

    pub(crate) fn crc32(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte) << 24;
            for _ in 0..8 {
                crc = if crc & 0x8000_0000 != 0 {
                    (crc << 1) ^ 0x04C1_1DB7
                } else {
                    crc << 1
                };
            }
        }
        !crc
    }

    pub(crate) fn wrap(seq: u32, data: &[u8]) -> Bytes {
        let mut v = Vec::with_capacity(8 + data.len());
        v.extend_from_slice(&seq.to_le_bytes());
        let mut staged = Vec::with_capacity(4 + data.len());
        staged.extend_from_slice(&seq.to_le_bytes());
        staged.extend_from_slice(data);
        v.extend_from_slice(&crc32(&staged).to_le_bytes());
        v.extend_from_slice(data);
        Bytes::from(v)
    }

    pub(crate) fn unwrap(b: &Bytes) -> Option<(u32, Bytes)> {
        let seq = u32::from_le_bytes(b[..4].try_into().ok()?);
        let crc = u32::from_le_bytes(b[4..8].try_into().ok()?);
        let mut staged = Vec::with_capacity(b.len() - 4);
        staged.extend_from_slice(&b[..4]);
        staged.extend_from_slice(&b[8..]);
        (crc32(&staged) == crc).then(|| (seq, b.slice(8..)))
    }
}

/// Host nanoseconds per byte of `before` and of `after` over a
/// `bytes`-byte input: each side's minimum over seven timed batches of at
/// least `budget`, the two sides taking turns so that a slow stretch of the
/// machine falls on both and neither minimum comes from one sample.
fn ns_per_byte_pair(
    bytes: usize,
    budget: Duration,
    mut before: impl FnMut(),
    mut after: impl FnMut(),
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        best.0 = best.0.min(min_ns_per_call(1, budget, &mut before));
        best.1 = best.1.min(min_ns_per_call(1, budget, &mut after));
    }
    (best.0 / bytes as f64, best.1 / bytes as f64)
}

/// One `byte_path` row: ns/byte before and after, for the CRC-32 kernel
/// alone and for one wrap + unwrap of an error-control frame.
struct BytePathPoint {
    bytes: usize,
    crc_before: f64,
    crc_after: f64,
    frame_before: f64,
    frame_after: f64,
}

impl BytePathPoint {
    fn crc_speedup(&self) -> f64 {
        self.crc_before / self.crc_after
    }

    fn frame_speedup(&self) -> f64 {
        self.frame_before / self.frame_after
    }
}

fn byte_path(bytes: usize, budget: Duration) -> BytePathPoint {
    let data: Vec<u8> = (0..bytes).map(|i| (i * 131 + 17) as u8).collect();
    // The two sides must agree bit for bit before their speeds are compared.
    assert_eq!(seed_byte_path::crc32(&data), crc32_aal5(&data));
    let frame = wrap_checked(9, &[], &data);
    assert_eq!(frame, seed_byte_path::wrap(9, &data));
    assert_eq!(seed_byte_path::unwrap(&frame), unwrap_checked(&frame).ok());

    let (crc_before, crc_after) = ns_per_byte_pair(
        bytes,
        budget,
        || {
            black_box(seed_byte_path::crc32(black_box(&data)));
        },
        || {
            black_box(crc32_aal5(black_box(&data)));
        },
    );
    let (frame_before, frame_after) = ns_per_byte_pair(
        bytes,
        budget,
        || {
            let f = seed_byte_path::wrap(9, black_box(&data));
            black_box(seed_byte_path::unwrap(&f));
        },
        || {
            let f = wrap_checked(9, &[], black_box(&data));
            black_box(unwrap_checked(&f).ok());
        },
    );
    BytePathPoint {
        bytes,
        crc_before,
        crc_after,
        frame_before,
        frame_after,
    }
}

fn per_mb(events: u64, bytes: usize) -> f64 {
    events as f64 / (bytes as f64 / (1024.0 * 1024.0))
}

/// One row of the event economy: bytes moved, then kernel events with cell
/// trains and with one more event per cell.
const ECONOMY: &[Col<(usize, u64, u64)>] = &[
    Col::int("bytes", "bytes", |e| e.0 as u64),
    Col::int("train_events", "train ev", |e| e.1),
    Col::int("percell_events", "per-cell ev", |e| e.2),
    Col::fixed("train_events_per_mb", "train ev/MB", 1, |e| {
        per_mb(e.1, e.0)
    }),
    Col::fixed("percell_events_per_mb", "per-cell ev/MB", 1, |e| {
        per_mb(e.2, e.0)
    }),
    Col::fixed("reduction", "reduction", 2, |e| e.2 as f64 / e.1 as f64),
];

const SWEEP: &[Col<SweepPoint>] = &[
    Col::int("bytes", "bytes", |p| p.bytes as u64),
    Col::int("io_buffers", "I/O buffers", |p| u64::from(p.io_buffers)),
    Col::fixed("elapsed_s", "elapsed s", 9, |p| p.elapsed.as_secs_f64()),
    Col::int("events", "events", |p| p.events),
    Col::int("chunks", "chunks", |p| p.chunks),
];

const APPS: &[Col<AppPoint>] = &[
    Col::text("app", "app", |p| p.app),
    Col::fixed("elapsed_s", "elapsed s", 9, |p| p.elapsed.as_secs_f64()),
    Col::flag("verified", "bit-exact", |p| p.verified),
];

/// Host ns/byte before and after, and the speedup, of the kernel and the frame.
const BYTE_PATH: &[Col<BytePathPoint>] = &[
    Col::int("bytes", "bytes", |p| p.bytes as u64),
    Col::fixed("crc32_ns_per_byte_before", "CRC-32 before", 3, |p| {
        p.crc_before
    }),
    Col::fixed("crc32_ns_per_byte_after", "after", 3, |p| p.crc_after),
    Col::fixed("crc32_speedup", "speedup", 2, BytePathPoint::crc_speedup),
    Col::fixed(
        "wrap_unwrap_ns_per_byte_before",
        "wrap+unwrap before",
        3,
        |p| p.frame_before,
    ),
    Col::fixed("wrap_unwrap_ns_per_byte_after", "after", 3, |p| {
        p.frame_after
    }),
    Col::fixed(
        "wrap_unwrap_speedup",
        "speedup",
        2,
        BytePathPoint::frame_speedup,
    ),
];

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let smoke = opts.smoke;
    out.bench = Some("BENCH_pipeline");
    out.note("# X8 — pipelined Approach-2 data path (multiple I/O buffers, cell trains)\n");
    if smoke {
        out.note("# smoke mode: reduced sweep\n");
    }

    // Part 1: event economy, one event per train vs one more per cell.
    let sizes: &[usize] = if smoke {
        &[64 * 1024]
    } else {
        &[16 * 1024, 64 * 1024, 256 * 1024]
    };
    out.note("\n## kernel events per transfer: cell trains vs per-cell delivery\n");
    let table = out.table("event_economy", ECONOMY);
    for &bytes in sizes {
        let (train, cells) = raw_transfer_events(bytes);
        let percell = train + cells;
        out.row(&table, &(bytes, train, percell));
        if bytes >= 64 * 1024 {
            assert!(
                train * 2 <= percell,
                "{bytes}-byte transfer: train mode must at least halve kernel events \
                 (train {train}, per-cell {percell})"
            );
        }
    }

    // Part 2: I/O-buffer sweep over the full NCS path.
    let buffer_counts: &[u32] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let sweep_sizes: &[usize] = if smoke {
        &[64 * 1024]
    } else {
        &[64 * 1024, 256 * 1024]
    };
    out.note("## I/O-buffer sweep (NCS over HSM, credit window 4, error control on)\n");
    let table = out.table("buffer_sweep", SWEEP);
    for &bytes in sweep_sizes {
        let mut first = None;
        let mut last = None;
        for &bufs in buffer_counts {
            let p = ncs_transfer(bytes, bufs);
            out.row(&table, &p);
            if bufs == buffer_counts[0] {
                first = Some(p.elapsed);
            }
            last = Some(p.elapsed);
        }
        let (one, deep) = (first.unwrap(), last.unwrap());
        assert!(
            deep <= one,
            "{bytes}-byte transfer: {} buffers ({deep:?}) must not be slower than 1 ({one:?})",
            buffer_counts.last().unwrap()
        );
    }

    // Part 3: the applications, chunked and armed.
    out.note("## applications with 1 KiB I/O buffers (chunked traffic, invariants armed)\n");
    let table = out.table("apps", APPS);
    for p in run_apps() {
        out.row(&table, &p);
        assert!(p.verified, "{} must stay bit-exact when chunked", p.app);
    }

    // Part 4: the byte path, before and after.
    let budget = Duration::from_millis(if smoke { 10 } else { 100 });
    out.note("## byte path, host ns/byte\n");
    out.nested("byte_path", |out| {
        out.record(WORKER_CPUS, &());
        let table = out.table("rows", BYTE_PATH);
        for bytes in [512, 4 * 1024, 16 * 1024] {
            let p = byte_path(bytes, budget);
            out.row(&table, &p);
            // At 512 B the frame's one allocation is a visible share of its
            // cost, so that row is reported but only the kernel is held to 5x.
            assert!(
                p.crc_speedup() >= 5.0 && (bytes < 4 * 1024 || p.frame_speedup() >= 5.0),
                "{bytes}-byte byte path: table-driven CRC and single-pass framing must each be \
                 at least 5x the bit-serial, staged forms"
            );
        }
    });
}
