//! Host-time microbenchmarks of the pieces no other instrument times:
//!
//! * `mts-sched` — extension experiment **X2**: the wall-clock cost of an
//!   MTS block/unblock round trip (the simulator's own overhead, beside
//!   the modelled 15 µs virtual context switch);
//! * `jpeg` — the whole codec, compress and decompress, on the paper's
//!   960×640 Table 2 image at quality 75 (`JpegConfig::paper`), in ns per
//!   pixel;
//! * `fabric-booking` — one `Fabric::transfer` booking on Ethernet, the
//!   FORE ATM LAN and cross-site NYNET;
//! * `sim-end-to-end` — a whole simulated 2-process NCS ping-pong, launch
//!   to `finish`.
//!
//! The CRC/AAL5 kernels, the event queue and the metrics
//! and tracer hot paths are timed elsewhere: by `BENCHMARK.json`'s
//! `per_layer` probes (`benchmark/run.sh --layers`) and by `xp_scale`. The
//! matmul and FFT kernels have no row of their own; `apps.kernel_share`
//! reports what the three application kernels cost together.
//!
//! Each row is the minimum over ten 100 ms batches; `--smoke` runs one short
//! batch per row, enough to show every row still runs.
//!
//! ```text
//! cargo run --release -p ncs-bench -- micro [--smoke]
//! ```

use super::{worker_cpus, Opts, Report};
use crate::min_ns_per_call;
use bytes::Bytes;
use ncs_apps::jpeg::{compress, decompress};
use ncs_apps::jpeg_dist::JpegConfig;
use ncs_apps::GrayImage;
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_mts::{Mts, MtsConfig};
use ncs_net::atm::{AtmFabric, AtmLanParams, NynetParams};
use ncs_net::ethernet::EthernetFabric;
use ncs_net::fabric::{Fabric, NodeId};
use ncs_net::{HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::{Dur, RunOutcome, Sim, SimRng, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Round trips per `block_unblock` call.
const ROUND_TRIPS: u32 = 500;
/// Ping-pong exchanges per `ping_pong` call (two messages each).
const EXCHANGES: u32 = 20;

/// One simulation in which thread `a` blocks [`ROUND_TRIPS`] times and
/// thread `b` unblocks it each time, with the modelled switch cost at zero.
fn block_unblock() {
    let sim = Sim::new();
    sim.spawn("main", |ctx| {
        let mts = Mts::new(
            ctx.sim(),
            "p",
            MtsConfig {
                context_switch: Dur::ZERO,
            },
        );
        let mts2 = mts.clone();
        let t1 = mts.spawn("a", 1, move |m| {
            for _ in 0..ROUND_TRIPS {
                m.block();
            }
        });
        mts.spawn("b", 1, move |m| {
            for _ in 0..ROUND_TRIPS {
                mts2.unblock(m.ctx().sim(), t1);
                m.yield_now();
            }
        });
        mts.start(ctx);
    });
    sim.run().assert_clean();
    sim.finish();
}

/// One simulation of [`EXCHANGES`] 4-byte ping-pongs between two NCS
/// processes over TCP on an ideal fabric.
fn ping_pong() -> RunOutcome {
    let sim = Sim::new();
    let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
    let hosts = vec![HostParams::test_fast(); 2];
    let net: Arc<dyn Network> = Arc::new(TcpNet::new(fabric, hosts, TcpParams::raw(1460, 16384)));
    NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
        proc_.t_create("w", 5, move |ncs| {
            for i in 0..EXCHANGES {
                if id == 0 {
                    ncs.send(ThreadAddr::new(1, 0), i, Bytes::from_static(b"ping"));
                    ncs.recv(Some(1), None, Some(i));
                } else {
                    ncs.recv(Some(0), None, Some(i));
                    ncs.send(ThreadAddr::new(0, 0), i, Bytes::from_static(b"pong"));
                }
            }
        });
    });
    let out = sim.run();
    out.assert_clean();
    sim.finish();
    out
}

/// Back-to-back bookings of `bytes` from `src` to `dst`, each departing
/// when the last arrived.
fn booking(fabric: impl Fabric, src: u32, dst: u32, bytes: usize) -> impl FnMut() {
    let mut t = SimTime::ZERO;
    move || {
        let timing = fabric.transfer(NodeId(src), NodeId(dst), black_box(bytes), t);
        t = timing.arrival;
        black_box(timing);
    }
}

pub(super) fn run(opts: &Opts, out: &mut Report) {
    let (batches, budget) = if opts.smoke {
        (1, Duration::from_millis(5))
    } else {
        (10, Duration::from_millis(100))
    };
    let worker_cpus = worker_cpus();
    out.note(format!(
        "# xp_micro — host ns per unit, min of {batches} batch(es) \
         (worker_cpus = {worker_cpus})\n\n"
    ));
    let mut row = |name: &str, unit: &str, units_per_call: f64, op: &mut dyn FnMut()| {
        let ns = min_ns_per_call(batches, budget, op) / units_per_call;
        out.note(format!("{name:42} {ns:12.3} ns/{unit}\n"));
    };

    row(
        "mts-sched/block-unblock",
        "round trip",
        f64::from(ROUND_TRIPS),
        &mut block_unblock,
    );

    // The Table 2 image, as `jpeg_dist` synthesizes it.
    let paper = JpegConfig::paper(2);
    let img = GrayImage::synthetic(paper.width, paper.height, &mut SimRng::new(paper.seed));
    let compressed = compress(&img, paper.quality);
    let pixels = img.len() as f64;
    row("jpeg/compress", "pixel", pixels, &mut || {
        black_box(compress(black_box(&img), paper.quality));
    });
    row("jpeg/decompress", "pixel", pixels, &mut || {
        black_box(decompress(black_box(&compressed)).unwrap());
    });

    row(
        "fabric-booking/ethernet-transfer",
        "transfer",
        1.0,
        &mut booking(EthernetFabric::new(8), 0, 1, 1460),
    );
    row(
        "fabric-booking/atm-lan-transfer",
        "transfer",
        1.0,
        &mut booking(AtmFabric::new(AtmLanParams::fore_lan(8)), 0, 5, 9140),
    );
    row(
        "fabric-booking/nynet-cross-site-transfer",
        "transfer",
        1.0,
        &mut booking(AtmFabric::new(NynetParams::nynet(8)), 0, 7, 9140),
    );

    row(
        "sim-end-to-end/ncs-ping-pong",
        "message",
        f64::from(2 * EXCHANGES),
        &mut || {
            black_box(ping_pong());
        },
    );
    // What a message costs the kernel, launch and teardown included: events
    // that resumed a green thread, and the rest, which ran a callback.
    let run = ping_pong();
    let per_message = |n: u64| n as f64 / f64::from(2 * EXCHANGES);
    out.note(format!(
        "{:42} {:12.3} events/message = {:.3} resumes + {:.3} callbacks\n",
        "sim-end-to-end/ncs-ping-pong",
        per_message(run.events),
        per_message(run.resumes),
        per_message(run.events - run.resumes),
    ));
}
