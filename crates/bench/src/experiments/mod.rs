//! The experiment registry: every table, figure and extension experiment
//! is one [`Experiment`] in [`EXPERIMENTS`], and adding one is one function
//! plus one entry here. The modules below hold one experiment each, beside
//! the handful of builders and workloads several of them share.

use crate::JsonDoc;
use bytes::Bytes;
use ncs_apps::fft::{fft_ncs_setup_with, FftConfig};
use ncs_apps::jpeg::EntropyKind;
use ncs_apps::jpeg_dist::{setup_jpeg_ncs_with, JpegConfig};
use ncs_apps::matmul::{setup_matmul_ncs_with, MatmulConfig};
use ncs_core::NcsConfig;
use ncs_net::atm::{AtmFabric, AtmLanParams};
use ncs_net::stack::BlockingWait;
use ncs_net::{AtmApiNet, AtmApiParams, HostParams, Network, NodeId};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, DurHistogram, Sim, SimTime};
use std::path::PathBuf;
use std::sync::Arc;

pub mod chaos;
mod cs_sweep;
mod entropy;
mod fig_buffers;
mod fig_datapath;
mod fig_fft_steps;
mod fig_overlap;
mod flow;
mod micro;
mod nsm_hsm;
pub mod observe;
mod overlap;
mod pipeline;
mod pvm;
mod scale;
mod sweep;
mod tables;

/// What the `xp` command line asked for, parsed once by the driver.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    /// `--smoke`: the reduced sweep CI runs.
    pub smoke: bool,
    /// `--guard`: also hold the measurements to the experiment's checked-in
    /// bars (`xp_scale`, `xp_chaos`).
    pub guard: bool,
    /// Positional arguments after the experiment's name (`fig_overlap
    /// matmul`).
    pub args: Vec<String>,
}

/// One table, figure or extension experiment.
pub struct Experiment {
    /// Name on the `xp` command line (the `xp_` prefix may be left off) and
    /// stem of the files it leaves under `results/`.
    pub name: &'static str,
    /// One line for `xp list`.
    pub about: &'static str,
    /// Writes the experiment's report into the string and returns its
    /// `results/BENCH_*.json` document, if it has one. Panics when a result
    /// breaks one of the experiment's own assertions.
    pub run: fn(&Opts, &mut String) -> Option<JsonDoc>,
    /// The argument lists `xp report` runs it with, one
    /// `results/<name>[_<arg>].txt` each; empty for an experiment whose
    /// output depends on the host clock or is too slow for the report.
    pub report: &'static [&'static [&'static str]],
}

impl Experiment {
    /// The `results/*.txt` stems `xp report` writes for this experiment,
    /// each with the arguments that produce it.
    pub fn report_rows(&self) -> impl Iterator<Item = (String, &'static [&'static str])> + '_ {
        self.report
            .iter()
            .map(|&args| ([&[self.name], args].concat().join("_"), args))
    }
}

/// In `xp report`, run once without arguments.
const ONCE: &[&[&str]] = &[&[]];
/// Not part of `xp report`.
const NEVER: &[&[&str]] = &[];

/// Every experiment, in `xp list` and `xp report` order (`xp_sweep`, the
/// slowest report row, last among them).
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table 1: 128x128 matmul, p4 vs NCS_MTS/p4, Ethernet and NYNET",
        run: |_, out| tables::run(&tables::TABLE1, out),
        report: ONCE,
    },
    Experiment {
        name: "table2",
        about: "Table 2: JPEG pipeline on a ~600 KB image, p4 vs NCS_MTS/p4",
        run: |_, out| tables::run(&tables::TABLE2, out),
        report: ONCE,
    },
    Experiment {
        name: "table3",
        about: "Table 3: distributed DIF FFT (512 points, 8 sets), p4 vs NCS_MTS/p4",
        run: |_, out| tables::run(&tables::TABLE3, out),
        report: ONCE,
    },
    Experiment {
        name: "fig_datapath",
        about: "Figure 3: bus accesses per word, socket/TCP vs NCS mapped buffers",
        run: fig_datapath::run,
        report: ONCE,
    },
    Experiment {
        name: "fig_buffers",
        about: "Figure 2: one-way latency by number of mapped I/O buffers",
        run: fig_buffers::run,
        report: ONCE,
    },
    Experiment {
        name: "fig_fft_steps",
        about: "Figures 19/20: FFT communication steps, p4 vs NCS",
        run: fig_fft_steps::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_nsm_hsm",
        about: "X1: Normal Speed Mode (TCP) vs High Speed Mode (ATM API) on one ATM LAN",
        run: nsm_hsm::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_flow",
        about: "X3: flow-control ablation, bursty producer vs slow consumer",
        run: flow::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_cs_sweep",
        about: "X2b: context-switch cost ablation on matmul",
        run: cs_sweep::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_entropy",
        about: "X5: JPEG entropy coder ablation, RLE/varint vs Huffman",
        run: entropy::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_pvm",
        about: "X6: substrate swap, p4-over-TCP vs PVM-style daemon routing",
        run: pvm::run,
        report: ONCE,
    },
    Experiment {
        name: "fig_overlap",
        about: "Figures 4/16: overlap timelines; argument matmul (default) or jpeg",
        run: fig_overlap::run,
        report: &[&["matmul"], &["jpeg"]],
    },
    Experiment {
        name: "xp_sweep",
        about: "X4: one-way latency by message size across the five testbeds",
        run: sweep::run,
        report: ONCE,
    },
    Experiment {
        name: "xp_pipeline",
        about: "X8: pipelined Approach-2 data path; writes BENCH_pipeline.json",
        run: pipeline::run,
        report: NEVER,
    },
    Experiment {
        name: "xp_observe",
        about: "X9: per-layer latency decomposition + Chrome trace export",
        run: observe::run,
        report: NEVER,
    },
    Experiment {
        name: "xp_scale",
        about: "X10/X12: event-kernel and sharded scaling; writes BENCH_kernel.json",
        run: scale::run,
        report: NEVER,
    },
    Experiment {
        name: "xp_chaos",
        about: "X7/X11: cell-level faults vs NCS error control; writes BENCH_chaos.json",
        run: chaos::run,
        report: NEVER,
    },
    Experiment {
        name: "xp_overlap",
        about: "X13: overlap gain of the async API; writes BENCH_overlap.json",
        run: overlap::run,
        report: NEVER,
    },
    Experiment {
        name: "xp_micro",
        about: "X2 + host-time microbenchmarks (MTS, Huffman, fabric booking, ping-pong)",
        run: micro::run,
        report: NEVER,
    },
];

/// The experiment called `name`, with or without its `xp_` prefix.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name || e.name.strip_prefix("xp_") == Some(name))
}

/// What `xp list` prints: one line per experiment, in registry order.
pub fn list() -> String {
    let mut s = String::new();
    for e in EXPERIMENTS {
        s += &format!("{:14} {}\n", e.name, e.about);
    }
    s
}

/// The repository's `results/` directory, wherever `xp` is started from.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// CPUs available to worker threads (recorded beside every host-clock
/// number); 1 when the runtime can't tell.
fn worker_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The FORE ATM LAN through the NCS ATM API (HSM) where the host model or
/// the API parameters differ from `Testbed::SunAtmLanApi`'s.
fn atm_lan_api(nodes: usize, host: HostParams, params: AtmApiParams) -> Arc<dyn Network> {
    let fabric = Arc::new(AtmFabric::new(AtmLanParams::fore_lan(nodes)));
    Arc::new(AtmApiNet::new(fabric, vec![host; nodes], params))
}

/// Streams `count` messages of `bytes` from node 0 to node 1, starting at
/// time zero: when the last one had been picked up, and every message's
/// delivery latency (send entry to picked-up).
fn stream(net: Arc<dyn Network>, bytes: usize, count: usize) -> (Dur, DurHistogram) {
    let sim = Sim::new();
    let seen = Arc::new(Mutex::new((Dur::ZERO, DurHistogram::new())));
    let tx = Arc::clone(&net);
    sim.spawn("tx", move |ctx| {
        for i in 0..count {
            let payload = Bytes::from(vec![0u8; bytes]);
            tx.send(ctx, &BlockingWait, NodeId(0), NodeId(1), i as u64, payload);
        }
    });
    let rx_seen = Arc::clone(&seen);
    sim.spawn("rx", move |ctx| {
        let inbox = net.inbox(NodeId(1));
        for _ in 0..count {
            let m = inbox.recv(ctx).expect("inbox open");
            ctx.sleep(net.recv_pickup_cost(NodeId(1), m.payload.len()));
            rx_seen.lock().1.record(ctx.now().since(m.sent_at));
        }
        rx_seen.lock().0 = ctx.now().since(SimTime::ZERO);
    });
    sim.run().assert_clean();
    let seen = seen.lock().clone();
    seen
}

/// One-way delivery time of one `bytes`-byte message sent at time zero.
fn one_way(net: Arc<dyn Network>, bytes: usize) -> Dur {
    stream(net, bytes, 1).0
}

/// The paper's three applications at the reduced sizes the chaos, pipeline
/// and observability experiments run them at.
#[derive(Clone, Copy)]
enum SmallApp {
    /// 32×32 matmul on `nodes` workers (`nodes + 1` hosts).
    Matmul { nodes: usize },
    /// 64×64 JPEG pipeline on 2 nodes (3 hosts).
    Jpeg,
    /// 64-point FFT over `sets` sample sets on 2 nodes (3 hosts).
    Fft { sets: usize },
}

impl SmallApp {
    fn name(self) -> &'static str {
        match self {
            SmallApp::Matmul { .. } => "matmul",
            SmallApp::Jpeg => "jpeg",
            SmallApp::Fft { .. } => "fft",
        }
    }

    /// Hosts the application's network must have.
    fn hosts(self) -> usize {
        match self {
            SmallApp::Matmul { nodes } => nodes + 1,
            SmallApp::Jpeg | SmallApp::Fft { .. } => 3,
        }
    }

    /// Stages the NCS variant onto `sim`; call the returned check after
    /// `sim.run()` to learn whether the result is bit-exact.
    fn stage(self, sim: &Sim, net: Arc<dyn Network>, ncs: NcsConfig) -> Box<dyn FnOnce() -> bool> {
        match self {
            SmallApp::Matmul { nodes } => {
                let cfg = MatmulConfig {
                    dim: 32,
                    nodes,
                    seed: 7,
                };
                let handle = setup_matmul_ncs_with(sim, net, cfg, ncs);
                Box::new(move || handle.verify())
            }
            SmallApp::Jpeg => {
                let cfg = JpegConfig {
                    width: 64,
                    height: 64,
                    quality: 75,
                    entropy: EntropyKind::RleVarint,
                    nodes: 2,
                    seed: 21,
                };
                let handle = setup_jpeg_ncs_with(sim, net, cfg, ncs);
                Box::new(move || handle.verify())
            }
            SmallApp::Fft { sets } => {
                let cfg = FftConfig {
                    m: 64,
                    sets,
                    nodes: 2,
                    seed: 5,
                };
                let handle = fft_ncs_setup_with(sim, net, cfg, ncs);
                Box::new(move || handle.verify())
            }
        }
    }

    /// Runs the NCS variant on a fresh simulator: `(elapsed, bit-exact)`.
    fn run(self, net: Arc<dyn Network>, ncs: NcsConfig) -> (Dur, bool) {
        let sim = Sim::new();
        let verify = self.stage(&sim, net, ncs);
        let out = sim.run();
        out.assert_clean();
        (out.end_time.since(SimTime::ZERO), verify())
    }
}
