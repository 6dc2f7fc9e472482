//! Every message class survives a lossy wire. Under checksum/retransmit
//! error control, credit grants, signals, barrier messages and exceptions
//! ride the same sequenced path as data: a lost one is retransmitted, a
//! duplicate is suppressed. Each case runs 2–4 processes over TCP on a
//! 1 ms ideal fabric that drops whole messages at `p_drop`, and must
//! deliver everything, exactly once and bit-exact, and end clean — a lost
//! control message used to leave the run parked with an empty event queue.
//!
//! The tier-1 sweep is three drop rates × four seeds; the ignored
//! `every_case_over_64_seeds` widens it to 64 seeds (`cargo test --release
//! -p ncs-core --test lossy_control -- --ignored`).

use bytes::Bytes;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsProc, NcsWorld, RtoConfig, ThreadAddr};
use ncs_net::{ChaosNet, ChaosParams, HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim};
use std::sync::Arc;

const DROP_RATES: [f64; 3] = [0.01, 0.05, 0.2];
const SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

/// Credit-flow messages per run, and their size.
const SENDS: u32 = 200;
const SEND_BYTES: usize = 256;
/// Barrier rounds per process, among four processes.
const ROUNDS: u32 = 50;
/// Signals per run.
const SIGNALS: u32 = 50;

/// One case: runs a world at drop rate `p_drop` with chaos seed `seed` and
/// checks what it delivered.
type Case = fn(f64, u64);

/// Runs `case` at every drop rate over `seeds`.
fn sweep(seeds: std::ops::RangeInclusive<u64>, case: Case) {
    for p_drop in DROP_RATES {
        for seed in seeds.clone() {
            case(p_drop, seed);
        }
    }
}

/// Launches `n` processes over the lossy wire with checksum/retransmit
/// error control (5 ms RTO, 64 retries) and `flow`, runs them, and checks
/// the run ended clean with no delivery failure anywhere.
fn run_lossy(
    n: usize,
    p_drop: f64,
    seed: u64,
    flow: FlowControl,
    setup: impl Fn(usize, &NcsProc) + Send + Sync + 'static,
) -> NcsWorld {
    let sim = Sim::new();
    let fabric = Arc::new(IdealFabric::new(n, Dur::from_millis(1)));
    let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
    let tcp: Arc<dyn Network> = Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()));
    let net: Arc<dyn Network> = ChaosNet::new(tcp, ChaosParams::message_level(0.0, p_drop, seed));
    let cfg = NcsConfig {
        flow,
        error: ErrorControl::ChecksumRetransmit,
        rto: RtoConfig::from_base(Dur::from_millis(5)),
        max_retries: 64,
        poll_cost: Dur::from_micros(1),
        ..NcsConfig::default()
    };
    let world = NcsWorld::launch(&sim, vec![net], n, cfg, setup);
    let out = sim.run();
    assert!(
        out.panics.is_empty() && out.blocked.is_empty(),
        "p_drop {p_drop}, seed {seed}: panics {:?}, parked at the end {:?}",
        out.panics,
        out.blocked
    );
    out.assert_clean();
    for (id, proc_) in world.procs().iter().enumerate() {
        let errs = proc_.error_stats();
        assert_eq!(
            (errs.delivery_failures, errs.dead_peers.len()),
            (0, 0),
            "p_drop {p_drop}, seed {seed}: proc{id} gave a peer up: {errs:?}"
        );
    }
    sim.finish();
    world
}

fn payload(i: u32) -> Bytes {
    (0..SEND_BYTES)
        .map(|k| (i as u8).wrapping_mul(31) ^ k as u8)
        .collect()
}

/// 200 sends of 256 B from process 0 to process 1 under a credit window.
fn credit_flow(window: u32, p_drop: f64, seed: u64) {
    let got = Arc::new(Mutex::new(0u32));
    let g = Arc::clone(&got);
    run_lossy(
        2,
        p_drop,
        seed,
        FlowControl::Credit { window },
        move |id, proc_| {
            let g = Arc::clone(&g);
            proc_.t_create("w", 5, move |ncs| {
                for i in 0..SENDS {
                    if id == 0 {
                        ncs.send(ThreadAddr::new(1, 0), i, payload(i));
                    } else {
                        let m = ncs.recv(Some(0), None, Some(i));
                        assert_eq!(m.data, payload(i), "message {i} differs");
                        *g.lock() += 1;
                    }
                }
            });
        },
    );
    assert_eq!(
        *got.lock(),
        SENDS,
        "window {window}, p_drop {p_drop}, seed {seed}"
    );
}

/// Four processes pass 50 barriers each.
fn barriers(p_drop: f64, seed: u64) {
    let passes = Arc::new(Mutex::new(0u32));
    let c = Arc::clone(&passes);
    let parties: Vec<_> = (0..4).map(|p| ThreadAddr::new(p, 0)).collect();
    run_lossy(4, p_drop, seed, FlowControl::None, move |_, proc_| {
        let (c, parties) = (Arc::clone(&c), parties.clone());
        proc_.t_create("b", 5, move |ncs| {
            for _ in 0..ROUNDS {
                ncs.barrier(&parties);
                *c.lock() += 1;
            }
        });
    });
    assert_eq!(*passes.lock(), 4 * ROUNDS, "p_drop {p_drop}, seed {seed}");
}

/// Process 0 signals process 1 fifty times.
fn signals(p_drop: f64, seed: u64) {
    let got = Arc::new(Mutex::new(0u32));
    let g = Arc::clone(&got);
    run_lossy(2, p_drop, seed, FlowControl::None, move |id, proc_| {
        let g = Arc::clone(&g);
        proc_.t_create("s", 5, move |ncs| {
            for _ in 0..SIGNALS {
                if id == 0 {
                    ncs.signal(ThreadAddr::new(1, 0));
                } else {
                    ncs.wait_signal(Some(ThreadAddr::new(0, 0)));
                    *g.lock() += 1;
                }
            }
        });
    });
    assert_eq!(*got.lock(), SIGNALS, "p_drop {p_drop}, seed {seed}");
}

/// Process 0 raises one exception at process 1, which receives it once,
/// detail bytes intact.
fn remote_raise(p_drop: f64, seed: u64) {
    const CODE: u32 = 0x5EED;
    let world = run_lossy(2, p_drop, seed, FlowControl::None, |id, proc_| {
        if id == 0 {
            proc_.t_create("r", 5, |ncs| {
                ncs.raise(1, CODE, Bytes::from_static(b"raised over a lossy wire"));
            });
        }
    });
    let got: Vec<_> = world.procs()[1]
        .pending_exceptions()
        .into_iter()
        .map(|e| (e.from, e.code, e.detail))
        .collect();
    let want = (
        ThreadAddr::new(0, 0),
        CODE,
        Bytes::from_static(b"raised over a lossy wire"),
    );
    assert_eq!(got, vec![want], "p_drop {p_drop}, seed {seed}");
    assert!(world.procs()[0].pending_exceptions().is_empty());
}

const CASES: [Case; 6] = [
    |p, s| credit_flow(1, p, s),
    |p, s| credit_flow(2, p, s),
    |p, s| credit_flow(8, p, s),
    barriers,
    signals,
    remote_raise,
];

#[test]
fn credit_window_1_survives_loss() {
    sweep(SEEDS, CASES[0]);
}

#[test]
fn credit_window_2_survives_loss() {
    sweep(SEEDS, CASES[1]);
}

#[test]
fn credit_window_8_survives_loss() {
    sweep(SEEDS, CASES[2]);
}

#[test]
fn barriers_survive_loss() {
    sweep(SEEDS, barriers);
}

#[test]
fn signals_survive_loss() {
    sweep(SEEDS, signals);
}

#[test]
fn a_remote_raise_survives_loss() {
    sweep(SEEDS, remote_raise);
}

#[test]
#[ignore = "64 seeds of every case: run by scripts/check.sh and CI"]
fn every_case_over_64_seeds() {
    for case in CASES {
        sweep(1..=64, case);
    }
}
