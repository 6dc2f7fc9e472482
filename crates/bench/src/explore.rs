//! Schedule-space exploration: a model-checking mode for the NCS stack.
//!
//! The simulator is deterministic, but the determinism is a *convention*:
//! at every [`ChoicePoint`](ncs_sim::ChoicePoint) (same-timestamp event
//! tie-breaks, round-robin
//! rotation inside an MTS priority level, fault-timing placement) the
//! kernel picks one of several equally legal alternatives. Correct
//! protocol code must behave the same under **any** resolution of those
//! choices. This module drives a workload through alternative legal
//! schedules and asserts the runtime oracles on every run:
//!
//! * the in-run invariant checks (wait-for-graph deadlock detection,
//!   credit/buffer conservation, queue validation) wired through
//!   [`AnalysisConfig`];
//! * clean termination — no blocked threads, no panics, no horizon hit;
//! * workload-level result verification (bit-exact payloads);
//! * *observational equivalence* — the delivered-payload digest sequence
//!   per `(src, dst, tag)` channel must be identical across every
//!   explored schedule (compared against the canonical schedule).
//!
//! Two exploration strategies share the engine: a seeded random walk
//! ([`Mode::Walk`]) and a bounded exhaustive DFS over decision prefixes
//! ([`Mode::Dfs`]). Every run's decisions are recorded; a failing
//! schedule is greedily minimized and serialized with
//! [`format_trace`] so `xp explore <trace>` reproduces it
//! deterministically.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{ChaosNet, ChaosParams, HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::{
    format_trace, AnalysisConfig, ChannelKey, Decision, DecisionLog, Dur, RandomWalkPolicy,
    SchedulePolicy, ScriptedPolicy, Sim, SimTime, StopReason,
};

/// Everything the oracles need from one run of a workload under one
/// schedule.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Every scheduling decision taken, in consultation order. Filled in
    /// by the engine from its [`DecisionLog`]; workloads may leave it
    /// empty.
    pub decisions: Vec<Decision>,
    /// The kernel's FNV-1a digest over the executed event sequence — two
    /// runs with equal hashes executed the identical interleaving.
    pub trace_hash: u64,
    /// Oracle failures: invariant violations, blocked threads, panics,
    /// result-verification failures. Empty means the run was clean.
    pub problems: Vec<String>,
    /// Per-channel delivered-payload digest sequences, the observable
    /// compared across schedules.
    pub deliveries: BTreeMap<ChannelKey, Vec<u64>>,
}

/// A simulation the explorer can run many times under different
/// [`SchedulePolicy`]s. Implementations must be deterministic given the
/// policy: same policy decisions, same [`Observation`].
pub trait Workload: Sync {
    /// Builds a fresh simulation, installs `policy`, runs to completion
    /// (bounded!), and reports what the oracles saw.
    fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation;
}

/// Exploration strategy.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// `walks` independent seeded random walks (seeds `seed`,
    /// `seed + 1`, ...).
    Walk {
        /// Number of schedules to sample.
        walks: usize,
        /// Base RNG seed; each walk uses `seed + i`.
        seed: u64,
    },
    /// Bounded exhaustive search: breadth-first over decision prefixes
    /// that deviate from the canonical schedule in at most `depth`
    /// positions, capped at `max_schedules` runs total.
    Dfs {
        /// Maximum number of non-canonical decisions per schedule.
        depth: usize,
        /// Hard cap on the number of schedules run.
        max_schedules: usize,
    },
}

/// A failing schedule, minimized and ready to replay.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The decisions of the minimized failing schedule.
    pub decisions: Vec<Decision>,
    /// [`format_trace`] serialization of `decisions` — the replay file.
    pub trace: String,
    /// What the oracles reported on the minimized schedule.
    pub problems: Vec<String>,
    /// Kernel trace hash of the minimized failing run.
    pub trace_hash: u64,
}

/// Summary of one exploration campaign.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Total schedules run (including the canonical baseline).
    pub schedules_explored: usize,
    /// Distinct kernel trace hashes seen — a lower bound on the number of
    /// genuinely different interleavings exercised.
    pub distinct_interleavings: usize,
    /// Number of explored schedules on which at least one oracle failed.
    pub violations: usize,
    /// True when [`Mode::Dfs`] stopped at its schedule cap with frontier
    /// left unexplored.
    pub(crate) truncated: bool,
    /// Trace hash of the canonical (all-defaults) schedule.
    pub baseline_trace_hash: u64,
    /// The first failing schedule found, minimized. `None` when every
    /// explored schedule was clean.
    pub counterexample: Option<Counterexample>,
}

/// Runs `workload` once under a scripted schedule, returning the full
/// observation with `decisions` filled from the decision log. An empty
/// script is the canonical schedule.
pub fn run_scripted(workload: &dyn Workload, script: Vec<u32>) -> Observation {
    let log = DecisionLog::new();
    let policy = Box::new(ScriptedPolicy::new(script, Arc::clone(&log)));
    let mut obs = workload.run(policy);
    obs.decisions = log.snapshot();
    obs
}

/// Oracle failures of `obs` relative to the canonical `baseline`: the
/// run's own problems plus the cross-schedule observational-equivalence
/// check (delivered payload sequence per channel must match).
pub(crate) fn problems_vs_baseline(obs: &Observation, baseline: &Observation) -> Vec<String> {
    let mut out = obs.problems.clone();
    if obs.deliveries != baseline.deliveries {
        out.push(divergence_detail(&baseline.deliveries, &obs.deliveries));
    }
    out
}

/// Human-readable description of the first channel whose delivery
/// sequence differs between two schedules.
fn divergence_detail(
    base: &BTreeMap<ChannelKey, Vec<u64>>,
    got: &BTreeMap<ChannelKey, Vec<u64>>,
) -> String {
    let keys: BTreeSet<&ChannelKey> = base.keys().chain(got.keys()).collect();
    for k in keys {
        let b = base.get(k).map(Vec::as_slice).unwrap_or(&[]);
        let g = got.get(k).map(Vec::as_slice).unwrap_or(&[]);
        if b != g {
            return format!(
                "[observational-divergence] channel (p{} -> p{}, tag {:#x}): \
                 baseline delivered {} payload(s), this schedule {} \
                 (first differing digests {:?} vs {:?})",
                k.0,
                k.1,
                k.2,
                b.len(),
                g.len(),
                b.iter().zip(g.iter()).find(|(x, y)| x != y).map(|(x, _)| x),
                b.iter().zip(g.iter()).find(|(x, y)| x != y).map(|(_, y)| y),
            );
        }
    }
    "[observational-divergence] delivery logs differ".to_string()
}

/// Explores the schedule space of `workload` under `mode`.
///
/// The canonical schedule runs first and becomes the observational
/// baseline; it counts toward `schedules_explored`, and a baseline
/// failure is itself reported (with an empty replay trace). The first
/// failing alternative schedule is minimized with a small re-run budget
/// before being returned as the counterexample.
pub fn explore(workload: &dyn Workload, mode: Mode) -> ExploreReport {
    let baseline = run_scripted(workload, Vec::new());
    let mut report = ExploreReport {
        schedules_explored: 1,
        baseline_trace_hash: baseline.trace_hash,
        ..ExploreReport::default()
    };
    let mut hashes = BTreeSet::new();
    hashes.insert(baseline.trace_hash);

    if !baseline.problems.is_empty() {
        report.violations += 1;
        report.counterexample = Some(Counterexample {
            decisions: Vec::new(),
            trace: format_trace(&[]),
            problems: baseline.problems.clone(),
            trace_hash: baseline.trace_hash,
        });
    }

    let mut consider = |report: &mut ExploreReport, obs: &Observation, baseline: &Observation| {
        hashes.insert(obs.trace_hash);
        let problems = problems_vs_baseline(obs, baseline);
        if !problems.is_empty() {
            report.violations += 1;
            if report.counterexample.is_none() {
                report.counterexample = Some(minimize(workload, baseline, &obs.decisions, 32));
            }
        }
    };

    match mode {
        Mode::Walk { walks, seed } => {
            for i in 0..walks {
                let log = DecisionLog::new();
                let policy = Box::new(RandomWalkPolicy::new(
                    seed.wrapping_add(i as u64),
                    Arc::clone(&log),
                ));
                let mut obs = workload.run(policy);
                obs.decisions = log.snapshot();
                report.schedules_explored += 1;
                consider(&mut report, &obs, &baseline);
            }
        }
        Mode::Dfs {
            depth,
            max_schedules,
        } => {
            // Breadth-first over deviation prefixes: a frontier entry is a
            // script that fixes every decision up to and including its
            // last (non-canonical) entry; decisions past the script follow
            // the canonical default, and each completed run spawns children
            // that deviate at one later position.
            let mut frontier: VecDeque<(Vec<u32>, usize)> = VecDeque::new();
            expand(&baseline.decisions, 0, 0, depth, &mut frontier);
            while let Some((script, deviations)) = frontier.pop_front() {
                if report.schedules_explored >= max_schedules {
                    report.truncated = true;
                    break;
                }
                let fixed = script.len();
                let obs = run_scripted(workload, script);
                report.schedules_explored += 1;
                consider(&mut report, &obs, &baseline);
                expand(&obs.decisions, fixed, deviations, depth, &mut frontier);
            }
        }
    }

    report.distinct_interleavings = hashes.len();
    report
}

/// Queues every single-deviation child of `decisions` whose deviation
/// position is at least `fixed` (earlier positions are already pinned by
/// the parent's script).
fn expand(
    decisions: &[Decision],
    fixed: usize,
    deviations: usize,
    depth: usize,
    frontier: &mut VecDeque<(Vec<u32>, usize)>,
) {
    if deviations >= depth {
        return;
    }
    for i in fixed..decisions.len() {
        for alt in 1..decisions[i].arity {
            let mut child: Vec<u32> = decisions[..i].iter().map(|d| d.chosen).collect();
            child.push(alt);
            frontier.push_back((child, deviations + 1));
        }
    }
}

/// Greedily minimizes a failing schedule: try zeroing each non-canonical
/// decision (keeping the change when the failure persists), then drop the
/// canonical tail. Re-runs are capped at `budget`; the returned
/// counterexample is the final minimized schedule, re-run once to confirm.
fn minimize(
    workload: &dyn Workload,
    baseline: &Observation,
    failing: &[Decision],
    budget: usize,
) -> Counterexample {
    let mut script: Vec<u32> = failing.iter().map(|d| d.chosen).collect();
    while script.last() == Some(&0) {
        script.pop();
    }
    let mut spent = 0usize;
    let mut i = 0;
    while i < script.len() && spent < budget {
        if script[i] != 0 {
            let mut cand = script.clone();
            cand[i] = 0;
            while cand.last() == Some(&0) {
                cand.pop();
            }
            spent += 1;
            let obs = run_scripted(workload, cand.clone());
            if !problems_vs_baseline(&obs, baseline).is_empty() {
                script = cand;
            }
        }
        i += 1;
    }
    // Confirm the minimized schedule and capture its decisions verbatim.
    let obs = run_scripted(workload, script);
    let problems = problems_vs_baseline(&obs, baseline);
    // Serialize only the scripted prefix: trailing canonical decisions
    // replay identically without being pinned.
    let mut prefix = obs.decisions.clone();
    while prefix.last().map(|d| d.chosen) == Some(0) {
        prefix.pop();
    }
    Counterexample {
        trace: format_trace(&prefix),
        decisions: prefix,
        problems,
        trace_hash: obs.trace_hash,
    }
}

/// The explorer's standard workload: an `n`-host ring exchange over the
/// full NCS stack (credit flow control, checksum-retransmit error
/// control, TCP-over-ATM network model). Every host runs a ring thread —
/// `rounds` iterations of send-to-successor / receive-from-predecessor
/// with a deterministic per-(sender, round) payload, verified bit-exact
/// on receipt — plus an equal-priority compute thread, so the MTS
/// round-robin rotation choice point is genuinely exercised.
#[derive(Clone, Copy, Debug)]
pub struct RingWorkload {
    /// Number of hosts (2–4 is the intended exploration range).
    pub hosts: usize,
    /// Ring rounds per host.
    pub rounds: usize,
    /// Wrap the network in a light [`ChaosNet`] (cell loss + corruption)
    /// so the fault-timing choice point fires too.
    pub chaos: bool,
}

impl Default for RingWorkload {
    fn default() -> RingWorkload {
        RingWorkload {
            hosts: 2,
            rounds: 3,
            chaos: false,
        }
    }
}

impl RingWorkload {
    /// The payload host `sender` sends in `round`: deterministic,
    /// distinct per (sender, round).
    fn pattern(sender: usize, round: usize) -> Vec<u8> {
        (0..96)
            .map(|i| (sender.wrapping_mul(31) ^ round.wrapping_mul(7) ^ i) as u8)
            .collect()
    }
}

impl Workload for RingWorkload {
    fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation {
        let hosts = self.hosts;
        let rounds = self.rounds;
        let sim = Sim::new();
        let (analysis, sink) = AnalysisConfig::recording();
        let cfg = NcsConfig {
            flow: FlowControl::Credit { window: 2 },
            error: ErrorControl::ChecksumRetransmit,
            poll_cost: Dur::from_nanos(100),
            analysis,
            ..NcsConfig::default()
        };
        let fabric = Arc::new(IdealFabric::new(hosts, Dur::from_micros(20)));
        let host_params = (0..hosts).map(|_| HostParams::test_fast()).collect();
        let mut net: Arc<dyn Network> =
            Arc::new(TcpNet::new(fabric, host_params, TcpParams::ip_over_atm()));
        if self.chaos {
            net = ChaosNet::new(net, ChaosParams::new(0.002, 0.001, 0xC0FF_EE00));
        }
        let verified = Arc::new(AtomicUsize::new(0));
        let verified_in = Arc::clone(&verified);
        NcsWorld::launch(&sim, vec![net], hosts, cfg, move |id, proc_| {
            let verified = Arc::clone(&verified_in);
            proc_.t_create("ring", 5, move |ncs| {
                for r in 0..rounds {
                    let tag = 40 + r as u32;
                    let next = (id + 1) % hosts;
                    let prev = (id + hosts - 1) % hosts;
                    ncs.send(
                        ThreadAddr::new(next, 0),
                        tag,
                        RingWorkload::pattern(id, r).into(),
                    );
                    let m = ncs.recv(Some(prev), None, Some(tag));
                    if m.data[..] == RingWorkload::pattern(prev, r)[..] {
                        verified.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            proc_.t_create("mixer", 5, move |ncs| {
                for _ in 0..3 {
                    ncs.compute(50_000, "mix");
                }
            });
        });
        sim.set_schedule_policy(policy);
        // Generous horizon: even chaotic schedules with retransmit storms
        // finish in well under a simulated second; a horizon hit is a bug.
        let out = sim.run_bounded(Some(SimTime::ZERO + Dur::from_secs(2)), 4_000_000);

        let mut problems: Vec<String> = sink.take().iter().map(|v| format!("{v}")).collect();
        if out.reason != StopReason::Completed {
            problems.push(format!(
                "run did not complete: stopped by {:?} after {} events",
                out.reason, out.events
            ));
        }
        for b in &out.blocked {
            problems.push(format!("[blocked] thread still blocked at end of run: {b}"));
        }
        for p in &out.panics {
            problems.push(format!("[panic] {p}"));
        }
        let got = verified.load(Ordering::SeqCst);
        if out.reason == StopReason::Completed && got != hosts * rounds {
            problems.push(format!(
                "[payload] {got}/{} ring receptions verified bit-exact",
                hosts * rounds
            ));
        }
        let deliveries = sink.deliveries();
        let trace_hash = sim.trace_hash();
        sim.finish();
        Observation {
            decisions: Vec::new(),
            trace_hash,
            problems,
            deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny pure-kernel workload: three same-timestamp events append
    /// distinct marks; the delivered "channel" is the order of marks. A
    /// correct workload would not let tie-break order leak into its
    /// observable — this one deliberately does, so the engine's
    /// divergence oracle has something to find.
    struct TieLeakWorkload;

    impl Workload for TieLeakWorkload {
        fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation {
            let sim = Sim::new();
            let order: Arc<ncs_sim::sync::Mutex<Vec<u64>>> =
                Arc::new(ncs_sim::sync::Mutex::new(vec![]));
            for i in 0..3u64 {
                let order = Arc::clone(&order);
                sim.schedule_at(SimTime::ZERO + Dur::from_micros(5), move |_| {
                    order.lock().push(i);
                });
            }
            sim.set_schedule_policy(policy);
            let out = sim.run_bounded(Some(SimTime::ZERO + Dur::from_millis(1)), 10_000);
            let mut deliveries = BTreeMap::new();
            deliveries.insert((0usize, 0usize, 0u64), order.lock().clone());
            let mut problems = Vec::new();
            if out.reason != StopReason::Completed {
                problems.push("did not complete".to_string());
            }
            let trace_hash = sim.trace_hash();
            sim.finish();
            Observation {
                decisions: Vec::new(),
                trace_hash,
                problems,
                deliveries,
            }
        }
    }

    #[test]
    fn dfs_finds_tie_break_divergence_and_minimizes_it() {
        let report = explore(
            &TieLeakWorkload,
            Mode::Dfs {
                depth: 2,
                max_schedules: 40,
            },
        );
        assert!(report.violations > 0, "tie-break leak must be caught");
        assert!(report.distinct_interleavings > 1);
        let ce = report.counterexample.expect("counterexample");
        assert!(!ce.problems.is_empty(), "minimized schedule still fails");
        // The minimized schedule replays to the identical interleaving.
        let script: Vec<u32> = ce.decisions.iter().map(|d| d.chosen).collect();
        let again = run_scripted(&TieLeakWorkload, script);
        assert_eq!(again.trace_hash, ce.trace_hash, "replay is deterministic");
    }

    #[test]
    fn walk_on_symmetric_workload_reports_clean() {
        /// Same three tied events, but the observable is the *multiset*
        /// of marks — schedule-independent, as correct code should be.
        struct TieSafeWorkload;
        impl Workload for TieSafeWorkload {
            fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation {
                let mut obs = TieLeakWorkload.run(policy);
                for seq in obs.deliveries.values_mut() {
                    seq.sort_unstable();
                }
                obs
            }
        }
        let report = explore(&TieSafeWorkload, Mode::Walk { walks: 6, seed: 11 });
        assert_eq!(report.violations, 0);
        assert_eq!(report.schedules_explored, 7);
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn ring_baseline_is_clean_and_records_every_delivery() {
        let w = RingWorkload {
            hosts: 2,
            rounds: 2,
            chaos: false,
        };
        let obs = run_scripted(&w, Vec::new());
        assert!(
            obs.problems.is_empty(),
            "baseline problems: {:?}",
            obs.problems
        );
        assert!(!obs.decisions.is_empty(), "choice points must be consulted");
        // One channel per (direction, round) tag pair, each with exactly
        // one app-accepted payload: 2 hosts x 2 rounds = 4 deliveries.
        let total: usize = obs.deliveries.values().map(Vec::len).sum();
        assert_eq!(total, 4, "delivery log: {:?}", obs.deliveries);
        // Deterministic: same empty script, same interleaving.
        let again = run_scripted(&w, Vec::new());
        assert_eq!(again.trace_hash, obs.trace_hash);
        assert_eq!(again.deliveries, obs.deliveries);
    }

    #[test]
    fn trailing_canonical_decisions_are_trimmed_from_the_trace() {
        let report = explore(
            &TieLeakWorkload,
            Mode::Dfs {
                depth: 1,
                max_schedules: 10,
            },
        );
        let ce = report.counterexample.expect("counterexample");
        assert!(
            ce.decisions.last().map(|d| d.chosen) != Some(0),
            "minimized trace must not end in canonical choices: {:?}",
            ce.decisions
        );
    }
}
