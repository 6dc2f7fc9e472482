//! Regression: `NCS_end` is collective — a process that finishes its user
//! work early *lingers* at the termination barrier (still re-ACKing
//! duplicate frames) until every peer is quiescent. That world-wide
//! quiescence wait is by design and must never be classified as a
//! deadlock cycle or lost wakeup by the runtime analysis — neither on the
//! canonical schedule nor on any explored alternative schedule.

use std::sync::Arc;

use ncs_bench::explore::{explore, run_scripted, Mode, Observation, Workload};
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::{
    AnalysisConfig, Dur, SchedulePolicy, ScriptedPolicy, Sim, SimTime, StopReason,
};

/// Two processes with wildly asymmetric lifetimes: proc 0 sends one
/// message and is done almost immediately; proc 1 computes for 50 ms of
/// virtual time first. Proc 0 therefore sits at the termination barrier
/// for almost the whole run.
struct EarlyFinisher;

impl Workload for EarlyFinisher {
    fn run(&self, policy: Box<dyn SchedulePolicy>) -> Observation {
        let sim = Sim::new();
        let (analysis, sink) = AnalysisConfig::recording();
        let cfg = NcsConfig {
            flow: FlowControl::Credit { window: 4 },
            error: ErrorControl::ChecksumRetransmit,
            poll_cost: Dur::from_nanos(100),
            analysis,
            ..NcsConfig::default()
        };
        let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(20)));
        let hosts = vec![HostParams::test_fast(); 2];
        let net: Arc<dyn Network> = Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()));
        NcsWorld::launch(&sim, vec![net], 2, cfg, |id, proc_| {
            if id == 0 {
                proc_.t_create("quick", 5, |ncs| {
                    ncs.send(ThreadAddr::new(1, 0), 9, b"early".to_vec().into());
                    // Done: from here proc 0 lingers at the TermBarrier
                    // while proc 1 still computes.
                });
            } else {
                proc_.t_create("slow", 5, |ncs| {
                    ncs.compute(50_000_000, "long-work"); // 50 ms at 1 GHz
                    let m = ncs.recv(Some(0), None, Some(9));
                    assert_eq!(&m.data[..], b"early");
                });
            }
        });
        sim.set_schedule_policy(policy);
        let out = sim.run_bounded(Some(SimTime::ZERO + Dur::from_secs(2)), 4_000_000);
        let mut problems: Vec<String> = sink.take().iter().map(|v| format!("{v}")).collect();
        if out.reason != StopReason::Completed {
            problems.push(format!("run stopped by {:?}", out.reason));
        }
        for b in &out.blocked {
            problems.push(format!("[blocked] {b}"));
        }
        for p in &out.panics {
            problems.push(format!("[panic] {p}"));
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

#[test]
fn lingering_at_the_term_barrier_is_not_a_deadlock() {
    let obs = run_scripted(&EarlyFinisher, Vec::new());
    assert!(
        obs.problems.is_empty(),
        "barrier quiescence wait misclassified: {:?}",
        obs.problems
    );
    assert!(
        !obs.deliveries.is_empty(),
        "the early message must be delivered"
    );
}

#[test]
fn term_barrier_stays_clean_across_explored_schedules() {
    let report = explore(&EarlyFinisher, Mode::Walk { walks: 8, seed: 3 });
    assert_eq!(
        report.violations, 0,
        "no explored schedule may turn the barrier wait into a violation"
    );
    assert!(report.counterexample.is_none());
}

#[test]
fn scripted_policy_type_is_usable_from_tests() {
    // Sanity: the ScriptedPolicy re-export is enough to hand-build a
    // replay without going through the engine.
    let log = ncs_sim::DecisionLog::new();
    let obs = EarlyFinisher.run(Box::new(ScriptedPolicy::new(vec![], Arc::clone(&log))));
    assert!(obs.problems.is_empty());
    assert!(!log.snapshot().is_empty(), "choice points were consulted");
}
