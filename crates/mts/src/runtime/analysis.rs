//! The dispatcher's analysis half: the wait-for scan that reports
//! deadlocks, the run-queue invariants, and the per-thread report a
//! post-run pass classifies stuck threads with. All of it reads the
//! runtime's state; none of it decides a dispatch.

use ncs_sim::{SimTime, WaitGraph};

use super::{Inner, Mts, MtsThreadState, MtsTid};

impl Mts {
    /// Reports each not-yet-seen wait-for cycle among blocked threads.
    pub(super) fn deadlock_scan(inner: &mut Inner) {
        for cycle in Self::wait_cycles(inner) {
            if inner.reported_cycles.contains(&cycle) {
                continue;
            }
            let edges: Vec<String> = cycle
                .iter()
                .map(|&t| {
                    let tcb = &inner.tcbs[t.0 as usize];
                    let target = match tcb.wait_on {
                        Some(w) => format!("{w}/{}", inner.tcbs[w.0 as usize].name),
                        None => "?".to_string(),
                    };
                    format!("{t}/{} -> {target}", tcb.name)
                })
                .collect();
            inner.analysis.report(
                "deadlock",
                inner.proc_name.clone(),
                format!("cyclic wait among blocked threads: {}", edges.join(", ")),
            );
            inner.reported_cycles.push(cycle);
        }
    }

    /// Wait-for cycles among currently blocked threads, each sorted by
    /// thread id (deterministic order).
    fn wait_cycles(inner: &Inner) -> Vec<Vec<MtsTid>> {
        let mut g = WaitGraph::new(inner.tcbs.len());
        for (i, tcb) in inner.tcbs.iter().enumerate() {
            if tcb.state != MtsThreadState::Blocked {
                continue;
            }
            if let Some(w) = tcb.wait_on {
                if inner.tcbs[w.0 as usize].state == MtsThreadState::Blocked {
                    g.add_edge(i, w.0 as usize);
                }
            }
        }
        g.cycles()
            .into_iter()
            .map(|c| c.into_iter().map(|x| MtsTid(x as u32)).collect())
            .collect()
    }

    /// Runs the run-queue membership invariants when the analysis pass is
    /// active.
    pub(super) fn queue_check(&self, inner: &Inner, op: &'static str) {
        if !inner.analysis.active() {
            return;
        }
        for problem in Self::validate_inner(inner) {
            inner.analysis.report(
                "queue-invariant",
                inner.proc_name.clone(),
                format!("after {op}: {problem}"),
            );
        }
    }

    /// The run queue holds exactly the `Runnable` threads, each once, at
    /// its own priority level.
    fn validate_inner(inner: &Inner) -> Vec<String> {
        let mut problems = Vec::new();
        let mut queued = vec![0u32; inner.tcbs.len()];
        for (level, tid) in inner.runnable.iter() {
            let Some(tcb) = inner.tcbs.get(tid.0 as usize) else {
                problems.push(format!("runnable[{level}] holds {tid}, which is no thread"));
                continue;
            };
            queued[tid.0 as usize] += 1;
            if tcb.priority != level {
                problems.push(format!(
                    "{tid}/{} has priority {} but is queued at runnable[{level}]",
                    tcb.name, tcb.priority
                ));
            }
        }
        for (i, (tcb, &count)) in inner.tcbs.iter().zip(&queued).enumerate() {
            let runnable = tcb.state == MtsThreadState::Runnable;
            if count > 1 {
                problems.push(format!("t{i}/{} is queued {count} times", tcb.name));
            } else if runnable != (count == 1) {
                problems.push(format!(
                    "t{i}/{} is {:?} but queued {count} times",
                    tcb.name, tcb.state
                ));
            }
        }
        problems
    }

    /// The armed check behind `MtsCtx::wait_for_dispatch`: whether `tid`,
    /// just resumed, is `Running`. Reports a `queue-invariant` violation
    /// when it is not — its green thread was woken by something other than
    /// the dispatcher.
    pub(super) fn resumed_running(&self, tid: MtsTid) -> bool {
        let inner = self.inner.lock();
        let tcb = &inner.tcbs[tid.0 as usize];
        let running = tcb.state == MtsThreadState::Running;
        if !running {
            inner.analysis.report(
                "queue-invariant",
                inner.proc_name.clone(),
                format!(
                    "{tid}/{} resumed while {:?}: only the dispatcher wakes an MTS thread",
                    tcb.name, tcb.state
                ),
            );
        }
        running
    }

    /// Snapshot of every thread's scheduling state and wait edge — what a
    /// post-run analysis pass uses to classify stuck threads.
    pub fn thread_report(&self) -> Vec<MtsThreadReport> {
        let inner = self.inner.lock();
        inner
            .tcbs
            .iter()
            .enumerate()
            .map(|(i, tcb)| MtsThreadReport {
                tid: MtsTid(i as u32),
                name: tcb.name.clone(),
                state: tcb.state,
                wait_on: tcb.wait_on,
                blocked_since: tcb.blocked_since,
            })
            .collect()
    }

    /// Wait-for cycles among the currently blocked threads. Each cycle is
    /// sorted by thread id; an empty result means no deadlock is provable
    /// from the recorded wait edges.
    pub fn deadlock_cycles(&self) -> Vec<Vec<MtsTid>> {
        Self::wait_cycles(&self.inner.lock())
    }

    /// Checks the run-queue membership invariants right now, returning a
    /// description of each inconsistency found (empty when the queue holds
    /// exactly the runnable threads, each once, at its own level).
    // ncs-lint: allow(dead-surface) queue-invariant oracle analysis/tests/runtime_detection.rs checks
    pub fn validate_queues(&self) -> Vec<String> {
        Self::validate_inner(&self.inner.lock())
    }
}

/// One thread's scheduling snapshot (see [`Mts::thread_report`]).
#[derive(Clone, Debug)]
pub struct MtsThreadReport {
    /// Thread id within the process.
    pub tid: MtsTid,
    /// Thread name.
    pub name: String,
    /// Scheduling state at snapshot time.
    pub state: MtsThreadState,
    /// Recorded wait-for edge, if the thread named what it waits on.
    pub wait_on: Option<MtsTid>,
    /// When the thread's current wait began, if it is waiting.
    pub blocked_since: Option<SimTime>,
}
