//! The dispatcher's analysis half: the wait-for scan that reports
//! deadlocks and the run-queue invariants. All of it reads the runtime's
//! state; none of it decides a dispatch.

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
    /// thread id, in sorted order. A blocked thread waits on at most one
    /// sibling, so the wait-for graph is functional: one walk from each
    /// blocked thread along `wait_on`, through blocked targets only,
    /// visits every thread once, and a walk that meets its own trail has
    /// closed a cycle. A thread waiting on itself is a cycle of one.
    fn wait_cycles(inner: &Inner) -> Vec<Vec<MtsTid>> {
        let blocked = |t: &MtsTid| inner.tcbs[t.0 as usize].state == MtsThreadState::Blocked;
        // The walk (numbered by its start) that first reached each thread.
        let mut walk_of = vec![usize::MAX; inner.tcbs.len()];
        let mut cycles = Vec::new();
        for start in 0..inner.tcbs.len() {
            let mut trail = Vec::new();
            let mut at = Some(MtsTid(start as u32)).filter(blocked);
            while let Some(t) = at.filter(|t| walk_of[t.0 as usize] == usize::MAX) {
                walk_of[t.0 as usize] = start;
                trail.push(t);
                at = inner.tcbs[t.0 as usize].wait_on.filter(blocked);
            }
            if let Some(t) = at.filter(|t| walk_of[t.0 as usize] == start) {
                let first = trail
                    .iter()
                    .position(|&x| x == t)
                    .expect("t is on this trail");
                let mut cycle = trail.split_off(first);
                cycle.sort_unstable();
                cycles.push(cycle);
            }
        }
        cycles.sort_unstable();
        cycles
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

    /// Checks the run-queue membership invariants right now, returning a
    /// description of each inconsistency found (empty when the queue holds
    /// exactly the runnable threads, each once, at its own level).
    pub fn validate_queues(&self) -> Vec<String> {
        Self::validate_inner(&self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtsConfig;
    use ncs_sim::Sim;

    /// `wait_cycles` over hand-set states: `edges[i]` is thread `i`'s
    /// wait edge when it is blocked, `None` when it is runnable.
    fn cycles(edges: &[Option<Option<u32>>]) -> Vec<Vec<u32>> {
        let sim = Sim::new();
        let mts = Mts::new(&sim, "p", MtsConfig::default());
        for i in 0..edges.len() {
            mts.spawn(format!("w{i}"), 5, |_| {});
        }
        let mut inner = mts.inner.lock();
        for (tcb, edge) in inner.tcbs.iter_mut().zip(edges) {
            if let Some(wait_on) = edge {
                tcb.state = MtsThreadState::Blocked;
                tcb.wait_on = wait_on.map(MtsTid);
            }
        }
        let found = Mts::wait_cycles(&inner);
        found
            .into_iter()
            .map(|c| c.into_iter().map(|t| t.0).collect())
            .collect()
    }

    #[test]
    fn a_self_wait_is_a_ring_of_one() {
        assert_eq!(cycles(&[Some(Some(0))]), [[0]]);
        // A tail into it is not on it.
        assert_eq!(cycles(&[Some(Some(1)), Some(Some(1))]), [[1]]);
    }

    #[test]
    fn chains_and_tails_are_not_rings() {
        let edges = [
            Some(Some(3)), // 0 -> 3: tail into the ring {3, 5}
            Some(Some(2)), // 1 -> 2: waits on a runnable thread, no edge
            None,          // 2: runnable
            Some(Some(5)), // 3 -> 5 -> 3: a ring
            Some(Some(0)), // 4 -> 0 -> 3: a longer tail
            Some(Some(3)),
            Some(None), // 6: blocked anonymously
            Some(Some(8)),
            Some(Some(9)), // 7 -> 8 -> 9 -> 7: a ring whose walk starts at 7
            Some(Some(7)),
        ];
        assert_eq!(cycles(&edges), [vec![3, 5], vec![7, 8, 9]]);
        let chain = [Some(Some(1)), Some(Some(2)), Some(None)];
        assert!(cycles(&chain).is_empty());
    }
}
