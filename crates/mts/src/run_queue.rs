//! The runnable queue: one FIFO per priority level (the paper's Figure 9).
//!
//! NCS_MTS keeps its runnable threads in a multilevel priority queue:
//! strict priority between levels, round robin within one (a thread that
//! yields rejoins its level at the tail). Blocked threads are queued
//! nowhere: a thread's TCB records that it is blocked, and an unblock
//! indexes the TCB directly, so there is no search left for the paper's
//! doubly-linked blocked queue to speed up.

use std::collections::VecDeque;

use crate::runtime::{MtsTid, PRIORITY_LEVELS};

/// Runnable threads by priority level, level 0 highest.
#[derive(Default)]
pub(crate) struct RunQueue {
    levels: [VecDeque<MtsTid>; PRIORITY_LEVELS],
}

impl RunQueue {
    /// Queues `tid` at the tail of level `priority`.
    pub(crate) fn push(&mut self, priority: usize, tid: MtsTid) {
        self.levels[priority].push_back(tid);
    }

    /// Removes and returns one thread of the highest non-empty level: the
    /// one at index `pick(n)` of its `n` members, front to back. Round
    /// robin is `pick = 0`; any member is a legal choice (the rotation
    /// within a level is a convention), so schedule exploration may pick
    /// another. Strict priority between levels is never a choice.
    pub(crate) fn pop(&mut self, pick: impl FnOnce(usize) -> usize) -> Option<MtsTid> {
        let level = self.levels.iter_mut().find(|l| !l.is_empty())?;
        let i = pick(level.len());
        Some(level.remove(i).expect("pick within the level"))
    }

    /// Whether a thread is queued at `priority` or a higher level: the
    /// threads a yield at `priority` would hand the CPU to.
    pub(crate) fn any_at_or_above(&self, priority: usize) -> bool {
        self.levels[..=priority].iter().any(|l| !l.is_empty())
    }

    /// Whether no thread is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.levels.iter().all(VecDeque::is_empty)
    }

    /// Every queued thread with the level it is queued at, level by level,
    /// front to back (queue validation).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, MtsTid)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(p, l)| l.iter().map(move |&t| (p, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_sim::prop;

    fn front(q: &mut RunQueue) -> Option<u32> {
        q.pop(|_| 0).map(|t| t.0)
    }

    #[test]
    fn strict_priority_between_levels() {
        let mut q = RunQueue::default();
        for (prio, t) in [(9, 0), (3, 1), (15, 2), (0, 3), (3, 4)] {
            q.push(prio, MtsTid(t));
        }
        let order: Vec<u32> = std::iter::from_fn(|| front(&mut q)).collect();
        assert_eq!(order, [3, 1, 4, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_within_a_level_and_round_robin_rotation() {
        let mut q = RunQueue::default();
        for t in 0..3 {
            q.push(4, MtsTid(t));
        }
        // Pop the front, requeue it at the tail: the within-level round
        // robin of a yielding thread.
        let mut order = Vec::new();
        for _ in 0..6 {
            let t = q.pop(|_| 0).unwrap();
            order.push(t.0);
            q.push(4, t);
        }
        assert_eq!(order, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn a_pick_removes_exactly_the_chosen_member_of_the_top_level() {
        let mut q = RunQueue::default();
        q.push(6, MtsTid(9)); // a lower level is never offered
        for t in 0..4 {
            q.push(2, MtsTid(t));
        }
        let mut offered = 0;
        let picked = q.pop(|n| {
            offered = n;
            2
        });
        assert_eq!((offered, picked), (4, Some(MtsTid(2))));
        let rest: Vec<(usize, u32)> = q.iter().map(|(p, t)| (p, t.0)).collect();
        assert_eq!(
            rest,
            [(2, 0), (2, 1), (2, 3), (6, 9)],
            "the others keep their order"
        );
    }

    #[test]
    fn any_at_or_above_looks_only_at_equal_or_higher_levels() {
        let mut q = RunQueue::default();
        assert!(!q.any_at_or_above(15));
        q.push(5, MtsTid(0));
        assert!(!q.any_at_or_above(4), "a lower level never wins a yield");
        assert!(q.any_at_or_above(5));
        assert!(q.any_at_or_above(15));
        q.pop(|_| 0);
        assert!(!q.any_at_or_above(15));
    }

    /// Against a plain model — a list of (level, tid) kept in push order —
    /// under arbitrary pushes and picks: the queue pops by level first and
    /// push order within a level, whatever member a pick selects.
    #[test]
    fn matches_a_model_under_random_pushes_and_picks() {
        prop::check("run_queue_model", 256, |g| {
            let mut q = RunQueue::default();
            let mut model: Vec<(usize, u32)> = Vec::new();
            let mut next = 0u32;
            for _ in 0..g.range(0..200) {
                if g.range(0..2) == 0 {
                    let prio = g.range(0..PRIORITY_LEVELS as u64) as usize;
                    q.push(prio, MtsTid(next));
                    model.push((prio, next));
                    next += 1;
                } else {
                    let choice = g.range(0..8) as usize;
                    let got = q.pop(|n| choice % n);
                    let want = model.iter().map(|&(p, _)| p).min().map(|top| {
                        let members: Vec<usize> =
                            (0..model.len()).filter(|&i| model[i].0 == top).collect();
                        model.remove(members[choice % members.len()]).1
                    });
                    assert_eq!(got.map(|t| t.0), want);
                }
                let got: Vec<(usize, u32)> = q.iter().map(|(p, t)| (p, t.0)).collect();
                let mut want = model.clone();
                want.sort_by_key(|&(p, _)| p); // stable: push order within a level
                assert_eq!(got, want);
            }
        });
    }
}
