//! Pluggable schedule policy: the decision-point seam for schedule
//! exploration.
//!
//! The simulator is deterministic, but several of its scheduling decisions
//! are *conventions*, not requirements: which of several same-timestamp
//! kernel events pops first, which runnable thread within an MTS priority
//! level dispatches next, which cell of a multi-cell PDU a rolled fault
//! lands on. Correct protocol code must produce the same observable
//! behaviour under **any** resolution of those choices. This module names
//! each such choice point ([`ChoicePoint`]), routes it through an optional
//! [`SchedulePolicy`], and records every decision taken into a
//! [`DecisionLog`] so a failing schedule replays deterministically.
//!
//! With no policy installed the kernel never consults this module and the
//! canonical choice (index 0 — lowest seq, round-robin head, first cell)
//! is taken on the exact same code path as before, keeping the golden
//! trace byte-identical.
//!
//! The replayable trace format is a whitespace-separated list of
//! `point:arity:chosen` triples (`e`=event tie-break, `r`=runnable
//! rotation, `f`=fault timing), e.g. `e:3:1 r:2:1`. Lines starting with
//! `#` are comments. [`format_trace`] and [`parse_trace`] round-trip it.

use std::sync::Arc;

use crate::sync::Mutex;

use crate::rng::SimRng;

/// A named class of legal scheduling choice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ChoicePoint {
    /// Which of several same-timestamp kernel events pops next.
    EventTieBreak,
    /// Which runnable thread within the top non-empty MTS priority level
    /// dispatches next (strict priority between levels is a hard rule and
    /// never a choice).
    RunnableRotation,
    /// Which cell of a multi-cell PDU a rolled fault lands on.
    FaultTiming,
}

impl ChoicePoint {
    /// One-letter code used by the trace format.
    pub fn code(self) -> char {
        match self {
            ChoicePoint::EventTieBreak => 'e',
            ChoicePoint::RunnableRotation => 'r',
            ChoicePoint::FaultTiming => 'f',
        }
    }

    /// Inverse of [`ChoicePoint::code`].
    pub fn from_code(c: char) -> Option<ChoicePoint> {
        match c {
            'e' => Some(ChoicePoint::EventTieBreak),
            'r' => Some(ChoicePoint::RunnableRotation),
            'f' => Some(ChoicePoint::FaultTiming),
            _ => None,
        }
    }
}

/// One resolved choice: at a [`ChoicePoint`] with `arity` legal
/// alternatives, alternative `chosen` was taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Which class of choice this was.
    pub point: ChoicePoint,
    /// How many legal alternatives existed (always >= 2; unary "choices"
    /// are not consulted or recorded).
    pub arity: u32,
    /// The alternative taken, in `[0, arity)`. 0 is always the canonical
    /// default-schedule choice.
    pub chosen: u32,
}

/// A scheduling policy consulted at every [`ChoicePoint`] with two or
/// more legal alternatives. Implementations must be deterministic given
/// their construction parameters — the whole point is replayability.
pub trait SchedulePolicy: Send {
    /// Picks one of `arity` alternatives (`arity >= 2`). The returned
    /// index must be `< arity`.
    fn choose(&mut self, point: ChoicePoint, arity: usize) -> usize;
}

/// Shared record of every decision a policy took during one run, in
/// consultation order. The exploration engine keeps one side of the
/// [`Arc`] and reads it back after the run to build a replay trace.
#[derive(Default)]
pub struct DecisionLog {
    decisions: Mutex<Vec<Decision>>,
}

impl DecisionLog {
    /// A fresh, empty log.
    pub fn new() -> Arc<DecisionLog> {
        Arc::new(DecisionLog::default())
    }

    /// Appends one decision.
    pub fn record(&self, d: Decision) {
        self.decisions.lock().push(d);
    }

    /// Number of decisions recorded so far.
    pub fn len(&self) -> usize {
        self.decisions.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the decisions recorded so far.
    pub fn snapshot(&self) -> Vec<Decision> {
        self.decisions.lock().clone()
    }
}

/// Seeded random-walk policy: every choice is an independent uniform
/// draw from a [`SimRng`]. Same seed, same walk.
pub struct RandomWalkPolicy {
    rng: SimRng,
    log: Arc<DecisionLog>,
}

impl RandomWalkPolicy {
    /// A walk driven by `seed`, recording into `log`.
    pub fn new(seed: u64, log: Arc<DecisionLog>) -> RandomWalkPolicy {
        RandomWalkPolicy {
            rng: SimRng::new(seed),
            log,
        }
    }
}

impl SchedulePolicy for RandomWalkPolicy {
    fn choose(&mut self, point: ChoicePoint, arity: usize) -> usize {
        debug_assert!(arity >= 2, "unary choices must not be consulted");
        let chosen = self.rng.gen_index(arity);
        self.log.record(Decision {
            point,
            arity: arity as u32,
            chosen: chosen as u32,
        });
        chosen
    }
}

/// Replays a prescribed prefix of choices; past the end of the script
/// every choice falls back to the canonical 0. Out-of-range prescriptions
/// are clamped to `arity - 1` (a schedule drifting from the one that
/// produced the script can legally present a smaller arity).
pub struct ScriptedPolicy {
    script: Vec<u32>,
    cursor: usize,
    log: Arc<DecisionLog>,
}

impl ScriptedPolicy {
    /// A policy following `script`, recording the choices actually taken
    /// (post-clamp, including the trailing defaults) into `log`.
    pub fn new(script: Vec<u32>, log: Arc<DecisionLog>) -> ScriptedPolicy {
        ScriptedPolicy {
            script,
            cursor: 0,
            log,
        }
    }
}

impl SchedulePolicy for ScriptedPolicy {
    fn choose(&mut self, point: ChoicePoint, arity: usize) -> usize {
        debug_assert!(arity >= 2, "unary choices must not be consulted");
        let prescribed = self.script.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        let chosen = (prescribed as usize).min(arity - 1);
        self.log.record(Decision {
            point,
            arity: arity as u32,
            chosen: chosen as u32,
        });
        chosen
    }
}

/// Serializes decisions into the replayable trace format.
pub fn format_trace(decisions: &[Decision]) -> String {
    let mut out = String::from("# ncs schedule trace v1\n");
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            out.push(if i % 16 == 0 { '\n' } else { ' ' });
        }
        out.push_str(&format!("{}:{}:{}", d.point.code(), d.arity, d.chosen));
    }
    out.push('\n');
    out
}

/// Parses the trace format produced by [`format_trace`]. Comment lines
/// (`#`) and blank lines are skipped.
pub fn parse_trace(s: &str) -> Result<Vec<Decision>, String> {
    let mut out = Vec::new();
    for line in s.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for tok in line.split_whitespace() {
            let mut parts = tok.split(':');
            let (Some(p), Some(a), Some(c), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("malformed decision `{tok}` (want point:arity:chosen)"));
            };
            let point = p
                .chars()
                .next()
                .filter(|_| p.len() == 1)
                .and_then(ChoicePoint::from_code)
                .ok_or_else(|| format!("unknown choice point `{p}` in `{tok}`"))?;
            let arity: u32 = a.parse().map_err(|_| format!("bad arity in `{tok}`"))?;
            let chosen: u32 = c.parse().map_err(|_| format!("bad choice in `{tok}`"))?;
            if arity < 2 || chosen >= arity {
                return Err(format!("inconsistent decision `{tok}`"));
            }
            out.push(Decision {
                point,
                arity,
                chosen,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_is_seed_deterministic_and_in_range() {
        let arities = [2usize, 3, 5, 2, 17, 4];
        let run = |seed| {
            let log = DecisionLog::new();
            let mut p = RandomWalkPolicy::new(seed, log.clone());
            for &a in &arities {
                let c = p.choose(ChoicePoint::EventTieBreak, a);
                assert!(c < a);
            }
            log.snapshot()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7)
                .iter()
                .map(|d| d.chosen)
                .collect::<Vec<_>>(),
            run(8).iter().map(|d| d.chosen).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn scripted_policy_follows_then_defaults() {
        let log = DecisionLog::new();
        let mut p = ScriptedPolicy::new(vec![1, 9, 0], log.clone());
        assert_eq!(p.choose(ChoicePoint::RunnableRotation, 2), 1);
        assert_eq!(p.choose(ChoicePoint::EventTieBreak, 3), 2, "clamped");
        assert_eq!(p.choose(ChoicePoint::EventTieBreak, 4), 0);
        assert_eq!(p.choose(ChoicePoint::FaultTiming, 5), 0, "past end");
        let log = log.snapshot();
        assert_eq!(log.len(), 4);
        assert_eq!(log[1].chosen, 2, "log holds the post-clamp choice");
    }

    #[test]
    fn trace_round_trips() {
        let decisions = vec![
            Decision {
                point: ChoicePoint::EventTieBreak,
                arity: 3,
                chosen: 1,
            },
            Decision {
                point: ChoicePoint::RunnableRotation,
                arity: 2,
                chosen: 1,
            },
            Decision {
                point: ChoicePoint::FaultTiming,
                arity: 5,
                chosen: 4,
            },
        ];
        let text = format_trace(&decisions);
        assert_eq!(parse_trace(&text).unwrap(), decisions);
        // A long trace wraps lines and still round-trips.
        let long: Vec<Decision> = (0..100)
            .map(|i| Decision {
                point: ChoicePoint::EventTieBreak,
                arity: 4,
                chosen: i % 4,
            })
            .collect();
        assert_eq!(parse_trace(&format_trace(&long)).unwrap(), long);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("e:3").is_err());
        assert!(parse_trace("x:3:1").is_err());
        assert!(parse_trace("e:3:3").is_err(), "chosen out of range");
        assert!(parse_trace("e:1:0").is_err(), "unary arity");
        assert!(parse_trace("# comment only\n\n").unwrap().is_empty());
    }
}
