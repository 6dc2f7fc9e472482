//! Seeded property tests on [`SimRng`]: [`check`] runs a closure over
//! `cases` generated inputs, a failure names a seed, [`replay`] re-runs it.
//!
//! A property is a closure over a [`Gen`] that draws its inputs with plain
//! calls and asserts with `assert!`; an input it has no opinion on is an
//! early `return`. The case seed is a hash of the property's name split by
//! the case index, so a property sees the same cases on every run and
//! machine. A failing case is re-run with every [`Gen::range`] draw (and so
//! every length and choice built on it) halved towards its lower bound, again
//! and again while it still fails, and the smallest failure is the one
//! reported.
//!
//! ```
//! ncs_sim::prop::check("reverse_twice_is_identity", 64, |g| {
//!     let xs = g.vec(0..100, |g| g.range(0..1000));
//!     let mut ys = xs.clone();
//!     ys.reverse();
//!     ys.reverse();
//!     assert_eq!(xs, ys);
//! });
//! ```

use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::kernel::panic_message;
use crate::SimRng;

/// How many draws a failure report lists.
const DRAWS_SHOWN: usize = 16;

/// The input source handed to a property: one case's random stream.
pub struct Gen {
    rng: SimRng,
    halvings: u32,
    /// The first [`DRAWS_SHOWN`] values [`Gen::range`] returned.
    draws: Vec<u64>,
    /// Largest distance of any draw from its lower bound.
    widest: u64,
}

impl Gen {
    /// Uniform integer in `range` (`a..b` or `a..=b`). Panics on an empty
    /// range.
    pub fn range(&mut self, range: impl RangeBounds<u64>) -> u64 {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_sub(1).expect("empty range"),
            Bound::Unbounded => u64::MAX,
        };
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let offset = match (hi - lo).checked_add(1) {
            Some(span) => self.rng.gen_range(span),
            None => self.rng.next_u64(),
        } >> self.halvings;
        self.widest = self.widest.max(offset);
        if self.draws.len() < DRAWS_SHOWN {
            self.draws.push(lo + offset);
        }
        lo + offset
    }

    /// A fair coin; halves to `false`.
    pub fn bool(&mut self) -> bool {
        self.range(0..2) == 1
    }

    /// One element of `options`; halves towards the first.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.range(0..options.len() as u64) as usize]
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn by `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<u64>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// The case's raw stream, for draws that halving should leave alone
    /// (floats, shuffles, seeding a workload's own RNG).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// One failing run of a property.
struct Failure {
    seed: u64,
    halvings: u32,
    draws: Vec<u64>,
    widest: u64,
    message: String,
}

fn run_case(seed: u64, halvings: u32, property: &impl Fn(&mut Gen)) -> Result<(), Failure> {
    let mut g = Gen {
        rng: SimRng::new(seed),
        halvings,
        draws: Vec::new(),
        widest: 0,
    };
    catch_unwind(AssertUnwindSafe(|| property(&mut g))).map_err(|payload| Failure {
        seed,
        halvings,
        draws: g.draws,
        widest: g.widest,
        message: panic_message(payload.as_ref()),
    })
}

/// Runs the case `seed` names; if it fails, halves its draws while it still
/// fails and returns the smallest failing run.
fn falsify(seed: u64, property: &impl Fn(&mut Gen)) -> Option<Failure> {
    let mut failure = run_case(seed, 0, property).err()?;
    // `widest == 0`: every draw already sits on its lower bound.
    while failure.widest > 0 && failure.halvings < 63 {
        match run_case(seed, failure.halvings + 1, property) {
            Err(smaller) => failure = smaller,
            Ok(()) => break,
        }
    }
    Some(failure)
}

fn report(what: &str, f: &Failure) -> ! {
    panic!(
        "{what} failed: {}\n  case seed {:#018x}, draws halved {} time(s), first draws {:?}\n  \
         re-run just this case with: ncs_sim::prop::replay({:#018x}, |g| {{ /* the property */ }});",
        f.message, f.seed, f.halvings, f.draws, f.seed
    )
}

/// Seed of case `index` of the property called `name`.
fn case_seed(name: &str, index: u32) -> u64 {
    SimRng::new(0)
        .split_str(name)
        .split(u64::from(index))
        .next_u64()
}

/// Runs `property` on `cases` inputs generated from `name`. Panics on the
/// first failing case, after halving it, with the case seed and a
/// [`replay`] line.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Gen)) {
    for index in 0..cases {
        if let Some(f) = falsify(case_seed(name, index), &property) {
            report(&format!("property '{name}', case {index} of {cases},"), &f);
        }
    }
}

/// Runs `property` on the single case a [`check`] failure named.
// ncs-lint: allow(dead-surface) a failing check prints this call for the reader to paste into a test
pub fn replay(seed: u64, property: impl Fn(&mut Gen)) {
    if let Some(f) = falsify(seed, &property) {
        report("replayed case", &f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Lengths a `check` of `name` draws, one per case.
    fn lengths(name: &str, cases: u32) -> Vec<u64> {
        let seen = RefCell::new(Vec::new());
        check(name, cases, |g| {
            seen.borrow_mut().push(g.range(0..1_000_000))
        });
        seen.into_inner()
    }

    #[test]
    fn same_name_same_cases_and_cases_is_honoured() {
        let a = lengths("some_property", 40);
        assert_eq!(a.len(), 40);
        assert_eq!(a, lengths("some_property", 40));
        assert_eq!(a[..7], lengths("some_property", 7)[..]);
        assert_ne!(a, lengths("another_property", 40));
        // Forty draws from a million values: the cases differ from each other.
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 35);
    }

    #[test]
    fn draws_stay_in_range_and_halve_towards_the_lower_bound() {
        for halvings in [0, 1, 5, 63] {
            let mut g = Gen {
                rng: SimRng::new(9),
                halvings,
                draws: Vec::new(),
                widest: 0,
            };
            for _ in 0..200 {
                assert!((10..20).contains(&g.range(10..20)));
                assert!((10..=20).contains(&g.range(10..=20)));
                assert!((3..=5).contains(&g.vec(3..=5, |g| g.bool()).len()));
                assert!([7, 8, 9].contains(g.pick(&[7, 8, 9])));
            }
            if halvings == 63 {
                assert_eq!(g.widest, 0);
                assert_eq!(g.range(10..20), 10);
                assert!(!g.bool());
                assert_eq!(*g.pick(&[7, 8, 9]), 7);
            }
            // The full span has no `hi - lo + 1`.
            g.range(..);
        }
    }

    /// A property with a planted bug: it rejects every vector of seven or
    /// more elements.
    fn planted(g: &mut Gen) {
        let v = g.vec(0..400, |g| g.range(0..256) as u8);
        assert!(v.len() < 7, "planted failure at len {}", v.len());
    }

    #[test]
    fn a_failure_names_a_seed_that_replay_reproduces() {
        let caught = catch_unwind(|| check("planted", 64, planted)).expect_err("planted bug found");
        let text = panic_message(caught.as_ref());
        assert!(text.contains("property 'planted'"), "{text}");
        assert!(text.contains("planted failure at len"), "{text}");
        let line = text.lines().last().expect("replay line");
        let hex = line
            .split("replay(0x")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("seed in the replay line");
        let seed = u64::from_str_radix(hex, 16).expect("hex seed");

        let again = catch_unwind(|| replay(seed, planted)).expect_err("replay fails too");
        let again = panic_message(again.as_ref());
        // Same case, same halving, same message: everything after the
        // heading is identical.
        assert_eq!(
            again.split_once(" failed: ").expect("heading").1,
            text.split_once(" failed: ").expect("heading").1
        );
        // A seed the property passes on replays silently.
        let passing = (0..)
            .map(|i| case_seed("planted", i))
            .find(|&s| falsify(s, &planted).is_none());
        replay(passing.expect("some case is shorter than 7"), planted);
    }

    #[test]
    fn halving_drives_a_planted_length_failure_to_its_edge() {
        let mut shrunk = 0;
        for index in 0..64 {
            let seed = case_seed("planted", index);
            let Err(original) = run_case(seed, 0, &planted) else {
                continue;
            };
            let f = falsify(seed, &planted).expect("fails unhalved, so fails");
            // One more halving would pass, so the length is within 2x of 7.
            let len = f.draws[0];
            assert!((7..14).contains(&len), "case {index} stopped at len {len}");
            assert_eq!(f.message, format!("planted failure at len {len}"));
            if original.draws[0] >= 14 {
                assert!(f.halvings > 0);
                shrunk += 1;
            }
        }
        assert!(shrunk > 32, "only {shrunk} of 64 cases needed halving");
    }
}
