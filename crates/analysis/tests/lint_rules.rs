//! The determinism lint against a fixture exercising every rule, plus the
//! guarantee that the repository's own sources are clean.

use ncs_analysis::{lint_file, lint_workspace, LINT_RULES};
use std::path::Path;

const FIXTURE: &str = include_str!("fixtures/determinism_cases.rs.txt");

#[test]
fn every_rule_fires_where_planted() {
    let v = lint_file("crates/core/src/fixture.rs", FIXTURE);
    let hits: Vec<(&str, usize)> = v.iter().map(|x| (x.rule, x.line)).collect();
    assert_eq!(
        hits,
        vec![
            ("hash-collection", 5),
            ("wall-clock", 9),
            ("wall-clock", 10),
            ("thread-spawn", 14),
            ("thread-spawn", 15),
            ("unseeded-rand", 19),
            ("unseeded-rand", 20),
            ("hash-collection", 49),
            ("guard-across-park", 55),
            ("guard-across-park", 59),
            ("guard-across-park", 75),
        ],
        "full report: {v:#?}"
    );
}

#[test]
fn allow_escape_suppresses_and_scoping_rules_hold() {
    // The fixture's `allowed()` body would add four more hits without the
    // escapes; assert none of its lines (25-27) appear.
    let v = lint_file("crates/core/src/fixture.rs", FIXTURE);
    assert!(
        v.iter().all(|x| !(25..=27).contains(&x.line)),
        "allow escape failed: {v:#?}"
    );
    // The real-time shim may touch the host clock and OS threads.
    let v = lint_file("crates/core/src/real.rs", FIXTURE);
    assert!(
        v.iter().all(|x| x.rule != "wall-clock" && x.rule != "thread-spawn"),
        "real.rs exemption failed: {v:#?}"
    );
    // float-time fires only inside the simulation clock source.
    let clock = "pub fn frac(x: f64) -> f32 { x as f32 }\n";
    assert_eq!(lint_file("crates/sim/src/time.rs", clock).len(), 1);
    assert!(lint_file("crates/sim/src/kernel.rs", clock).is_empty());
}

#[test]
fn fixture_covers_every_rule() {
    // `float-time` is path-scoped, so check it via the clock path; the
    // fixture covers the other five.
    let mut fired: Vec<&str> = lint_file("crates/core/src/fixture.rs", FIXTURE)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    fired.extend(
        lint_file("crates/sim/src/time.rs", "let x: f64 = 0.0;\n")
            .into_iter()
            .map(|v| v.rule),
    );
    for rule in LINT_RULES {
        assert!(fired.contains(rule), "rule {rule} never fired");
    }
}

#[test]
fn repository_sources_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let v = lint_workspace(root).expect("workspace readable");
    assert!(v.is_empty(), "determinism lint violations:\n{v:#?}");
}
