//! The determinism lint against a fixture exercising every rule, the
//! cross-file `dead-surface` rule over an in-memory workspace, plus the
//! guarantee that the repository's own sources are clean.

use ncs_analysis::{lint_file, lint_sources, lint_workspace, LINT_RULES};
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
    // fixture covers the other four.
    let mut fired: Vec<&str> = lint_file("crates/core/src/fixture.rs", FIXTURE)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    fired.extend(
        lint_file("crates/sim/src/time.rs", "let x: f64 = 0.0;\n")
            .into_iter()
            .map(|v| v.rule),
    );
    let dead = lint_sources(&[("crates/a/src/lib.rs", "pub fn f() {}\n")]);
    fired.extend(dead.iter().map(|v| v.rule));
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

/// `crates/a` defines one item per case; the other files consume some.
const DEFS: &str = "pub fn only_in_cfg_test() {}
pub fn only_in_tests_dir() {}
pub fn only_reexported() {}
pub struct OnlyInOwnImpl;
impl OnlyInOwnImpl {
    pub fn new() -> OnlyInOwnImpl { OnlyInOwnImpl }
}
impl Default for OnlyInOwnImpl {
    fn default() -> Self { OnlyInOwnImpl::new() }
}
pub fn used_by_other_crate() {}
pub fn used_by_example() {}
pub fn used_by_benchmark() {}
pub fn shares_a_live_name() {}
pub fn only_privately_redefined() {}
pub fn only_privately_called() {}
pub fn kept_by_qualified_call() {}
pub fn kept_by_method_call() {}
pub fn only_called_as_own_private_method() {}
pub fn kept_by_other_types_self_call() {}
pub fn allowed_here() {} // ncs-lint: allow(dead-surface) kept on purpose
// ncs-lint: allow(dead-surface) kept on purpose
pub fn allowed_above() {}
pub fn allowed_without_reason() {} // ncs-lint: allow(dead-surface)
#[cfg(test)]
mod tests {
    fn t() { super::only_in_cfg_test(); }
}
";

#[test]
fn dead_surface_flags_items_only_tests_or_their_reexport_name() {
    let v = lint_sources(&[
        ("crates/a/src/lib.rs", "pub mod defs;\npub use defs::only_reexported;\n"),
        ("crates/a/src/defs.rs", DEFS),
        ("crates/a/tests/t.rs", "fn t() { a::only_in_tests_dir(); }\n"),
        ("crates/b/src/lib.rs", "pub fn shares_a_live_name() {}\nfn f() { shares_a_live_name(); a::used_by_other_crate(); }\n"),
        ("examples/e.rs", "fn main() { a::used_by_example(); }\n"),
        (
            "benchmark/src/main.rs",
            "fn main() { a::used_by_benchmark(); }\nfn only_privately_redefined(x: u8) {}\n\
             fn only_privately_called() {}\nfn kept_by_qualified_call() {}\nfn kept_by_method_call() {}\n\
             fn g() { only_privately_called(); kept_by_qualified_call(); a::kept_by_qualified_call(); }\n\
             fn h(x: X) { kept_by_method_call(); x.kept_by_method_call(); }\n",
        ),
        ("crates/c/src/lib.rs", "pub(crate) fn only_privately_redefined() {}\n"),
        (
            "crates/d/src/lib.rs",
            "struct S;\nimpl S {\n    fn only_called_as_own_private_method(&self) {}\n    \
             fn kept_by_other_types_self_call(&self) {}\n    \
             fn go(&self) { self.only_called_as_own_private_method(); }\n}\n\
             impl T {\n    fn go(&self) { self.kept_by_other_types_self_call(); }\n}\n",
        ),
    ]);
    assert!(v.iter().all(|x| x.rule == "dead-surface"), "{v:#?}");
    let flagged: Vec<&str> = v.iter().map(|x| x.snippet.as_str()).collect();
    assert_eq!(
        flagged,
        [
            "pub fn only_in_cfg_test() {}",
            "pub fn only_in_tests_dir() {}",
            "pub fn only_reexported() {}",
            "pub struct OnlyInOwnImpl;",
            "pub fn only_privately_redefined() {}",
            "pub fn only_privately_called() {}",
            "pub fn only_called_as_own_private_method() {}",
            "pub fn allowed_without_reason() {} // ncs-lint: allow(dead-surface)",
        ]
    );
}
