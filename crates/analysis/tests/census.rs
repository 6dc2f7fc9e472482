//! The `pub fn` census: the compiler, not name matching, decides whether a
//! `pub fn` under `crates/*/src` has a caller. The ignored
//! `every_pub_fn_has_a_caller` cuts each candidate in turn from a copy of
//! the tree under `target/census/` and fails on every one without which the
//! workspace's libs, bins and examples and the `benchmark/` package still
//! compile. Escaped fns (`// ncs-lint: allow(dead-surface) <reason>` on the
//! fn or its `pub mod`) are no candidates.
//!
//! ```text
//! cargo test --release --offline --package ncs-analysis --test census -- --ignored
//! ```

use ncs_analysis::census_candidates;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

/// `crates/a/src/lib.rs`: one planted unused fn among the cases the finder
/// must skip.
const LIB: &str = "pub mod plain;
// ncs-lint: allow(dead-surface) a harness other crates' tests run on
pub mod escaped;
/// Planted: nothing calls it.
#[inline]
pub fn planted(x: u8) -> u8 {
    x + 1
}
pub fn escaped_here() {} // ncs-lint: allow(dead-surface) the paper's API
// ncs-lint: allow(dead-surface) the paper's API
pub fn escaped_above() {}
pub type Handler = fn(u8);
pub struct Log(Vec<u8>);
impl Log {
    pub fn is_empty(&self) -> bool { self.0.is_empty() }
    pub fn len(&self) -> usize { self.0.len() }
}
impl Default for Log { fn default() -> Self { Log(Vec::new()) } }
pub struct Bag;
impl Bag {
    pub const fn is_empty(&self) -> bool { true }
}
#[cfg(test)]
mod tests { pub fn test_helper() {} }
#[cfg(test)]
pub fn test_only() {}
";

#[test]
fn candidate_finder_skips_tests_escapes_trait_impls_and_is_empty_beside_len() {
    let found = census_candidates(&[
        ("crates/a/src/lib.rs", LIB),
        ("crates/a/src/plain.rs", "pub fn in_plain_mod() {}\n"),
        ("crates/a/src/escaped.rs", "pub fn in_escaped_mod() {}\n"),
        ("crates/a/src/escaped/deep.rs", "pub fn deeper() {}\n"),
        ("crates/a/tests/t.rs", "pub fn in_tests_dir() {}\n"),
        ("examples/e.rs", "pub fn in_example() {}\n"),
    ]);
    let got: Vec<String> = found
        .iter()
        .map(|c| {
            format!(
                "{} {} free={} line {} cut {:?}",
                &c.file[13..],
                c.name,
                c.free,
                c.line,
                c.span
            )
        })
        .collect();
    // The cut takes the doc comment and the attribute with the body.
    assert_eq!(
        got,
        [
            "lib.rs planted free=true line 5 cut 3..8",
            "lib.rs len free=false line 15 cut 15..16",
            "lib.rs is_empty free=false line 20 cut 20..21",
            "plain.rs in_plain_mod free=true line 0 cut 0..1",
        ]
    );
}

/// Copies `from` to `to` without build output, collecting the `.rs` files
/// under `crates/*/src` as workspace-relative paths.
fn copy_tree(from: &Path, to: &Path, rel: &str, sources: &mut Vec<String>) {
    if from.is_file() {
        if rel.starts_with("crates/") && rel.contains("/src/") && rel.ends_with(".rs") {
            sources.push(rel.to_string());
        }
        fs::copy(from, to).expect("file copies");
        return;
    }
    fs::create_dir_all(to).expect("directory copies");
    for e in fs::read_dir(from).expect("directory reads") {
        let name = e.expect("entry").file_name().to_string_lossy().into_owned();
        if name != "target" {
            let (from, to) = (from.join(&name), to.join(&name));
            copy_tree(&from, &to, &format!("{rel}/{name}"), sources);
        }
    }
}

/// `cargo check` of the workspace's libs, bins and examples, then of the
/// benchmark package. Lints are capped at warnings: a helper only the cut
/// fn called turns dead, which is no reason to keep the fn.
fn compiles(tree: &Path, build: &Path) -> bool {
    let check = |manifest: &str, args: &[&str]| {
        Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["check", "--offline", "--quiet", "--manifest-path"])
            .arg(tree.join(manifest))
            .args(args)
            .env("CARGO_TARGET_DIR", build)
            .env("RUSTFLAGS", "--cap-lints=warn")
            .env_remove("CARGO_ENCODED_RUSTFLAGS")
            .stderr(Stdio::null())
            .status()
            .expect("cargo runs")
            .success()
    };
    let workspace = ["--workspace", "--lib", "--bins", "--examples"];
    check("Cargo.toml", &workspace) && check("benchmark/Cargo.toml", &[])
}

#[test]
#[ignore = "cuts each pub fn in turn and re-checks the workspace: minutes"]
fn every_pub_fn_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    // The checkout is never edited: building `benchmark/` rewrites its lock.
    let census = root.join("target/census");
    let (tree, build) = (census.join("tree"), census.join("build"));
    let _ = fs::remove_dir_all(&tree);
    fs::create_dir_all(&tree).expect("tree directory");
    let mut sources = Vec::new();
    for part in "Cargo.toml Cargo.lock src tests crates examples benchmark".split(' ') {
        copy_tree(&root.join(part), &tree.join(part), part, &mut sources);
    }
    assert!(compiles(&tree, &build), "the copy does not compile");
    let texts: Vec<String> = sources
        .iter()
        .map(|f| fs::read_to_string(tree.join(f)).expect("reads"))
        .collect();
    let pairs: Vec<(&str, &str)> = sources
        .iter()
        .map(|f| &f[..])
        .zip(texts.iter().map(|t| &t[..]))
        .collect();
    let mut dead = Vec::new();
    for c in census_candidates(&pairs) {
        let path = tree.join(&c.file);
        let original = fs::read_to_string(&path).expect("source reads");
        // A free fn leaves a module of its name behind: a `pub use` of it
        // still resolves, a call does not.
        let stub = c.free.then(|| format!("pub mod {} {{}}\n", c.name));
        let lines: Vec<&str> = original.lines().collect();
        let cut = [
            lines[..c.span.start].join("\n"),
            stub.unwrap_or_default() + &lines[c.span.end..].join("\n"),
        ];
        fs::write(&path, cut.join("\n")).expect("source writes");
        if compiles(&tree, &build) {
            dead.push(format!("{}:{}: pub fn {}", c.file, c.line + 1, c.name));
        }
        fs::write(&path, original).expect("source restores");
    }
    assert!(
        dead.is_empty(),
        "{} pub fn(s) with no caller in the workspace or the benchmark: delete each, or escape it \
         with `// ncs-lint: allow(dead-surface) <the artefact, gate or harness that claims it>`\n{}",
        dead.len(),
        dead.join("\n")
    );
}
