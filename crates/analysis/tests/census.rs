//! The `pub` census: the compiler, not name matching, decides whether a
//! `pub` item under `crates/*/src` needs to be `pub`. The ignored
//! `every_pub_item_is_used_outside_its_crate` narrows each candidate to
//! `pub(crate)` in turn, in a copy of the tree under `target/census/`, and
//! fails on every one with which every workspace target and the
//! `benchmark/` package still compile. Crate-private dead code fails CI's
//! `-D warnings` build.
//!
//! ```text
//! cargo test --release --offline --package ncs-analysis --test census -- --ignored
//! ```

use ncs_analysis::{census_candidates, lint::PubItem};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

/// `crates/a/src/lib.rs`: one candidate per item kind among the cases the
/// finder must skip: fields, `pub use`, `pub mod`, `pub(crate)`, test code,
/// escapes, an `is_empty` beside a `pub fn len` and a trait-impl method.
const LIB: &str = "pub mod plain;
// ncs-lint: allow(dead-surface) a harness other crates' tests run on
pub mod escaped;
pub use plain::Log;
pub(crate) fn already_narrow() {}
pub fn escaped_here() {} // ncs-lint: allow(dead-surface) the paper's API
// ncs-lint: allow(dead-surface) the paper's API
pub struct EscapedAbove(
    pub u8,
);
/// An escape without a reason does not count.
pub const PLANTED: u8 = 1; // ncs-lint: allow(dead-surface)
pub static TABLE: [u8; 2] = [0, 1];
pub type Handler = fn(u8);
pub trait Hook { fn hook(&self); }
pub enum Mode { Fast }
pub struct Log {
    pub entries: Vec<u8>,
}
impl Log {
    pub fn len(&self) -> usize { self.entries.len() }
    pub fn is_empty(&self) -> bool { self.entries.is_empty() }
}
impl Hook for Log { fn hook(&self) {} }
#[cfg(test)]
mod tests { pub fn test_helper() {} }
#[cfg(test)]
pub fn test_only() {}
";

#[test]
fn candidate_finder_takes_one_item_per_kind_and_skips_fields_uses_mods_tests_and_escapes() {
    let found = census_candidates(&[
        ("crates/a/src/lib.rs", LIB),
        ("crates/a/src/plain.rs", "pub(crate) struct Narrow;\n"),
        ("crates/a/src/escaped.rs", "pub fn in_escaped_mod() {}\n"),
        ("crates/a/src/escaped/deep.rs", "pub struct Deeper;\n"),
        ("crates/a/tests/t.rs", "pub fn in_tests_dir() {}\n"),
        ("examples/e.rs", "pub fn in_example() {}\n"),
    ]);
    let got = found
        .iter()
        .map(|c| format!("{}:{} {}", c.file, c.line, c.name));
    let want = "11 PLANTED, 12 TABLE, 13 Handler, 14 Hook, 15 Mode, 16 Log, 20 len";
    let want = want
        .split(", ")
        .map(|item| format!("crates/a/src/lib.rs:{item}"));
    assert_eq!(got.collect::<Vec<_>>(), want.collect::<Vec<_>>());
}

/// Copies `from` to `to` without build output, collecting the `.rs` files
/// with their workspace-relative paths.
fn copy_tree(from: &Path, to: &Path, rel: &str, sources: &mut Vec<(String, String)>) {
    if from.is_file() {
        if rel.ends_with(".rs") {
            sources.push((rel.to_string(), fs::read_to_string(from).expect("reads")));
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

/// `cargo check` of `manifest`'s `args`, failing as CI's build would on a
/// `pub` signature naming a crate-private type; dead code only warns.
fn check(tree: &Path, build: &Path, manifest: &str, args: &str) -> bool {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["check", "--offline", "--quiet", "--manifest-path"])
        .arg(tree.join(manifest))
        .args(args.split_whitespace())
        .env("CARGO_TARGET_DIR", build)
        .env("RUSTFLAGS", "-D private_interfaces -D private_bounds")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .stderr(Stdio::null())
        .status()
        .expect("cargo runs")
        .success()
}

/// Every workspace target, then the benchmark package.
fn compiles(tree: &Path, build: &Path) -> bool {
    let workspace = "--workspace --all-targets";
    check(tree, build, "Cargo.toml", workspace) && check(tree, build, BENCHMARK, "")
}

const BENCHMARK: &str = "benchmark/Cargo.toml";

/// The packages from the bottom of the stack up: a check of one builds
/// only the ones before it.
const LAYERS: &str =
    "ncs-sim ncs-net ncs-mts ncs-p4 ncs-core ncs-apps ncs-analysis ncs-bench ncs benchmark";

/// The manifest and `cargo check` arguments of the one target that builds
/// `file`, ranked by its package's place in [`LAYERS`]: member
/// `crates/<dir>` is `ncs-<dir>`, the root's `src`, `tests` and `examples`
/// are `ncs`. `None` for the benchmark's shims.
fn target_of(file: &str) -> Option<(Option<usize>, &'static str, String)> {
    let rank = |package: &str| LAYERS.split(' ').position(|l| l == package);
    let (package, rest) = match file.split_once('/')? {
        ("crates", rest) => rest
            .split_once('/')
            .map(|(dir, rest)| (format!("ncs-{dir}"), rest))?,
        ("benchmark", rest) => {
            return rest
                .starts_with("src/")
                .then(|| (rank("benchmark"), BENCHMARK, String::new()))
        }
        _ => ("ncs".to_string(), file),
    };
    let target = match rest.trim_end_matches(".rs").split_once('/')? {
        ("src", path) => path
            .strip_prefix("bin/")
            .map_or("--lib".into(), |b| format!("--bin {b}")),
        ("tests", test) => format!("--test {test}"),
        ("examples", example) => format!("--example {example}"),
        _ => "--all-targets".into(),
    };
    let args = format!("--package {package} {target}");
    Some((rank(&package), "Cargo.toml", args))
}

/// Whether `text` has `word` as a whole word.
fn names(text: &str, word: &str) -> bool {
    text.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == word)
}

/// `source` with every `pub use` of `name` (a leaf of its path or of its
/// braced list) made `pub(crate)`: a re-export alone does not need `name`
/// to be `pub`. Such statements come out on one line each.
fn narrow_reexports(source: &str, name: &str) -> String {
    let mut out = Vec::new();
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        let Some(mut stmt) = line.trim_start().strip_prefix("pub use ").map(String::from) else {
            out.push(line.to_string());
            continue;
        };
        while !stmt.contains(';') {
            stmt += lines.next().expect("a `pub use` ends in `;`").trim();
        }
        let (path, list) = stmt
            .trim_end_matches(';')
            .rsplit_once("::")
            .expect("a path");
        let leaves: Vec<&str> = list
            .trim_matches(['{', '}'])
            .split(',')
            .map(str::trim)
            .collect();
        if !leaves.contains(&name) {
            out.push(format!("pub use {stmt}"));
            continue;
        }
        let kept: Vec<&str> = leaves
            .into_iter()
            .filter(|l| !l.is_empty() && *l != name)
            .collect();
        out.push(format!("pub use {path}::{{{}}};", kept.join(", ")));
        out.push(format!("pub(crate) use {path}::{name};"));
    }
    out.join("\n") + "\n"
}

#[test]
fn reexports_of_the_candidate_alone_are_narrowed() {
    let src = "mod a;\npub use a::{Keep, Gone};\npub use a::Gone;\npub use a::{\n    Gone,\n};\npub use b::Gone2;\n";
    assert_eq!(
        narrow_reexports(src, "Gone"),
        "mod a;\npub use a::{Keep};\npub(crate) use a::Gone;\npub use a::{};\npub(crate) use a::Gone;\n\
         pub use a::{};\npub(crate) use a::Gone;\npub use b::Gone2;\n"
    );
}

/// Whether every target still compiles with `c` narrowed to `pub(crate)`
/// in `tree`, which is restored afterwards.
fn narrowable(tree: &Path, build: &Path, pairs: &[(&str, &str)], c: &PubItem) -> bool {
    // The candidate's crate: its re-exports go with it.
    let krate = c.file.split('/').take(3).collect::<Vec<_>>().join("/") + "/";
    let mut edited = Vec::new();
    for (file, text) in pairs.iter().filter(|p| p.0.starts_with(&krate)) {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        if *file == c.file {
            lines[c.line] = lines[c.line].replacen("pub ", "pub(crate) ", 1);
        }
        let new = narrow_reexports(&(lines.join("\n") + "\n"), &c.name);
        if new.trim_end() != text.trim_end() {
            fs::write(tree.join(file), new).expect("source writes");
            edited.push((file, text));
        }
    }
    // The targets naming the item outside its crate's `src` are checked
    // first, one at a time from the bottom of the stack up: a failure there
    // settles it without the whole workspace.
    let mut users = BTreeSet::new();
    for (file, text) in pairs {
        if !file.starts_with(&krate) && names(text, &c.name) {
            users.extend(target_of(file));
        }
    }
    let quick = (users.iter()).all(|(_, manifest, args)| check(tree, build, manifest, args));
    let narrowable = quick && compiles(tree, build);
    for (file, text) in edited {
        fs::write(tree.join(file), text).expect("source restores");
    }
    narrowable
}

#[test]
#[ignore = "narrows each pub item in turn and re-checks the workspace: minutes"]
fn every_pub_item_is_used_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    // One copy of the tree and one build directory per worker: the checkout
    // is never edited, and building `benchmark/` rewrites its lock.
    let census = root.join("target/census");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut sources = Vec::new();
    for w in 0..workers {
        let tree = census.join(format!("tree{w}"));
        let _ = fs::remove_dir_all(&tree);
        fs::create_dir_all(&tree).expect("tree directory");
        sources.clear();
        for part in "Cargo.toml Cargo.lock src tests crates examples benchmark".split(' ') {
            copy_tree(&root.join(part), &tree.join(part), part, &mut sources);
        }
    }
    let pairs: Vec<(&str, &str)> = sources.iter().map(|(f, t)| (&f[..], &t[..])).collect();
    let candidates = census_candidates(&pairs);
    let wide: Vec<&PubItem> = std::thread::scope(|s| {
        let (pairs, candidates, census) = (&pairs, &candidates, &census);
        let runs: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let tree = census.join(format!("tree{w}"));
                    let build = census.join(format!("build{w}"));
                    assert!(compiles(&tree, &build), "the copy does not compile");
                    let mine = candidates.iter().skip(w).step_by(workers);
                    mine.filter(|c| narrowable(&tree, &build, pairs, c))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        runs.into_iter()
            .flat_map(|r| r.join().expect("worker finishes"))
            .collect()
    });
    let wide: Vec<String> = (wide.iter())
        .map(|c| format!("{}:{}: pub {}", c.file, c.line + 1, c.name))
        .collect();
    assert!(
        wide.is_empty(),
        "{} pub item(s) that still compile as pub(crate): narrow each (then rustc settles whether \
         it is used at all), or escape it with `// ncs-lint: allow(dead-surface) <the artefact, \
         gate or harness that claims it>`\n{}",
        wide.len(),
        wide.join("\n")
    );
}
