//! Source-level determinism lint.
//!
//! The reproduction's core promise is bit-exact replay: the same seed must
//! produce the same trace hash on every run and every machine. That promise
//! is easy to break silently — one `HashMap` iteration in a hot path, one
//! `Instant::now()` leaking wall-clock time into virtual time — and the
//! breakage only shows up as a flaky determinism test much later. This lint
//! rejects the dangerous constructions at the source level, where the
//! offending line is named directly.
//!
//! Rules (stable identifiers, usable in `allow` escapes):
//!
//! * `hash-collection` — `HashMap`/`HashSet` in simulation-facing code.
//!   Their iteration order depends on `RandomState`; use `BTreeMap`/
//!   `BTreeSet` (or an index-keyed `Vec`) instead.
//! * `wall-clock` — `Instant::now`/`SystemTime` anywhere but the real-time
//!   pacing shim (`crates/core/src/real.rs`), the one module allowed to
//!   observe the host clock.
//! * `thread-spawn` — raw OS threads. Everywhere: `std::thread::spawn` /
//!   `thread::Builder`. Inside the kernel/scheduler hot paths
//!   (`crates/sim/src`, `crates/mts/src`): **any** `std::thread` use at all
//!   (`park`, `sleep`, `current`, …) — since the green-thread engine moved
//!   to in-process coroutines, nothing there may touch OS threads; even a
//!   "harmless" `thread::yield_now` would smuggle OS scheduling into the
//!   deterministic dispatch path. File-scoped exemptions: the OS-thread
//!   fallback engine (`sim/src/engine/os_thread.rs`) and the real-time
//!   shim (`core/src/real.rs`).
//! * `unseeded-rand` — entropy-seeded randomness (`thread_rng`,
//!   `from_entropy`, `rand::random`, `from_os_rng`, `OsRng`). Use
//!   `ncs_sim::SimRng` with an explicit seed.
//! * `float-time` — `f32`/`f64` inside the simulation clock
//!   (`crates/sim/src/time.rs`). Time is integer picoseconds; float
//!   arithmetic there would make event ordering platform-dependent. The
//!   explicitly-allowed conversion helpers at the display/config boundary
//!   carry `allow` escapes.
//! * `guard-across-park` — a `lock()` guard (a `let` binding, or a
//!   `match`/`if let`/`while let` scrutinee temporary, which lives to the
//!   end of the block) still in scope at a park/block/yield point
//!   (`park(`, `.block()`, `.block_on(`, `yield_now(`, `kernel_wait(`).
//!   Under the baton protocol the parked thread keeps the mutex locked
//!   while another green thread runs — the classic recipe for a
//!   self-deadlock or a lost wakeup. Drop the guard (end its scope or
//!   `drop(guard)`) before parking.
//!
//! A line (or the line directly below the comment) is exempted with:
//!
//! ```text
//! // ncs-lint: allow(rule-a, rule-b)
//! ```
//!
//! Rule names in `allow` may use `-` or `_` interchangeably
//! (`allow(guard_across_park)` works).
//!
//! Dead code is the compiler's: rustc's `dead_code` for crate-private
//! items, and the census in `tests/census.rs` for `pub` ones
//! ([`census_candidates`]), whose escape is `allow(dead-surface) <reason>`.
//!
//! Comments and string/char literals are stripped before matching, so doc
//! comments may freely *mention* `HashMap`; `#[cfg(test)]` items and
//! modules are skipped entirely (tests may use whatever they like — the
//! determinism suite catches them if they matter).

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Every rule identifier the lint knows, in reporting order.
pub const LINT_RULES: &[&str] = &[
    "hash-collection",
    "wall-clock",
    "thread-spawn",
    "unseeded-rand",
    "float-time",
    "guard-across-park",
];

/// The sources the workspace lint reads, but for each crate's `tests/`.
const LINT_ROOTS: &[&str] = &["crates", "examples", "src"];

/// One lint hit: a rule, a location, and the offending source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintViolation {
    /// Which rule fired (one of [`LINT_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub(crate) file: String,
    /// 1-based line number.
    pub line: usize,
    /// The raw source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Carried across lines: are we inside a block comment or a multi-line
/// string literal?
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum LexState {
    #[default]
    Code,
    BlockComment(u32),
    Str,
    /// Raw string literal; payload is the number of `#`s in the delimiter.
    RawStr(u32),
}

/// Strips comments and string/char literals from one source line, carrying
/// `state` across lines (nested block comments and multi-line strings).
/// Stripped spans are replaced with spaces so column math stays sane.
fn strip_line(raw: &str, state: LexState) -> (String, LexState) {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    let mut st = state;
    while let Some(c) = chars.next() {
        match st {
            LexState::BlockComment(depth) => {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    st = if depth > 1 {
                        LexState::BlockComment(depth - 1)
                    } else {
                        LexState::Code
                    };
                } else if c == '/' && chars.peek() == Some(&'*') {
                    chars.next();
                    st = LexState::BlockComment(depth + 1);
                }
            }
            LexState::Str => {
                if c == '\\' {
                    chars.next();
                } else if c == '"' {
                    st = LexState::Code;
                }
            }
            LexState::RawStr(hashes) => {
                // No escapes; closes only on `"` followed by exactly
                // `hashes` `#`s.
                if c == '"' {
                    let mut la = chars.clone();
                    let mut seen = 0u32;
                    while seen < hashes && la.next() == Some('#') {
                        seen += 1;
                    }
                    if seen == hashes {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        st = LexState::Code;
                    }
                }
            }
            LexState::Code => match c {
                '/' if chars.peek() == Some(&'/') => break, // line comment
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    st = LexState::BlockComment(1);
                }
                '"' => st = LexState::Str,
                'r' => {
                    // Possible raw-string opener: `r"…"` or `r#"…"#` (also
                    // reached as the `r` of `br"…"`). Lookahead: zero or
                    // more `#` then `"`; raw identifiers (`r#foo`) fail the
                    // quote check and fall through as ordinary code.
                    let mut la = chars.clone();
                    let mut hashes = 0u32;
                    while la.peek() == Some(&'#') {
                        la.next();
                        hashes += 1;
                    }
                    if la.peek() == Some(&'"') {
                        for _ in 0..=hashes {
                            chars.next(); // the `#`s and the opening quote
                        }
                        st = LexState::RawStr(hashes);
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Char literal or lifetime. A literal is 'x' or an
                    // escape; a lifetime ('a, 'static) has no closing quote
                    // right after its (identifier) body.
                    let mut la = chars.clone();
                    match la.next() {
                        Some('\\') => {
                            // Escape: consume through the closing quote.
                            chars.next();
                            for c2 in chars.by_ref() {
                                if c2 == '\'' {
                                    break;
                                }
                            }
                        }
                        Some(_) if la.next() == Some('\'') => {
                            chars.next();
                            chars.next();
                        }
                        _ => {} // lifetime: keep scanning normally
                    }
                }
                _ => out.push(c),
            },
        }
    }
    // A line comment never carries over; anything else does.
    (out, st)
}

/// A `lock()` guard known to be live: a `let` binding (dies when its
/// scope closes or on `drop(name)`) or a `match`/`if let`/`while let`
/// scrutinee temporary (dies when the block it governs closes).
struct LiveGuard {
    /// Binding name, `None` for scrutinee temporaries.
    name: Option<String>,
    /// Brace depth at the start of the line that created the guard.
    bind_depth: i64,
    /// Scrutinee temporaries outlive the *block*, not the statement.
    scrutinee: bool,
    /// A scrutinee's governed block has been entered (depth went above
    /// `bind_depth`); when depth returns, the guard is dead.
    entered: bool,
}

/// The binding name of a `let [mut] name = ...` statement on this line
/// (not necessarily at line start), if any.
fn let_binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let at = if t.starts_with("let ") {
        0
    } else {
        t.find(" let ")? + 1
    };
    let rest = t[at + "let ".len()..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// True when the statement *keeps* the guard: the call chain after
/// `.lock(` at `lock_pos` ends the statement (optionally via `.unwrap()`
/// or `.expect(…)`). `let n = q.lock().len();` borrows through a
/// temporary that dies at the `;` and holds nothing. String literals are
/// already stripped, so `.expect("…")` reads `.expect()` here.
fn binds_guard(code: &str, lock_pos: usize) -> bool {
    let Some(after) = code[lock_pos + ".lock(".len()..].strip_prefix(')') else {
        return false;
    };
    let after = after
        .strip_prefix(".unwrap()")
        .or_else(|| after.strip_prefix(".expect()"))
        .unwrap_or(after);
    after.trim_start().starts_with(';')
}

/// Byte positions of park/block/yield tokens in a stripped code line.
/// Definition lines (`fn park(...)`) are not calls and never count;
/// `park(` requires a non-identifier character before it so `unpark(`
/// does not match.
fn park_positions(code: &str) -> Vec<usize> {
    const TOKENS: &[&str] = &[
        "park(",
        ".block()",
        ".block_on(",
        "yield_now(",
        "kernel_wait(",
    ];
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for t in TOKENS {
        let mut from = 0;
        while let Some(i) = code[from..].find(t) {
            let pos = from + i;
            // Tokens starting with an identifier char need a word
            // boundary before them (`unpark(` is not `park(`); a leading
            // `.` is its own boundary.
            let boundary = t.starts_with('.')
                || pos == 0
                || {
                    let c = bytes[pos - 1] as char;
                    !(c.is_alphanumeric() || c == '_')
                };
            // `fn park(...)` is a definition, not a call.
            let definition = code[..pos].trim_end().ends_with("fn");
            if boundary && !definition {
                out.push(pos);
            }
            from = pos + t.len();
        }
    }
    out.sort_unstable();
    out
}

/// What follows the parenthesis when raw line `idx` or the one above
/// carries `ncs-lint: allow(...)` naming `rule` (`-` and `_`
/// interchangeable): a reason, or nothing.
fn allowed<'a>(lines: &[&'a str], idx: usize, rule: &str) -> Option<&'a str> {
    lines[idx.saturating_sub(1)..=idx].iter().find_map(|raw| {
        let (_, rest) = raw.split_once("ncs-lint: allow(")?;
        let (rules, reason) = rest.split_once(')')?;
        rules.split(',').any(|r| r.trim().replace('_', "-") == rule).then_some(reason)
    })
}

/// The census's escape: `allow(dead-surface)` with a reason.
fn escaped(lines: &[&str], idx: usize) -> bool {
    allowed(lines, idx, "dead-surface").is_some_and(|reason| !reason.trim().is_empty())
}

/// The lines of `source` outside `#[cfg(test)]` items, as `(index, brace
/// depth before the line, code)` with comments and literals stripped.
fn code_lines(source: &str) -> Vec<(usize, i64, String)> {
    let mut out = Vec::new();
    let mut lex = LexState::default();
    let mut depth: i64 = 0;
    // `Some(d)`: inside a `#[cfg(test)]` item opened at brace depth `d`;
    // skip until depth returns to `d`.
    let mut skip_below: Option<i64> = None;
    // A `#[cfg(test)]` attribute was seen and its item hasn't opened yet.
    let mut pending_cfg_test = false;
    for (idx, raw) in source.lines().enumerate() {
        let (code, next_lex) = strip_line(raw, lex);
        lex = next_lex;
        let opens = code.matches('{').count() as i64;
        // Attribute form only — `#[cfg(not(test))]` and `#[cfg_attr(test,
        // …)]` items are real code and must not be exempted.
        let compact: String = code.chars().filter(|ch| !ch.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]") || compact.contains("#![cfg(test)]") {
            pending_cfg_test = true;
        }
        // The attribute through the item's `{` or `;` (a multi-line
        // signature, a `use`) is test code too.
        let skipping = pending_cfg_test || skip_below.is_some();
        if pending_cfg_test && skip_below.is_none() {
            if opens > 0 {
                // The test item's body opens here: skip from the depth the
                // brace was opened at.
                skip_below = Some(depth);
                pending_cfg_test = false;
            } else if code.contains(';') {
                // e.g. `#[cfg(test)] use ncs_sim::prop;`
                pending_cfg_test = false;
            }
        }
        let depth_before = depth;
        depth += opens - code.matches('}').count() as i64;
        if skip_below.is_some_and(|d| depth <= d) {
            skip_below = None;
        }
        if !skipping {
            out.push((idx, depth_before, code));
        }
    }
    out
}

/// Lints one file. `rel_path` is the workspace-relative path with forward
/// slashes — rule scoping (the `real.rs` exemptions, the `float-time`
/// clock-only scope) keys off it.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<LintViolation> {
    let is_real_shim = rel_path.ends_with("core/src/real.rs");
    let is_sim_clock = rel_path == "crates/sim/src/time.rs";
    // The fallback green-thread engine is the one sanctioned OS-thread
    // site in the simulator (kept for differential testing against the
    // coroutine engine); its scoped exemption lives here, not in escape
    // comments, so a stray `std::thread` elsewhere cannot copy it.
    let is_engine_fallback = rel_path.ends_with("sim/src/engine/os_thread.rs");
    // Kernel/scheduler hot paths: any OS-thread API is banned outright.
    let is_hot_path =
        rel_path.starts_with("crates/sim/src") || rel_path.starts_with("crates/mts/src");

    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    let mut guards: Vec<LiveGuard> = Vec::new();

    for (idx, depth_before, code) in code_lines(source) {
        let raw = raw_lines[idx];
        let opens = code.matches('{').count() as i64;
        let depth = depth_before + opens - code.matches('}').count() as i64;

        let mut hit = |rule: &'static str| {
            if allowed(&raw_lines, idx, rule).is_none() {
                out.push(LintViolation {
                    rule,
                    file: rel_path.to_string(),
                    line: idx + 1,
                    snippet: raw.trim().to_string(),
                });
            }
        };

        if code.contains("HashMap") || code.contains("HashSet") {
            hit("hash-collection");
        }
        if !is_real_shim && (code.contains("Instant::now") || code.contains("SystemTime")) {
            hit("wall-clock");
        }
        if !is_real_shim && !is_engine_fallback {
            let spawns = code.contains("thread::spawn") || code.contains("thread::Builder");
            let any_os_thread_api = is_hot_path && code.contains("std::thread");
            if spawns || any_os_thread_api {
                hit("thread-spawn");
            }
        }
        if code.contains("thread_rng")
            || code.contains("from_entropy")
            || code.contains("rand::random")
            || code.contains("from_os_rng")
            || code.contains("OsRng")
        {
            hit("unseeded-rand");
        }
        if is_sim_clock && (code.contains("f64") || code.contains("f32")) {
            hit("float-time");
        }

        // --- guard-across-park ---
        // An explicit `drop(name)` releases a named guard; process drops
        // first so `drop(g); ...park()` on one line stays clean.
        if code.contains("drop(") {
            guards.retain(|g| {
                g.name
                    .as_ref()
                    .is_none_or(|n| !code.contains(&format!("drop({n})")))
            });
        }
        let had_live_guard = !guards.is_empty();
        let lock_pos = code.find(".lock(");
        // A guard created on this line only conflicts with parks *after*
        // the lock position.
        let mut new_guard_lock: Option<usize> = None;
        if let Some(lp) = lock_pos {
            if let_binding_name(&code).is_some() && binds_guard(&code, lp) {
                guards.push(LiveGuard {
                    name: let_binding_name(&code),
                    bind_depth: depth_before,
                    scrutinee: false,
                    entered: false,
                });
                new_guard_lock = Some(lp);
            } else if code.contains("match ")
                || code.contains("if let ")
                || code.contains("while let ")
            {
                guards.push(LiveGuard {
                    name: None,
                    bind_depth: depth_before,
                    scrutinee: true,
                    // A one-line `match m.lock() { … }` is already closed.
                    entered: opens > 0 && depth <= depth_before,
                });
                new_guard_lock = Some(lp);
            }
        }
        let fires = park_positions(&code).into_iter().any(|pp| {
            had_live_guard
                || new_guard_lock.is_some_and(|lp| pp > lp)
                // Plain expression temporary: dead at the `;`, live before.
                || (new_guard_lock.is_none()
                    && lock_pos.is_some_and(|lp| pp > lp && !code[lp..pp].contains(';')))
        });
        if fires {
            hit("guard-across-park");
        }
        // Scope closes kill guards: a binding dies when its enclosing
        // block does; a scrutinee dies when the block it governs closes.
        guards.retain_mut(|g| {
            if g.scrutinee {
                if depth > g.bind_depth {
                    g.entered = true;
                    true
                } else {
                    !g.entered && depth == g.bind_depth
                }
            } else {
                depth >= g.bind_depth
            }
        });
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The whole-word identifiers in a stripped code line.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| !c.is_ascii_digit()))
}

/// The name a `pub` fn, struct, enum, trait, type, const or static defined
/// on this (stripped, trimmed) line introduces: not a field, a `use` or a
/// `mod`. `pub(crate)` and its kin are not `pub`.
fn pub_item_name(code: &str) -> Option<&str> {
    const KINDS: &str = "fn struct enum trait type const static";
    let mut words = code.strip_prefix("pub ")?.split_whitespace().peekable();
    while let Some(w) = words.next() {
        let fn_const = w == "const" && words.peek().is_some_and(|n| matches!(*n, "fn" | "unsafe"));
        if fn_const || matches!(w, "unsafe" | "async" | "extern") {
            continue;
        }
        let is_kind = KINDS.split(' ').any(|k| k == w);
        return is_kind.then(|| idents(words.next()?).next()).flatten();
    }
    None
}

/// One `pub` item the census (`tests/census.rs`) narrows to `pub(crate)`
/// to see whether every target still compiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PubItem {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// The item's name.
    pub name: String,
    /// 0-based line of its `pub`.
    pub line: usize,
}

/// The census's candidates among `(workspace-relative path, source)` pairs:
/// every `pub` fn, struct, enum, trait, type, const and static under
/// `crates/*/src` outside `#[cfg(test)]`, but not one escaped (on its line,
/// the one above or its `pub mod m;`), nor an `is_empty` beside a `pub fn
/// len` (clippy's `len_without_is_empty` wants the pair).
pub fn census_candidates(files: &[(&str, &str)]) -> Vec<PubItem> {
    let defining = |path: &&str| path.starts_with("crates/") && path.contains("/src/");
    // An escaped `pub mod m;` in `dir/lib.rs` (or `main.rs`, `mod.rs`) is
    // `dir/m.rs` or `dir/m/`; in `dir/x.rs` it is `dir/x/m.rs` or `dir/x/m/`.
    let mut escaped_mods = Vec::new();
    for (path, source) in files.iter().filter(|f| defining(&f.0)) {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => path.trim_end_matches(".rs"),
        };
        let raw: Vec<&str> = source.lines().collect();
        for (_, line) in raw.iter().enumerate().filter(|l| escaped(&raw, l.0)) {
            let m = line.trim().strip_prefix("pub mod ").and_then(|m| m.split(';').next());
            escaped_mods.extend(m.map(|m| format!("{dir}/{m}")));
        }
    }
    let in_escaped = |path: &str| {
        escaped_mods
            .iter()
            .any(|m| path == format!("{m}.rs") || path.starts_with(&format!("{m}/")))
    };
    let mut out = Vec::new();
    for &(path, source) in files.iter().filter(|f| defining(&f.0) && !in_escaped(f.0)) {
        let raw: Vec<&str> = source.lines().collect();
        // Candidates with their block (the line that opened it), and the
        // blocks that define a `pub fn len`.
        let (mut found, mut with_len) = (Vec::new(), BTreeSet::new());
        // Per brace depth, the last line that started at it.
        let mut last = Vec::new();
        for (idx, depth, code) in code_lines(source) {
            let depth = depth.max(0) as usize;
            last.resize(depth + 1, idx);
            last[depth] = idx;
            let Some(name) = pub_item_name(code.trim()) else {
                continue;
            };
            let block = depth.checked_sub(1).map(|d| last[d]);
            if name == "len" {
                with_len.extend(block);
            }
            if !escaped(&raw, idx) {
                let (file, name) = (path.to_string(), name.to_string());
                found.push((block, PubItem { file, name, line: idx }));
            }
        }
        let pair = |(block, c): &(Option<usize>, PubItem)| {
            c.name == "is_empty" && block.is_some_and(|b| with_len.contains(&b))
        };
        out.extend(found.into_iter().filter(|f| !pair(f)).map(|f| f.1));
    }
    out
}

/// Lints every file under `root`'s `LINT_ROOTS` but test code (a `tests/`
/// directory), where the suite itself enforces determinism.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintViolation>> {
    let mut out = Vec::new();
    for sub in LINT_ROOTS {
        let mut paths = Vec::new();
        rs_files(&root.join(sub), &mut paths)?;
        for f in paths {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if !rel.split('/').any(|c| c == "tests") {
                out.extend(lint_file(&rel, &fs::read_to_string(&f)?));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = "/// docs may mention HashMap freely\n\
                   let s = \"HashMap in a string\";\n\
                   /* block HashMap comment */ let x = 1;\n";
        assert!(lint_file("crates/core/src/env.rs", src).is_empty());
    }

    #[test]
    fn allow_covers_same_and_next_line() {
        let src = "// ncs-lint: allow(hash-collection)\n\
                   use std::collections::HashMap;\n\
                   use std::collections::HashSet;\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn raw_strings_are_stripped() {
        // `r"…\"` must not treat the backslash as an escape, and interior
        // quotes in `r#"…"#` must not terminate the literal early — either
        // desync would hide (or invent) the real HashMap on the last line.
        let src = "let a = r\"HashMap \\\";\n\
                   let b = r#\"HashMap \" still inside\"#;\n\
                   use std::collections::HashMap;\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn raw_identifiers_stay_code() {
        let src = "let r#type = HashMap::new();\n";
        assert_eq!(lint_file("crates/core/src/env.rs", src).len(), 1);
    }

    #[test]
    fn cfg_not_test_and_cfg_attr_are_not_exempt() {
        let src = "#[cfg(not(test))]\n\
                   mod m {\n\
                       use std::collections::HashMap;\n\
                   }\n\
                   #[cfg_attr(test, allow(dead_code))]\n\
                   fn f() {\n\
                       use std::collections::HashSet;\n\
                   }\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 7);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                   }\n\
                   use std::collections::HashSet;\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn real_shim_is_exempt_from_clock_and_threads() {
        let src = "let t = Instant::now();\nstd::thread::spawn(f);\n";
        assert!(lint_file("crates/core/src/real.rs", src).is_empty());
        assert_eq!(lint_file("crates/core/src/env.rs", src).len(), 2);
    }

    #[test]
    fn fallback_engine_file_is_exempt_from_thread_spawn() {
        let src = "let h = std::thread::Builder::new().spawn(body);\n";
        assert!(lint_file("crates/sim/src/engine/os_thread.rs", src).is_empty());
        // Same code anywhere else in the kernel is a violation.
        let v = lint_file("crates/sim/src/engine/mod.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "thread-spawn");
    }

    #[test]
    fn former_shard_coordinator_file_is_flagged_for_thread_spawn() {
        // The simulator runs on one OS thread: a worker spawned where the
        // sharded-run coordinator used to live is a violation like anywhere
        // else in the kernel. Only the fallback engine and the real-time
        // shim keep a thread-spawn exemption.
        let src = "std::thread::Builder::new().spawn_scoped(scope, body);\nstd::thread::scope(|s| run(s));\n";
        let v = lint_file("crates/sim/src/shard.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == "thread-spawn"));
    }

    #[test]
    fn any_std_thread_use_is_flagged_in_hot_paths() {
        // Not a spawn — but park/sleep/current would still smuggle OS
        // scheduling into the deterministic dispatch path.
        let src = "std::thread::park();\n";
        for hot in ["crates/sim/src/kernel.rs", "crates/mts/src/sched.rs"] {
            let v = lint_file(hot, src);
            assert_eq!(v.len(), 1, "expected a hit in {hot}");
            assert_eq!(v[0].rule, "thread-spawn");
        }
        // Outside the hot paths only spawn/Builder fire.
        assert!(lint_file("crates/core/src/env.rs", src).is_empty());
        assert_eq!(
            lint_file("crates/core/src/env.rs", "std::thread::spawn(f);\n").len(),
            1
        );
    }

    #[test]
    fn float_time_only_fires_in_the_sim_clock() {
        let src = "pub fn secs(x: f64) -> f64 { x }\n";
        assert_eq!(lint_file("crates/sim/src/time.rs", src).len(), 1);
        assert!(lint_file("crates/sim/src/other.rs", src).is_empty());
    }

    #[test]
    fn guard_binding_live_across_park_is_flagged() {
        let src = "fn f(m: &M) {\n\
                       let g = m.inner.lock();\n\
                       g.touch();\n\
                       ctx.park();\n\
                   }\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-across-park");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn guard_released_before_park_is_clean() {
        // The idiomatic pattern everywhere in the runtime: take the lock
        // in an inner block (or drop it explicitly), then park.
        let scoped = "fn f(m: &M) {\n\
                          {\n\
                              let g = m.inner.lock();\n\
                              g.touch();\n\
                          }\n\
                          ctx.park();\n\
                      }\n";
        assert!(lint_file("crates/core/src/env.rs", scoped).is_empty());
        let dropped = "fn f(m: &M) {\n\
                           let g = m.inner.lock();\n\
                           g.touch();\n\
                           drop(g);\n\
                           ctx.park();\n\
                       }\n";
        assert!(lint_file("crates/core/src/env.rs", dropped).is_empty());
    }

    #[test]
    fn borrowing_let_temporary_does_not_hold_the_guard() {
        // `let n = q.lock().len();` drops the guard at the `;` — parking
        // afterwards is fine.
        let src = "fn f(m: &M) {\n\
                       let n = m.q.lock().len();\n\
                       ctx.park();\n\
                       let _ = n;\n\
                   }\n";
        assert!(lint_file("crates/core/src/env.rs", src).is_empty());
    }

    #[test]
    fn match_scrutinee_guard_lives_through_the_block() {
        // The PR2 bug class: a `match m.lock().pop() { … }` scrutinee
        // temporary keeps the mutex locked for the whole match.
        let src = "fn f(m: &M) {\n\
                       match m.q.lock().pop() {\n\
                           Some(x) => consume(x),\n\
                           None => mctx.block(),\n\
                       }\n\
                       ctx.park();\n\
                   }\n";
        let v = lint_file("crates/core/src/env.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4, "the block() inside the match is the bug");
    }

    #[test]
    fn same_line_order_matters() {
        // Park before the lock is taken: clean. Park after: flagged.
        let before = "fn f() {\n\
                          ctx.park(); let g = m.lock();\n\
                      }\n";
        assert!(lint_file("crates/core/src/env.rs", before).is_empty());
        let after = "fn f() {\n\
                         let g = m.lock(); ctx.park();\n\
                     }\n";
        let v = lint_file("crates/core/src/env.rs", after);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "guard-across-park");
    }

    #[test]
    fn unpark_and_definitions_are_not_park_points() {
        let src = "fn f(m: &M) {\n\
                       let g = m.inner.lock();\n\
                       g.unpark();\n\
                   }\n";
        assert!(lint_file("crates/core/src/env.rs", src).is_empty());
    }

    #[test]
    fn guard_across_park_allow_accepts_underscores() {
        let src = "fn f(m: &M) {\n\
                       let g = m.inner.lock();\n\
                       // ncs-lint: allow(guard_across_park)\n\
                       ctx.park();\n\
                   }\n";
        assert!(lint_file("crates/core/src/env.rs", src).is_empty());
    }
}
