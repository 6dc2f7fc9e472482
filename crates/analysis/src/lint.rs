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
//! * `dead-surface` — a `pub` fn/struct/enum/trait/type/const/static/mod
//!   under `crates/*/src` whose name, as a whole word, occurs in no other
//!   non-test code under `crates/*/src`, `src/`, `examples/` or the frozen
//!   `benchmark/src`. Not references: a line defining an item of that
//!   name (its own, or another of any visibility: a private `fn X`
//!   elsewhere does not keep `pub fn X` alive), a bare `X` (after neither
//!   `.` nor `::`) in a file whose top level defines a non-`pub` `X`, a
//!   `self.X` in an `impl` of a type whose non-`pub` method `X` the same
//!   file defines, the `impl` blocks of that same type, and what a
//!   `pub use` / `pub mod` line declares (only its path segments before a
//!   `::` count) — so an item only tests or its own re-export name is
//!   flagged. Matching is by name,
//!   not by resolved path, so a name shared with any live item (or a local,
//!   a field, a `#[cfg(test)] mod x;` file read as code) counts as used:
//!   the rule misses some dead items but never reports a live one.
//!
//! A line (or the line directly below the comment) is exempted with:
//!
//! ```text
//! // ncs-lint: allow(rule-a, rule-b)
//! ```
//!
//! Rule names in `allow` may use `-` or `_` interchangeably
//! (`allow(guard_across_park)` works). An `allow(dead-surface)` counts only
//! with its reason after the parenthesis, on the same line.
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
// ncs-lint: allow(dead-surface) the rule list tests/lint_rules.rs checks the fixture covers
pub const LINT_RULES: &[&str] = &[
    "hash-collection",
    "wall-clock",
    "thread-spawn",
    "unseeded-rand",
    "float-time",
    "guard-across-park",
    "dead-surface",
];

/// The sources the workspace lint reads: every crate (whose `tests/` then
/// drop out, see [`lint_sources`]), the examples, the root crate, and the
/// frozen benchmark package.
const LINT_ROOTS: &[&str] = &["crates", "examples", "src", "benchmark/src"];

/// One lint hit: a rule, a location, and the offending source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintViolation {
    /// Which rule fired (one of [`LINT_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
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

/// True when raw line `idx` or the one above carries `ncs-lint:
/// allow(...)` naming `rule` (`-` and `_` interchangeable). A
/// `dead-surface` allow counts only with its reason after the parenthesis.
fn allowed(lines: &[&str], idx: usize, rule: &str) -> bool {
    lines[idx.saturating_sub(1)..=idx].iter().any(|raw| {
        let (_, rest) = raw.split_once("ncs-lint: allow(").unwrap_or_default();
        rest.split_once(')').is_some_and(|(rules, reason)| {
            rules.split(',').any(|r| r.trim().replace('_', "-") == rule)
                && (rule != "dead-surface" || !reason.trim().is_empty())
        })
    })
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
/// clock-only scope) keys off it. `dead-surface` needs every file at once
/// and runs in [`lint_sources`].
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
            if !allowed(&raw_lines, idx, rule) {
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

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The whole-word identifiers in a stripped code line.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| !c.is_ascii_digit()))
}

/// The name a `pub` item defined on this (stripped, trimmed) line
/// introduces. `pub(crate)` and its kin are not `pub`.
fn pub_item_name(code: &str) -> Option<&str> {
    item_name(code.strip_prefix("pub ")?)
}

/// The name an item of any visibility defined on this (stripped, trimmed)
/// line introduces.
fn item_name(code: &str) -> Option<&str> {
    const KINDS: &str = "fn struct enum trait type const static mod";
    let code = match code.strip_prefix("pub") {
        Some(rest) if rest.starts_with(' ') => rest,
        Some(rest) if rest.starts_with('(') => &rest[rest.find(')')? + 1..],
        _ => code,
    };
    let mut words = code.split_whitespace().peekable();
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

/// The self type of an `impl` header on this (stripped, trimmed) line: the
/// last path segment after `for` (or after `impl<…>`), generics dropped.
fn impl_self_type(code: &str) -> Option<&str> {
    let code = code.strip_prefix("unsafe ").unwrap_or(code);
    let mut rest = code.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            depth == 0
        })?;
        rest = &rest[close + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let head = rest.split('{').next()?.split(" where").next()?;
    let ty = head.rsplit(" for ").next()?;
    idents(ty.split('<').next()?.rsplit("::").next()?).last()
}

/// `dead-surface`: every `pub` item defined outside `#[cfg(test)]` under
/// `crates/*/src` whose name occurs in no other non-test code of `files`
/// (see the module docs for what does not count as a reference).
fn dead_surface(files: &[(&str, &str)]) -> Vec<LintViolation> {
    let mut defs: Vec<LintViolation> = Vec::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for &(path, source) in files {
        let defining = path.starts_with("crates/") && path.contains("/src/");
        let raw: Vec<&str> = source.lines().collect();
        // The `impl` block we are in: (self type, header depth, body opened).
        let mut imp: Option<(String, i64, bool)> = None;
        let mut in_pub_use = false;
        let lines = code_lines(source);
        // Non-`pub` items defined at this file's top level: a bare use of
        // one of these names in this file is that item, not a `pub` one.
        let local: BTreeSet<&str> = lines
            .iter()
            .filter(|l| l.1 == 0 && pub_item_name(l.2.trim()).is_none())
            .filter_map(|l| item_name(l.2.trim()))
            .collect();
        // `self.m` calls by `impl` type, and the non-`pub` methods this
        // file's `impl` blocks define: a call of one of those is not a use.
        let (mut self_calls, mut methods) = (Vec::new(), BTreeSet::new());
        for &(idx, depth, ref code) in &lines {
            let t = code.trim();
            if imp.is_none() {
                imp = impl_self_type(t).map(|ty| (ty.to_string(), depth, false));
            }
            in_pub_use |= t.starts_with("pub use ");
            if defining && pub_item_name(t).is_some() && !allowed(&raw, idx, "dead-surface") {
                defs.push(LintViolation {
                    rule: "dead-surface",
                    file: path.to_string(),
                    line: idx + 1,
                    snippet: raw[idx].trim().to_string(),
                });
            }
            let own_type = imp.as_ref().map(|i| i.0.as_str());
            if let (Some((ty, header, _)), None) = (&imp, pub_item_name(t)) {
                let method = item_name(t).filter(|_| depth == header + 1);
                methods.extend(method.map(|m| (ty.clone(), m.to_string())));
            }
            // `w` is a slice of `t`: the code before it on the line.
            let before = |w: &str| t[..w.as_ptr() as usize - t.as_ptr() as usize].trim_end();
            let refs: Vec<&str> = if in_pub_use || t.starts_with("pub mod ") {
                // Only the path segments: the leaves are what is re-exported.
                let heads = t.split("::").take(t.matches("::").count());
                heads.filter_map(|head| idents(head).last()).collect()
            } else {
                let defined = item_name(t);
                let other = |w: &&str| Some(*w) != defined && Some(*w) != own_type;
                // Bare: after neither `.` nor `::`.
                let own_local = |w: &&str| {
                    let before = before(w);
                    local.contains(w) && !before.ends_with('.') && !before.ends_with("::")
                };
                idents(t).filter(|w| other(w) && !own_local(w)).collect()
            };
            for w in refs {
                let on_self = before(w).strip_suffix("self.");
                match own_type.filter(|_| on_self.is_some_and(|b| !b.ends_with(is_ident_char))) {
                    Some(ty) => self_calls.push((ty.to_string(), w.to_string())),
                    None => _ = used.insert(w.to_string()),
                }
            }
            in_pub_use &= !t.contains(';');
            if let Some((_, header, opened)) = &mut imp {
                *opened |= t.contains('{');
                let after = depth + t.matches('{').count() as i64 - t.matches('}').count() as i64;
                if *opened && after <= *header {
                    imp = None;
                }
            }
        }
        let called = self_calls.into_iter().filter(|c| !methods.contains(c));
        used.extend(called.map(|c| c.1));
    }
    // A definition line is `pub <kind> <name>` before any comment or literal.
    defs.retain(|v| pub_item_name(&v.snippet).is_some_and(|name| !used.contains(name)));
    defs
}

/// Every rule over `(workspace-relative path, source)` pairs: the per-file
/// rules on each file outside `benchmark/src`, then `dead-surface` across
/// all of them. Files under a `tests/` directory are test code: neither
/// linted nor read as references.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<LintViolation> {
    let test_file = |path: &str| path.split('/').any(|c| c == "tests");
    let files: Vec<(&str, &str)> = files.iter().filter(|f| !test_file(f.0)).copied().collect();
    // The benchmark times itself with the host clock: read, not policed.
    let policed = files.iter().filter(|f| !f.0.starts_with("benchmark/"));
    let mut out: Vec<LintViolation> = policed.flat_map(|(p, s)| lint_file(p, s)).collect();
    out.extend(dead_surface(&files));
    out
}

/// Lints the workspace under `root`: every crate's `src`, `examples/`,
/// `src/` and `benchmark/src` through [`lint_sources`]. Integration tests
/// are out of scope — determinism there is enforced by the suite itself.
// ncs-lint: allow(dead-surface) the whole-repository lint tests/lint_rules.rs runs in tier-1
pub fn lint_workspace(root: &Path) -> io::Result<Vec<LintViolation>> {
    let mut files = Vec::new();
    for sub in LINT_ROOTS {
        let dir = root.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rs_files(&dir, &mut paths)?;
        for f in paths {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, fs::read_to_string(&f)?));
        }
    }
    let pairs: Vec<(&str, &str)> = files.iter().map(|(p, s)| (&**p, &**s)).collect();
    Ok(lint_sources(&pairs))
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
