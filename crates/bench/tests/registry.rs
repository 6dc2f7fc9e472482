//! The experiment registry and `results/` agree: names are unique, every
//! report row has its checked-in `results/<name>.txt` and every such file
//! has a row, `xp list` is the registry in order, the three cheapest
//! deterministic rows still print their checked-in files byte for byte, and
//! `xp explore`, `xp chaos`, `xp overlap` and `xp pipeline` their
//! `BENCH_*.json` documents but for the host-clock fields — so a stale
//! result fails `cargo test`, not only `scripts/check.sh`.

use ncs_bench::{find, list, results_dir, Opts, Report, EXPERIMENTS};
use std::collections::BTreeSet;

fn report_names() -> Vec<String> {
    EXPERIMENTS
        .iter()
        .flat_map(|e| e.report_rows().map(|(name, _)| name))
        .collect()
}

#[test]
fn names_are_unique_with_and_without_the_prefix() {
    let mut seen = BTreeSet::new();
    for e in EXPERIMENTS {
        let short = e.name.strip_prefix("xp_").unwrap_or(e.name);
        assert!(seen.insert(short), "two experiments answer to '{short}'");
        for name in [e.name, short] {
            assert_eq!(find(name).map(|f| f.name), Some(e.name), "find({name})");
        }
    }
    assert!(find("report").is_none() && find("list").is_none() && find("all").is_none());
}

#[test]
fn report_rows_and_result_files_match_one_to_one() {
    let rows: BTreeSet<String> = report_names().into_iter().collect();
    assert_eq!(
        rows.len(),
        report_names().len(),
        "two report rows share a file"
    );
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .filter_map(|file| Some(file.to_str()?.strip_suffix(".txt")?.to_owned()))
        .filter(|stem| !stem.starts_with("metrics_")) // `xp observe`'s untracked artifacts
        .filter(|stem| stem != "benchmark_smoke") // scripts/model_pins.sh's pins
        .collect();
    assert_eq!(
        rows, files,
        "report rows (left) vs checked-in results/*.txt (right)"
    );
}

#[test]
fn list_is_the_registry_in_order() {
    let listed: Vec<String> = list()
        .lines()
        .map(|line| line.split_whitespace().next().expect("a name").to_string())
        .collect();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered);
}

#[test]
fn cheapest_rows_reprint_their_checked_in_results() {
    for name in ["fig_datapath", "fig_buffers", "table3"] {
        assert!(
            report_names().iter().any(|row| row == name),
            "{name} is a report row"
        );
        let mut report = Report::default();
        (find(name).expect("registered").run)(&Opts::default(), &mut report);
        assert!(report.bench.is_none(), "{name} is a text-only row");
        let text = report.text();
        let path = results_dir().join(name).with_extension("txt");
        let checked_in = std::fs::read_to_string(&path).expect("checked-in result");
        assert_eq!(
            text,
            checked_in,
            "{} is stale: run `xp report`",
            path.display()
        );
    }
}

/// Every checked-in `BENCH_*.json` a test below reprints, with the fields
/// in it that read the host clock. Their values are masked before the
/// comparison; every other field is virtual time, a count or a flag, and
/// must match byte for byte.
const HOST_CLOCK_FIELDS: &[(&str, &[&str])] = &[
    ("explore", &[]),
    ("chaos", &["worker_cpus"]),
    ("overlap", &[]),
    ("pipeline", &["byte_path"]),
    ("scale", &["micro", "worker_cpus", "engine_speedup"]),
];

/// The length of the JSON value `s` starts with: a scalar up to its `,`,
/// closing bracket or line end, or an object or array through its match.
fn value_len(s: &str) -> usize {
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            ',' | '}' | ']' | '\n' if depth == 0 => return i,
            _ => {}
        }
    }
    s.len()
}

/// `doc` with the value of each of `fields`, wherever it appears, read as `_`.
fn mask(doc: &str, fields: &[&str]) -> String {
    let mut doc = doc.to_owned();
    for field in fields {
        let key = format!("\"{field}\": ");
        let mut from = 0;
        while let Some(at) = doc[from..].find(&key) {
            let start = from + at + key.len();
            doc.replace_range(start..start + value_len(&doc[start..]), "_");
            from = start;
        }
    }
    doc
}

/// Runs experiment `name` at full size and holds its document to the
/// checked-in one, but for the host-clock fields [`HOST_CLOCK_FIELDS`]
/// names for it.
fn assert_reprints_its_document(name: &str) {
    let (_, fields) = HOST_CLOCK_FIELDS
        .iter()
        .find(|(doc, _)| *doc == name)
        .expect("its host-clock fields are named");
    let e = find(name).expect("registered");
    let mut report = Report::default();
    (e.run)(&Opts::default(), &mut report);
    let file = report.bench.expect("writes a JSON document");
    let path = results_dir().join(file).with_extension("json");
    let checked_in = std::fs::read_to_string(&path).expect("checked-in result");
    assert_eq!(
        mask(&report.json(e.name, false), fields),
        mask(&checked_in, fields),
        "{} is stale: run `xp {name}`",
        path.display()
    );
}

#[test]
fn masking_reads_a_scalar_and_a_nested_value_as_one_blank() {
    let doc = "{\"a\": 1.5, \"b\": {\"c\": [1, 2],\n \"d\": 3}, \"e\": 4}\n";
    assert_eq!(mask(doc, &["a", "b"]), "{\"a\": _, \"b\": _, \"e\": 4}\n");
    assert_eq!(
        mask(doc, &["d", "e"]),
        "{\"a\": 1.5, \"b\": {\"c\": [1, 2],\n \"d\": _}, \"e\": _}\n"
    );
}

#[test]
fn explore_reprints_its_checked_in_document() {
    assert_reprints_its_document("explore");
}

#[test]
fn chaos_reprints_its_checked_in_document_but_for_the_host() {
    assert_reprints_its_document("chaos");
}

#[test]
fn overlap_reprints_its_checked_in_document() {
    assert_reprints_its_document("overlap");
}

#[test]
fn scale_reprints_its_checked_in_document_but_for_the_host() {
    assert_reprints_its_document("scale");
}

/// The full X8 times its byte path for several seconds: CI and
/// `scripts/check.sh` run it in release with `-- --ignored`.
#[test]
#[ignore = "times the byte path for ~8 s; run in release with -- --ignored"]
fn pipeline_reprints_its_checked_in_document_but_for_the_host() {
    assert_reprints_its_document("pipeline");
}
