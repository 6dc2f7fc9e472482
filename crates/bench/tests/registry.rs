//! The experiment registry and `results/` agree: names are unique, every
//! report row has its checked-in `results/<name>.txt` and every such file
//! has a row, `xp list` is the registry in order, and the three cheapest
//! deterministic rows still print their checked-in files byte for byte —
//! so a stale result fails `cargo test`, not only `scripts/check.sh`.

use ncs_bench::{find, list, results_dir, Opts, EXPERIMENTS};
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
        let mut text = String::new();
        let doc = (find(name).expect("registered").run)(&Opts::default(), &mut text);
        assert!(doc.is_none(), "{name} is a text-only row");
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
