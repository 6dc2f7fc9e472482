//! Runs every experiment regenerator in sequence and writes each output to
//! `results/<name>.txt` — the one-command path to refreshing every number
//! in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p ncs-bench --bin report
//! ```
//!
//! The output is deterministic, so CI runs it and fails on any diff under
//! `results/*.txt` ("results are current").

use std::path::Path;
use std::process::Command;

/// `(binary, arguments)` in run order, `xp_sweep` last (it is the slowest);
/// each writes `results/<binary>[_<argument>].txt`.
const RUNS: [(&str, &[&str]); 14] = [
    ("table1", &[]),
    ("table2", &[]),
    ("table3", &[]),
    ("fig_datapath", &[]),
    ("fig_buffers", &[]),
    ("fig_fft_steps", &[]),
    ("xp_nsm_hsm", &[]),
    ("xp_flow", &[]),
    ("xp_cs_sweep", &[]),
    ("xp_entropy", &[]),
    ("xp_pvm", &[]),
    ("fig_overlap", &["matmul"]),
    ("fig_overlap", &["jpeg"]),
    ("xp_sweep", &[]),
];

/// `cargo run --bin report` builds `report` alone. Build the sibling
/// binaries it launches, in the profile it was itself built with, so a
/// clean `target/` works and a stale sibling never writes a stale result.
fn build_siblings(exe_dir: &Path) {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "--offline", "-p", "ncs-bench", "--bins"]);
    if exe_dir.ends_with("release") {
        build.arg("--release");
    }
    let status = build.status().expect("launch cargo");
    assert!(status.success(), "building the experiment binaries failed");
}

fn main() {
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results/");
    let exe = std::env::current_exe().expect("own path");
    let exe_dir = exe.parent().expect("bin dir");
    build_siblings(exe_dir);
    let mut failures = Vec::new();
    for (bin, args) in RUNS {
        let name = [&[bin], args].concat().join("_");
        print!("running {name:>18} … ");
        let output = Command::new(exe_dir.join(bin))
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, &output.stdout).expect("write result");
        if output.status.success() {
            println!("ok -> {}", path.display());
        } else {
            println!("FAILED (exit {:?})", output.status.code());
            failures.push(name);
        }
    }
    assert!(failures.is_empty(), "experiments failed: {failures:?}");
    println!("\nall experiments regenerated under results/");
}
