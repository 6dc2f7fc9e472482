//! `xp` — the one experiment binary: runs the entries of
//! [`ncs_bench::EXPERIMENTS`] in-process.
//!
//! ```text
//! cargo run --release -p ncs-bench -- <name> [args] [--smoke] [--guard]
//! cargo run --release -p ncs-bench -- list
//! cargo run --release -p ncs-bench -- report
//! cargo run --release -p ncs-bench -- all --smoke [--guard]
//! ```
//!
//! `report` reruns every report row and rewrites `results/<name>.txt` — the
//! one-command path to refreshing every number in `EXPERIMENTS.md`. Its
//! output is deterministic, so CI runs it and fails on any diff under
//! `results/` ("results are current"). `all` runs every experiment once,
//! which with `--smoke --guard` is CI's experiment stage.
//!
//! This is the one place a result reaches disk: a full run's JSON document
//! goes to `results/BENCH_<x>.json`, a `--smoke` run's to the untracked
//! `results/smoke/`, so a smoke run never replaces a checked-in full-size
//! file. An experiment that fails panics, which ends `xp` non-zero after
//! the line naming it and before anything of it is written.

use ncs_bench::{results_dir, Experiment, Opts, EXPERIMENTS};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: xp <name> [args] [--smoke] [--guard]\n       \
         xp list | report | all [--smoke] [--guard]"
    );
    std::process::exit(2)
}

/// What an experiment has written so far, printed when it goes out of
/// scope — on a panic too, so a failed assertion keeps its context.
struct Transcript(String);

impl Drop for Transcript {
    fn drop(&mut self) {
        // Not `print!`: a closed stdout must not panic inside an unwind.
        let _ = std::io::stdout().write_all(self.0.as_bytes());
    }
}

/// Runs `e`, prints its report and writes its JSON document, if it has one.
fn run(e: &Experiment, opts: &Opts) {
    let mut text = Transcript(String::new());
    let doc = (e.run)(opts, &mut text.0);
    drop(text);
    if let Some(doc) = doc {
        let sub = if opts.smoke { "smoke/" } else { "" };
        let dir = results_dir().join(sub);
        std::fs::create_dir_all(&dir).expect("create results dir");
        std::fs::write(dir.join(doc.file).with_extension("json"), doc.render())
            .expect("write JSON document");
        println!("\nwrote results/{sub}{}.json", doc.file);
    }
}

/// Reruns every report row; a row's file is written only once its
/// experiment has returned.
fn report() {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results/");
    for e in EXPERIMENTS {
        for (name, args) in e.report_rows() {
            print!("running {name:>18} … ");
            std::io::stdout().flush().expect("flush stdout");
            let opts = Opts {
                args: args.iter().map(|a| a.to_string()).collect(),
                ..Opts::default()
            };
            let mut text = String::new();
            (e.run)(&opts, &mut text);
            std::fs::write(dir.join(&name).with_extension("txt"), text).expect("write result");
            println!("ok -> results/{name}.txt");
        }
    }
    println!("\nall experiments regenerated under results/");
}

fn main() {
    let mut opts = Opts::default();
    let mut words = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--guard" => opts.guard = true,
            flag if flag.starts_with('-') => usage(),
            _ => words.push(arg),
        }
    }
    let Some((command, args)) = words.split_first() else {
        usage()
    };
    opts.args = args.to_vec();
    match command.as_str() {
        "list" => print!("{}", ncs_bench::list()),
        "report" => report(),
        "all" => {
            for e in EXPERIMENTS {
                println!("\n===== {} =====", e.name);
                run(e, &opts);
            }
        }
        name => match ncs_bench::find(name) {
            Some(e) => run(e, &opts),
            None => {
                eprintln!("unknown experiment '{name}' (see `xp list`)");
                usage()
            }
        },
    }
}
