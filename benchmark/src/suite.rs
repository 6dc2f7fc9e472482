//! Suites: runs over all five workloads, each in a fresh child process of
//! this binary so peak memory and allocator state cannot leak from one
//! workload into the next, plus the checks that show the instrument works.

use std::process::{Command, ExitCode, Stdio};

use crate::layers::SMALL_DIV;
use crate::metrics::{manifest, parse_result, ChildResult, END_TO_END, MODEL_CLOCK};
use crate::workloads::Workload;
use crate::{exit_code, Args, RUN_SECONDS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Every workload's end-to-end metrics.
    EndToEnd,
    /// `--selfcheck`: the end-to-end suite twice; the two sets must agree.
    Selfcheck,
    /// `--layers`: every workload's traced run plus the attribution checks.
    Layers,
    /// `--engine os`: host-clock metrics respond to a slower program,
    /// model-clock metrics do not.
    Sensitivity,
    /// `--smoke`: one repetition at 1/16 size.
    Smoke,
    /// `--manifest`: print `BENCHMARK.json`.
    Manifest,
}

struct Child {
    result: ChildResult,
    /// `info <key> <value>` lines of the child's report.
    info: Vec<(String, String)>,
    ok: bool,
}

impl Child {
    fn info(&self, key: &str) -> &str {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("child did not print info {key}"))
    }
}

/// Runs this binary on one workload and echoes its report, indented.
fn child(a: &Args, w: Workload, extra: &[&str]) -> Child {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
        .args(["--out", &a.out_dir.to_string_lossy()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child benchmark process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut info = Vec::new();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("    {l}");
        if let Some(rest) = l.strip_prefix("info ") {
            if let Some((k, v)) = rest.split_once(' ') {
                info.push((k.to_string(), v.to_string()));
            }
        }
    }
    let result = parse_result(last)
        .unwrap_or_else(|| panic!("{} printed no result line (exit {})", w.name(), out.status));
    Child {
        ok: out.status.success() && result.correct && result.failed == 0,
        result,
        info,
    }
}

fn seconds_args(a: &Args) -> Vec<String> {
    match a.seconds {
        Some(s) => vec!["--seconds".into(), s.to_string()],
        None => Vec::new(),
    }
}

/// One pass over the five workloads; `None` if any of them failed.
fn end_to_end_set(a: &Args, extra: &[&str]) -> Option<Vec<Child>> {
    let secs = seconds_args(a);
    let mut all: Vec<&str> = secs.iter().map(String::as_str).collect();
    all.extend_from_slice(extra);
    let mut set = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let c = child(a, w, &all);
        ok &= c.ok;
        set.push(c);
    }
    ok.then_some(set)
}

fn print_set(set: &[Child]) {
    print!("{:<30}", "");
    for w in Workload::ALL {
        print!(" {:>16}", w.name());
    }
    println!();
    for e in &END_TO_END {
        print!("{:<30}", format!("{} [{}]", e.name, e.unit));
        for c in set {
            print!(" {:>16.6}", c.result.value(e.name));
        }
        println!();
    }
}

fn verdict(ok: bool) -> ExitCode {
    println!("{}", if ok { "PASS" } else { "FAIL" });
    exit_code(ok)
}

fn selfcheck(a: &Args) -> ExitCode {
    let mut ok = true;
    let expected = manifest(RUN_SECONDS, &Workload::ALL.map(|w| (w.name(), w.why())));
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(found) if found == expected => println!("BENCHMARK.json matches --manifest"),
        Ok(_) => {
            println!("FAIL: BENCHMARK.json differs from --manifest; regenerate it");
            ok = false;
        }
        Err(_) => println!("BENCHMARK.json not in the working directory; not compared"),
    }
    println!("=== set 1");
    let Some(first) = end_to_end_set(a, &[]) else {
        return verdict(false);
    };
    println!("=== set 2");
    let Some(second) = end_to_end_set(a, &[]) else {
        return verdict(false);
    };
    println!("=== set 1");
    print_set(&first);
    println!("=== set 2");
    print_set(&second);
    println!("=== second set against the first");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        for e in &END_TO_END {
            let (v1, v2) = (
                first[i].result.value(e.name),
                second[i].result.value(e.name),
            );
            let worse = match e.better {
                "lower" => (v2 - v1) / v1,
                _ => (v1 - v2) / v1,
            };
            let exact = MODEL_CLOCK.contains(&e.name) || e.name == "verified_share";
            let pass = if exact {
                first[i].result.metrics[e.name] == second[i].result.metrics[e.name]
            } else {
                worse <= e.bound
            };
            println!(
                "  {:<17} {:<18} {:>14.6} -> {:>14.6}  {:>+7.2} % worse ({})  {}",
                w.name(),
                e.name,
                v1,
                v2,
                worse * 100.0,
                if exact {
                    "must repeat exactly".to_string()
                } else {
                    format!("bound {:.0} %", e.bound * 100.0)
                },
                if pass { "ok" } else { "FAIL" },
            );
            ok &= pass;
        }
    }
    verdict(ok)
}

fn layers(a: &Args) -> ExitCode {
    let mut ok = true;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        println!("== {}", w.name());
        let c = child(a, w, &["--trace", "1"]);
        ok &= c.ok;
        runs.push(c);
    }
    // `runs` is in `Workload::ALL` order, which is declaration order.
    let of = |w: Workload| &runs[w as usize];
    let value = |w: Workload, name: &str| of(w).result.value(name);
    let sched = |w: Workload| value(w, "sim.kernel_share") + value(w, "mts.share");
    let goodput = |w: Workload| -> f64 {
        of(w)
            .info("virt_goodput_mbps")
            .parse()
            .expect("goodput is a number")
    };
    use Workload::{BulkPipeline, CollectiveSmall, RingClean, RingLossy};
    let checks = [
        (
            format!(
                "net.crc_share >= 0.5 on bulk_pipeline (is {:.3})",
                value(BulkPipeline, "net.crc_share")
            ),
            value(BulkPipeline, "net.crc_share") >= 0.5,
        ),
        (
            format!(
                "net.crc_share <= 0.05 on collective_small (is {:.3})",
                value(CollectiveSmall, "net.crc_share")
            ),
            value(CollectiveSmall, "net.crc_share") <= 0.05,
        ),
        (
            format!(
                "sim.kernel_share + mts.share higher on collective_small ({:.3}) than on bulk_pipeline ({:.3})",
                sched(CollectiveSmall),
                sched(BulkPipeline)
            ),
            sched(CollectiveSmall) > sched(BulkPipeline),
        ),
        (
            format!(
                "core.retransmits = 0 on ring_clean (is {})",
                value(RingClean, "core.retransmits")
            ),
            value(RingClean, "core.retransmits") == 0.0,
        ),
        (
            format!(
                "core.retransmits > 1000 on ring_lossy (is {})",
                value(RingLossy, "core.retransmits")
            ),
            value(RingLossy, "core.retransmits") > 1000.0,
        ),
        (
            format!(
                "ring_lossy virt_goodput_mbps ({:.3}) <= half of ring_clean's ({:.3})",
                goodput(RingLossy),
                goodput(RingClean)
            ),
            goodput(RingLossy) <= goodput(RingClean) / 2.0,
        ),
    ];
    println!("=== attribution checks");
    for (what, pass) in &checks {
        println!("  {}: {what}", if *pass { "PASS" } else { "FAIL" });
        ok &= pass;
    }
    verdict(ok)
}

fn sensitivity(a: &Args) -> ExitCode {
    let w = Workload::CollectiveSmall;
    let div = SMALL_DIV.to_string();
    let mut runs = Vec::new();
    for engine in ["coro", "os"] {
        println!(
            "== {} on the {engine} engine, 1/{div} size, 1 repetition",
            w.name()
        );
        runs.push(child(
            a,
            w,
            &["--scale-div", &div, "--reps", "1", "--engine", engine],
        ));
    }
    let (coro, os) = (&runs[0], &runs[1]);
    let ratio = os.result.value("wall_s") / coro.result.value("wall_s");
    let mut ok = coro.ok && os.ok;
    println!("=== sensitivity");
    let slower = ratio >= 3.0;
    println!(
        "  {}: wall_s on the OS-thread engine is {ratio:.2}x the coroutine engine's (need >= 3x)",
        if slower { "PASS" } else { "FAIL" }
    );
    ok &= slower;
    let same_trace = coro.info("trace_hash") == os.info("trace_hash")
        && coro.info("events") == os.info("events");
    println!(
        "  {}: trace hash and event count identical ({} / {})",
        if same_trace { "PASS" } else { "FAIL" },
        coro.info("trace_hash"),
        os.info("trace_hash")
    );
    ok &= same_trace;
    for name in MODEL_CLOCK {
        let same = coro.result.metrics[name] == os.result.metrics[name];
        println!(
            "  {}: {name} identical ({} / {})",
            if same { "PASS" } else { "FAIL" },
            coro.result.metrics[name],
            os.result.metrics[name]
        );
        ok &= same;
    }
    verdict(ok)
}

pub fn run(a: &Args) -> ExitCode {
    match a.suite {
        Suite::Manifest => {
            print!(
                "{}",
                manifest(RUN_SECONDS, &Workload::ALL.map(|w| (w.name(), w.why())))
            );
            ExitCode::SUCCESS
        }
        Suite::EndToEnd => match end_to_end_set(a, &[]) {
            Some(set) => {
                println!("=== end to end");
                print_set(&set);
                verdict(true)
            }
            None => verdict(false),
        },
        Suite::Smoke => verdict(end_to_end_set(a, &["--scale-div", "16", "--reps", "1"]).is_some()),
        Suite::Selfcheck => selfcheck(a),
        Suite::Layers => layers(a),
        Suite::Sensitivity => sensitivity(a),
    }
}
