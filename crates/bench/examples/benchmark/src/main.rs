//! End-to-end benchmark of the paper flow: a (benchmark, model, VR)
//! cell, model development, a chained Vdd sweep, and durable and fabric
//! campaigns, each timed per layer. See README.md for the metrics, the
//! workloads and the run protocol.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --compare <parent.json>... -- <change.json>...
//! benchmark --check <result.json>
//! ```
//!
//! Every workload runs in a child process spawned from this executable,
//! so its peak RSS is its own; fabric workers are spawned the same way
//! with `fabric-worker` as the first argument.

mod compare;
mod flows;
mod report;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use flows::{Ctx, Sizes, Workload};
use report::{Definition, ResultFile, WorkloadResult};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage:
  benchmark --workload <cell-wa|dev-ia|sweep-chain|journal|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark --compare <parent.json>... -- <change.json>...
  benchmark --check <result.json>";

/// First argument of a workload's child process.
const CHILD: &str = "workload-child";
/// Work directory, under the current directory, for journals and
/// surrogate artifacts; each child removes its own subdirectory.
const WORK_DIR: &str = ".bench_work";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fabric-worker") => fabric_worker(&args[1..]),
        Some("--compare") => compare_files(&args[1..]),
        Some("--check") if args.len() == 2 => check_file(Path::new(&args[1])),
        Some(CHILD) => match parse_run(&args[1..]) {
            Ok(a) => child(&a),
            Err(e) => usage(&e),
        },
        _ => match parse_run(&args) {
            Ok(a) => run(&a),
            Err(e) => usage(&e),
        },
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("benchmark: {error}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value {value:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workload != "all" && Workload::parse(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Run each requested workload in its own child process, print every
/// metric as `<workload> <metric> <value> <unit>`, and end with one JSON
/// line: `{"correct", "attempted", "failed", "metrics"}`.
fn run(a: &RunArgs) -> ExitCode {
    // A `TEI_*` knob would silently change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TEI_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("benchmark: refusing to run with {knobs:?} set; unset them");
        return ExitCode::from(2);
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("benchmark: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let names: Vec<&str> = if a.workload == "all" {
        Workload::ALL.iter().map(|w| w.name()).collect()
    } else {
        vec![a.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in &names {
        let out = Command::new(&exe)
            .args([CHILD, "--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let last = text.lines().rev().find(|l| !l.trim().is_empty())?;
            serde_json::from_str::<WorkloadResult>(last).ok()
        });
        let Some(result) = parsed else {
            eprintln!("benchmark: workload {name} produced no result");
            return ExitCode::FAILURE;
        };
        for problem in &result.problems {
            eprintln!("benchmark: {name}: {problem}");
        }
        results.push(result);
    }

    let mut metrics = Vec::new();
    for r in &results {
        for (metric, m) in &r.metrics {
            println!("{} {metric} {} {}", r.workload, m.value, m.unit);
            let key = if results.len() == 1 {
                metric.clone()
            } else {
                format!("{}/{metric}", r.workload)
            };
            metrics.push((
                key,
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::String(m.unit.clone())),
                ]),
            ));
        }
    }
    if let Some(path) = &a.out {
        let file = ResultFile {
            schema: report::SCHEMA.to_string(),
            host_cores: host_cores() as u64,
            commit: commit(),
            seed: a.seed,
            workloads: results.clone(),
        };
        let text = serde_json::to_string_pretty(&file).expect("result serializes");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = serde_json::json!({
        "correct": results.iter().all(|r| r.correct),
        "attempted": results.iter().map(|r| r.attempted).sum::<u64>(),
        "failed": results.iter().map(|r| r.failed).sum::<u64>(),
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result line serializes")
    );
    ExitCode::SUCCESS
}

/// One workload's run, printed as a [`WorkloadResult`] JSON line.
fn child(a: &RunArgs) -> ExitCode {
    let w = Workload::parse(&a.workload).expect("parent passes one workload");
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("benchmark: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let work = Path::new(WORK_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: a.seed,
        threads: host_cores(),
        sizes: Sizes::paper(),
        work: work.clone(),
        worker_cmd: Some(vec![
            exe.to_string_lossy().into_owned(),
            "fabric-worker".to_string(),
        ]),
    };
    let result = run::measure(w, &ctx, Duration::from_secs(a.seconds), a.trace);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(WORK_DIR).ok();
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

/// Worker-process role, as `benches/fabric.rs` runs it: the coordinator
/// spawns `fabric-worker --connect .. --token .. --index .. --journal-dir ..`.
fn fabric_worker(args: &[String]) -> ExitCode {
    let (mut connect, mut token, mut index, mut dir) = (None, None, None, None);
    let mut it = args.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--connect" => connect = Some(value.clone()),
            "--token" => token = value.parse::<u64>().ok(),
            "--index" => index = value.parse::<u32>().ok(),
            "--journal-dir" => dir = Some(PathBuf::from(value)),
            _ => {}
        }
    }
    let (Some(connect), Some(token), Some(index), Some(dir)) = (connect, token, index, dir) else {
        eprintln!("benchmark fabric-worker: needs --connect, --token, --index and --journal-dir");
        return ExitCode::from(2);
    };
    tei_core::shutdown::install_handlers();
    match tei_core::fabric::worker_main(&connect, token, index, &dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[benchmark worker {index}] {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn compare_files(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        return usage("--compare needs `--` between parent and change files");
    };
    let load = |paths: &[String]| -> Result<Vec<ResultFile>, String> {
        paths.iter().map(|p| read_result(Path::new(p))).collect()
    };
    match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(parent), Ok(change)) if !parent.is_empty() && !change.is_empty() => {
            compare::run(&Definition::load(), &parent, &change);
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => usage(&e),
        _ => usage("--compare needs at least one file on each side"),
    }
}

fn check_file(path: &Path) -> ExitCode {
    let file = match read_result(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("benchmark --check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errors = report::check(&Definition::load(), &file);
    for e in &errors {
        eprintln!("benchmark --check: {e}");
    }
    if errors.is_empty() {
        println!("{}: valid", path.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
