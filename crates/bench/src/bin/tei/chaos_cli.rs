//! `tei chaos`: the seeded failpoint-schedule matrix.
//!
//! For each seed, derive a deterministic failure schedule from the
//! failpoint catalog ([`tei_core::failpoint::seeded_schedule`]), run the
//! multi-process fabric campaign under it, and hold the run to the
//! durability contract:
//!
//! * the campaign **completes** and its merged result is byte-identical
//!   to the clean (fault-free) reference run, **or**
//! * it **fails with a typed [`TeiError`]** leaving resumable journals —
//!   verified by disarming the schedule and re-running the same journal
//!   directory, which must then complete byte-identical to the
//!   reference.
//!
//! Anything else — a divergent result, a failed resume, a hang (CI
//! wraps the matrix in `timeout`) — is a real durability bug. Failing
//! seeds leave their journal directory in place and drop a repro file
//! under `results/` so the exact schedule can be replayed by hand.
//!
//! Requires a `--features failpoints` build; the unfeatured binary
//! refuses loudly rather than silently running a fault-free matrix.

use crate::{fabric_cli, USAGE};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tei_core::campaign::JOURNAL_BATCH;
use tei_core::journal::atomic_write_checksummed;
use tei_core::{failpoint, CampaignResult, CampaignSpec, FabricConfig, TeiError};

/// Chaos fleets run with deliberately aggressive failure-detection
/// clocks so every seed converges in seconds, not minutes.
const CHAOS_LEASE_TIMEOUT: Duration = Duration::from_secs(5);
const CHAOS_TICK: Duration = Duration::from_millis(100);
const CHAOS_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(3);

struct ChaosArgs {
    spec: CampaignSpec,
    workers: usize,
    seeds: Vec<u64>,
    journal_base: PathBuf,
    results_dir: PathBuf,
    keep_going: bool,
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("tei chaos: bad value {value:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn parse_args(args: &[String]) -> ChaosArgs {
    let mut ca = ChaosArgs {
        spec: CampaignSpec::new(""),
        workers: 2,
        seeds: vec![1, 2, 3],
        journal_base: PathBuf::from("journal-chaos"),
        results_dir: PathBuf::from("results"),
        keep_going: false,
    };
    // Chaos runs want deterministic hit ordering inside each worker.
    ca.spec.threads_per_worker = 1;
    ca.spec.runs = 48;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("tei chaos: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--benchmark" => ca.spec.benchmark = val(),
            "--model" => ca.spec.model = val(),
            "--vr" => ca.spec.vr = val().to_ascii_lowercase(),
            "--scale" => ca.spec.scale = val().to_ascii_lowercase(),
            "--runs" => ca.spec.runs = parse_or_exit(flag, &val()),
            "--seed" => ca.spec.seed = parse_or_exit(flag, &val()),
            "--timeout-factor" => ca.spec.timeout_factor = parse_or_exit(flag, &val()),
            "--workers" => ca.workers = parse_or_exit(flag, &val()),
            "--seeds" => {
                ca.seeds = val()
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse_or_exit(flag, s.trim()))
                    .collect();
            }
            "--journal-dir" => ca.journal_base = PathBuf::from(val()),
            "--out" => ca.results_dir = PathBuf::from(val()),
            "--keep-going" => ca.keep_going = true,
            other => {
                eprintln!("tei chaos: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if ca.spec.benchmark.is_empty() {
        eprintln!("tei chaos: --benchmark is required\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(e) = ca.spec.parse() {
        eprintln!("tei chaos: {e}\n{USAGE}");
        std::process::exit(2);
    }
    if ca.seeds.is_empty() {
        eprintln!("tei chaos: --seeds named no seeds\n{USAGE}");
        std::process::exit(2);
    }
    ca
}

fn fleet(journal_dir: PathBuf, workers: usize) -> Result<FabricConfig, TeiError> {
    let mut cfg = FabricConfig::new(fabric_cli::self_worker_cmd()?, journal_dir);
    cfg.workers = workers;
    cfg.lease_timeout = CHAOS_LEASE_TIMEOUT;
    cfg.tick = CHAOS_TICK;
    cfg.heartbeat_timeout = CHAOS_HEARTBEAT_TIMEOUT;
    Ok(cfg)
}

/// One fabric campaign over `journal_dir`. Whatever `TEI_FAILPOINTS`
/// holds at call time is armed in-process (coordinator role) and
/// inherited by the spawned workers.
fn run_once(
    spec: &CampaignSpec,
    journal_dir: &Path,
    workers: usize,
) -> Result<CampaignResult, TeiError> {
    let cfg = fleet(journal_dir.to_path_buf(), workers)?;
    tei_core::run_fabric_campaign(spec, &cfg, &mut fabric_cli::print_event)
}

/// Journal traffic of one chaos worker, for sizing seeded journal faults:
/// `(batch commits, runs per batch)`. The fleet splits the runs into
/// `workers × leases_per_worker` leases; a worker's fair share of them,
/// each committed in batches of up to [`JOURNAL_BATCH`] runs on its one
/// campaign thread.
fn worker_journal_traffic(runs: u64, workers: usize) -> (u64, u64) {
    let per_worker = FabricConfig::new(Vec::new(), PathBuf::new()).leases_per_worker as u64;
    let lease_runs = runs.div_ceil((workers as u64 * per_worker).max(1)).max(1);
    let batch = JOURNAL_BATCH as u64;
    (
        per_worker * lease_runs.div_ceil(batch),
        lease_runs.min(batch),
    )
}

/// The byte-identity fingerprint: the full serialized result (outcome
/// counts, AVM inputs, quarantine list) — every field is deterministic.
fn canonical(result: &CampaignResult) -> String {
    serde_json::to_string(result).unwrap_or_default()
}

#[derive(serde::Serialize)]
struct SeedReport {
    seed: u64,
    schedule: String,
    status: String,
    detail: String,
}

/// `tei chaos`: run the seeded schedule matrix; nonzero on any
/// contract violation.
pub(crate) fn chaos(args: &[String]) -> Result<(), TeiError> {
    let ca = parse_args(args);
    if !failpoint::enabled() {
        return Err(TeiError::Config {
            knob: "tei chaos".to_string(),
            reason: "this build has no failpoint support; \
                     rebuild with --features failpoints"
                .to_string(),
        });
    }
    // A leaked schedule from the environment must not contaminate the
    // clean reference run (each seed sets its own below).
    std::env::remove_var("TEI_FAILPOINTS");
    failpoint::reset();

    eprintln!(
        "[chaos] clean reference: {} × {} × {} ({} runs, {} workers)",
        ca.spec.benchmark, ca.spec.model, ca.spec.vr, ca.spec.runs, ca.workers
    );
    let clean_dir = ca.journal_base.join("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let reference = run_once(&ca.spec, &clean_dir, ca.workers)?;
    let ref_json = canonical(&reference);
    let _ = std::fs::remove_dir_all(&clean_dir);

    let (commits, batch_runs) = worker_journal_traffic(ca.spec.runs, ca.workers);
    let mut reports: Vec<SeedReport> = Vec::new();
    let mut failures = 0usize;
    for &seed in &ca.seeds {
        let schedule = failpoint::seeded_schedule(seed, commits, batch_runs);
        eprintln!("[chaos] seed {seed}: {schedule}");
        let dir = ca.journal_base.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("TEI_FAILPOINTS", &schedule);
        let first = run_once(&ca.spec, &dir, ca.workers);
        std::env::remove_var("TEI_FAILPOINTS");
        failpoint::reset();
        let (status, detail) = match first {
            Ok(result) => {
                if canonical(&result) == ref_json {
                    ("identical".to_string(), String::new())
                } else {
                    (
                        "diverged".to_string(),
                        "campaign completed but its result differs from the clean run".to_string(),
                    )
                }
            }
            Err(e) => {
                eprintln!("[chaos] seed {seed}: typed failure ({e}); disarming and resuming");
                match run_once(&ca.spec, &dir, ca.workers) {
                    Ok(result) if canonical(&result) == ref_json => {
                        ("resumed-identical".to_string(), e.to_string())
                    }
                    Ok(_) => (
                        "resume-diverged".to_string(),
                        format!("after {e}, the resumed result differs from the clean run"),
                    ),
                    Err(e2) => (
                        "resume-failed".to_string(),
                        format!("after {e}, resume failed: {e2}"),
                    ),
                }
            }
        };
        let passed = matches!(status.as_str(), "identical" | "resumed-identical");
        eprintln!("[chaos] seed {seed}: {status}");
        if passed {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            failures += 1;
            quarantine(&ca, seed, &schedule, &status, &detail, &dir);
        }
        reports.push(SeedReport {
            seed,
            schedule,
            status,
            detail,
        });
        if !passed && !ca.keep_going {
            break;
        }
    }

    std::fs::create_dir_all(&ca.results_dir)
        .map_err(|e| TeiError::io("create results dir", &ca.results_dir, e))?;
    let report_path = ca.results_dir.join("chaos-report.json");
    let body = serde_json::to_string_pretty(&reports).unwrap_or_default();
    atomic_write_checksummed(&report_path, (body + "\n").as_bytes())?;
    eprintln!("wrote {}", report_path.display());
    if failures > 0 {
        return Err(TeiError::Fabric {
            detail: format!(
                "{failures} chaos seed(s) violated the durability contract; \
                 see {} and the quarantined journal dirs",
                report_path.display()
            ),
        });
    }
    let _ = std::fs::remove_dir_all(&ca.journal_base);
    println!(
        "chaos: {} seed(s) upheld the durability contract ({} runs each)",
        ca.seeds.len(),
        ca.spec.runs
    );
    Ok(())
}

/// A failing seed keeps its journals and gets a repro recipe.
fn quarantine(ca: &ChaosArgs, seed: u64, schedule: &str, status: &str, detail: &str, dir: &Path) {
    let repro = format!(
        "tei chaos seed {seed} failed: {status}\n\
         {detail}\n\n\
         schedule: {schedule}\n\
         journals: {}\n\n\
         replay by hand:\n\
         TEI_FAILPOINTS='{schedule}' tei campaign --benchmark {} --runs {} \\\n\
         \x20  --workers {} --journal-dir {} --lease-timeout-s 5 --tick-ms 100 \\\n\
         \x20  --heartbeat-timeout-s 3\n",
        dir.display(),
        ca.spec.benchmark,
        ca.spec.runs,
        ca.workers,
        dir.display(),
    );
    let path = ca.results_dir.join(format!("chaos-s{seed}-repro.txt"));
    if std::fs::create_dir_all(&ca.results_dir).is_ok() {
        if let Err(e) = std::fs::write(&path, repro) {
            eprintln!("[chaos] could not write {}: {e}", path.display());
        } else {
            eprintln!("[chaos] repro recipe: {}", path.display());
        }
    }
}
