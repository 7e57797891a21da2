//! The fabric subcommands: one-shot multi-process campaigns
//! (`tei campaign`), the resident coordinator (`tei serve`), the
//! submission client (`tei submit`), and the worker process body the
//! coordinator spawns (`tei fabric-worker`).

use crate::USAGE;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tei_core::fabric::coordinator::{DEFAULT_LEASE_TIMEOUT, DEFAULT_TICK};
use tei_core::fabric::{wire, ChaosKill, Message};
use tei_core::journal::atomic_write_checksummed;
use tei_core::{CampaignResult, CampaignSpec, FabricConfig, FabricEvent, TeiError};

/// Default `tei serve` address (0x7e1, like the default campaign seed).
const DEFAULT_LISTEN: &str = "127.0.0.1:2017";

/// Map a fabric run's outcome to the process exit code convention.
pub(crate) fn exit_code(run: Result<(), TeiError>) -> i32 {
    match run {
        Ok(()) => 0,
        Err(e) if e.is_interrupted() => {
            eprintln!("tei: {e}");
            eprintln!("tei: journals and lease table retained; re-run to resume");
            130
        }
        // Typed, resumable failure (disk full): not a corruption, not a
        // bug — journals are intact and a re-run picks up the remainder.
        Err(e) if e.is_resumable() => {
            eprintln!("tei: {e}");
            eprintln!("tei: journals retained; free space and re-run to resume");
            1
        }
        Err(e) => {
            eprintln!("tei: {e}");
            1
        }
    }
}

fn parse_or_exit<T: std::str::FromStr>(cmd: &str, flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("tei {cmd}: bad value {value:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

/// Flags shared by the fabric subcommands. Spec fields not given stay at
/// the [`CampaignSpec::new`] defaults; string-typed spec fields are
/// validated by `spec.parse()` before anything spawns.
struct FabricArgs {
    spec: CampaignSpec,
    workers: usize,
    leases_per_worker: usize,
    lease_timeout: Duration,
    tick: Duration,
    heartbeat_timeout: Duration,
    journal_dir: PathBuf,
    out: Option<PathBuf>,
    listen: String,
    connect: Option<String>,
    chaos: Option<ChaosKill>,
    chaos_stop: Option<ChaosKill>,
}

fn parse_args(cmd: &str, args: &[String]) -> FabricArgs {
    let mut fa = FabricArgs {
        spec: CampaignSpec::new(""),
        workers: 2,
        leases_per_worker: 4,
        lease_timeout: DEFAULT_LEASE_TIMEOUT,
        tick: DEFAULT_TICK,
        heartbeat_timeout: Duration::from_secs(5),
        journal_dir: tei_core::config::default_journal_dir(),
        out: None,
        listen: DEFAULT_LISTEN.to_string(),
        connect: None,
        chaos: None,
        chaos_stop: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("tei {cmd}: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--benchmark" => fa.spec.benchmark = val(),
            "--model" => fa.spec.model = val(),
            "--vr" => fa.spec.vr = val().to_ascii_lowercase(),
            "--scale" => fa.spec.scale = val().to_ascii_lowercase(),
            "--runs" => fa.spec.runs = parse_or_exit(cmd, flag, &val()),
            "--seed" => fa.spec.seed = parse_or_exit(cmd, flag, &val()),
            "--timeout-factor" => fa.spec.timeout_factor = parse_or_exit(cmd, flag, &val()),
            "--threads-per-worker" => {
                fa.spec.threads_per_worker = parse_or_exit(cmd, flag, &val());
            }
            "--throttle-ms" => fa.spec.throttle_ms = parse_or_exit(cmd, flag, &val()),
            "--workers" => fa.workers = parse_or_exit(cmd, flag, &val()),
            "--leases-per-worker" => fa.leases_per_worker = parse_or_exit(cmd, flag, &val()),
            "--lease-timeout-s" => {
                fa.lease_timeout = Duration::from_secs(parse_or_exit(cmd, flag, &val()));
            }
            "--tick-ms" => {
                fa.tick = Duration::from_millis(parse_or_exit(cmd, flag, &val()));
            }
            "--heartbeat-timeout-s" => {
                fa.heartbeat_timeout = Duration::from_secs(parse_or_exit(cmd, flag, &val()));
            }
            "--journal-dir" => fa.journal_dir = PathBuf::from(val()),
            "--out" => fa.out = Some(PathBuf::from(val())),
            "--listen" => fa.listen = val(),
            "--connect" => fa.connect = Some(val()),
            "--chaos-kill-worker" => fa.chaos = Some(parse_chaos(cmd, flag, &val())),
            "--chaos-stop-worker" => fa.chaos_stop = Some(parse_chaos(cmd, flag, &val())),
            other => {
                eprintln!("tei {cmd}: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    fa
}

fn parse_chaos(cmd: &str, flag: &str, value: &str) -> ChaosKill {
    let parsed = value.split_once(':').and_then(|(w, n)| {
        Some(ChaosKill {
            worker: w.parse().ok()?,
            after_leases: n.parse().ok()?,
        })
    });
    parsed.unwrap_or_else(|| {
        eprintln!("tei {cmd}: {flag} wants <worker>:<after-leases>, got {value:?}\n{USAGE}");
        std::process::exit(2);
    })
}

/// Refuse a malformed spec before anything spawns (usage error, exit 2).
fn require_spec(cmd: &str, spec: &CampaignSpec) {
    if spec.benchmark.is_empty() {
        eprintln!("tei {cmd}: --benchmark is required\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(e) = spec.parse() {
        eprintln!("tei {cmd}: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

/// The worker command the coordinator spawns: this very binary, in its
/// `fabric-worker` role, so fleet and coordinator are one build by
/// construction (the manifest-hash cross-check still verifies it).
pub(crate) fn self_worker_cmd() -> Result<Vec<String>, TeiError> {
    let exe = std::env::current_exe().map_err(|e| TeiError::Fabric {
        detail: format!("resolve the tei binary path: {e}"),
    })?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "fabric-worker".to_string(),
    ])
}

/// The fleet configuration the flags describe; invalid fleet timing is
/// a usage error (exit 2) before anything spawns.
fn fleet_config(cmd: &str, fa: &FabricArgs) -> Result<FabricConfig, TeiError> {
    let mut cfg = FabricConfig::new(self_worker_cmd()?, fa.journal_dir.clone());
    cfg.workers = fa.workers;
    cfg.leases_per_worker = fa.leases_per_worker;
    cfg.lease_timeout = fa.lease_timeout;
    cfg.tick = fa.tick;
    cfg.heartbeat_timeout = fa.heartbeat_timeout;
    cfg.chaos_kill_worker = fa.chaos;
    cfg.chaos_stop_worker = fa.chaos_stop;
    if let Err(e) = cfg.validate() {
        eprintln!("tei {cmd}: {e}\n{USAGE}");
        std::process::exit(2);
    }
    Ok(cfg)
}

/// Narrate coordinator events on stderr (stdout carries the result).
pub(crate) fn print_event(ev: &FabricEvent) {
    match ev {
        FabricEvent::WorkerSpawned { worker } => eprintln!("[fabric] worker {worker} spawned"),
        FabricEvent::WorkerConnected { worker } => eprintln!("[fabric] worker {worker} connected"),
        FabricEvent::WorkerDied { worker, reassigned } => {
            eprintln!("[fabric] worker {worker} died; {reassigned} lease(s) back to pending")
        }
        FabricEvent::LeaseGranted {
            campaign,
            worker,
            lo,
            hi,
        } => eprintln!("[fabric] campaign {campaign}: runs [{lo}, {hi}) -> worker {worker}"),
        FabricEvent::Progress {
            campaign,
            completed,
            total,
        } => eprintln!("[fabric] campaign {campaign}: {completed}/{total} runs durable"),
        FabricEvent::Queued {
            campaign,
            benchmark,
        } => eprintln!("[fabric] campaign {campaign} queued ({benchmark})"),
        FabricEvent::Finished { campaign } => eprintln!("[fabric] campaign {campaign} finished"),
        FabricEvent::ChaosKilled { worker } => eprintln!("[fabric] chaos: killed worker {worker}"),
        FabricEvent::ChaosStopped { worker } => {
            eprintln!("[fabric] chaos: stopped worker {worker} (SIGSTOP)")
        }
        FabricEvent::HeartbeatLost { worker, silent_for } => eprintln!(
            "[fabric] worker {worker} heartbeat lost after {:.1}s",
            silent_for.as_secs_f64()
        ),
    }
}

/// Print the merged result summary line.
fn print_result(result: &CampaignResult) {
    let f = result.fractions();
    println!(
        "{}: Masked {:.1}% SDC {:.1}% Crash {:.1}% Timeout {:.1}%  AVM {:.3} ({} quarantined)",
        result.benchmark,
        100.0 * f[0],
        100.0 * f[1],
        100.0 * f[2],
        100.0 * f[3],
        result.avm(),
        result.counts.quarantined,
    );
}

fn write_result(
    result: &CampaignResult,
    out: Option<&Path>,
    benchmark: &str,
) -> Result<(), TeiError> {
    let out = out.map_or_else(
        || PathBuf::from(format!("results/fabric-{benchmark}.json")),
        Path::to_path_buf,
    );
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| TeiError::io("create output directory", dir, e))?;
        }
    }
    let body = serde_json::to_string_pretty(result).unwrap_or_default();
    atomic_write_checksummed(&out, (body + "\n").as_bytes())?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

/// `tei campaign`: one-shot multi-process campaign over a locally
/// spawned worker fleet (in process at `--workers 0`); the result is
/// byte-identical at every worker count.
pub(crate) fn campaign(args: &[String]) -> Result<(), TeiError> {
    let fa = parse_args("campaign", args);
    require_spec("campaign", &fa.spec);
    let cfg = fleet_config("campaign", &fa)?;
    let fleet = match cfg.workers {
        0 => format!("in process, {} threads", fa.spec.threads_per_worker.max(1)),
        n => format!("{n} workers"),
    };
    eprintln!(
        "[fabric] {} × {} × {} ({} runs, {fleet}, journal {})",
        fa.spec.benchmark,
        fa.spec.model,
        fa.spec.vr,
        fa.spec.runs,
        cfg.journal_dir.display()
    );
    let result = tei_core::run_fabric_campaign(&fa.spec, &cfg, &mut print_event)?;
    print_result(&result);
    write_result(&result, fa.out.as_deref(), &fa.spec.benchmark)
}

/// `tei serve`: resident coordinator + worker fleet; returns on signal.
pub(crate) fn serve(args: &[String]) -> Result<(), TeiError> {
    let fa = parse_args("serve", args);
    let cfg = fleet_config("serve", &fa)?;
    tei_core::serve(&fa.listen, &cfg, &mut print_event)
}

/// `tei submit`: queue a campaign on a running server, stream progress,
/// and print + persist the merged result.
pub(crate) fn submit(args: &[String]) -> Result<(), TeiError> {
    let fa = parse_args("submit", args);
    require_spec("submit", &fa.spec);
    let Some(addr) = fa.connect else {
        eprintln!("tei submit: --connect <addr> is required\n{USAGE}");
        std::process::exit(2);
    };
    let stream = TcpStream::connect(&addr).map_err(|e| TeiError::Fabric {
        detail: format!("connect to server {addr}: {e}"),
    })?;
    stream.set_nodelay(true).ok();
    // Bounded reads: a dead server is detected instead of blocking the
    // client forever. The idle cap is one lease timeout plus margin —
    // the server reports progress at least once per lease.
    let _ = wire::set_timeouts(
        &stream,
        Some(Duration::from_millis(500)),
        Some(Duration::from_secs(10)),
    );
    let idle_cap = fa.lease_timeout + Duration::from_secs(60);
    let reader_half = stream.try_clone().map_err(|e| TeiError::Fabric {
        detail: format!("clone stream to {addr}: {e}"),
    })?;
    let mut writer = stream;
    let peer = format!("server {addr}");
    wire::send(
        &mut writer,
        &peer,
        &Message::Submit {
            spec: fa.spec.clone(),
        },
    )?;
    let mut reader = wire::FrameReader::new(reader_half);
    let mut last_frame = std::time::Instant::now();
    loop {
        let step = reader.step().map_err(|e| TeiError::Fabric {
            detail: format!("receive from {peer}: {e}"),
        })?;
        let msg = match step {
            wire::FrameStep::Frame(payload) => {
                last_frame = std::time::Instant::now();
                Some(wire::decode(&payload, &peer)?)
            }
            wire::FrameStep::Idle => {
                if last_frame.elapsed() > idle_cap {
                    return Err(TeiError::Fabric {
                        detail: format!(
                            "{peer} sent nothing for {:.0}s; giving up",
                            idle_cap.as_secs_f64()
                        ),
                    });
                }
                continue;
            }
            wire::FrameStep::Eof => None,
        };
        match msg {
            None => {
                return Err(TeiError::Fabric {
                    detail: format!("{peer} closed the connection before the result"),
                })
            }
            Some(Message::Accepted { campaign }) => {
                eprintln!("[submit] accepted as campaign {campaign}");
            }
            Some(Message::Refused { detail }) => {
                return Err(TeiError::Fabric {
                    detail: format!("{peer} refused the campaign: {detail}"),
                })
            }
            Some(Message::Progress {
                completed, total, ..
            }) => eprintln!("[submit] {completed}/{total} runs durable"),
            Some(Message::Finished { result, .. }) => {
                match serde_json::from_str::<CampaignResult>(&result) {
                    Ok(parsed) => {
                        print_result(&parsed);
                        write_result(&parsed, fa.out.as_deref(), &fa.spec.benchmark)?;
                    }
                    // Schema drift between client and server build:
                    // still deliver the payload.
                    Err(_) => println!("{result}"),
                }
                return Ok(());
            }
            Some(other) => eprintln!("[submit] ignoring unexpected message: {other:?}"),
        }
    }
}

/// `tei fabric-worker`: the process body the coordinator spawns.
pub(crate) fn worker(args: &[String]) -> Result<(), TeiError> {
    let mut connect: Option<String> = None;
    let mut token: Option<u64> = None;
    let mut index: Option<u32> = None;
    let mut journal_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("tei fabric-worker: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--connect" => connect = Some(val()),
            "--token" => token = Some(parse_or_exit("fabric-worker", flag, &val())),
            "--index" => index = Some(parse_or_exit("fabric-worker", flag, &val())),
            "--journal-dir" => journal_dir = Some(PathBuf::from(val())),
            other => {
                eprintln!("tei fabric-worker: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (Some(connect), Some(token), Some(index), Some(journal_dir)) =
        (connect, token, index, journal_dir)
    else {
        eprintln!("tei fabric-worker: --connect, --token, --index, --journal-dir are all required");
        std::process::exit(2);
    };
    tei_core::config::validate_env()?;
    tei_core::shutdown::install_handlers();
    tei_core::fabric::worker_main(&connect, token, index, &journal_dir)
}
