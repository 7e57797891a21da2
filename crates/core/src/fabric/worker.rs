//! The fabric worker process body.
//!
//! A worker connects to its coordinator, introduces itself with the
//! spawn token, and then executes whatever leases it is granted,
//! committing every completed run to its own per-worker journal (in
//! fsync'd batches) before acknowledging the lease. A worker serves
//! its coordinator's one campaign; it captures that campaign's golden
//! run (with its checkpoint pool) once per process and keeps it across
//! reconnects.
//!
//! Robustness posture:
//!
//! * **Reconnect, don't die.** A transport failure (coordinator socket
//!   reset, injected wire fault) tears down the connection state and
//!   re-dials with capped exponential backoff plus seeded jitter. The
//!   per-connection campaign context is rebuilt from the Launch the
//!   coordinator sends on Hello, and the reopened journal's skip set
//!   makes any re-granted lease idempotent.
//! * **Beacon while busy.** A heartbeat thread sends
//!   [`Message::Heartbeat`] every ~500 ms over the shared writer, so
//!   the coordinator can tell a worker grinding through a long lease
//!   from a SIGSTOPped or wedged one in seconds. It stops as soon as the
//!   connection ends, so teardown never waits out a beacon period.
//! * **Degrade on disk-full.** A lease that drains on `ENOSPC` reports
//!   a typed [`TeiError::DiskFull`] (journal intact, resumable) instead
//!   of dying mid-frame.

use crate::campaign::{execute_lease, CampaignConfig, GoldenRun};
use crate::error::TeiError;
use crate::fabric::wire::{self, FrameStep, Message};
use crate::fabric::CampaignSpec;
use crate::journal::{CampaignManifest, Journal};
use crate::models::DaModel;
use std::collections::HashSet;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Re-dial attempts before giving up on the coordinator.
const MAX_CONNECT_ATTEMPTS: u32 = 7;

/// Heartbeat beacon period. Keep well under any configured
/// [`crate::fabric::FabricConfig::heartbeat_timeout`].
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Socket read timeout: bounds how long the worker can block on a dead
/// coordinator between [`wire::FrameReader`] steps.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Socket write timeout: a coordinator that stops draining fails the
/// send (and triggers a reconnect) instead of wedging the worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The prepared campaign context.
struct WorkerJob {
    golden: Arc<GoldenRun>,
    model: DaModel,
    cfg: CampaignConfig,
    journal: Mutex<Journal>,
    /// Runs already in *this worker's* journal (its own resume skip
    /// set; cross-worker duplicates are the merge's business).
    done: HashSet<u64>,
}

/// Run the worker loop until the coordinator says shutdown or is gone
/// for good. `index` names this worker's journal files; `token` must
/// match the coordinator's spawn token.
///
/// # Errors
///
/// [`TeiError::Fabric`] when the coordinator stays unreachable through
/// the whole backoff ladder, [`TeiError::Protocol`] on protocol
/// violations, [`TeiError::DiskFull`] when a lease drained on `ENOSPC`,
/// plus anything campaign execution surfaces.
pub fn worker_main(addr: &str, token: u64, index: u32, journal_dir: &Path) -> Result<(), TeiError> {
    crate::failpoint::set_role(&format!("w{index}"));
    crate::failpoint::configure_from_env()?;
    let mut golden: Option<Arc<GoldenRun>> = None;
    let mut attempt: u32 = 0;
    loop {
        let stream = match connect(addr, index, attempt) {
            Ok(s) => s,
            Err(e) => {
                attempt += 1;
                if attempt >= MAX_CONNECT_ATTEMPTS {
                    return Err(e);
                }
                continue;
            }
        };
        match serve_connection(stream, addr, token, index, journal_dir, &mut golden) {
            Ok(()) => return Ok(()),
            // Transport-level loss: the coordinator may still be alive
            // (our socket broke, or a fault was injected). Re-dial with
            // the backoff ladder restarted; leases re-executed after
            // reconnect are idempotent via the journal skip set.
            Err(TeiError::Fabric { detail }) => {
                crate::log_line!("[worker {index}] connection lost ({detail}); reconnecting");
                attempt = 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Dial the coordinator. Attempt `n > 0` sleeps a capped exponential
/// backoff first, with jitter seeded from `(index, attempt)` so a fleet
/// of workers neither thunders in lockstep nor behaves differently
/// between identically seeded chaos runs.
fn connect(addr: &str, index: u32, attempt: u32) -> Result<TcpStream, TeiError> {
    if attempt > 0 {
        let base = Duration::from_millis(50u64 << attempt.min(5));
        let jitter = crate::failpoint::splitmix64((u64::from(index) << 32) ^ u64::from(attempt));
        let delay = base.min(Duration::from_secs(2)) + Duration::from_millis(jitter % 50);
        std::thread::sleep(delay);
    }
    crate::failpoint::io_check("worker.connect")
        .and_then(|()| TcpStream::connect(addr))
        .map_err(|e| TeiError::Fabric {
            detail: format!("worker {index}: connect to coordinator {addr}: {e}"),
        })
}

/// Send through the writer shared with the heartbeat thread.
fn send_shared(writer: &Arc<Mutex<TcpStream>>, peer: &str, msg: &Message) -> Result<(), TeiError> {
    let mut w = match writer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    wire::send(&mut *w, peer, msg)
}

/// One connection's lifetime: handshake, heartbeat thread, message
/// loop. Returns `Ok(())` on a clean exit (Shutdown, coordinator EOF,
/// interrupt) and `Err` otherwise; [`TeiError::Fabric`] errors are the
/// reconnectable kind.
fn serve_connection(
    stream: TcpStream,
    addr: &str,
    token: u64,
    index: u32,
    journal_dir: &Path,
    golden: &mut Option<Arc<GoldenRun>>,
) -> Result<(), TeiError> {
    stream.set_nodelay(true).ok();
    let _ = wire::set_timeouts(&stream, Some(READ_TIMEOUT), Some(WRITE_TIMEOUT));
    let reader_half = stream.try_clone().map_err(|e| TeiError::Fabric {
        detail: format!("worker {index}: clone stream: {e}"),
    })?;
    let writer = Arc::new(Mutex::new(stream));
    let peer = format!("coordinator {addr}");
    send_shared(
        &writer,
        &peer,
        &Message::Hello {
            token,
            worker: index,
        },
    )?;

    // Heartbeat beacon. Sends through its own failpoint site
    // (`wire.heartbeat`) so chaos schedules aimed at control frames
    // (`wire.send`) don't have their hit counts consumed by beacons. It
    // waits on a channel rather than sleeping, so dropping the sender
    // stops it at once instead of up to one period later.
    let (hb_stop, hb_wait) = mpsc::channel::<()>();
    let hb = {
        let writer = Arc::clone(&writer);
        let peer = peer.clone();
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = hb_wait.recv_timeout(HEARTBEAT_INTERVAL) {
                let mut w = match writer.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if wire::send_on(
                    "wire.heartbeat",
                    &mut *w,
                    &peer,
                    &Message::Heartbeat { worker: index },
                )
                .is_err()
                {
                    // Dead socket; the main loop will notice too.
                    break;
                }
            }
        })
    };

    let result = connection_loop(reader_half, &writer, &peer, index, journal_dir, golden);
    drop(hb_stop);
    let _ = hb.join();
    result
}

fn connection_loop(
    reader_half: TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    peer: &str,
    index: u32,
    journal_dir: &Path,
    golden: &mut Option<Arc<GoldenRun>>,
) -> Result<(), TeiError> {
    let mut reader = wire::FrameReader::new(reader_half);
    let mut job: Option<WorkerJob> = None;
    loop {
        let msg = loop {
            match reader.step() {
                Ok(FrameStep::Frame(payload)) => break wire::decode(&payload, peer)?,
                Ok(FrameStep::Idle) => {
                    if crate::shutdown::requested() {
                        // Idle and signalled: nothing in flight, every
                        // completed lease is committed.
                        return Err(TeiError::Interrupted {
                            completed: 0,
                            requested: 0,
                        });
                    }
                }
                // Coordinator gone: nothing to clean up — a lease returns
                // only after its final batch commit, so every acknowledged
                // run is on disk.
                Ok(FrameStep::Eof) => return Ok(()),
                Err(e) => {
                    return Err(TeiError::Fabric {
                        detail: format!("receive from {peer}: {e}"),
                    })
                }
            }
        };
        match msg {
            Message::Launch { spec } => match prepare(&spec, index, journal_dir, golden) {
                Ok((prepared, manifest_hash)) => {
                    job = Some(prepared);
                    send_shared(writer, peer, &Message::Ready { manifest_hash })?;
                }
                Err(e) => {
                    send_shared(
                        writer,
                        peer,
                        &Message::WorkerError {
                            detail: format!("worker {index}: launch failed: {e}"),
                        },
                    )?;
                }
            },
            Message::Grant { lease, lo, hi } => {
                let Some(job) = job.as_mut() else {
                    send_shared(
                        writer,
                        peer,
                        &Message::WorkerError {
                            detail: format!("worker {index}: grant before launch"),
                        },
                    )?;
                    continue;
                };
                // Chaos site: `abort` here is a SIGKILL-equivalent death
                // landing provably inside a lease.
                crate::failpoint::io_check("worker.lease").map_err(|e| TeiError::Fabric {
                    detail: format!("worker {index}: lease {lease} faulted: {e}"),
                })?;
                let outcome = execute_lease(
                    &job.golden,
                    &job.model,
                    &job.cfg,
                    lo,
                    hi,
                    &job.done,
                    &job.journal,
                )?;
                if let Some(path) = outcome.disk_full {
                    // Graceful ENOSPC: in-flight runs drained, journal
                    // intact. Tell the coordinator why before exiting
                    // with the typed, resumable error.
                    let _ = send_shared(
                        writer,
                        peer,
                        &Message::WorkerError {
                            detail: format!(
                                "worker {index}: disk full under {}; \
                                 journal drained and resumable",
                                path.display()
                            ),
                        },
                    );
                    return Err(TeiError::DiskFull {
                        path,
                        completed: job.done.len() as u64 + outcome.counts.total(),
                        requested: job.cfg.runs as u64,
                    });
                }
                if outcome.interrupted {
                    // A shutdown signal reached this worker; every
                    // tallied run is committed. Exit and let the
                    // coordinator reassign the remainder.
                    return Err(TeiError::Interrupted {
                        completed: job.done.len() as u64,
                        requested: job.cfg.runs as u64,
                    });
                }
                job.done.extend(lo..hi);
                send_shared(writer, peer, &Message::LeaseDone { lease })?;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(TeiError::Protocol {
                    peer: peer.to_string(),
                    detail: format!("unexpected message for a worker: {other:?}"),
                })
            }
        }
    }
}

/// Build the campaign context: resolve the spec (reusing the golden run
/// an earlier connection captured), open this worker's journal, and
/// replay its own completed runs.
fn prepare(
    spec: &CampaignSpec,
    index: u32,
    journal_dir: &Path,
    golden: &mut Option<Arc<GoldenRun>>,
) -> Result<(WorkerJob, u64), TeiError> {
    let resolved = spec.resolve(golden.clone())?;
    *golden = Some(Arc::clone(&resolved.golden));
    let manifest = resolved.manifest();
    let path = journal_path(journal_dir, &manifest, index);
    std::fs::create_dir_all(journal_dir)
        .map_err(|e| TeiError::io("create journal dir", journal_dir, e))?;
    let resume = Journal::open_or_create_at(&path, &manifest)?;
    if resume.truncated_bytes > 0 {
        crate::log_line!(
            "[worker {index}] recovered {}: dropped {} torn byte(s)",
            path.display(),
            resume.truncated_bytes
        );
    }
    let done: HashSet<u64> = resume.completed.iter().map(|r| r.run).collect();
    let manifest_hash = manifest.hash();
    Ok((
        WorkerJob {
            golden: resolved.golden,
            model: resolved.model,
            cfg: resolved.cfg,
            journal: Mutex::new(resume.journal),
            done,
        },
        manifest_hash,
    ))
}

/// This worker's journal path for a campaign.
pub fn journal_path(dir: &Path, manifest: &CampaignManifest, index: u32) -> PathBuf {
    dir.join(manifest.worker_file_name(index))
}
