//! The fabric coordinator: runs one campaign — spawns workers, grants
//! leases, survives worker death, and merges the final result.
//!
//! One scheduler thread owns all state; per-connection reader threads
//! and a timer thread feed it events over a channel, so there is no
//! shared-state locking anywhere in the control plane. Worker death is
//! detected on three clocks, fastest first: socket EOF (the kernel
//! closes a killed process's sockets immediately), heartbeat loss (a
//! SIGSTOPped or wedged worker stops beaconing and is presumed dead
//! after [`FabricConfig::heartbeat_timeout`]), and lease expiry as the
//! final backstop (a hung worker's lease is demoted and re-granted; if
//! the zombie later completes it anyway, the duplicate records are
//! byte-identical and the merge deduplicates them — see
//! [`crate::fabric::merge`]).
//!
//! Socket EOF is *soft* death: the worker process may be alive and
//! reconnecting (its coordinator-side socket broke, or a failpoint
//! injected a transport fault). Its leases are demoted immediately, but
//! the child process is left running for a grace window and its Hello
//! re-admits it; only heartbeat loss, poison ([`Message::WorkerError`]),
//! or grace expiry kill the process.

use crate::campaign::CampaignResult;
use crate::error::TeiError;
use crate::fabric::lease::LeaseTable;
use crate::fabric::wire::{self, Message};
use crate::fabric::{merge, CampaignSpec, ResolvedCampaign};
use crate::journal::{fnv64, CampaignManifest};
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kill a specific worker with SIGKILL once the fleet has completed a
/// number of leases — the deterministic chaos hook behind the fabric's
/// kill-and-reassign smoke tests. Also reused by the SIGSTOP variant
/// ([`FabricConfig::chaos_stop_worker`]), which freezes the target
/// instead: the process stays alive, its socket stays open, and only
/// heartbeat loss can detect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Worker index to kill.
    pub worker: u32,
    /// Fire once this many leases completed fleet-wide.
    pub after_leases: u64,
}

/// How long a soft-dead worker (socket EOF, process possibly alive) may
/// stay disconnected before the coordinator gives up and kills it.
/// Covers the worker's full reconnect backoff ladder with margin.
const ORPHAN_GRACE: Duration = Duration::from_secs(10);

/// Read timeout on every fabric socket the coordinator owns: bounds how
/// long a reader thread can block on a dead-but-not-closed peer between
/// [`wire::FrameReader`] steps.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Write timeout on every fabric socket: a peer that stops draining its
/// receive buffer fails the send instead of wedging the scheduler.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Send SIGSTOP to a process: alive but frozen — the cruelest liveness
/// test, because the kernel keeps its sockets open.
#[cfg(unix)]
fn sigstop(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGSTOP: i32 = 19;
    // SAFETY: kill(2) takes a pid and a signal number; no pointers, no
    // invariants beyond "don't signal arbitrary processes" — the pid
    // comes from our own spawned child.
    unsafe { kill(pid as i32, SIGSTOP) == 0 }
}

#[cfg(not(unix))]
fn sigstop(_pid: u32) -> bool {
    false
}

/// Default hung-worker lease expiry backstop
/// ([`FabricConfig::lease_timeout`]).
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(600);

/// Default scheduler tick ([`FabricConfig::tick`]).
pub const DEFAULT_TICK: Duration = Duration::from_millis(200);

/// Bounds for [`FabricConfig::tick`] in milliseconds: below 10 ms the
/// tick thread busy-spins, above a minute the fabric's liveness
/// machinery (lease expiry, heartbeat checks, child reaping) is
/// effectively off.
pub const FABRIC_TICK_RANGE_MS: (u64, u64) = (10, 60_000);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker processes to spawn. 0 runs a [`run_fabric_campaign`] in
    /// this process instead, through
    /// [`run_campaign_durable`](crate::campaign::run_campaign_durable).
    pub workers: usize,
    /// Journal directory shared by the fleet.
    pub journal_dir: PathBuf,
    /// Target leases per worker when partitioning (coarser ⇒ less
    /// coordination, finer ⇒ cheaper reassignment on death).
    pub leases_per_worker: usize,
    /// Backstop for hung workers: a granted lease older than this is
    /// demoted and re-granted. Socket EOF and heartbeat loss catch dead
    /// workers long before this fires.
    pub lease_timeout: Duration,
    /// Scheduler timer period (lease expiry, heartbeat staleness, child
    /// reaping all run on this clock).
    pub tick: Duration,
    /// A connected worker that has sent nothing — not even a heartbeat
    /// beacon — for this long is presumed dead: SIGKILLed, reaped, and
    /// its leases re-granted. Workers beacon every ~500 ms, so keep this
    /// comfortably above that.
    pub heartbeat_timeout: Duration,
    /// Worker process command (program + leading args); the coordinator
    /// appends `--connect/--token/--index/--journal-dir`.
    pub worker_cmd: Vec<String>,
    /// Test-only: SIGKILL a worker mid-campaign.
    pub chaos_kill_worker: Option<ChaosKill>,
    /// Test-only: SIGSTOP a worker mid-campaign — socket stays open, so
    /// only heartbeat staleness can detect it.
    pub chaos_stop_worker: Option<ChaosKill>,
}

impl FabricConfig {
    /// A config with defaults for everything but the worker command and
    /// journal directory: 2 workers, 4 leases per worker,
    /// [`DEFAULT_LEASE_TIMEOUT`], [`DEFAULT_TICK`] and a 5 s heartbeat
    /// timeout.
    pub fn new(worker_cmd: Vec<String>, journal_dir: PathBuf) -> Self {
        FabricConfig {
            workers: 2,
            journal_dir,
            leases_per_worker: 4,
            lease_timeout: DEFAULT_LEASE_TIMEOUT,
            tick: DEFAULT_TICK,
            heartbeat_timeout: Duration::from_secs(5),
            worker_cmd,
            chaos_kill_worker: None,
            chaos_stop_worker: None,
        }
    }

    /// Refuse timing settings that would break the fleet's liveness
    /// machinery: a tick outside [`FABRIC_TICK_RANGE_MS`] (a zero tick
    /// starves the scheduler), and a zero lease or heartbeat timeout
    /// (every lease or every worker would be presumed dead at once).
    ///
    /// # Errors
    ///
    /// [`TeiError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), TeiError> {
        let bad = |knob: &str, reason: String| TeiError::Config {
            knob: knob.to_string(),
            reason,
        };
        let (lo, hi) = FABRIC_TICK_RANGE_MS;
        let tick_ms = self.tick.as_millis();
        if !(u128::from(lo)..=u128::from(hi)).contains(&tick_ms) {
            return Err(bad(
                "tick",
                format!("{tick_ms} ms is outside [{lo}, {hi}] ms"),
            ));
        }
        if self.lease_timeout.is_zero() {
            return Err(bad("lease_timeout", "must be positive".into()));
        }
        if self.heartbeat_timeout.is_zero() {
            return Err(bad("heartbeat_timeout", "must be positive".into()));
        }
        Ok(())
    }
}

/// Progress events the coordinator narrates (CLI prints them, tests
/// assert on them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricEvent {
    /// A worker process was spawned.
    WorkerSpawned {
        /// Worker index.
        worker: u32,
    },
    /// A worker completed its handshake.
    WorkerConnected {
        /// Worker index.
        worker: u32,
    },
    /// A worker died or was poisoned; its leases went back to pending.
    WorkerDied {
        /// Worker index.
        worker: u32,
        /// Leases demoted back to pending.
        reassigned: usize,
    },
    /// A lease was granted.
    LeaseGranted {
        /// Worker index.
        worker: u32,
        /// Lease range start.
        lo: u64,
        /// Lease range end (exclusive).
        hi: u64,
    },
    /// Durable progress after a lease completed.
    Progress {
        /// Runs durably journaled.
        completed: u64,
        /// Total runs.
        total: u64,
    },
    /// The chaos hook killed a worker.
    ChaosKilled {
        /// Worker index.
        worker: u32,
    },
    /// The chaos hook SIGSTOPped a worker.
    ChaosStopped {
        /// Worker index.
        worker: u32,
    },
    /// A worker stopped beaconing and was presumed dead.
    HeartbeatLost {
        /// Worker index.
        worker: u32,
        /// Silence observed before giving up.
        silent_for: Duration,
    },
}

/// Scheduler-thread events from the I/O threads.
enum Event {
    NewConn {
        id: u64,
        stream: TcpStream,
        peer: String,
    },
    Msg {
        id: u64,
        msg: Message,
    },
    Closed {
        id: u64,
    },
    Tick,
}

struct Conn {
    stream: TcpStream,
    peer: String,
    /// Worker index, once a Hello passed the token check.
    worker: Option<u32>,
}

struct WorkerState {
    conn: u64,
    busy: Option<(u64, Instant)>, // (lease, granted at)
    /// Answered the campaign's Launch with a matching manifest.
    ready: bool,
    last_seen: Instant,
}

/// The one campaign a coordinator runs.
struct Job {
    spec: CampaignSpec,
    resolved: ResolvedCampaign,
    manifest: CampaignManifest,
    table: LeaseTable,
}

struct Coordinator<'a> {
    cfg: &'a FabricConfig,
    listener: TcpListener,
    addr: String,
    token: u64,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    conn_ids: Arc<AtomicU64>,
    stop_accept: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    workers: HashMap<u32, WorkerState>,
    children: HashMap<u32, Child>,
    job: Job,
    result: Option<CampaignResult>,
    total_lease_done: u64,
    chaos_fired: bool,
    chaos_stop_fired: bool,
    /// Soft-dead workers: socket closed but the child process was left
    /// alive for a reconnect grace window.
    orphaned: HashMap<u32, Instant>,
}

impl<'a> Coordinator<'a> {
    fn bind(cfg: &'a FabricConfig, job: Job) -> Result<Coordinator<'a>, TeiError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| TeiError::Fabric {
            detail: format!("bind coordinator socket: {e}"),
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| TeiError::Fabric {
                detail: format!("resolve coordinator address: {e}"),
            })?
            .to_string();
        // Spawn token: keeps stray local connections from masquerading
        // as fleet workers. Not cryptographic — the threat model is
        // accident, not attack, on a loopback socket.
        let mut seed = Vec::new();
        seed.extend_from_slice(&std::process::id().to_le_bytes());
        if let Ok(t) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
            seed.extend_from_slice(&t.subsec_nanos().to_le_bytes());
            seed.extend_from_slice(&t.as_secs().to_le_bytes());
        }
        let token = fnv64(&seed);
        let (tx, rx) = channel();
        Ok(Coordinator {
            cfg,
            listener,
            addr,
            token,
            tx,
            rx,
            conn_ids: Arc::new(AtomicU64::new(1)),
            stop_accept: Arc::new(AtomicBool::new(false)),
            conns: HashMap::new(),
            workers: HashMap::new(),
            children: HashMap::new(),
            job,
            result: None,
            total_lease_done: 0,
            chaos_fired: false,
            chaos_stop_fired: false,
            orphaned: HashMap::new(),
        })
    }

    /// Start the accept, reader, and timer threads.
    fn start_io(&self) -> Result<(), TeiError> {
        let listener = self.listener.try_clone().map_err(|e| TeiError::Fabric {
            detail: format!("clone listener: {e}"),
        })?;
        let tx = self.tx.clone();
        let ids = Arc::clone(&self.conn_ids);
        let stop = Arc::clone(&self.stop_accept);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                stream.set_nodelay(true).ok();
                // Bounded reads and writes: a dead-but-unclosed peer
                // (SIGSTOP, network limbo) cannot wedge a thread.
                let _ = wire::set_timeouts(&stream, Some(READ_TIMEOUT), Some(WRITE_TIMEOUT));
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "unknown".to_string());
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                let id = ids.fetch_add(1, Ordering::Relaxed);
                if tx
                    .send(Event::NewConn {
                        id,
                        stream,
                        peer: peer.clone(),
                    })
                    .is_err()
                {
                    break;
                }
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // FrameReader, not read_frame: the read timeout can
                    // land mid-frame, and partial bytes must survive.
                    let mut reader = wire::FrameReader::new(read_half);
                    loop {
                        match reader.step() {
                            Ok(wire::FrameStep::Frame(payload)) => {
                                match wire::decode(&payload, &peer) {
                                    Ok(msg) => {
                                        if tx.send(Event::Msg { id, msg }).is_err() {
                                            break;
                                        }
                                    }
                                    Err(_) => {
                                        let _ = tx.send(Event::Closed { id });
                                        break;
                                    }
                                }
                            }
                            Ok(wire::FrameStep::Idle) => {
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            Ok(wire::FrameStep::Eof) | Err(_) => {
                                let _ = tx.send(Event::Closed { id });
                                break;
                            }
                        }
                    }
                });
            }
        });
        let tx = self.tx.clone();
        let tick = self.cfg.tick;
        std::thread::spawn(move || loop {
            std::thread::sleep(tick);
            if tx.send(Event::Tick).is_err() {
                break;
            }
        });
        Ok(())
    }

    fn spawn_workers(&mut self, on_event: &mut dyn FnMut(&FabricEvent)) -> Result<(), TeiError> {
        let Some(program) = self.cfg.worker_cmd.first() else {
            return Err(TeiError::Fabric {
                detail: "empty worker command".to_string(),
            });
        };
        let mut first_err = None;
        for i in 0..self.cfg.workers as u32 {
            let spawned = crate::failpoint::io_check("worker.spawn")
                .map_err(|e| TeiError::Fabric {
                    detail: format!("spawn worker {i} ({program}): {e}"),
                })
                .and_then(|()| {
                    Command::new(program)
                        .args(&self.cfg.worker_cmd[1..])
                        .arg("--connect")
                        .arg(&self.addr)
                        .arg("--token")
                        .arg(self.token.to_string())
                        .arg("--index")
                        .arg(i.to_string())
                        .arg("--journal-dir")
                        .arg(&self.cfg.journal_dir)
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| TeiError::Fabric {
                            detail: format!("spawn worker {i} ({program}): {e}"),
                        })
                });
            match spawned {
                Ok(child) => {
                    self.children.insert(i, child);
                    on_event(&FabricEvent::WorkerSpawned { worker: i });
                }
                Err(e) => {
                    // A degraded fleet still makes progress; only a
                    // fleet of zero is fatal.
                    eprintln!("[fabric] {e} — continuing with a smaller fleet");
                    first_err = Some(e);
                }
            }
        }
        match (self.children.is_empty(), first_err) {
            (true, Some(e)) => Err(e),
            _ => Ok(()),
        }
    }

    /// Best-effort send; a failed write is handled when the reader
    /// thread reports the connection closed.
    fn send_to(&mut self, conn_id: u64, msg: &Message) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            let _ = wire::send(&mut conn.stream, &conn.peer, msg);
        }
    }

    /// Grant pending leases to idle, ready workers.
    fn pump(&mut self, on_event: &mut dyn FnMut(&FabricEvent)) {
        let worker_ids: Vec<u32> = self.workers.keys().copied().collect();
        for windex in worker_ids {
            let Some(w) = self.workers.get(&windex) else {
                continue;
            };
            if w.busy.is_some() || !w.ready {
                continue;
            }
            let conn = w.conn;
            let Some(lease) = self.job.table.next_pending() else {
                return;
            };
            self.job.table.grant(lease.id, windex);
            if let Some(w) = self.workers.get_mut(&windex) {
                w.busy = Some((lease.id, Instant::now()));
            }
            self.send_to(
                conn,
                &Message::Grant {
                    lease: lease.id,
                    lo: lease.lo,
                    hi: lease.hi,
                },
            );
            on_event(&FabricEvent::LeaseGranted {
                worker: windex,
                lo: lease.lo,
                hi: lease.hi,
            });
        }
    }

    /// A worker's connection is gone. Demote its leases and drop its
    /// connection state either way; `reap` decides the process's fate —
    /// `true` (poisoned / heartbeat-lost / grace expired) kills and
    /// reaps the child, `false` (socket EOF) leaves it alive in the
    /// orphan set so a reconnecting worker can be re-admitted.
    fn on_worker_dead(&mut self, windex: u32, reap: bool, on_event: &mut dyn FnMut(&FabricEvent)) {
        let had_state = match self.workers.remove(&windex) {
            Some(w) => {
                self.conns.remove(&w.conn);
                true
            }
            None => false,
        };
        if reap {
            self.orphaned.remove(&windex);
            if let Some(mut child) = self.children.remove(&windex) {
                let _ = child.kill();
                let _ = child.wait();
            }
        } else if self.children.contains_key(&windex) {
            self.orphaned.entry(windex).or_insert_with(Instant::now);
        }
        if !had_state {
            return;
        }
        let reassigned = self.job.table.demote_worker(windex);
        on_event(&FabricEvent::WorkerDied {
            worker: windex,
            reassigned,
        });
    }

    /// SIGKILL the chaos target once the completion threshold is hit
    /// and the target is mid-lease (so the kill provably lands inside a
    /// lease, which is what the reassignment machinery must survive).
    fn chaos_check(&mut self, on_event: &mut dyn FnMut(&FabricEvent)) {
        if self.chaos_fired {
            return;
        }
        let Some(kill) = self.cfg.chaos_kill_worker else {
            return;
        };
        if self.total_lease_done < kill.after_leases {
            return;
        }
        let busy = self
            .workers
            .get(&kill.worker)
            .is_some_and(|w| w.busy.is_some());
        if !busy {
            return;
        }
        if let Some(child) = self.children.get_mut(&kill.worker) {
            // SIGKILL on unix: no drain, no flush — the worst case the
            // journals must absorb.
            let _ = child.kill();
            self.chaos_fired = true;
            on_event(&FabricEvent::ChaosKilled {
                worker: kill.worker,
            });
        }
    }

    /// SIGSTOP the chaos target once the threshold is hit and the
    /// target is mid-lease. Unlike SIGKILL, the kernel keeps a stopped
    /// process's sockets open — no EOF fires, so this exercises the
    /// heartbeat-staleness detector specifically.
    fn chaos_stop_check(&mut self, on_event: &mut dyn FnMut(&FabricEvent)) {
        if self.chaos_stop_fired {
            return;
        }
        let Some(stop) = self.cfg.chaos_stop_worker else {
            return;
        };
        if self.total_lease_done < stop.after_leases {
            return;
        }
        let busy = self
            .workers
            .get(&stop.worker)
            .is_some_and(|w| w.busy.is_some());
        if !busy {
            return;
        }
        if let Some(child) = self.children.get(&stop.worker) {
            if sigstop(child.id()) {
                self.chaos_stop_fired = true;
                on_event(&FabricEvent::ChaosStopped {
                    worker: stop.worker,
                });
            }
        }
    }

    /// Finish the campaign: persist the lease table and merge.
    fn finalize(&mut self) -> Result<(), TeiError> {
        let job = &self.job;
        job.table.save(&self.cfg.journal_dir, &job.manifest)?;
        self.result = Some(merge::merged_result(
            &job.resolved.bench.id.to_string(),
            &job.resolved.golden,
            &job.resolved.model,
            &job.manifest,
            &self.cfg.journal_dir,
        )?);
        Ok(())
    }

    fn handle_msg(
        &mut self,
        conn_id: u64,
        msg: Message,
        on_event: &mut dyn FnMut(&FabricEvent),
    ) -> Result<(), TeiError> {
        // Any frame from a worker is proof of life.
        if let Some(windex) = self.worker_of(conn_id) {
            if let Some(w) = self.workers.get_mut(&windex) {
                w.last_seen = Instant::now();
            }
        }
        match msg {
            Message::Hello { token, worker } => {
                if token != self.token {
                    // Stray connection: drop it, not the fabric.
                    if let Some(conn) = self.conns.remove(&conn_id) {
                        eprintln!("[fabric] refused connection from {} (bad token)", conn.peer);
                    }
                    return Ok(());
                }
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.worker = Some(worker);
                }
                // A reconnect: retire the stale state. The old
                // connection's leases are demoted (the worker rebuilt
                // its context and will not finish them); re-executed
                // runs are skipped via the journal and any true
                // duplicates deduplicate in the merge.
                if let Some(old) = self.workers.remove(&worker) {
                    if old.conn != conn_id {
                        self.conns.remove(&old.conn);
                    }
                    let demoted = self.job.table.demote_worker(worker);
                    if demoted > 0 {
                        eprintln!(
                            "[fabric] worker {worker} reconnected; \
                             {demoted} stale lease(s) demoted"
                        );
                    }
                }
                self.orphaned.remove(&worker);
                self.workers.insert(
                    worker,
                    WorkerState {
                        conn: conn_id,
                        busy: None,
                        ready: false,
                        last_seen: Instant::now(),
                    },
                );
                on_event(&FabricEvent::WorkerConnected { worker });
                let launch = Message::Launch {
                    spec: self.job.spec.clone(),
                };
                self.send_to(conn_id, &launch);
            }
            Message::Ready { manifest_hash } => {
                let Some(windex) = self.worker_of(conn_id) else {
                    return Ok(());
                };
                let expected = self.job.manifest.hash();
                if manifest_hash != expected {
                    // The worker binary resolves the same spec to a
                    // different campaign identity — merging its journal
                    // would be silent corruption. Fatal.
                    return Err(TeiError::Protocol {
                        peer: format!("worker {windex}"),
                        detail: format!(
                            "manifest drift: worker derived {manifest_hash:#018x}, \
                             coordinator {expected:#018x} — rebuild the fleet from one binary"
                        ),
                    });
                }
                if let Some(w) = self.workers.get_mut(&windex) {
                    w.ready = true;
                }
                self.pump(on_event);
            }
            Message::LeaseDone { lease } => {
                let Some(windex) = self.worker_of(conn_id) else {
                    return Ok(());
                };
                if let Some(w) = self.workers.get_mut(&windex) {
                    w.busy = None;
                }
                self.total_lease_done += 1;
                let job = &mut self.job;
                job.table.complete(lease);
                job.table.save(&self.cfg.journal_dir, &job.manifest)?;
                on_event(&FabricEvent::Progress {
                    completed: job.table.completed_runs(),
                    total: job.manifest.runs,
                });
                self.chaos_check(on_event);
                self.chaos_stop_check(on_event);
                if self.job.table.all_done() {
                    self.finalize()?;
                }
                self.pump(on_event);
            }
            Message::Heartbeat { .. } => {
                // Liveness already refreshed above; nothing else to do.
            }
            Message::WorkerError { detail } => {
                eprintln!("[fabric] {detail}");
                if let Some(windex) = self.worker_of(conn_id) {
                    // Poisoned, not disconnected: kill it for real.
                    self.on_worker_dead(windex, true, on_event);
                    self.pump(on_event);
                }
            }
            other => {
                let peer = self
                    .conns
                    .get(&conn_id)
                    .map(|c| c.peer.clone())
                    .unwrap_or_else(|| "unknown".to_string());
                eprintln!("[fabric] ignoring unexpected message from {peer}: {other:?}");
            }
        }
        Ok(())
    }

    fn worker_of(&self, conn_id: u64) -> Option<u32> {
        self.conns.get(&conn_id).and_then(|c| c.worker)
    }

    /// Demote leases whose grant outlived the timeout (hung worker).
    fn expire_leases(&mut self, on_event: &mut dyn FnMut(&FabricEvent)) {
        let timeout = self.cfg.lease_timeout;
        let mut expired: Vec<(u32, u64)> = Vec::new();
        for (&windex, w) in &self.workers {
            if let Some((lease, granted)) = w.busy {
                if granted.elapsed() > timeout {
                    expired.push((windex, lease));
                }
            }
        }
        for (windex, lease) in expired {
            eprintln!("[fabric] lease {lease} on worker {windex} expired; reassigning");
            self.job.table.demote(lease);
            if let Some(w) = self.workers.get_mut(&windex) {
                w.busy = None;
            }
        }
        self.pump(on_event);
    }

    /// Does the campaign still hold unfinished leases?
    fn unfinished(&self) -> bool {
        !self.job.table.all_done()
    }

    /// Graceful teardown: ask workers to exit, give them a moment, then
    /// make sure.
    fn shutdown_fleet(&mut self) {
        self.stop_accept.store(true, Ordering::Relaxed);
        let worker_conns: Vec<u64> = self.workers.values().map(|w| w.conn).collect();
        for conn in worker_conns {
            self.send_to(conn, &Message::Shutdown);
        }
        // Wake the blocked accept loop so its thread exits.
        let _ = TcpStream::connect(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(2);
        for (_, child) in self.children.iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }

    /// The scheduler loop: returns the merged result once the campaign
    /// finishes.
    fn run_loop(
        &mut self,
        on_event: &mut dyn FnMut(&FabricEvent),
    ) -> Result<CampaignResult, TeiError> {
        loop {
            if let Some(result) = self.result.take() {
                return Ok(result);
            }
            let event = self.rx.recv().map_err(|_| TeiError::Fabric {
                detail: "coordinator event channel closed".to_string(),
            })?;
            match event {
                Event::NewConn { id, stream, peer } => {
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            peer,
                            worker: None,
                        },
                    );
                }
                Event::Msg { id, msg } => self.handle_msg(id, msg, on_event)?,
                Event::Closed { id } => {
                    if let Some(windex) = self.worker_of(id) {
                        // Soft death: the process may be alive and
                        // reconnecting. Leases are demoted now; the
                        // child gets an orphan grace window.
                        self.on_worker_dead(windex, false, on_event);
                        self.pump(on_event);
                    } else {
                        // A pre-handshake stranger left.
                        self.conns.remove(&id);
                    }
                    if self.workers.is_empty() && self.children.is_empty() && self.unfinished() {
                        return Err(TeiError::Fabric {
                            detail: "every worker died with leases outstanding; \
                                     journals are intact — re-run to resume"
                                .to_string(),
                        });
                    }
                }
                Event::Tick => {
                    if crate::shutdown::requested() {
                        return Err(TeiError::Interrupted {
                            completed: self.job.table.completed_runs(),
                            requested: self.job.manifest.runs,
                        });
                    }
                    self.expire_leases(on_event);
                    self.chaos_check(on_event);
                    self.chaos_stop_check(on_event);
                    // Heartbeat staleness: a connected worker that has
                    // been silent past the timeout is presumed dead
                    // (SIGSTOPped, wedged, or in network limbo) even
                    // though its socket never closed.
                    let stale: Vec<(u32, Duration)> = self
                        .workers
                        .iter()
                        .filter_map(|(&i, w)| {
                            let silent = w.last_seen.elapsed();
                            (silent > self.cfg.heartbeat_timeout).then_some((i, silent))
                        })
                        .collect();
                    for (windex, silent_for) in stale {
                        eprintln!(
                            "[fabric] worker {windex} heartbeat lost \
                             ({:.1}s silent); presumed dead",
                            silent_for.as_secs_f64()
                        );
                        on_event(&FabricEvent::HeartbeatLost {
                            worker: windex,
                            silent_for,
                        });
                        self.on_worker_dead(windex, true, on_event);
                        self.pump(on_event);
                    }
                    // Reap chaos-killed (or otherwise dead) children
                    // whose sockets have not reported EOF yet, and
                    // orphans whose reconnect grace ran out.
                    let dead: Vec<u32> = self
                        .children
                        .iter_mut()
                        .filter_map(|(&i, c)| matches!(c.try_wait(), Ok(Some(_))).then_some(i))
                        .collect();
                    for windex in dead {
                        self.on_worker_dead(windex, true, on_event);
                        self.pump(on_event);
                    }
                    let expired_orphans: Vec<u32> = self
                        .orphaned
                        .iter()
                        .filter_map(|(&i, &since)| (since.elapsed() > ORPHAN_GRACE).then_some(i))
                        .collect();
                    for windex in expired_orphans {
                        eprintln!(
                            "[fabric] worker {windex} never reconnected; reaping the process"
                        );
                        self.on_worker_dead(windex, true, on_event);
                        self.pump(on_event);
                    }
                    if self.workers.is_empty() && self.children.is_empty() && self.unfinished() {
                        return Err(TeiError::Fabric {
                            detail: "every worker died with leases outstanding; \
                                     journals are intact — re-run to resume"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
}

/// Run one campaign over a locally spawned worker fleet and return the
/// merged result (`tei campaign --workers N`). If the journals already
/// cover every run, the merge happens without spawning anything. With
/// `cfg.workers == 0` the campaign runs in this process instead, with
/// the spec's `threads_per_worker` threads, journaling to the same
/// directory through [`crate::campaign::run_campaign_durable`]; the
/// result is the same.
///
/// # Errors
///
/// [`TeiError::Config`] for an invalid `cfg` (see
/// [`FabricConfig::validate`]), [`TeiError::Fabric`] /
/// [`TeiError::Protocol`] for fleet failures, [`TeiError::Interrupted`]
/// on SIGINT/SIGTERM (journals and lease table are flushed; re-running
/// resumes), plus anything campaign resolution or the merge surfaces.
pub fn run_fabric_campaign(
    spec: &CampaignSpec,
    cfg: &FabricConfig,
    on_event: &mut dyn FnMut(&FabricEvent),
) -> Result<CampaignResult, TeiError> {
    cfg.validate()?;
    if cfg.workers == 0 {
        let resolved = spec.resolve(None)?;
        return crate::campaign::run_campaign_durable(
            &resolved.bench.id.to_string(),
            &resolved.golden,
            &resolved.model,
            &resolved.cfg,
            &cfg.journal_dir,
        );
    }
    crate::config::validate_env()?;
    crate::failpoint::set_role("coord");
    crate::failpoint::configure_from_env()?;
    crate::shutdown::install_handlers();
    let resolved = spec.resolve(None)?;
    let manifest = resolved.manifest();
    std::fs::create_dir_all(&cfg.journal_dir)
        .map_err(|e| TeiError::io("create journal dir", &cfg.journal_dir, e))?;
    let merged = merge::scan_journals(&cfg.journal_dir, &manifest)?;
    // A persisted lease table must agree with the journals (and be ours
    // at all — load refuses foreign manifest hashes).
    if let Some(prev) = LeaseTable::load(&cfg.journal_dir, &manifest)? {
        let journaled: HashSet<u64> = merged.records.keys().copied().collect();
        prev.verify_against(&journaled)?;
    }
    let missing = merged.missing(manifest.runs);
    if missing.is_empty() {
        // Already complete on disk: merge without spawning anything.
        return merge::merged_result(
            &resolved.bench.id.to_string(),
            &resolved.golden,
            &resolved.model,
            &manifest,
            &cfg.journal_dir,
        );
    }
    let target = (cfg.workers * cfg.leases_per_worker).max(1);
    let table = LeaseTable::partition(&manifest, &missing, target);
    table.save(&cfg.journal_dir, &manifest)?;
    let job = Job {
        spec: spec.clone(),
        resolved,
        manifest,
        table,
    };
    let mut coord = Coordinator::bind(cfg, job)?;
    coord.start_io()?;
    coord.spawn_workers(on_event)?;
    let run = coord.run_loop(on_event);
    coord.shutdown_fleet();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(edit: impl FnOnce(&mut FabricConfig)) -> String {
        let mut cfg = FabricConfig::new(Vec::new(), PathBuf::from("journal"));
        edit(&mut cfg);
        match cfg.validate() {
            Err(e @ TeiError::Config { .. }) => e.to_string(),
            other => panic!("expected a config refusal, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_the_defaults_and_the_tick_bounds() {
        let mut cfg = FabricConfig::new(Vec::new(), PathBuf::from("journal"));
        assert!(cfg.validate().is_ok());
        for ms in [FABRIC_TICK_RANGE_MS.0, FABRIC_TICK_RANGE_MS.1] {
            cfg.tick = Duration::from_millis(ms);
            assert!(cfg.validate().is_ok(), "{ms} ms is inside the range");
        }
    }

    #[test]
    fn validate_refuses_a_tick_outside_the_range() {
        for ms in [0, FABRIC_TICK_RANGE_MS.0 - 1, FABRIC_TICK_RANGE_MS.1 + 1] {
            let msg = refusal(|c| c.tick = Duration::from_millis(ms));
            assert!(msg.contains("tick"), "{msg}");
        }
    }

    #[test]
    fn validate_refuses_a_zero_lease_timeout() {
        let msg = refusal(|c| c.lease_timeout = Duration::ZERO);
        assert!(msg.contains("lease_timeout"), "{msg}");
    }

    #[test]
    fn validate_refuses_a_zero_heartbeat_timeout() {
        let msg = refusal(|c| c.heartbeat_timeout = Duration::ZERO);
        assert!(msg.contains("heartbeat_timeout"), "{msg}");
    }
}
