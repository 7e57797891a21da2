//! Deterministic failpoint injection for the durability layer.
//!
//! ZOFI's lesson (PAPERS.md) is that fault-tolerance claims need
//! *systematic* fault injection into the running system, not hope; this
//! module is that instrument for the toolflow's own infrastructure. A
//! **failpoint** is a named site on a durability-critical path — journal
//! appends and fsyncs, lease-table persistence, wire frame reads and
//! writes, worker spawn/connect, artifact atomic renames — where a
//! seeded schedule can inject a fault:
//!
//! * **actions** — a typed I/O error (`io:<kind>`), simulated disk
//!   exhaustion (`enospc`), a torn short-write (`torn:<bytes>`), frame
//!   delay/drop/duplication (`delay:<ms>` / `drop` / `dup`), or a hard
//!   process abort (`abort`);
//! * **triggers** — one-shot (`once`), every hit (`always`), exactly the
//!   Nth hit (`hit:<n>`), every hit after the Nth (`after:<n>`), or a
//!   seeded per-hit probability (`prob:<p>:<seed>`).
//!
//! Schedules are programmed through the `TEI_FAILPOINTS` environment
//! variable (grammar below) or [`configure`], and an entry may be scoped
//! to a process **role** (`coord`, `w<i>`, `worker` for any worker,
//! `solo`) so one schedule string can arm the coordinator and a single
//! worker differently even though spawned workers inherit the same
//! environment:
//!
//! ```text
//! schedule := entry (';' entry)*
//! entry    := [role '/'] site '=' action ['@' trigger]
//! example  := "w0/journal.append.write=torn:5@hit:3;coord/lease.save=enospc"
//! ```
//!
//! Determinism: triggers depend only on the per-entry hit counter and the
//! schedule's own seeds, never on wall-clock time or global randomness,
//! so a failing schedule is its own repro. (With multi-threaded workers
//! the *attribution* of hit N to a specific run follows the thread
//! schedule; the chaos harness pins workers to one thread.)
//!
//! Everything here compiles to inlined no-ops unless the `failpoints`
//! cargo feature is on: [`evaluate`] is a `const`-foldable `None`, so
//! production journal appends and wire frames pay nothing.

// Failpoints sit on orchestration paths: typed errors, never panics
// (clippy.toml bans the panicking extractors here).
#![deny(clippy::disallowed_methods)]

use crate::error::TeiError;
use std::fmt;
use std::io::Write;

/// `ENOSPC` on every unix the toolflow targets; injected disk-full
/// errors are built from the raw OS code so they are indistinguishable
/// from the real thing to recovery code.
pub const ENOSPC: i32 = 28;

/// The I/O error kinds an `io:<kind>` action can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// `NotFound`.
    NotFound,
    /// `PermissionDenied`.
    Perm,
    /// `Interrupted`.
    Interrupted,
    /// `TimedOut`.
    TimedOut,
    /// `BrokenPipe`.
    BrokenPipe,
    /// `Other` (generic injected fault).
    Other,
}

impl IoKind {
    fn to_error(self) -> std::io::Error {
        let kind = match self {
            IoKind::NotFound => std::io::ErrorKind::NotFound,
            IoKind::Perm => std::io::ErrorKind::PermissionDenied,
            IoKind::Interrupted => std::io::ErrorKind::Interrupted,
            IoKind::TimedOut => std::io::ErrorKind::TimedOut,
            IoKind::BrokenPipe => std::io::ErrorKind::BrokenPipe,
            IoKind::Other => std::io::ErrorKind::Other,
        };
        std::io::Error::new(kind, "injected failpoint error")
    }

    fn label(self) -> &'static str {
        match self {
            IoKind::NotFound => "notfound",
            IoKind::Perm => "perm",
            IoKind::Interrupted => "interrupted",
            IoKind::TimedOut => "timedout",
            IoKind::BrokenPipe => "brokenpipe",
            IoKind::Other => "other",
        }
    }
}

/// What a firing failpoint does to the operation at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Fail the operation with this I/O error kind.
    Io(IoKind),
    /// Fail the operation with a raw-OS `ENOSPC` (disk full).
    Enospc,
    /// Write only the first N bytes, then fail with `ENOSPC` — a torn
    /// mid-frame write, the worst case torn-tail recovery must absorb.
    Torn(usize),
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
    /// Silently discard the write (a dropped frame); reads treat this
    /// as a no-op.
    Drop,
    /// Perform the write twice (a duplicated frame); reads treat this
    /// as a no-op.
    Dup,
    /// `std::process::abort()` — SIGKILL-equivalent, no drain, no flush.
    Abort,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Io(k) => write!(f, "io:{}", k.label()),
            Action::Enospc => write!(f, "enospc"),
            Action::Torn(n) => write!(f, "torn:{n}"),
            Action::Delay(ms) => write!(f, "delay:{ms}"),
            Action::Drop => write!(f, "drop"),
            Action::Dup => write!(f, "dup"),
            Action::Abort => write!(f, "abort"),
        }
    }
}

/// When a failpoint entry fires, as a pure function of its hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on the first hit only.
    Once,
    /// Fire on every hit.
    Always,
    /// Fire on exactly the Nth hit (1-based).
    Nth(u64),
    /// Fire on every hit after the Nth.
    After(u64),
    /// Fire when `splitmix64(seed ^ hit) / 2^64 < p` — a seeded,
    /// replayable per-hit coin.
    Prob {
        /// Probability in `(0, 1]`.
        p: f64,
        /// Coin seed.
        seed: u64,
    },
}

impl Trigger {
    /// Does hit number `hit` (1-based) fire, given `fired` prior firings?
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    fn fires(&self, hit: u64, fired: u64) -> bool {
        match *self {
            Trigger::Once => fired == 0,
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::After(n) => hit > n,
            Trigger::Prob { p, seed } => {
                // 53 mantissa bits of the mixed counter as a uniform in
                // [0, 1) — deterministic per (seed, hit).
                let u = (splitmix64(seed ^ hit) >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Once => write!(f, "once"),
            Trigger::Always => write!(f, "always"),
            Trigger::Nth(n) => write!(f, "hit:{n}"),
            Trigger::After(n) => write!(f, "after:{n}"),
            Trigger::Prob { p, seed } => write!(f, "prob:{p}:{seed}"),
        }
    }
}

/// One parsed schedule entry: *site* does *action* when *trigger* fires,
/// optionally only in processes whose role matches.
#[derive(Debug, Clone, PartialEq)]
pub struct FailpointSpec {
    /// Role scope (`coord`, `w<i>`, `worker`, `solo`); `None` arms in
    /// every process.
    pub role: Option<String>,
    /// Site name (e.g. `journal.append.write`).
    pub site: String,
    /// What to do.
    pub action: Action,
    /// When to do it.
    pub trigger: Trigger,
}

impl FailpointSpec {
    /// Does this entry apply to a process running as `role`? The `worker`
    /// scope matches any `w<i>` role.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    fn applies_to(&self, role: &str) -> bool {
        match self.role.as_deref() {
            None => true,
            Some("worker") => role.starts_with('w') && role != "worker",
            Some(r) => r == role,
        }
    }
}

impl fmt::Display for FailpointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(role) = &self.role {
            write!(f, "{role}/")?;
        }
        write!(f, "{}={}@{}", self.site, self.action, self.trigger)
    }
}

/// splitmix64: the seeded-probability trigger's mixer. Chosen for the
/// same reason the journal uses FNV — tiny, dependency-free, and
/// well-distributed enough for the threat model (schedules, not crypto).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn bad(reason: String) -> TeiError {
    TeiError::Config {
        knob: "TEI_FAILPOINTS".to_string(),
        reason,
    }
}

fn parse_action(s: &str) -> Result<Action, TeiError> {
    if let Some(kind) = s.strip_prefix("io:") {
        let kind = match kind {
            "notfound" => IoKind::NotFound,
            "perm" => IoKind::Perm,
            "interrupted" => IoKind::Interrupted,
            "timedout" => IoKind::TimedOut,
            "brokenpipe" => IoKind::BrokenPipe,
            "other" => IoKind::Other,
            other => return Err(bad(format!("unknown io error kind {other:?}"))),
        };
        return Ok(Action::Io(kind));
    }
    if let Some(n) = s.strip_prefix("torn:") {
        let n = n
            .parse::<usize>()
            .map_err(|_| bad(format!("unparsable torn byte count {n:?}")))?;
        return Ok(Action::Torn(n));
    }
    if let Some(ms) = s.strip_prefix("delay:") {
        let ms = ms
            .parse::<u64>()
            .map_err(|_| bad(format!("unparsable delay {ms:?}")))?;
        return Ok(Action::Delay(ms.min(60_000)));
    }
    match s {
        "enospc" => Ok(Action::Enospc),
        "drop" => Ok(Action::Drop),
        "dup" => Ok(Action::Dup),
        "abort" => Ok(Action::Abort),
        other => Err(bad(format!(
            "unknown action {other:?} (supported: io:<kind>, enospc, torn:<n>, \
             delay:<ms>, drop, dup, abort)"
        ))),
    }
}

fn parse_trigger(s: &str) -> Result<Trigger, TeiError> {
    if let Some(n) = s.strip_prefix("hit:") {
        let n = n
            .parse::<u64>()
            .map_err(|_| bad(format!("unparsable hit count {n:?}")))?;
        if n == 0 {
            return Err(bad("hit counts are 1-based; hit:0 never fires".into()));
        }
        return Ok(Trigger::Nth(n));
    }
    if let Some(n) = s.strip_prefix("after:") {
        let n = n
            .parse::<u64>()
            .map_err(|_| bad(format!("unparsable hit count {n:?}")))?;
        return Ok(Trigger::After(n));
    }
    if let Some(rest) = s.strip_prefix("prob:") {
        let (p, seed) = rest
            .split_once(':')
            .ok_or_else(|| bad(format!("prob wants prob:<p>:<seed>, got {s:?}")))?;
        let p = p
            .parse::<f64>()
            .map_err(|_| bad(format!("unparsable probability {p:?}")))?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(bad(format!("probability {p} is outside (0, 1]")));
        }
        let seed = seed
            .parse::<u64>()
            .map_err(|_| bad(format!("unparsable seed {seed:?}")))?;
        return Ok(Trigger::Prob { p, seed });
    }
    match s {
        "once" => Ok(Trigger::Once),
        "always" => Ok(Trigger::Always),
        other => Err(bad(format!(
            "unknown trigger {other:?} (supported: once, always, hit:<n>, \
             after:<n>, prob:<p>:<seed>)"
        ))),
    }
}

/// Parse a full `TEI_FAILPOINTS` schedule string. Always available (even
/// without the `failpoints` feature) so front ends can validate and echo
/// schedules before refusing to arm them.
///
/// # Errors
///
/// [`TeiError::Config`] (knob `TEI_FAILPOINTS`) describing the first
/// malformed entry.
pub fn parse_schedule(spec: &str) -> Result<Vec<FailpointSpec>, TeiError> {
    let mut out = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (lhs, rhs) = entry
            .split_once('=')
            .ok_or_else(|| bad(format!("entry {entry:?} is missing '='")))?;
        let (role, site) = match lhs.split_once('/') {
            Some((role, site)) => (Some(role.trim().to_string()), site.trim()),
            None => (None, lhs.trim()),
        };
        if site.is_empty() {
            return Err(bad(format!("entry {entry:?} names no site")));
        }
        let (action_s, trigger_s) = match rhs.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rhs.trim(), None),
        };
        let action = parse_action(action_s)?;
        let trigger = match trigger_s {
            Some(t) => parse_trigger(t)?,
            None => Trigger::Once,
        };
        out.push(FailpointSpec {
            role,
            site: site.to_string(),
            action,
            trigger,
        });
    }
    Ok(out)
}

/// True when this build can arm failpoints (the `failpoints` feature).
pub const fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod active {
    use super::{Action, FailpointSpec};
    use std::sync::{Mutex, OnceLock};

    struct Armed {
        spec: FailpointSpec,
        hits: u64,
        fired: u64,
    }

    struct State {
        role: String,
        armed: Vec<Armed>,
    }

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| {
            Mutex::new(State {
                role: "solo".to_string(),
                armed: Vec::new(),
            })
        })
    }

    fn lock() -> std::sync::MutexGuard<'static, State> {
        match state().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub(super) fn set_role(role: &str) {
        lock().role = role.to_string();
    }

    pub(super) fn arm(specs: Vec<FailpointSpec>) {
        lock().armed = specs
            .into_iter()
            .map(|spec| Armed {
                spec,
                hits: 0,
                fired: 0,
            })
            .collect();
    }

    pub(super) fn reset() {
        lock().armed.clear();
    }

    pub(super) fn evaluate(site: &str) -> Option<Action> {
        let mut st = lock();
        let role = std::mem::take(&mut st.role);
        let mut out = None;
        for entry in &mut st.armed {
            if entry.spec.site != site || !entry.spec.applies_to(&role) {
                continue;
            }
            entry.hits += 1;
            if out.is_none() && entry.spec.trigger.fires(entry.hits, entry.fired) {
                entry.fired += 1;
                // One write per line, so a fleet's lines sharing one
                // stderr pipe do not interleave mid-line.
                let line = format!(
                    "[failpoint] {role}: {} fired at {site} (hit {})\n",
                    entry.spec.action, entry.hits
                );
                eprint!("{line}");
                out = Some(entry.spec.action);
            }
        }
        st.role = role;
        out
    }
}

/// Name this process's failpoint role (`coord`, `w<i>`, `solo`). Role-
/// scoped schedule entries only arm where the role matches; see the
/// module docs. A no-op without the `failpoints` feature.
pub fn set_role(role: &str) {
    #[cfg(feature = "failpoints")]
    active::set_role(role);
    #[cfg(not(feature = "failpoints"))]
    let _ = role;
}

/// Replace the armed schedule with the parsed `spec`. Hit counters start
/// from zero.
///
/// # Errors
///
/// [`TeiError::Config`] for a malformed schedule, or (with a non-empty
/// schedule) when this build lacks the `failpoints` feature — arming
/// must fail loudly, not silently no-op a chaos run.
pub fn configure(spec: &str) -> Result<(), TeiError> {
    let parsed = parse_schedule(spec)?;
    if parsed.is_empty() {
        reset();
        return Ok(());
    }
    if !enabled() {
        return Err(bad(
            "this build has no failpoint support; rebuild with --features failpoints".into(),
        ));
    }
    #[cfg(feature = "failpoints")]
    active::arm(parsed);
    Ok(())
}

/// Arm from the `TEI_FAILPOINTS` environment variable. Unset or empty
/// leaves the current registry untouched (so tests that configure
/// programmatically are not clobbered by campaign entry points).
///
/// # Errors
///
/// See [`configure`].
pub fn configure_from_env() -> Result<(), TeiError> {
    match std::env::var("TEI_FAILPOINTS") {
        Ok(v) if !v.trim().is_empty() => configure(&v),
        _ => Ok(()),
    }
}

/// Disarm every failpoint.
pub fn reset() {
    #[cfg(feature = "failpoints")]
    active::reset();
}

/// Count a hit at `site` and return the firing action, if any. Inlines
/// to `None` without the `failpoints` feature.
#[inline]
pub fn evaluate(site: &str) -> Option<Action> {
    #[cfg(feature = "failpoints")]
    {
        active::evaluate(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        None
    }
}

fn apply_delay(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// Evaluate `site` as a plain fallible operation (no byte stream to
/// tear): `Io`/`Enospc`/`Torn` fail, `Delay` sleeps, `Abort` aborts,
/// frame actions pass.
///
/// # Errors
///
/// The injected error when the site fires with a failing action.
#[inline]
pub fn io_check(site: &str) -> std::io::Result<()> {
    match evaluate(site) {
        None | Some(Action::Drop | Action::Dup) => Ok(()),
        Some(Action::Delay(ms)) => {
            apply_delay(ms);
            Ok(())
        }
        Some(Action::Io(kind)) => Err(kind.to_error()),
        Some(Action::Enospc | Action::Torn(_)) => Err(std::io::Error::from_raw_os_error(ENOSPC)),
        Some(Action::Abort) => std::process::abort(),
    }
}

/// Write `buf` through the failpoint at `site`: `Torn(n)` writes only
/// the first `n` bytes then fails with `ENOSPC`, `Drop` discards the
/// write, `Dup` writes it twice, `Delay` sleeps first. Inlines to a
/// plain `write_all` without the `failpoints` feature.
///
/// # Errors
///
/// The injected error, or any real error from the underlying writer.
#[inline]
pub fn write_all(site: &str, w: &mut impl Write, buf: &[u8]) -> std::io::Result<()> {
    match evaluate(site) {
        None => w.write_all(buf),
        Some(Action::Torn(n)) => {
            w.write_all(&buf[..n.min(buf.len())])?;
            w.flush()?;
            Err(std::io::Error::from_raw_os_error(ENOSPC))
        }
        Some(Action::Delay(ms)) => {
            apply_delay(ms);
            w.write_all(buf)
        }
        Some(Action::Drop) => Ok(()),
        Some(Action::Dup) => {
            w.write_all(buf)?;
            w.write_all(buf)
        }
        Some(Action::Io(kind)) => Err(kind.to_error()),
        Some(Action::Enospc) => Err(std::io::Error::from_raw_os_error(ENOSPC)),
        Some(Action::Abort) => std::process::abort(),
    }
}

/// Is this error disk exhaustion (real or injected)? Matched on the raw
/// OS code so injected faults and the genuine article take the same
/// graceful-degradation path.
pub fn is_enospc(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC)
}

/// The traffic every fault-free fabric campaign is guaranteed to make,
/// which is all a seeded count trigger may rely on. Which worker wins
/// which lease is a race, so the counts are fleet totals; heartbeats,
/// idle reads, retries and batches closed early on replayed work only
/// add hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTraffic {
    /// Worker processes.
    workers: u64,
    /// Leases the runs are split into. Each is granted, executed and
    /// acknowledged at least once.
    leases: u64,
    /// Journal batch commits across the fleet.
    commits: u64,
    /// Run records in the fullest journal batch.
    batch_runs: u64,
}

impl FleetTraffic {
    /// The traffic of a fresh campaign of `runs` runs, which the
    /// coordinator splits into leases of at most
    /// `ceil(runs / (workers × leases_per_worker))` runs; each lease
    /// commits its runs in batches of up to
    /// [`JOURNAL_BATCH_RUNS`](crate::campaign::JOURNAL_BATCH_RUNS).
    pub fn new(runs: u64, workers: u64, leases_per_worker: u64) -> FleetTraffic {
        let lease_runs = runs.div_ceil((workers * leases_per_worker).max(1)).max(1);
        let batch = crate::campaign::JOURNAL_BATCH_RUNS as u64;
        let (full, rest) = (runs / lease_runs, runs % lease_runs);
        FleetTraffic {
            workers: workers.max(1),
            leases: runs.div_ceil(lease_runs),
            commits: full * lease_runs.div_ceil(batch) + rest.div_ceil(batch),
            batch_runs: lease_runs.min(batch),
        }
    }

    /// Hits that at least one worker must reach when the fleet makes
    /// `total` of them (pigeonhole).
    fn some_worker(&self, total: u64) -> u64 {
        total.div_ceil(self.workers).max(1)
    }
}

/// The catalog of sites the seeded-schedule generator draws from, each
/// with the failure archetype it exercises. Kept in one place so the
/// chaos matrix and DESIGN.md's failure-mode table stay in sync.
///
/// Worker entries are scoped to `worker/`, not one `w<i>`: a given
/// worker's share of the leases is a race, while some worker must reach
/// the fleet's share, so the fault fires in every run.
const CATALOG: &[&str] = &[
    // Torn journal batch write: torn-tail recovery (whole frames before
    // the tear survive) + graceful ENOSPC drain + resume.
    "worker/journal.append.write=torn:{tear}@hit:{commit}",
    // Journal fsync fails with disk-full: typed DiskFull, resumable.
    "worker/journal.append.sync=enospc@hit:{commit}",
    // Clean append failure: same drain path, different site.
    "worker/journal.append.write=enospc@hit:{commit}",
    // A lease acknowledgement vanishes: lease expiry re-grants and the
    // journal skip set makes re-execution idempotent.
    "worker/wire.send=drop@hit:{done}",
    // A duplicated acknowledgement: coordinator-side idempotency.
    "worker/wire.send=dup@hit:{done}",
    // Frame latency under a seeded coin: ordering robustness.
    "worker/wire.send=delay:{ms}@prob:{p}:{coin}",
    // First dial refused: connect backoff + retry.
    "worker/worker.connect=io:other@hit:1",
    // Worker transport read error: reconnect + idempotent re-execution.
    "worker/wire.recv=io:other@hit:{recv}",
    // Process abort mid-lease: SIGKILL-equivalent death, heartbeat/EOF
    // detection, lease reassignment.
    "worker/worker.lease=abort@hit:{lease}",
    // Coordinator lease-table persistence hits disk-full: typed failure
    // with resumable journals.
    "coord/lease.save=enospc@hit:{save}",
];

/// Firing probability of the catalog's delay entry.
const DELAY_P: f64 = 0.2;

/// Derive schedule `seed` of the chaos matrix: pick a catalog entry and
/// instantiate its trigger parameters deterministically from the seed,
/// each count inside the hits that `traffic` guarantees. Same seed +
/// same traffic ⇒ same schedule.
pub fn seeded_schedule(seed: u64, traffic: &FleetTraffic) -> String {
    let entry = CATALOG[(seed_pick(seed, 0) % CATALOG.len() as u64) as usize];
    instantiate(entry, seed, traffic)
}

/// The seed's draw number `salt`.
fn seed_pick(seed: u64, salt: u64) -> u64 {
    splitmix64(seed.wrapping_mul(0x9e37).wrapping_add(salt))
}

/// Fill in a catalog entry's parameters from `seed`.
fn instantiate(entry: &str, seed: u64, t: &FleetTraffic) -> String {
    let pick = |salt: u64| seed_pick(seed, salt);
    // A worker sends Hello, Ready, then one LeaseDone per lease, and
    // reads Launch, then one Grant per lease. Only acknowledgements are
    // dropped or duplicated: a lost Hello or Ready in every worker would
    // idle the fleet with no lease out to expire.
    let leases = t.some_worker(t.leases);
    let sends = 2 + leases;
    let done = 3 + pick(2) % leases;
    let recv = 2 + pick(7) % leases;
    let lease = 1 + pick(3) % leases;
    // The coordinator saves its lease table once up front, once per
    // acknowledged lease and once at the end.
    let save = 1 + pick(8) % (t.leases + 2);
    let commit = 1 + pick(1) % t.some_worker(t.commits);
    // A tear lands inside one batch, after some whole frames or inside
    // the first.
    let batch_bytes = t.batch_runs.max(1) * crate::journal::RUN_FRAME_LEN as u64;
    let tear = 1 + pick(4) % (batch_bytes - 1);
    let ms = 50 + pick(5) % 350;
    // The first coin, in salt order, that fires within the sends some
    // worker must make.
    let mut salt = 6;
    let coin = loop {
        let coin = pick(salt);
        let trigger = Trigger::Prob {
            p: DELAY_P,
            seed: coin,
        };
        if (1..=sends).any(|hit| trigger.fires(hit, 0)) {
            break coin;
        }
        salt += 0x100;
    };
    entry
        .replace("{commit}", &commit.to_string())
        .replace("{done}", &done.to_string())
        .replace("{recv}", &recv.to_string())
        .replace("{lease}", &lease.to_string())
        .replace("{save}", &save.to_string())
        .replace("{tear}", &tear.to_string())
        .replace("{ms}", &ms.to_string())
        .replace("{p}", &DELAY_P.to_string())
        .replace("{coin}", &coin.to_string())
}

#[cfg(test)]
mod tests {
    // Tests should panic loudly, not thread errors.
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn schedule_grammar_roundtrip() {
        let spec = "w0/journal.append.write=torn:5@hit:3; coord/lease.save=enospc;\
                    wire.send=delay:100@prob:0.25:42;worker/worker.connect=io:other@after:2";
        let parsed = parse_schedule(spec).expect("parse");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].role.as_deref(), Some("w0"));
        assert_eq!(parsed[0].site, "journal.append.write");
        assert_eq!(parsed[0].action, Action::Torn(5));
        assert_eq!(parsed[0].trigger, Trigger::Nth(3));
        // Default trigger is once.
        assert_eq!(parsed[1].trigger, Trigger::Once);
        assert_eq!(parsed[2].role, None);
        assert!(matches!(parsed[2].trigger, Trigger::Prob { seed: 42, .. }));
        assert_eq!(parsed[3].action, Action::Io(IoKind::Other));
        // Display round-trips through the parser.
        for p in &parsed {
            assert_eq!(parse_schedule(&p.to_string()).expect("re-parse")[0], *p);
        }
    }

    #[test]
    fn schedule_grammar_rejects_malformed() {
        for bad in [
            "journal.append.write", // no '='
            "x=explode",            // unknown action
            "x=enospc@sometimes",   // unknown trigger
            "x=enospc@hit:0",       // 1-based
            "x=enospc@prob:1.5:1",  // p out of range
            "x=torn:many",          // unparsable count
            "/=enospc",             // empty site
        ] {
            assert!(parse_schedule(bad).is_err(), "accepted {bad:?}");
        }
        // Empty and whitespace-only schedules are fine (no-ops).
        assert!(parse_schedule("").expect("empty").is_empty());
        assert!(parse_schedule(" ; ").expect("blank").is_empty());
    }

    #[test]
    fn role_scoping() {
        let spec = &parse_schedule("worker/x=enospc").expect("parse")[0];
        assert!(spec.applies_to("w0"));
        assert!(spec.applies_to("w12"));
        assert!(!spec.applies_to("coord"));
        assert!(!spec.applies_to("solo"));
        assert!(!spec.applies_to("worker"));
        let spec = &parse_schedule("w1/x=enospc").expect("parse")[0];
        assert!(spec.applies_to("w1"));
        assert!(!spec.applies_to("w10"));
        let spec = &parse_schedule("x=enospc").expect("parse")[0];
        assert!(spec.applies_to("coord"));
        assert!(spec.applies_to("solo"));
    }

    #[test]
    fn triggers_are_deterministic() {
        assert!(Trigger::Once.fires(1, 0));
        assert!(!Trigger::Once.fires(2, 1));
        assert!(Trigger::Nth(3).fires(3, 0));
        assert!(!Trigger::Nth(3).fires(4, 0));
        assert!(Trigger::After(2).fires(3, 0) && !Trigger::After(2).fires(2, 0));
        // The seeded coin is a pure function of (seed, hit): the firing
        // set for one seed is stable across calls and processes.
        let t = Trigger::Prob { p: 0.3, seed: 99 };
        let fires: Vec<u64> = (1..=64).filter(|&h| t.fires(h, 0)).collect();
        let again: Vec<u64> = (1..=64).filter(|&h| t.fires(h, 0)).collect();
        assert_eq!(fires, again);
        assert!(!fires.is_empty() && fires.len() < 64);
    }

    /// The CI matrix's fleet: 48 runs on 2 workers, 4 leases each.
    fn ci_fleet() -> FleetTraffic {
        FleetTraffic::new(48, 2, 4)
    }

    #[test]
    fn seeded_schedules_parse_and_are_stable() {
        for seed in 0..32 {
            let s1 = seeded_schedule(seed, &ci_fleet());
            let s2 = seeded_schedule(seed, &ci_fleet());
            assert_eq!(s1, s2);
            let parsed = parse_schedule(&s1).expect("catalog entry parses");
            assert_eq!(parsed.len(), 1, "schedule {s1:?}");
        }
        // Seeds spread across the catalog, not one entry.
        let distinct: std::collections::HashSet<String> = (0..32)
            .map(|s| {
                seeded_schedule(s, &ci_fleet())
                    .split('=')
                    .next()
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        assert!(distinct.len() >= 4, "only {distinct:?}");
    }

    #[test]
    fn fleet_traffic_follows_the_lease_split() {
        let t = |runs, workers| FleetTraffic::new(runs, workers, 4);
        // 8 leases of 6 runs, one commit each.
        assert_eq!(
            t(48, 2),
            FleetTraffic {
                workers: 2,
                leases: 8,
                commits: 8,
                batch_runs: 6
            }
        );
        // Leases of 7 runs: 7 full ones and a 1-run tail.
        assert_eq!((t(50, 2).leases, t(50, 2).commits), (8, 8));
        // Fewer runs than leases: one run per lease.
        assert_eq!(
            (t(5, 4).leases, t(5, 4).commits, t(5, 4).batch_runs),
            (5, 5, 1)
        );
        // 12,500-run leases close 4 batches each, the fullest at the cap.
        let big = t(100_000, 2);
        assert_eq!((big.leases, big.commits), (8, 32));
        assert_eq!(big.batch_runs, crate::campaign::JOURNAL_BATCH_RUNS as u64);
    }

    /// The hits one fault-free run guarantees at `site`, counted in the
    /// worker that made the most (a fleet total split by pigeonhole), or
    /// in the coordinator.
    fn guaranteed_hits(site: &str, t: &FleetTraffic) -> u64 {
        let share = |total: u64| total.div_ceil(t.workers);
        match site {
            // Every commit writes its batch once and syncs it once.
            "journal.append.write" | "journal.append.sync" => share(t.commits),
            // Hello, Ready, then one LeaseDone per granted lease.
            "wire.send" => 2 + share(t.leases),
            // Launch, then one Grant per lease.
            "wire.recv" => 1 + share(t.leases),
            "worker.lease" => share(t.leases),
            "worker.connect" => 1,
            // Up front, per acknowledged lease, and at the end.
            "lease.save" => t.leases + 2,
            other => panic!("no traffic floor for site {other}"),
        }
    }

    #[test]
    fn seeded_faults_fire_within_guaranteed_traffic() {
        let fleets = [
            ci_fleet(),
            FleetTraffic::new(5, 4, 4),
            FleetTraffic::new(1_000, 3, 4),
            FleetTraffic::new(100_000, 2, 4),
        ];
        for t in &fleets {
            for entry in CATALOG {
                for seed in 0..64 {
                    let schedule = instantiate(entry, seed, t);
                    let spec = &parse_schedule(&schedule).expect("parses")[0];
                    // No single worker's share of the leases is guaranteed.
                    let role = spec.role.as_deref().unwrap_or_default();
                    assert!(role == "worker" || role == "coord", "{schedule}");
                    assert_eq!(role == "coord", spec.site == "lease.save", "{schedule}");
                    let bound = guaranteed_hits(&spec.site, t);
                    let first = (1..=bound).find(|&hit| spec.trigger.fires(hit, 0));
                    assert!(
                        first.is_some(),
                        "{schedule} need not fire within {bound} hits ({t:?})"
                    );
                    if spec.site == "wire.send" && matches!(spec.action, Action::Drop | Action::Dup)
                    {
                        // Acknowledgements only, never Hello or Ready.
                        assert!(first >= Some(3), "{schedule}");
                    }
                }
            }
        }
    }

    #[test]
    fn torn_write_helper_tears_exactly() {
        // Without the feature this exercises the pass-through; with it,
        // the armed path (configure succeeds only when enabled).
        let mut buf = Vec::new();
        write_all("test.site.unarmed", &mut buf, b"abcdef").expect("pass-through");
        assert_eq!(buf, b"abcdef");
        if enabled() {
            configure("test.site.torn=torn:2@hit:1").expect("arm");
            set_role("solo");
            let mut torn = Vec::new();
            let err = write_all("test.site.torn", &mut torn, b"abcdef").unwrap_err();
            assert!(is_enospc(&err));
            assert_eq!(torn, b"ab");
            // Hit 2: disarmed (Nth(1) already passed) — full write.
            let mut ok = Vec::new();
            write_all("test.site.torn", &mut ok, b"abcdef").expect("second hit passes");
            assert_eq!(ok, b"abcdef");
            reset();
        } else {
            let err = configure("test.site.torn=torn:2@hit:1").unwrap_err();
            assert!(err.to_string().contains("failpoints"));
        }
    }

    #[test]
    fn enospc_detection() {
        assert!(is_enospc(&std::io::Error::from_raw_os_error(ENOSPC)));
        assert!(!is_enospc(&std::io::Error::other("x")));
    }
}
