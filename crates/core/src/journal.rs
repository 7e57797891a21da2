//! Durable campaign execution: a write-ahead outcome journal, campaign
//! manifests, and crash-safe artifact writes.
//!
//! A paper-scale sweep is 1068 injection runs per (benchmark, VR, model)
//! cell; losing hours of completed runs to one OOM kill or ctrl-C is not
//! acceptable. Following the ZOFI principle that a fault-injection tool
//! must tolerate the chaos it creates, every completed run is written to
//! an on-disk journal *before* it counts, as a length-prefixed,
//! checksummed record:
//!
//! ```text
//! file   := magic "TEIJRNL1" record*
//! record := len:u32le payload:[u8; len] fnv64(payload):u64le
//! ```
//!
//! Records are **group-committed**: [`Journal::append_batch`] frames a
//! batch of runs into one buffer, writes it once and fsyncs once. A run
//! counts only after its batch's fsync returned, so a crash can lose the
//! one batch each campaign thread was filling or committing (at most
//! [`JOURNAL_BATCH`](crate::campaign::JOURNAL_BATCH) = 32 runs per
//! thread), never a run that was tallied. Resume re-executes the lost
//! runs, which are a pure function of `(cell seed, run index)`, so the
//! final tally is unchanged.
//!
//! The first record is the campaign **manifest** — a canonical JSON
//! identity of (benchmark, model fingerprint, VR, run count, seed,
//! timeout) — and a journal whose manifest hash differs from the resuming
//! campaign's is **refused** ([`TeiError::ManifestMismatch`]), never
//! silently merged. The replay engine (`FromZero` vs `Checkpointed`) is
//! deliberately *excluded* from the identity: outcomes are engine-
//! independent (see `replay_equivalence`), so a sweep started under one
//! engine may resume under another.
//!
//! Recovery truncates a torn tail (a partial record from a mid-write
//! crash, or a record whose checksum does not match) back to the last
//! good record and resumes from there; per-run records are self-contained
//! so replaying the journal reconstructs the exact partial
//! [`OutcomeCounts`](crate::campaign::OutcomeCounts).

// Orchestration must degrade to typed errors, never panic mid-sweep
// (clippy.toml bans the panicking extractors here).
#![deny(clippy::disallowed_methods)]

use crate::campaign::Outcome;
use crate::error::TeiError;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Journal file magic (8 bytes, versioned).
pub const MAGIC: &[u8; 8] = b"TEIJRNL1";

// ---------------------------------------------------------------------
// Checksums and crash-safe file writes
// ---------------------------------------------------------------------

/// 64-bit FNV-1a — the toolflow's record and artifact checksum. Not
/// cryptographic; it detects torn writes and bit rot, which is the threat
/// model for local experiment artifacts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fsync_dir(path: &Path) {
    // Durability of the rename itself. Best-effort: some filesystems
    // refuse directory fsync; the data file was already synced.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, fsync the directory. A crash at
/// any point leaves either the old file or the new one — never a torn
/// mix. Returns the [`fnv64`] checksum of `bytes`.
///
/// # Errors
///
/// [`TeiError::Io`] on any filesystem failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<u64, TeiError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            TeiError::io(
                "resolve artifact path",
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name"),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    let mut f = File::create(&tmp).map_err(|e| TeiError::io("create temp file", &tmp, e))?;
    crate::failpoint::write_all("artifact.write", &mut f, bytes)
        .map_err(|e| TeiError::io("write temp file", &tmp, e))?;
    crate::failpoint::io_check("artifact.sync")
        .and_then(|()| f.sync_all())
        .map_err(|e| TeiError::io("sync temp file", &tmp, e))?;
    drop(f);
    crate::failpoint::io_check("artifact.rename")
        .map_err(|e| TeiError::io("rename into place", path, e))
        .and_then(|()| {
            std::fs::rename(&tmp, path).map_err(|e| TeiError::io("rename into place", path, e))
        })?;
    fsync_dir(path);
    Ok(fnv64(bytes))
}

/// [`atomic_write`] plus a sidecar checksum file (`<name>.fnv`) holding
/// `fnv64-<hex>  <name>`, itself written atomically. Returns the checksum.
///
/// # Errors
///
/// [`TeiError::Io`] on any filesystem failure.
pub fn atomic_write_checksummed(path: &Path, bytes: &[u8]) -> Result<u64, TeiError> {
    let sum = atomic_write(path, bytes)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let sidecar = sidecar_path(path);
    atomic_write(&sidecar, format!("fnv64-{sum:016x}  {name}\n").as_bytes())?;
    Ok(sum)
}

/// The sidecar checksum path of an artifact (`x.json` → `x.json.fnv`).
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".fnv");
    PathBuf::from(s)
}

/// Verify an artifact against its sidecar checksum. `Ok(true)` when the
/// checksum matches, `Ok(false)` when the sidecar is missing (legacy
/// artifact).
///
/// # Errors
///
/// [`TeiError::Io`] if either file cannot be read, and
/// [`TeiError::JournalCorrupt`] when the checksum does not match.
pub fn verify_checksummed(path: &Path) -> Result<bool, TeiError> {
    let sidecar = sidecar_path(path);
    let recorded = match std::fs::read_to_string(&sidecar) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(TeiError::io("read checksum sidecar", &sidecar, e)),
    };
    let bytes = std::fs::read(path).map_err(|e| TeiError::io("read artifact", path, e))?;
    let want = recorded
        .strip_prefix("fnv64-")
        .and_then(|r| r.get(..16))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| TeiError::JournalCorrupt {
            path: sidecar.clone(),
            reason: "unparsable checksum sidecar".into(),
        })?;
    if fnv64(&bytes) == want {
        Ok(true)
    } else {
        Err(TeiError::JournalCorrupt {
            path: path.to_path_buf(),
            reason: "artifact checksum mismatch".into(),
        })
    }
}

// ---------------------------------------------------------------------
// Campaign manifest
// ---------------------------------------------------------------------

/// The identity a journal is keyed by. Two campaigns with equal manifest
/// hashes draw identical per-run outcomes, so their journals are
/// interchangeable; anything else must be refused at resume time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Journal format version.
    pub version: u32,
    /// Benchmark name.
    pub benchmark: String,
    /// Model family label.
    pub model: String,
    /// VR level label.
    pub vr: String,
    /// Total runs the sweep wants.
    pub runs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// `f64::to_bits` of the timeout factor (bit-exact identity).
    pub timeout_factor_bits: u64,
    /// Golden-run fingerprint: retired instructions.
    pub golden_instructions: u64,
    /// Golden-run fingerprint: dynamic FP operations.
    pub golden_fp_ops: u64,
    /// Golden-run fingerprint: [`fnv64`] of the error-free output.
    pub golden_output_fnv: u64,
    /// [`fnv64`] over the model's per-op error-ratio bit patterns — a
    /// cheap but sensitive identity for the calibrated model.
    pub model_fingerprint: u64,
}

impl CampaignManifest {
    /// Canonical serialized form (field order is declaration order, so the
    /// bytes — and the hash — are stable across processes).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .unwrap_or_default()
    }

    /// The manifest content hash journals are keyed by.
    pub fn hash(&self) -> u64 {
        fnv64(&self.canonical_bytes())
    }

    /// Stable journal file name for this cell.
    pub fn file_name(&self) -> String {
        format!("{}.tei-journal", self.stem())
    }

    /// Per-worker journal file name used by the campaign fabric: worker
    /// `idx` appends only to `<slug>-<hash>.w<idx>.tei-journal`, so
    /// concurrent workers never contend on one file and a crashed
    /// worker's partial journal stays attributable.
    pub fn worker_file_name(&self, idx: u32) -> String {
        format!("{}.w{idx}.tei-journal", self.stem())
    }

    /// Lease-table file name the fabric coordinator persists next to the
    /// journals (same manifest-hash key, so a foreign table is refused).
    pub fn lease_file_name(&self) -> String {
        format!("{}.leases.json", self.stem())
    }

    /// `<slug>-<hash>` stem shared by the journal, per-worker journal,
    /// and lease-table file names.
    fn stem(&self) -> String {
        let slug: String = format!("{}-{}-{}", self.benchmark, self.model, self.vr)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{slug}-{:016x}", self.hash())
    }
}

// ---------------------------------------------------------------------
// Run records
// ---------------------------------------------------------------------

/// Outcome stored in a journal record: a classified run, or one that was
/// quarantined after panicking twice (its repro triple is retained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordedOutcome {
    /// A normally classified run.
    Classified(Outcome),
    /// The run panicked on both attempts and was isolated.
    Quarantined,
}

/// One completed injection run, as durably journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Run index within the campaign (0-based).
    pub run: u64,
    /// The run's derived RNG seed (repro handle).
    pub seed: u64,
    /// Drawn target FP index, if the draw reached one (`None` for
    /// wrong-path / no-error runs and for quarantines before the draw).
    pub target: Option<u64>,
    /// Drawn XOR corruption mask (0 when no draw happened).
    pub mask: u64,
    /// Classified or quarantined outcome.
    pub outcome: RecordedOutcome,
    /// The draw landed on a squashed (wrong-path) writeback.
    pub wrong_path: bool,
    /// The model assigned zero error probability everywhere.
    pub no_error: bool,
    /// The target event never fired during replay.
    pub mistargeted: bool,
    /// The first attempt panicked; this outcome came from the retry.
    pub retried: bool,
    /// Golden error-free instruction count (context for offline repro).
    pub instructions: u64,
}

const TAG_MANIFEST: u8 = 0;
const TAG_RUN: u8 = 1;
const NO_TARGET: u64 = u64::MAX;

/// Payload bytes of one run record: tag, four `u64` fields, outcome and
/// flag bytes, and the golden instruction count.
const RUN_PAYLOAD_LEN: usize = 1 + 8 * 4 + 2 + 8;

/// On-disk bytes of one framed run record (length prefix + payload +
/// checksum).
pub const RUN_FRAME_LEN: usize = 4 + RUN_PAYLOAD_LEN + 8;

impl RunRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(RUN_PAYLOAD_LEN);
        p.push(TAG_RUN);
        p.extend_from_slice(&self.run.to_le_bytes());
        p.extend_from_slice(&self.seed.to_le_bytes());
        p.extend_from_slice(&self.target.unwrap_or(NO_TARGET).to_le_bytes());
        p.extend_from_slice(&self.mask.to_le_bytes());
        p.push(match self.outcome {
            RecordedOutcome::Classified(Outcome::Masked) => 0,
            RecordedOutcome::Classified(Outcome::Sdc) => 1,
            RecordedOutcome::Classified(Outcome::Crash) => 2,
            RecordedOutcome::Classified(Outcome::Timeout) => 3,
            RecordedOutcome::Quarantined => 4,
        });
        p.push(
            u8::from(self.wrong_path)
                | u8::from(self.no_error) << 1
                | u8::from(self.mistargeted) << 2
                | u8::from(self.retried) << 3,
        );
        p.extend_from_slice(&self.instructions.to_le_bytes());
        p
    }

    fn decode(payload: &[u8]) -> Option<RunRecord> {
        if payload.len() != RUN_PAYLOAD_LEN || payload[0] != TAG_RUN {
            return None;
        }
        // Indexing cannot fail: the payload length was checked above.
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[o..o + 8]);
            u64::from_le_bytes(b)
        };
        let target = u64_at(17);
        let outcome = match payload[33] {
            0 => RecordedOutcome::Classified(Outcome::Masked),
            1 => RecordedOutcome::Classified(Outcome::Sdc),
            2 => RecordedOutcome::Classified(Outcome::Crash),
            3 => RecordedOutcome::Classified(Outcome::Timeout),
            4 => RecordedOutcome::Quarantined,
            _ => return None,
        };
        let flags = payload[34];
        Some(RunRecord {
            run: u64_at(1),
            seed: u64_at(9),
            target: (target != NO_TARGET).then_some(target),
            mask: u64_at(25),
            outcome,
            wrong_path: flags & 1 != 0,
            no_error: flags & 2 != 0,
            mistargeted: flags & 4 != 0,
            retried: flags & 8 != 0,
            instructions: u64_at(35),
        })
    }
}

/// Append `payload` to `out` as one `len | payload | fnv64` frame.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
}

/// Largest frame recovery will accept; anything bigger is a corrupt
/// length prefix, not a real record.
const MAX_PAYLOAD: usize = 1 << 20;

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// Append-only write-ahead log of completed injection runs.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    appended: u64,
}

/// Result of opening a journal: the handle plus every run already
/// durably recorded under the same manifest.
#[derive(Debug)]
pub struct JournalResume {
    /// The open journal, positioned for appends.
    pub journal: Journal,
    /// Replayed records (possibly after torn-tail truncation).
    pub completed: Vec<RunRecord>,
    /// Bytes discarded from a torn tail during recovery (0 on a clean
    /// open; non-zero means the previous process died mid-append).
    pub truncated_bytes: u64,
}

impl Journal {
    /// Open `dir/<manifest file name>` for resuming, or create it fresh.
    /// An existing journal is validated (magic, manifest hash, record
    /// checksums); a torn or checksum-corrupt tail is truncated back to
    /// the last good record, and a manifest that does not match `manifest`
    /// is refused.
    ///
    /// # Errors
    ///
    /// [`TeiError::Io`] on filesystem failures, [`TeiError::JournalCorrupt`]
    /// when the header itself is unreadable, and
    /// [`TeiError::ManifestMismatch`] for a journal from a different
    /// campaign.
    pub fn open_or_create(
        dir: &Path,
        manifest: &CampaignManifest,
    ) -> Result<JournalResume, TeiError> {
        std::fs::create_dir_all(dir).map_err(|e| TeiError::io("create journal dir", dir, e))?;
        Self::open_or_create_at(&dir.join(manifest.file_name()), manifest)
    }

    /// [`Journal::open_or_create`] at an explicit file path instead of the
    /// manifest-derived name — the fabric uses this to give each worker
    /// its own journal ([`CampaignManifest::worker_file_name`]) under the
    /// same manifest identity.
    ///
    /// # Errors
    ///
    /// See [`Journal::open_or_create`].
    pub fn open_or_create_at(
        path: &Path,
        manifest: &CampaignManifest,
    ) -> Result<JournalResume, TeiError> {
        if path.exists() {
            Self::resume(path, manifest)
        } else {
            Self::create(path, manifest)
        }
    }

    /// Read-only replay of a journal file: validate the magic and
    /// manifest, return every good record, and stop at (without
    /// truncating) a torn or corrupt tail. The file is never opened for
    /// writing, so the fabric's merge can scan the journals of workers
    /// that are still alive.
    ///
    /// # Errors
    ///
    /// [`TeiError::Io`] when the file cannot be read,
    /// [`TeiError::JournalCorrupt`] when the header is unreadable, and
    /// [`TeiError::ManifestMismatch`] for a foreign journal.
    pub fn replay_readonly(
        path: &Path,
        manifest: &CampaignManifest,
    ) -> Result<Vec<RunRecord>, TeiError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| TeiError::io("read journal", path, e))?;
        let (completed, _) = Self::decode_records(&bytes, path, manifest)?;
        Ok(completed)
    }

    /// Shared record decoder of [`Journal::resume`] and
    /// [`Journal::replay_readonly`]: validate magic + manifest, collect
    /// good records, and return the byte offset of the first bad frame
    /// (the torn-tail boundary).
    fn decode_records(
        bytes: &[u8],
        path: &Path,
        manifest: &CampaignManifest,
    ) -> Result<(Vec<RunRecord>, usize), TeiError> {
        let corrupt = |reason: &str| TeiError::JournalCorrupt {
            path: path.to_path_buf(),
            reason: reason.into(),
        };
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut off = MAGIC.len();

        // Frame reader: Some((payload, next_off)), None on a torn or
        // corrupt frame (recoverable tail).
        let read_frame = |off: usize| -> Option<(&[u8], usize)> {
            let len_end = off.checked_add(4)?;
            if len_end > bytes.len() {
                return None;
            }
            let len = u32::from_le_bytes(bytes[off..len_end].try_into().ok()?) as usize;
            if len > MAX_PAYLOAD {
                return None;
            }
            let payload_end = len_end.checked_add(len)?;
            let frame_end = payload_end.checked_add(8)?;
            if frame_end > bytes.len() {
                return None;
            }
            let payload = &bytes[len_end..payload_end];
            let stored = u64::from_le_bytes(bytes[payload_end..frame_end].try_into().ok()?);
            (fnv64(payload) == stored).then_some((payload, frame_end))
        };

        // The manifest record is load-bearing: without it the journal's
        // identity is unknown, so corruption here is not recoverable.
        let (mpayload, next) =
            read_frame(off).ok_or_else(|| corrupt("unreadable manifest record"))?;
        if mpayload.first() != Some(&TAG_MANIFEST) {
            return Err(corrupt("first record is not a manifest"));
        }
        let found = fnv64(&mpayload[1..]);
        let expected = manifest.hash();
        if found != expected {
            return Err(TeiError::ManifestMismatch {
                path: path.to_path_buf(),
                expected,
                found,
            });
        }
        off = next;

        let mut completed = Vec::new();
        while let Some((payload, next)) = read_frame(off) {
            match RunRecord::decode(payload) {
                Some(rec) => completed.push(rec),
                None => break, // valid checksum but alien tag/shape: stop
            }
            off = next;
        }
        Ok((completed, off))
    }

    fn create(path: &Path, manifest: &CampaignManifest) -> Result<JournalResume, TeiError> {
        // Header goes through the atomic helper so a crash during
        // creation never leaves a half-written magic for a later resume
        // to stumble over.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        let mut payload = vec![TAG_MANIFEST];
        payload.extend_from_slice(&manifest.canonical_bytes());
        frame_into(&mut header, &payload);
        atomic_write(path, &header)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| TeiError::io("open journal for append", path, e))?;
        Ok(JournalResume {
            journal: Journal {
                file,
                path: path.to_path_buf(),
                appended: 0,
            },
            completed: Vec::new(),
            truncated_bytes: 0,
        })
    }

    fn resume(path: &Path, manifest: &CampaignManifest) -> Result<JournalResume, TeiError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| TeiError::io("read journal", path, e))?;
        let (completed, off) = Self::decode_records(&bytes, path, manifest)?;
        let truncated_bytes = (bytes.len() - off) as u64;
        drop(bytes);

        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| TeiError::io("open journal for append", path, e))?;
        if truncated_bytes > 0 {
            // Chop the torn tail so the next append starts on a frame
            // boundary.
            file.set_len(off as u64)
                .map_err(|e| TeiError::io("truncate torn journal tail", path, e))?;
            file.sync_all()
                .map_err(|e| TeiError::io("sync truncated journal", path, e))?;
        }
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            appended: 0,
        };
        use std::io::Seek;
        journal
            .file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| TeiError::io("seek journal end", path, e))?;
        Ok(JournalResume {
            journal,
            completed,
            truncated_bytes,
        })
    }

    /// Durably commit a batch of run records: frame them all into one
    /// buffer, write it in one `write_all`, then fsync once. A record
    /// counts only after `append_batch` returns `Ok`; a crash or error
    /// before that may leave any prefix of the batch's frames on disk
    /// (plus a torn tail that recovery truncates), never a reordered or
    /// partial record. An empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// [`TeiError::Io`] when the write or sync fails.
    pub fn append_batch(&mut self, recs: &[RunRecord]) -> Result<(), TeiError> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut framed = Vec::with_capacity(recs.len() * RUN_FRAME_LEN);
        for rec in recs {
            frame_into(&mut framed, &rec.encode());
        }
        crate::failpoint::write_all("journal.append.write", &mut self.file, &framed)
            .map_err(|e| TeiError::io("append journal records", &self.path, e))?;
        crate::failpoint::io_check("journal.append.sync")
            .and_then(|()| self.file.sync_data())
            .map_err(|e| TeiError::io("sync journal records", &self.path, e))?;
        self.appended += recs.len() as u64;
        Ok(())
    }

    /// Records committed through this handle (excludes replayed ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    // Tests should panic loudly, not thread errors.
    #![allow(clippy::disallowed_methods)]

    use super::*;

    fn manifest() -> CampaignManifest {
        CampaignManifest {
            version: 1,
            benchmark: "is".into(),
            model: "DA-model".into(),
            vr: "VR20".into(),
            runs: 8,
            seed: 42,
            timeout_factor_bits: 2.0f64.to_bits(),
            golden_instructions: 1000,
            golden_fp_ops: 100,
            golden_output_fnv: 7,
            model_fingerprint: 9,
        }
    }

    fn rec(run: u64) -> RunRecord {
        RunRecord {
            run,
            seed: run ^ 0xabc,
            target: Some(run * 3),
            mask: 1 << run,
            outcome: RecordedOutcome::Classified(Outcome::Sdc),
            wrong_path: false,
            no_error: false,
            mistargeted: false,
            retried: run % 2 == 1,
            instructions: 1000,
        }
    }

    #[test]
    fn record_roundtrip() {
        for r in [rec(0), rec(5)] {
            assert_eq!(RunRecord::decode(&r.encode()), Some(r));
        }
        let q = RunRecord {
            target: None,
            outcome: RecordedOutcome::Quarantined,
            ..rec(2)
        };
        assert_eq!(RunRecord::decode(&q.encode()), Some(q));
    }

    #[test]
    fn append_and_resume() {
        let dir = std::env::temp_dir().join(format!("tei-jrnl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = manifest();
        let mut r = Journal::open_or_create(&dir, &m).expect("create");
        assert!(r.completed.is_empty());
        let batch: Vec<RunRecord> = (0..5).map(rec).collect();
        r.journal.append_batch(&batch[..2]).expect("append");
        r.journal.append_batch(&batch[2..]).expect("append");
        r.journal.append_batch(&[]).expect("empty batch");
        assert_eq!(r.journal.appended(), 5);
        drop(r);
        let r2 = Journal::open_or_create(&dir, &m).expect("resume");
        assert_eq!(r2.completed.len(), 5);
        assert_eq!(r2.truncated_bytes, 0);
        assert_eq!(r2.completed[3], rec(3));

        // A different manifest must be refused.
        let mut other = manifest();
        other.seed = 43;
        // Same path forced: write the other manifest's journal name aside.
        let err = Journal::resume(r2.journal.path(), &other).unwrap_err();
        assert!(matches!(err, TeiError::ManifestMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_and_verify() {
        let dir = std::env::temp_dir().join(format!("tei-aw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("a.json");
        atomic_write_checksummed(&p, b"{\"x\":1}").expect("write");
        assert!(verify_checksummed(&p).expect("verify"));
        // Corrupt the artifact: verification must fail loudly.
        std::fs::write(&p, b"{\"x\":2}").unwrap();
        assert!(verify_checksummed(&p).is_err());
        // Missing sidecar is a soft Ok(false).
        let q = dir.join("b.json");
        std::fs::write(&q, b"zz").unwrap();
        assert!(!verify_checksummed(&q).expect("no sidecar"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
