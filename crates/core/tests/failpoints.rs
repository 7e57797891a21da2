//! Failpoint-driven durability tests (`--features failpoints` only):
//! injected disk exhaustion mid-frame and mid-fsync must surface as a
//! typed, resumable [`TeiError::DiskFull`], and the resumed campaign
//! must be byte-identical to a clean run.
//!
//! A `hit:N` trigger on `journal.append.write` / `journal.append.sync`
//! counts batch commits, not runs. Batches close on replayed work, but no
//! sobel run at Test scale that ends short of a timeout replays more than
//! the per-run floor (the longest replays 274 instructions against 1,024),
//! so every batch here is exactly `JOURNAL_BATCH_RUNS` runs: at one thread
//! the campaign makes `RUNS / JOURNAL_BATCH_RUNS` commits, and every
//! schedule below fires inside that range. The clean campaign asserts
//! that no run timed out: a timeout can replay up to the whole 2x budget
//! (10,762 instructions), which would close its batch early.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use tei_core::campaign::JOURNAL_BATCH_RUNS;
use tei_core::journal::{Journal, RUN_FRAME_LEN};
use tei_core::{campaign, failpoint, DaModel, TeiError};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const MEM: usize = 8 << 20;
/// Eight batch commits at one thread.
const RUNS: usize = 8 * JOURNAL_BATCH_RUNS;

/// The failpoint registry is process-global; tests that arm it must not
/// interleave. Poison is irrelevant — the guard holds no data.
fn registry_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    match GUARD.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn golden() -> &'static campaign::GoldenRun {
    static GOLDEN: OnceLock<campaign::GoldenRun> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let bench = build(BenchmarkId::Sobel, Scale::Test);
        campaign::GoldenRun::capture(&bench, MEM, u64::MAX).expect("golden run")
    })
}

fn model() -> DaModel {
    DaModel::from_fixed(VoltageReduction::VR20, 1e-2)
}

fn cfg() -> campaign::CampaignConfig {
    campaign::CampaignConfig {
        runs: RUNS,
        seed: 7,
        threads: 1,
        ..Default::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tei-failpoint-test-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn counts_json(c: &campaign::OutcomeCounts) -> String {
    serde_json::to_string(c).expect("serializable counts")
}

fn clean_counts() -> String {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN
        .get_or_init(|| {
            let counts = campaign::run_campaign_checked("sobel", golden(), &model(), &cfg())
                .expect("clean campaign")
                .counts;
            // A timeout run would replay past the per-run floor and close
            // its batch early, moving every exact count below.
            assert_eq!(counts.timeout, 0, "a run timed out: {counts:?}");
            counts_json(&counts)
        })
        .clone()
}

/// Arm `schedule`, run a durable sweep until it dies of injected disk
/// exhaustion at batch commit `hit`, then disarm and resume: the final
/// tallies must be byte-identical to a fault-free campaign. Returns the
/// records the journal held after the fault.
fn enospc_then_resume(tag: &str, schedule: &str, hit: u64) -> u64 {
    let _guard = registry_guard();
    let clean = clean_counts(); // capture before arming — runs a campaign
    let dir = scratch_dir(tag);
    failpoint::configure(schedule).expect("arm schedule");
    let err = campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(), &dir)
        .expect_err("campaign should hit injected ENOSPC");
    failpoint::reset();
    match &err {
        TeiError::DiskFull {
            completed,
            requested,
            ..
        } => {
            // Exactly the batches committed before the faulted one count.
            assert_eq!(*completed, (hit - 1) * JOURNAL_BATCH_RUNS as u64);
            assert_eq!(*requested, RUNS as u64);
        }
        other => panic!("expected DiskFull, got {other}"),
    }
    assert!(err.is_resumable(), "DiskFull must be resumable");
    let manifest = campaign::campaign_manifest("sobel", golden(), &model(), &cfg());
    let on_disk = Journal::replay_readonly(&dir.join(manifest.file_name()), &manifest)
        .expect("replay faulted journal")
        .len() as u64;
    // The drained journal resumes to a byte-identical result.
    let resumed = campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(), &dir)
        .expect("resume after freeing space");
    assert_eq!(counts_json(&resumed.counts), clean);
    std::fs::remove_dir_all(&dir).ok();
    on_disk
}

#[test]
fn torn_journal_frame_on_enospc_recovers_byte_identical() {
    // Torn(20) writes 20 bytes of the batch's first 55-byte frame then
    // fails with ENOSPC: the classic mid-frame crash. Recovery must
    // truncate the torn tail and re-execute only what never committed.
    let on_disk = enospc_then_resume("torn-frame", "journal.append.write=torn:20@hit:5", 5);
    assert_eq!(on_disk, 4 * JOURNAL_BATCH_RUNS as u64);
}

#[test]
fn torn_batch_keeps_whole_frames_and_recovers_byte_identical() {
    // The tear lands mid-batch, after three whole frames: recovery keeps
    // those frames (they are valid records, just never tallied), drops
    // only the partial fourth, and resume still converges.
    let k = 3 * RUN_FRAME_LEN + 20;
    let schedule = format!("journal.append.write=torn:{k}@hit:3");
    let on_disk = enospc_then_resume("torn-batch", &schedule, 3);
    assert_eq!(on_disk, 2 * JOURNAL_BATCH_RUNS as u64 + 3);
}

#[test]
fn clean_append_enospc_recovers_byte_identical() {
    let on_disk = enospc_then_resume("append-enospc", "journal.append.write=enospc@hit:6", 6);
    assert_eq!(on_disk, 5 * JOURNAL_BATCH_RUNS as u64);
}

#[test]
fn fsync_enospc_recovers_byte_identical() {
    // The batch hit the page cache but fsync failed: its records may or
    // may not survive; either way resume must converge.
    let on_disk = enospc_then_resume("sync-enospc", "journal.append.sync=enospc@hit:3", 3);
    assert!((2 * JOURNAL_BATCH_RUNS as u64..=3 * JOURNAL_BATCH_RUNS as u64).contains(&on_disk));
}

#[test]
fn artifact_rename_fault_leaves_no_partial_artifact() {
    let _guard = registry_guard();
    let dir = scratch_dir("artifact-rename");
    let path = dir.join("results.json");
    failpoint::configure("artifact.rename=io:other").expect("arm schedule");
    let err = tei_core::journal::atomic_write_checksummed(&path, b"{}")
        .expect_err("injected rename fault");
    failpoint::reset();
    assert!(matches!(err, TeiError::Io { .. }), "typed io error: {err}");
    // The atomic contract: a failed publish leaves no artifact behind.
    assert!(
        !path.exists(),
        "partial artifact left at {}",
        path.display()
    );
    tei_core::journal::atomic_write_checksummed(&path, b"{}").expect("retry after disarm");
    assert!(tei_core::journal::verify_checksummed(&path).expect("verify"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn env_schedule_is_validated_at_campaign_entry() {
    let _guard = registry_guard();
    // run_campaign_durable arms TEI_FAILPOINTS itself; a malformed
    // schedule must be a typed Config error, not a silent no-op.
    std::env::set_var("TEI_FAILPOINTS", "journal.append.write=explode");
    let dir = scratch_dir("env-arm");
    let err = campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(), &dir)
        .expect_err("malformed schedule must refuse");
    std::env::remove_var("TEI_FAILPOINTS");
    failpoint::reset();
    assert!(matches!(err, TeiError::Config { .. }), "got {err}");
    std::fs::remove_dir_all(&dir).ok();
}
