//! Durability integration tests: torn-write recovery, checksum
//! corruption, manifest mismatch refusal, panic quarantine,
//! kill-at-a-random-point resume with byte-identical final tallies, and
//! the group-commit invariant (the journal holds exactly the tallied
//! runs). Torn mid-batch commits need the failpoint registry and live in
//! `failpoints.rs`.

use proptest::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tei_core::journal::{self, CampaignManifest, Journal};
use tei_core::{campaign, DaModel, TeiError};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const MEM: usize = 8 << 20;
const RUNS: usize = 48;

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

fn cfg(threads: usize) -> campaign::CampaignConfig {
    campaign::CampaignConfig {
        runs: RUNS,
        seed: 7,
        threads,
        ..Default::default()
    }
}

/// A fresh journal directory under the system temp dir, unique per call.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tei-journal-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn clean_counts(threads: usize) -> campaign::OutcomeCounts {
    campaign::run_campaign_checked("sobel", golden(), &model(), &cfg(threads))
        .expect("clean campaign")
        .counts
}

fn journal_file(dir: &std::path::Path, cfg: &campaign::CampaignConfig) -> PathBuf {
    let manifest = campaign::campaign_manifest("sobel", golden(), &model(), cfg);
    dir.join(manifest.file_name())
}

/// Interrupt a durable sweep after `stop_after` journal appends, then
/// resume it to completion; the final counts must be byte-identical to an
/// uninterrupted campaign regardless of the thread counts involved.
fn interrupt_and_resume(
    stop_after: u64,
    interrupted_threads: usize,
    resume_threads: usize,
) -> campaign::OutcomeCounts {
    let dir = scratch_dir("resume");
    let mut c = cfg(interrupted_threads);
    c.chaos.stop_after_appends = Some(stop_after);
    match campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir) {
        Err(TeiError::Interrupted {
            completed,
            requested,
        }) => {
            assert!(completed >= stop_after, "stop hook fired early");
            assert_eq!(requested, RUNS as u64);
        }
        Ok(_) => panic!("sweep with stop_after_appends={stop_after} was not interrupted"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    let result =
        campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(resume_threads), &dir)
            .expect("resumed campaign");
    std::fs::remove_dir_all(&dir).ok();
    result.counts
}

fn counts_json(c: &campaign::OutcomeCounts) -> String {
    serde_json::to_string(c).expect("serializable counts")
}

#[test]
fn interrupted_sweep_resumes_byte_identical() {
    let clean = counts_json(&clean_counts(4));
    assert_eq!(counts_json(&interrupt_and_resume(10, 1, 4)), clean);
    assert_eq!(counts_json(&interrupt_and_resume(10, 4, 1)), clean);
}

#[test]
fn completed_journal_replays_without_reexecution() {
    let dir = scratch_dir("replay");
    let c = cfg(2);
    let first =
        campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir).expect("first sweep");
    // Second invocation finds every run journaled: identical result.
    let second = campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir)
        .expect("replayed sweep");
    assert_eq!(counts_json(&first.counts), counts_json(&second.counts));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_truncated_and_resumed() {
    let dir = scratch_dir("torn");
    let mut c = cfg(1);
    c.chaos.stop_after_appends = Some(12);
    campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir).unwrap_err();
    // Simulate a crash mid-append: a partial frame at the tail.
    let path = journal_file(&dir, &c);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal exists");
    f.write_all(&[0x2b, 0x00, 0x00, 0x00, 0xde, 0xad])
        .expect("torn tail");
    drop(f);
    let before = std::fs::metadata(&path).expect("metadata").len();
    let result = campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(2), &dir)
        .expect("resume past torn tail");
    assert_eq!(counts_json(&result.counts), counts_json(&clean_counts(1)));
    let after = std::fs::metadata(&path).expect("metadata").len();
    assert!(after > before - 6, "journal kept growing after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checksum_drops_the_tail_record() {
    let dir = scratch_dir("corrupt");
    let mut c = cfg(1);
    c.chaos.stop_after_appends = Some(8);
    campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir).unwrap_err();
    // Flip one payload byte of the final record; its trailing checksum no
    // longer matches, so recovery must drop it (and only it).
    let path = journal_file(&dir, &c);
    let mut bytes = std::fs::read(&path).expect("read journal");
    let n = bytes.len();
    bytes[n - 20] ^= 0xff;
    std::fs::write(&path, &bytes).expect("re-write journal");
    let result = campaign::run_campaign_durable("sobel", golden(), &model(), &cfg(1), &dir)
        .expect("resume past corrupt record");
    // The dropped run was re-executed: counts still byte-identical.
    assert_eq!(counts_json(&result.counts), counts_json(&clean_counts(1)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_manifest_is_refused() {
    let dir = scratch_dir("manifest");
    let c = cfg(1);
    campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir).expect("seed sweep");
    // Masquerade the journal as belonging to a different campaign: give
    // it the file name a different-seed manifest would look for.
    let mut other_cfg = cfg(1);
    other_cfg.seed = 999;
    let victim = campaign::campaign_manifest("sobel", golden(), &model(), &other_cfg);
    let original = journal_file(&dir, &c);
    let imposter = dir.join(victim.file_name());
    std::fs::rename(&original, &imposter).expect("rename journal");
    let err = Journal::open_or_create(&dir, &victim).unwrap_err();
    match err {
        TeiError::ManifestMismatch {
            expected, found, ..
        } => assert_ne!(expected, found),
        other => panic!("expected ManifestMismatch, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_golden_fingerprint_changes_identity() {
    // A different golden run (different benchmark) must never share a
    // journal file with the original campaign.
    let bench = build(BenchmarkId::Is, Scale::Test);
    let other_golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).expect("golden");
    let a: CampaignManifest = campaign::campaign_manifest("sobel", golden(), &model(), &cfg(1));
    let b: CampaignManifest =
        campaign::campaign_manifest("sobel", &other_golden, &model(), &cfg(1));
    assert_ne!(a.hash(), b.hash());
    assert_ne!(a.file_name(), b.file_name());
}

#[test]
fn panicking_run_is_retried_and_classified() {
    let mut c = cfg(2);
    c.chaos.panic_once = vec![5];
    let result = campaign::run_campaign_checked("sobel", golden(), &model(), &c).expect("campaign");
    // The retry used the same derived seed, so the sweep's final tally is
    // indistinguishable from an unperturbed one.
    assert_eq!(result.counts.quarantined, 0);
    assert!(result.quarantined.is_empty());
    assert_eq!(counts_json(&result.counts), counts_json(&clean_counts(2)));
}

#[test]
fn poisoned_run_is_quarantined_with_repro_triple() {
    let mut c = cfg(2);
    c.chaos.panic_always = vec![5, 17];
    let result = campaign::run_campaign_checked("sobel", golden(), &model(), &c).expect("campaign");
    assert_eq!(result.counts.quarantined, 2);
    assert_eq!(result.counts.total(), RUNS as u64);
    let runs: Vec<u64> = result.quarantined.iter().map(|q| q.run).collect();
    assert_eq!(runs, vec![5, 17]);
    for q in &result.quarantined {
        assert!(q.message.contains("chaos"), "repro message: {}", q.message);
    }
    // The repro triple is deterministic: a second sweep reports the same
    // seeds, targets, and masks.
    let again = campaign::run_campaign_checked("sobel", golden(), &model(), &c).expect("campaign");
    for (a, b) in result.quarantined.iter().zip(&again.quarantined) {
        assert_eq!(
            (a.run, a.seed, a.target, a.mask),
            (b.run, b.seed, b.target, b.mask)
        );
    }
    // AVM ignores quarantined runs instead of diluting the denominator.
    let classified: u64 = result.counts.total() - result.counts.quarantined;
    assert!(classified > 0);
}

#[test]
fn quarantined_runs_survive_the_journal_round_trip() {
    let dir = scratch_dir("quarantine");
    let mut c = cfg(1);
    c.chaos.panic_always = vec![3];
    c.chaos.stop_after_appends = Some(9);
    campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir).unwrap_err();
    let mut resume_cfg = cfg(1);
    resume_cfg.chaos.panic_always = vec![3];
    let result = campaign::run_campaign_durable("sobel", golden(), &model(), &resume_cfg, &dir)
        .expect("resumed");
    assert_eq!(result.counts.quarantined, 1);
    assert_eq!(result.quarantined.len(), 1);
    assert_eq!(result.quarantined[0].run, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_artifacts_verify_and_detect_rot() {
    let dir = scratch_dir("artifact");
    let path = dir.join("results.json");
    journal::atomic_write_checksummed(&path, b"{\"rows\":[1,2,3]}").expect("write");
    assert!(journal::verify_checksummed(&path).expect("verify"));
    // Bit rot breaks verification.
    std::fs::write(&path, b"{\"rows\":[1,2,4]}").expect("tamper");
    assert!(matches!(
        journal::verify_checksummed(&path),
        Err(TeiError::JournalCorrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_sidecar_checksum_is_a_mismatch() {
    // Rot in the sidecar itself (not the artifact) must also fail closed.
    let dir = scratch_dir("sidecar");
    let path = dir.join("results.json");
    journal::atomic_write_checksummed(&path, b"{\"rows\":[7]}").expect("write");
    let sidecar = journal::sidecar_path(&path);
    let mut recorded = std::fs::read_to_string(&sidecar).expect("read sidecar");
    // Flip one hex digit of the recorded checksum; the artifact is intact.
    let i = "fnv64-".len();
    let flipped = if recorded.as_bytes()[i] == b'0' {
        '1'
    } else {
        '0'
    };
    recorded.replace_range(i..=i, &flipped.to_string());
    std::fs::write(&sidecar, recorded).expect("tamper sidecar");
    match journal::verify_checksummed(&path) {
        Err(TeiError::JournalCorrupt { reason, .. }) => {
            assert!(reason.contains("mismatch"), "reason: {reason}");
        }
        other => panic!("expected JournalCorrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_sidecar_is_corrupt_and_missing_sidecar_is_legacy() {
    let dir = scratch_dir("sidecar-parse");
    let path = dir.join("results.json");
    journal::atomic_write_checksummed(&path, b"{\"rows\":[9]}").expect("write");
    let sidecar = journal::sidecar_path(&path);
    // Garbage the sidecar: not silently "legacy", but a typed corruption.
    std::fs::write(&sidecar, "not-a-checksum\n").expect("garble sidecar");
    match journal::verify_checksummed(&path) {
        Err(TeiError::JournalCorrupt { reason, .. }) => {
            assert!(reason.contains("unparsable"), "reason: {reason}");
        }
        other => panic!("expected JournalCorrupt, got {other:?}"),
    }
    // A missing sidecar is the pre-checksum legacy format: Ok(false).
    std::fs::remove_file(&sidecar).expect("remove sidecar");
    assert!(!journal::verify_checksummed(&path).expect("legacy verify"));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Group-commit invariant: stop a durable sweep at an arbitrary point
    /// on 1–4 threads; the journal then holds exactly the `completed`
    /// runs the interrupted campaign tallied, each once. No run counts
    /// without being on disk, and no committed run goes uncounted.
    #[test]
    fn interrupted_journal_holds_exactly_the_tallied_runs(
        stop in 1u64..(RUNS as u64 - 4),
        threads in 1usize..5,
    ) {
        let dir = scratch_dir("batch-wal");
        let mut c = cfg(threads);
        c.chaos.stop_after_appends = Some(stop);
        let completed = match campaign::run_campaign_durable("sobel", golden(), &model(), &c, &dir) {
            Err(TeiError::Interrupted { completed, .. }) => completed,
            Ok(_) => panic!("sweep with stop_after_appends={stop} was not interrupted"),
            Err(e) => panic!("unexpected error: {e}"),
        };
        let manifest = campaign::campaign_manifest("sobel", golden(), &model(), &c);
        let records = Journal::replay_readonly(&journal_file(&dir, &c), &manifest)
            .expect("replay journal");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(records.len() as u64, completed);
        let distinct: std::collections::HashSet<u64> = records.iter().map(|r| r.run).collect();
        prop_assert_eq!(distinct.len(), records.len());
    }

    /// Kill the sweep after an arbitrary number of completed runs, on an
    /// arbitrary thread count, resume on another arbitrary thread count:
    /// the final OutcomeCounts must be byte-identical to a clean run.
    #[test]
    fn kill_at_random_run_resumes_byte_identical(
        stop in 1u64..(RUNS as u64 - 1),
        t_first in 1usize..5,
        t_resume in 1usize..5,
    ) {
        let resumed = interrupt_and_resume(stop, t_first, t_resume);
        prop_assert_eq!(counts_json(&resumed), counts_json(&clean_counts(2)));
    }
}

/// Work-sized group commits: a sobel run at Test scale replays a few
/// hundred instructions, under the per-run floor, so each thread's batch
/// closes at the run cap. 16,384 runs on 2 threads are 8,192 runs per
/// thread, two full batches each: 4 fsyncs in all.
/// `execute_lease` over the whole range is the cell loop
/// `run_campaign_durable` runs, on a journal the test can inspect.
#[test]
fn cheap_runs_commit_in_run_capped_batches() {
    const BIG: usize = 16_384;
    let c = campaign::CampaignConfig {
        runs: BIG,
        ..cfg(2)
    };
    let dir = scratch_dir("work-sized");
    let manifest = campaign::campaign_manifest("sobel", golden(), &model(), &c);
    let journal = std::sync::Mutex::new(
        Journal::open_or_create(&dir, &manifest)
            .expect("create journal")
            .journal,
    );
    let lease = campaign::execute_lease(
        golden(),
        &model(),
        &c,
        0,
        BIG as u64,
        &Default::default(),
        &journal,
    )
    .expect("durable sweep");
    let journal = journal.into_inner().expect("journal lock");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!lease.interrupted);
    assert_eq!(journal.appended(), BIG as u64);
    assert!(
        journal.commits() <= 4,
        "{} commits for {BIG} runs on 2 threads",
        journal.commits()
    );
    let memory = campaign::run_campaign_checked("sobel", golden(), &model(), &c)
        .expect("in-memory campaign");
    assert_eq!(counts_json(&lease.counts), counts_json(&memory.counts));
}
