//! Fork-replay engine equivalence: checkpoint-restored campaigns must
//! produce **byte-identical** `OutcomeCounts` to the
//! original replay-from-zero path, across benchmarks, thread counts, and
//! checkpoint intervals. This is the executable contract behind defaulting
//! `CampaignConfig::mode` to the checkpointed engine.
//!
//! Both engines share one interpreter, so equivalence alone cannot catch a
//! change to the interpreter's values. The replay-from-zero tallies are
//! therefore also pinned to fixed numbers: injected runs feed NaN,
//! infinite and subnormal operands to the FPU, the cases the host-FPU
//! fast path hands back to softfloat.

use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use tei_core::{
    campaign::{self, CampaignConfig, GoldenRun, ReplayMode},
    models::InjectionModel,
    DaModel,
};
use tei_softfloat::{FpOp, FpOpKind};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const MEM: usize = 8 << 20;
const RUNS: usize = 48;

/// A synthetic model with op-dependent error ratios and correlated
/// multi-bit masks, exercising replay paths the single-bit DA model
/// cannot (multi-bit corruption, op-weighted target draws).
struct MultiBitModel;

impl InjectionModel for MultiBitModel {
    fn name(&self) -> &'static str {
        "test-multibit"
    }

    fn vr(&self) -> VoltageReduction {
        VoltageReduction::VR20
    }

    fn error_ratio(&self, op: FpOp) -> f64 {
        // Weight arithmetic more heavily than conversions/moves.
        0.002 + 0.01 * (op.index() as f64 / 12.0)
    }

    fn sample_mask(&self, op: FpOp, rng: &mut dyn rand::RngCore) -> u64 {
        let bits = op.result_bits();
        let a = rng.gen_range(0..bits);
        let b = rng.gen_range(0..bits);
        (1u64 << a) | (1u64 << b) | 1
    }
}

/// Corrupts only float-to-integer conversions, flipping one bit from 9 to
/// 19. A flipped `is` key makes `counts[key]++` write a page 4 KiB to
/// 4 MiB past the data image, which no checkpoint base holds; a flipped
/// `randlc` split scrambles the keys after it (the crashes).
struct DeepStoreModel;

impl InjectionModel for DeepStoreModel {
    fn name(&self) -> &'static str {
        "test-deep-store"
    }

    fn vr(&self) -> VoltageReduction {
        VoltageReduction::VR20
    }

    fn error_ratio(&self, op: FpOp) -> f64 {
        if op.kind == FpOpKind::FtoI {
            0.05
        } else {
            0.0
        }
    }

    fn sample_mask(&self, _op: FpOp, rng: &mut dyn rand::RngCore) -> u64 {
        1u64 << rng.gen_range(9..20)
    }
}

fn campaign_counts(
    golden: &GoldenRun,
    model: &(impl InjectionModel + Sync),
    mode: ReplayMode,
    threads: usize,
) -> campaign::OutcomeCounts {
    let cfg = CampaignConfig {
        runs: RUNS,
        seed: 0xfeed_beef,
        threads,
        mode,
        ..Default::default()
    };
    let r = campaign::run_campaign_checked("equiv", golden, model, &cfg).expect("campaign");
    assert_eq!(r.counts.total(), RUNS as u64);
    assert_eq!(r.counts.mistargeted, 0, "drawn targets must always fire");
    r.counts
}

/// A pinned tally; `mistargeted` and `quarantined` are always 0.
fn tally(
    masked: u64,
    sdc: u64,
    crash: u64,
    timeout: u64,
    masked_wrong_path: u64,
) -> campaign::OutcomeCounts {
    campaign::OutcomeCounts {
        masked,
        sdc,
        crash,
        timeout,
        masked_wrong_path,
        ..Default::default()
    }
}

fn assert_all_modes_equivalent(
    golden: &GoldenRun,
    model: &(impl InjectionModel + Sync),
    pinned: campaign::OutcomeCounts,
) {
    let reference = campaign_counts(golden, model, ReplayMode::FromZero, 1);
    assert_eq!(reference, pinned, "{} tally moved", model.name());
    for threads in [1usize, 3] {
        for mode in [ReplayMode::FromZero, ReplayMode::Checkpointed] {
            let counts = campaign_counts(golden, model, mode, threads);
            assert_eq!(
                counts,
                reference,
                "{} diverged: mode {mode:?}, {threads} threads",
                model.name()
            );
        }
    }
}

#[test]
fn checkpointed_replay_matches_from_zero_across_intervals() {
    let bench = build(BenchmarkId::Is, Scale::Test);
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    // Checkpoint spacing is a pure performance knob: every interval must
    // yield the same tally, including pathological spacing (1) that forces
    // the recorder's adaptive thinning.
    for interval in [0u64, 1, 37, 1 << 30] {
        let golden = GoldenRun::capture_with_checkpoints(&bench, MEM, u64::MAX, interval).unwrap();
        assert_all_modes_equivalent(&golden, &da, tally(15, 24, 9, 0, 0));
    }
}

#[test]
fn checkpointed_replay_matches_from_zero_multibit() {
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let golden = GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    assert_all_modes_equivalent(&golden, &MultiBitModel, tally(38, 6, 4, 0, 0));
    let da = DaModel::from_fixed(VoltageReduction::VR20, 5e-3);
    assert_all_modes_equivalent(&golden, &da, tally(41, 6, 1, 0, 0));
}

#[test]
fn restores_after_stores_past_the_image_match_from_zero() {
    // Each fork core serves many runs in turn, so a run restores its
    // checkpoint over the pages the previous run wrote past the image.
    // With a spacing of 2^30 the initial checkpoint is the only one, so
    // every restore rewinds to it.
    //
    // A run that panics once is retried on a fresh core and tallied as if
    // nothing happened, so count panics as well: there must be none (no
    // other test in this binary panics when it passes).
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        previous(info);
    }));
    let bench = build(BenchmarkId::Is, Scale::Test);
    for interval in [0u64, 1 << 30] {
        let golden = GoldenRun::capture_with_checkpoints(&bench, MEM, u64::MAX, interval).unwrap();
        assert_all_modes_equivalent(&golden, &DeepStoreModel, tally(0, 25, 23, 0, 0));
    }
    assert_eq!(PANICS.load(Ordering::Relaxed), 0, "a replay panicked");
}

#[test]
fn checkpoint_pool_holds_only_touched_pages() {
    // The base holds the data image's pages, not the 8 MiB memory.
    let golden =
        GoldenRun::capture(&build(BenchmarkId::Sobel, Scale::Test), MEM, u64::MAX).unwrap();
    let bytes = golden.checkpoints.footprint_bytes();
    assert!(
        bytes < 64 << 10,
        "sobel's checkpoint pool holds {bytes} bytes"
    );
}

#[test]
fn multibit_tallies_are_pinned_per_benchmark() {
    let pinned = [
        (BenchmarkId::Sobel, tally(38, 6, 4, 0, 0)),
        (BenchmarkId::Cg, tally(31, 17, 0, 0, 0)),
        (BenchmarkId::Kmeans, tally(48, 0, 0, 0, 11)),
        (BenchmarkId::SradV1, tally(32, 15, 1, 0, 2)),
        (BenchmarkId::Hotspot, tally(20, 25, 3, 0, 0)),
        (BenchmarkId::Is, tally(10, 21, 17, 0, 0)),
        (BenchmarkId::Mg, tally(22, 26, 0, 0, 0)),
    ];
    for (id, want) in pinned {
        let golden = GoldenRun::capture(&build(id, Scale::Test), MEM, u64::MAX).unwrap();
        let got = campaign_counts(&golden, &MultiBitModel, ReplayMode::FromZero, 1);
        assert_eq!(got, want, "{} tally moved", id.name());
    }
}

#[test]
fn model_name_decorrelates_seed_streams() {
    // Two models with identical error behavior but different names must
    // draw decorrelated per-run streams (the model-name seed salt).
    struct Renamed(&'static str);
    impl InjectionModel for Renamed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn vr(&self) -> VoltageReduction {
            VoltageReduction::VR20
        }
        fn error_ratio(&self, _op: FpOp) -> f64 {
            0.01
        }
        fn sample_mask(&self, op: FpOp, rng: &mut dyn rand::RngCore) -> u64 {
            1u64 << rng.gen_range(0..op.result_bits())
        }
    }
    let bench = build(BenchmarkId::Is, Scale::Test);
    let golden = GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    let a = campaign_counts(&golden, &Renamed("alpha"), ReplayMode::default(), 2);
    let b = campaign_counts(&golden, &Renamed("beta"), ReplayMode::default(), 2);
    assert_ne!(
        a, b,
        "identical behavior under different names should draw different streams"
    );
}
