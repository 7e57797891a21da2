//! End-to-end toolflow tests: model development → error models →
//! injection campaigns, validating the paper's qualitative structure.

use std::sync::OnceLock;
use tei_core::{campaign, dev, models, models::InjectionModel, DaModel, StatModel};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

fn bank() -> &'static (FpuBank, FpuTimingSpec) {
    static BANK: OnceLock<(FpuBank, FpuTimingSpec)> = OnceLock::new();
    BANK.get_or_init(dev::default_bank)
}

const MEM: usize = 8 << 20;

/// Exact DTA at one VR level with the default tuning on all cores.
fn dta(
    unit: &tei_fpu::FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    vr: VoltageReduction,
) -> Vec<dev::OpErrorStats> {
    let threads = tei_core::config::default_threads();
    dev::dta_campaign_tuned(unit, pairs, clk, &[vr], threads, dev::DtaTuning::default())
        .expect("campaign")
}

#[test]
fn ia_model_matches_paper_structure() {
    let (bank, spec) = bank();
    use FpOpKind::*;
    use Precision::*;
    let samples = 1500;
    let ia15 =
        StatModel::instruction_aware(bank, spec, VoltageReduction::VR15, samples, 42).unwrap();
    let ia20 =
        StatModel::instruction_aware(bank, spec, VoltageReduction::VR20, samples, 42).unwrap();
    // Conversions and every single-precision op are error-free at both
    // corners (paper Fig. 7); errors concentrate in double arithmetic.
    for op in FpOp::all() {
        let e15 = ia15.error_ratio(op);
        let e20 = ia20.error_ratio(op);
        if op.precision == Single || matches!(op.kind, ItoF | FtoI) {
            assert_eq!(e15, 0.0, "{op} must be error-free at VR15");
            assert_eq!(e20, 0.0, "{op} must be error-free at VR20");
        } else {
            assert!(e20 >= e15, "{op}: deeper undervolting cannot reduce errors");
        }
    }
    // fp-mul (d) is the most error-prone instruction.
    let mul20 = ia20.error_ratio(FpOp::new(Mul, Double));
    assert!(mul20 > 0.0, "d-mul errs at VR20");
    for op in FpOp::all() {
        assert!(
            mul20 >= ia20.error_ratio(op),
            "{op} should not exceed d-mul"
        );
    }
}

#[test]
fn wa_models_differ_across_workloads() {
    // The same instruction type shows workload-dependent error statistics
    // (paper Fig. 8): is's fp-mul mix differs from sobel's.
    let (bank, spec) = bank();
    let cap = 1200;
    let mut ratios = Vec::new();
    for id in [BenchmarkId::Is, BenchmarkId::Sobel, BenchmarkId::Kmeans] {
        let bench = build(id, Scale::Test);
        let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap);
        let wa =
            StatModel::workload_aware(bank, spec, VoltageReduction::VR20, &trace, cap).unwrap();
        let er = campaign_free_error_ratio(&wa);
        ratios.push((id, er));
    }
    // At least two workloads must disagree in overall ER.
    let vals: Vec<f64> = ratios.iter().map(|(_, e)| *e).collect();
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max > min * 1.5 || (min == 0.0 && max > 0.0) || max == 0.0,
        "workload-aware ERs should differ across workloads: {ratios:?}"
    );
}

fn campaign_free_error_ratio(m: &StatModel) -> f64 {
    FpOp::all().iter().map(|&op| m.error_ratio(op)).sum()
}

#[test]
fn flip_histogram_shows_multibit_errors() {
    // Paper Fig. 5: timing errors flip multiple bits in most cases.
    let (bank, spec) = bank();
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let pairs = dev::random_operand_pairs(op, 2500, 7);
    let stats = dta(bank.unit(op), &pairs, spec.clk, VoltageReduction::VR20);
    let s = &stats[0];
    assert!(s.faulty > 0, "need faulty samples to histogram");
    let multi: u64 = s
        .flip_hist
        .iter()
        .filter(|(&k, _)| k >= 2)
        .map(|(_, &v)| v)
        .sum();
    assert!(
        multi > 0,
        "multi-bit flips must occur (hist: {:?})",
        s.flip_hist
    );
}

#[test]
fn ber_estimate_converges_with_sample_count() {
    // Paper Fig. 6: more DTA samples → lower average absolute error
    // against the full-trace reference.
    let (bank, spec) = bank();
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let bench = build(BenchmarkId::Is, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, usize::MAX);
    let full = trace.of(op);
    assert!(
        full.len() > 2000,
        "is must be fp-mul heavy, got {}",
        full.len()
    );
    let unit = bank.unit(op);
    let reference = dta(unit, full, spec.clk, VoltageReduction::VR20)
        .pop()
        .unwrap()
        .ber();
    let ae_of = |k: usize| {
        let sub = dta(unit, &full[..k], spec.clk, VoltageReduction::VR20)
            .pop()
            .unwrap()
            .ber();
        dev::average_absolute_error(&reference, &sub)
    };
    let coarse = ae_of(full.len() / 16);
    let fine = ae_of(full.len() * 3 / 4);
    assert!(
        fine <= coarse + 1e-9,
        "AE must shrink with samples: {coarse} -> {fine}"
    );
}

#[test]
fn da_campaign_produces_nonmasked_outcomes() {
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let cfg = campaign::CampaignConfig {
        runs: 60,
        seed: 9,
        ..Default::default()
    };
    let r = campaign::run_campaign_checked("sobel", &golden, &da, &cfg).expect("campaign");
    assert_eq!(r.counts.total(), 60);
    assert!(
        r.counts.sdc + r.counts.crash + r.counts.timeout > 0,
        "single-bit corruptions must sometimes surface: {:?}",
        r.counts
    );
    assert!((r.error_ratio - 1e-2).abs() < 1e-12, "DA ER is fixed");
    assert!(r.avm() > 0.0 && r.avm() <= 1.0);
}

#[test]
fn wa_campaign_respects_zero_error_workloads() {
    // If the WA model finds no error-prone instructions at a corner, every
    // run is masked (the paper's hotspot-at-VR15 observation).
    let (bank, spec) = bank();
    let bench = build(BenchmarkId::Kmeans, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, 1000);
    let wa = StatModel::workload_aware(bank, spec, VoltageReduction::VR15, &trace, 1000).unwrap();
    let golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    let cfg = campaign::CampaignConfig {
        runs: 25,
        seed: 5,
        ..Default::default()
    };
    let r = campaign::run_campaign_checked("k-means", &golden, &wa, &cfg).expect("campaign");
    if campaign_free_error_ratio(&wa) == 0.0 {
        assert_eq!(r.counts.masked, 25, "zero-error model ⇒ all masked");
        assert_eq!(r.counts.masked_no_error, 25);
        assert_eq!(r.avm(), 0.0);
    } else {
        assert_eq!(r.counts.total(), 25);
    }
}

#[test]
fn da_vs_wa_error_ratio_divergence() {
    // The headline: the DA model's fixed ER diverges from the workload-
    // aware ER by large factors (paper: ~250× on average; our measured
    // per-benchmark spread is recorded in EXPERIMENTS.md). sobel's
    // integer-derived narrow operands leave it (nearly) error-free at
    // VR15, where the DA model still assumes its fixed 1e-3.
    let (bank, spec) = bank();
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, 4000);
    let golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    let wa = StatModel::workload_aware(bank, spec, VoltageReduction::VR15, &trace, 4000).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR15, 1e-3);
    let wa_er = campaign::model_error_ratio(&wa, &golden);
    let da_er = campaign::model_error_ratio(&da, &golden);
    assert!((da_er - 1e-3).abs() < 1e-12);
    assert!(
        wa_er < da_er / 5.0,
        "expected large DA/WA divergence, wa={wa_er} da={da_er}"
    );
}

#[test]
fn golden_run_records_microarchitectural_events() {
    let bench = build(BenchmarkId::Kmeans, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    assert!(golden.fp_ops > 0);
    assert_eq!(
        golden.arch_by_op.iter().map(Vec::len).sum::<usize>() as u64,
        golden.fp_ops
    );
    // k-means' data-dependent argmin branches put FP ops on the wrong path.
    let squashed: u64 = golden.squashed_by_op.iter().sum();
    assert!(
        squashed > 0,
        "k-means should exhibit wrong-path FP writebacks"
    );
}

/// Per benchmark at Test scale: the golden run's committed FP ops per
/// operation (the lengths of `arch_by_op`) and its wrong-path writebacks
/// per operation (`squashed_by_op`).
const GOLDEN_FP_MIX: [(BenchmarkId, [u64; 12], [u64; 12]); 7] = [
    (
        BenchmarkId::Sobel,
        [560, 0, 640, 480, 160, 80, 0, 0, 0, 0, 0, 0],
        [0; 12],
    ),
    (
        BenchmarkId::Cg,
        [1173, 96, 1264, 29, 1, 2, 0, 0, 0, 0, 0, 0],
        [0; 12],
    ),
    (
        BenchmarkId::Kmeans,
        [1000, 1200, 1200, 30, 15, 0, 0, 0, 0, 0, 0, 0],
        [221, 440, 370, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        BenchmarkId::SradV1,
        [2352, 867, 2115, 729, 3, 80, 0, 0, 0, 0, 0, 0],
        [155, 108, 139, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        BenchmarkId::Hotspot,
        [1536, 384, 656, 0, 0, 80, 0, 0, 0, 0, 0, 0],
        [0; 12],
    ),
    (
        BenchmarkId::Is,
        [1280, 2048, 7168, 0, 2048, 2304, 0, 0, 0, 0, 0, 0],
        [0; 12],
    ),
    (
        BenchmarkId::Mg,
        [4738, 684, 623, 5, 0, 1, 0, 0, 0, 0, 0, 0],
        [0; 12],
    ),
];

#[test]
fn golden_run_fp_mix_is_pinned() {
    for (id, committed, squashed) in GOLDEN_FP_MIX {
        let bench = build(id, Scale::Test);
        let golden = campaign::GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
        let lens: Vec<u64> = golden.arch_by_op.iter().map(|v| v.len() as u64).collect();
        assert_eq!(lens, committed, "{id}: arch_by_op lengths");
        assert_eq!(golden.squashed_by_op, squashed, "{id}: squashed_by_op");
        // The capture cross-checked the detailed core's per-op commits.
        assert_eq!(golden.ooo_stats.fp_committed_by_op, committed, "{id}");
        // Indices are the functional pass's dynamic FP order.
        let mut all: Vec<u32> = golden.arch_by_op.concat();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..golden.fp_ops as u32), "{id}");
    }
}

#[test]
fn models_serialize_roundtrip() {
    let (bank, spec) = bank();
    let ia = StatModel::instruction_aware(bank, spec, VoltageReduction::VR20, 300, 3).unwrap();
    let json = serde_json::to_string(&ia).expect("serialize");
    let back: StatModel = serde_json::from_str(&json).expect("deserialize");
    for op in FpOp::all() {
        assert_eq!(ia.error_ratio(op), back.error_ratio(op));
    }
    let da = DaModel::from_fixed(VoltageReduction::VR15, 1e-3);
    let json = serde_json::to_string(&da).expect("serialize");
    let back: DaModel = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.fixed_er(), 1e-3);
}

#[test]
fn mask_sampling_variants_behave() {
    use rand::SeedableRng;
    let (bank, spec) = bank();
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let ia = StatModel::instruction_aware(bank, spec, VoltageReduction::VR20, 1500, 11).unwrap();
    if ia.error_ratio(op) == 0.0 {
        return; // nothing to sample at this calibration
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let empirical = ia.clone().with_sampling(models::MaskSampling::Empirical);
    let independent = ia.with_sampling(models::MaskSampling::IndependentBits);
    for _ in 0..50 {
        assert_ne!(empirical.sample_mask(op, &mut rng), 0);
        assert_ne!(independent.sample_mask(op, &mut rng), 0);
    }
}
