//! Predict-then-verify tiering contract tests.
//!
//! * **Filter mode is byte-identical-or-refuse**: with a sound
//!   (self-fitted) surrogate, the filtered campaign's JSON encoding
//!   equals the exact campaign's across thread counts, with the
//!   safe-unit skip on and off and the lane width default or explicit —
//!   the mask-library order and the seeded reservoir included.
//! * **Audit catches a lying model**: a fingerprint-fresh model that
//!   wrongly classifies everything safe must trip the audit and fall
//!   back — loudly and typed — to the exact campaign.
//! * **Stale artifacts are refused typed**: fingerprint or checksum
//!   mismatch on a persisted model surfaces [`TeiError::SurrogateStale`],
//!   never a silently wrong prediction.

use proptest::prelude::*;
use std::sync::OnceLock;
use tei_core::dev::{
    dta_campaign_predictive, dta_campaign_tuned, fit_surrogate, load_surrogate,
    random_operand_pairs, save_surrogate, DtaTuning, PrunePolicy, SurrogateMode, SurrogateRun,
};
use tei_core::TeiError;
use tei_fpu::{FpuTimingSpec, FpuUnit};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{SurrogateFitter, VoltageReduction};

const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

fn test_unit() -> (&'static FpuUnit, FpuTimingSpec) {
    static UNIT: OnceLock<FpuUnit> = OnceLock::new();
    let spec = FpuTimingSpec::paper_calibrated();
    let unit =
        UNIT.get_or_init(|| FpuUnit::generate(FpOp::new(FpOpKind::Mul, Precision::Double), &spec));
    (unit, spec)
}

/// A workload-shaped trace: bursts of random operands interleaved with
/// repeated-operand runs (the zero-hamming-distance steady state real
/// traces are full of), so the fitted surrogate has both hot safe
/// buckets to skip and an uncertain band to hand to exact DTA.
fn mixed_trace(op: FpOp) -> Vec<(u64, u64)> {
    let one = 0x3ff0_0000_0000_0000u64; // f64 1.0
    let mut pairs = Vec::new();
    for chunk in random_operand_pairs(op, 160, 0xfeed_f00d).chunks(8) {
        pairs.extend_from_slice(chunk);
        pairs.extend(std::iter::repeat_n((one, one), 8));
    }
    pairs
}

fn filter_tuning(base: DtaTuning) -> DtaTuning {
    DtaTuning {
        surrogate: SurrogateMode::Filter,
        ..base
    }
}

/// Self-fit model over the mixed trace, shared across proptest cases.
fn fitted() -> &'static (Vec<(u64, u64)>, tei_timing::SurrogateModel) {
    static FIT: OnceLock<(Vec<(u64, u64)>, tei_timing::SurrogateModel)> = OnceLock::new();
    FIT.get_or_init(|| {
        let (unit, spec) = test_unit();
        let pairs = mixed_trace(unit.op());
        let model = fit_surrogate(unit, &pairs, spec.clk, DtaTuning::default()).expect("fit");
        (pairs, model)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance-criteria matrix: `SurrogateMode::Filter` campaign
    /// results are byte-identical to exact DTA over threads × pruning,
    /// at the default and the explicit lane width.
    #[test]
    fn prop_filter_mode_byte_identical(
        explicit_lanes in any::<bool>(),
        threads in 1usize..=4,
        prune_on in any::<bool>(),
    ) {
        let (unit, spec) = test_unit();
        let (pairs, model) = fitted();
        let lanes = explicit_lanes.then_some(8);
        let prune = if prune_on { PrunePolicy::Auto } else { PrunePolicy::ForceOff };
        let base = DtaTuning { prune, lanes, ..DtaTuning::default() };
        let exact = dta_campaign_tuned(unit, pairs, spec.clk, &LEVELS, threads, base)
            .expect("exact campaign");
        let (filtered, report) = dta_campaign_predictive(
            unit, pairs, spec.clk, &LEVELS, threads,
            filter_tuning(base), model, &SurrogateRun::default(),
        ).expect("filtered campaign");
        prop_assert!(report.fallback.is_none(), "sound model must not fall back: {report:?}");
        prop_assert_eq!(report.audit_errors, 0);
        prop_assert_eq!(
            serde_json::to_string(&filtered).expect("serialize filtered"),
            serde_json::to_string(&exact).expect("serialize exact"),
            "lanes={:?} threads={} prune={:?}: filter mode diverged from exact DTA",
            lanes, threads, prune
        );
    }
}

#[test]
fn filter_mode_actually_skips_work() {
    let (unit, spec) = test_unit();
    let (pairs, model) = fitted();
    let (_, report) = dta_campaign_predictive(
        unit,
        pairs,
        spec.clk,
        &LEVELS,
        1,
        filter_tuning(DtaTuning::default()),
        model,
        &SurrogateRun::default(),
    )
    .expect("filtered campaign");
    assert!(
        report.safe_skipped > 0,
        "repeated-operand runs should classify confidently safe: {report:?}"
    );
    assert!(
        report.exact_evaluated < report.transitions,
        "filtering removed no exact work: {report:?}"
    );
    assert_eq!(
        report.safe_skipped + report.exact_evaluated,
        report.transitions,
        "transition accounting leak: {report:?}"
    );
}

#[test]
fn audit_catches_lying_model_and_falls_back_typed() {
    let (unit, spec) = test_unit();
    let pairs = random_operand_pairs(unit.op(), 240, 0xbad_cafe);
    let base = DtaTuning::default();
    let exact =
        dta_campaign_tuned(unit, &pairs, spec.clk, &LEVELS, 2, base).expect("exact campaign");
    assert!(
        exact.iter().any(|s| s.faulty > 0),
        "trace must contain real errors for the audit to have anything to catch"
    );
    // A fingerprint-fresh model that lies: every observed transition is
    // recorded with zero settle time, so everything classifies Safe.
    let mut fitter = SurrogateFitter::new(
        unit.tag(),
        unit.dta_compiled().fingerprint(),
        spec.clk,
        tei_core::operand_format_of(unit.op()),
        unit.result_port().len() as u32,
    );
    let zeros = vec![0.0f64; unit.result_port().len()];
    for t in 0..pairs.len() - 1 {
        fitter.observe(pairs[t], pairs[t + 1], &zeros);
    }
    let mut liar = fitter.finish();
    liar.min_count = 0; // no under-sampling escape hatch: all buckets "confident"
    let (stats, report) = dta_campaign_predictive(
        unit,
        &pairs,
        spec.clk,
        &LEVELS,
        2,
        filter_tuning(base),
        &liar,
        // Audit everything: the fallback must be deterministic here.
        &SurrogateRun {
            audit_fraction: 1.0,
            ..SurrogateRun::default()
        },
    )
    .expect("campaign must recover, not fail");
    assert!(
        report.audit_errors > 0,
        "audit missed a lying model: {report:?}"
    );
    let reason = report
        .fallback
        .as_deref()
        .expect("fallback must be recorded");
    assert!(
        reason.contains("audit miscalibration"),
        "fallback reason not actionable: {reason}"
    );
    assert_eq!(
        serde_json::to_string(&stats).expect("serialize fallback stats"),
        serde_json::to_string(&exact).expect("serialize exact"),
        "fallback statistics must be the exact campaign's"
    );
}

#[test]
fn stale_or_corrupt_artifacts_are_refused_typed() {
    let (unit, spec) = test_unit();
    let (pairs, _) = fitted();
    let dir = std::env::temp_dir().join(format!("tei-surrogate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k_max = VoltageReduction::VR20.derating_factor();
    let model = fit_surrogate(unit, pairs, spec.clk, DtaTuning::default()).expect("fit");

    // Round trip: a fresh artifact loads and validates.
    let path = save_surrogate(&model, &dir).expect("save");
    let loaded = load_surrogate(&dir, unit, spec.clk, k_max).expect("load fresh artifact");
    assert_eq!(loaded.fit_pairs, model.fit_pairs);

    // Stale netlist fingerprint → typed refusal.
    let mut stale = model.clone();
    stale.fingerprint ^= 0xdead_beef;
    save_surrogate(&stale, &dir).expect("save stale");
    match load_surrogate(&dir, unit, spec.clk, k_max) {
        Err(TeiError::SurrogateStale { unit: u, reason }) => {
            assert_eq!(u, unit.tag());
            assert!(reason.contains("fingerprint"), "untyped reason: {reason}");
        }
        other => panic!("stale fingerprint must refuse typed, got {other:?}"),
    }

    // A factor above the calibrated ceiling → typed refusal.
    save_surrogate(&model, &dir).expect("re-save fresh");
    match load_surrogate(&dir, unit, spec.clk, model.k_ceiling * 2.0) {
        Err(TeiError::SurrogateStale { .. }) => {}
        other => panic!("over-ceiling factor must refuse typed, got {other:?}"),
    }

    // Bit rot (content changed under the checksum sidecar) → typed refusal.
    let json = std::fs::read_to_string(&path).expect("read artifact");
    std::fs::write(&path, json.replace("tei-surrogate", "tei-surrogatx")).expect("corrupt");
    match load_surrogate(&dir, unit, spec.clk, k_max) {
        Err(TeiError::SurrogateStale { reason, .. }) => {
            assert!(reason.contains("checksum"), "untyped reason: {reason}");
        }
        other => panic!("corrupt artifact must refuse typed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mode_off_is_the_exact_campaign() {
    let (unit, spec) = test_unit();
    let (pairs, model) = fitted();
    let exact = dta_campaign_tuned(unit, pairs, spec.clk, &LEVELS, 2, DtaTuning::default())
        .expect("exact campaign");
    let (stats, report) = dta_campaign_predictive(
        unit,
        pairs,
        spec.clk,
        &LEVELS,
        2,
        DtaTuning::default(), // surrogate: Off
        model,
        &SurrogateRun::default(),
    )
    .expect("off-mode campaign");
    if report.mode == "off" {
        assert_eq!(report.safe_skipped, 0);
        assert_eq!(report.exact_evaluated, report.transitions);
        assert_eq!(
            serde_json::to_string(&stats).expect("serialize off-mode"),
            serde_json::to_string(&exact).expect("serialize exact"),
        );
    }
}
