//! Pinned DTA statistics: FNV-1a hashes of the JSON a campaign
//! produces, fixed so that any change to the DTA engine, the campaign
//! walk or the model builders that alters a single count, mask or mask
//! order fails here. The hashes were captured before the window
//! protocol's last rewrite and must never be re-pinned to follow an
//! engine change; a legitimate change to what DTA computes (a new
//! netlist, a new clamp) re-pins them and says so in CHANGES.md.
//!
//! Three workloads are pinned: IA statistics for all twelve ops at
//! VR15+VR20, a Test-scale WA model, and a twelve-level campaign over a
//! Test-scale sobel trace (levels from nominal, where the derating
//! factor is 1, down to VR20). A last test holds the model-development
//! walk to its level contract: each level of a multi-level
//! `dev::per_op_stats` walk equals a walk at that level alone.

use std::sync::OnceLock;
use tei_core::dev::{self, DtaTuning};
use tei_core::journal::fnv64;
use tei_core::StatModel;
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const MEM: usize = 8 << 20;

fn bank() -> &'static (FpuBank, FpuTimingSpec) {
    static BANK: OnceLock<(FpuBank, FpuTimingSpec)> = OnceLock::new();
    BANK.get_or_init(dev::default_bank)
}

/// The release hash, or the debug one: debug builds calibrate γ on a
/// smaller reference ensemble (see `FpuUnit::generate`), so their
/// statistics differ and are pinned separately.
const fn pin<T: Copy>(release: T, debug: T) -> T {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn hash_json(value: &impl serde::Serialize) -> u64 {
    fnv64(serde_json::to_string(value).expect("serializes").as_bytes())
}

/// Per-op hashes of `dta_campaign_tuned` over 4,096 random pairs (seed
/// 1) at VR15 and VR20, in `FpOp::all()` order.
const IA_HASHES: [u64; 12] = pin(
    [
        0x33f6_c5c9_2eeb_ba7d,
        0xb536_28a9_7a27_f6d9,
        0x20f3_cf67_8959_1d6a,
        0x45c0_8e45_bcdc_e2f9,
        0x3041_4e88_018b_764d,
        0xf320_5bf4_0148_d9c5,
        0xc617_7d43_bac2_d325,
        0x41ce_f072_86c0_dcc1,
        0x3e3d_ad9b_24ad_2ed9,
        0x3b8a_f3be_54e9_09a5,
        0x5c39_7d1e_84b2_b4c7,
        0x0aa4_3711_5dff_398b,
    ],
    [
        0x33f6_c5c9_2eeb_ba7d,
        0xb536_28a9_7a27_f6d9,
        0x79de_f5fc_b4c8_f478,
        0x45c0_8e45_bcdc_e2f9,
        0x3041_4e88_018b_764d,
        0xbaf2_54f2_1274_c843,
        0xc617_7d43_bac2_d325,
        0x41ce_f072_86c0_dcc1,
        0x3e3d_ad9b_24ad_2ed9,
        0x3b8a_f3be_54e9_09a5,
        0x5c39_7d1e_84b2_b4c7,
        0x0aa4_3711_5dff_398b,
    ],
);

#[test]
fn ia_stats_for_every_op_are_pinned() {
    let (bank, spec) = bank();
    let levels = [VoltageReduction::VR15, VoltageReduction::VR20];
    let got: Vec<u64> = FpOp::all()
        .into_iter()
        .map(|op| {
            let pairs = dev::random_operand_pairs(op, 4096, 1);
            let stats = dev::dta_campaign_tuned(
                bank.unit(op),
                &pairs,
                spec.clk,
                &levels,
                2,
                DtaTuning::default(),
            )
            .expect("campaign");
            hash_json(&stats)
        })
        .collect();
    assert_eq!(got, IA_HASHES, "IA statistics changed: {got:#x?}");
}

/// Hash of the VR20 WA model of `is` at Test scale (trace cap 1,500).
const WA_HASH: u64 = pin(0xb667_b5f9_5212_aa27, 0x0d19_c949_55fe_b4e0);

#[test]
fn test_scale_wa_model_is_pinned() {
    let (bank, spec) = bank();
    let cap = 1500;
    let bench = build(BenchmarkId::Is, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap);
    let model = StatModel::workload_aware(bank, spec, VoltageReduction::VR20, &trace, cap)
        .expect("WA model");
    let got = hash_json(&model);
    assert_eq!(got, WA_HASH, "WA model changed: {got:#x}");
}

/// Nominal (factor exactly 1) down to VR20 in 12 evenly spaced
/// supply steps, both ends exact.
fn twelve_levels() -> Vec<VoltageReduction> {
    let (hi, lo) = (
        VoltageReduction::Nominal.vdd(),
        VoltageReduction::VR20.vdd(),
    );
    (0..12)
        .map(|i| match i {
            0 => hi,
            11 => lo,
            _ => hi - (hi - lo) * f64::from(i) / 11.0,
        })
        .map(VoltageReduction::Vdd)
        .collect()
}

/// Per-op hashes of a twelve-level campaign over sobel's Test-scale
/// trace (cap 2,000 pairs per op), in `FpOp::all()` order.
const SWEEP_HASHES: [u64; 12] = [
    0x4057_cf52_6155_757d,
    0xbc32_efd0_47b8_4501,
    0xe6a2_7915_2ea0_91d9,
    0xd2fc_fd7b_dae2_286f,
    0x227f_14a2_e74e_772d,
    0xb3d3_aab8_c74b_86cd,
    0xf84e_c191_145b_c6fd,
    0x14e7_d946_4ba4_d2bf,
    0x8877_6bdf_acc4_f4c7,
    0x8477_7cb9_eeb5_9191,
    0xa879_052a_035d_8121,
    0xa10f_24dc_653e_6519,
];

#[test]
fn twelve_level_sobel_campaign_is_pinned() {
    let (bank, spec) = bank();
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, 2000);
    let levels = twelve_levels();
    let got: Vec<u64> = FpOp::all()
        .into_iter()
        .map(|op| {
            let stats = dev::dta_campaign_tuned(
                bank.unit(op),
                trace.of(op),
                spec.clk,
                &levels,
                2,
                DtaTuning::default(),
            )
            .expect("campaign");
            hash_json(&stats)
        })
        .collect();
    assert_eq!(got, SWEEP_HASHES, "12-level campaign changed: {got:#x?}");
}

/// Sobel's Test-scale trace never errs, so the twelve levels are also
/// pinned on d-mul random pairs, where most levels do: the contiguous
/// campaign over 4,096 pairs (seed 1), then a sampled campaign over
/// every third transition of the same stream (one seam per sample).
const DMUL_LEVEL_HASHES: [u64; 2] = pin(
    [0xda00_a6d1_48dd_2432, 0xc1f9_7b22_dd7c_2925],
    [0x7100_2ca9_c057_c64b, 0xdec4_99d5_839b_11fe],
);

#[test]
fn twelve_level_dmul_campaigns_are_pinned() {
    let (bank, spec) = bank();
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let unit = bank.unit(op);
    let levels = twelve_levels();
    let pairs = dev::random_operand_pairs(op, 4096, 1);
    let indices: Vec<usize> = (1..pairs.len()).step_by(3).collect();
    let tuning = DtaTuning::default();
    let contiguous =
        dev::dta_campaign_tuned(unit, &pairs, spec.clk, &levels, 2, tuning).expect("campaign");
    let sampled =
        dev::dta_campaign_sampled_tuned(unit, &pairs, &indices, spec.clk, &levels, 2, tuning)
            .expect("campaign");
    assert!(
        contiguous[0].faulty == 0 && contiguous[11].faulty > 0,
        "errors grow past nominal"
    );
    let got = [hash_json(&contiguous), hash_json(&sampled)];
    assert_eq!(
        got, DMUL_LEVEL_HASHES,
        "d-mul level campaigns changed: {got:#x?}"
    );
}

/// Each level of `per_op_stats(levels)` against `per_op_stats(&[level])`,
/// compared as serialized JSON for all twelve ops.
fn assert_levels_match_single_walks<P: AsRef<[(u64, u64)]>>(
    what: &str,
    levels: &[VoltageReduction],
    pairs: impl Fn(FpOp) -> P,
) {
    let (bank, spec) = bank();
    let joint = dev::per_op_stats(bank, spec, levels, &pairs).expect("walk");
    assert_eq!(joint.len(), levels.len());
    for (stats, &vr) in joint.iter().zip(levels) {
        let alone = dev::per_op_stats(bank, spec, &[vr], &pairs)
            .expect("walk")
            .pop()
            .expect("one level");
        assert_eq!(stats.len(), 12);
        for (j, a) in stats.iter().zip(&alone) {
            assert_eq!(
                serde_json::to_string(j).expect("serializes"),
                serde_json::to_string(a).expect("serializes"),
                "{what}: {} at {} differs between the {}-level walk and its own",
                j.op,
                vr.label(),
                levels.len()
            );
        }
    }
}

/// A multi-level walk must equal separate walks at every level, even
/// for a unit the whole-unit skip drops at one level but walks when
/// another level is present (fp-sub-s and i2f-s at VR15 alone).
#[test]
fn multi_level_walk_equals_single_level_walks() {
    // Debug builds (the sanitizer job) walk 32 times per thread count,
    // so they take short streams.
    let (n, cap) = pin((4096, 1500), (128, 128));
    let bench = build(BenchmarkId::Is, Scale::Test);
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap);
    let corners = [VoltageReduction::VR15, VoltageReduction::VR20];
    let twelve = twelve_levels();
    // The walk reads its chunk-worker count from `TEI_THREADS`; results
    // of the other tests here do not depend on it.
    for threads in ["1", "3"] {
        std::env::set_var("TEI_THREADS", threads);
        for levels in [&corners[..], &twelve] {
            assert_levels_match_single_walks("random pairs", levels, |op| {
                dev::random_operand_pairs(op, n, 1)
            });
            assert_levels_match_single_walks("is trace", levels, |op| trace.of(op));
        }
    }
    std::env::remove_var("TEI_THREADS");
}
