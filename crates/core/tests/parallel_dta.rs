//! Chunked DTA campaigns must be byte-identical to the serial walk —
//! same counts, same mask-library order, same histograms — regardless
//! of thread count or the safe-unit skip. Chunk results merge in
//! chunk-index (= transition) order and the mask reservoir is seeded
//! per `(op, vr)` cell, so the JSON encodings compare equal exactly; a
//! reference campaign driven by the per-pair [`ArrivalSim`] pins all
//! of them to the ground-truth engine. Short streams fit one window;
//! the long stream spans four chunks, so three chunk boundaries.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use tei_core::dev::{
    default_bank, dta_campaign_sampled_tuned, dta_campaign_tuned, random_operand_pairs,
    resolve_prune, safe_bit_counts, DtaTuning, OpErrorStats, PrunePolicy,
};
use tei_fpu::{FpuTimingSpec, FpuUnit};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{ArrivalSim, TwoVectorResult, VoltageReduction};

const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// Operand pairs of the long stream: 6,199 transitions are four chunks
/// of `CHUNK_WINDOWS` = 4 windows of 511 transitions (the last one
/// partial), so a walk crosses three chunk boundaries.
const LONG_PAIRS: usize = 6_200;

/// The d-mul unit has the thick error tail, so campaigns actually fill
/// mask libraries; generate it once for the whole test binary.
fn test_unit() -> (&'static FpuUnit, FpuTimingSpec) {
    static UNIT: OnceLock<FpuUnit> = OnceLock::new();
    let spec = FpuTimingSpec::paper_calibrated();
    let unit =
        UNIT.get_or_init(|| FpuUnit::generate(FpOp::new(FpOpKind::Mul, Precision::Double), &spec));
    (unit, spec)
}

/// Per-transition error masks, one per level, of every `(prev, cur)`
/// transition under the interpreted [`ArrivalSim`], thresholded the
/// way the kernel campaigns threshold (nominal clamp included).
fn sim_masks(
    unit: &FpuUnit,
    transitions: impl Iterator<Item = ((u64, u64), (u64, u64))>,
    clk: f64,
) -> Vec<[u64; 2]> {
    let nl = unit.dta_netlist();
    let outputs = unit.result_port();
    let mut r = TwoVectorResult::default();
    transitions
        .map(|(prev, cur)| {
            let prev = unit.encode_inputs(prev.0, prev.1);
            let cur = unit.encode_inputs(cur.0, cur.1);
            ArrivalSim::run_into(&nl, &prev, &cur, &mut r);
            LEVELS.map(|vr| {
                let k = vr.derating_factor();
                outputs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &net)| r.settle[net.index()].min(clk) * k > clk)
                    .fold(0, |mask, (bit, _)| mask | 1 << bit)
            })
        })
        .collect()
}

/// Ground-truth statistics: fold per-transition masks (see
/// [`sim_masks`]) into the per-corner statistics the kernel campaigns
/// produce, serialized. No reservoir cap is applied — callers keep the
/// transition count under it.
fn reference_json<'a>(unit: &FpuUnit, masks: impl Iterator<Item = &'a [u64; 2]>) -> String {
    let outputs = unit.result_port();
    let mut stats: Vec<OpErrorStats> = LEVELS
        .iter()
        .map(|&vr| OpErrorStats {
            op: unit.op(),
            vr,
            samples: 0,
            faulty: 0,
            bit_errors: vec![0; outputs.len()],
            masks: Vec::new(),
            flip_hist: BTreeMap::new(),
        })
        .collect();
    for row in masks {
        for (s, &mask) in stats.iter_mut().zip(row) {
            s.samples += 1;
            if mask == 0 {
                continue;
            }
            for (bit, count) in s.bit_errors.iter_mut().enumerate() {
                *count += (mask >> bit) & 1;
            }
            s.faulty += 1;
            *s.flip_hist.entry(mask.count_ones() as usize).or_default() += 1;
            s.masks.push(mask);
        }
    }
    serde_json::to_string(&stats).expect("serialize reference")
}

/// The contiguous transitions `pairs[t] → pairs[t + 1]`.
fn chained(pairs: &[(u64, u64)]) -> impl Iterator<Item = ((u64, u64), (u64, u64))> + '_ {
    pairs.windows(2).map(|w| (w[0], w[1]))
}

/// Operand pairs and the `ArrivalSim` masks of their transitions.
type Stream = (Vec<(u64, u64)>, Vec<[u64; 2]>);

/// The long stream, computed once for every test that walks it.
fn long_stream() -> &'static Stream {
    static LONG: OnceLock<Stream> = OnceLock::new();
    LONG.get_or_init(|| {
        let (unit, spec) = test_unit();
        let pairs = random_operand_pairs(unit.op(), LONG_PAIRS, 0x10_9057);
        let masks = sim_masks(unit, chained(&pairs), spec.clk);
        (pairs, masks)
    })
}

fn json(stats: &[OpErrorStats]) -> String {
    serde_json::to_string(stats).expect("serialize campaign")
}

#[test]
fn parallel_campaign_equals_serial_byte_for_byte() {
    let (unit, spec) = test_unit();
    let (pairs, masks) = long_stream();
    let reference = reference_json(unit, masks.iter());
    let serial = dta_campaign_tuned(unit, pairs, spec.clk, &LEVELS, 1, DtaTuning::default())
        .expect("serial campaign");
    assert!(
        serial.iter().any(|s| s.faulty > 0),
        "campaign should observe errors for the comparison to be meaningful"
    );
    assert_eq!(
        json(&serial),
        reference,
        "serial campaign diverged from ArrivalSim"
    );
    for threads in [2usize, 3, 8] {
        let parallel = dta_campaign_tuned(
            unit,
            pairs,
            spec.clk,
            &LEVELS,
            threads,
            DtaTuning::default(),
        )
        .expect("parallel campaign");
        assert_eq!(
            json(&parallel),
            reference,
            "{threads}-thread campaign diverged from ArrivalSim"
        );
    }
}

/// The equivalence matrix: the table kernel at its default and its
/// explicit lane width, serial and parallel, with the safe-unit skip on
/// and off, must reproduce the `ArrivalSim` reference byte for byte on
/// two single-window streams and on the long stream (its matrix
/// diagonal in debug builds). Under the
/// `sanitize-arrivals` feature the campaign additionally asserts that
/// no mask touches a statically-safe bit.
#[test]
fn tuning_matrix_matches_arrival_sim_byte_for_byte() {
    let (unit, spec) = test_unit();
    let mut streams: Vec<(Vec<(u64, u64)>, String)> = [0xd7a_cafeu64, 0x51ced]
        .into_iter()
        .map(|seed| {
            let pairs = random_operand_pairs(unit.op(), 403, seed);
            let masks = sim_masks(unit, chained(&pairs), spec.clk);
            let reference = reference_json(unit, masks.iter());
            (pairs, reference)
        })
        .collect();
    let (pairs, masks) = long_stream();
    streams.push((pairs.clone(), reference_json(unit, masks.iter())));
    let long = streams.len() - 1;
    for (s, (pairs, reference)) in streams.iter().enumerate() {
        for lanes in [None, Some(8)] {
            for threads in [1usize, 3] {
                for prune in [PrunePolicy::Auto, PrunePolicy::ForceOff] {
                    // Debug builds walk the long stream on the diagonal
                    // of the matrix only: every value, not every mix.
                    let diagonal = (lanes.is_none(), threads == 1)
                        == (prune == PrunePolicy::Auto, prune == PrunePolicy::Auto);
                    if cfg!(debug_assertions) && s == long && !diagonal {
                        continue;
                    }
                    let got = dta_campaign_tuned(
                        unit,
                        pairs,
                        spec.clk,
                        &LEVELS,
                        threads,
                        DtaTuning {
                            prune,
                            lanes,
                            ..DtaTuning::default()
                        },
                    )
                    .expect("campaign");
                    assert_eq!(
                        &json(&got),
                        reference,
                        "{} pairs, lanes={lanes:?} threads={threads} prune={prune:?} \
                         diverged from ArrivalSim",
                        pairs.len()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_sampled_campaign_equals_serial_byte_for_byte() {
    let (unit, spec) = test_unit();
    let (trace, masks) = long_stream();
    // An arbitrary non-monotonic sample pattern over valid indices:
    // runs of two transitions with a seam between them, packing about
    // 1.5 vectors per transition, so the walk still crosses chunks.
    let indices: Vec<usize> = (1..trace.len()).filter(|i| i % 3 != 0).collect();
    let reference = reference_json(unit, indices.iter().map(|&i| &masks[i - 1]));
    let sampled = |threads: usize| {
        dta_campaign_sampled_tuned(
            unit,
            trace,
            &indices,
            spec.clk,
            &LEVELS,
            threads,
            DtaTuning::default(),
        )
    };
    let serial = sampled(1).expect("serial sampled campaign");
    assert_eq!(
        json(&serial),
        reference,
        "sampled campaign diverged from ArrivalSim"
    );
    for threads in [2usize, 5] {
        let parallel = sampled(threads).expect("parallel sampled campaign");
        assert_eq!(
            json(&parallel),
            reference,
            "{threads}-thread sampled campaign diverged from ArrivalSim"
        );
    }
}

/// The sampled walk against the ground truth: isolated indices, a run
/// of more than 64 consecutive indices (it crosses a lane word and
/// packs as one contiguous segment) and a repeated index, at the
/// default and the explicit lane width, serial and parallel.
#[test]
fn sampled_walk_matches_arrival_sim() {
    let (unit, spec) = test_unit();
    let trace = random_operand_pairs(unit.op(), 300, 0x5a3d);
    let mut indices: Vec<usize> = vec![250, 3, 17];
    indices.extend(40..150);
    indices.extend([200, 200, 9, 299, 151]);
    let masks = sim_masks(
        unit,
        indices.iter().map(|&i| (trace[i - 1], trace[i])),
        spec.clk,
    );
    let reference = reference_json(unit, masks.iter());
    for lanes in [None, Some(8)] {
        for threads in [1usize, 3] {
            let tuning = DtaTuning {
                lanes,
                ..DtaTuning::default()
            };
            let got = dta_campaign_sampled_tuned(
                unit, &trace, &indices, spec.clk, &LEVELS, threads, tuning,
            )
            .expect("sampled campaign");
            assert_eq!(
                json(&got),
                reference,
                "lanes={lanes:?} threads={threads} diverged from ArrivalSim"
            );
        }
    }
    // Sampling every index is the contiguous campaign.
    let all: Vec<usize> = (1..trace.len()).collect();
    let tuning = DtaTuning::default();
    let sampled = dta_campaign_sampled_tuned(unit, &trace, &all, spec.clk, &LEVELS, 2, tuning)
        .expect("sampled campaign");
    let contiguous =
        dta_campaign_tuned(unit, &trace, spec.clk, &LEVELS, 2, tuning).expect("campaign");
    assert_eq!(json(&sampled), json(&contiguous));
}

/// A unit the slack oracle proves safe at every level is skipped, not
/// walked: its statistics must be JSON-equal to the forced walk's,
/// contiguous and sampled, and the skipped set is pinned.
#[test]
fn safe_unit_skip_is_byte_identical_to_forced_walk() {
    let (bank, spec) = default_bank();
    let mut skipped = Vec::new();
    for vr in LEVELS {
        for unit in bank.iter() {
            let safe = safe_bit_counts(unit, spec.clk, &[vr]);
            let auto = resolve_prune(unit, spec.clk, &[vr], PrunePolicy::Auto);
            if safe[0] != unit.result_width() || !auto.enabled {
                continue;
            }
            skipped.push(format!("{} {}", unit.tag(), vr.label()));
            let pairs = random_operand_pairs(unit.op(), 300, 0x5afe);
            let indices: Vec<usize> = (1..pairs.len()).step_by(7).collect();
            let walk = |prune| {
                let tuning = DtaTuning {
                    prune,
                    ..DtaTuning::default()
                };
                let contiguous =
                    dta_campaign_tuned(unit, &pairs, spec.clk, &[vr], 2, tuning).expect("campaign");
                let sampled =
                    dta_campaign_sampled_tuned(unit, &pairs, &indices, spec.clk, &[vr], 2, tuning)
                        .expect("sampled campaign");
                assert_eq!((contiguous[0].samples, contiguous[0].faulty), (299, 0));
                (json(&contiguous), json(&sampled))
            };
            assert_eq!(
                walk(PrunePolicy::Auto),
                walk(PrunePolicy::ForceOff),
                "{} at {}: the skip must report what the walk finds",
                unit.tag(),
                vr.label()
            );
        }
    }
    // Debug builds calibrate γ on a smaller ensemble (see
    // `FpuUnit::generate`), which moves the oracle's safe set.
    let want: &[&str] = if cfg!(debug_assertions) {
        &["f2i-s VR15", "f2i-s VR20"]
    } else {
        &[
            "f2i-d VR15",
            "fp-sub-s VR15",
            "i2f-s VR15",
            "f2i-s VR15",
            "f2i-d VR20",
            "f2i-s VR20",
        ]
    };
    assert_eq!(skipped, want);
}

#[test]
fn thread_count_overshoot_is_clamped() {
    let (unit, spec) = test_unit();
    let pairs = random_operand_pairs(unit.op(), 6, 1);
    // More threads than chunks: workers clamp without panicking.
    let tuning = DtaTuning::default();
    let stats =
        dta_campaign_tuned(unit, &pairs, spec.clk, &LEVELS, 64, tuning).expect("clamped campaign");
    assert_eq!(stats[0].samples, 5);
    let empty = dta_campaign_tuned(unit, &pairs[..1], spec.clk, &LEVELS, 4, tuning)
        .expect("empty campaign");
    assert_eq!(empty[0].samples, 0, "single pair only establishes state");
}
