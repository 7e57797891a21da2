//! Every shipped unit's DTA table program ([`FpuUnit::dta_program`])
//! must be byte-identical to the per-pair [`ArrivalSim`] on the unit's
//! DTA netlist on real operand traffic: every net's value and toggle
//! flag at every transition, and the settle time of every net the
//! program exposes, which must include the whole result port.
//!
//! Debug builds drive a reduced matrix (fewer units) to keep
//! `cargo test -q` quick; release builds sweep every unit. Either way
//! each stream spans at least two chained windows.

use std::sync::OnceLock;

use tei_fpu::{FpuBank, FpuTimingSpec, FpuUnit};
use tei_netlist::NetId;
use tei_softfloat::FpOp;
use tei_timing::{ArrivalSim, SpecializedKernel, TwoVectorResult, VoltageReduction};
use tei_uarch::FuncCore;
use tei_workloads::{build, BenchmarkId, Scale};

/// Lane words per input of the table kernel.
const LANES: usize = SpecializedKernel::LANES;

/// Input vectors per table-kernel window.
const WINDOW: usize = SpecializedKernel::WINDOW_VECTORS;

fn bank() -> &'static FpuBank {
    static BANK: OnceLock<FpuBank> = OnceLock::new();
    BANK.get_or_init(|| FpuBank::generate(&FpuTimingSpec::paper_calibrated()))
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The program is built once per unit and then shared.
#[test]
fn dta_program_is_built_once() {
    for unit in bank().iter() {
        assert!(
            std::ptr::eq(unit.dta_program(), unit.dta_program()),
            "{}: dta_program rebuilt",
            unit.tag()
        );
    }
}

/// `ArrivalSim` on `unit`'s DTA netlist for the transition `prev → cur`.
fn sim_transition(
    unit: &FpuUnit,
    nl: &tei_netlist::Netlist,
    prev: (u64, u64),
    cur: (u64, u64),
    out: &mut TwoVectorResult,
) {
    let prev = unit.encode_inputs(prev.0, prev.1);
    let cur = unit.encode_inputs(cur.0, cur.1);
    ArrivalSim::run_into(nl, &prev, &cur, out);
}

/// Drive the table kernel through `windows` full windows of a random
/// operand stream, chained by overlapping one vector, and run each
/// transition through `ArrivalSim` on the unit's DTA netlist,
/// requiring bit-exact agreement at every transition: every net's
/// value and toggle flag, and the settle time of every net the program
/// exposes — which must include the full result port, the set the
/// campaign thresholds (internal nets have their settle slots recycled
/// by the liveness compaction; see `tei_timing::codegen`).
fn assert_matches_sim(unit: &FpuUnit, windows: usize, seed: u64) {
    let nl = unit.dta_netlist();
    let mut table = SpecializedKernel::new(unit.dta_program());
    for &net in unit.result_port() {
        assert!(
            table.settle_exposed(net),
            "{}: result-port net {} must stay exposed",
            unit.tag(),
            net.index()
        );
    }

    let mut rng = SplitMix(seed);
    let pairs: Vec<(u64, u64)> = (0..windows * (WINDOW - 1) + 1)
        .map(|_| (rng.next(), rng.next()))
        .collect();
    let mut packed = vec![0; unit.input_width() * LANES];
    let mut reference = TwoVectorResult::default();
    for start in (0..pairs.len() - 1).step_by(WINDOW - 1) {
        let window = &pairs[start..start + WINDOW];
        unit.pack_lanes(window, &mut packed);
        table.load_window(&packed, WINDOW);
        assert_eq!(table.window_transitions(), WINDOW - 1);
        for t in 0..WINDOW - 1 {
            table.select_transition(t);
            sim_transition(unit, &nl, window[t], window[t + 1], &mut reference);
            for net in 0..nl.len() {
                let id = NetId::from_index(net);
                let at = start + t;
                assert_eq!(
                    reference.cur[net],
                    table.cur(id),
                    "{} t={at} net {net}: value",
                    unit.tag()
                );
                assert_eq!(
                    reference.cur[net] != reference.prev[net],
                    table.changed(id),
                    "{} t={at} net {net}: toggle",
                    unit.tag()
                );
                if table.settle_exposed(id) {
                    assert_eq!(
                        reference.settle[net].to_bits(),
                        table.settle_of(id).to_bits(),
                        "{} t={at} net {net}: settle",
                        unit.tag()
                    );
                }
            }
        }
    }
}

#[test]
fn dta_programs_match_arrival_sim_bit_exactly() {
    let debug = cfg!(debug_assertions);
    let units = bank()
        .iter()
        .filter(|u| !debug || ["fp-add-s", "i2f-s", "f2i-s"].contains(&u.tag()));
    for (k, unit) in units.enumerate() {
        assert_matches_sim(unit, 2, 0xD7A5_0000 + k as u64);
    }
}

/// `pack_lanes` must place every operand bit exactly where
/// `encode_inputs_into` followed by per-bit lane packing puts it, for
/// every shipped unit (binary, unary and i2f ports), on full and
/// partial windows.
#[test]
fn pack_lanes_matches_encoded_bool_packing() {
    let mut rng = SplitMix(0x9ac4_0001);
    for unit in bank().iter() {
        let width = unit.input_width();
        let mut bits = vec![false; width];
        for count in [1usize, 2, 63, 64, 65, 200, 511, 512] {
            let pairs: Vec<(u64, u64)> = (0..count).map(|_| (rng.next(), rng.next())).collect();
            let mut want = vec![0u64; width * LANES];
            for (v, &(a, b)) in pairs.iter().enumerate() {
                unit.encode_inputs_into(a, b, &mut bits);
                for (k, &bit) in bits.iter().enumerate() {
                    want[k * LANES + v / 64] |= u64::from(bit) << (v % 64);
                }
            }
            // A dirty buffer must come back fully overwritten.
            let mut got = vec![!0u64; width * LANES];
            unit.pack_lanes(&pairs, &mut got);
            assert_eq!(got, want, "{} count {count}", unit.tag());
        }
    }
}

/// Error mask of one transition from `ArrivalSim`'s settle times,
/// thresholded the way the campaign does.
fn per_pair_mask(reference: &TwoVectorResult, unit: &FpuUnit, clk: f64, k: f64) -> u64 {
    unit.result_port()
        .iter()
        .enumerate()
        .filter(|&(_, &net)| reference.settle[net.index()].min(clk) * k > clk)
        .fold(0, |mask, (bit, _)| mask | 1 << bit)
}

/// A window packed from unrelated operand runs, with the seam
/// transitions between runs masked off, must threshold every kept
/// transition exactly like `ArrivalSim` and report nothing for the
/// seams — the sampled campaign's window shape, on shipped units.
#[test]
fn seam_masked_window_masks_match_arrival_sim() {
    let debug = cfg!(debug_assertions);
    let spec = FpuTimingSpec::paper_calibrated();
    let factors = [
        1.0,
        VoltageReduction::VR15.derating_factor(),
        VoltageReduction::VR20.derating_factor(),
        2.5,
        4.0,
    ];
    let units = bank()
        .iter()
        .filter(|u| !debug || ["fp-add-s", "i2f-s", "f2i-s"].contains(&u.tag()));
    let mut erring = 0usize;
    for unit in units {
        let nl = unit.dta_netlist();
        let mut rng = SplitMix(0x5ea_0008);
        let mut table = SpecializedKernel::new(unit.dta_program());
        let count = WINDOW - 3;
        let pairs: Vec<(u64, u64)> = (0..count).map(|_| (rng.next(), rng.next())).collect();
        // Runs of 1, 5 and 17 transitions, then a long one; a seam
        // transition follows each short run.
        let seams = [1usize, 7, 25];
        let mut keep = vec![!0u64; LANES];
        for &t in &seams {
            keep[t / 64] &= !(1 << (t % 64));
        }
        let mut packed = vec![0; unit.input_width() * LANES];
        unit.pack_lanes(&pairs, &mut packed);
        table.set_window_keep_mask(&keep);
        table.load_window(&packed, count);
        let mut masks = vec![0; (count - 1) * factors.len()];
        table.window_masks(spec.clk, &factors, &mut masks);
        let mut reference = TwoVectorResult::default();
        for t in 0..count - 1 {
            let row = &masks[t * factors.len()..(t + 1) * factors.len()];
            if seams.contains(&t) {
                assert!(row.iter().all(|&m| m == 0), "{}: seam {t}", unit.tag());
                continue;
            }
            sim_transition(unit, &nl, pairs[t], pairs[t + 1], &mut reference);
            for (&k, &mask) in factors.iter().zip(row) {
                assert_eq!(
                    mask,
                    per_pair_mask(&reference, unit, spec.clk, k),
                    "{} t={t} factor {k}",
                    unit.tag()
                );
                erring += usize::from(mask != 0);
            }
        }
    }
    assert!(erring > 0, "some transition must err at the deepest factor");
}

/// The operand pairs of every `op` in `id`'s Test-scale run, in
/// execution order.
fn trace_pairs(id: BenchmarkId, op: FpOp) -> Vec<(u64, u64)> {
    let bench = build(id, Scale::Test);
    let mut core = FuncCore::with_memory(&bench.program, 8 << 20);
    let mut pairs = Vec::new();
    core.run_with_hook(u64::MAX, &mut |ev| {
        if ev.op == op {
            pairs.push((ev.a, ev.b));
        }
        ev.result
    });
    pairs
}

/// VR15 and VR20, the 12 supply levels of a 12-point `tei sweep` grid
/// over [VR20 Vdd, nominal], and a derating of 2.5 at which every unit
/// errs.
fn mask_levels() -> Vec<f64> {
    let (lo, hi) = (
        VoltageReduction::VR20.vdd(),
        VoltageReduction::Nominal.vdd(),
    );
    [VoltageReduction::VR15, VoltageReduction::VR20]
        .into_iter()
        .chain((0..12).map(|i| VoltageReduction::Vdd(lo + (hi - lo) * f64::from(i) / 11.0)))
        .map(VoltageReduction::derating_factor)
        .chain([2.5])
        .collect()
}

/// Where AVX-512 CPUs run the certified f32 word sweep and re-sweep
/// undecided words in f64, every shipped unit's window masks must still
/// equal the f64 thresholds of every selected transition, on random
/// operand windows and on the operand traces of cg, k-means, is and
/// sobel, at VR15, VR20, a 12-level sweep grid and one deeper level.
#[test]
fn window_masks_match_f64_thresholds_on_every_unit() {
    let debug = cfg!(debug_assertions);
    let spec = FpuTimingSpec::paper_calibrated();
    let factors = mask_levels();
    let traces = [
        BenchmarkId::Cg,
        BenchmarkId::Kmeans,
        BenchmarkId::Is,
        BenchmarkId::Sobel,
    ];
    let units = bank()
        .iter()
        .filter(|u| !debug || ["fp-add-s", "f2i-d"].contains(&u.tag()));
    let (mut erring, mut trace_windows) = (0usize, 0usize);
    for unit in units {
        let mut rng = SplitMix(0xf32_0000);
        let random: Vec<(u64, u64)> = (0..if debug { 512 } else { 1023 })
            .map(|_| (rng.next(), rng.next()))
            .collect();
        let mut streams = vec![random];
        streams.extend(traces.iter().map(|&id| trace_pairs(id, unit.op())));
        let mut table = SpecializedKernel::new(unit.dta_program());
        let mut packed = vec![0; unit.input_width() * LANES];
        let mut masks = vec![0; WINDOW * factors.len()];
        for (s, stream) in streams.iter().enumerate() {
            let mut start = 0;
            while start + 1 < stream.len() {
                let count = (stream.len() - start).min(WINDOW);
                trace_windows += usize::from(s > 0);
                unit.pack_lanes(&stream[start..start + count], &mut packed);
                table.load_window(&packed, count);
                table.window_masks(spec.clk, &factors, &mut masks);
                for t in 0..count - 1 {
                    table.select_transition(t);
                    let row = &masks[t * factors.len()..(t + 1) * factors.len()];
                    for (&k, &mask) in factors.iter().zip(row) {
                        let want = unit
                            .result_port()
                            .iter()
                            .enumerate()
                            .filter(|&(_, &net)| table.settle_of(net).min(spec.clk) * k > spec.clk)
                            .fold(0u64, |m, (bit, _)| m | 1 << bit);
                        assert_eq!(
                            mask,
                            want,
                            "{} stream {s} t={} factor {k}",
                            unit.tag(),
                            start + t
                        );
                        erring += usize::from(mask != 0);
                    }
                }
                start += count - 1;
            }
        }
    }
    assert!(erring > 0, "some transition must err at the deepest factor");
    assert!(trace_windows > 0, "the traces must reach some unit");
}
