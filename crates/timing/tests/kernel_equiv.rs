//! Property-based equivalence of the arrival engines against the
//! reference [`ArrivalSim`]: identical steady-state values and
//! bit-identical settle times on random DAGs.
//!
//! The per-pair [`ArrivalKernel`] is checked for isolated two-vector
//! runs and for chained `advance` streams. The table kernel — a
//! [`SpecializedKernel`] over [`DynProgram`], the pipeline every
//! shipped unit's DTA runs — is checked over full and compacted plans
//! at every supported lane width, on maximal and short windows, and at
//! window counts on and around every 64-vector lane word boundary. Its
//! window masks are pinned to per-transition f64 thresholds, including
//! at levels that force the certified f32 sweep back to f64.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_netlist::{CellLibrary, GateKind, NetId, Netlist};
use tei_timing::{
    ArrivalEngine, ArrivalKernel, ArrivalSim, CompiledNetlist, DynProgram, SpecializedKernel,
    TwoVectorResult,
};

/// Build a random topologically-ordered DAG over `n_inputs` inputs.
fn random_netlist(seed: u64, n_inputs: usize, n_gates: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("prop", CellLibrary::nangate45_like());
    let mut nets = Vec::new();
    for _ in 0..n_inputs {
        nets.push(nl.add_input_bit());
    }
    let kinds = GateKind::all_logic();
    for _ in 0..n_gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let pins: Vec<_> = (0..kind.arity())
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(nl.add_gate(kind, &pins));
    }
    // Mark everything observable so nothing is dead for either engine.
    nl.mark_output_bus("all", &nets);
    nl
}

fn random_inputs(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Pack input vectors into the `W`-word lanes `load_window` takes:
/// bit `v % 64` of word `k * W + v / 64` is input `k` of vector `v`.
fn pack(vectors: &[Vec<bool>], w: usize) -> Vec<u64> {
    let width = vectors.first().map_or(0, Vec::len);
    let mut lanes = vec![0u64; width * w];
    for (v, vector) in vectors.iter().enumerate() {
        for (k, &bit) in vector.iter().enumerate() {
            lanes[k * w + v / 64] |= u64::from(bit) << (v % 64);
        }
    }
    lanes
}

fn assert_same(reference: &TwoVectorResult, got: &TwoVectorResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.prev, &reference.prev, "prev values");
    prop_assert_eq!(&got.cur, &reference.cur, "cur values");
    prop_assert_eq!(got.settle.len(), reference.settle.len(), "settle length");
    for i in 0..reference.settle.len() {
        prop_assert_eq!(
            got.settle[i].to_bits(),
            reference.settle[i].to_bits(),
            "settle[{}]: kernel {} vs sim {}",
            i,
            got.settle[i],
            reference.settle[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_kernel_matches_sim_two_vector(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..160,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut kernel = ArrivalKernel::new();
        let mut got = TwoVectorResult::default();
        for _ in 0..4 {
            let prev = random_inputs(&mut rng, n_inputs);
            let cur = random_inputs(&mut rng, n_inputs);
            let reference = ArrivalSim::run(&nl, &prev, &cur);
            kernel.run_into(&c, &prev, &cur, &mut got);
            assert_same(&reference, &got)?;
        }
    }

    #[test]
    fn prop_chained_advances_match_sim(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..160,
        stream_len in 2usize..12,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();

        let mut kernel = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        kernel.reset(&c, &stream[0]);
        for w in stream.windows(2) {
            kernel.advance(&c, &w[1]);
            kernel.snapshot_into(&mut snap);
            let reference = ArrivalSim::run(&nl, &w[0], &w[1]);
            assert_same(&reference, &snap)?;
        }
    }

    /// The table kernel over full and compacted plans must reproduce
    /// `ArrivalSim` transition for transition at every lane width —
    /// identical values, toggle flags, and bit-exact settle times — on
    /// maximal windows and on short ones chained by one vector.
    #[test]
    fn prop_engine_matrix_matches_sim(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..120,
        stream_len in 2usize..150,
        window in prop_oneof![2usize..9, Just(usize::MAX)],
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();
        engine_matrix_matches::<1>(&nl, &c, &stream, window)?;
        engine_matrix_matches::<4>(&nl, &c, &stream, window)?;
        engine_matrix_matches::<8>(&nl, &c, &stream, window)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `window_masks` must equal thresholding each selected
    /// transition's kept settle times by hand, at every lane width and
    /// at levels with derating factor at most 1 (which never err) and
    /// above it, with random seam transitions masked off — and at a
    /// level whose threshold sits exactly on an observed settle time,
    /// which the certified f32 sweep cannot decide and must re-sweep in
    /// f64.
    #[test]
    fn prop_window_masks_match_selected_thresholds(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..120,
        stream_len in 2usize..700,
        keep_stride in 1usize..4,
        clk_pct in 10u32..100,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let keep: Vec<u32> = (0..c.len() as u32).rev().step_by(keep_stride).take(64).collect();
        let program = DynProgram::compacted(&c, &keep);
        let bound = keep.iter().map(|&k| c.static_bounds()[k as usize]).fold(0.0, f64::max);
        let clk = if bound > 0.0 { f64::from(clk_pct) / 100.0 * bound } else { 1.0 };
        let factors = [0.5, 1.0, 1.0 + f64::EPSILON, 1.3, 2.0];
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(9));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();
        window_masks_match::<1>(&program, &keep, &stream, clk, &factors, &mut rng)?;
        window_masks_match::<4>(&program, &keep, &stream, clk, &factors, &mut rng)?;
        window_masks_match::<8>(&program, &keep, &stream, clk, &factors, &mut rng)?;
    }
}

/// Walk `stream` in maximal windows of a `W`-lane kernel over
/// `program`, dropping about one transition in eight as a seam, and
/// check every window's masks against `select_transition` +
/// `settle_of` thresholding of the kept nets. Each window adds a level
/// `k = clk / s` for the largest kept settle time `s <= clk` it
/// contains, so `clk / k` lands on `s`; where the kernel runs the f32
/// sweep, that window must count an f64 re-sweep.
fn window_masks_match<const W: usize>(
    program: &DynProgram,
    keep: &[u32],
    stream: &[Vec<bool>],
    clk: f64,
    factors: &[f64],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    let mut engine = SpecializedKernel::<W>::new(program);
    let mut masks = vec![0u64; W * 64 * (factors.len() + 1)];
    let mut start = 0usize;
    while start + 1 < stream.len() {
        let count = (stream.len() - start).min(W * 64);
        let seams: Vec<u64> = (0..W)
            .map(|_| rng.gen::<u64>() | rng.gen::<u64>() | rng.gen::<u64>())
            .collect();
        let kept = |t: usize| (seams[t / 64] >> (t % 64)) & 1 == 1;
        engine.set_window_keep_mask(&seams);
        engine.load_window(&pack(&stream[start..start + count], W), count);
        let mut on_threshold = 0.0f64;
        for t in (0..count - 1).filter(|&t| kept(t)) {
            engine.select_transition(t);
            for &net in keep {
                let s = engine.settle_of(NetId::from_index(net as usize));
                if s <= clk {
                    on_threshold = on_threshold.max(s);
                }
            }
        }
        let mut levels = factors.to_vec();
        if on_threshold > 0.0 {
            levels.push(clk / on_threshold);
        }
        let before = engine.f64_resweeps();
        engine.window_masks(clk, &levels, &mut masks);
        if let (Some(before), Some(after), true) =
            (before, engine.f64_resweeps(), on_threshold > 0.0)
        {
            prop_assert!(
                after > before,
                "W={} window at {}: a threshold on settle time {} was certified",
                W,
                start,
                on_threshold
            );
        }
        for t in 0..count - 1 {
            let row = &masks[t * levels.len()..(t + 1) * levels.len()];
            if !kept(t) {
                prop_assert!(row.iter().all(|&m| m == 0), "W={} seam {} erred", W, t);
                continue;
            }
            engine.select_transition(t);
            for (&k, &mask) in levels.iter().zip(row) {
                let want = keep
                    .iter()
                    .enumerate()
                    .filter(|&(_, &net)| {
                        engine.settle_of(NetId::from_index(net as usize)).min(clk) * k > clk
                    })
                    .fold(0u64, |m, (j, _)| m | 1 << j);
                prop_assert_eq!(mask, want, "W={} t={} factor {}", W, t, k);
                if k <= 1.0 {
                    prop_assert_eq!(mask, 0, "factor {} cannot err", k);
                }
            }
        }
        start += count - 1;
    }
    Ok(())
}

/// Compare one selected transition of a table kernel against the
/// `ArrivalSim` reference: the snapshot, and point queries on every net
/// (settle times only where the plan keeps them exposed).
fn assert_engine_matches(
    engine: &dyn ArrivalEngine,
    reference: &TwoVectorResult,
    full: bool,
) -> Result<(), TestCaseError> {
    let mut snap = TwoVectorResult::default();
    engine.snapshot_into(&mut snap);
    if full {
        assert_same(reference, &snap)?;
    }
    for net in 0..reference.cur.len() {
        let id = NetId::from_index(net);
        prop_assert_eq!(engine.cur(id), reference.cur[net], "cur net {}", net);
        prop_assert_eq!(engine.prev(id), reference.prev[net], "prev net {}", net);
        prop_assert_eq!(
            engine.changed(id),
            reference.cur[net] != reference.prev[net],
            "changed net {}",
            net
        );
        prop_assert!(
            !full || engine.settle_exposed(id),
            "full plan hides net {}",
            net
        );
        if engine.settle_exposed(id) {
            prop_assert_eq!(
                engine.settle_of(id).to_bits(),
                reference.settle[net].to_bits(),
                "settle net {}: kernel {} vs sim {}",
                net,
                engine.settle_of(id),
                reference.settle[net]
            );
        }
    }
    Ok(())
}

/// The compacted plan the shipped units run on, keeping an arbitrary
/// subset (every third net plus the sink) exposed.
fn compacted_keep(c: &CompiledNetlist) -> Vec<u32> {
    (0..c.len() as u32)
        .filter(|&i| i % 3 == 0 || i as usize == c.len() - 1)
        .collect()
}

/// Drive `stream` through windows of at most `window` vectors (capped
/// at `W * 64`) of the table kernel over a full and a compacted plan at
/// width `W`, and pin each transition to the `ArrivalSim` reference.
fn engine_matrix_matches<const W: usize>(
    nl: &Netlist,
    c: &CompiledNetlist,
    stream: &[Vec<bool>],
    window: usize,
) -> Result<(), TestCaseError> {
    let keep = compacted_keep(c);
    let full_program = DynProgram::new(c);
    let compact_program = DynProgram::compacted(c, &keep);
    let mut full = SpecializedKernel::<W>::new(&full_program);
    let mut compact = SpecializedKernel::<W>::new(&compact_program);
    prop_assert_eq!(full.lanes(), W);
    let mut start = 0usize;
    while start + 1 < stream.len() {
        let count = (stream.len() - start).min(window).min(W * 64);
        let lanes = pack(&stream[start..start + count], W);
        full.load_window(&lanes, count);
        compact.load_window(&lanes, count);
        prop_assert_eq!(full.window_transitions(), count - 1);
        for t in 0..count - 1 {
            full.select_transition(t);
            compact.select_transition(t);
            let reference = ArrivalSim::run(nl, &stream[start + t], &stream[start + t + 1]);
            assert_engine_matches(&full, &reference, true)?;
            assert_engine_matches(&compact, &reference, false)?;
            for &k in &keep {
                prop_assert!(
                    compact.settle_exposed(NetId::from_index(k as usize)),
                    "kept net {} must stay exposed",
                    k
                );
            }
        }
        start += count - 1;
    }
    Ok(())
}

/// Partial windows at every count on and around the lane word
/// boundaries (the `>> 1` diff borrow across words, the valid-transition
/// mask, the word-major toggle transpose) must stay exact at every lane
/// width, over full and compacted plans.
#[test]
fn word_boundary_window_counts_match_sim() {
    let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
    let a = nl.add_input_bus("a", 6);
    let b = nl.add_input_bus("b", 6);
    let zero = nl.const_bit(false);
    let (sum, _) = nl.ripple_add(&a, &b, zero);
    nl.mark_output_bus("sum", &sum);
    let c = CompiledNetlist::compile(&nl);
    let mut x = 0xabcd_ef01u64;
    let vectors: Vec<Vec<bool>> = (0..512)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (0..12).map(|i| (x >> (i + 20)) & 1 == 1).collect()
        })
        .collect();
    let keep: Vec<u32> = sum.iter().map(|n| n.index() as u32).collect();
    let programs = [DynProgram::new(&c), DynProgram::compacted(&c, &keep)];
    for program in &programs {
        word_boundary_counts::<1>(&nl, program, &vectors);
        word_boundary_counts::<4>(&nl, program, &vectors);
        word_boundary_counts::<8>(&nl, program, &vectors);
    }
}

fn word_boundary_counts<const W: usize>(nl: &Netlist, program: &DynProgram, vectors: &[Vec<bool>]) {
    const COUNTS: [usize; 14] = [
        2, 63, 64, 65, 127, 128, 129, 192, 193, 255, 256, 257, 511, 512,
    ];
    let mut k = SpecializedKernel::<W>::new(program);
    for count in COUNTS.into_iter().filter(|&n| n <= W * 64) {
        k.load_window(&pack(&vectors[..count], W), count);
        for t in 0..count - 1 {
            k.select_transition(t);
            let reference = ArrivalSim::run(nl, &vectors[t], &vectors[t + 1]);
            for net in 0..nl.len() {
                let id = NetId::from_index(net);
                assert_eq!(
                    k.cur(id),
                    reference.cur[net],
                    "W={W} count {count} cur[{net}] at {t}"
                );
                assert_eq!(
                    k.prev(id),
                    reference.prev[net],
                    "W={W} count {count} prev[{net}] at {t}"
                );
                if k.settle_exposed(id) {
                    assert_eq!(
                        k.settle_of(id).to_bits(),
                        reference.settle[net].to_bits(),
                        "W={W} count {count} settle[{net}] at {t}"
                    );
                }
            }
        }
    }
}
