//! Property-based equivalence of the compiled [`ArrivalKernel`] against
//! the reference [`ArrivalSim`]: identical steady-state values and
//! bit-identical settle times on random DAGs, both for isolated
//! two-vector runs and for chained `advance` streams (the DTA campaign
//! access pattern, where each pair reuses the previous circuit state).
//!
//! The final property widens this into the 3-way engine matrix: the
//! interpreted engine and the table-driven runtime (a
//! [`SpecializedKernel`] over [`DynProgram`], the pipeline every
//! shipped unit's DTA runs) against `ArrivalSim`, at every supported
//! lane width.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_netlist::{CellLibrary, GateKind, NetId, Netlist};
use tei_timing::{
    ArrivalEngine, ArrivalKernel, ArrivalSim, CompiledNetlist, DynProgram, InterpretedEngine,
    SpecializedKernel, TwoVectorResult,
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

    #[test]
    fn prop_window_transitions_match_sim(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..160,
        stream_len in 2usize..40,
        window in 2usize..9,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();

        let mut kernel = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        let mut start = 0usize;
        while start + 1 < stream.len() {
            let count = (stream.len() - start).min(window);
            let flat: Vec<bool> = stream[start..start + count]
                .iter()
                .flat_map(|v| v.iter().copied())
                .collect();
            kernel.load_window(&c, &flat, count);
            for t in 0..kernel.window_transitions() {
                kernel.select_transition(&c, t);
                kernel.snapshot_into(&mut snap);
                let reference = ArrivalSim::run(&nl, &stream[start + t], &stream[start + t + 1]);
                assert_same(&reference, &snap)?;
            }
            start += count - 1;
        }
    }

    /// Multi-word lanes (W = 4 and W = 8) must match the reference
    /// simulator transition for transition, with window sizes chosen to
    /// land on, before, and past the 64-vector lane word boundaries.
    #[test]
    fn prop_multi_word_windows_match_sim(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..120,
        stream_len in 2usize..150,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(4));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();
        window_width_matches::<4>(&nl, &c, &stream)?;
        window_width_matches::<8>(&nl, &c, &stream)?;
    }

    /// 3-way engine matrix: at every lane width, the interpreted engine
    /// and the codegen runtime must both reproduce `ArrivalSim` — and
    /// each other — transition for transition: identical values, toggle
    /// flags, and bit-exact settle times on every net.
    #[test]
    fn prop_engine_matrix_matches_sim(
        seed in any::<u64>(),
        n_inputs in 1usize..10,
        n_gates in 1usize..120,
        stream_len in 2usize..150,
    ) {
        let nl = random_netlist(seed, n_inputs, n_gates);
        let c = CompiledNetlist::compile(&nl);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5));
        let stream: Vec<Vec<bool>> =
            (0..stream_len).map(|_| random_inputs(&mut rng, n_inputs)).collect();
        engine_matrix_matches::<1>(&nl, &c, &stream)?;
        engine_matrix_matches::<4>(&nl, &c, &stream)?;
        engine_matrix_matches::<8>(&nl, &c, &stream)?;
    }
}

/// Drive `stream` through maximal windows of both [`ArrivalEngine`]
/// implementations at width `W` and pin each transition to the
/// `ArrivalSim` reference (snapshot plus per-net point queries).
fn engine_matrix_matches<const W: usize>(
    nl: &Netlist,
    c: &CompiledNetlist,
    stream: &[Vec<bool>],
) -> Result<(), TestCaseError> {
    let n_inputs = stream[0].len();
    let mut interp = InterpretedEngine::<W>::new(c);
    let mut codegen = SpecializedKernel::<_, W>::new(DynProgram::new(c));
    // The liveness-compacted plan the emitter bakes into shipped
    // kernels, keeping an arbitrary subset (every third net plus the
    // sink) exposed.
    let keep: Vec<u32> = (0..c.len() as u32)
        .filter(|&i| i % 3 == 0 || i as usize == c.len() - 1)
        .collect();
    let mut compact = SpecializedKernel::<_, W>::new(DynProgram::compacted(c, &keep));
    prop_assert_eq!(interp.lanes(), W);
    prop_assert_eq!(codegen.lanes(), W);
    let mut snap_i = TwoVectorResult::default();
    let mut snap_c = TwoVectorResult::default();
    let mut start = 0usize;
    while start + 1 < stream.len() {
        let count = (stream.len() - start).min(W * 64);
        let flat: Vec<bool> = stream[start..start + count]
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        interp.load_window(&flat, count);
        codegen.load_window(&flat[..count * n_inputs], count);
        compact.load_window(&flat[..count * n_inputs], count);
        prop_assert_eq!(interp.window_transitions(), count - 1);
        prop_assert_eq!(codegen.window_transitions(), count - 1);
        for t in 0..count - 1 {
            interp.select_transition(t);
            codegen.select_transition(t);
            compact.select_transition(t);
            let reference = ArrivalSim::run(nl, &stream[start + t], &stream[start + t + 1]);
            interp.snapshot_into(&mut snap_i);
            codegen.snapshot_into(&mut snap_c);
            assert_same(&reference, &snap_i)?;
            assert_same(&reference, &snap_c)?;
            for net in 0..c.len() {
                let id = NetId::from_index(net);
                prop_assert_eq!(interp.cur(id), codegen.cur(id), "cur net {}", net);
                prop_assert_eq!(interp.prev(id), codegen.prev(id), "prev net {}", net);
                prop_assert_eq!(
                    interp.changed(id),
                    codegen.changed(id),
                    "changed net {}",
                    net
                );
                prop_assert_eq!(
                    interp.settle_of(id).to_bits(),
                    codegen.settle_of(id).to_bits(),
                    "settle net {}: interp {} vs codegen {}",
                    net,
                    interp.settle_of(id),
                    codegen.settle_of(id)
                );
                // Compacted plan: values and toggles on every net;
                // settle only where the plan kept the slot alive.
                prop_assert_eq!(interp.cur(id), compact.cur(id), "compact cur net {}", net);
                prop_assert_eq!(
                    interp.changed(id),
                    compact.changed(id),
                    "compact changed net {}",
                    net
                );
                if compact.settle_exposed(id) {
                    prop_assert_eq!(
                        interp.settle_of(id).to_bits(),
                        compact.settle_of(id).to_bits(),
                        "compact settle net {}: interp {} vs compact {}",
                        net,
                        interp.settle_of(id),
                        compact.settle_of(id)
                    );
                }
            }
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

/// Drive `stream` through maximal windows of an `ArrivalKernel<W>` and
/// compare every transition against `ArrivalSim`.
fn window_width_matches<const W: usize>(
    nl: &Netlist,
    c: &CompiledNetlist,
    stream: &[Vec<bool>],
) -> Result<(), TestCaseError> {
    let mut kernel = ArrivalKernel::<W>::default();
    let mut snap = TwoVectorResult::default();
    let mut start = 0usize;
    while start + 1 < stream.len() {
        let count = (stream.len() - start).min(ArrivalKernel::<W>::WINDOW_VECTORS);
        let flat: Vec<bool> = stream[start..start + count]
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        kernel.load_window(c, &flat, count);
        prop_assert_eq!(kernel.window_transitions(), count - 1);
        for t in 0..count - 1 {
            kernel.select_transition(c, t);
            kernel.snapshot_into(&mut snap);
            let reference = ArrivalSim::run(nl, &stream[start + t], &stream[start + t + 1]);
            assert_same(&reference, &snap)?;
        }
        start += count - 1;
    }
    Ok(())
}
