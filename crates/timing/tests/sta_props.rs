//! Property-based tests of the STA invariants the static verification
//! layer builds on: the arrival recurrence, path enumeration order, and
//! the per-bit bounds' conservativity over the dynamic engines.
//!
//! The vendored proptest shim has no `prop_flat_map`, so random DAGs are
//! generated from a `u64` seed drawn by the strategy and expanded with a
//! seeded [`StdRng`] — fully deterministic per case.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_netlist::{CellLibrary, GateKind, NetId, Netlist};
use tei_timing::{ArrivalSim, CompiledNetlist, Sta};

/// Build a random topologically-ordered DAG: `n_inputs` primary inputs
/// followed by `n_gates` random gates whose pins reference earlier nets.
/// The last (up to) four nets become the output port.
fn random_dag(seed: u64, n_inputs: usize, n_gates: usize) -> Netlist {
    const KINDS: [GateKind; 10] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Maj3,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("dag", CellLibrary::unit());
    let mut nets = nl.add_input_bus("a", n_inputs);
    for _ in 0..n_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let pins: Vec<NetId> = (0..kind.arity())
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(nl.add_gate(kind, &pins));
    }
    let outs: Vec<NetId> = nets.iter().rev().take(4).rev().copied().collect();
    nl.mark_output_bus("y", &outs);
    nl
}

fn random_inputs(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen::<bool>()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arrival recurrence holds for every net: primary inputs arrive
    /// at 0, every gate at `max(fanin arrivals) + delay`.
    #[test]
    fn prop_arrival_recurrence(seed in any::<u64>(), ni in 2usize..6, ng in 1usize..40) {
        let nl = random_dag(seed, ni, ng);
        let sta = Sta::analyze(&nl);
        for (i, g) in nl.gates().iter().enumerate() {
            let expect = if g.kind == GateKind::Input {
                0.0
            } else {
                g.fanin()
                    .iter()
                    .map(|p| sta.arrival(*p))
                    .fold(0.0f64, f64::max)
                    + g.delay
            };
            prop_assert_eq!(sta.arrivals()[i], expect, "net {}", i);
        }
    }

    /// `worst_path_to` traces a real input→endpoint path whose summed
    /// gate delays equal the endpoint arrival exactly.
    #[test]
    fn prop_worst_path_realizes_arrival(seed in any::<u64>(), ni in 2usize..6, ng in 1usize..40) {
        let nl = random_dag(seed, ni, ng);
        let sta = Sta::analyze(&nl);
        for &endpoint in &nl.output_nets() {
            let path = sta.worst_path_to(&nl, endpoint);
            prop_assert_eq!(*path.last().expect("non-empty path"), endpoint);
            prop_assert!(nl.gate(path[0]).fanin().is_empty(), "path must start at a source");
            let mut delay = 0.0;
            for pair in path.windows(2) {
                prop_assert!(
                    nl.gate(pair[1]).fanin().contains(&pair[0]),
                    "consecutive path nets must be connected"
                );
                delay += nl.gate(pair[1]).delay;
            }
            prop_assert_eq!(delay, sta.arrival(endpoint), "worst path must realize the arrival");
        }
    }

    /// `k_worst_paths_to` reports non-increasing delays, leads with the
    /// arrival time, recomputes each reported delay from the path, and
    /// saturates gracefully when `k` exceeds the path count.
    #[test]
    fn prop_k_worst_paths_sorted_and_exact(seed in any::<u64>(), ni in 2usize..5, ng in 1usize..20) {
        let nl = random_dag(seed, ni, ng);
        let sta = Sta::analyze(&nl);
        let endpoint = *nl.output_nets().last().expect("has outputs");
        // Far larger than the path count of these small DAGs can reach.
        let paths = sta.k_worst_paths_to(&nl, endpoint, 100_000);
        prop_assert!(!paths.is_empty());
        prop_assert_eq!(paths[0].0, sta.arrival(endpoint), "first path is the critical one");
        for pair in paths.windows(2) {
            prop_assert!(pair[0].0 >= pair[1].0, "paths must come out longest-first");
        }
        for (delay, path) in &paths {
            let recomputed: f64 = path.windows(2).map(|p| nl.gate(p[1]).delay).sum();
            prop_assert!(
                (recomputed - delay).abs() < 1e-9,
                "reported delay {} != path delay {}",
                delay,
                recomputed
            );
        }
        // Asking for exactly as many paths must agree with the big ask.
        let exact = sta.k_worst_paths_to(&nl, endpoint, paths.len());
        prop_assert_eq!(exact.len(), paths.len());
    }

    /// The static per-bit bounds are conservative over the dynamic
    /// engine, and the compiled kernel's bounds equal the STA arrivals
    /// (the soundness assumption of the per-bit safe test
    /// `static_bound(net) * factor <= clk`).
    #[test]
    fn prop_static_bounds_dominate_dynamic_settles(seed in any::<u64>(), ni in 2usize..6, ng in 1usize..40) {
        let nl = random_dag(seed, ni, ng);
        let sta = Sta::analyze(&nl);
        let compiled = CompiledNetlist::compile(&nl);
        for (i, &bound) in compiled.static_bounds().iter().enumerate() {
            prop_assert_eq!(bound, sta.arrivals()[i], "compiled bound {} != STA arrival", i);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..8 {
            let prev = random_inputs(&mut rng, ni);
            let cur = random_inputs(&mut rng, ni);
            let res = ArrivalSim::run(&nl, &prev, &cur);
            for (i, &settle) in res.settle.iter().enumerate() {
                prop_assert!(
                    settle <= sta.arrivals()[i] + 1e-12,
                    "net {} settles at {} past its static bound {}",
                    i,
                    settle,
                    sta.arrivals()[i]
                );
            }
        }
    }
}
