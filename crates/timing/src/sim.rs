//! Fast two-vector dynamic timing simulation (arrival-time propagation).

use tei_netlist::{GateKind, NetId, Netlist};

/// Result of a two-vector timed simulation: steady-state values before and
/// after the input transition, and the per-net settle time.
///
/// `settle[net]` is the time (ns, at the nominal corner) at which the net
/// reaches its final value, under the glitch-free transition-propagation
/// approximation: a net that does not change value settles at t = 0; a net
/// that changes settles one gate delay after the latest-settling *changed*
/// fanin. Reconvergent glitches are not modeled — use
/// [`EventSim`](crate::EventSim) for the exact waveform; the `engine_ablation`
/// bench quantifies the difference.
#[derive(Debug, Clone, Default)]
pub struct TwoVectorResult {
    /// Steady-state value of every net under the previous input vector.
    pub prev: Vec<bool>,
    /// Steady-state value of every net under the current input vector.
    pub cur: Vec<bool>,
    /// Per-net settle time at the nominal corner (0 for unchanged nets).
    pub settle: Vec<f64>,
}

impl TwoVectorResult {
    /// Latched value of `net` when the capturing edge arrives at `clk`
    /// with every delay inflated by `factor`: the old value if the net has
    /// not settled, otherwise the new value.
    #[inline]
    pub fn latched(&self, net: NetId, clk: f64, factor: f64) -> bool {
        if self.settle[net.index()] * factor > clk {
            self.prev[net.index()]
        } else {
            self.cur[net.index()]
        }
    }

    /// Whether `net` latches an incorrect value at `clk` under `factor`.
    #[inline]
    pub fn is_error(&self, net: NetId, clk: f64, factor: f64) -> bool {
        self.latched(net, clk, factor) != self.cur[net.index()]
    }

    /// The latest settle time over a set of nets (e.g. an output bus).
    pub fn max_settle(&self, nets: &[NetId]) -> f64 {
        nets.iter()
            .map(|n| self.settle[n.index()])
            .fold(0.0, f64::max)
    }
}

/// Two-vector arrival-time simulator.
///
/// This is the fast engine used for the million-operand dynamic timing
/// analysis campaigns of the model development phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrivalSim;

impl ArrivalSim {
    /// Simulate the transition `prev_inputs → cur_inputs` on `nl`.
    ///
    /// # Panics
    ///
    /// Panics if an input slice length differs from the netlist input count.
    pub fn run(nl: &Netlist, prev_inputs: &[bool], cur_inputs: &[bool]) -> TwoVectorResult {
        let mut out = TwoVectorResult::default();
        Self::run_into(nl, prev_inputs, cur_inputs, &mut out);
        out
    }

    /// Like [`ArrivalSim::run`] but reusing the buffers of `out`, for
    /// allocation-free inner loops.
    pub fn run_into(
        nl: &Netlist,
        prev_inputs: &[bool],
        cur_inputs: &[bool],
        out: &mut TwoVectorResult,
    ) {
        let n = nl.len();
        assert_eq!(prev_inputs.len(), nl.inputs().len(), "prev input width");
        assert_eq!(cur_inputs.len(), nl.inputs().len(), "cur input width");
        out.prev.clear();
        out.prev.resize(n, false);
        out.cur.clear();
        out.cur.resize(n, false);
        out.settle.clear();
        out.settle.resize(n, 0.0);

        // Sanitizer: each net's static arrival bound, folded in the same
        // topological pass (STA's recurrence: the max of the fanin bounds
        // plus the gate delay, inputs and constants at 0; `sta_props`
        // pins it to `Sta::arrivals`). Dynamic settle times fold a max
        // over *changed* fanins, a subset of the fanins the bound folds
        // over, so every settle time must respect the bound.
        #[cfg(feature = "sanitize-arrivals")]
        let mut bound = vec![0.0f64; n];
        let mut next_input = 0usize;
        for (i, g) in nl.gates().iter().enumerate() {
            match g.kind {
                GateKind::Input => {
                    out.prev[i] = prev_inputs[next_input];
                    out.cur[i] = cur_inputs[next_input];
                    next_input += 1;
                    // Inputs transition at t = 0.
                }
                kind => {
                    let p = g.pins;
                    let (a0, b0, c0) = (
                        out.prev[p[0].index()],
                        out.prev[p[1].index()],
                        out.prev[p[2].index()],
                    );
                    let (a1, b1, c1) = (
                        out.cur[p[0].index()],
                        out.cur[p[1].index()],
                        out.cur[p[2].index()],
                    );
                    out.prev[i] = kind.eval(a0, b0, c0);
                    out.cur[i] = kind.eval(a1, b1, c1);
                    if out.prev[i] != out.cur[i] {
                        // Latest-settling changed fanin triggers the change.
                        let mut latest = 0.0f64;
                        for &pin in g.fanin() {
                            let j = pin.index();
                            if out.prev[j] != out.cur[j] {
                                latest = latest.max(out.settle[j]);
                            }
                        }
                        out.settle[i] = latest + g.delay;
                    }
                    #[cfg(feature = "sanitize-arrivals")]
                    {
                        let worst = g
                            .fanin()
                            .iter()
                            .map(|p| bound[p.index()])
                            .fold(0.0f64, f64::max);
                        bound[i] = worst + g.delay;
                        assert!(
                            out.settle[i] <= bound[i] + 1e-9,
                            "sanitize-arrivals: net n{i} settled at {} past its static bound {}",
                            out.settle[i],
                            bound[i]
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_netlist::CellLibrary;

    #[test]
    fn unchanged_nets_settle_immediately() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let x = nl.and(a, b);
        nl.mark_output_bus("x", &[x]);
        // a: 0→1 but b stays 0, so x stays 0.
        let r = ArrivalSim::run(&nl, &[false, false], &[true, false]);
        assert_eq!(r.settle[x.index()], 0.0);
        assert!(!r.is_error(x, 0.1, 1.0));
    }

    #[test]
    fn settle_accumulates_through_chain() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..4 {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        let r = ArrivalSim::run(&nl, &[false], &[true]);
        assert!((r.settle[cur.index()] - 4.0).abs() < 1e-12);
        // At clk = 3 the chain has not settled: latched value is stale.
        assert!(r.is_error(cur, 3.0, 1.0));
        assert!(!r.is_error(cur, 4.0, 1.0));
        // Derating pushes the same transition past a previously-safe clock.
        assert!(r.is_error(cur, 4.5, 1.2));
    }

    #[test]
    fn carry_chain_settle_is_data_dependent() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);

        let vec_of = |x: u64, y: u64| -> Vec<bool> {
            (0..8)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..8).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        // 0+0 → 255+1: full carry propagation, slow settle at cout.
        let slow = ArrivalSim::run(&nl, &vec_of(0, 0), &vec_of(255, 1));
        // 0+0 → 1+0: carry dies immediately.
        let fast = ArrivalSim::run(&nl, &vec_of(0, 0), &vec_of(1, 0));
        assert!(
            slow.max_settle(&[cout]) > fast.max_settle(&sum),
            "long carry {} should settle later than short {}",
            slow.max_settle(&[cout]),
            fast.max_settle(&sum)
        );
    }

    #[test]
    fn latched_error_matches_stale_value() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let r = ArrivalSim::run(&nl, &[false], &[true]);
        // Settles at t=1. At clk=0.5 the latch captures the stale 'true'.
        assert!(r.latched(x, 0.5, 1.0));
        assert!(!r.latched(x, 1.0, 1.0));
    }

    #[test]
    fn run_into_reuses_buffers() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let mut buf = TwoVectorResult::default();
        ArrivalSim::run_into(&nl, &[false], &[true], &mut buf);
        assert!((buf.settle[x.index()] - 1.0).abs() < 1e-12);
        ArrivalSim::run_into(&nl, &[true], &[true], &mut buf);
        assert_eq!(buf.settle[x.index()], 0.0);
    }
}
