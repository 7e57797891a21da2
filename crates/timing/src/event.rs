//! Exact event-driven timed simulation with transport delays.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tei_netlist::Netlist;

/// Precomputed fanout lists of a netlist (gate index → driven gate indices).
#[derive(Debug, Clone)]
pub struct FanoutTable {
    fanouts: Vec<Vec<u32>>,
}

impl FanoutTable {
    /// Build the fanout table of `nl`.
    pub fn build(nl: &Netlist) -> Self {
        let mut fanouts = vec![Vec::new(); nl.len()];
        for (i, g) in nl.gates().iter().enumerate() {
            for &pin in g.fanin() {
                fanouts[pin.index()].push(i as u32);
            }
        }
        FanoutTable { fanouts }
    }

    /// Gates driven by net `net_index`.
    #[inline]
    pub fn of(&self, net_index: usize) -> &[u32] {
        &self.fanouts[net_index]
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    gate: u32,
    value: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, breaking ties
        // by scheduling order so later-computed values win at equal times.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Result of an event-driven simulation of one input transition.
#[derive(Debug, Clone)]
pub struct EventSimResult {
    /// Final steady-state value per net (the golden result).
    pub final_values: Vec<bool>,
    /// Value per net at the capturing clock edge (what a register latches).
    pub latched: Vec<bool>,
    /// Last transition time per net (0 for nets that never toggled).
    pub last_transition: Vec<f64>,
    /// Total number of value-change events processed (waveform activity;
    /// also the input to dynamic-power estimation).
    pub events: u64,
}

impl EventSimResult {
    /// Whether net `i` latches a value that differs from its final value.
    #[inline]
    pub fn is_error(&self, i: usize) -> bool {
        self.latched[i] != self.final_values[i]
    }
}

/// Exact event-driven timed gate-level simulator.
///
/// Models transport delays per gate, so reconvergent fanout produces real
/// glitch trains; the value captured at the clock edge is read off the
/// simulated waveform. This is the reference dynamic-timing engine; the
/// fast [`ArrivalSim`](crate::ArrivalSim) is validated against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventSim;

impl EventSim {
    /// Simulate the transition `prev_inputs → cur_inputs` with per-gate
    /// effective `delays` (nominal delay × derating factor) and capture the
    /// latched state at time `clk`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the netlist.
    pub fn run(
        nl: &Netlist,
        fanouts: &FanoutTable,
        prev_inputs: &[bool],
        cur_inputs: &[bool],
        delays: &[f64],
        clk: f64,
    ) -> EventSimResult {
        assert_eq!(prev_inputs.len(), nl.inputs().len(), "prev input width");
        assert_eq!(cur_inputs.len(), nl.inputs().len(), "cur input width");
        assert_eq!(delays.len(), nl.len(), "per-gate delay table width");

        // Steady state under the previous vector.
        let mut values = nl.eval(prev_inputs);
        let mut last_transition = vec![0.0f64; nl.len()];
        let mut latched: Option<Vec<bool>> = None;
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut events = 0u64;

        let eval_gate = |g: &tei_netlist::Gate, values: &[bool]| -> bool {
            g.kind.eval(
                values[g.pins[0].index()],
                values[g.pins[1].index()],
                values[g.pins[2].index()],
            )
        };

        // Apply the input transition at t = 0.
        let input_nets: Vec<usize> = nl.inputs().iter().map(|n| n.index()).collect();
        for (slot, &net) in input_nets.iter().enumerate() {
            if prev_inputs[slot] != cur_inputs[slot] {
                values[net] = cur_inputs[slot];
                last_transition[net] = 0.0;
                events += 1;
                for &f in fanouts.of(net) {
                    let g = &nl.gates()[f as usize];
                    let v = eval_gate(g, &values);
                    // Transport-delay semantics: the output waveform is the
                    // delayed function of the input waveforms, so always
                    // schedule; no-op transitions are discarded at fire time.
                    heap.push(Event {
                        time: delays[f as usize],
                        seq,
                        gate: f,
                        value: v,
                    });
                    seq += 1;
                }
            }
        }

        while let Some(ev) = heap.pop() {
            if ev.time > clk && latched.is_none() {
                latched = Some(values.clone());
            }
            let gi = ev.gate as usize;
            if values[gi] == ev.value {
                continue;
            }
            values[gi] = ev.value;
            last_transition[gi] = ev.time;
            events += 1;
            for &f in fanouts.of(gi) {
                let g = &nl.gates()[f as usize];
                let v = eval_gate(g, &values);
                heap.push(Event {
                    time: ev.time + delays[f as usize],
                    seq,
                    gate: f,
                    value: v,
                });
                seq += 1;
            }
        }

        let latched = latched.unwrap_or_else(|| values.clone());
        // Sanitizer: every event time is a sum of path delays from the
        // `delays` table, so the last transition of a net cannot exceed
        // the static worst-case arrival computed over the same table.
        #[cfg(feature = "sanitize-arrivals")]
        {
            let mut bound = vec![0.0f64; nl.len()];
            for (i, g) in nl.gates().iter().enumerate() {
                if g.kind == tei_netlist::GateKind::Input {
                    continue;
                }
                let worst = g
                    .fanin()
                    .iter()
                    .map(|p| bound[p.index()])
                    .fold(0.0f64, f64::max);
                bound[i] = worst + delays[i];
            }
            for i in 0..nl.len() {
                assert!(
                    last_transition[i] <= bound[i] + 1e-9,
                    "sanitize-arrivals: net n{i} last toggled at {} past its static bound {}",
                    last_transition[i],
                    bound[i]
                );
            }
        }
        EventSimResult {
            final_values: values,
            latched,
            last_transition,
            events,
        }
    }

    /// Effective per-gate delay table at a uniform derating `factor`.
    pub fn derated_delays(nl: &Netlist, factor: f64) -> Vec<f64> {
        nl.gates().iter().map(|g| g.delay * factor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ArrivalSim;
    use tei_netlist::CellLibrary;

    fn nominal(nl: &Netlist) -> Vec<f64> {
        EventSim::derated_delays(nl, 1.0)
    }

    #[test]
    fn final_values_match_functional_eval() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 4);
        let b = nl.add_input_bus("b", 4);
        let zero = nl.const_bit(false);
        let (sum, _) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        let fo = FanoutTable::build(&nl);
        let prev: Vec<bool> = vec![false; 8];
        let cur: Vec<bool> = [true, true, false, false, true, false, true, false].to_vec();
        let r = EventSim::run(&nl, &fo, &prev, &cur, &nominal(&nl), 1e9);
        assert_eq!(r.final_values, nl.eval(&cur));
        assert_eq!(r.latched, r.final_values, "huge clk latches final values");
    }

    #[test]
    fn late_clock_edge_sees_stale_value() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..6 {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        let fo = FanoutTable::build(&nl);
        let r = EventSim::run(&nl, &fo, &[false], &[true], &nominal(&nl), 3.5);
        // Chain settles at t=6 > clk=3.5 → latched value is stale.
        assert!(r.is_error(cur.index()));
        let r2 = EventSim::run(&nl, &fo, &[false], &[true], &nominal(&nl), 6.0);
        assert!(!r2.is_error(cur.index()));
    }

    #[test]
    fn glitch_from_reconvergent_fanout_is_observed() {
        // XOR(a, delayed(a)): a static-0 function that glitches high.
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let d1 = nl.buf(a);
        let d2 = nl.buf(d1);
        let x = nl.add_gate(GateKind::Xor2, &[a, d2]);
        nl.mark_output_bus("x", &[x]);
        let fo = FanoutTable::build(&nl);
        // a: 0→1. x is 0 before and after, but pulses 1 during (1,3].
        let r = EventSim::run(&nl, &fo, &[false], &[true], &nominal(&nl), 2.0);
        assert!(!r.final_values[x.index()], "statically 0");
        assert!(r.latched[x.index()], "clk lands inside the glitch");
        assert!(r.is_error(x.index()));
        // The arrival engine cannot see this glitch (documented limitation).
        let ar = ArrivalSim::run(&nl, &[false], &[true]);
        assert!(!ar.is_error(x, 2.0, 1.0));
    }

    #[test]
    fn derating_slows_settle_proportionally() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..5 {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        let fo = FanoutTable::build(&nl);
        let r1 = EventSim::run(&nl, &fo, &[false], &[true], &nominal(&nl), 1e9);
        let d2 = EventSim::derated_delays(&nl, 1.5);
        let r2 = EventSim::run(&nl, &fo, &[false], &[true], &d2, 1e9);
        let t1 = r1.last_transition[cur.index()];
        let t2 = r2.last_transition[cur.index()];
        assert!((t2 - 1.5 * t1).abs() < 1e-9, "t1={t1} t2={t2}");
    }

    #[test]
    fn agrees_with_arrival_sim_on_glitch_free_chain() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 6);
        let b = nl.add_input_bus("b", 6);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);
        let fo = FanoutTable::build(&nl);
        let prev = vec![false; 12];
        let cur: Vec<bool> = (0..12).map(|i| i < 6).collect(); // 63 + 0
        let ev = EventSim::run(&nl, &fo, &prev, &cur, &nominal(&nl), 1e9);
        let ar = ArrivalSim::run(&nl, &prev, &cur);
        for net in nl.output_nets() {
            let i = net.index();
            assert_eq!(ev.final_values[i], ar.cur[i]);
            // The arrival engine is conservative on settle times.
            assert!(ar.settle[i] >= ev.last_transition[i] - 1e-9);
        }
    }

    /// A depth-5 inverter chain (5 ns nominal) meets a 6 ns clock at the
    /// nominal corner and fails it at VR20 (5 × 1.52 ≈ 7.6 ns): both
    /// engines latch the stale value on the one output bit.
    #[test]
    fn undervolting_induces_one_bit_error_in_both_engines() {
        use crate::VoltageReduction;
        let mut nl = Netlist::new("chain", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..5 {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        let fo = FanoutTable::build(&nl);
        let ar = ArrivalSim::run(&nl, &[false], &[true]);
        let clk = 6.0;
        for (vr, erred) in [
            (VoltageReduction::Nominal, false),
            (VoltageReduction::VR20, true),
        ] {
            let k = vr.derating_factor();
            let ev = EventSim::run(
                &nl,
                &fo,
                &[false],
                &[true],
                &EventSim::derated_delays(&nl, k),
                clk,
            );
            assert_eq!(
                ev.is_error(cur.index()),
                erred,
                "event engine at {}",
                vr.label()
            );
            assert_eq!(
                ar.is_error(cur, clk, k),
                erred,
                "arrival engine at {}",
                vr.label()
            );
            assert_eq!(ev.final_values[cur.index()], ar.cur[cur.index()]);
        }
    }

    use tei_netlist::GateKind;
}
