//! The dynamic-timing-analysis driver of the model development phase.

use crate::derating::{DeratingModel, OperatingPoint};
use crate::event::{EventSim, FanoutTable};
use crate::oracle::{SafeBitSet, SlackOracle};
use crate::sim::{ArrivalSim, TwoVectorResult};
use serde::{Deserialize, Serialize};
use tei_netlist::{NetId, Netlist};

/// Which timed simulation engine a [`DtaEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingEngine {
    /// Fast two-vector arrival propagation (glitch-free approximation).
    Arrival,
    /// Exact event-driven simulation (reference).
    EventDriven,
}

/// Outcome of analyzing one consecutive operation pair at one operating
/// point: the golden output bits, the bits a register would actually latch,
/// and the per-bit error mask — the paper's Section III.A.1 XOR comparison
/// of the nominal and reduced-voltage simulations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DtaOutcome {
    /// Golden (fully settled) values of the output nets, in
    /// [`Netlist::output_nets`] order.
    pub golden: Vec<bool>,
    /// Latched values at the capturing clock edge.
    pub latched: Vec<bool>,
    /// `golden XOR latched` — 1 marks a timing-corrupted bit.
    pub mask: Vec<bool>,
}

impl DtaOutcome {
    /// True if any output bit was corrupted.
    pub fn has_error(&self) -> bool {
        self.mask.iter().any(|&b| b)
    }

    /// Number of corrupted output bits.
    pub fn flipped_bits(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// The mask as a little-endian u64 (for output buses of ≤ 64 bits).
    ///
    /// # Panics
    ///
    /// Panics if the mask is wider than 64 bits.
    pub fn mask_u64(&self) -> u64 {
        assert!(self.mask.len() <= 64, "mask wider than u64");
        self.mask
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
    }
}

/// Dynamic timing analysis engine over one netlist.
///
/// Owns the netlist, its fanout table, and the derating model; exposes
/// per-operation-pair analysis at arbitrary operating points. Under a
/// uniform derating model the nominal settle times are computed once per
/// pair and re-thresholded for each corner (see DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct DtaEngine {
    netlist: Netlist,
    fanouts: FanoutTable,
    derating: DeratingModel,
    engine: TimingEngine,
    outputs: Vec<NetId>,
    /// Static per-net arrival bounds; lets the arrival path skip the
    /// latched-value computation for provably safe output bits.
    oracle: SlackOracle,
}

impl DtaEngine {
    /// Build an engine around `netlist`.
    pub fn new(netlist: Netlist, engine: TimingEngine, derating: DeratingModel) -> Self {
        let fanouts = FanoutTable::build(&netlist);
        let outputs = netlist.output_nets();
        let oracle = SlackOracle::analyze(&netlist);
        DtaEngine {
            netlist,
            fanouts,
            derating,
            engine,
            outputs,
            oracle,
        }
    }

    /// The static slack oracle built over the engine's netlist.
    pub fn oracle(&self) -> &SlackOracle {
        &self.oracle
    }

    /// Classify the output bits at `op` under the engine's derating
    /// model (uniform models only; see [`SlackOracle::safe_bits`]).
    pub fn safe_bits(&self, op: OperatingPoint) -> SafeBitSet {
        self.oracle.safe_bits(op, &self.derating)
    }

    /// The analyzed netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The output nets examined by [`DtaEngine::analyze`], in mask order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The derating model in use.
    pub fn derating(&self) -> &DeratingModel {
        &self.derating
    }

    /// Analyze one `prev → cur` input transition at operating point `op`.
    pub fn analyze(&self, prev: &[bool], cur: &[bool], op: OperatingPoint) -> DtaOutcome {
        let out = match self.engine {
            TimingEngine::Arrival => {
                let mut buf = TwoVectorResult::default();
                self.analyze_arrival_into(prev, cur, op, &mut buf)
            }
            TimingEngine::EventDriven => self.analyze_event(prev, cur, op),
        };
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_cross_check(prev, cur, op, &out);
        out
    }

    /// Sanitizer: run both engines on the same transition and check
    /// the invariants that hold between them and the static bounds.
    /// Golden (steady state) values must agree bit for bit, and no net
    /// may see an event later than its static bound × the derating
    /// factor: each event time is a path sum of derated gate delays.
    /// Settle times are not compared across engines: the arrival
    /// engine is glitch-free, so under transport delay it can settle a
    /// net earlier than the event engine's last (glitch) transition
    /// (the under-sensitization γ corrects for, DESIGN.md §γ). Latched
    /// values may differ for the same reason. Uniform derating only: a
    /// jitter model has no arrival-engine counterpart.
    #[cfg(feature = "sanitize-arrivals")]
    fn sanitize_cross_check(
        &self,
        prev: &[bool],
        cur: &[bool],
        op: OperatingPoint,
        out: &DtaOutcome,
    ) {
        if !self.derating.is_uniform() {
            return;
        }
        let factor = self.derating.factor_for(op.vdd, 0);
        let mut buf = TwoVectorResult::default();
        ArrivalSim::run_into(&self.netlist, prev, cur, &mut buf);
        let delays = EventSim::derated_delays(&self.netlist, factor);
        let ev = EventSim::run(&self.netlist, &self.fanouts, prev, cur, &delays, op.clk);
        for (bit, &n) in self.outputs.iter().enumerate() {
            let i = n.index();
            assert_eq!(
                buf.cur[i], ev.final_values[i],
                "sanitize-arrivals: engines disagree on golden bit {bit} (net n{i})"
            );
            assert_eq!(
                out.golden[bit], buf.cur[i],
                "sanitize-arrivals: reported golden bit {bit} (net n{i}) is not the steady state"
            );
        }
        for (i, (&t, &bound)) in ev
            .last_transition
            .iter()
            .zip(self.oracle.bounds())
            .enumerate()
        {
            assert!(
                t <= bound * factor + 1e-9,
                "sanitize-arrivals: event at {t} on net n{i} past its derated static bound {}",
                bound * factor
            );
        }
    }

    /// Arrival-engine analysis with a caller-provided buffer (hot loop API).
    pub fn analyze_arrival_into(
        &self,
        prev: &[bool],
        cur: &[bool],
        op: OperatingPoint,
        buf: &mut TwoVectorResult,
    ) -> DtaOutcome {
        ArrivalSim::run_into(&self.netlist, prev, cur, buf);
        // Uniform derating: settle times scale by one factor.
        let factor = self.derating.factor_for(op.vdd, 0);
        assert!(
            self.derating.is_uniform(),
            "the arrival engine requires a uniform derating model; \
             use TimingEngine::EventDriven for per-gate jitter"
        );
        self.outcome_from_arrival(buf, op.clk, factor)
    }

    /// Re-threshold an already-computed arrival result at another corner.
    /// Valid only for uniform derating (the default).
    ///
    /// Output bits the slack oracle proves safe at `(clk, factor)` skip
    /// the settle-time threshold: their latched value *is* the golden
    /// value (the derated worst-case arrival meets the clock edge, so
    /// the settle time — which the static bound dominates — cannot
    /// exceed it either). The pruned outcome is bit-identical to the
    /// unpruned one.
    pub fn outcome_from_arrival(&self, buf: &TwoVectorResult, clk: f64, factor: f64) -> DtaOutcome {
        let golden: Vec<bool> = self.outputs.iter().map(|n| buf.cur[n.index()]).collect();
        let latched: Vec<bool> = self
            .outputs
            .iter()
            .map(|&n| {
                if self.oracle.is_safe(n, clk, factor) {
                    let v = buf.cur[n.index()];
                    #[cfg(feature = "sanitize-arrivals")]
                    assert_eq!(
                        v,
                        buf.latched(n, clk, factor),
                        "sanitize-arrivals: statically-safe net n{} latched stale",
                        n.index()
                    );
                    v
                } else {
                    buf.latched(n, clk, factor)
                }
            })
            .collect();
        let mask = golden.iter().zip(&latched).map(|(g, l)| g != l).collect();
        DtaOutcome {
            golden,
            latched,
            mask,
        }
    }

    fn analyze_event(&self, prev: &[bool], cur: &[bool], op: OperatingPoint) -> DtaOutcome {
        let delays: Vec<f64> = self
            .netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| g.delay * self.derating.factor_for(op.vdd, i))
            .collect();
        let r = EventSim::run(&self.netlist, &self.fanouts, prev, cur, &delays, op.clk);
        let golden: Vec<bool> = self
            .outputs
            .iter()
            .map(|n| r.final_values[n.index()])
            .collect();
        let latched: Vec<bool> = self.outputs.iter().map(|n| r.latched[n.index()]).collect();
        let mask = golden.iter().zip(&latched).map(|(g, l)| g != l).collect();
        DtaOutcome {
            golden,
            latched,
            mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derating::AlphaPowerLaw;
    use tei_netlist::CellLibrary;

    fn chain_netlist(depth: usize) -> Netlist {
        let mut nl = Netlist::new("chain", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..depth {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        nl
    }

    #[test]
    fn no_error_at_relaxed_clock() {
        let eng = DtaEngine::new(
            chain_netlist(5),
            TimingEngine::Arrival,
            DeratingModel::default(),
        );
        let op = OperatingPoint {
            vdd: 1.1,
            clk: 10.0,
        };
        let out = eng.analyze(&[false], &[true], op);
        assert!(!out.has_error());
        assert_eq!(out.golden, out.latched);
    }

    #[test]
    fn undervolting_induces_error_then_engines_agree() {
        // Chain of depth 5 (5 ns nominal): meets a 6 ns clock nominally,
        // fails it at VR20 (5 × 1.52 ≈ 7.6 ns).
        let nl = chain_netlist(5);
        let op_lo = OperatingPoint {
            vdd: 0.88,
            clk: 6.0,
        };
        for engine in [TimingEngine::Arrival, TimingEngine::EventDriven] {
            let eng = DtaEngine::new(nl.clone(), engine, DeratingModel::default());
            let nominal = eng.analyze(&[false], &[true], OperatingPoint { vdd: 1.1, clk: 6.0 });
            assert!(!nominal.has_error(), "{engine:?} nominal");
            let low = eng.analyze(&[false], &[true], op_lo);
            assert!(low.has_error(), "{engine:?} undervolted");
            assert_eq!(low.flipped_bits(), 1);
            assert_eq!(low.mask_u64(), 1);
        }
    }

    #[test]
    fn rethresholding_matches_direct_analysis() {
        let eng = DtaEngine::new(
            chain_netlist(4),
            TimingEngine::Arrival,
            DeratingModel::default(),
        );
        let mut buf = TwoVectorResult::default();
        let op = OperatingPoint {
            vdd: 0.935,
            clk: 4.8,
        };
        let direct = eng.analyze_arrival_into(&[false], &[true], op, &mut buf);
        let k = AlphaPowerLaw::default().factor(0.935);
        let rethresh = eng.outcome_from_arrival(&buf, 4.8, k);
        assert_eq!(direct, rethresh);
    }

    /// Pruned outcomes (safe bits short-circuited through the oracle)
    /// must equal the unpruned per-bit threshold at every corner,
    /// including corners where some bits are safe and some are not.
    #[test]
    fn safe_bit_pruning_is_bit_identical() {
        let mut nl = Netlist::new("lop", CellLibrary::unit());
        let a = nl.add_input_bit();
        let shallow = nl.buf(a);
        let mut deep = a;
        for _ in 0..6 {
            deep = nl.not(deep);
        }
        nl.mark_output_bus("o", &[shallow, deep]);
        let eng = DtaEngine::new(nl, TimingEngine::Arrival, DeratingModel::default());
        let mut buf = TwoVectorResult::default();
        for &(vdd, clk) in &[(1.1, 10.0), (0.935, 4.0), (0.88, 6.0), (0.88, 2.0)] {
            let op = OperatingPoint { vdd, clk };
            let out = eng.analyze_arrival_into(&[false], &[true], op, &mut buf);
            let k = AlphaPowerLaw::default().factor(vdd);
            let set = eng.safe_bits(op);
            // Unpruned reference straight off the arrival buffer.
            for (bit, &n) in eng.outputs().iter().enumerate() {
                assert_eq!(
                    out.latched[bit],
                    buf.latched(n, clk, k),
                    "bit {bit} at vdd {vdd} clk {clk} (safe: {})",
                    set.is_safe(bit)
                );
            }
            // A bit the oracle calls safe must never carry an error.
            for (bit, &m) in out.mask.iter().enumerate() {
                assert!(!(set.is_safe(bit) && m), "safe bit {bit} flagged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "uniform derating")]
    fn arrival_engine_rejects_jitter_model() {
        let eng = DtaEngine::new(
            chain_netlist(3),
            TimingEngine::Arrival,
            DeratingModel::PerGateJitter {
                law: AlphaPowerLaw::default(),
                sigma: 0.05,
                seed: 1,
            },
        );
        eng.analyze(&[false], &[true], OperatingPoint { vdd: 1.0, clk: 5.0 });
    }

    #[test]
    fn event_engine_accepts_jitter_model() {
        let eng = DtaEngine::new(
            chain_netlist(3),
            TimingEngine::EventDriven,
            DeratingModel::PerGateJitter {
                law: AlphaPowerLaw::default(),
                sigma: 0.05,
                seed: 1,
            },
        );
        let out = eng.analyze(
            &[false],
            &[true],
            OperatingPoint {
                vdd: 1.1,
                clk: 50.0,
            },
        );
        assert!(!out.has_error());
    }
}
