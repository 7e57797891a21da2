//! The runtime-dispatched arrival-engine surface.
//!
//! The DTA campaign loop drives the bit-sliced window protocol —
//! `load_window`, then `select_transition` per transition, then the
//! per-net accessors — without caring *how* the settle times are
//! computed. [`ArrivalEngine`] captures exactly that protocol as an
//! object-safe trait so the loop can pick between:
//!
//! * the interpreted [`ArrivalKernel`] over a [`CompiledNetlist`]
//!   ([`InterpretedEngine`]) — works for any netlist, including ones
//!   parsed or generated at runtime; and
//! * the table-driven [`SpecializedKernel`](crate::SpecializedKernel)
//!   over a slot-compacted [`DynProgram`](crate::DynProgram), built
//!   at runtime from the same compiled netlist (see
//!   [`codegen`](crate::codegen)).
//!
//! Both implementations are bit-identical for identical input streams
//! on every net the engine exposes (enforced by the `kernel_equiv`
//! proptests and `tei-fpu`'s per-unit equivalence suite), so engine
//! choice is a pure throughput knob. Compacted programs recycle settle
//! storage for internal nets (see [`codegen`](crate::codegen)); the
//! campaign only reads output-port settles, which every engine
//! exposes — check [`settle_exposed`](ArrivalEngine::settle_exposed)
//! before querying arbitrary internal nets on a specialized engine.

use crate::kernel::{ArrivalKernel, CompiledNetlist};
use crate::sim::TwoVectorResult;
use tei_netlist::NetId;

/// Object-safe window-mode arrival engine: the exact protocol the DTA
/// campaign inner loop drives, dispatchable over the interpreted and
/// the table-driven kernels. All engines are bit-identical; see the module
/// docs.
pub trait ArrivalEngine: Send {
    /// Short engine label for reports and benchmarks (`"interp"`,
    /// `"codegen"`).
    fn name(&self) -> &'static str;

    /// Lane words per net (`W`): the window holds `lanes() * 64`
    /// vectors.
    fn lanes(&self) -> usize;

    /// Input vectors per bit-sliced window.
    fn window_vectors(&self) -> usize {
        self.lanes() * 64
    }

    /// Keep only the given transitions of the next loaded window (bit
    /// `t` of `keep[t / 64]`; see
    /// [`ArrivalKernel::set_window_keep_mask`]). An optimization hint
    /// for sparsely-packed windows: masked-off transitions must not be
    /// selected, kept transitions settle bit-identically, and engines
    /// that ignore the hint stay correct.
    fn set_window_keep_mask(&mut self, keep: &[u64]) {
        let _ = keep;
    }

    /// Load a window of `count` concatenated input vectors and evaluate
    /// every steady state (see [`ArrivalKernel::load_window`]).
    fn load_window(&mut self, flat: &[bool], count: usize);

    /// Transitions available in the loaded window (`count - 1`).
    fn window_transitions(&self) -> usize;

    /// Focus the engine on window transition `t`; afterwards the
    /// accessors report that transition (see
    /// [`ArrivalKernel::select_transition`]).
    fn select_transition(&mut self, t: usize);

    /// Steady-state value of `net` under the current vector.
    fn cur(&self, net: NetId) -> bool;

    /// Steady-state value of `net` under the previous vector.
    fn prev(&self, net: NetId) -> bool;

    /// Whether `net` changed value in the selected transition.
    fn changed(&self, net: NetId) -> bool;

    /// Whether [`settle_of`](Self::settle_of) is valid for `net` on
    /// this engine. Full-fidelity engines expose every net; engines
    /// over slot-compacted programs expose at least their keep set
    /// (the unit's observable outputs).
    fn settle_exposed(&self, net: NetId) -> bool {
        let _ = net;
        true
    }

    /// Settle time of `net` for the selected transition (0 if
    /// unchanged). Only valid for exposed nets (see
    /// [`settle_exposed`](Self::settle_exposed)); specialized engines
    /// panic on recycled nets rather than return stale storage.
    fn settle_of(&self, net: NetId) -> f64;

    /// Latched value of `net` at clock `clk` with delays inflated by
    /// `factor` (Razor-style: late-settling nets keep the old value).
    fn latched(&self, net: NetId, clk: f64, factor: f64) -> bool {
        if self.settle_of(net) * factor > clk {
            self.prev(net)
        } else {
            self.cur(net)
        }
    }

    /// Whether `net` latches an incorrect value at `clk` under `factor`.
    fn is_error(&self, net: NetId, clk: f64, factor: f64) -> bool {
        self.latched(net, clk, factor) != self.cur(net)
    }

    /// Latest settle time over a set of nets (e.g. an output bus).
    fn max_settle(&self, nets: &[NetId]) -> f64 {
        nets.iter().map(|&n| self.settle_of(n)).fold(0.0, f64::max)
    }

    /// Dump the selected transition into `out`, matching
    /// [`ArrivalSim::run_into`](crate::ArrivalSim::run_into) for that
    /// pair.
    fn snapshot_into(&self, out: &mut TwoVectorResult);
}

/// The interpreted [`ArrivalKernel`] behind the [`ArrivalEngine`]
/// surface: works for any [`CompiledNetlist`], exposes every net's
/// settle time, and is the reference the table-driven kernel is
/// checked against.
pub struct InterpretedEngine<'c, const W: usize> {
    compiled: &'c CompiledNetlist,
    kernel: ArrivalKernel<W>,
}

impl<'c, const W: usize> InterpretedEngine<'c, W> {
    /// An engine over `compiled` with empty scratch (buffers size
    /// themselves on the first `load_window`).
    pub fn new(compiled: &'c CompiledNetlist) -> Self {
        InterpretedEngine {
            compiled,
            kernel: ArrivalKernel::default(),
        }
    }
}

impl<const W: usize> ArrivalEngine for InterpretedEngine<'_, W> {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn lanes(&self) -> usize {
        W
    }

    fn set_window_keep_mask(&mut self, keep: &[u64]) {
        self.kernel.set_window_keep_mask(keep);
    }

    fn load_window(&mut self, flat: &[bool], count: usize) {
        self.kernel.load_window(self.compiled, flat, count);
    }

    fn window_transitions(&self) -> usize {
        self.kernel.window_transitions()
    }

    fn select_transition(&mut self, t: usize) {
        self.kernel.select_transition(self.compiled, t);
    }

    fn cur(&self, net: NetId) -> bool {
        self.kernel.cur(net)
    }

    fn prev(&self, net: NetId) -> bool {
        self.kernel.prev(net)
    }

    fn changed(&self, net: NetId) -> bool {
        self.kernel.changed(net)
    }

    fn settle_of(&self, net: NetId) -> f64 {
        self.kernel.settle_of(net)
    }

    fn snapshot_into(&self, out: &mut TwoVectorResult) {
        self.kernel.snapshot_into(out);
    }
}

/// Boxed interpreted engine over `compiled` at the requested lane width,
/// or `None` for an unsupported width (supported: 1, 4, 8).
pub fn interpreted_engine(
    compiled: &CompiledNetlist,
    lanes: usize,
) -> Option<Box<dyn ArrivalEngine + '_>> {
    match lanes {
        1 => Some(Box::new(InterpretedEngine::<1>::new(compiled))),
        4 => Some(Box::new(InterpretedEngine::<4>::new(compiled))),
        8 => Some(Box::new(InterpretedEngine::<8>::new(compiled))),
        _ => None,
    }
}
