//! The window protocol of the DTA campaign loop: window in, masks out.
//!
//! The campaign packs a window of operand vectors into input lanes
//! (`FpuUnit::pack_lanes` in `tei-fpu`), loads it with
//! [`load_window`](ArrivalEngine::load_window) and gets back, from one
//! [`window_masks`](ArrivalEngine::window_masks) call, every
//! transition's error mask at every voltage level. It never reads a
//! settle time itself. [`ArrivalEngine`] captures that protocol as an
//! object-safe trait. Its one implementation is the table-driven
//! [`SpecializedKernel`](crate::SpecializedKernel) over a
//! [`DynProgram`](crate::DynProgram); the trait exists so the lane
//! width (`W` = 1, 4 or 8, a const parameter of the kernel) can be
//! picked at runtime behind one type. Statistics are bit-identical at
//! every width.
//!
//! The per-transition view —
//! [`select_transition`](ArrivalEngine::select_transition), then the
//! per-net accessors — stays for callers that need raw settle times
//! (γ calibration in `tei-fpu`, the surrogate fit) and for the
//! equivalence suites, which pin it to the per-pair
//! [`ArrivalKernel`](crate::ArrivalKernel), the test oracle, and the
//! window masks to it. Compacted programs recycle settle storage for
//! internal nets (see [`codegen`](crate::codegen)); every program keeps
//! its keep set exposed — check
//! [`settle_exposed`](ArrivalEngine::settle_exposed) before querying
//! arbitrary internal nets.

use crate::sim::TwoVectorResult;
use tei_netlist::NetId;

/// Object-safe window-mode arrival engine: the exact protocol the DTA
/// campaign inner loop drives, with the lane width erased.
pub trait ArrivalEngine: Send {
    /// Lane words per net (`W`): the window holds `lanes() * 64`
    /// vectors.
    fn lanes(&self) -> usize;

    /// Input vectors per bit-sliced window.
    fn window_vectors(&self) -> usize {
        self.lanes() * 64
    }

    /// Keep only the given transitions of the *next* loaded window: bit
    /// `t` of `keep[t / 64]` retains transition `t`'s diff lanes, a
    /// cleared bit zeroes them (words past `keep.len()` keep nothing).
    /// Callers packing unrelated vector runs into one window mask off
    /// the seam transitions between runs. A masked transition settles
    /// nowhere (its window masks are zero) and must not be selected;
    /// kept transitions settle bit-identically to an unmasked window.
    /// Consumed by the next [`load_window`](Self::load_window); an
    /// empty mask keeps all.
    fn set_window_keep_mask(&mut self, keep: &[u64]);

    /// Load a window of `count` input vectors, packed into lanes —
    /// `lanes[k * W + w]` holds bit `v % 64` = input `k` under vector
    /// `64 * w + v % 64`, inputs in declaration order, `W` =
    /// [`lanes`](Self::lanes)() — and evaluate every vector's steady
    /// state in one bit-sliced pass. Bits past `count` are ignored.
    /// Follow with [`window_masks`](Self::window_masks), or with
    /// [`select_transition`](Self::select_transition) for each of the
    /// `count - 1` transitions; windows are independent, so callers
    /// chain them by overlapping one vector.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds
    /// [`window_vectors`](Self::window_vectors), or if
    /// `lanes.len() != input_count * W`.
    fn load_window(&mut self, lanes: &[u64], count: usize);

    /// Transitions available in the loaded window (`count - 1`).
    fn window_transitions(&self) -> usize;

    /// Threshold every transition of the loaded window at every level:
    /// afterwards bit `j` of `out[t * factors.len() + l]` is set iff
    /// the program's `j`-th kept net errs in transition `t` at derating
    /// factor `factors[l]`, i.e. `settle.min(clk) * factors[l] > clk`
    /// (the settle time clamped to the clock at nominal, then derated).
    /// Writes exactly the first `window_transitions() * factors.len()`
    /// words of `out`. The masks equal thresholding the f64 settle
    /// times [`select_transition`](Self::select_transition) reports,
    /// though the sweeps behind them may run in f32 where every
    /// decision is certified by a static error bound (see
    /// [`codegen`](crate::codegen)); sanitizer assertions run either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if no window is loaded, if `out` is shorter than that, or
    /// if the program keeps more than 64 nets.
    fn window_masks(&mut self, clk: f64, factors: &[f64], out: &mut [u64]);

    /// Focus the engine on window transition `t` (vectors `t → t+1`);
    /// afterwards the accessors report that transition exactly as a
    /// per-pair [`ArrivalKernel::advance`](crate::ArrivalKernel::advance)
    /// would. Settle times are computed one sweep of consecutive
    /// transitions at a time, so walking `t` in order computes each
    /// sweep once.
    ///
    /// # Panics
    ///
    /// Panics if no window is loaded or `t` is out of range.
    fn select_transition(&mut self, t: usize);

    /// Steady-state value of `net` under the current vector.
    fn cur(&self, net: NetId) -> bool;

    /// Steady-state value of `net` under the previous vector.
    fn prev(&self, net: NetId) -> bool;

    /// Whether `net` changed value in the selected transition.
    fn changed(&self, net: NetId) -> bool;

    /// Whether [`settle_of`](Self::settle_of) is valid for `net`.
    /// Programs over slot-compacted plans expose at least their keep set
    /// (the unit's observable outputs); full plans expose every net.
    fn settle_exposed(&self, net: NetId) -> bool;

    /// Settle time of `net` for the selected transition (0 if
    /// unchanged). Only valid for exposed nets (see
    /// [`settle_exposed`](Self::settle_exposed)); panics on recycled
    /// nets rather than return stale storage.
    fn settle_of(&self, net: NetId) -> f64;

    /// Dump the selected transition into `out`, matching
    /// [`ArrivalSim::run_into`](crate::ArrivalSim::run_into) for that
    /// pair on every exposed net (recycled nets report 0).
    fn snapshot_into(&self, out: &mut TwoVectorResult);
}
