//! The window-protocol surface of the DTA campaign loop.
//!
//! The campaign drives the bit-sliced window protocol —
//! `load_window`, then `select_transition` per transition, then the
//! per-net accessors. [`ArrivalEngine`] captures exactly that protocol
//! as an object-safe trait. Its one implementation is the table-driven
//! [`SpecializedKernel`](crate::SpecializedKernel) over a
//! [`DynProgram`](crate::DynProgram); the trait exists so the lane
//! width (`W` = 1, 4 or 8, a const parameter of the kernel) can be
//! picked at runtime behind one type. Statistics are bit-identical at
//! every width.
//!
//! Compacted programs recycle settle storage for internal nets (see
//! [`codegen`](crate::codegen)); the campaign only reads output-port
//! settles, which every program keeps exposed — check
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
    /// the seam transitions between runs. Masked transitions must not
    /// be selected; kept transitions settle bit-identically to an
    /// unmasked window. Consumed by the next
    /// [`load_window`](Self::load_window); an empty mask keeps all.
    fn set_window_keep_mask(&mut self, keep: &[u64]);

    /// Load a window of `count` concatenated input vectors (each of the
    /// design's input width) and evaluate every vector's steady state in
    /// one bit-sliced pass. Follow with
    /// [`select_transition`](Self::select_transition) for each of the
    /// `count - 1` transitions; windows are independent, so callers
    /// chain them by overlapping one vector.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds
    /// [`window_vectors`](Self::window_vectors), or if
    /// `flat.len() != count * input_count`.
    fn load_window(&mut self, flat: &[bool], count: usize);

    /// Transitions available in the loaded window (`count - 1`).
    fn window_transitions(&self) -> usize;

    /// Focus the engine on window transition `t` (vectors `t → t+1`);
    /// afterwards the accessors report that transition exactly as a
    /// per-pair [`ArrivalKernel::advance`](crate::ArrivalKernel::advance)
    /// would. Settle times are computed one batch of consecutive
    /// transitions at a time, so walking `t` in order computes each
    /// batch once.
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
