//! Compiled structure-of-arrays arrival kernel.
//!
//! [`ArrivalSim`](crate::ArrivalSim) walks the gate `Vec` of a
//! [`Netlist`] on every pair, evaluating both the previous and the
//! current vector for every gate even when its fanin cone did not move;
//! for the million-pair DTA campaigns that walk dominates the runtime.
//! This module compiles a netlist once into flat dense tables
//! ([`CompiledNetlist`]) and propagates each input transition
//! incrementally ([`ArrivalKernel`]): the previous steady state is kept
//! between pairs (the `prev` vector of pair *k+1* is the `cur` vector
//! of pair *k*, exactly the structure of a DTA trace), so each gate is
//! evaluated at most once per transition instead of twice.
//!
//! `advance` picks between two propagation strategies based on how much
//! of the circuit the *previous* transition toggled:
//!
//! * **Frontier walk** (sparse transitions): a dirty bitset seeded from
//!   the toggled inputs is consumed in topological index order,
//!   evaluating only gates downstream of a change. Work scales with the
//!   size of the disturbed cone, not the circuit.
//! * **Dense sweep** (heavily toggled transitions, the regime of
//!   random-operand DTA campaigns, where ~40% of the double-multiplier
//!   nets flip per pair): one branch-free pass over all gates in index
//!   order. At that toggle density branch predictors see noise and the
//!   frontier's random-access bookkeeping costs more than it saves, so
//!   the sweep keeps the pipeline full instead: truth-table lookups for
//!   values, conditional-move selects for settle times and change
//!   marks, and a branchless append to the changed-net list.
//!
//! Two representation choices make the sweep branch-free:
//!
//! * **Truth-table evaluation.** Each gate's logic function is compiled
//!   to an 8-entry truth-table byte; evaluation is
//!   `(tt >> (v0 | v1<<1 | v2<<2)) & 1` with no data-dependent branch.
//!   Unused pin slots are padded with the gate's first pin (inputs pin
//!   to themselves and decode as buffers of their primed value), and
//!   the replicated tables ignore the duplicated bits.
//! * **Self-cleaning settle array.** Between advances only nets changed
//!   by the last transition hold a non-zero settle time, so the
//!   latest-fanin fold is a plain branch-free `max` over all three pin
//!   slots — unchanged fanins contribute `0.0`, the fold's identity.
//!
//! Campaign streams do not run here: the bit-sliced window kernel
//! ([`SpecializedKernel`](crate::SpecializedKernel), see
//! [`codegen`](crate::codegen)) evaluates `W * 64` vectors per
//! whole-circuit pass over tables built from the same
//! [`CompiledNetlist`], and so does γ calibration in `tei-fpu`. This
//! kernel is a test oracle only: the reference the window kernel's
//! equivalence suites replay every transition through.
//!
//! The kernel is bit-for-bit and settle-time-exact against
//! [`ArrivalSim`](crate::ArrivalSim), whichever strategy runs. Values
//! agree because the steady state of a gate with no changed fanin
//! cannot change (the sweep re-derives it; the frontier skips it).
//! Settle times agree because both engines compute
//! `settle[i] = fold(0.0, max, settle of changed fanins) + delay[i]`
//! and folding the extra `0.0` terms of unchanged (or duplicated)
//! fanins into an `f64::max` chain that already starts at `0.0` is an
//! exact no-op. Enforced by proptest in `tests/kernel_equiv.rs`.

use crate::sim::TwoVectorResult;
use tei_netlist::{GateKind, NetId, Netlist};

/// 8-entry truth tables indexed by `GateKind as u8`; output bit at
/// index `v0 | v1<<1 | v2<<2`. Tables for gates with fewer than three
/// pins replicate over the unused high bits, so any padding pin value
/// decodes correctly. Pin order follows `Gate::pins`: Mux2 is
/// `[sel, a, b]` selecting `b` when `sel` is high.
const TRUTH: [u8; 13] = [
    0xAA, // Input (self-pinned: decodes as a buffer of its own value)
    0x00, // Const0
    0xFF, // Const1
    0xAA, // Buf
    0x55, // Not
    0x88, // And2
    0xEE, // Or2
    0x77, // Nand2
    0x11, // Nor2
    0x66, // Xor2
    0x99, // Xnor2
    0xE4, // Mux2
    0xE8, // Maj3
];

/// Once the previous transition toggled more than 1/8 of all nets,
/// `advance` switches from the frontier walk to the dense sweep.
const DENSE_TOGGLE_DIVISOR: usize = 8;

/// A netlist lowered to structure-of-arrays form for the arrival kernel:
/// per-gate truth-table bytes, a fixed-stride pin table, a flat delay
/// array, and fanout adjacency in CSR layout to drive the sparse-path
/// dirty frontier.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    n: usize,
    /// `GateKind as u8` per gate (the table program's opcodes).
    kinds: Vec<u8>,
    /// Truth-table byte per gate (see [`TRUTH`]).
    tt: Vec<u8>,
    /// Three pin slots per gate (stride 3); slots beyond the gate's
    /// arity repeat the first pin (harmless under the replicated truth
    /// tables, identity under the settle `max` fold). Primary inputs
    /// pin to themselves.
    pins: Vec<u32>,
    delays: Vec<f64>,
    /// Static worst-case arrival bound per net (the [`Sta`] recurrence
    /// over the compiled delay table): `max(pin bounds) + delay`, with
    /// inputs and constants at 0. Dynamic settle times never exceed it
    /// (enforced under `sanitize-arrivals`), which is what lets the
    /// campaign path prune provably-safe output bits.
    ///
    /// [`Sta`]: crate::Sta
    bounds: Vec<f64>,
    /// Primary input nets in declaration order.
    inputs: Vec<u32>,
    /// CSR offsets into `fanout`; net `i` drives `fanout[off[i]..off[i+1]]`.
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
}

impl CompiledNetlist {
    /// Lower `nl` (gates already in topological order) into flat tables.
    pub fn compile(nl: &Netlist) -> Self {
        let n = nl.len();
        let gates = nl.gates();

        let mut kinds = Vec::with_capacity(n);
        let mut tt = Vec::with_capacity(n);
        let mut pins = vec![0u32; n * 3];
        let mut delays = Vec::with_capacity(n);
        let mut bounds = vec![0.0f64; n];
        let mut fanout_count = vec![0u32; n];

        for (i, g) in gates.iter().enumerate() {
            kinds.push(g.kind as u8);
            tt.push(TRUTH[g.kind as u8 as usize]);
            // Inputs flip at t = 0 and constants never flip, so their
            // settle contribution is exactly zero; forcing the delay
            // lets every propagation path treat them uniformly.
            delays.push(match g.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
                _ => g.delay,
            });
            let fanin = g.fanin();
            // Inputs self-pin (their truth table is a buffer); gates
            // replicate their first pin into unused slots.
            let pad = match fanin.first() {
                Some(p) => p.index() as u32,
                None if g.kind == GateKind::Input => i as u32,
                None => 0,
            };
            for slot in 0..3 {
                pins[i * 3 + slot] = match fanin.get(slot) {
                    Some(pin) => {
                        let j = pin.index();
                        debug_assert!(j < i, "netlist must be topologically ordered");
                        fanout_count[j] += 1;
                        j as u32
                    }
                    None => pad,
                };
            }
            // Static arrival bound: the Sta recurrence over the compiled
            // delay table (inputs and constants pinned to 0 above).
            let worst = fanin
                .iter()
                .map(|p| bounds[p.index()])
                .fold(0.0f64, f64::max);
            bounds[i] = worst + delays[i];
        }

        // Prefix-sum the fanout counts into CSR offsets, then fill.
        let mut fanout_off = vec![0u32; n + 1];
        for i in 0..n {
            fanout_off[i + 1] = fanout_off[i] + fanout_count[i];
        }
        let mut fanout = vec![0u32; fanout_off[n] as usize];
        let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
        for (i, g) in gates.iter().enumerate() {
            for &pin in g.fanin() {
                let j = pin.index();
                fanout[cursor[j] as usize] = i as u32;
                cursor[j] += 1;
            }
        }

        let inputs = nl.inputs().iter().map(|net| net.index() as u32).collect();

        CompiledNetlist {
            n,
            kinds,
            tt,
            pins,
            delays,
            bounds,
            inputs,
            fanout_off,
            fanout,
        }
    }

    /// Static worst-case arrival bound of `net` at the nominal corner
    /// (see the `bounds` field). No dynamic settle time the kernel ever
    /// reports for `net` exceeds this.
    #[inline]
    pub fn static_bound(&self, net: NetId) -> f64 {
        self.bounds[net.index()]
    }

    /// All static arrival bounds, indexed by net.
    pub fn static_bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of nets (== gates) in the compiled design.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty design.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// FNV-1a structural fingerprint over everything the arrival kernel
    /// evaluates: gate count, opcodes, pin table, exact delay bits, and
    /// the primary-input order. Two compiled netlists with equal
    /// fingerprints produce identical kernel results for identical input
    /// streams, which is what lets a saved surrogate model prove it was
    /// fitted on *this* netlist.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for b in (self.n as u64).to_le_bytes() {
            eat(b);
        }
        for &k in &self.kinds {
            eat(k);
        }
        for p in &self.pins {
            for b in p.to_le_bytes() {
                eat(b);
            }
        }
        for d in &self.delays {
            for b in d.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        for i in &self.inputs {
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        h
    }

    /// Per-gate opcodes (`GateKind as u8`), for [`DynProgram`](crate::DynProgram).
    pub(crate) fn kinds(&self) -> &[u8] {
        &self.kinds
    }

    /// The padded stride-3 pin table, for [`DynProgram`](crate::DynProgram).
    pub(crate) fn pins(&self) -> &[u32] {
        &self.pins
    }

    /// The compiled per-gate delays, for [`DynProgram`](crate::DynProgram).
    pub(crate) fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Primary input nets in declaration order, for
    /// [`DynProgram`](crate::DynProgram).
    pub(crate) fn input_nets(&self) -> &[u32] {
        &self.inputs
    }

    #[inline]
    fn fanout_of(&self, i: usize) -> &[u32] {
        &self.fanout[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// Evaluate gate `i`'s logic function against `val` (0/1 per net).
    #[inline]
    fn eval(&self, i: usize, val: &[u8]) -> u8 {
        let p = &self.pins[i * 3..i * 3 + 3];
        let idx = val[p[0] as usize] | val[p[1] as usize] << 1 | val[p[2] as usize] << 2;
        (self.tt[i] >> idx) & 1
    }
}

/// Arrival-time propagation engine over a [`CompiledNetlist`] with
/// reusable scratch buffers and a changed-net frontier.
///
/// Usage: [`reset`](ArrivalKernel::reset) with the first input vector,
/// then [`advance`](ArrivalKernel::advance) once per subsequent vector.
/// After each `advance` the accessors report the same quantities as a
/// [`TwoVectorResult`] for the transition just applied: `prev`/`cur`
/// steady-state values, per-net settle times (0 for unchanged nets), and
/// the Razor-style latched-value error test.
///
/// The kernel is the per-pair test oracle for the table-driven window
/// kernel ([`SpecializedKernel`](crate::SpecializedKernel)), which runs
/// every production DTA, γ calibration included: the equivalence suites
/// replay every window transition through it.
#[derive(Debug, Clone, Default)]
pub struct ArrivalKernel {
    /// Steady-state value (0/1) of every net under the *current* input
    /// vector.
    val: Vec<u8>,
    /// Per-net settle time of the last transition. Invariant between
    /// advances: every net outside `changed_list` holds `0.0`, so a
    /// plain `max` fold over all pin slots reproduces the changed-only
    /// fold.
    settle: Vec<f64>,
    /// Epoch stamp: net changed in the last `advance` iff `== epoch`.
    changed_mark: Vec<u32>,
    /// Nets changed in the last `advance` occupy `[..changed_len]`;
    /// kept at full length so the dense sweep can append branchlessly.
    changed_list: Vec<u32>,
    changed_len: usize,
    epoch: u32,
    /// Dirty bitset scheduling gates for re-evaluation on the frontier
    /// path, one bit per gate, consumed (cleared) by the scan.
    dirty: Vec<u64>,
}

impl ArrivalKernel {
    /// A kernel with empty scratch; buffers size themselves on
    /// `reset`.
    pub fn new() -> Self {
        ArrivalKernel::default()
    }

    /// Establish circuit state: full functional evaluation of `inputs`,
    /// all settle times zero, no nets marked changed.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the design's input count.
    pub fn reset(&mut self, c: &CompiledNetlist, inputs: &[bool]) {
        assert_eq!(inputs.len(), c.inputs.len(), "input width");
        self.val.clear();
        self.val.resize(c.n, 0);
        self.settle.clear();
        self.settle.resize(c.n, 0.0);
        self.changed_mark.clear();
        self.changed_mark.resize(c.n, u32::MAX);
        self.changed_list.clear();
        self.changed_list.resize(c.n, 0);
        self.changed_len = 0;
        self.epoch = 0;
        self.dirty.clear();
        self.dirty.resize(c.n.div_ceil(64), 0);
        for (k, &net) in c.inputs.iter().enumerate() {
            self.val[net as usize] = inputs[k] as u8;
        }
        // Inputs self-pin as buffers, so the uniform sweep re-derives
        // their primed value.
        for i in 0..c.n {
            self.val[i] = c.eval(i, &self.val);
        }
    }

    /// Apply the transition from the current steady state to
    /// `new_inputs`, recomputing values and settle times downstream of
    /// toggled nets (frontier walk or dense sweep, chosen by the toggle
    /// density of the previous transition).
    ///
    /// # Panics
    ///
    /// Panics if `new_inputs.len()` differs from the design's input
    /// count, or if [`reset`](ArrivalKernel::reset) has not been called.
    pub fn advance(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        assert_eq!(new_inputs.len(), c.inputs.len(), "input width");
        assert_eq!(self.val.len(), c.n, "kernel not reset for this design");
        let dense = self.changed_len * DENSE_TOGGLE_DIVISOR >= c.n;
        if dense {
            self.advance_dense(c, new_inputs);
        } else {
            self.advance_frontier(c, new_inputs);
        }
    }

    /// Sanitizer: every settle time computed for the last transition
    /// must respect the compiled static arrival bound. A violation means
    /// the kernel's settle fold (or the bound computation) is wrong.
    #[cfg(feature = "sanitize-arrivals")]
    fn sanitize_settles(&self, c: &CompiledNetlist) {
        for &i in &self.changed_list[..self.changed_len] {
            let i = i as usize;
            assert!(
                self.settle[i] <= c.bounds[i] + 1e-9,
                "sanitize-arrivals: net n{i} settled at {} past its static bound {}",
                self.settle[i],
                c.bounds[i]
            );
        }
    }

    /// Roll the epoch stamp forward, returning the new epoch.
    fn bump_epoch(&mut self) -> u32 {
        // Epoch u32::MAX is the "never" marker set by reset; wrap before
        // colliding with it.
        if self.epoch == u32::MAX - 1 {
            self.changed_mark.fill(u32::MAX);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Sparse path: consume a dirty bitset seeded from the toggled
    /// inputs, evaluating only gates downstream of a change.
    fn advance_frontier(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        // Restore the all-zero settle invariant for the new transition.
        for &i in &self.changed_list[..self.changed_len] {
            self.settle[i as usize] = 0.0;
        }
        self.changed_len = 0;
        let epoch = self.bump_epoch();

        // Toggled inputs seed the dirty frontier.
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for (k, &net) in c.inputs.iter().enumerate() {
            let i = net as usize;
            if self.val[i] != new_inputs[k] as u8 {
                self.val[i] = new_inputs[k] as u8;
                self.changed_mark[i] = epoch;
                self.changed_list[self.changed_len] = net;
                self.changed_len += 1; // settle stays 0: inputs flip at t = 0
                for &g in c.fanout_of(i) {
                    let gi = g as usize;
                    self.dirty[gi >> 6] |= 1 << (gi & 63);
                    lo = lo.min(gi);
                    hi = hi.max(gi);
                }
            }
        }
        if lo == usize::MAX {
            return; // identical vectors: nothing to propagate
        }

        // Scan dirty gates in index order (indices are topological, so
        // every fanin is final before its reader). Consuming the lowest
        // set bit keeps the scan ordered even as it marks later gates;
        // `hi` grows monotonically as fanouts are marked.
        let mut wi = lo >> 6;
        while wi <= hi >> 6 {
            loop {
                let word = self.dirty[wi];
                if word == 0 {
                    break;
                }
                let bit = word.trailing_zeros() as usize;
                self.dirty[wi] = word & (word - 1);
                let i = (wi << 6) | bit;
                let new = c.eval(i, &self.val);
                if new != self.val[i] {
                    self.val[i] = new;
                    self.changed_mark[i] = epoch;
                    self.changed_list[self.changed_len] = i as u32;
                    self.changed_len += 1;
                    // Latest-settling fanin: unchanged fanins hold 0.0,
                    // so the plain fold equals ArrivalSim's changed-only
                    // fold (both start at 0.0).
                    let p = &c.pins[i * 3..i * 3 + 3];
                    let latest = self.settle[p[0] as usize]
                        .max(self.settle[p[1] as usize])
                        .max(self.settle[p[2] as usize]);
                    self.settle[i] = latest + c.delays[i];
                    for &g in c.fanout_of(i) {
                        let gi = g as usize;
                        self.dirty[gi >> 6] |= 1 << (gi & 63);
                        hi = hi.max(gi);
                    }
                }
            }
            wi += 1;
        }
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_settles(c);
    }

    /// Dense path: two branch-free passes over the gate tables in
    /// topological index order, so heavily toggled transitions cannot
    /// stall the pipeline on mispredictions. The first (value) pass
    /// re-derives every steady-state bit via truth-table lookups and
    /// records which nets flipped as a bitmask; the second (settle)
    /// pass visits only the set bits, in index order, computing settle
    /// times with the branch-free three-slot `max` fold.
    fn advance_dense(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        // Restore the all-zero settle invariant for the new transition.
        for &i in &self.changed_list[..self.changed_len] {
            self.settle[i as usize] = 0.0;
        }
        self.changed_len = 0;
        let epoch = self.bump_epoch();

        // Prime toggled inputs; their settle entries are permanently
        // zero (inputs flip at t = 0) and their self-pinned buffer rows
        // below re-derive the primed value with no flip recorded.
        for (k, &net) in c.inputs.iter().enumerate() {
            let i = net as usize;
            let nv = new_inputs[k] as u8;
            if self.val[i] != nv {
                self.val[i] = nv;
                self.changed_mark[i] = epoch;
                self.changed_list[self.changed_len] = net;
                self.changed_len += 1;
            }
        }

        let n = c.n;
        // Value pass: flip bits accumulate into `dirty`, reused here as
        // a plain bitmask (every touched word is overwritten, and the
        // settle pass consumes words back to zero, preserving the
        // frontier path's all-clear precondition).
        {
            let val = &mut self.val[..n];
            let pins = &c.pins[..n * 3];
            let tts = &c.tt[..n];
            let mut word = 0u64;
            for i in 0..n {
                // SAFETY: `compile` stores pin indices `< n` (fanins
                // precede their gate; padding repeats a fanin or the
                // gate's own index), and `val`/`tts`/`pins` were sliced
                // to exactly `n`/`3n` above.
                let diff = unsafe {
                    let p0 = *pins.get_unchecked(i * 3) as usize;
                    let p1 = *pins.get_unchecked(i * 3 + 1) as usize;
                    let p2 = *pins.get_unchecked(i * 3 + 2) as usize;
                    let idx = *val.get_unchecked(p0)
                        | *val.get_unchecked(p1) << 1
                        | *val.get_unchecked(p2) << 2;
                    let new = (*tts.get_unchecked(i) >> idx) & 1;
                    let old = *val.get_unchecked(i);
                    *val.get_unchecked_mut(i) = new;
                    new ^ old
                };
                word |= u64::from(diff) << (i & 63);
                if i & 63 == 63 {
                    self.dirty[i >> 6] = word;
                    word = 0;
                }
            }
            if n & 63 != 0 {
                self.dirty[n >> 6] = word;
            }
        }

        // Settle pass: only flipped nets, ascending index (topological),
        // consuming the bitmask back to zero as it goes.
        for wi in 0..self.dirty.len() {
            let mut word = self.dirty[wi];
            self.dirty[wi] = 0;
            while word != 0 {
                let i = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                // SAFETY: `i < n` (the mask has one bit per gate) and
                // pin indices are `< n` as in the value pass;
                // `changed_len < n` because each net enters the list at
                // most once per advance.
                unsafe {
                    let p0 = *c.pins.get_unchecked(i * 3) as usize;
                    let p1 = *c.pins.get_unchecked(i * 3 + 1) as usize;
                    let p2 = *c.pins.get_unchecked(i * 3 + 2) as usize;
                    // Latest-settling fanin: unchanged fanins hold 0.0,
                    // so the plain fold equals ArrivalSim's changed-only
                    // fold (both start at 0.0). Settle times are never
                    // NaN, making the comparison chain exactly
                    // `f64::max`.
                    let s0 = *self.settle.get_unchecked(p0);
                    let s1 = *self.settle.get_unchecked(p1);
                    let s2 = *self.settle.get_unchecked(p2);
                    let m = if s0 > s1 { s0 } else { s1 };
                    let latest = if m > s2 { m } else { s2 };
                    *self.settle.get_unchecked_mut(i) = latest + *c.delays.get_unchecked(i);
                    *self.changed_mark.get_unchecked_mut(i) = epoch;
                    *self.changed_list.get_unchecked_mut(self.changed_len) = i as u32;
                }
                self.changed_len += 1;
            }
        }
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_settles(c);
    }

    /// Steady-state value of `net` under the current input vector.
    #[inline]
    pub fn cur(&self, net: NetId) -> bool {
        self.val[net.index()] != 0
    }

    /// Steady-state value of `net` under the previous input vector.
    #[inline]
    pub fn prev(&self, net: NetId) -> bool {
        self.cur(net) ^ self.changed(net)
    }

    /// Whether `net` changed value in the last transition.
    #[inline]
    pub fn changed(&self, net: NetId) -> bool {
        self.changed_mark[net.index()] == self.epoch
    }

    /// Settle time of `net` for the last transition (0 if unchanged).
    #[inline]
    pub fn settle_of(&self, net: NetId) -> f64 {
        self.settle[net.index()]
    }

    /// Latched value of `net` when the capturing edge arrives at `clk`
    /// with every delay inflated by `factor` (see
    /// [`TwoVectorResult::latched`]).
    #[inline]
    pub fn latched(&self, net: NetId, clk: f64, factor: f64) -> bool {
        if self.settle_of(net) * factor > clk {
            self.prev(net)
        } else {
            self.cur(net)
        }
    }

    /// Whether `net` latches an incorrect value at `clk` under `factor`.
    #[inline]
    pub fn is_error(&self, net: NetId, clk: f64, factor: f64) -> bool {
        self.latched(net, clk, factor) != self.cur(net)
    }

    /// The latest settle time over a set of nets (e.g. an output bus).
    pub fn max_settle(&self, nets: &[NetId]) -> f64 {
        nets.iter().map(|&n| self.settle_of(n)).fold(0.0, f64::max)
    }

    /// Dump the state of the last transition into `out`, producing the
    /// same contents [`ArrivalSim::run_into`] would for that
    /// `prev → cur` pair.
    ///
    /// [`ArrivalSim::run_into`]: crate::ArrivalSim::run_into
    pub fn snapshot_into(&self, out: &mut TwoVectorResult) {
        let n = self.val.len();
        out.prev.clear();
        out.cur.clear();
        out.settle.clear();
        out.settle.extend_from_slice(&self.settle);
        out.prev.reserve(n);
        out.cur.reserve(n);
        for i in 0..n {
            let cur = self.val[i] != 0;
            out.cur.push(cur);
            out.prev.push(cur ^ (self.changed_mark[i] == self.epoch));
        }
    }

    /// One-shot `prev → cur` simulation (reset + advance), filling `out`
    /// with the same contents [`ArrivalSim::run_into`] would produce.
    /// Useful for drop-in validation; campaign loops should instead call
    /// [`advance`](ArrivalKernel::advance) per pair.
    ///
    /// [`ArrivalSim::run_into`]: crate::ArrivalSim::run_into
    pub fn run_into(
        &mut self,
        c: &CompiledNetlist,
        prev_inputs: &[bool],
        cur_inputs: &[bool],
        out: &mut TwoVectorResult,
    ) {
        self.reset(c, prev_inputs);
        self.advance(c, cur_inputs);
        self.snapshot_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ArrivalSim;
    use tei_netlist::CellLibrary;

    /// Every truth-table byte must reproduce the reference gate
    /// evaluation on all pin combinations, including the replication
    /// over unused high bits that makes pin padding safe.
    #[test]
    fn truth_tables_match_reference_eval() {
        let mut nl = Netlist::new("tt", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let s = nl.add_input_bit();
        for &kind in GateKind::all_logic() {
            let pins: Vec<NetId> = [a, b, s][..kind.arity()].to_vec();
            let net = nl.add_gate(kind, &pins);
            let tt = TRUTH[kind as u8 as usize];
            for idx in 0u8..8 {
                let vals = [idx & 1 == 1, idx >> 1 & 1 == 1, idx >> 2 & 1 == 1];
                // Reference: steady-state eval through ArrivalSim.
                let res = ArrivalSim::run(&nl, &vals, &vals);
                let expect = res.cur[net.index()];
                // Replicated-table claim: the byte only depends on the
                // first `arity` bits.
                let masked = match kind.arity() {
                    1 => idx & 1,
                    2 => idx & 3,
                    _ => idx,
                };
                assert_eq!(
                    (tt >> idx) & 1,
                    (tt >> masked) & 1,
                    "{kind:?} table not replicated over unused bits"
                );
                assert_eq!((tt >> idx) & 1 == 1, expect, "{kind:?} at idx {idx}");
            }
        }
    }

    fn assert_matches_sim(nl: &Netlist, prev: &[bool], cur: &[bool]) {
        let reference = ArrivalSim::run(nl, prev, cur);
        let c = CompiledNetlist::compile(nl);
        let mut k = ArrivalKernel::new();
        let mut got = TwoVectorResult::default();
        k.run_into(&c, prev, cur, &mut got);
        assert_eq!(got.prev, reference.prev, "prev values");
        assert_eq!(got.cur, reference.cur, "cur values");
        for i in 0..nl.len() {
            assert!(
                got.settle[i].to_bits() == reference.settle[i].to_bits(),
                "settle[{i}]: kernel {} vs sim {}",
                got.settle[i],
                reference.settle[i]
            );
        }
    }

    #[test]
    fn unchanged_nets_settle_immediately() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let x = nl.and(a, b);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false, false]);
        k.advance(&c, &[true, false]);
        assert_eq!(k.settle_of(x), 0.0);
        assert!(!k.is_error(x, 0.1, 1.0));
        assert_matches_sim(&nl, &[false, false], &[true, false]);
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
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false]);
        k.advance(&c, &[true]);
        assert!((k.settle_of(cur) - 4.0).abs() < 1e-12);
        assert!(k.is_error(cur, 3.0, 1.0));
        assert!(!k.is_error(cur, 4.0, 1.0));
        assert!(k.is_error(cur, 4.5, 1.2));
        assert_matches_sim(&nl, &[false], &[true]);
    }

    /// Drive the same vector stream through both explicit strategies
    /// and the reference simulator; all three must agree bit-for-bit.
    /// (The public `advance` picks a strategy by toggle density; this
    /// pins down each path regardless of the heuristic.)
    #[test]
    fn dense_and_frontier_paths_agree_with_sim() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
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
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let c = CompiledNetlist::compile(&nl);
        let mut kd = ArrivalKernel::new();
        let mut kf = ArrivalKernel::new();
        let mut snap_d = TwoVectorResult::default();
        let mut snap_f = TwoVectorResult::default();
        kd.reset(&c, &vec_of(stream[0].0, stream[0].1));
        kf.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            let prev = vec_of(w[0].0, w[0].1);
            let cur = vec_of(w[1].0, w[1].1);
            kd.advance_dense(&c, &cur);
            kf.advance_frontier(&c, &cur);
            kd.snapshot_into(&mut snap_d);
            kf.snapshot_into(&mut snap_f);
            let reference = ArrivalSim::run(&nl, &prev, &cur);
            for (label, snap) in [("dense", &snap_d), ("frontier", &snap_f)] {
                assert_eq!(snap.prev, reference.prev, "{label} prev values");
                assert_eq!(snap.cur, reference.cur, "{label} cur values");
                for i in 0..nl.len() {
                    assert_eq!(
                        snap.settle[i].to_bits(),
                        reference.settle[i].to_bits(),
                        "{label} settle[{i}]"
                    );
                }
            }
            assert!(
                (kd.max_settle(&[cout]) - reference.max_settle(&[cout])).abs() < 1e-15,
                "cout max_settle"
            );
        }
    }

    #[test]
    fn chained_advances_match_fresh_two_vector_runs() {
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
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        k.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            let prev = vec_of(w[0].0, w[0].1);
            let cur = vec_of(w[1].0, w[1].1);
            k.advance(&c, &cur);
            k.snapshot_into(&mut snap);
            let reference = ArrivalSim::run(&nl, &prev, &cur);
            assert_eq!(snap.prev, reference.prev, "prev values");
            assert_eq!(snap.cur, reference.cur, "cur values");
            for i in 0..nl.len() {
                assert_eq!(
                    snap.settle[i].to_bits(),
                    reference.settle[i].to_bits(),
                    "settle[{i}]"
                );
            }
            assert!(
                (k.max_settle(&[cout]) - reference.max_settle(&[cout])).abs() < 1e-15,
                "cout max_settle"
            );
        }
    }

    #[test]
    fn latched_error_matches_stale_value() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false]);
        k.advance(&c, &[true]);
        assert!(k.latched(x, 0.5, 1.0));
        assert!(!k.latched(x, 1.0, 1.0));
    }

    /// The compiled static bounds must reproduce `Sta` exactly (same
    /// recurrence, same delay table) and dominate every dynamic settle
    /// time the kernel reports — the soundness fact behind safe-bit
    /// pruning and the `sanitize-arrivals` checks.
    #[test]
    fn static_bounds_match_sta_and_dominate_settles() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);
        let c = CompiledNetlist::compile(&nl);
        let sta = crate::Sta::analyze(&nl);
        for i in 0..nl.len() {
            assert_eq!(
                c.static_bounds()[i].to_bits(),
                sta.arrivals()[i].to_bits(),
                "bound[{i}] vs Sta arrival"
            );
        }
        let vec_of = |x: u64, y: u64| -> Vec<bool> {
            (0..8)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..8).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let mut k = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        k.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            k.advance(&c, &vec_of(w[1].0, w[1].1));
            k.snapshot_into(&mut snap);
            for i in 0..nl.len() {
                assert!(
                    snap.settle[i] <= c.static_bounds()[i] + 1e-9,
                    "settle[{i}] {} exceeds static bound {}",
                    snap.settle[i],
                    c.static_bounds()[i]
                );
            }
        }
    }

    #[test]
    fn identical_vectors_leave_no_changed_nets() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[true]);
        k.advance(&c, &[true]);
        assert!(!k.changed(x));
        assert_eq!(k.settle_of(x), 0.0);
        assert_eq!(k.max_settle(&[x]), 0.0);
    }
}
