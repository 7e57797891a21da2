//! The table-driven window kernel: the one engine every DTA campaign
//! runs.
//!
//! [`DynProgram::compacted`] compiles a [`CompiledNetlist`] at runtime
//! into flat opcode/pin/delay tables plus a liveness-compacted settle
//! plan; [`SpecializedKernel`] drives a borrowed program through the
//! window protocol of [`ArrivalEngine`] with two table-driven passes
//! ([`table_plane_pass`] and the settle pass) that are bit-identical to
//! the per-pair [`ArrivalKernel`](crate::ArrivalKernel). Building the
//! tables is cheap: the plans for all twelve shipped FPU units take
//! about 3 ms, so each unit builds its program once on first use
//! (`FpuUnit::dta_program` in `tei-fpu`).
//!
//! **Bit-sliced windows.** Each net carries a [`Lanes`] array of `W`
//! `u64` words, so one whole-circuit pass evaluates the steady state of
//! `W * 64` input vectors; the fixed-size-array lane ops autovectorize
//! to AVX2 (`W = 4`) and AVX-512 (`W = 8`) bitwise instructions. Settle
//! times are then computed `W` transitions per batch as `[f64; W]` lane
//! arrays, masked to `+0.0` in lanes where a gate does not toggle.
//!
//! **What the settle plan buys.** The settle pass dominates DTA
//! throughput and is cache-bandwidth bound: a net-indexed `[f64; W]`
//! settle array is 411 KB for the d-mul netlist at `W = 4` and 823 KB
//! at 8. [`SettlePlan::compacted`] instead performs a liveness analysis
//! over the settle dataflow and allocates *recycled scratch slots*: a
//! net's slot is freed at its last fanout reader and reused (LIFO, so
//! the hottest line is reused first), while nets in the `keep` set —
//! the unit's observable outputs — hold dedicated slots for the
//! campaign's [`settle_of`](ArrivalEngine::settle_of) queries. The
//! scratch footprint drops from `N` nets to the netlist's cut width,
//! and the harness transposes diff lanes word-major once per window so
//! each settle batch reads 8 bytes of toggle bits per gate instead of
//! `8 * W`.
//!
//! **How the settle loop is driven.** Table validation happens once,
//! in [`SpecializedKernel::new`]; each batch then runs an unchecked
//! loop over a packed 16-byte `GateRec` per gate (re-validating per
//! batch measurably costs as much as the settle arithmetic itself). On
//! x86-64 CPUs with AVX-512F, `W = 8` sweeps *two* adjacent batches at
//! once (the `zmm` module): one ZMM register per batch per net, the
//! toggle byte used directly as the `maskz` write mask, and one record
//! load and one diff-word load amortized across both batches. Other
//! CPUs run the generic pass; a unit test holds the two bit-identical.
//!
//! **Why tables and not straight-line code.** A first version of this
//! backend unrolled every gate into its own statement (delays as
//! inline constants, levels unrolled). Measured on d-mul at `W = 4` it
//! ran 6.5× *slower* than the then-interpreted window kernel: ~1 MB of
//! instructions per settle batch streams through the i-cache, which
//! loses decisively to a resident loop over compact tables — and cost
//! half an hour of LLVM time per build. A later version emitted the
//! same tables as static Rust source at build time; it measured no
//! faster than tables built at runtime (0.95–1.07× on d-div and d-mul
//! at `W = 8`), so it was retired. The shipped design keeps the
//! specialization where it pays (the slot allocation, packed records,
//! pins resolved to slots) and executes it with the same few hundred
//! bytes of loop code for every unit.
//!
//! **Exposure contract.** After a settle pass, only nets whose slot
//! was never recycled still hold their settle time: every net in
//! `keep`, plus any net whose slot happened not to be reused. The
//! plan's `exposed` table holds `u32::MAX` for the rest, and the
//! engine's [`settle_exposed`](ArrivalEngine::settle_exposed) surfaces
//! that. The DTA campaign only reads output-port settles (see
//! `accumulate_transition` in `tei-core`), which are always kept;
//! full-fidelity programs ([`DynProgram::new`]) expose every net.
//!
//! **Determinism and equivalence.** Gates run in compiled
//! (topological) index order and the slot allocator is deterministic
//! (LIFO free list, one linear scan), so a given `(netlist, keep)` pair
//! always yields the same plan. Equivalence is enforced three ways: the
//! `kernel_equiv` proptests drive this harness over [`DynProgram`]
//! (full and compacted plans) on random DAGs against the reference
//! simulator, [`SettlePlan`] self-verifies every allocation by replay,
//! and `tei-fpu`'s `dta_program_equiv` suite checks every shipped
//! unit's program transition-for-transition against chained
//! [`ArrivalKernel::advance`](crate::ArrivalKernel::advance) calls.

use crate::engine::ArrivalEngine;
use crate::kernel::CompiledNetlist;
use crate::sim::TwoVectorResult;
use tei_netlist::{GateKind, NetId};

/// The multi-word window lane of one net: bit `v` of word `v / 64`
/// holds the net's steady-state value under the window's `v`-th input
/// vector. Written as fixed-size-array ops so the compiler
/// autovectorizes `W = 4` to AVX2-width and `W = 8` to AVX-512-width
/// bitwise instructions.
pub type Lanes<const W: usize> = [u64; W];

/// Bit `v` of a multi-word lane.
#[inline(always)]
fn lane_bit<const W: usize>(lane: &Lanes<W>, v: usize) -> bool {
    (lane[v >> 6] >> (v & 63)) & 1 == 1
}

/// Inlined lane/settle primitives used by the table passes. Kept tiny
/// and `#[inline(always)]` so the passes lower to straight-line vector
/// code with no calls.
pub mod ops {
    use super::Lanes;
    use std::array::from_fn;

    /// Transition lanes of a value plane: `v ^ (v >> 1)` as a
    /// `W * 64`-bit-wide shift (borrowing the low bit of the next
    /// word), masked to the window's valid transitions.
    #[inline(always)]
    pub fn dif<const W: usize>(v: Lanes<W>, tm: Lanes<W>) -> Lanes<W> {
        from_fn(|w| {
            let hi = if w + 1 < W { v[w + 1] } else { 0 };
            (v[w] ^ ((v[w] >> 1) | (hi << 63))) & tm[w]
        })
    }

    /// Fused store: `p[i] = v; d[i] = dif(v, tm)`.
    #[inline(always)]
    pub fn st<const W: usize>(
        v: Lanes<W>,
        tm: Lanes<W>,
        p: &mut [Lanes<W>],
        d: &mut [Lanes<W>],
        i: usize,
    ) {
        p[i] = v;
        d[i] = dif(v, tm);
    }

    /// All-zero lanes (Const0).
    #[inline(always)]
    pub fn c0<const W: usize>() -> Lanes<W> {
        [0; W]
    }

    /// All-one lanes (Const1).
    #[inline(always)]
    pub fn c1<const W: usize>() -> Lanes<W> {
        [!0; W]
    }

    /// Lane NOT.
    #[inline(always)]
    pub fn inv<const W: usize>(a: Lanes<W>) -> Lanes<W> {
        from_fn(|w| !a[w])
    }

    /// Lane AND.
    #[inline(always)]
    pub fn and2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| a[w] & b[w])
    }

    /// Lane OR.
    #[inline(always)]
    pub fn or2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| a[w] | b[w])
    }

    /// Lane NAND.
    #[inline(always)]
    pub fn nand2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| !(a[w] & b[w]))
    }

    /// Lane NOR.
    #[inline(always)]
    pub fn nor2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| !(a[w] | b[w]))
    }

    /// Lane XOR.
    #[inline(always)]
    pub fn xor2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| a[w] ^ b[w])
    }

    /// Lane XNOR.
    #[inline(always)]
    pub fn xnor2<const W: usize>(a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| !(a[w] ^ b[w]))
    }

    /// Lane 2:1 mux, pin order `[sel, a, b]`: `b` when `sel` is high.
    #[inline(always)]
    pub fn mux2<const W: usize>(sel: Lanes<W>, a: Lanes<W>, b: Lanes<W>) -> Lanes<W> {
        from_fn(|w| (sel[w] & b[w]) | (!sel[w] & a[w]))
    }

    /// Lane 3-input majority.
    #[inline(always)]
    pub fn maj3<const W: usize>(a: Lanes<W>, b: Lanes<W>, c: Lanes<W>) -> Lanes<W> {
        from_fn(|w| (a[w] & b[w]) | (a[w] & c[w]) | (b[w] & c[w]))
    }

    /// Three-operand settle fold in the per-pair kernel's order (never
    /// NaN, so this is exactly `f64::max`).
    #[inline(always)]
    pub fn m3<const W: usize>(a: [f64; W], b: [f64; W], c: [f64; W]) -> [f64; W] {
        from_fn(|j| {
            let m = if a[j] > b[j] { a[j] } else { b[j] };
            if m > c[j] {
                m
            } else {
                c[j]
            }
        })
    }

    /// Per-lane keep masks for a gate's batch toggle bits `d >> ls`,
    /// loaded from the harness's [`lane_lut`](super::lane_lut):
    /// all-ones lanes where the gate toggles, all-zeros elsewhere.
    ///
    /// The table load is what keeps the settle pass branch-free: the
    /// arithmetically equivalent `((bits >> j) & 1).wrapping_neg()`
    /// lets LLVM prove each mask is 0 or !0, canonicalize the AND in
    /// [`stl`] into a per-lane select, and lower that as a data-
    /// dependent *branch* per lane per gate — which both scalarizes
    /// the pass and mispredicts at the toggle rate. A load from a
    /// table LLVM cannot see through stays an AND and vectorizes.
    #[inline(always)]
    pub fn kp<const W: usize>(lut: &[Lanes<W>], d: u64, ls: usize) -> Lanes<W> {
        // The table holds a power-of-two entry count covering the `W`
        // index bits that matter (see `lane_lut`), so masking by
        // `len - 1` both selects the right entry and keeps the bounds
        // check trivially elidable.
        lut[((d >> ls) as usize) & (lut.len() - 1)]
    }

    /// Masked settle lanes: `latest + delay` in lanes where `keep` is
    /// all-ones (the gate toggles), bit-exact `+0.0` elsewhere — the
    /// identity the per-pair kernel's unchanged nets hold.
    #[inline(always)]
    pub fn stl<const W: usize>(latest: [f64; W], delay: f64, keep: Lanes<W>) -> [f64; W] {
        from_fn(|j| f64::from_bits((latest[j] + delay).to_bits() & keep[j]))
    }
}

/// Keep-mask table for [`ops::kp`]: entry `b` holds, per lane `j < W`,
/// all-ones iff bit `j` of `b` is set. Sized `2^W` — only the low `W`
/// bits of a gate's batch toggle word influence the entry, so at
/// W = 4 the table is 16 entries (512 B, L1-resident alongside the
/// scratch) instead of a fixed 256-entry 8 KiB of randomly-indexed L1
/// pressure, and the power-of-two length lets the index mask in
/// [`ops::kp`] elide the bounds check.
pub fn lane_lut<const W: usize>() -> Box<[Lanes<W>]> {
    assert!(W <= 8, "lane LUT supports widths up to 8");
    let lut: Vec<Lanes<W>> = (0..1u64 << W)
        .map(|b| std::array::from_fn(|j| ((b >> j) & 1).wrapping_neg()))
        .collect();
    lut.into_boxed_slice()
}

/// Steady-state pass over opcode/pin tables: evaluate every gate's
/// window lanes in topological order and write each net's transition
/// lanes (`plane ^ plane >> 1`, masked by `tmask`) into `diffs`.
/// Primary-input lanes must already be packed into `plane`.
pub fn table_plane_pass<const W: usize>(
    kinds: &[u8],
    pins: &[u32],
    plane: &mut [Lanes<W>],
    diffs: &mut [Lanes<W>],
    tmask: Lanes<W>,
) {
    let n = kinds.len();
    assert_eq!(pins.len(), 3 * n, "pin table stride");
    assert!(plane.len() >= n && diffs.len() >= n, "plane buffers");
    for i in 0..n {
        let p = &pins[i * 3..i * 3 + 3];
        let v0 = plane[p[0] as usize];
        let v1 = plane[p[1] as usize];
        let v2 = plane[p[2] as usize];
        let v = match kinds[i] {
            k if k == GateKind::Input as u8 || k == GateKind::Buf as u8 => v0,
            k if k == GateKind::Const0 as u8 => ops::c0(),
            k if k == GateKind::Const1 as u8 => ops::c1(),
            k if k == GateKind::Not as u8 => ops::inv(v0),
            k if k == GateKind::And2 as u8 => ops::and2(v0, v1),
            k if k == GateKind::Or2 as u8 => ops::or2(v0, v1),
            k if k == GateKind::Nand2 as u8 => ops::nand2(v0, v1),
            k if k == GateKind::Nor2 as u8 => ops::nor2(v0, v1),
            k if k == GateKind::Xor2 as u8 => ops::xor2(v0, v1),
            k if k == GateKind::Xnor2 as u8 => ops::xnor2(v0, v1),
            k if k == GateKind::Mux2 as u8 => ops::mux2(v0, v1, v2),
            k if k == GateKind::Maj3 as u8 => ops::maj3(v0, v1, v2),
            _ => unreachable!("invalid opcode"),
        };
        ops::st(v, tmask, plane, diffs, i);
    }
}

/// Settle pass over a slot-allocated plan: every net's `[f64; W]`
/// settle lanes written to its scratch slot in topological order,
/// masked to `+0.0` in lanes where the net does not toggle. Slot 0 is
/// the constant-zero sentinel read by self/forward padding pins
/// (re-zeroed here, so a poisoned scratch cannot leak). `dw` holds each
/// gate's toggle word for the batch's lane word (the harness's
/// word-major transpose); `ls` is the batch's bit offset within it.
///
/// A gate may legally write the slot one of its own fanins just
/// vacated (the allocator frees at last use *before* reassigning):
/// all three operand lanes are loaded before the store. Runs unchecked;
/// [`SpecializedKernel::new`] validates the program's tables once.
///
/// # Safety
///
/// `spins.len() == 3 * slots.len()`, `delay_bits.len() == slots.len()`,
/// `dw.len() >= slots.len()`, `lut.len() == 1 << W`, every element of
/// `slots` is non-zero and `< scratch.len()`, and every element of
/// `spins` is `< scratch.len()`.
unsafe fn table_settle_unchecked<const W: usize>(
    slots: &[u32],
    spins: &[u32],
    delay_bits: &[u64],
    scratch: &mut [[f64; W]],
    dw: &[u64],
    lut: &[Lanes<W>],
    ls: usize,
) {
    scratch[0] = [0.0; W];
    for i in 0..slots.len() {
        // SAFETY: slot/spin range and table lengths are the caller's
        // contract; `i < slots.len()` bounds the table reads.
        unsafe {
            let sp = spins.get_unchecked(3 * i..3 * i + 3);
            let a = *scratch.get_unchecked(sp[0] as usize);
            let b = *scratch.get_unchecked(sp[1] as usize);
            let c = *scratch.get_unchecked(sp[2] as usize);
            let latest = ops::m3(a, b, c);
            let keep = ops::kp(lut, *dw.get_unchecked(i), ls);
            let out = ops::stl(latest, f64::from_bits(*delay_bits.get_unchecked(i)), keep);
            *scratch.get_unchecked_mut(*slots.get_unchecked(i) as usize) = out;
        }
    }
}

/// Cacheline-aligned backing storage for the settle scratch. A plain
/// `Vec<[f64; 8]>` is only guaranteed 16-byte alignment, which makes
/// most 64-byte lane arrays straddle two cachelines — every load and
/// store in the settle loop then touches two lines instead of one.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([u8; 64]);

/// `count` zeroed `[f64; W]` lane arrays on a 64-byte-aligned base.
struct AlignedLanes<const W: usize> {
    buf: Vec<CacheLine>,
    count: usize,
}

impl<const W: usize> AlignedLanes<W> {
    fn zeroed(count: usize) -> Self {
        let bytes = count * W * 8;
        AlignedLanes {
            buf: vec![CacheLine([0; 64]); bytes.div_ceil(64)],
            count,
        }
    }

    fn as_mut(&mut self) -> &mut [[f64; W]] {
        // SAFETY: the buffer holds at least `count * W` f64-sized,
        // 64-byte-aligned bytes, all initialized (any bit pattern is a
        // valid f64), and `[f64; W]` has alignment 8 <= 64.
        unsafe {
            std::slice::from_raw_parts_mut(self.buf.as_mut_ptr() as *mut [f64; W], self.count)
        }
    }

    fn as_ref(&self) -> &[[f64; W]] {
        // SAFETY: as in `as_mut`.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const [f64; W], self.count) }
    }
}

/// Packed per-gate settle record: the three fanin slots, the writing
/// slot, and the delay bits in one 16-byte, cacheline-friendly load.
/// Slot indices are `u16`, so packing requires the scratch to stay
/// below `2^16` slots — true for every shipped unit even under the
/// full (identity) plan, with the `u32` table loop as the general
/// fallback. Packing matters because the settle loop is issue-port
/// bound: unpacked, each gate costs seven scalar table loads that
/// compete with the three lane-array vector loads for the two load
/// ports; packed, it is two.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct GateRec {
    /// Fanin slots (0 = constant-zero sentinel).
    sp: [u16; 3],
    /// Writing slot (never 0).
    slot: u16,
    /// Gate delay, `f64::to_bits`.
    delay_bits: u64,
}

/// [`GateRec`] table for a settle plan, or `None` if any slot index
/// overflows `u16`.
fn pack_records(slots: &[u32], spins: &[u32], delay_bits: &[u64]) -> Option<Vec<GateRec>> {
    if slots.iter().chain(spins).any(|&s| s > u16::MAX as u32) {
        return None;
    }
    Some(
        (0..slots.len())
            .map(|i| GateRec {
                sp: [
                    spins[3 * i] as u16,
                    spins[3 * i + 1] as u16,
                    spins[3 * i + 2] as u16,
                ],
                slot: slots[i] as u16,
                delay_bits: delay_bits[i],
            })
            .collect(),
    )
}

/// Packed-record settle pass, any lane width.
///
/// # Safety
///
/// Every `sp`/`slot` index in `recs` is `< scratch.len()`,
/// `dw.len() >= recs.len()`, and `lut.len() == 1 << W`.
unsafe fn packed_settle_unchecked<const W: usize>(
    recs: &[GateRec],
    scratch: &mut [[f64; W]],
    dw: &[u64],
    lut: &[Lanes<W>],
    ls: usize,
) {
    scratch[0] = [0.0; W];
    for i in 0..recs.len() {
        // SAFETY: record indices in range per the caller's contract;
        // `i < recs.len()` bounds the `dw` read.
        unsafe {
            let r = recs.get_unchecked(i);
            let a = *scratch.get_unchecked(r.sp[0] as usize);
            let b = *scratch.get_unchecked(r.sp[1] as usize);
            let c = *scratch.get_unchecked(r.sp[2] as usize);
            let latest = ops::m3(a, b, c);
            let keep = ops::kp(lut, *dw.get_unchecked(i), ls);
            let out = ops::stl(latest, f64::from_bits(r.delay_bits), keep);
            *scratch.get_unchecked_mut(r.slot as usize) = out;
        }
    }
}

/// AVX-512 settle pass at W = 8: one ZMM register per net's lane
/// array, and the batch's toggle byte used directly as the `maskz`
/// write mask — no keep-mask table load at all.
///
/// Bit-exact with the generic pass: `_mm512_max_pd(a, b)` returns `a`
/// iff `a > b` (else `b`), exactly the per-pair kernel's comparison chain
/// for never-NaN settle times, and `maskz` zeroes are the same `+0.0`
/// the keep-mask AND produces.
#[cfg(target_arch = "x86_64")]
mod zmm {
    use core::arch::x86_64::*;

    /// Whether the running CPU supports the W = 8 ZMM settle pass.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// # Safety
    ///
    /// Same table contract as [`super::table_settle_unchecked`] at
    /// W = 8 (no keep-mask table), plus AVX-512F support
    /// ([`available`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn settle_w8(
        slots: &[u32],
        spins: &[u32],
        delay_bits: &[u64],
        scratch: &mut [[f64; 8]],
        dw: &[u64],
        ls: usize,
    ) {
        scratch[0] = [0.0; 8];
        let base = scratch.as_mut_ptr() as *mut f64;
        for i in 0..slots.len() {
            // SAFETY: slot/spin range and table lengths are the
            // caller's contract; lane arrays are 8-aligned f64 runs,
            // loaded/stored unaligned.
            unsafe {
                let s0 = *spins.get_unchecked(3 * i) as usize;
                let s1 = *spins.get_unchecked(3 * i + 1) as usize;
                let s2 = *spins.get_unchecked(3 * i + 2) as usize;
                let a = _mm512_loadu_pd(base.add(s0 * 8));
                let b = _mm512_loadu_pd(base.add(s1 * 8));
                let c = _mm512_loadu_pd(base.add(s2 * 8));
                let latest = _mm512_max_pd(_mm512_max_pd(a, b), c);
                let d = _mm512_set1_pd(f64::from_bits(*delay_bits.get_unchecked(i)));
                let k = ((*dw.get_unchecked(i) >> ls) & 0xff) as __mmask8;
                let out = _mm512_maskz_add_pd(k, latest, d);
                _mm512_storeu_pd(base.add(*slots.get_unchecked(i) as usize * 8), out);
            }
        }
    }

    /// Batch-pair settle: two adjacent W = 8 batches in one sweep over
    /// an interleaved scratch where slot `s` holds batch 0's lanes at
    /// `[f64; 8]` entry `2s` and batch 1's at `2s + 1`. One record
    /// load and one diff-word load then serve both batches, cutting
    /// scalar load traffic ~40% in a loop bound on the two load ports;
    /// both batches' masks sit in the same diff word because the pair
    /// base is a multiple of 16 and 16 divides 64.
    ///
    /// # Safety
    ///
    /// Same table contract as [`super::packed_settle_unchecked`], with
    /// `scratch.len() >= 2 * slot_count` (interleaved pair layout) and
    /// `ls <= 48`, plus AVX-512F support ([`available`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn settle_w8_pair_packed(
        recs: &[super::GateRec],
        scratch: &mut [[f64; 8]],
        dw: &[u64],
        ls: usize,
    ) {
        scratch[0] = [0.0; 8];
        scratch[1] = [0.0; 8];
        let base = scratch.as_mut_ptr() as *mut f64;
        for i in 0..recs.len() {
            // SAFETY: record indices in range per the caller's
            // contract; `i < recs.len()` bounds the `dw` read.
            unsafe {
                let r = recs.get_unchecked(i);
                let (s0, s1, s2) = (
                    r.sp[0] as usize * 16,
                    r.sp[1] as usize * 16,
                    r.sp[2] as usize * 16,
                );
                let l0 = _mm512_max_pd(
                    _mm512_max_pd(_mm512_loadu_pd(base.add(s0)), _mm512_loadu_pd(base.add(s1))),
                    _mm512_loadu_pd(base.add(s2)),
                );
                let l1 = _mm512_max_pd(
                    _mm512_max_pd(
                        _mm512_loadu_pd(base.add(s0 + 8)),
                        _mm512_loadu_pd(base.add(s1 + 8)),
                    ),
                    _mm512_loadu_pd(base.add(s2 + 8)),
                );
                let d = _mm512_set1_pd(f64::from_bits(r.delay_bits));
                let w = *dw.get_unchecked(i) >> ls;
                let o0 = _mm512_maskz_add_pd((w & 0xff) as __mmask8, l0, d);
                let o1 = _mm512_maskz_add_pd(((w >> 8) & 0xff) as __mmask8, l1, d);
                let out = r.slot as usize * 16;
                _mm512_storeu_pd(base.add(out), o0);
                _mm512_storeu_pd(base.add(out + 8), o1);
            }
        }
    }
}

/// A slot allocation for the settle pass of one netlist: where each
/// gate writes, where each fanin pin reads, and which nets remain
/// exposed afterwards. Built by [`DynProgram`]; every allocation is
/// self-verified by replay before use.
#[derive(Debug, Clone)]
pub struct SettlePlan {
    /// Writing slot per gate (never 0, the zero sentinel).
    pub slots: Vec<u32>,
    /// Slot-resolved fanin pins, stride 3; 0 for self/forward pins.
    pub spins: Vec<u32>,
    /// Slot holding each net's value after the pass; `u32::MAX` if
    /// recycled.
    pub exposed: Vec<u32>,
    /// Scratch size, including slot 0.
    pub slot_count: usize,
}

impl SettlePlan {
    /// The trivial full-fidelity plan: gate `i` owns slot `i + 1`
    /// forever, so every net stays exposed. Matches the per-pair kernel's
    /// net-indexed settle array with one extra zero slot.
    pub fn full(c: &CompiledNetlist) -> Self {
        let n = c.len();
        let pins = c.pins();
        let slots: Vec<u32> = (0..n).map(|i| i as u32 + 1).collect();
        let spins = (0..3 * n)
            .map(|k| {
                let p = pins[k] as usize;
                if p < k / 3 {
                    p as u32 + 1
                } else {
                    0
                }
            })
            .collect();
        let plan = SettlePlan {
            spins,
            exposed: slots.clone(),
            slots,
            slot_count: n + 1,
        };
        plan.verify(c);
        plan
    }

    /// Liveness-compacted plan: each net's slot is freed at its last
    /// fanout reader and recycled LIFO; nets in `keep` (and any net
    /// whose slot never gets reused) stay exposed. Deterministic for a
    /// given `(netlist, keep)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `keep` names a net outside the netlist, or if the
    /// replay self-check finds a slot recycled while still live (an
    /// allocator bug, never an input condition).
    pub fn compacted(c: &CompiledNetlist, keep: &[u32]) -> Self {
        const NONE: u32 = u32::MAX;
        let n = c.len();
        let pins = c.pins();
        let mut kept = vec![false; n];
        for &k in keep {
            kept[k as usize] = true;
        }
        // Last gate reading each net (padding duplicates and
        // self/forward pins are harmless: same or no constraint).
        let mut last_use = vec![NONE; n];
        for i in 0..n {
            for s in 0..3 {
                let p = pins[i * 3 + s] as usize;
                if p < i {
                    last_use[p] = i as u32;
                }
            }
        }
        let mut slot_of = vec![NONE; n];
        let mut exposed = vec![NONE; n];
        let mut slots = Vec::with_capacity(n);
        let mut spins = Vec::with_capacity(3 * n);
        let mut owner: Vec<u32> = vec![NONE]; // slot -> owning gate; slot 0 reserved
        let mut free: Vec<u32> = Vec::new();
        for i in 0..n {
            for s in 0..3 {
                let p = pins[i * 3 + s] as usize;
                spins.push(if p < i { slot_of[p] } else { 0 });
            }
            // Free fanins at their last use *before* allocating, so a
            // gate can inherit a dying fanin's (cache-hot) slot — the
            // pass loads operands before it stores (see
            // `table_settle_unchecked`).
            for s in 0..3 {
                let p = pins[i * 3 + s] as usize;
                if p < i && last_use[p] == i as u32 && !kept[p] && slot_of[p] != NONE {
                    free.push(slot_of[p]);
                    slot_of[p] = NONE; // guards duplicate pins
                }
            }
            let slot = free.pop().unwrap_or_else(|| {
                owner.push(NONE);
                owner.len() as u32 - 1
            });
            // Reusing a slot un-exposes its previous owner.
            if owner[slot as usize] != NONE {
                exposed[owner[slot as usize] as usize] = NONE;
            }
            owner[slot as usize] = i as u32;
            exposed[i] = slot;
            slot_of[i] = slot;
            slots.push(slot);
            // A value nobody reads (and nobody keeps) dies immediately.
            if last_use[i] == NONE && !kept[i] {
                free.push(slot);
                slot_of[i] = NONE;
            }
        }
        let plan = SettlePlan {
            slots,
            spins,
            exposed,
            slot_count: owner.len(),
        };
        plan.verify(c);
        for &k in keep {
            assert_ne!(
                plan.exposed[k as usize], NONE,
                "kept net {k} lost its slot (allocator bug)"
            );
        }
        plan
    }

    /// Replay the allocation and assert every settle-pass read hits
    /// the slot that currently holds that fanin — the safety argument
    /// for trusting a plan without per-pass checks.
    fn verify(&self, c: &CompiledNetlist) {
        let n = c.len();
        let pins = c.pins();
        assert_eq!(self.slots.len(), n);
        assert_eq!(self.spins.len(), 3 * n);
        assert_eq!(self.exposed.len(), n);
        let mut holds: Vec<u32> = vec![u32::MAX; self.slot_count];
        for i in 0..n {
            for s in 0..3 {
                let p = pins[i * 3 + s] as usize;
                let spin = self.spins[i * 3 + s];
                if p < i {
                    assert_eq!(
                        holds[spin as usize], p as u32,
                        "gate {i} pin {s}: slot {spin} does not hold net {p}"
                    );
                } else {
                    assert_eq!(spin, 0, "gate {i} pin {s}: forward pin must read slot 0");
                }
            }
            let w = self.slots[i];
            assert!(
                w != 0 && (w as usize) < self.slot_count,
                "gate {i}: writing slot {w} out of range"
            );
            holds[w as usize] = i as u32;
        }
        for (net, &e) in self.exposed.iter().enumerate() {
            if e != u32::MAX {
                assert_eq!(
                    holds[e as usize], net as u32,
                    "net {net}: exposed slot {e} overwritten"
                );
            }
        }
    }
}

/// The window-protocol harness over a borrowed [`DynProgram`]: owns the
/// lane planes, the word-major toggle transpose, and the slot-allocated
/// settle scratch; packs input windows and drives the table passes.
/// Implements [`ArrivalEngine`] bit-identically to the per-pair
/// [`ArrivalKernel`](crate::ArrivalKernel) on every exposed net (see
/// the module docs for the exposure contract).
pub struct SpecializedKernel<'p, const W: usize> {
    /// The program's tables, validated once in
    /// [`SpecializedKernel::new`]. The per-batch hot loop runs
    /// unchecked over them; the shared borrow keeps them fixed for the
    /// kernel's lifetime.
    program: &'p DynProgram,
    plane: Vec<Lanes<W>>,
    diffs: Vec<Lanes<W>>,
    /// Word-major toggle transpose: `diffs_t[w * n + i]` is net `i`'s
    /// diff word `w`, so one settle batch reads 8 contiguous bytes per
    /// gate instead of a strided `[u64; W]`.
    diffs_t: Vec<u64>,
    scratch: AlignedLanes<W>,
    /// [`GateRec`] packing of the program's settle tables, when every
    /// slot index fits `u16` (always, for the shipped bank).
    packed: Option<Vec<GateRec>>,
    lut: Box<[Lanes<W>]>,
    /// Whether batches run the AVX-512 passes of the `zmm` module
    /// (`W == 8` on a CPU with AVX-512F). Decided once at
    /// construction.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    zmm: bool,
    /// Batch-pair mode (see `zmm::settle_w8_pair_packed`): the settle
    /// pass covers `2 * W` transitions per sweep and `scratch` holds
    /// `2 * slot_count` lane arrays in the interleaved pair layout.
    /// Decided once at construction.
    pair: bool,
    /// One-shot per-transition keep mask for the next `load_window`
    /// (empty = keep everything); see
    /// [`ArrivalEngine::set_window_keep_mask`].
    win_mask: Vec<u64>,
    win_count: usize,
    view_t: usize,
    batch_base: usize,
}

impl<'p, const W: usize> SpecializedKernel<'p, W> {
    /// Vectors per bit-sliced window at this lane width.
    pub const WINDOW_VECTORS: usize = W * 64;

    /// A kernel over `program` with all buffers pre-sized.
    ///
    /// # Panics
    ///
    /// Panics if the program's tables are inconsistent (wrong strides,
    /// pin or slot indices out of range, a gate writing the zero
    /// sentinel).
    pub fn new(program: &'p DynProgram) -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx512 = zmm::available();
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        Self::with_avx512(program, avx512)
    }

    /// [`SpecializedKernel::new`] with the AVX-512 choice made by the
    /// caller: `false` runs the generic passes on any CPU; `true`
    /// requires AVX-512F.
    fn with_avx512(program: &'p DynProgram, avx512: bool) -> Self {
        let n = program.kinds.len();
        let plan = &program.plan;
        let m = plan.slot_count;
        assert_eq!(program.pins.len(), 3 * n, "pin table stride");
        assert_eq!(program.delay_bits.len(), n, "delay table length");
        assert_eq!(plan.slots.len(), n, "slot table length");
        assert_eq!(plan.spins.len(), 3 * n, "spin table stride");
        assert!(
            program.pins.iter().all(|&p| (p as usize) < n),
            "pin index out of range"
        );
        assert!(
            plan.slots.iter().all(|&s| s != 0 && (s as usize) < m),
            "settle slot out of range"
        );
        assert!(
            plan.spins.iter().all(|&s| (s as usize) < m),
            "spin slot out of range"
        );
        let packed = pack_records(&plan.slots, &plan.spins, &program.delay_bits);
        let zmm = W == 8 && avx512;
        let pair = zmm && packed.is_some();
        SpecializedKernel {
            program,
            plane: vec![[0; W]; n],
            diffs: vec![[0; W]; n],
            diffs_t: vec![0; W * n],
            scratch: AlignedLanes::zeroed(if pair { 2 * m } else { m }),
            packed,
            lut: lane_lut::<W>(),
            zmm,
            pair,
            win_mask: Vec::new(),
            win_count: 0,
            view_t: 0,
            batch_base: usize::MAX,
        }
    }

    /// Settle value of `slot` at `lane` transitions past `batch_base`,
    /// layout-aware: paired scratch interleaves the two batches of a
    /// sweep (slot `s` at entries `2s` and `2s + 1`), single-batch
    /// scratch indexes slots directly.
    #[inline]
    fn settle_at(&self, slot: usize, lane: usize) -> f64 {
        let s = self.scratch.as_ref();
        if self.pair {
            s[2 * slot + lane / W][lane % W]
        } else {
            s[slot][lane]
        }
    }
}

impl<const W: usize> ArrivalEngine for SpecializedKernel<'_, W> {
    fn lanes(&self) -> usize {
        W
    }

    fn set_window_keep_mask(&mut self, keep: &[u64]) {
        self.win_mask.clear();
        self.win_mask.extend_from_slice(keep);
    }

    fn load_window(&mut self, flat: &[bool], count: usize) {
        let width = self.program.inputs.len();
        assert!((1..=Self::WINDOW_VECTORS).contains(&count), "window size");
        assert_eq!(flat.len(), count * width, "window buffer size");
        self.win_count = count;
        self.view_t = 0;
        self.batch_base = usize::MAX;

        // Pack each input's window values into its bit lane.
        for (k, &net) in self.program.inputs.iter().enumerate() {
            let mut lane = [0u64; W];
            for (v, chunk) in flat.chunks_exact(width).enumerate() {
                lane[v >> 6] |= u64::from(chunk[k]) << (v & 63);
            }
            self.plane[net as usize] = lane;
        }

        // Mask off diff lanes beyond the last valid transition, plus
        // any the caller masked out (seams between packed runs).
        let valid = count - 1;
        let tmask: Lanes<W> = std::array::from_fn(|w| {
            let lo = w * 64;
            let base = if valid >= lo + 64 {
                !0
            } else if valid > lo {
                (1u64 << (valid - lo)) - 1
            } else {
                0
            };
            let keep = if self.win_mask.is_empty() {
                !0
            } else {
                self.win_mask.get(w).copied().unwrap_or(0)
            };
            base & keep
        });
        self.win_mask.clear();
        table_plane_pass(
            &self.program.kinds,
            &self.program.pins,
            &mut self.plane,
            &mut self.diffs,
            tmask,
        );

        // Word-major transpose, once per window (settle batches then
        // stream one u64 per gate instead of the whole lane array).
        let n = self.diffs.len();
        for w in 0..W {
            let dst = &mut self.diffs_t[w * n..(w + 1) * n];
            for (d, t) in self.diffs.iter().zip(dst.iter_mut()) {
                *t = d[w];
            }
        }
    }

    fn window_transitions(&self) -> usize {
        self.win_count.saturating_sub(1)
    }

    fn select_transition(&mut self, t: usize) {
        assert!(self.win_count > 0, "no window loaded");
        assert!(t + 1 < self.win_count, "transition out of range");
        self.view_t = t;
        let sweep = if self.pair { 2 * W } else { W };
        let base = t - (t % sweep);
        if self.batch_base == base {
            return;
        }
        self.batch_base = base;
        self.settle_pass(base);
        #[cfg(feature = "sanitize-arrivals")]
        for (net, &slot) in self.program.plan.exposed.iter().enumerate() {
            if slot == u32::MAX {
                continue;
            }
            let bound = self.program.bounds[net];
            for lane in 0..sweep {
                let s = self.settle_at(slot as usize, lane);
                assert!(
                    s <= bound + 1e-9,
                    "sanitize-arrivals: net n{net} settled at {s} past its static bound \
                     {bound} (transition {})",
                    base + lane
                );
            }
        }
    }

    fn cur(&self, net: NetId) -> bool {
        lane_bit(&self.plane[net.index()], self.view_t + 1)
    }

    fn prev(&self, net: NetId) -> bool {
        lane_bit(&self.plane[net.index()], self.view_t)
    }

    fn changed(&self, net: NetId) -> bool {
        lane_bit(&self.diffs[net.index()], self.view_t)
    }

    fn settle_exposed(&self, net: NetId) -> bool {
        self.program.plan.exposed[net.index()] != u32::MAX
    }

    fn settle_of(&self, net: NetId) -> f64 {
        let slot = self.program.plan.exposed[net.index()];
        assert!(
            slot != u32::MAX,
            "settle of net {} was recycled (not in this program's keep set)",
            net.index()
        );
        self.settle_at(slot as usize, self.view_t - self.batch_base)
    }

    fn snapshot_into(&self, out: &mut TwoVectorResult) {
        let n = self.plane.len();
        let lane = self.view_t - self.batch_base;
        out.settle.clear();
        out.settle
            .extend(self.program.plan.exposed.iter().map(|&slot| {
                // Recycled nets report 0.0; full-fidelity programs
                // expose every net, so snapshots over them are exact.
                if slot == u32::MAX {
                    0.0
                } else {
                    self.settle_at(slot as usize, lane)
                }
            }));
        out.prev.clear();
        out.cur.clear();
        out.prev.reserve(n);
        out.cur.reserve(n);
        for i in 0..n {
            out.cur.push(lane_bit(&self.plane[i], self.view_t + 1));
            out.prev.push(lane_bit(&self.plane[i], self.view_t));
        }
    }
}

impl<const W: usize> SpecializedKernel<'_, W> {
    /// Compute the settle lanes of the sweep starting at transition
    /// `base` (a multiple of the sweep width, so the sweep's bits live
    /// in one word of each net's diff lanes, because the sweep width
    /// divides 64).
    fn settle_pass(&mut self, base: usize) {
        let n = self.plane.len();
        let lw = base >> 6;
        let dw = &self.diffs_t[lw * n..lw * n + n];
        let ls = base & 63;
        let program = self.program;
        let plan = &program.plan;
        // SAFETY: the program's tables (and their `packed` form) were
        // validated at construction (strides, non-zero slots, every
        // index below the slot count; paired scratch holds twice that)
        // and stay fixed while borrowed; `dw` is one word per gate and
        // `lut` holds `1 << W` entries by construction.
        #[cfg(target_arch = "x86_64")]
        if self.zmm {
            // SAFETY (cast): `W == 8` here, so `[[f64; W]]` and
            // `[[f64; 8]]` are the same layout.
            let scratch8 = unsafe {
                std::slice::from_raw_parts_mut(
                    self.scratch.as_mut().as_mut_ptr() as *mut [f64; 8],
                    self.scratch.count,
                )
            };
            unsafe {
                match &self.packed {
                    // `pair` is true whenever `zmm` is and records
                    // packed (see `with_avx512`), so the packed arm is
                    // always the pair sweep and `ls` is a multiple of
                    // 16 (<= 48).
                    Some(recs) => zmm::settle_w8_pair_packed(recs, scratch8, dw, ls),
                    None => zmm::settle_w8(
                        &plan.slots,
                        &plan.spins,
                        &program.delay_bits,
                        scratch8,
                        dw,
                        ls,
                    ),
                }
            };
            return;
        }
        unsafe {
            match &self.packed {
                Some(recs) => {
                    packed_settle_unchecked(recs, self.scratch.as_mut(), dw, &self.lut, ls)
                }
                None => table_settle_unchecked(
                    &plan.slots,
                    &plan.spins,
                    &program.delay_bits,
                    self.scratch.as_mut(),
                    dw,
                    &self.lut,
                    ls,
                ),
            }
        };
    }
}

/// A table program built at runtime from a [`CompiledNetlist`]: the
/// opcode, pin and delay tables plus a [`SettlePlan`].
/// [`DynProgram::new`] uses the full (identity) plan — every net
/// exposed — and is the property-test control for the
/// [`SpecializedKernel`] harness; [`DynProgram::compacted`] is the
/// liveness-compacted program every shipped FPU unit's DTA runs on.
#[derive(Debug, Clone)]
pub struct DynProgram {
    /// Gate opcodes (compiled `GateKind` discriminants), topological
    /// order.
    kinds: Vec<u8>,
    /// Net-indexed fanin pins, fixed stride 3, padded by repetition
    /// (the plane pass operand table).
    pins: Vec<u32>,
    /// Per-gate propagation delays as raw `f64` bits.
    delay_bits: Vec<u64>,
    /// Primary input nets in declaration order.
    inputs: Vec<u32>,
    plan: SettlePlan,
    /// Static arrival bound per net, asserted against every exposed
    /// settle time under `sanitize-arrivals`.
    #[cfg(feature = "sanitize-arrivals")]
    bounds: Vec<f64>,
}

impl DynProgram {
    /// A full-fidelity dynamic program over `compiled` (every net
    /// exposed).
    pub fn new(compiled: &CompiledNetlist) -> Self {
        Self::with_plan(compiled, SettlePlan::full(compiled))
    }

    /// A slot-compacted dynamic program over `compiled`, keeping the
    /// nets in `keep` exposed (see [`SettlePlan::compacted`]).
    pub fn compacted(compiled: &CompiledNetlist, keep: &[u32]) -> Self {
        Self::with_plan(compiled, SettlePlan::compacted(compiled, keep))
    }

    fn with_plan(compiled: &CompiledNetlist, plan: SettlePlan) -> Self {
        DynProgram {
            kinds: compiled.kinds().to_vec(),
            pins: compiled.pins().to_vec(),
            delay_bits: compiled.delays().iter().map(|d| d.to_bits()).collect(),
            inputs: compiled.input_nets().to_vec(),
            plan,
            #[cfg(feature = "sanitize-arrivals")]
            bounds: compiled.static_bounds().to_vec(),
        }
    }

    /// The program's settle plan.
    pub fn plan(&self) -> &SettlePlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_netlist::{CellLibrary, Netlist};

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny", CellLibrary::nangate45_like());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let x = nl.add_gate(GateKind::Xor2, &[a, b]);
        let y = nl.add_gate(GateKind::Nand2, &[x, a]);
        nl.mark_output_bus("r", &[x, y]);
        nl
    }

    /// A chain netlist compacts to O(1) slots when only the sink is
    /// kept: each link's slot is recycled at its single reader.
    fn chain(len: usize) -> Netlist {
        let mut nl = Netlist::new("chain", CellLibrary::nangate45_like());
        let mut cur = nl.add_input_bit();
        let mut last = cur;
        for _ in 0..len {
            last = nl.add_gate(GateKind::Not, &[cur]);
            cur = last;
        }
        nl.mark_output_bus("r", &[last]);
        nl
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let nl = tiny();
        let c1 = CompiledNetlist::compile(&nl);
        let c2 = CompiledNetlist::compile(&nl);
        assert_eq!(c1.fingerprint(), c2.fingerprint(), "deterministic");
        let mut other = tiny();
        other.scale_all_delays(1.5);
        let c3 = CompiledNetlist::compile(&other);
        assert_ne!(
            c1.fingerprint(),
            c3.fingerprint(),
            "delay changes must change the fingerprint"
        );
    }

    #[test]
    fn compacted_plan_recycles_chain_slots() {
        let nl = chain(64);
        let c = CompiledNetlist::compile(&nl);
        let sink = c.len() as u32 - 1;
        let plan = SettlePlan::compacted(&c, &[sink]);
        // One live link at a time plus the kept sink and the zero
        // sentinel: far fewer slots than nets.
        assert!(
            plan.slot_count <= 4,
            "chain should compact to O(1) slots, got {}",
            plan.slot_count
        );
        assert_ne!(plan.exposed[sink as usize], u32::MAX, "sink stays exposed");
        // Interior links are recycled.
        assert!(
            (1..c.len() - 1).any(|i| plan.exposed[i] == u32::MAX),
            "interior chain nets should be recycled"
        );
    }

    /// A random topologically ordered DAG over `n_inputs` inputs and
    /// `n_gates` logic gates, with the last 16 nets as its output bus.
    fn random_dag(n_inputs: usize, n_gates: usize, seed: u64) -> Netlist {
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut nl = Netlist::new("dag", CellLibrary::nangate45_like());
        let mut nets: Vec<NetId> = (0..n_inputs).map(|_| nl.add_input_bit()).collect();
        let kinds = GateKind::all_logic();
        for _ in 0..n_gates {
            let kind = kinds[next() as usize % kinds.len()];
            let pins: Vec<NetId> = (0..kind.arity())
                .map(|_| nets[next() as usize % nets.len()])
                .collect();
            nets.push(nl.add_gate(kind, &pins));
        }
        nl.mark_output_bus("r", &nets[nets.len() - 16..]);
        nl
    }

    /// The AVX-512 pair pass and the generic W = 8 pass must produce
    /// bit-identical settle times on every exposed net, over full and
    /// partial windows, for both the full and the compacted plan.
    #[test]
    fn zmm_pair_pass_matches_generic_w8_pass() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = zmm::available();
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        if !avx512 {
            eprintln!("zmm_pair_pass_matches_generic_w8_pass: no avx512f on this CPU, skipped");
            return;
        }
        let nl = random_dag(24, 600, 0x9e37_79b9_7f4a_7c15);
        let c = CompiledNetlist::compile(&nl);
        let keep: Vec<u32> = (c.len() as u32 - 16..c.len() as u32).collect();
        let width = c.input_nets().len();
        for program in [DynProgram::new(&c), DynProgram::compacted(&c, &keep)] {
            let mut zmm = SpecializedKernel::<8>::with_avx512(&program, true);
            let mut generic = SpecializedKernel::<8>::with_avx512(&program, false);
            assert!(zmm.pair && !generic.zmm, "one pair pass, one generic pass");
            let mut rng = 0x0dd_ba11u64;
            let mut flat = vec![false; 512 * width];
            for count in [512usize, 301] {
                for bit in flat.iter_mut() {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    *bit = rng & 1 == 1;
                }
                zmm.load_window(&flat[..count * width], count);
                generic.load_window(&flat[..count * width], count);
                for t in 0..count - 1 {
                    zmm.select_transition(t);
                    generic.select_transition(t);
                    for net in (0..c.len()).map(NetId::from_index) {
                        if zmm.settle_exposed(net) {
                            assert_eq!(
                                zmm.settle_of(net).to_bits(),
                                generic.settle_of(net).to_bits(),
                                "window of {count}, t={t}, net {}",
                                net.index()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_plan_exposes_every_net() {
        let nl = tiny();
        let c = CompiledNetlist::compile(&nl);
        let plan = SettlePlan::full(&c);
        assert_eq!(plan.slot_count, c.len() + 1);
        assert!(plan.exposed.iter().all(|&e| e != u32::MAX));
    }
}
