//! FPU unit generation and post-P&R-style delay calibration.

use crate::{addsub, cvt, div, mul};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tei_netlist::{CellLibrary, NetId, Netlist};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{transpose64, CompiledNetlist, DynProgram, SpecializedKernel, Sta};

/// Calibration targets: the nominal critical delay of each FPU datapath,
/// in nanoseconds, plus the core clock period.
///
/// The defaults reproduce the paper's published corner: 4.5 ns minimum
/// clock; only double-precision arithmetic paths are near-critical, ordered
/// `mul > sub > div ≈ add`, with conversions and all single-precision paths
/// short enough to stay safe at both studied voltage-reduction levels
/// (Figure 4 / Figure 7 structure). Each generated netlist is scaled so its
/// static critical path matches its target exactly — the substitution for
/// the NanGate 45 nm post-place-and-route data we do not have (DESIGN.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpuTimingSpec {
    /// Clock period in nanoseconds (the paper's 4.5 ns).
    pub clk: f64,
    targets: [f64; 12],
}

impl FpuTimingSpec {
    /// The paper-calibrated defaults described above.
    pub fn paper_calibrated() -> Self {
        let mut targets = [0.0; 12];
        let set = |targets: &mut [f64; 12], kind, precision, v| {
            targets[FpOp::new(kind, precision).index()] = v;
        };
        use FpOpKind::*;
        use Precision::*;
        set(&mut targets, Add, Double, 3.35);
        set(&mut targets, Sub, Double, 4.10);
        set(&mut targets, Mul, Double, 4.40);
        set(&mut targets, Div, Double, 3.30);
        set(&mut targets, ItoF, Double, 2.40);
        set(&mut targets, FtoI, Double, 2.30);
        set(&mut targets, Add, Single, 2.45);
        set(&mut targets, Sub, Single, 2.50);
        set(&mut targets, Mul, Single, 2.65);
        set(&mut targets, Div, Single, 2.55);
        set(&mut targets, ItoF, Single, 1.90);
        set(&mut targets, FtoI, Single, 1.85);
        FpuTimingSpec { clk: 4.5, targets }
    }

    /// Critical-delay target for `op` in nanoseconds.
    pub fn target(&self, op: FpOp) -> f64 {
        self.targets[op.index()]
    }
}

impl Default for FpuTimingSpec {
    fn default() -> Self {
        FpuTimingSpec::paper_calibrated()
    }
}

/// A filesystem-safe short tag for an operation, used in port and block
/// names: `fp-mul-d`, `i2f-s`, ...
pub fn short_tag(op: FpOp) -> String {
    let p = match op.precision {
        Precision::Single => "s",
        Precision::Double => "d",
    };
    match op.kind {
        FpOpKind::Add => format!("fp-add-{p}"),
        FpOpKind::Sub => format!("fp-sub-{p}"),
        FpOpKind::Mul => format!("fp-mul-{p}"),
        FpOpKind::Div => format!("fp-div-{p}"),
        FpOpKind::ItoF => format!("i2f-{p}"),
        FpOpKind::FtoI => format!("f2i-{p}"),
    }
}

/// Build the datapath for `op` into `nl` under the given `tag` (creates
/// ports `{tag}/a`, optionally `{tag}/b`, and `{tag}/result`).
pub fn build_datapath(nl: &mut Netlist, op: FpOp, tag: &str) {
    let fmt = op.format();
    match op.kind {
        FpOpKind::Add => addsub::build_addsub(nl, fmt, false, tag),
        FpOpKind::Sub => addsub::build_addsub(nl, fmt, true, tag),
        FpOpKind::Mul => mul::build_mul(nl, fmt, tag),
        FpOpKind::Div => div::build_div(nl, fmt, tag),
        FpOpKind::ItoF => cvt::build_i2f(nl, op.precision, tag),
        FpOpKind::FtoI => cvt::build_f2i(nl, op.precision, tag),
    }
}

/// One generated, delay-calibrated FPU unit.
///
/// Two calibrations are applied (see DESIGN.md):
///
/// 1. **Static** — every gate delay is scaled so the netlist's STA critical
///    path equals the published target for this operation. This is what the
///    whole-core Figure 4 census sees.
/// 2. **Dynamic** — the glitch-free arrival engine under-sensitizes paths
///    relative to glitch-accurate gate-level simulation, so a per-unit
///    correction factor γ = target / (observed dynamic settle maximum ×
///    margin) is derived from a fixed reference operand ensemble. The
///    DTA-facing netlist ([`FpuUnit::dta_netlist`]) carries delays × γ, which
///    places the dynamically excited tail at the published corner while the
///    exponential carry-run tail of the ripple structures supplies the
///    paper's thin error-rate tails.
#[derive(Debug, Clone)]
pub struct FpuUnit {
    op: FpOp,
    tag: String,
    netlist: Netlist,
    gamma: f64,
    a_width: usize,
    b_width: usize,
    /// Lazily compiled γ-scaled DTA netlist, shared by every campaign
    /// touching this unit.
    dta_compiled: OnceLock<CompiledNetlist>,
    /// Lazily built table program over `dta_compiled`.
    dta_program: OnceLock<DynProgram>,
}

/// Safety margin keeping workload operands that settle slightly later than
/// the reference ensemble free of errors at the nominal voltage.
const GAMMA_MARGIN: f64 = 1.05;

/// Number of operand pairs in the γ-calibration reference ensemble.
/// Debug builds use a reduced ensemble to keep test turnaround fast; the
/// released (optimized) calibration is the 1024-pair ensemble.
const GAMMA_SAMPLES: usize = if cfg!(debug_assertions) { 128 } else { 1024 };

impl FpuUnit {
    /// Generate and calibrate the unit for `op`. The dynamic
    /// calibration runs the reference ensemble through the table kernel
    /// ([`SpecializedKernel`] over a [`DynProgram`] compacted around the
    /// result port); the per-pair
    /// [`ArrivalSim`](tei_timing::ArrivalSim) is its test oracle.
    /// d-mul, the largest unit, generates in about 5 ms on a 2-vCPU
    /// AVX-512 host.
    pub fn generate(op: FpOp, spec: &FpuTimingSpec) -> Self {
        let tag = short_tag(op);
        let mut nl = Netlist::new(&tag, CellLibrary::nangate45_like());
        build_datapath(&mut nl, op, &tag);
        // Static calibration: pin the STA critical delay to the target.
        let sta = Sta::analyze(&nl);
        let max = sta.max_delay();
        assert!(max > 0.0, "degenerate datapath for {op}");
        nl.scale_all_delays(spec.target(op) / max);
        // Sweep logic outside the result cone, as synthesis would before
        // handoff. The sweep preserves the output cone (and so every
        // downstream timing result) exactly; it runs after the static
        // calibration so the scale factor is still derived from the
        // as-built datapath.
        let nl = nl.sweep_dead();
        let a_width = nl.input_port(&format!("{tag}/a")).expect("a port").len();
        let b_width = nl.input_port(&format!("{tag}/b")).map_or(0, <[NetId]>::len);
        let mut unit = FpuUnit {
            op,
            tag,
            netlist: nl,
            gamma: 1.0,
            a_width,
            b_width,
            dta_compiled: OnceLock::new(),
            dta_program: OnceLock::new(),
        };
        // Dynamic calibration: measure the glitch-free settle maximum on
        // the reference ensemble and derive γ.
        let dyn_max = unit.reference_dynamic_max();
        assert!(dyn_max > 0.0, "no dynamic activity for {op}");
        unit.gamma = spec.target(op) / (dyn_max * GAMMA_MARGIN);
        unit
    }

    /// Maximum output settle time over the fixed reference ensemble, on
    /// the unscaled netlist. The ensemble runs through the table kernel
    /// in windows of 512 vectors that overlap by one, so every
    /// transition is analyzed exactly as a chained per-pair walk would.
    fn reference_dynamic_max(&self) -> f64 {
        let vectors = reference_vectors(self.op);
        let compiled = CompiledNetlist::compile(&self.netlist);
        let program = DynProgram::compacted(&compiled, &self.result_keep());
        let mut kernel = SpecializedKernel::new(&program);
        let window = SpecializedKernel::WINDOW_VECTORS;
        let mut lanes = vec![0; self.input_width() * SpecializedKernel::LANES];
        let mut max = 0.0f64;
        for start in (0..vectors.len() - 1).step_by(window - 1) {
            let chunk = &vectors[start..vectors.len().min(start + window)];
            self.pack_lanes(chunk, &mut lanes);
            kernel.load_window(&lanes, chunk.len());
            for t in 0..kernel.window_transitions() {
                kernel.select_transition(t);
                for &net in self.result_port() {
                    max = max.max(kernel.settle_of(net));
                }
            }
        }
        max
    }

    /// The dynamic sensitization correction factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// A copy of the netlist with delays scaled by γ — the netlist dynamic
    /// timing analysis should run on.
    pub fn dta_netlist(&self) -> Netlist {
        let mut nl = self.netlist.clone();
        nl.scale_all_delays(self.gamma);
        nl
    }

    /// The γ-scaled DTA netlist in compiled (structure-of-arrays) form,
    /// built on first use and cached for the lifetime of the unit.
    pub fn dta_compiled(&self) -> &CompiledNetlist {
        self.dta_compiled
            .get_or_init(|| CompiledNetlist::compile(&self.dta_netlist()))
    }

    /// The table program DTA runs on: [`FpuUnit::dta_compiled`] with its
    /// settle plan compacted around the result port, the only nets whose
    /// settle times a campaign reads. Built on first use (about 1 ms for
    /// the largest unit) and cached for the lifetime of the unit.
    pub fn dta_program(&self) -> &DynProgram {
        self.dta_program
            .get_or_init(|| DynProgram::compacted(self.dta_compiled(), &self.result_keep()))
    }

    /// The result port as the keep set of a compacted [`DynProgram`].
    fn result_keep(&self) -> Vec<u32> {
        self.result_port()
            .iter()
            .map(|n| n.index() as u32)
            .collect()
    }

    /// The modeled operation.
    pub fn op(&self) -> FpOp {
        self.op
    }

    /// The unit's port/block tag.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The calibrated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The result port nets.
    pub fn result_port(&self) -> &[NetId] {
        self.netlist
            .output_port(&format!("{}/result", self.tag))
            .expect("result port")
    }

    /// Result width in bits.
    pub fn result_width(&self) -> usize {
        self.result_port().len()
    }

    /// Primary-input vector width (`a` bits followed by `b` bits).
    pub fn input_width(&self) -> usize {
        self.a_width + self.b_width
    }

    /// Encode raw operand bits into the netlist's primary-input vector.
    /// Unary operations ignore `b`.
    pub fn encode_inputs(&self, a: u64, b: u64) -> Vec<bool> {
        let mut bits = vec![false; self.input_width()];
        self.encode_inputs_into(a, b, &mut bits);
        bits
    }

    /// Allocation-free [`encode_inputs`](FpuUnit::encode_inputs): write
    /// the encoding into `out`, which must be
    /// [`input_width`](FpuUnit::input_width) long.
    ///
    /// # Panics
    ///
    /// Panics when `out` has the wrong length.
    pub fn encode_inputs_into(&self, a: u64, b: u64, out: &mut [bool]) {
        assert_eq!(out.len(), self.input_width(), "encode buffer width");
        for (i, slot) in out[..self.a_width].iter_mut().enumerate() {
            *slot = (a >> i) & 1 == 1;
        }
        for (i, slot) in out[self.a_width..].iter_mut().enumerate() {
            *slot = (b >> i) & 1 == 1;
        }
    }

    /// Pack a window of operand pairs straight into the input lanes
    /// [`SpecializedKernel::load_window`] takes, `L` =
    /// [`SpecializedKernel::LANES`] words per input: bit `v % 64` of
    /// `out[k * L + v / 64]` is bit `k` of
    /// [`encode_inputs`](FpuUnit::encode_inputs)`(vectors[v])`. Each
    /// 64-vector block of an operand is one 64×64 bit transpose; bits
    /// past `vectors.len()` are zero.
    ///
    /// # Panics
    ///
    /// Panics when `vectors` holds more than
    /// [`SpecializedKernel::WINDOW_VECTORS`] pairs or
    /// `out.len() != input_width() * L`.
    pub fn pack_lanes(&self, vectors: &[(u64, u64)], out: &mut [u64]) {
        let lanes = SpecializedKernel::LANES;
        assert!(
            vectors.len() <= SpecializedKernel::WINDOW_VECTORS,
            "window holds WINDOW_VECTORS vectors"
        );
        assert_eq!(out.len(), self.input_width() * lanes, "lane buffer size");
        out.fill(0);
        for (w, chunk) in vectors.chunks(64).enumerate() {
            let (mut a, mut b) = ([0u64; 64], [0u64; 64]);
            for (v, &(x, y)) in chunk.iter().enumerate() {
                a[v] = x;
                b[v] = y;
            }
            transpose64(&mut a);
            transpose64(&mut b);
            let bits = a[..self.a_width].iter().chain(&b[..self.b_width]);
            for (k, &lane) in bits.enumerate() {
                out[k * lanes + w] = lane;
            }
        }
    }

    /// Functionally evaluate the unit (no timing).
    pub fn eval_bits(&self, a: u64, b: u64) -> u64 {
        let values = self.netlist.eval(&self.encode_inputs(a, b));
        let port = self.result_port();
        tei_netlist::bus_value_u64(&values, port)
    }
}

/// Minimal deterministic RNG (SplitMix64) so unit generation needs no
/// external randomness and is reproducible across builds.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One operand of the γ-calibration reference ensemble: a mix of
/// significant-mantissa widths and exponents representative of numeric
/// workloads (narrow "round" values through full-width irrationals).
fn reference_operand(rng: &mut SplitMix, op: FpOp) -> u64 {
    if op.kind == FpOpKind::ItoF {
        // Mixed-magnitude integers.
        let bits = rng.range(1, op.precision.int_bits() as u64 + 1);
        let raw = rng.next() >> (64 - bits);
        let v = if rng.next() & 1 == 1 {
            (raw as i64).wrapping_neg()
        } else {
            raw as i64
        };
        match op.precision {
            Precision::Double => v as u64,
            Precision::Single => (v as i32) as u32 as u64,
        }
    } else {
        let fmt = op.format();
        let f = fmt.frac_bits as u64;
        let widths = [0, 2, 4, 8, f / 4, f / 2, 3 * f / 4, f, f, f];
        let w = widths[rng.range(0, widths.len() as u64) as usize].min(f);
        let frac = if w == 0 {
            0
        } else {
            ((rng.next() | (1 << 63)) >> (64 - w)) << (f - w)
        };
        let e_lo = (fmt.bias() as u64).saturating_sub(120).max(1);
        let e_hi = fmt.bias() as u64 + 120;
        let exp = rng.range(e_lo, e_hi);
        let sign = rng.next() & 1;
        (sign << (fmt.width() - 1)) | (exp << f) | (frac & ((1u64 << f) - 1))
    }
}

/// One operand pair of the calibration ensemble. Most pairs are
/// independent mixed-width values; a fraction are adversarial
/// (near-cancellation and matched-exponent pairs) so the ensemble reaches
/// the deep normalization and carry paths that rare workload data excites.
fn reference_pair(rng: &mut SplitMix, op: FpOp) -> (u64, u64) {
    let a = reference_operand(rng, op);
    if op.kind == FpOpKind::ItoF || op.kind == FpOpKind::FtoI {
        return (a, 0);
    }
    let fmt = op.format();
    let f = fmt.frac_bits as u64;
    let b = match rng.range(0, 8) {
        // Near-cancellation: same magnitude, a few low bits perturbed,
        // both sign agreements.
        0 => (a ^ rng.range(1, 16)) ^ (1u64 << (fmt.width() - 1)),
        1 => a ^ rng.range(1, 16),
        // Matched exponent, independent mantissa (long alignment-free adds).
        2 => {
            let other = reference_operand(rng, op);
            (other & !(((1u64 << fmt.exp_bits) - 1) << f))
                | (a & (((1u64 << fmt.exp_bits) - 1) << f))
        }
        _ => reference_operand(rng, op),
    };
    (a, b)
}

/// The γ-calibration reference ensemble of `op`: one initial vector,
/// then [`GAMMA_SAMPLES`] more, each consecutive pair one transition.
fn reference_vectors(op: FpOp) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(0x5eed_0000 + op.index() as u64);
    (0..=GAMMA_SAMPLES)
        .map(|_| reference_pair(&mut rng, op))
        .collect()
}

/// All twelve generated units, indexable by [`FpOp::index`].
#[derive(Debug, Clone)]
pub struct FpuBank {
    units: Vec<FpuUnit>,
}

impl FpuBank {
    /// Generate all twelve units under `spec`.
    pub fn generate(spec: &FpuTimingSpec) -> Self {
        Self::from_units(
            FpOp::all()
                .into_iter()
                .map(|op| FpuUnit::generate(op, spec))
                .collect(),
        )
    }

    /// A bank of already generated units, one per operation in
    /// [`FpOp::all`] order.
    ///
    /// # Panics
    ///
    /// If `units` is not exactly one unit per operation in that order.
    pub fn from_units(units: Vec<FpuUnit>) -> Self {
        assert!(
            units.iter().map(FpuUnit::op).eq(FpOp::all()),
            "FpuBank::from_units needs one unit per op in FpOp::all() order"
        );
        FpuBank { units }
    }

    /// The unit implementing `op`.
    pub fn unit(&self, op: FpOp) -> &FpuUnit {
        &self.units[op.index()]
    }

    /// Iterate over all units.
    pub fn iter(&self) -> impl Iterator<Item = &FpuUnit> {
        self.units.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_timing::{ArrivalSim, TwoVectorResult};

    /// `gamma().to_bits()` of every unit in [`FpOp::all`] order, as
    /// calibrated on the released 1,024-pair ensemble.
    const GAMMA_BITS_RELEASE: [u64; 12] = [
        0x3ff64f607a49ff36, // fp-add (d)
        0x3ff65965965965a3, // fp-sub (d)
        0x40103e7364afe22d, // fp-mul (d)
        0x3ff46ab6a545cd60, // fp-div (d)
        0x3ffb213141799e79, // I2F (d)
        0x3ff140450d7251e7, // F2I (d)
        0x3ff8f178e77ba449, // fp-add (s)
        0x3ff4fa009b171f53, // fp-sub (s)
        0x4008a2f42bffe57a, // fp-mul (s)
        0x3ff767bd66735144, // fp-div (s)
        0x3ffa594dcf609e3a, // I2F (s)
        0x3ff0b4d8ded272e9, // F2I (s)
    ];

    /// The same on the 128-pair ensemble of debug builds.
    const GAMMA_BITS_DEBUG: [u64; 12] = [
        0x3ff9fcc9793e4683, // fp-add (d)
        0x3ff8bee143698bfc, // fp-sub (d)
        0x40124c7a1cf724dc, // fp-mul (d)
        0x3ff52b0c6837abec, // fp-div (d)
        0x3ffed548bab28b5e, // I2F (d)
        0x3ff98e4d3f010699, // F2I (d)
        0x3fff654060b7c38c, // fp-add (s)
        0x3ffb0eb0eb0eb0f6, // fp-sub (s)
        0x4008a2f42bffe57a, // fp-mul (s)
        0x3ffda6ddf1ddd6cd, // fp-div (s)
        0x40003c6ff243a60b, // I2F (s)
        0x3ff0b4d8ded272e9, // F2I (s)
    ];

    /// The per-pair oracle of [`FpuUnit::reference_dynamic_max`]: every
    /// consecutive pair of the reference ensemble run through
    /// [`ArrivalSim`] on the unscaled netlist, folded to the result
    /// port's settle maximum.
    fn per_pair_dynamic_max(unit: &FpuUnit) -> f64 {
        let vectors = reference_vectors(unit.op());
        let port = unit.result_port();
        let mut res = TwoVectorResult::default();
        let mut max = 0.0f64;
        for w in vectors.windows(2) {
            let prev = unit.encode_inputs(w[0].0, w[0].1);
            let cur = unit.encode_inputs(w[1].0, w[1].1);
            ArrivalSim::run_into(unit.netlist(), &prev, &cur, &mut res);
            max = max.max(res.max_settle(port));
        }
        max
    }

    #[test]
    fn gamma_is_pinned_and_matches_the_per_pair_oracle() {
        let spec = FpuTimingSpec::paper_calibrated();
        let pinned = if cfg!(debug_assertions) {
            GAMMA_BITS_DEBUG
        } else {
            GAMMA_BITS_RELEASE
        };
        for (op, bits) in FpOp::all().into_iter().zip(pinned) {
            let unit = FpuUnit::generate(op, &spec);
            assert_eq!(unit.gamma().to_bits(), bits, "{op}: γ = {}", unit.gamma());
            let oracle = spec.target(op) / (per_pair_dynamic_max(&unit) * GAMMA_MARGIN);
            assert_eq!(
                unit.gamma().to_bits(),
                oracle.to_bits(),
                "{op}: γ vs oracle"
            );
        }
    }
}
