//! Timing-structure tests: the calibrated datapaths must reproduce the
//! paper's criticality ordering and voltage-reduction error structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_fpu::{whole_core, FpuTimingSpec, FpuUnit};
use tei_netlist::Netlist;
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{
    ArrivalSim, EventSim, FanoutTable, PathCensus, Sta, TwoVectorResult, VoltageReduction,
};

#[test]
fn calibrated_sta_matches_targets() {
    let spec = FpuTimingSpec::paper_calibrated();
    for op in FpOp::all() {
        let unit = FpuUnit::generate(op, &spec);
        let sta = Sta::analyze(unit.netlist());
        let max = sta.max_delay();
        assert!(
            (max - spec.target(op)).abs() < 1e-9,
            "{op}: calibrated max {max} != target {}",
            spec.target(op)
        );
        assert!(max < spec.clk, "{op} must meet timing at nominal voltage");
    }
}

#[test]
fn criticality_ordering_matches_paper() {
    let spec = FpuTimingSpec::paper_calibrated();
    use FpOpKind::*;
    use Precision::*;
    let t = |k, p| spec.target(FpOp::new(k, p));
    // Double precision: mul > sub > div ≈ add > conversions.
    assert!(t(Mul, Double) > t(Sub, Double));
    assert!(t(Sub, Double) > t(Div, Double));
    assert!(t(Sub, Double) > t(Add, Double));
    assert!(t(Add, Double) > t(ItoF, Double));
    // Every single-precision path is shorter than every error-prone
    // double-precision path.
    for k in [Add, Sub, Mul, Div] {
        assert!(t(k, Single) < t(Add, Double), "{k:?}");
    }
    // Only d-mul and d-sub can exceed the clock at VR15; d-add and d-div
    // join at VR20; conversions and single precision never fail.
    let clk = spec.clk;
    let k15 = VoltageReduction::VR15.derating_factor();
    let k20 = VoltageReduction::VR20.derating_factor();
    for op in FpOp::all() {
        let reach15 = spec.target(op) * k15 > clk;
        let reach20 = spec.target(op) * k20 > clk;
        let expect15 = matches!((op.kind, op.precision), (Mul, Double) | (Sub, Double));
        let expect20 = matches!(
            (op.kind, op.precision),
            (Mul, Double) | (Sub, Double) | (Add, Double) | (Div, Double)
        );
        assert_eq!(reach15, expect15, "{op} VR15 static reach");
        assert_eq!(reach20, expect20, "{op} VR20 static reach");
    }
}

fn random_normal_f64(rng: &mut StdRng) -> u64 {
    // Normal-range doubles as workloads produce them.
    let s = (rng.gen::<bool>() as u64) << 63;
    let e = rng.gen_range(900u64..1200) << 52;
    let f = rng.gen::<u64>() & ((1 << 52) - 1);
    s | e | f
}

/// Whether the `prev → cur` transition latches a stale value on any
/// output of `nl` at clock `clk` with every delay inflated by `k`.
fn has_error(
    nl: &Netlist,
    prev: &[bool],
    cur: &[bool],
    clk: f64,
    k: f64,
    buf: &mut TwoVectorResult,
) -> bool {
    ArrivalSim::run_into(nl, prev, cur, buf);
    nl.output_nets()
        .into_iter()
        .any(|n| buf.is_error(n, clk, k))
}

/// Consecutive random operand pairs, with one in eight a near repeat.
fn operand_pair(rng: &mut StdRng) -> (u64, u64) {
    let a = random_normal_f64(rng);
    let b = if rng.gen_ratio(1, 8) {
        (a ^ rng.gen_range(1u64..64)) ^ ((rng.gen::<bool>() as u64) << 63)
    } else {
        random_normal_f64(rng)
    };
    (a, b)
}

/// Measured error ratio of an operation under consecutive random operands.
fn error_ratio(op: FpOp, vr: VoltageReduction, samples: usize) -> f64 {
    let unit = FpuUnit::generate(op, &FpuTimingSpec::paper_calibrated());
    let nl = unit.dta_netlist();
    let (clk, k) = (4.5, vr.derating_factor());
    let mut rng = StdRng::seed_from_u64(0xA11CE + op.index() as u64);
    let (a0, b0) = operand_pair(&mut rng);
    let mut prev = unit.encode_inputs(a0, b0);
    let mut buf = TwoVectorResult::default();
    let mut errors = 0usize;
    for _ in 0..samples {
        let (a, b) = operand_pair(&mut rng);
        let cur = unit.encode_inputs(a, b);
        if has_error(&nl, &prev, &cur, clk, k, &mut buf) {
            errors += 1;
        }
        prev = cur;
    }
    errors as f64 / samples as f64
}

#[test]
fn dmul_errors_grow_with_voltage_reduction() {
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let nominal = error_ratio(op, VoltageReduction::Nominal, 400);
    let er20 = error_ratio(op, VoltageReduction::VR20, 400);
    assert_eq!(nominal, 0.0, "no timing errors at the nominal corner");
    assert!(er20 > 0.0, "d-mul must be error-prone at VR20");
}

#[test]
fn single_precision_is_error_free_at_vr20() {
    for kind in [FpOpKind::Add, FpOpKind::Mul] {
        let op = FpOp::new(kind, Precision::Single);
        let unit = FpuUnit::generate(op, &FpuTimingSpec::paper_calibrated());
        let nl = unit.dta_netlist();
        let k = VoltageReduction::VR20.derating_factor();
        let mut rng = StdRng::seed_from_u64(7);
        let mk = |rng: &mut StdRng| {
            let s = (rng.gen::<bool>() as u32) << 31;
            let e = rng.gen_range(60u32..190) << 23;
            let f = rng.gen::<u32>() & ((1 << 23) - 1);
            (s | e | f) as u64
        };
        let mut prev = unit.encode_inputs(mk(&mut rng), mk(&mut rng));
        let mut buf = TwoVectorResult::default();
        for _ in 0..150 {
            let cur = unit.encode_inputs(mk(&mut rng), mk(&mut rng));
            assert!(
                !has_error(&nl, &prev, &cur, 4.5, k, &mut buf),
                "{op} erred at VR20"
            );
            prev = cur;
        }
    }
}

/// The glitch-free arrival engine and the event-driven reference settle
/// every output of the shipped (γ-scaled) d-mul netlist to the same
/// steady state on a fixed stream of VR20 transitions. Under
/// `sanitize-arrivals` each `EventSim` run also asserts that no event
/// falls past its net's derated static bound.
#[test]
fn dmul_engines_agree_on_steady_state() {
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let unit = FpuUnit::generate(op, &FpuTimingSpec::paper_calibrated());
    let nl = unit.dta_netlist();
    let fanouts = FanoutTable::build(&nl);
    let delays = EventSim::derated_delays(&nl, VoltageReduction::VR20.derating_factor());
    let mut rng = StdRng::seed_from_u64(0xE7E7);
    let (a0, b0) = operand_pair(&mut rng);
    let mut prev = unit.encode_inputs(a0, b0);
    let mut buf = TwoVectorResult::default();
    for t in 0..16 {
        let (a, b) = operand_pair(&mut rng);
        let cur = unit.encode_inputs(a, b);
        ArrivalSim::run_into(&nl, &prev, &cur, &mut buf);
        let ev = EventSim::run(&nl, &fanouts, &prev, &cur, &delays, 4.5);
        for (bit, n) in nl.output_nets().into_iter().enumerate() {
            assert_eq!(
                buf.cur[n.index()],
                ev.final_values[n.index()],
                "transition {t}: engines disagree on output bit {bit}"
            );
        }
        prev = cur;
    }
}

#[test]
fn timing_errors_are_data_dependent() {
    // The same instruction type shows different settle times for different
    // operands — the core premise of workload-aware modeling (§II.D).
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    let unit = FpuUnit::generate(op, &FpuTimingSpec::paper_calibrated());
    let mut rng = StdRng::seed_from_u64(99);
    let mut settles = Vec::new();
    let mut prev = unit.encode_inputs(random_normal_f64(&mut rng), random_normal_f64(&mut rng));
    for _ in 0..60 {
        let cur = unit.encode_inputs(random_normal_f64(&mut rng), random_normal_f64(&mut rng));
        let r = ArrivalSim::run(unit.netlist(), &prev, &cur);
        settles.push(r.max_settle(unit.result_port()));
        prev = cur;
    }
    let min = settles.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = settles.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max > min * 1.05,
        "settle times should spread with operands (min={min}, max={max})"
    );
}

#[test]
fn whole_core_census_is_fpu_dominated() {
    // Figure 4: among the 1000 lowest-slack paths, only FPU paths appear
    // near-critical; non-FPU blocks stay safe.
    let core = whole_core(&FpuTimingSpec::paper_calibrated());
    let census = PathCensus::top_k(&core, 4.5, 1000);
    assert_eq!(census.paths.len(), 1000);
    let worst100_nonfpu = census.paths[..100]
        .iter()
        .filter(|p| p.dominant_block.starts_with("core/"))
        .count();
    assert_eq!(worst100_nonfpu, 0, "non-FPU blocks must not be critical");
    // The single most critical path belongs to the double-precision FPU.
    assert!(
        census.paths[0].dominant_block.contains("-d/"),
        "worst path in {}",
        census.paths[0].dominant_block
    );
    // Non-FPU paths keep healthy slack even at VR20 derating.
    let k20 = VoltageReduction::VR20.derating_factor();
    for p in census
        .paths
        .iter()
        .filter(|p| p.dominant_block.starts_with("core/"))
    {
        assert!(p.delay * k20 < 4.5, "{} unsafe at VR20", p.dominant_block);
    }
}
