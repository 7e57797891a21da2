//! Cross-crate integration: the complete flow from a built program
//! through gate-level model development to classified injection outcomes.

use tei::core::{campaign, dev, DaModel, StatModel};
use tei::isa::{FReg, Instr, ProgramBuilder, Reg};
use tei::softfloat::{FpOp, FpOpKind, Precision};
use tei::timing::VoltageReduction;
use tei::uarch::{ExitReason, FuncCore, OooConfig, OooCore};
use tei::workloads::{build, BenchmarkId, Scale};

#[test]
fn built_program_to_injection_outcome() {
    // A program written through the builder, executed on both cores, then
    // corrupted at a chosen FP instruction.
    let (f1, f2, f10) = (FReg::new(1), FReg::new(2), FReg::new(10));
    let mut b = ProgramBuilder::new();
    b.li(Reg::T0, 4614256656552045848); // 3.14159... bits
    b.fmv_d_x(f1, Reg::T0);
    b.li(Reg::T0, 4613303445314885481); // 2.71828... bits
    b.fmv_d_x(f2, Reg::T0);
    b.fmul_d(f10, f1, f2);
    b.li(Reg::A7, 3); // PutF64
    b.push(Instr::Ecall);
    b.halt();
    let prog = b.finish();
    let mut func = FuncCore::with_memory(&prog, 1 << 16);
    let rf = func.run(10_000);
    assert_eq!(rf.exit, ExitReason::Halted);
    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
    let ro = ooo.run(100_000);
    assert_eq!(ro.exit, ExitReason::Halted);
    assert_eq!(func.output, ooo.output);
    let golden = f64::from_bits(u64::from_le_bytes(func.output[..8].try_into().unwrap()));
    assert!((golden - std::f64::consts::PI * std::f64::consts::E).abs() < 1e-12);

    // Corrupt the multiply's destination register (mantissa bit 40).
    let mut faulty = FuncCore::with_memory(&prog, 1 << 16);
    faulty.run_with_hook(10_000, &mut |ev| {
        assert_eq!(ev.op, FpOp::new(FpOpKind::Mul, Precision::Double));
        ev.result ^ (1 << 40)
    });
    assert_ne!(faulty.output, func.output, "corruption must surface (SDC)");
}

#[test]
fn end_to_end_campaign_smoke() {
    // Tiny but complete: model development on the gate-level FPU, then a
    // classified injection campaign on a real benchmark.
    let (bank, spec) = dev::default_bank();
    let bench = build(BenchmarkId::Is, Scale::Test);
    let mem = 8 << 20;
    let golden = campaign::GoldenRun::capture(&bench, mem, u64::MAX).unwrap();
    assert!(golden.fp_ops > 1000, "is is FP-heavy");

    let trace = dev::TraceSet::capture(&bench.program, mem, u64::MAX, 1200);
    let wa = StatModel::workload_aware(&bank, &spec, VoltageReduction::VR20, &trace, 1200).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let cfg = campaign::CampaignConfig {
        runs: 30,
        seed: 42,
        ..Default::default()
    };
    let rw = campaign::run_campaign_checked("is", &golden, &wa, &cfg).expect("campaign");
    let rd = campaign::run_campaign_checked("is", &golden, &da, &cfg).expect("campaign");
    assert_eq!(rw.counts.total(), 30);
    assert_eq!(rd.counts.total(), 30);
    // DA injects single-bit flips at its fixed ratio; is catches many of
    // them through verification or crashes on wild keys.
    assert!(rd.avm() >= 0.0 && rd.avm() <= 1.0);
    // The two models must disagree on the injected error ratio.
    assert_ne!(rw.error_ratio, rd.error_ratio);
}

#[test]
fn campaign_outcomes_are_deterministic() {
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, 8 << 20, u64::MAX).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let cfg = campaign::CampaignConfig {
        runs: 40,
        seed: 123,
        threads: 3,
        ..Default::default()
    };
    let a = campaign::run_campaign_checked("sobel", &golden, &da, &cfg).expect("campaign");
    let b = campaign::run_campaign_checked("sobel", &golden, &da, &cfg).expect("campaign");
    assert_eq!(a.counts, b.counts, "same seed ⇒ same outcome tally");
}

#[test]
fn umbrella_reexports_are_usable() {
    // Spot-check that every layer is reachable through the umbrella crate.
    let lib = tei::netlist::CellLibrary::nangate45_like();
    assert!(lib.delay(tei::netlist::GateKind::Xor2) > 0.0);
    assert!(tei::timing::VoltageReduction::VR20.derating_factor() > 1.0);
    let mut fpu = tei::softfloat::Fpu::new();
    let s = fpu.apply(
        tei::softfloat::FpOp::new(FpOpKind::Add, Precision::Double),
        1.0f64.to_bits(),
        2.0f64.to_bits(),
    );
    assert_eq!(f64::from_bits(s), 3.0);
    assert_eq!(tei::core::stats::sample_size(0.03, 0.95).unwrap(), 1068);
    assert!((tei::core::power::power_savings(VoltageReduction::VR20) - 0.56).abs() < 0.01);
}
