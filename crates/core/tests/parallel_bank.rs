//! The FPU bank built on the per-op worker pool must equal the serial
//! `FpuBank::generate`, unit for unit.

use tei_core::dev;
use tei_fpu::FpuBank;
use tei_softfloat::FpOp;

#[test]
fn parallel_bank_matches_serial_generation() {
    // The only test in this binary, so no other test sees the variable.
    std::env::set_var("TEI_THREADS", "3");
    let (bank, spec) = dev::default_bank();
    let serial = FpuBank::generate(&spec);
    assert_eq!(bank.iter().count(), FpOp::all().len());
    for (op, (p, s)) in FpOp::all().into_iter().zip(bank.iter().zip(serial.iter())) {
        assert_eq!(p.op(), op, "units stay in FpOp::all() order");
        assert_eq!(p.tag(), s.tag(), "{op}: tag");
        assert_eq!(p.gamma().to_bits(), s.gamma().to_bits(), "{op}: gamma");
    }
}
