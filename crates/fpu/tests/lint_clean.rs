//! The shipped FPU netlists must be structurally clean: every logic
//! gate reaches an output and every logic gate carries a library delay.

use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_netlist::lint_netlist;

#[test]
fn every_unit_is_lint_clean() {
    let bank = FpuBank::generate(&FpuTimingSpec::paper_calibrated());
    for unit in bank.iter() {
        let diags = lint_netlist(unit.netlist());
        assert!(
            diags.is_empty(),
            "{:?}: {}",
            unit.op(),
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        let dta = unit.dta_netlist();
        let diags = lint_netlist(&dta);
        assert!(diags.is_empty(), "{:?} (DTA): {diags:?}", unit.op());
    }
}
