//! Probe: WA-model error ratios per benchmark × VR (feeds Fig 10 shape).
use tei_core::campaign::{self, GOLDEN_MEM_BYTES};
use tei_core::{dev, models::StatModel, InjectionModel, TeiError};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

fn main() -> Result<(), TeiError> {
    let (bank, spec) = dev::default_bank();
    let cap = 20_000;
    for id in BenchmarkId::all() {
        let bench = build(id, Scale::Small);
        let trace = dev::TraceSet::capture(&bench.program, GOLDEN_MEM_BYTES, u64::MAX, cap);
        let golden = campaign::GoldenRun::capture(&bench, GOLDEN_MEM_BYTES, u64::MAX)?;
        let mut line = format!("{:8}", id.name());
        for vr in [VoltageReduction::VR15, VoltageReduction::VR20] {
            let wa = StatModel::workload_aware(&bank, &spec, vr, &trace, cap)?;
            let er = campaign::model_error_ratio(&wa, &golden);
            line += &format!("  {}: ER {:.2e}", vr.label(), er);
            let mut top = (String::new(), 0.0);
            for op in FpOp::all() {
                let e = wa.error_ratio(op);
                if e > top.1 {
                    top = (op.to_string(), e);
                }
            }
            if top.1 > 0.0 {
                line += &format!(" (top {} {:.1e})", top.0, top.1);
            }
        }
        println!("{line}");
    }
    Ok(())
}
