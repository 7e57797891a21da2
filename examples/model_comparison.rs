//! Compare the three error models (DA / IA / WA) on one benchmark — a
//! miniature of the paper's Figure 9/10 experiment.
//!
//! ```text
//! cargo run --release --example model_comparison
//! ```

use tei::core::campaign::{self, GOLDEN_MEM_BYTES};
use tei::core::{dev, DaModel, InjectionModel, StatModel, TeiError};
use tei::timing::VoltageReduction;
use tei::workloads::{build, BenchmarkId, Scale};

fn main() -> Result<(), TeiError> {
    let vr = VoltageReduction::VR20;
    println!("generating the calibrated FPU bank ...");
    let (bank, spec) = dev::default_bank();

    let bench = build(BenchmarkId::Sobel, Scale::Test);
    println!("benchmark: {} ({})", bench.id, bench.input_desc);
    let golden = campaign::GoldenRun::capture(&bench, GOLDEN_MEM_BYTES, u64::MAX)?;
    println!(
        "golden run: {} instructions, {} FP ops, {} cycles (detailed)",
        golden.instructions, golden.fp_ops, golden.cycles
    );

    // Model development.
    let samples = 4000;
    let trace = dev::TraceSet::capture(&bench.program, GOLDEN_MEM_BYTES, u64::MAX, samples);
    let wa = StatModel::workload_aware(&bank, &spec, vr, &trace, samples)?;
    let ia = StatModel::instruction_aware(&bank, &spec, vr, samples, 1)?;
    let da = DaModel::from_fixed(vr, 1e-2); // the paper's published VR20 ratio

    // Application evaluation.
    let cfg = campaign::CampaignConfig {
        runs: 150,
        ..Default::default()
    };
    println!(
        "\n{:9} {:>9} {:>8} {:>6} {:>6} {:>8} {:>7}",
        "model", "ER", "Masked", "SDC", "Crash", "Timeout", "AVM"
    );
    for model in [
        &da as &(dyn InjectionModel + Sync),
        &ia as &(dyn InjectionModel + Sync),
        &wa as &(dyn InjectionModel + Sync),
    ] {
        let r = campaign::run_campaign_checked(bench.id.name(), &golden, model, &cfg)?;
        let f = r.fractions();
        println!(
            "{:9} {:9.2e} {:7.1}% {:5.1}% {:5.1}% {:7.1}% {:7.3}",
            r.model,
            r.error_ratio,
            100.0 * f[0],
            100.0 * f[1],
            100.0 * f[2],
            100.0 * f[3],
            r.avm()
        );
    }
    println!("\nThe data-agnostic model injects at its fixed ratio regardless of what");
    println!("this workload's operands can actually excite — the divergence the");
    println!("paper quantifies at ~250× on average (Figure 10).");
    Ok(())
}
