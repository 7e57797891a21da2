//! Sweep the supply-voltage reduction level for one benchmark and find the
//! AVM-guided operating point — the paper's Section V.C analysis.
//!
//! ```text
//! cargo run --release --example voltage_sweep [benchmark]
//! ```

use tei::core::campaign::{self, GOLDEN_MEM_BYTES};
use tei::core::{dev, power, MaskSampling, ModelKind, StatModel, TeiError};
use tei::timing::{VoltageReduction, V_NOMINAL};
use tei::workloads::{build, BenchmarkId, Scale};

fn main() -> Result<(), TeiError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "k-means".into());
    let id = BenchmarkId::from_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}; using k-means");
        BenchmarkId::Kmeans
    });
    println!("generating the calibrated FPU bank ...");
    let (bank, spec) = dev::default_bank();
    let bench = build(id, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, GOLDEN_MEM_BYTES, u64::MAX)?;
    let trace = dev::TraceSet::capture(&bench.program, GOLDEN_MEM_BYTES, u64::MAX, 4000);
    // One DTA walk per op over the trace, thresholded at every level.
    let percents = [5usize, 10, 12, 15, 18, 20, 22];
    let levels = percents.map(|pct| VoltageReduction::Vdd(V_NOMINAL * (1.0 - pct as f64 / 100.0)));
    let per_level = dev::per_op_stats(&bank, &spec, &levels, |op| trace.of(op))?;

    println!(
        "\n{}: sweeping supply reduction with the workload-aware model\n",
        id.name()
    );
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>14}",
        "VR", "Vdd", "WA-ER", "AVM", "power-savings"
    );
    let cfg = campaign::CampaignConfig {
        runs: 80,
        ..Default::default()
    };
    let mut avm_points = Vec::new();
    for ((pct, vr), stats) in percents.into_iter().zip(levels).zip(&per_level) {
        let wa = StatModel::from_campaign_stats(ModelKind::Wa, vr, MaskSampling::default(), stats)?;
        let er = campaign::model_error_ratio(&wa, &golden);
        let r = campaign::run_campaign_checked(id.name(), &golden, &wa, &cfg)?;
        println!(
            "{:>6} {:>7.3}V {:>10.2e} {:>8.3} {:>13.1}%",
            format!("VR{pct:02}"),
            vr.vdd(),
            er,
            r.avm(),
            100.0 * power::power_savings(vr)
        );
        avm_points.push((vr, r.avm()));
    }
    let choice = power::select_operating_point(&avm_points, 0.0);
    println!(
        "\nAVM-guided operating point: {} ({:.3} V) → {:.1}% power savings",
        choice.label(),
        choice.vdd(),
        100.0 * power::power_savings(choice)
    );
    Ok(())
}
