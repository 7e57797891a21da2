//! Sweep the supply-voltage reduction level for one benchmark and find the
//! AVM-guided operating point — the paper's Section V.C analysis.
//!
//! ```text
//! cargo run --release --example voltage_sweep [benchmark]
//! ```

use tei::core::{campaign, dev, power, StatModel, TeiError};
use tei::timing::{VoltageReduction, V_NOMINAL};
use tei::workloads::{build, BenchmarkId, Scale};

fn main() -> Result<(), TeiError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "k-means".into());
    let id = BenchmarkId::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark {name:?}; using k-means");
            BenchmarkId::Kmeans
        });
    let mem = 8 << 20;
    println!("generating the calibrated FPU bank ...");
    let (bank, spec) = dev::default_bank();
    let bench = build(id, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, mem, u64::MAX)?;
    let samples = 4000;
    let trace = dev::TraceSet::capture(&bench.program, mem, u64::MAX, samples);

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
    for pct in [5usize, 10, 12, 15, 18, 20, 22] {
        let vr = VoltageReduction::Vdd(V_NOMINAL * (1.0 - pct as f64 / 100.0));
        let wa = StatModel::workload_aware(&bank, &spec, vr, &trace, samples)?;
        let er = campaign::model_error_ratio(&wa, &golden);
        let r = campaign::run_campaign(id.name(), &golden, &wa, &cfg);
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
