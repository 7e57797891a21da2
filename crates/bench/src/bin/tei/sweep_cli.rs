//! `tei sweep` — AVM as a continuous function of supply voltage.
//!
//! The paper characterizes two discrete undervolting corners (VR15,
//! VR20). The sweep treats Vdd as a continuous knob instead: it runs
//! *one* DTA campaign per FPU op whose settle passes are re-thresholded
//! at every grid voltage (delay derating interpolated between the
//! characterized corners, bit-exact at the corners themselves), builds
//! a workload-aware error model per grid point, and injects a full
//! campaign at each — reporting AVM(Vdd) and the minimum voltage that
//! still meets an AVM target.
//!
//! Every transition runs exact DTA, so a sweep's numbers depend only on
//! its own flags, never on what ran before it in the same directory.
//! Results land in `results/sweep-<benchmark>.json` with a `.fnv`
//! checksum sidecar.

use crate::USAGE;
use std::path::PathBuf;
use tei_core::journal::atomic_write_checksummed;
use tei_core::power::min_vdd_meeting;
use tei_core::{dev, CampaignConfig, GoldenRun, MaskSampling, ModelKind, StatModel, TeiError};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

/// Memory given to golden runs and trace capture (matches the fabric).
const MEM: usize = 8 << 20;

struct SweepArgs {
    benchmark: String,
    scale: String,
    grid: usize,
    vdd_min: f64,
    vdd_max: f64,
    avm_target: f64,
    runs: usize,
    seed: u64,
    dta_cap: usize,
    out: Option<PathBuf>,
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("tei sweep: bad value {value:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn parse_args(args: &[String]) -> SweepArgs {
    let mut sa = SweepArgs {
        benchmark: String::new(),
        scale: "test".to_string(),
        grid: 12,
        vdd_min: VoltageReduction::VR20.vdd(),
        vdd_max: VoltageReduction::Nominal.vdd(),
        avm_target: 0.01,
        runs: 120,
        seed: 1,
        dta_cap: 4000,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("tei sweep: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--benchmark" => sa.benchmark = val(),
            "--scale" => sa.scale = val().to_ascii_lowercase(),
            "--grid" => sa.grid = parse_or_exit(flag, &val()),
            "--vdd-min" => sa.vdd_min = parse_or_exit(flag, &val()),
            "--vdd-max" => sa.vdd_max = parse_or_exit(flag, &val()),
            "--avm-target" => sa.avm_target = parse_or_exit(flag, &val()),
            "--runs" => sa.runs = parse_or_exit(flag, &val()),
            "--seed" => sa.seed = parse_or_exit(flag, &val()),
            "--dta-cap" => sa.dta_cap = parse_or_exit(flag, &val()),
            "--out" => sa.out = Some(PathBuf::from(val())),
            other => {
                eprintln!("tei sweep: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if sa.benchmark.is_empty() {
        eprintln!("tei sweep: --benchmark is required\n{USAGE}");
        std::process::exit(2);
    }
    if sa.grid < 2 {
        eprintln!("tei sweep: --grid must be at least 2\n{USAGE}");
        std::process::exit(2);
    }
    let (lo, hi) = (
        VoltageReduction::VR20.vdd(),
        VoltageReduction::Nominal.vdd(),
    );
    if !(sa.vdd_min < sa.vdd_max && sa.vdd_min >= lo && sa.vdd_max <= hi) {
        eprintln!(
            "tei sweep: Vdd range [{}, {}] must be increasing and within the \
             characterized corners [{lo}, {hi}]\n{USAGE}",
            sa.vdd_min, sa.vdd_max
        );
        std::process::exit(2);
    }
    sa
}

/// The sweep body: one multi-level DTA pass per op, then one injection
/// campaign per grid voltage off the shared statistics.
pub(crate) fn sweep(args: &[String]) -> Result<(), TeiError> {
    let sa = parse_args(args);
    let id = BenchmarkId::all()
        .into_iter()
        .find(|b| b.name() == sa.benchmark)
        .unwrap_or_else(|| {
            eprintln!("tei sweep: unknown benchmark {:?}\n{USAGE}", sa.benchmark);
            std::process::exit(2);
        });
    let scale = match sa.scale.as_str() {
        "test" => Scale::Test,
        "small" => Scale::Small,
        "full" => Scale::Full,
        other => {
            eprintln!("tei sweep: unknown scale {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Refuse a malformed TEI_THREADS/TEI_RUNS before minutes of work,
    // as `tei campaign` does.
    tei_core::config::validate_env()?;
    let bench = build(id, scale);
    let (bank, spec) = dev::default_bank();
    let threads = tei_core::config::default_threads();
    let grid: Vec<f64> = (0..sa.grid)
        .map(|i| sa.vdd_min + (sa.vdd_max - sa.vdd_min) * i as f64 / (sa.grid - 1) as f64)
        .collect();
    let levels: Vec<VoltageReduction> = grid.iter().map(|&v| VoltageReduction::Vdd(v)).collect();

    eprintln!(
        "tei sweep: {} ({}), {} grid points over Vdd [{:.3}, {:.3}] V, \
         {} runs/point",
        id.name(),
        sa.scale,
        sa.grid,
        sa.vdd_min,
        sa.vdd_max,
        sa.runs,
    );

    // One settle pass per op covers every grid voltage: the DTA engine
    // re-thresholds each transition's settle times at all `levels` in a
    // single walk, so the sweep's circuit cost is independent of the
    // grid resolution.
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, sa.dta_cap);
    let per_level = dev::per_op_stats(&bank, &spec, &levels, |op| trace.of(op))?;

    // Grid campaigns: a workload-aware model per voltage, every
    // injection campaign deterministic under (runs, seed, threads).
    let golden = GoldenRun::capture(&bench, MEM, u64::MAX)?;
    let cfg = CampaignConfig {
        runs: sa.runs,
        seed: sa.seed,
        threads,
        ..CampaignConfig::default()
    };
    let mut rows = Vec::new();
    let mut points = Vec::new();
    println!("      Vdd    factor       AVM   masked      sdc    crash  timeout");
    for (i, (&vdd, level)) in grid.iter().zip(&levels).enumerate() {
        let model = StatModel::from_campaign_stats(
            ModelKind::Wa,
            *level,
            MaskSampling::Empirical,
            &per_level[i],
        )?;
        let result = tei_core::campaign::run_campaign_checked(id.name(), &golden, &model, &cfg)?;
        let avm = result.avm();
        let c = &result.counts;
        println!(
            "  {vdd:7.3}  {:8.4}  {avm:8.4} {:8} {:8} {:8} {:8}",
            level.derating_factor(),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout
        );
        points.push((vdd, avm));
        rows.push(format!(
            "{{\"vdd\": {vdd}, \"derating_factor\": {}, \"avm\": {avm}, \
             \"masked\": {}, \"sdc\": {}, \"crash\": {}, \"timeout\": {}}}",
            level.derating_factor(),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout
        ));
    }
    let min_vdd = min_vdd_meeting(&points, sa.avm_target);
    match min_vdd {
        Some(v) => println!(
            "minimum Vdd at AVM <= {}: {v:.3} V ({:.1}% below nominal)",
            sa.avm_target,
            100.0 * (1.0 - v / VoltageReduction::Nominal.vdd())
        ),
        None => println!(
            "no grid voltage meets AVM <= {} (raise --vdd-max or the target)",
            sa.avm_target
        ),
    }

    let out = sa
        .out
        .unwrap_or_else(|| PathBuf::from(format!("results/sweep-{}.json", id.name())));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| TeiError::io("create results dir", dir, e))?;
    }
    let json = format!(
        "{{\n  \"schema\": \"tei-sweep-v2\",\n  \"benchmark\": {:?},\n  \"scale\": {:?},\n  \
         \"clk_ns\": {},\n  \"runs\": {},\n  \"seed\": {},\n  \"dta_pairs_cap\": {},\n  \
         \"avm_target\": {},\n  \"min_vdd_at_target\": {},\n  \"grid\": [\n    {}\n  ]\n}}\n",
        id.name(),
        sa.scale,
        spec.clk,
        sa.runs,
        sa.seed,
        sa.dta_cap,
        sa.avm_target,
        min_vdd.map_or("null".to_string(), |v| v.to_string()),
        rows.join(",\n    ")
    );
    atomic_write_checksummed(&out, json.as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}
