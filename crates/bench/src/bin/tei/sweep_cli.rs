//! `tei sweep` — AVM as a continuous function of supply voltage.
//!
//! The paper characterizes two discrete undervolting corners (VR15,
//! VR20). The sweep treats Vdd as a continuous knob instead: it runs
//! *one* DTA campaign per FPU op whose settle passes are re-thresholded
//! at every grid voltage (delay derated by the same alpha-power law as
//! the corners, anywhere between the threshold and nominal), builds a
//! workload-aware error model per grid point, and injects a full
//! campaign at each — reporting AVM(Vdd) and the minimum voltage that
//! still meets an AVM target.
//!
//! Every transition runs exact DTA, so a sweep's numbers depend only on
//! its own flags, never on what ran before it in the same directory.
//! Results land in `results/sweep-<benchmark>.json` with a `.fnv`
//! checksum sidecar.

use crate::USAGE;
use std::path::PathBuf;
use tei_bench::{Artifacts, Sizing};
use tei_core::journal::atomic_write_checksummed;
use tei_core::power::min_vdd_meeting;
use tei_core::{ModelKind, TeiError};
use tei_timing::{VoltageReduction, V_NOMINAL, V_THRESHOLD};
use tei_workloads::{BenchmarkId, Scale};

struct SweepArgs {
    benchmark: Option<BenchmarkId>,
    /// `--scale`, `--runs` and `--dta-cap`.
    sizing: Sizing,
    grid: usize,
    vdd_min: f64,
    vdd_max: f64,
    avm_target: f64,
    seed: u64,
    out: Option<PathBuf>,
}

fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("tei sweep: bad value {value:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn parse_name<T>(flag: &str, value: &str, from_name: fn(&str) -> Option<T>) -> T {
    from_name(value).unwrap_or_else(|| {
        eprintln!("tei sweep: unknown {} {value:?}\n{USAGE}", &flag[2..]);
        std::process::exit(2);
    })
}

fn parse_args(args: &[String]) -> (BenchmarkId, SweepArgs) {
    let mut sa = SweepArgs {
        benchmark: None,
        sizing: Sizing {
            scale: Scale::Test,
            runs: 120,
            dta_pairs: 4000,
        },
        grid: 12,
        vdd_min: VoltageReduction::VR20.vdd(),
        vdd_max: VoltageReduction::Nominal.vdd(),
        avm_target: 0.01,
        seed: 1,
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
            "--benchmark" => sa.benchmark = Some(parse_name(flag, &val(), BenchmarkId::from_name)),
            "--scale" => {
                sa.sizing.scale = parse_name(flag, &val().to_ascii_lowercase(), Scale::from_name)
            }
            "--grid" => sa.grid = parse_or_exit(flag, &val()),
            "--vdd-min" => sa.vdd_min = parse_or_exit(flag, &val()),
            "--vdd-max" => sa.vdd_max = parse_or_exit(flag, &val()),
            "--avm-target" => sa.avm_target = parse_or_exit(flag, &val()),
            "--runs" => sa.sizing.runs = parse_or_exit(flag, &val()),
            "--seed" => sa.seed = parse_or_exit(flag, &val()),
            "--dta-cap" => sa.sizing.dta_pairs = parse_or_exit(flag, &val()),
            "--out" => sa.out = Some(PathBuf::from(val())),
            other => {
                eprintln!("tei sweep: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(id) = sa.benchmark else {
        eprintln!("tei sweep: --benchmark is required\n{USAGE}");
        std::process::exit(2);
    };
    if sa.grid < 2 {
        eprintln!("tei sweep: --grid must be at least 2\n{USAGE}");
        std::process::exit(2);
    }
    if !(V_THRESHOLD < sa.vdd_min && sa.vdd_min < sa.vdd_max && sa.vdd_max <= V_NOMINAL) {
        eprintln!(
            "tei sweep: Vdd range [{}, {}] must satisfy \
             {V_THRESHOLD} V < --vdd-min < --vdd-max <= {V_NOMINAL} V\n{USAGE}",
            sa.vdd_min, sa.vdd_max
        );
        std::process::exit(2);
    }
    (id, sa)
}

/// The sweep body: one multi-level DTA pass per op, then one injection
/// campaign per grid voltage off the shared statistics.
pub(crate) fn sweep(args: &[String]) -> Result<(), TeiError> {
    let (id, sa) = parse_args(args);

    // Refuse a malformed TEI_THREADS before minutes of work,
    // as `tei campaign` does.
    tei_core::config::validate_env()?;
    let grid: Vec<f64> = (0..sa.grid)
        .map(|i| sa.vdd_min + (sa.vdd_max - sa.vdd_min) * i as f64 / (sa.grid - 1) as f64)
        .collect();
    let levels: Vec<VoltageReduction> = grid.iter().map(|&v| VoltageReduction::Vdd(v)).collect();
    let arts = Artifacts::new(sa.sizing, &levels);

    eprintln!(
        "tei sweep: {} ({}), {} grid points over Vdd [{:.3}, {:.3}] V, \
         {} runs/point",
        id.name(),
        sa.sizing.scale.name(),
        sa.grid,
        sa.vdd_min,
        sa.vdd_max,
        sa.sizing.runs,
    );

    // Grid campaigns: a workload-aware model per voltage, every
    // injection campaign deterministic under (runs, seed, threads). The
    // runner walks each op's trace once for every grid voltage: the DTA
    // engine re-thresholds each transition's settle times at all levels
    // in a single walk, so the sweep's circuit cost is independent of
    // the grid resolution.
    let mut rows = Vec::new();
    let mut points = Vec::new();
    println!("      Vdd    factor       AVM   masked      sdc    crash  timeout");
    for (&vdd, &level) in grid.iter().zip(&levels) {
        let result = arts.campaign(id, ModelKind::Wa, level, sa.seed)?;
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
        sa.sizing.scale.name(),
        arts.bank().1.clk,
        sa.sizing.runs,
        sa.seed,
        sa.sizing.dta_pairs,
        sa.avm_target,
        min_vdd.map_or("null".to_string(), |v| v.to_string()),
        rows.join(",\n    ")
    );
    atomic_write_checksummed(&out, json.as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}
