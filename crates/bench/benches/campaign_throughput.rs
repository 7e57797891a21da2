//! Injection-campaign throughput: the original replay-from-zero engine
//! versus checkpointed fork-replay (snapshot restore + early-convergence
//! cutoff), on a long benchmark cell. Both engines are asserted to produce
//! byte-identical `OutcomeCounts` before anything is timed. Under
//! `cargo bench` the measured runs/sec are also written to
//! `BENCH_campaign.json` at the workspace root so the perf trajectory is
//! tracked across PRs; under `cargo test` (quick smoke mode) nothing is
//! written but the engines are still exercised and cross-checked.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use std::time::Instant;
use tei_core::campaign::{self, CampaignConfig, GoldenRun, OutcomeCounts, ReplayMode};
use tei_core::DaModel;
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const MEM: usize = 8 << 20;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

const MODES: [(&str, ReplayMode); 2] = [
    ("from_zero", ReplayMode::FromZero),
    ("checkpointed", ReplayMode::Checkpointed),
];

fn cfg_for(runs: usize, mode: ReplayMode) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed: 0xca3f_a16e,
        mode,
        ..Default::default()
    }
}

/// Repeat whole campaign cells until `min_secs` of wall clock accumulate;
/// return (runs/sec, the cell's outcome tally).
fn runs_per_sec(
    golden: &GoldenRun,
    model: &DaModel,
    runs: usize,
    mode: ReplayMode,
    min_secs: f64,
) -> (f64, OutcomeCounts) {
    let cfg = cfg_for(runs, mode);
    let start = Instant::now();
    let mut total = 0usize;
    let mut counts;
    loop {
        counts = campaign::run_campaign("bench", golden, model, &cfg).counts;
        total += runs;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return (total as f64 / elapsed, counts);
        }
    }
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let measured = bench_mode();
    // k-means is the long-benchmark showcase: high masking rate, so the
    // early-convergence cutoff retires most runs shortly after injection.
    let scale = if measured { Scale::Small } else { Scale::Test };
    let bench = build(BenchmarkId::Kmeans, scale);
    let golden = GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let runs = if measured { 200 } else { 12 };
    let min_secs = if measured { 2.0 } else { 0.0 };

    // Correctness gate first: every engine must agree run for run.
    let tallies: Vec<OutcomeCounts> = MODES
        .iter()
        .map(|&(_, mode)| {
            campaign::run_campaign("bench", &golden, &da, &cfg_for(runs, mode)).counts
        })
        .collect();
    for (name, t) in MODES.iter().map(|m| m.0).zip(&tallies) {
        assert_eq!(
            *t, tallies[0],
            "engine {name} diverged from replay-from-zero"
        );
        assert_eq!(t.total(), runs as u64);
        assert_eq!(t.mistargeted, 0);
    }

    // Criterion display: per-engine campaign-cell latency.
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    for (name, mode) in MODES {
        group.bench_function(CritId::from_parameter(name), |b| {
            b.iter(|| {
                criterion::black_box(campaign::run_campaign(
                    "bench",
                    &golden,
                    &da,
                    &cfg_for(runs, mode),
                ))
            });
        });
    }
    group.finish();

    // Machine-readable summary (measured mode only, so `cargo test`
    // smoke runs never overwrite real numbers).
    let rates: Vec<f64> = MODES
        .iter()
        .map(|&(_, mode)| runs_per_sec(&golden, &da, runs, mode, min_secs).0)
        .collect();
    let (zero, chk) = (rates[0], rates[1]);
    println!(
        "campaign_throughput summary ({} {scale:?}, {} instr, {} checkpoints @ {} FP ops): \
         from_zero {zero:.0} runs/s, checkpointed {chk:.0} runs/s ({:.1}x)",
        bench.id.name(),
        golden.instructions,
        golden.checkpoints.len(),
        golden.checkpoints.interval(),
        chk / zero,
    );
    if measured {
        let cfg = cfg_for(runs, ReplayMode::default());
        let report = serde_json::json!({
            "bench": "campaign_throughput",
            "benchmark": bench.id.name(),
            "scale": format!("{scale:?}"),
            "runs_per_cell": runs,
            "threads": cfg.threads,
            "golden_instructions": golden.instructions,
            "golden_fp_ops": golden.fp_ops,
            "checkpoints": golden.checkpoints.len(),
            "checkpoint_interval_fp_ops": golden.checkpoints.interval(),
            "checkpoint_pool_bytes": golden.checkpoints.footprint_bytes(),
            "from_zero_runs_per_sec": zero,
            "checkpointed_runs_per_sec": chk,
            "checkpointed_speedup": chk / zero,
            "outcome_counts_identical": true,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
        let text = serde_json::to_string_pretty(&report).expect("serialize bench report");
        tei_core::journal::atomic_write_checksummed(
            std::path::Path::new(path),
            (text + "\n").as_bytes(),
        )
        .expect("write BENCH_campaign.json");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_campaign_throughput);
criterion_main!(benches);
