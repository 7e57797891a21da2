//! Injection-campaign throughput: the original replay-from-zero engine
//! versus checkpointed fork-replay (snapshot restore + early-convergence
//! cutoff), on the programs of the end-to-end benchmark's `cell-wa`
//! workload — cg, k-means and is. Both engines are asserted to produce
//! byte-identical `OutcomeCounts` before anything is timed.
//!
//! Next to each program's runs/s sits its replay profile: how many
//! replays re-converge with a golden checkpoint and how many run to the
//! end, and how many instructions a replay executes. k-means re-converges
//! almost always; cg and is mostly cannot, so their runs/s is the
//! functional core's instruction rate.
//!
//! Under `cargo bench` the numbers are also written to
//! `BENCH_campaign.json` at the workspace root so the perf trajectory is
//! tracked across PRs; under `cargo test` (quick smoke mode, Test scale)
//! nothing is written but the engines are still exercised and
//! cross-checked.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tei_core::campaign::{self, CampaignConfig, GoldenRun, OutcomeCounts, ReplayMode};
use tei_core::{DaModel, InjectionModel};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_uarch::{FuncCore, InjectedExit};
use tei_workloads::{build, Benchmark, BenchmarkId, Scale};

const MEM: usize = 8 << 20;

/// The `cell-wa` programs.
const PROGRAMS: [BenchmarkId; 3] = [BenchmarkId::Cg, BenchmarkId::Kmeans, BenchmarkId::Is];

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
/// return runs/sec.
fn runs_per_sec(
    golden: &GoldenRun,
    model: &DaModel,
    runs: usize,
    mode: ReplayMode,
    min_secs: f64,
) -> f64 {
    let cfg = cfg_for(runs, mode);
    let start = Instant::now();
    let mut total = 0usize;
    loop {
        criterion::black_box(
            campaign::run_campaign_checked("bench", golden, model, &cfg).expect("campaign"),
        );
        total += runs;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return total as f64 / elapsed;
        }
    }
}

/// Where checkpointed replays end, over `runs` injection sites drawn the
/// way a campaign cell of a fixed-ratio model draws them: uniform over
/// every FP writeback, wrong-path ones included (those need no replay).
#[derive(Debug, Default)]
struct ReplayProfile {
    wrong_path: u64,
    converged: u64,
    run_to_end: u64,
    instructions: u64,
}

impl ReplayProfile {
    fn measure(bench: &Benchmark, golden: &GoldenRun, model: &DaModel, runs: usize) -> Self {
        // The op of an architectural FP index: the one whose sorted index
        // list holds it.
        let op_at = |target: u64| {
            FpOp::all()
                .into_iter()
                .find(|op| {
                    golden.arch_by_op[op.index()]
                        .binary_search(&(target as u32))
                        .is_ok()
                })
                .expect("every architectural index belongs to one op")
        };
        let squashed: u64 = golden.squashed_by_op.iter().sum();
        let budget = (golden.instructions as f64 * cfg_for(0, ReplayMode::default()).timeout_factor)
            .ceil() as u64;
        let pool = &golden.checkpoints;
        let mut core = FuncCore::with_memory(&bench.program, MEM);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut p = ReplayProfile::default();
        for _ in 0..runs {
            let target = rng.gen_range(0..golden.fp_ops + squashed);
            if target >= golden.fp_ops {
                p.wrong_path += 1;
                continue;
            }
            let mask = model.sample_mask(op_at(target), &mut rng);
            let start = pool.nearest(target).instructions();
            let end = match pool.run_injected(&mut core, budget, target, mask).exit {
                InjectedExit::Converged { instructions, .. } => {
                    p.converged += 1;
                    instructions
                }
                InjectedExit::Finished(r) => {
                    p.run_to_end += 1;
                    r.instructions
                }
            };
            p.instructions += end - start;
        }
        p
    }

    fn instructions_per_replay(&self) -> f64 {
        self.instructions as f64 / (self.converged + self.run_to_end).max(1) as f64
    }
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let measured = bench_mode();
    let scale = if measured { Scale::Small } else { Scale::Test };
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let runs = if measured { 200 } else { 12 };
    let min_secs = if measured { 2.0 } else { 0.0 };

    let mut rows = Vec::new();
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    for id in PROGRAMS {
        let bench = build(id, scale);
        let golden = GoldenRun::capture(&bench, MEM, u64::MAX).unwrap();

        // Correctness gate first: every engine must agree run for run.
        let tallies: Vec<OutcomeCounts> = MODES
            .iter()
            .map(|&(_, mode)| {
                campaign::run_campaign_checked("bench", &golden, &da, &cfg_for(runs, mode))
                    .expect("campaign")
                    .counts
            })
            .collect();
        for (name, t) in MODES.iter().map(|m| m.0).zip(&tallies) {
            assert_eq!(
                *t,
                tallies[0],
                "{}: engine {name} diverged from replay-from-zero",
                id.name()
            );
            assert_eq!(t.total(), runs as u64);
            assert_eq!(t.mistargeted, 0);
        }

        // Criterion display: per-engine campaign-cell latency.
        for (name, mode) in MODES {
            group.bench_function(CritId::new(id.name(), name), |b| {
                b.iter(|| {
                    criterion::black_box(
                        campaign::run_campaign_checked("bench", &golden, &da, &cfg_for(runs, mode))
                            .expect("campaign"),
                    )
                });
            });
        }

        let rates: Vec<f64> = MODES
            .iter()
            .map(|&(_, mode)| runs_per_sec(&golden, &da, runs, mode, min_secs))
            .collect();
        let (zero, chk) = (rates[0], rates[1]);
        let profile = ReplayProfile::measure(&bench, &golden, &da, runs);
        println!(
            "campaign_throughput summary ({} {scale:?}, {} instr, {} checkpoints @ {} FP ops): \
             from_zero {zero:.0} runs/s, checkpointed {chk:.0} runs/s ({:.1}x); \
             replays: {} converged, {} run to end, {:.0} instr/replay",
            id.name(),
            golden.instructions,
            golden.checkpoints.len(),
            golden.checkpoints.interval(),
            chk / zero,
            profile.converged,
            profile.run_to_end,
            profile.instructions_per_replay(),
        );
        rows.push(serde_json::json!({
            "benchmark": id.name(),
            "golden_instructions": golden.instructions,
            "golden_fp_ops": golden.fp_ops,
            "checkpoints": golden.checkpoints.len(),
            "checkpoint_interval_fp_ops": golden.checkpoints.interval(),
            "checkpoint_pool_bytes": golden.checkpoints.footprint_bytes(),
            "from_zero_runs_per_sec": zero,
            "checkpointed_runs_per_sec": chk,
            "checkpointed_speedup": chk / zero,
            "outcome_counts_identical": true,
            "profile_wrong_path": profile.wrong_path,
            "profile_converged": profile.converged,
            "profile_run_to_end": profile.run_to_end,
            "profile_instructions_per_replay": profile.instructions_per_replay(),
        }));
    }
    group.finish();

    // Machine-readable summary (measured mode only, so `cargo test`
    // smoke runs never overwrite real numbers).
    if measured {
        let report = serde_json::json!({
            "bench": "campaign_throughput",
            "model": format!("{} at {:?}", da.name(), da.vr()),
            "scale": format!("{scale:?}"),
            "runs_per_cell": runs,
            "threads": cfg_for(runs, ReplayMode::default()).threads,
            "profile_note": "profile_* count checkpointed replays of runs_per_cell \
                injection sites drawn like the cell's (uniform over FP writebacks, same \
                mask model), not the cell's own draws",
            "cells": rows,
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
