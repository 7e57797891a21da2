//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! timing-engine choice, bitmask sampling strategy, and injection replay
//! mode.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_core::{campaign, dev, models::MaskSampling, DaModel, InjectionModel, StatModel};
use tei_netlist::{CellLibrary, Netlist};
use tei_timing::{ArrivalSim, EventSim, FanoutTable, TwoVectorResult, VoltageReduction};
use tei_uarch::{FuncCore, OooConfig, OooCore};
use tei_workloads::{build, BenchmarkId, Scale};

/// Engine ablation: fast arrival vs exact event-driven DTA on the same
/// circuit and operand stream. The setup also cross-checks agreement on
/// final values (the engines may legitimately differ on glitch-only
/// errors).
fn bench_engine_ablation(c: &mut Criterion) {
    let mut nl = Netlist::new("dp16", CellLibrary::nangate45_like());
    let a = nl.add_input_bus("a", 16);
    let b = nl.add_input_bus("b", 16);
    let p = nl.array_multiplier(&a, &b);
    nl.mark_output_bus("p", &p);
    let sta = tei_timing::Sta::analyze(&nl);
    nl.scale_all_delays(4.2 / sta.max_delay());

    let outputs = nl.output_nets();
    let fanouts = FanoutTable::build(&nl);
    let (clk, k) = (4.5, VoltageReduction::VR20.derating_factor());
    let delays = EventSim::derated_delays(&nl, k);
    // Per-bit error masks of one transition from each engine.
    let arrival = |prev: &[bool], cur: &[bool], buf: &mut TwoVectorResult| -> Vec<bool> {
        ArrivalSim::run_into(&nl, prev, cur, buf);
        outputs.iter().map(|&n| buf.is_error(n, clk, k)).collect()
    };
    let event = |prev: &[bool], cur: &[bool]| {
        let r = EventSim::run(&nl, &fanouts, prev, cur, &delays, clk);
        let mask: Vec<bool> = outputs.iter().map(|n| r.is_error(n.index())).collect();
        (mask, r.final_values)
    };
    let mut rng = StdRng::seed_from_u64(5);
    let vecs: Vec<Vec<bool>> = (0..32)
        .map(|_| (0..32).map(|_| rng.gen()).collect())
        .collect();
    let mut buf = TwoVectorResult::default();
    // Sanity: golden outputs agree between engines.
    for w in vecs.windows(2) {
        ArrivalSim::run_into(&nl, &w[0], &w[1], &mut buf);
        let (_, golden) = event(&w[0], &w[1]);
        for &n in &outputs {
            assert_eq!(
                buf.cur[n.index()],
                golden[n.index()],
                "engines disagree on settled values"
            );
        }
    }
    let mut group = c.benchmark_group("engine_ablation");
    group.bench_function("arrival", |bch| {
        bch.iter(|| {
            for w in vecs.windows(2) {
                criterion::black_box(arrival(&w[0], &w[1], &mut buf));
            }
        });
    });
    group.sample_size(10);
    group.bench_function("event_driven", |bch| {
        bch.iter(|| {
            for w in vecs.windows(2) {
                criterion::black_box(event(&w[0], &w[1]));
            }
        });
    });
    group.finish();
}

/// Bitmask-sampling ablation: empirical mask library vs independent
/// per-bit draws. The setup prints the multi-bit share of each variant
/// (the quality difference behind the paper's Figure 5).
fn bench_mask_sampling(c: &mut Criterion) {
    let (bank, spec) = dev::default_bank();
    let op = tei_softfloat::FpOp::new(
        tei_softfloat::FpOpKind::Mul,
        tei_softfloat::Precision::Double,
    );
    let ia = StatModel::instruction_aware(&bank, &spec, VoltageReduction::VR20, 4000, 9).unwrap();
    if ia.error_ratio(op) == 0.0 {
        eprintln!("[ablation] skipping mask sampling: no d-mul errors at this calibration");
        return;
    }
    let empirical = ia.clone().with_sampling(MaskSampling::Empirical);
    let independent = ia.with_sampling(MaskSampling::IndependentBits);
    let mut rng = StdRng::seed_from_u64(2);
    let share = |m: &StatModel, rng: &mut StdRng| {
        let n = 2000;
        let multi = (0..n)
            .filter(|_| m.sample_mask(op, rng).count_ones() >= 2)
            .count();
        multi as f64 / n as f64
    };
    eprintln!(
        "[ablation] multi-bit mask share: empirical {:.1}%, independent-bit {:.1}%",
        100.0 * share(&empirical, &mut rng),
        100.0 * share(&independent, &mut rng)
    );
    let mut group = c.benchmark_group("mask_sampling");
    group.bench_function("empirical", |b| {
        b.iter(|| empirical.sample_mask(op, &mut rng));
    });
    group.bench_function("independent_bits", |b| {
        b.iter(|| independent.sample_mask(op, &mut rng));
    });
    group.finish();
}

/// Injection-mode ablation: fast functional replay vs full detailed-core
/// injection for a single corrupted run (the campaign's dominant cost).
fn bench_injection_mode(c: &mut Criterion) {
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let mem = 8 << 20;
    let mask = 1u64 << 45;
    let target = 100u64;
    let mut group = c.benchmark_group("injection_mode");
    group.sample_size(10);
    group.bench_function("functional_replay", |b| {
        b.iter(|| {
            let mut core = FuncCore::with_memory(&bench.program, mem);
            core.run_with_hook(u64::MAX, &mut |ev| {
                if ev.index == target {
                    ev.result ^ mask
                } else {
                    ev.result
                }
            })
        });
    });
    group.bench_function("detailed_pipeline", |b| {
        b.iter(|| {
            let mut core = OooCore::with_memory(&bench.program, OooConfig::default(), mem);
            core.run_with_hook(u64::MAX, &mut |ev| {
                if ev.index == target {
                    ev.result ^ mask
                } else {
                    ev.result
                }
            })
        });
    });
    group.finish();
}

/// End-to-end campaign-cell cost (DA model, small run count).
fn bench_campaign_cell(c: &mut Criterion) {
    let bench = build(BenchmarkId::Sobel, Scale::Test);
    let golden = campaign::GoldenRun::capture(&bench, 8 << 20, u64::MAX).unwrap();
    let da = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let cfg = campaign::CampaignConfig {
        runs: 20,
        ..Default::default()
    };
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("da_20_runs_sobel_test", |b| {
        b.iter(|| campaign::run_campaign_checked("sobel", &golden, &da, &cfg).expect("campaign"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_ablation,
    bench_mask_sampling,
    bench_injection_mode,
    bench_campaign_cell
);
criterion_main!(benches);
