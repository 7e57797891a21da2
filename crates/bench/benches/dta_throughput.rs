//! DTA throughput on the double-precision multiplier (the unit that
//! dominates model-development wall-clock): the table kernel every
//! campaign runs, at every supported lane width (W = 1/4/8 words,
//! 64/256/512 vectors per window), against two per-pair baselines —
//! the `ArrivalSim` netlist walk and chained `ArrivalKernel::advance`
//! calls (the path γ calibration runs) — plus a campaign
//! thread-scaling curve and the forced-pruning ablation. Under
//! `cargo bench` the measured pairs/sec are also written to
//! `BENCH_dta.json` at the workspace root so the perf trajectory is
//! tracked across changes; under `cargo test` (quick smoke mode)
//! nothing is written.
//!
//! Setting `TEI_SCALING_SMOKE=1` additionally asserts that the
//! campaign at `TEI_THREADS` workers and lane width 4 beats the
//! single-thread campaign by at least 1.3x (skipped, with a message, on
//! machines with fewer than two cores — the CI runners this smoke
//! targets have more).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Instant;
use tei_bench::scaling::{detected_cores, ScalingPlan};
use tei_core::dev::{
    dta_campaign_tuned, dta_engine, random_operand_pairs, resolve_lanes, resolve_prune,
    safe_bit_counts, DtaTuning, PrunePolicy, PRUNE_MIN_SAFE_FRACTION,
};
use tei_fpu::{FpuTimingSpec, FpuUnit};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{ArrivalEngine, ArrivalKernel, ArrivalSim, TwoVectorResult, VoltageReduction};

const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// Operand pairs per measured batch, and their seed.
const MEASURED_PAIRS: usize = 8192;
const PAIR_SEED: u64 = 0xbe9c;

/// Worker-thread counts of the campaign scaling curve.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Minimum parallel-over-serial campaign speedup the scaling smoke
/// (`TEI_SCALING_SMOKE=1`) demands at `TEI_THREADS` workers.
const SMOKE_MIN_SCALING: f64 = 1.3;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn dmul_unit() -> (FpuUnit, FpuTimingSpec) {
    let spec = FpuTimingSpec::paper_calibrated();
    let op = FpOp::new(FpOpKind::Mul, Precision::Double);
    (FpuUnit::generate(op, &spec), spec)
}

/// Repeat `run_batch` (which processes and reports some number of
/// pairs) over three independent windows of `min_secs` wall clock each
/// and return the best window's pairs/sec. On shared or virtualized
/// hosts, interference from neighbor tenants only ever *subtracts*
/// throughput, so the max across windows is the robust estimator of
/// the engine's real rate — a single long window folds every noise
/// burst into the mean and can even invert ablation comparisons.
fn pairs_per_sec(mut run_batch: impl FnMut() -> usize, min_secs: f64) -> f64 {
    let windows = if min_secs > 0.0 { 3 } else { 1 };
    let mut best = 0.0f64;
    for _ in 0..windows {
        let start = Instant::now();
        let mut pairs = 0usize;
        let rate = loop {
            pairs += run_batch();
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= min_secs {
                break pairs as f64 / elapsed;
            }
        };
        best = best.max(rate);
    }
    best
}

/// The pre-kernel per-pair loop: interpreted netlist walk with a fresh
/// `Vec<bool>` encode per pair (the campaign loop before the kernel).
fn sim_batch(unit: &FpuUnit, dta: &tei_netlist::Netlist, pairs: &[(u64, u64)]) -> usize {
    let mut buf = TwoVectorResult::default();
    let mut prev = unit.encode_inputs(pairs[0].0, pairs[0].1);
    for &(a, b) in &pairs[1..] {
        let cur = unit.encode_inputs(a, b);
        ArrivalSim::run_into(dta, &prev, &cur, &mut buf);
        criterion::black_box(buf.settle.first());
        prev = cur;
    }
    pairs.len() - 1
}

/// The per-pair kernel: cached SoA netlist, allocation-free encode,
/// one `reset` and then one chained `advance` per pair.
fn advance_batch(unit: &FpuUnit, pairs: &[(u64, u64)]) -> usize {
    let compiled = unit.dta_compiled();
    let mut kernel = ArrivalKernel::new();
    let mut cur = vec![false; unit.input_width()];
    unit.encode_inputs_into(pairs[0].0, pairs[0].1, &mut cur);
    kernel.reset(compiled, &cur);
    for &(a, b) in &pairs[1..] {
        unit.encode_inputs_into(a, b, &mut cur);
        kernel.advance(compiled, &cur);
        criterion::black_box(&kernel);
    }
    pairs.len() - 1
}

/// One batch through the table kernel at its lane width: bit-sliced
/// windows of up to `W * 64` vectors, consecutive windows overlapping
/// by one vector (the same walk a campaign chunk runs).
fn table_batch(
    engine: &mut dyn ArrivalEngine,
    unit: &FpuUnit,
    flat: &mut [bool],
    pairs: &[(u64, u64)],
) -> usize {
    let width = unit.input_width();
    let window_vectors = engine.window_vectors();
    let mut start = 0usize;
    while start + 1 < pairs.len() {
        let count = (pairs.len() - start).min(window_vectors);
        for (v, &(a, b)) in pairs[start..start + count].iter().enumerate() {
            unit.encode_inputs_into(a, b, &mut flat[v * width..(v + 1) * width]);
        }
        engine.load_window(&flat[..count * width], count);
        for t in 0..count - 1 {
            engine.select_transition(t);
            criterion::black_box(&engine);
        }
        start += count - 1;
    }
    pairs.len() - 1
}

/// Best-of-three pairs/sec of the table kernel at one lane width.
fn table_rate(unit: &FpuUnit, pairs: &[(u64, u64)], lanes: usize, min_secs: f64) -> f64 {
    let mut engine = dta_engine(unit, lanes).expect("supported lane width");
    let mut flat = vec![false; engine.window_vectors() * unit.input_width()];
    pairs_per_sec(
        || table_batch(engine.as_mut(), unit, &mut flat, pairs),
        min_secs,
    )
}

fn campaign_rate(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    threads: usize,
    tuning: DtaTuning,
    min_secs: f64,
) -> f64 {
    pairs_per_sec(
        || {
            criterion::black_box(
                dta_campaign_tuned(unit, pairs, clk, &LEVELS, threads, tuning)
                    .expect("DTA campaign"),
            );
            pairs.len() - 1
        },
        min_secs,
    )
}

fn bench_dta_throughput(c: &mut Criterion) {
    let measured = bench_mode();
    let smoke = std::env::var("TEI_SCALING_SMOKE").is_ok_and(|v| v == "1");
    let (unit, spec) = dmul_unit();
    let n_pairs = if measured { MEASURED_PAIRS } else { 32 };
    let min_secs = if measured { 1.0 } else { 0.0 };
    let pairs = random_operand_pairs(unit.op(), n_pairs, PAIR_SEED);
    let dta = unit.dta_netlist();
    let cores = detected_cores();
    let campaign_tuning = DtaTuning::default();
    // What the default tuning actually resolves to: the auto lane
    // width, and the prune auto-decision from the slack oracle's
    // measured safe fraction.
    let campaign_lanes = resolve_lanes(campaign_tuning.lanes, campaign_tuning.backend, true);
    let prune_decision = resolve_prune(&unit, spec.clk, &LEVELS, campaign_tuning.prune);
    // An honest scaling curve never oversubscribes; the shared plan
    // drops unmeasurable counts and words the degraded flag (the same
    // helper the fabric bench reports through).
    let scaling_plan = ScalingPlan::new(&SCALING_THREADS, cores);
    let scaling_threads = scaling_plan.usable.clone();
    if let Some(reason) = scaling_plan.degraded_reason() {
        println!("dta_throughput: thread scaling — {reason}");
    }

    // Criterion display: per-engine transition throughput.
    let mut group = c.benchmark_group("dta_throughput");
    group.throughput(Throughput::Elements((pairs.len() - 1) as u64));
    group.bench_function(BenchmarkId::from_parameter("arrival_sim"), |b| {
        b.iter(|| sim_batch(&unit, &dta, &pairs));
    });
    group.bench_function(BenchmarkId::from_parameter("arrival_kernel_advance"), |b| {
        b.iter(|| advance_batch(&unit, &pairs));
    });
    for lanes in [1usize, 4, 8] {
        group.bench_function(BenchmarkId::new("table_kernel_w", lanes), |b| {
            let mut engine = dta_engine(&unit, lanes).expect("supported lane width");
            let mut flat = vec![false; engine.window_vectors() * unit.input_width()];
            b.iter(|| table_batch(engine.as_mut(), &unit, &mut flat, &pairs));
        });
    }
    for threads in scaling_threads.iter().copied() {
        group.bench_function(BenchmarkId::new("campaign_threads", threads), |b| {
            b.iter(|| {
                dta_campaign_tuned(&unit, &pairs, spec.clk, &LEVELS, threads, campaign_tuning)
                    .expect("DTA campaign")
            });
        });
    }
    group.bench_function(BenchmarkId::from_parameter("campaign_1_unpruned"), |b| {
        b.iter(|| {
            dta_campaign_tuned(
                &unit,
                &pairs,
                spec.clk,
                &LEVELS,
                1,
                DtaTuning {
                    prune: PrunePolicy::ForceOff,
                    ..campaign_tuning
                },
            )
            .expect("DTA campaign")
        });
    });
    group.finish();

    // Machine-readable summary (measured mode only, so `cargo test`
    // smoke runs never overwrite real numbers).
    let sim_rate = pairs_per_sec(|| sim_batch(&unit, &dta, &pairs), min_secs);
    let advance_rate = pairs_per_sec(|| advance_batch(&unit, &pairs), min_secs);
    let table: Vec<(usize, f64)> = [1usize, 4, 8]
        .into_iter()
        .map(|lanes| (lanes, table_rate(&unit, &pairs, lanes, min_secs)))
        .collect();
    // Campaign scaling curve over the honest thread counts: each point
    // records the thread count it actually ran with.
    let scaling_curve: Vec<(usize, f64)> = scaling_threads
        .iter()
        .map(|&t| {
            let rate = campaign_rate(&unit, &pairs, spec.clk, t, campaign_tuning, min_secs);
            (t, rate)
        })
        .collect();
    // Pruning ablation: the same serial campaign with the slack-oracle
    // safe-bit pruning *forced* on and off (the default campaign runs
    // the auto decision recorded below, which refuses pruning when the
    // oracle proves too few bits safe to pay for the bookkeeping).
    let tuned_rate = |tuning: DtaTuning| {
        pairs_per_sec(
            || {
                criterion::black_box(
                    dta_campaign_tuned(&unit, &pairs, spec.clk, &LEVELS, 1, tuning)
                        .expect("DTA campaign"),
                );
                pairs.len() - 1
            },
            min_secs,
        )
    };
    let campaign_unpruned = tuned_rate(DtaTuning {
        prune: PrunePolicy::ForceOff,
        ..campaign_tuning
    });
    let campaign_pruned = tuned_rate(DtaTuning {
        prune: PrunePolicy::ForceOn,
        ..campaign_tuning
    });
    let pruning_speedup = campaign_pruned / campaign_unpruned;
    let safe_bits = safe_bit_counts(&unit, spec.clk, &LEVELS);
    println!(
        "dta_throughput summary ({cores} cores): sim {sim_rate:.0} pairs/s, advance \
         {advance_rate:.0} ({:.1}x of sim), table {:?}, campaign lanes={campaign_lanes} \
         (auto={}) scaling {:?}, forced-prune x1 {campaign_pruned:.0} vs unpruned \
         {campaign_unpruned:.0} pairs/s ({pruning_speedup:.2}x, safe bits {safe_bits:?}, \
         auto prune {})",
        advance_rate / sim_rate,
        table
            .iter()
            .map(|&(w, r)| format!(
                "w{w}: {r:.0} ({:.1}x sim, {:.2}x advance)",
                r / sim_rate,
                r / advance_rate
            ))
            .collect::<Vec<_>>(),
        campaign_tuning.lanes.is_none(),
        scaling_curve
            .iter()
            .map(|&(t, r)| format!("x{t}: {r:.0}"))
            .collect::<Vec<_>>(),
        if prune_decision.enabled { "on" } else { "off" },
    );
    if measured {
        let table_json = serde_json::Value::Object(
            table
                .iter()
                .flat_map(|&(w, r)| {
                    [
                        (format!("w{w}_pairs_per_sec"), r),
                        (format!("w{w}_speedup_over_sim"), r / sim_rate),
                        (format!("w{w}_speedup_over_advance"), r / advance_rate),
                    ]
                })
                .map(|(k, v)| (k, serde_json::Value::Float(v)))
                .collect(),
        );
        let report = serde_json::json!({
            "bench": "dta_throughput",
            "unit": "d-mul",
            "transitions_per_batch": pairs.len() - 1,
            "vr_levels": LEVELS.len(),
            "detected_cores": cores,
            "arrival_sim_pairs_per_sec": sim_rate,
            "arrival_kernel_advance_pairs_per_sec": advance_rate,
            "advance_speedup_over_sim": advance_rate / sim_rate,
            "table_kernel": table_json,
            "campaign_lanes": campaign_lanes,
            "campaign_lanes_auto": campaign_tuning.lanes.is_none(),
            "thread_scaling": scaling_curve
                .iter()
                .map(|&(t, r)| {
                    serde_json::json!({"threads": t, "pairs_per_sec": r})
                })
                .collect::<Vec<_>>(),
            "thread_scaling_requested": SCALING_THREADS.to_vec(),
            "thread_scaling_degraded": scaling_plan.degraded(),
            "thread_scaling_degraded_reason": scaling_plan.degraded_reason(),
            "pruning": serde_json::json!({
                "campaign_1_thread_pruned_pairs_per_sec": campaign_pruned,
                "campaign_1_thread_unpruned_pairs_per_sec": campaign_unpruned,
                "forced_pruning_speedup": pruning_speedup,
                "safe_bits_per_level": safe_bits,
                "safe_fraction": prune_decision.safe_fraction,
                "auto_threshold": PRUNE_MIN_SAFE_FRACTION,
                "auto_enabled": prune_decision.enabled,
            }),
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dta.json");
        let text = serde_json::to_string_pretty(&report).expect("serialize bench report");
        tei_core::journal::atomic_write_checksummed(
            std::path::Path::new(path),
            (text + "\n").as_bytes(),
        )
        .expect("write BENCH_dta.json");
        println!("wrote {path}");
    }
    if smoke {
        let threads = tei_core::config::default_threads();
        if cores < 2 {
            println!(
                "TEI_SCALING_SMOKE: skipped — {cores} core(s) detected, \
                 parallel speedup is not measurable here"
            );
        } else {
            // Re-measure with a fixed floor so the smoke is meaningful
            // even in `cargo test` quick mode (min_secs = 0 there), and
            // on the measured-mode stream: quick mode's 32 pairs fill
            // one campaign chunk, which only one worker can run.
            let smoke_secs = min_secs.max(0.5);
            let smoke_pairs = random_operand_pairs(unit.op(), MEASURED_PAIRS, PAIR_SEED);
            let tuning = DtaTuning {
                lanes: Some(4),
                ..DtaTuning::default()
            };
            let rate =
                |threads| campaign_rate(&unit, &smoke_pairs, spec.clk, threads, tuning, smoke_secs);
            let serial = rate(1);
            let parallel = rate(threads);
            let scaling = parallel / serial;
            println!(
                "TEI_SCALING_SMOKE: x1 {serial:.0} -> x{threads} {parallel:.0} pairs/s \
                 ({scaling:.2}x, floor {SMOKE_MIN_SCALING}x)"
            );
            assert!(
                scaling >= SMOKE_MIN_SCALING,
                "campaign scaling {scaling:.2}x at {threads} threads is below the \
                 {SMOKE_MIN_SCALING}x floor ({cores} cores detected)"
            );
        }
    }
}

criterion_group!(benches, bench_dta_throughput);
criterion_main!(benches);
