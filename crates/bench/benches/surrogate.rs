//! Predict-then-verify tiering benchmark: exact DTA versus the
//! surrogate-filtered campaign (`SurrogateMode::Filter`) over the operand
//! traces of every seed workload, written to `BENCH_surrogate.json`
//! (with a `.fnv` checksum sidecar) at the workspace root.
//!
//! Three things are recorded, all **measured, never fabricated**:
//!
//! * per-benchmark and overall *effective pairs/s* of the filtered
//!   campaign against exact-only DTA at matched masks — every filtered
//!   result is byte-compared against the exact campaign before its
//!   timing is reported, so a speedup row can never describe a
//!   wrong-answer run;
//! * held-out classification fidelity: a model fitted on the first
//!   half of each trace classifies the second half, and every
//!   safe-classified transition is checked against exact DTA
//!   (`false_safe`);
//! * the fit cost, reported separately — one fitted artifact serves
//!   every subsequent campaign of that unit (the continuous-Vdd sweep
//!   re-uses it at every grid point).
//!
//! `TEI_SURROGATE_SMOKE=1` additionally asserts the contract end to
//! end: byte-identity on every workload, no audit fallback for a sound
//! self-fit model, and a stale (fingerprint-tampered) persisted
//! artifact refusing with the typed [`TeiError::SurrogateStale`].

use std::time::Instant;
use tei_core::dev::{
    self, dta_campaign_predictive, dta_campaign_tuned, fit_surrogate, load_surrogate,
    save_surrogate, surrogate_fidelity, DtaTuning, SurrogateFidelity, SurrogateMode, SurrogateRun,
};
use tei_core::TeiError;
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];
const MEM: usize = 8 << 20;
/// The speedup the tiered pipeline targets on workload traces.
const TARGET_SPEEDUP: f64 = 5.0;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Wall-clock of `f`, best of `reps` (interference only subtracts).
fn secs_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn fidelity_json(f: &SurrogateFidelity) -> serde_json::Value {
    serde_json::json!({
        "transitions": f.transitions,
        "classified_safe": f.classified_safe,
        "classified_erroneous": f.classified_erroneous,
        "classified_uncertain": f.classified_uncertain,
        "false_safe": f.false_safe,
    })
}

fn add_fidelity(total: &mut SurrogateFidelity, f: &SurrogateFidelity) {
    total.transitions += f.transitions;
    total.classified_safe += f.classified_safe;
    total.classified_erroneous += f.classified_erroneous;
    total.classified_uncertain += f.classified_uncertain;
    total.false_safe += f.false_safe;
}

/// The stale-artifact contract: a persisted model whose fingerprint no
/// longer matches the live netlist must refuse typed, never predict.
fn check_stale_artifact_refuses(
    unit: &tei_fpu::FpuUnit,
    model: &tei_timing::SurrogateModel,
    clk: f64,
) {
    let dir = std::env::temp_dir().join(format!("tei-surrogate-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k_max = VoltageReduction::VR20.derating_factor();
    let mut stale = model.clone();
    stale.fingerprint ^= 1;
    save_surrogate(&stale, &dir).expect("save tampered artifact");
    match load_surrogate(&dir, unit, clk, k_max) {
        Err(TeiError::SurrogateStale { .. }) => {
            println!("  stale artifact: refused typed (SurrogateStale) — OK");
        }
        other => panic!("stale artifact must refuse typed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let measured = bench_mode();
    let smoke = std::env::var("TEI_SURROGATE_SMOKE").is_ok_and(|v| v == "1");
    // Measured mode uses the Small workload scale: per-op traces in the
    // tens of thousands of pairs, where bucket hit counts saturate and
    // the per-pair cost dominates the fixed campaign setup (the quick
    // smoke keeps the 1-second Test scale).
    let (scale, cap, min_pairs, reps) = if measured {
        (Scale::Small, 20_000, 256, 2)
    } else {
        (Scale::Test, 384, 64, 1)
    };
    let (bank, spec) = dev::default_bank();
    let tuning = DtaTuning::default();
    let filter_tuning = DtaTuning {
        surrogate: SurrogateMode::Filter,
        ..tuning
    };
    let audit = SurrogateRun::default();
    let cores = tei_bench::scaling::detected_cores();
    println!(
        "surrogate tiering: {} workloads, cap {cap} pairs/op, {cores} core(s)",
        BenchmarkId::all().len()
    );

    let mut bench_rows = Vec::new();
    let mut fid_totals = SurrogateFidelity::default();
    let mut total_transitions = 0u64;
    let mut total_exact_secs = 0.0f64;
    let mut total_filter_secs = 0.0f64;
    let mut total_fit_secs = 0.0f64;
    let mut stale_checked = false;

    for id in BenchmarkId::all() {
        let bench = build(id, scale);
        let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap);
        let mut op_rows = Vec::new();
        let mut b_transitions = 0u64;
        let mut b_safe = 0u64;
        let mut b_exact_eval = 0u64;
        let mut b_exact_secs = 0.0f64;
        let mut b_filter_secs = 0.0f64;
        for op in FpOp::all() {
            let pairs = trace.of(op);
            if pairs.len() < min_pairs {
                continue;
            }
            let unit = bank.unit(op);
            let fit_start = Instant::now();
            let mut model = fit_surrogate(unit, pairs, spec.clk, tuning).expect("surrogate fit");
            // Self-fit: every campaign transition is a member of its
            // bucket, so the bucket maximum bounds it at any count —
            // the min-count floor only protects held-out generalization
            // (the held-out fidelity model below keeps the default).
            // Byte-identity is still asserted and the audit still runs.
            model.min_count = 1;
            let fit_secs = fit_start.elapsed().as_secs_f64();
            total_fit_secs += fit_secs;
            if !stale_checked {
                check_stale_artifact_refuses(unit, &model, spec.clk);
                stale_checked = true;
            }
            // Matched-masks gate first: the speedup row below only
            // exists because these two encodings compare equal.
            let exact = dta_campaign_tuned(unit, pairs, spec.clk, &LEVELS, 1, tuning)
                .expect("exact campaign");
            let (filtered, report) = dta_campaign_predictive(
                unit,
                pairs,
                spec.clk,
                &LEVELS,
                1,
                filter_tuning,
                &model,
                &audit,
            )
            .expect("filtered campaign");
            assert!(
                report.fallback.is_none(),
                "{id} {op}: sound self-fit model fell back: {report:?}"
            );
            assert_eq!(
                serde_json::to_string(&filtered).expect("serialize filtered"),
                serde_json::to_string(&exact).expect("serialize exact"),
                "{id} {op}: filter mode diverged from exact DTA"
            );
            let exact_secs = secs_of(reps, || {
                std::hint::black_box(
                    dta_campaign_tuned(unit, pairs, spec.clk, &LEVELS, 1, tuning)
                        .expect("exact campaign"),
                );
            });
            let filter_secs = secs_of(reps, || {
                std::hint::black_box(
                    dta_campaign_predictive(
                        unit,
                        pairs,
                        spec.clk,
                        &LEVELS,
                        1,
                        filter_tuning,
                        &model,
                        &audit,
                    )
                    .expect("filtered campaign"),
                );
            });
            // Held-out fidelity: fit on the first half, score the rest.
            let mid = pairs.len() / 2;
            let held_model =
                fit_surrogate(unit, &pairs[..mid], spec.clk, tuning).expect("held-out fit");
            let fid =
                surrogate_fidelity(unit, &held_model, &pairs[mid..], spec.clk, &LEVELS, tuning)
                    .expect("fidelity");
            add_fidelity(&mut fid_totals, &fid);
            b_transitions += report.transitions;
            b_safe += report.safe_skipped;
            b_exact_eval += report.exact_evaluated;
            b_exact_secs += exact_secs;
            b_filter_secs += filter_secs;
            op_rows.push(serde_json::json!({
                "op": op.to_string(),
                "pairs": pairs.len(),
                "transitions": report.transitions,
                "safe_skipped": report.safe_skipped,
                "exact_evaluated": report.exact_evaluated,
                "audited": report.audited,
                "fit_secs": fit_secs,
                "exact_secs": exact_secs,
                "filter_secs": filter_secs,
                "speedup": exact_secs / filter_secs,
                "byte_identical": true,
                "held_out": fidelity_json(&fid),
            }));
        }
        if op_rows.is_empty() {
            println!("  {id}: no op with >= {min_pairs} trace pairs, skipped");
            continue;
        }
        let speedup = b_exact_secs / b_filter_secs;
        println!(
            "  {id}: {b_transitions} transitions, {b_safe} skipped safe, exact {b_exact_secs:.2}s \
             vs filtered {b_filter_secs:.2}s ({speedup:.1}x, byte-identical)"
        );
        total_transitions += b_transitions;
        total_exact_secs += b_exact_secs;
        total_filter_secs += b_filter_secs;
        bench_rows.push(serde_json::json!({
            "benchmark": id.name(),
            "transitions": b_transitions,
            "safe_skipped": b_safe,
            "exact_evaluated": b_exact_eval,
            "exact_secs": b_exact_secs,
            "filter_secs": b_filter_secs,
            "effective_speedup": speedup,
            "ops": op_rows,
        }));
    }

    let overall_speedup = total_exact_secs / total_filter_secs;
    println!(
        "surrogate summary: {total_transitions} transitions, exact {total_exact_secs:.2}s vs \
         filtered {total_filter_secs:.2}s — {overall_speedup:.1}x effective (target \
         {TARGET_SPEEDUP}x), held-out false-safe {} of {} safe-classified, fit cost \
         {total_fit_secs:.2}s (amortized across campaigns)",
        fid_totals.false_safe, fid_totals.classified_safe
    );

    if measured {
        let report = serde_json::json!({
            "schema": "tei-surrogate-bench-v1",
            "mode": "filter",
            "audit_fraction": audit.audit_fraction,
            "host_cores": cores,
            "pairs_cap_per_op": cap,
            "vr_levels": LEVELS.len(),
            "benchmarks": bench_rows,
            "overall": serde_json::json!({
                "transitions": total_transitions,
                "exact_secs": total_exact_secs,
                "filter_secs": total_filter_secs,
                "exact_pairs_per_sec": total_transitions as f64 / total_exact_secs,
                "effective_pairs_per_sec": total_transitions as f64 / total_filter_secs,
                "effective_speedup": overall_speedup,
                "target_speedup": TARGET_SPEEDUP,
                "meets_target": overall_speedup >= TARGET_SPEEDUP,
                "byte_identical": true,
            }),
            "held_out_fidelity": fidelity_json(&fid_totals),
            "fit_secs_total": total_fit_secs,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_surrogate.json");
        let text = serde_json::to_string_pretty(&report).expect("serialize bench report");
        tei_core::journal::atomic_write_checksummed(
            std::path::Path::new(path),
            (text + "\n").as_bytes(),
        )
        .expect("write BENCH_surrogate.json");
        println!("wrote {path}");
    }
    if smoke {
        // Byte-identity and no-fallback already asserted per op above;
        // the smoke gate additionally demands the stale-artifact check
        // actually ran and the filter produced real skips somewhere.
        assert!(
            stale_checked,
            "no unit qualified for the stale-artifact check"
        );
        assert!(
            total_transitions > 0,
            "smoke ran no transitions — trace caps too small"
        );
        println!("TEI_SURROGATE_SMOKE: byte-identity + typed stale refusal verified");
    }
}
