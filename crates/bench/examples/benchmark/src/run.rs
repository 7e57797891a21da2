//! One workload's run: an untimed warm-up, then timed repetitions
//! until the time budget is spent (at least [`MIN_REPS`]), summarized
//! into the metrics of `BENCHMARK.json`.

use crate::flows::{
    self, Ctx, Workload, COUNTS, DTA_LAYERS, INJECTION_LAYERS, SETUP_LAYERS, SPANS,
};
use crate::report::{Definition, Metric, WorkloadResult};
use crate::stats::{median, quartiles};
use crate::trace::{Recorder, RepRecord};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tei_core::dev::{self, DtaTuning, PrunePolicy};
use tei_timing::VoltageReduction;

/// Timed repetitions a run makes at least: single-repetition medians
/// moved by up to 15 % on a shared 2-core host.
const MIN_REPS: usize = 5;

/// Run workload `w`: warm up once, then repeat until `budget` has
/// passed and at least [`MIN_REPS`] repetitions ran. With `trace`,
/// every second repetition keeps spans; the end-to-end metrics come
/// from the others.
pub fn measure(w: Workload, ctx: &Ctx, budget: Duration, trace: bool) -> WorkloadResult {
    let mut problems = Vec::new();
    let prepared = flows::prepare(w, ctx).unwrap_or_else(|e| {
        problems.push(format!("exact reference: {e}"));
        flows::Prepared::default()
    });
    let mut rec = Recorder::new();
    let mut reps: Vec<RepRecord> = Vec::new();
    let mut start = Instant::now();
    for index in 0u64.. {
        let traced = trace && index % 2 == 0 && index > 0;
        rec.begin_rep(index, traced);
        if let Err(e) = flows::rep(w, ctx, &prepared, &mut rec, index) {
            rec.cur.problems.push(e);
        }
        let record = rec.end_rep();
        eprintln!(
            "[{}] repetition {index}{}: {:.3} s",
            w.name(),
            if traced { " (traced)" } else { "" },
            record.wall_s
        );
        reps.push(record);
        if index == 0 {
            // The warm-up is not timed: caches fill and lazy set-up
            // (kernel registry, compiled netlists) finishes here.
            start = Instant::now();
        } else if reps.len() > MIN_REPS && start.elapsed() >= budget {
            break;
        }
    }
    let mut result = summarize(
        w,
        ctx.seed,
        trace,
        &reps,
        prepared.reference_dta_s,
        peak_rss_mb(),
    );
    result.problems.splice(0..0, problems);
    result.correct = result.problems.is_empty();
    result.resolved = resolved(ctx);
    if trace {
        result.spans = rec.spans;
    }
    result
}

/// Summarize repetitions (`reps[0]` is the warm-up) into the metrics of
/// the run's mode.
pub fn summarize(
    w: Workload,
    seed: u64,
    trace: bool,
    reps: &[RepRecord],
    reference_dta_s: f64,
    peak_rss_mb: f64,
) -> WorkloadResult {
    let timed = &reps[1..];
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    for (i, r) in reps.iter().enumerate().skip(1) {
        let differing: Vec<&str> = COUNTS
            .iter()
            .copied()
            .filter(|c| r.counts.get(c) != reps[0].counts.get(c))
            .collect();
        if !differing.is_empty() {
            problems.push(format!(
                "repetition {i} counts differ from the warm-up in {differing:?}"
            ));
        }
    }
    let attempted: u64 = timed.iter().map(|r| r.attempted).sum();
    let failed: u64 = timed.iter().map(|r| r.failed).sum();

    let values: Vec<BTreeMap<String, f64>> = timed
        .iter()
        .map(|r| rep_values(r, reference_dta_s))
        .collect();
    let over = |traced: bool, name: &str| -> Vec<f64> {
        timed
            .iter()
            .zip(&values)
            .filter(|(r, _)| r.traced == traced)
            .filter_map(|(_, v)| v.get(name).copied())
            .collect()
    };
    let def = Definition::load();
    let mut metrics = BTreeMap::new();
    for (name, unit) in def.metrics(trace) {
        let samples = match name {
            "peak_rss_mb" => vec![peak_rss_mb],
            "failed_frac" => vec![failed as f64 / attempted.max(1) as f64],
            "tracing.overhead_frac" => {
                let traced = median(&over(true, "flow_s"));
                let untraced = median(&over(false, "flow_s"));
                vec![if untraced > 0.0 {
                    traced / untraced - 1.0
                } else {
                    0.0
                }]
            }
            // Per-layer values come from the traced repetitions, the
            // end-to-end ones from the untraced repetitions.
            _ => over(trace, name),
        };
        if samples.is_empty() {
            problems.push(format!("metric {name} was not measured"));
            continue;
        }
        let (q1, q3) = quartiles(&samples);
        metrics.insert(
            name.to_string(),
            Metric {
                value: median(&samples),
                unit: unit.to_string(),
                q1,
                q3,
                n: samples.len() as u64,
            },
        );
    }
    WorkloadResult {
        workload: w.name().to_string(),
        seed,
        trace,
        reps: timed.len() as u64,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        resolved: BTreeMap::new(),
        spans: Vec::new(),
    }
}

/// Every per-repetition value a metric can be: wall and set-up time,
/// the rates, the self-time shares, and the counts.
fn rep_values(r: &RepRecord, reference_dta_s: f64) -> BTreeMap<String, f64> {
    let busy = |layers: &[&str]| -> f64 {
        layers
            .iter()
            .filter_map(|l| r.busy.get(l))
            .fold(0.0, |a, b| a + b)
    };
    let count = |name: &str| r.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let injected = count("campaign.runs") + count("journal.runs") + count("fabric.runs");
    let transitions = count("dta.transitions") + count("surrogate.transitions");
    let surrogate_s = busy(&["surrogate.fit", "surrogate.io", "surrogate.filter"]);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    v.insert("flow_s".into(), r.wall_s);
    v.insert("setup_s".into(), busy(&SETUP_LAYERS));
    v.insert(
        "inj_runs_per_s".into(),
        ratio(injected, busy(&INJECTION_LAYERS)),
    );
    v.insert(
        "dta_pairs_per_s".into(),
        ratio(transitions, busy(&DTA_LAYERS)),
    );
    v.insert(
        "campaign.runs_per_s".into(),
        ratio(count("campaign.runs"), busy(&["campaign"])),
    );
    v.insert(
        "fabric.runs_per_s".into(),
        ratio(count("fabric.runs"), busy(&["fabric"])),
    );
    v.insert(
        "journal.overhead_x".into(),
        ratio(busy(&["journal.append"]), busy(&["campaign"])),
    );
    // What the surrogate's fit, artifact I/O and filtered DTA cost
    // against exact DTA over the same transitions.
    v.insert(
        "surrogate.payoff_x".into(),
        ratio(reference_dta_s, surrogate_s),
    );
    v.insert(
        "surrogate.skip_frac".into(),
        ratio(
            count("surrogate.safe_skipped"),
            count("surrogate.transitions"),
        ),
    );
    for name in COUNTS {
        v.insert(name.into(), count(name));
    }
    if r.traced {
        for span in SPANS {
            let self_s = r.self_s.get(span).copied().unwrap_or(0.0);
            v.insert(format!("{span}.self_frac"), ratio(self_s, r.wall_s));
        }
    }
    v
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The choices that actually ran, resolved the way the DTA entry points
/// resolve them.
fn resolved(ctx: &Ctx) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let (bank, spec) = dev::default_bank();
    let tuning = DtaTuning::default();
    for unit in bank.iter() {
        let fresh = tei_kernels::registry().covers(unit);
        let lanes = dev::resolve_lanes(tuning.lanes, tuning.backend, fresh);
        // With no `TEI_KERNEL` set the backend is auto, which
        // `dev::dta_engine` dispatches to a fresh generated kernel at
        // W >= 4 and to the interpreter otherwise.
        let codegen = fresh && lanes >= 4;
        let prune =
            dev::resolve_prune(unit, spec.clk, &[VoltageReduction::VR20], PrunePolicy::Auto);
        out.insert(
            format!("dta.{}", unit.tag()),
            format!(
                "{} W{lanes}, prune {} (safe fraction {:.4} at VR20)",
                if codegen { "codegen" } else { "interp" },
                if prune.enabled { "on" } else { "off" },
                prune.safe_fraction
            ),
        );
    }
    out.insert("threads".into(), ctx.threads.to_string());
    out.insert("journal_fs".into(), fs_type(&ctx.work));
    out
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}
