//! The four workloads, each built only from public layer calls and
//! timed from outside through the [`Recorder`].
//!
//! A workload is a closed loop: one caller makes the layer calls of a
//! repetition back to back. Every repetition rebuilds everything it
//! uses (bank, program, golden run, traces, models), so a repetition's
//! wall time is the flow a user runs, one-time costs included.

use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use tei_core::campaign::{run_campaign_checked, run_campaign_durable, CampaignResult};
use tei_core::{
    dev, dta_campaign_predictive, fit_surrogate, load_surrogate, run_fabric_campaign,
    save_surrogate, CampaignConfig, CampaignSpec, DaModel, DtaTuning, FabricConfig, FabricEvent,
    GoldenRun, InjectionModel, MaskSampling, ModelKind, OutcomeCounts, StatModel, SurrogateMode,
    SurrogateReport, SurrogateRun, TeiError,
};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

/// Memory given to golden runs and trace capture (as `tei sweep` and
/// the fabric use).
const MEM: usize = 8 << 20;
/// AVM target of the sweep's minimum-Vdd decision (the `tei sweep`
/// default).
const AVM_TARGET: f64 = 0.01;
/// Programs of `cell-wa`: k-means converges early, is crashes, cg is
/// mixed, so the three span the masking rate.
const CELL: [BenchmarkId; 3] = [BenchmarkId::Cg, BenchmarkId::Kmeans, BenchmarkId::Is];
/// Programs of `sweep-chain`, in the order their sweeps share one model
/// directory (see README "sweep-chain").
const CHAIN: [BenchmarkId; 2] = [BenchmarkId::Is, BenchmarkId::Sobel];

/// Layers whose busy time is one-time set-up (`setup_s`).
pub const SETUP_LAYERS: [&str; 6] = [
    "bank",
    "workloads",
    "golden",
    "optrace",
    "surrogate.fit",
    "surrogate.io",
];
/// Layers that run injection campaigns (`inj_runs_per_s`).
pub const INJECTION_LAYERS: [&str; 4] = ["campaign", "journal.append", "journal.resume", "fabric"];
/// Layers that run DTA (`dta_pairs_per_s`).
pub const DTA_LAYERS: [&str; 2] = ["dta", "surrogate.filter"];
/// Every span name: the layers plus the repetition itself.
pub const SPANS: [&str; 14] = [
    "bank",
    "workloads",
    "golden",
    "optrace",
    "dta",
    "surrogate.fit",
    "surrogate.io",
    "surrogate.filter",
    "models",
    "campaign",
    "journal.append",
    "journal.resume",
    "fabric",
    "rep",
];
/// Every deterministic count a repetition keeps (absent ones read 0).
pub const COUNTS: [&str; 34] = [
    "golden.instructions",
    "golden.cycles",
    "golden.fp_ops",
    "golden.checkpoints",
    "golden.checkpoint_bytes",
    "optrace.pairs",
    "dta.transitions",
    "dta.faulty",
    "surrogate.transitions",
    "surrogate.safe_skipped",
    "surrogate.audited",
    "surrogate.fallbacks",
    "surrogate.models_fit",
    "surrogate.models_reused",
    "models.built",
    "campaign.runs",
    "campaign.masked",
    "campaign.sdc",
    "campaign.crash",
    "campaign.timeout",
    "campaign.masked_wrong_path",
    "campaign.masked_no_error",
    "campaign.quarantined",
    "campaign.mistargeted",
    "journal.runs",
    "journal.bytes",
    "fabric.runs",
    "fabric.workers",
    "fabric.leases",
    "fabric.workers_died",
    "sweep.points",
    "sweep.points_mismatched",
    "sweep.min_vdd_v",
    "sweep.min_vdd_exact_v",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CellWa,
    DevIa,
    SweepChain,
    Journal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CellWa,
        Workload::DevIa,
        Workload::SweepChain,
        Workload::Journal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CellWa => "cell-wa",
            Workload::DevIa => "dev-ia",
            Workload::SweepChain => "sweep-chain",
            Workload::Journal => "journal",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Sizes::paper`] is what the benchmark measures;
/// tests run the same flows at [`Sizes::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the `cell-wa` and `sweep-chain` programs.
    scale: Scale,
    /// Scale of the `journal` program.
    journal_scale: Scale,
    /// Injection runs per `cell-wa` campaign.
    cell_runs: usize,
    /// Operand pairs kept per op by trace capture and WA DTA.
    trace_cap: usize,
    /// Random operand pairs per op for the IA model.
    ia_pairs: usize,
    /// Sweep grid points over [VR20 Vdd, nominal].
    grid: usize,
    /// Injection runs per sweep grid point.
    sweep_runs: usize,
    /// Injection runs of each `journal` campaign.
    journal_runs: usize,
}

impl Sizes {
    /// The paper's unit of result at its sample size (1068 runs: 3 %
    /// margin at 95 % confidence) and the `tei sweep` defaults.
    pub fn paper() -> Self {
        Sizes {
            scale: Scale::Small,
            journal_scale: Scale::Test,
            cell_runs: 1068,
            trace_cap: 20_000,
            ia_pairs: 100_000,
            grid: 12,
            sweep_runs: 120,
            journal_runs: 16_384,
        }
    }

    /// Reduced sizes for the unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            scale: Scale::Test,
            journal_scale: Scale::Test,
            cell_runs: 24,
            trace_cap: 600,
            ia_pairs: 1_000,
            grid: 3,
            sweep_runs: 12,
            journal_runs: 64,
        }
    }
}

/// What every repetition of a run shares.
pub struct Ctx {
    /// Seed of every campaign and of the IA random pairs.
    pub seed: u64,
    /// Campaign and DTA threads, and fabric workers.
    pub threads: usize,
    pub sizes: Sizes,
    /// Work directory for journals and surrogate artifacts.
    pub work: PathBuf,
    /// Command that starts a fabric worker; `None` skips the fabric call
    /// (unit tests, whose harness cannot act as a worker).
    pub worker_cmd: Option<Vec<String>>,
}

/// Results of the untimed exact-reference pass of `sweep-chain`.
#[derive(Debug, Default)]
pub struct Prepared {
    reference: Vec<SweepOut>,
    /// Busy time of exact DTA in the reference pass.
    pub reference_dta_s: f64,
}

/// Run whatever a workload needs once per invocation, untimed: for
/// `sweep-chain`, the same chain with `SurrogateMode::Off`, whose grid
/// point tallies and minimum Vdd every repetition is checked against.
pub fn prepare(w: Workload, ctx: &Ctx) -> Result<Prepared, String> {
    if w != Workload::SweepChain {
        return Ok(Prepared::default());
    }
    // The reference's DTA time is compared with the repetitions', which
    // run after the warm-up: build the process-wide kernel registry
    // first so neither side pays for it.
    tei_kernels::registry();
    let mut rec = Recorder::new();
    rec.begin_rep(0, false);
    // Exact DTA reads no surrogate models, so the directory stays unused.
    let reference = sweep_chain(&mut rec, ctx, SurrogateMode::Off, &ctx.work);
    let record = rec.end_rep();
    Ok(Prepared {
        reference: reference?,
        reference_dta_s: record.busy.get("dta").copied().unwrap_or(0.0),
    })
}

/// One repetition of workload `w`.
pub fn rep(
    w: Workload,
    ctx: &Ctx,
    prepared: &Prepared,
    rec: &mut Recorder,
    index: u64,
) -> Result<(), String> {
    match w {
        Workload::CellWa => cell_wa(rec, ctx),
        Workload::DevIa => dev_ia(rec, ctx),
        Workload::SweepChain => {
            let dir = fresh_dir(&ctx.work.join(format!("models-{index}")))?;
            let outs = sweep_chain(rec, ctx, SurrogateMode::Filter, &dir);
            std::fs::remove_dir_all(&dir).ok();
            check_sweeps(rec, &outs?, &prepared.reference);
            Ok(())
        }
        Workload::Journal => journal(rec, ctx, index),
    }
}

/// Bank, then per program: build, golden run, trace capture, WA model
/// at VR20, and the paper-sized campaign.
fn cell_wa(rec: &mut Recorder, ctx: &Ctx) -> Result<(), String> {
    let (bank, spec) = rec.time("bank", dev::default_bank);
    let cap = ctx.sizes.trace_cap;
    for id in CELL {
        let bench = rec.time("workloads", || build(id, ctx.sizes.scale));
        let golden = rec.call("golden", || GoldenRun::capture(&bench, MEM, u64::MAX))?;
        count_golden(rec, &golden);
        let trace = rec.time("optrace", || {
            dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap)
        });
        rec.count("optrace.pairs", trace.len() as f64);
        let model = rec.call("dta", || {
            StatModel::workload_aware(&bank, &spec, VoltageReduction::VR20, &trace, cap)
        })?;
        count_dta(rec, &model, |op| trace.of(op).len().min(cap));
        let cfg = campaign_config(ctx, ctx.sizes.cell_runs);
        let result = rec.call("campaign", || {
            run_campaign_checked(id.name(), &golden, &model, &cfg)
        })?;
        count_campaign(rec, &result, cfg.runs);
    }
    Ok(())
}

/// Bank, then the IA model at VR15 and VR20 over random operands.
fn dev_ia(rec: &mut Recorder, ctx: &Ctx) -> Result<(), String> {
    let (bank, spec) = rec.time("bank", dev::default_bank);
    let n = ctx.sizes.ia_pairs;
    let mut ratios = Vec::new();
    for vr in [VoltageReduction::VR15, VoltageReduction::VR20] {
        let model = rec.call("dta", || {
            StatModel::instruction_aware(&bank, &spec, vr, n, ctx.seed)
        })?;
        count_dta(rec, &model, |_| n);
        ratios.push(FpOp::all().map(|op| model.error_ratio(op)));
    }
    // Settle times only grow with the derating factor, so every
    // transition faulty at VR15 is faulty at VR20 too.
    rec.check(
        ratios[0].iter().zip(&ratios[1]).all(|(a, b)| a <= b),
        || format!("IA error ratio falls from VR15 to VR20: {ratios:?}"),
    );
    rec.check(ratios[1].iter().any(|&r| r > 0.0), || {
        "every IA error ratio is 0 at VR20: the timing kernel is broken".to_string()
    });
    Ok(())
}

/// One program's sweep: its grid point tallies and minimum Vdd.
#[derive(Debug, Clone, PartialEq)]
struct SweepOut {
    points: Vec<OutcomeCounts>,
    min_vdd: f64,
}

/// The `tei sweep` flow for every program of [`CHAIN`], in order, all
/// sharing one bank and one surrogate model directory.
fn sweep_chain(
    rec: &mut Recorder,
    ctx: &Ctx,
    mode: SurrogateMode,
    model_dir: &Path,
) -> Result<Vec<SweepOut>, String> {
    let (bank, spec) = rec.time("bank", dev::default_bank);
    CHAIN
        .iter()
        .map(|&id| sweep(rec, ctx, &bank, &spec, id, mode, model_dir))
        .collect()
}

/// The calls `tei sweep` makes: one multi-level DTA pass per op
/// (surrogate load-or-fit-and-save, then the predictive campaign), the
/// golden run, then one WA model and campaign per grid voltage.
fn sweep(
    rec: &mut Recorder,
    ctx: &Ctx,
    bank: &FpuBank,
    spec: &FpuTimingSpec,
    id: BenchmarkId,
    mode: SurrogateMode,
    model_dir: &Path,
) -> Result<SweepOut, String> {
    let bench = rec.time("workloads", || build(id, ctx.sizes.scale));
    let trace = rec.time("optrace", || {
        dev::TraceSet::capture(&bench.program, MEM, u64::MAX, ctx.sizes.trace_cap)
    });
    rec.count("optrace.pairs", trace.len() as f64);
    let (lo, hi) = (
        VoltageReduction::VR20.vdd(),
        VoltageReduction::Nominal.vdd(),
    );
    let n = ctx.sizes.grid;
    let grid: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();
    let levels: Vec<VoltageReduction> = grid.iter().map(|&v| VoltageReduction::Vdd(v)).collect();
    let k_max = levels
        .iter()
        .fold(0.0f64, |a, vr| a.max(vr.derating_factor()));
    let tuning = DtaTuning {
        surrogate: mode,
        ..DtaTuning::default()
    };
    let audit = SurrogateRun::default();
    let mut per_level: Vec<Vec<dev::OpErrorStats>> = vec![Vec::new(); levels.len()];
    for op in FpOp::all() {
        let pairs = trace.of(op);
        if pairs.len() < 2 {
            continue;
        }
        let unit = bank.unit(op);
        let (stats, report) = if mode == SurrogateMode::Off {
            let stats = rec.call("dta", || {
                dev::dta_campaign_tuned(unit, pairs, spec.clk, &levels, ctx.threads, tuning)
            })?;
            let report = SurrogateReport::exact_only("off", (pairs.len() - 1) as u64);
            (stats, report)
        } else {
            // A missing or stale artifact is the expected first-use
            // case, not a failure: it is refit and saved, as `tei sweep`
            // does.
            let model = match rec.time("surrogate.io", || {
                load_surrogate(model_dir, unit, spec.clk, k_max)
            }) {
                Ok(model) => {
                    rec.count("surrogate.models_reused", 1.0);
                    model
                }
                Err(TeiError::SurrogateStale { .. } | TeiError::Io { .. }) => {
                    let model = rec.call("surrogate.fit", || {
                        fit_surrogate(unit, pairs, spec.clk, tuning)
                    })?;
                    rec.call("surrogate.io", || save_surrogate(&model, model_dir))?;
                    rec.count("surrogate.models_fit", 1.0);
                    model
                }
                Err(e) => {
                    rec.cur.failed += 1;
                    return Err(format!("surrogate.io: {e}"));
                }
            };
            rec.call("surrogate.filter", || {
                dta_campaign_predictive(
                    unit,
                    pairs,
                    spec.clk,
                    &levels,
                    ctx.threads,
                    tuning,
                    &model,
                    &audit,
                )
            })?
        };
        rec.count("surrogate.transitions", report.transitions as f64);
        rec.count("surrogate.safe_skipped", report.safe_skipped as f64);
        rec.count("surrogate.audited", report.audited as f64);
        rec.count(
            "surrogate.fallbacks",
            f64::from(u8::from(report.fallback.is_some())),
        );
        for (slot, s) in per_level.iter_mut().zip(stats) {
            slot.push(s);
        }
    }

    let golden = rec.call("golden", || GoldenRun::capture(&bench, MEM, u64::MAX))?;
    count_golden(rec, &golden);
    let cfg = campaign_config(ctx, ctx.sizes.sweep_runs);
    let mut points = Vec::with_capacity(n);
    let mut min_vdd = None;
    for ((&vdd, level), stats) in grid.iter().zip(&levels).zip(&per_level) {
        let model = rec.call("models", || {
            StatModel::from_campaign_stats(ModelKind::Wa, *level, MaskSampling::Empirical, stats)
        })?;
        rec.count("models.built", 1.0);
        let result = rec.call("campaign", || {
            run_campaign_checked(id.name(), &golden, &model, &cfg)
        })?;
        count_campaign(rec, &result, cfg.runs);
        if result.avm() <= AVM_TARGET && min_vdd.is_none() {
            min_vdd = Some(vdd);
        }
        points.push(result.counts);
    }
    Ok(SweepOut {
        points,
        // At nominal Vdd no transition misses the clock, so the last
        // grid point always meets the target.
        min_vdd: min_vdd.unwrap_or(hi),
    })
}

/// Compare a repetition's sweeps with the exact reference: each grid
/// point is one operation, failed when its tally differs.
fn check_sweeps(rec: &mut Recorder, outs: &[SweepOut], reference: &[SweepOut]) {
    let mut min_vdd = 0.0f64;
    let mut min_vdd_exact = 0.0f64;
    for ((out, exact), id) in outs.iter().zip(reference).zip(CHAIN) {
        for (i, (got, want)) in out.points.iter().zip(&exact.points).enumerate() {
            rec.count("sweep.points", 1.0);
            rec.count("sweep.points_mismatched", f64::from(u8::from(got != want)));
            rec.check(got == want, || {
                format!("{id} grid point {i}: surrogate tally {got:?} != exact {want:?}")
            });
        }
        rec.check(out.min_vdd == exact.min_vdd, || {
            format!(
                "{id}: minimum Vdd {} V with the surrogate, {} V exact",
                out.min_vdd, exact.min_vdd
            )
        });
        min_vdd = min_vdd.max(out.min_vdd);
        min_vdd_exact = min_vdd_exact.max(exact.min_vdd);
    }
    // The lowest Vdd at which every program of the chain meets the target.
    rec.set("sweep.min_vdd_v", min_vdd);
    rec.set("sweep.min_vdd_exact_v", min_vdd_exact);
}

/// The same campaign four ways: in memory, durable into a fresh
/// journal, durable again over the complete journal (resume, reads
/// only), and across a worker fleet. Every tally must equal the
/// in-memory one.
fn journal(rec: &mut Recorder, ctx: &Ctx, index: u64) -> Result<(), String> {
    let scale = ctx.sizes.journal_scale;
    let bench = rec.time("workloads", || build(BenchmarkId::Sobel, scale));
    let golden = rec.call("golden", || GoldenRun::capture(&bench, MEM, u64::MAX))?;
    count_golden(rec, &golden);
    let model = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
    let runs = ctx.sizes.journal_runs;
    let cfg = campaign_config(ctx, runs);
    let name = BenchmarkId::Sobel.name();
    let memory = rec.call("campaign", || {
        run_campaign_checked(name, &golden, &model, &cfg)
    })?;
    count_campaign(rec, &memory, runs);

    let dir = fresh_dir(&ctx.work.join(format!("journal-{index}")))?;
    let durable = rec.call("journal.append", || {
        run_campaign_durable(name, &golden, &model, &cfg, &dir)
    })?;
    rec.count("journal.runs", runs as f64);
    rec.cur.attempted += runs as u64;
    check_tally(rec, "durable", &durable.counts, &memory.counts);
    let resumed = rec.call("journal.resume", || {
        run_campaign_durable(name, &golden, &model, &cfg, &dir)
    })?;
    check_tally(rec, "resumed", &resumed.counts, &memory.counts);
    rec.count("journal.bytes", dir_bytes(&dir) as f64);
    std::fs::remove_dir_all(&dir).ok();

    let Some(worker_cmd) = &ctx.worker_cmd else {
        return Ok(());
    };
    let dir = fresh_dir(&ctx.work.join(format!("fabric-{index}")))?;
    let spec = CampaignSpec {
        scale: scale_name(scale).to_string(),
        runs: runs as u64,
        seed: ctx.seed,
        timeout_factor: cfg.timeout_factor,
        threads_per_worker: 1,
        ..CampaignSpec::new(name)
    };
    let mut fabric = FabricConfig::new(worker_cmd.clone(), dir.clone());
    fabric.workers = ctx.threads;
    let (mut leases, mut died) = (0u64, 0u64);
    let result = rec.call("fabric", || {
        run_fabric_campaign(&spec, &fabric, &mut |event| match event {
            FabricEvent::LeaseGranted { .. } => leases += 1,
            FabricEvent::WorkerDied { .. } => died += 1,
            _ => {}
        })
    });
    std::fs::remove_dir_all(&dir).ok();
    let result = result?;
    rec.count("fabric.runs", runs as f64);
    rec.count("fabric.workers", fabric.workers as f64);
    rec.count("fabric.leases", leases as f64);
    rec.count("fabric.workers_died", died as f64);
    rec.cur.attempted += runs as u64;
    check_tally(rec, "fabric", &result.counts, &memory.counts);
    Ok(())
}

fn campaign_config(ctx: &Ctx, runs: usize) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed: ctx.seed,
        threads: ctx.threads,
        ..CampaignConfig::default()
    }
}

fn count_golden(rec: &mut Recorder, golden: &GoldenRun) {
    rec.count("golden.instructions", golden.instructions as f64);
    rec.count("golden.cycles", golden.cycles as f64);
    rec.count("golden.fp_ops", golden.fp_ops as f64);
    rec.count("golden.checkpoints", golden.checkpoints.len() as f64);
    rec.count(
        "golden.checkpoint_bytes",
        golden.checkpoints.footprint_bytes() as f64,
    );
}

/// Count the transitions a statistical model was built from
/// (`pairs_of(op)` operand pairs per op) and the faulty ones among them.
fn count_dta(rec: &mut Recorder, model: &StatModel, pairs_of: impl Fn(FpOp) -> usize) {
    for op in FpOp::all() {
        let transitions = pairs_of(op).saturating_sub(1) as f64;
        rec.count("dta.transitions", transitions);
        // The model's ratio is faulty / transitions, exact in f64.
        rec.count("dta.faulty", (model.error_ratio(op) * transitions).round());
    }
}

/// Fold a campaign tally into the counts; every run is an operation,
/// and a quarantined or mistargeted one is a failed operation.
fn count_campaign(rec: &mut Recorder, result: &CampaignResult, runs: usize) {
    let c = &result.counts;
    for (name, v) in [
        ("campaign.runs", runs as u64),
        ("campaign.masked", c.masked),
        ("campaign.sdc", c.sdc),
        ("campaign.crash", c.crash),
        ("campaign.timeout", c.timeout),
        ("campaign.masked_wrong_path", c.masked_wrong_path),
        ("campaign.masked_no_error", c.masked_no_error),
        ("campaign.quarantined", c.quarantined),
        ("campaign.mistargeted", c.mistargeted),
    ] {
        rec.count(name, v as f64);
    }
    rec.cur.attempted += runs as u64;
    rec.cur.failed += c.quarantined + c.mistargeted;
    rec.check(c.total() == runs as u64, || {
        format!("{}: {} of {runs} runs tallied", result.benchmark, c.total())
    });
    if c.quarantined + c.mistargeted > 0 {
        rec.cur.problems.push(format!(
            "{}: {} quarantined, {} mistargeted runs",
            result.benchmark, c.quarantined, c.mistargeted
        ));
    }
}

fn check_tally(rec: &mut Recorder, what: &str, got: &OutcomeCounts, want: &OutcomeCounts) {
    rec.check(got == want, || {
        format!("{what} tally {got:?} != in-memory {want:?}")
    });
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|m| m.len())
        .sum()
}
