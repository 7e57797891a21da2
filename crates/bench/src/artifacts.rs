//! The experiment runner: the paper's flow (model development, injection
//! campaigns) over lazily-built, shared artifacts — the calibrated FPU
//! bank, per-benchmark golden runs and operand traces, and the error
//! models. `figures`, `models develop` and `tei sweep` all drive it.
//!
//! A runner is fixed by its [`Sizing`] and its Vdd levels. Each operand
//! stream is walked once for every level: the IA pairs in one
//! [`dev::per_op_stats`] walk per run, each benchmark's trace in one per
//! benchmark. Models are built from those cached statistics.
//!
//! Cached values are lent out as shared [`Arc`] handles, never deep-copied:
//! a paper-scale trace holds up to a million pairs per op.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tei_core::campaign::{run_campaign_checked, CampaignResult, GOLDEN_MEM_BYTES};
use tei_core::{
    dev, CampaignConfig, DaCalibration, DaModel, GoldenRun, MaskSampling, ModelKind, OpErrorStats,
    StatModel, TeiError,
};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_timing::VoltageReduction;
use tei_workloads::{build, Benchmark, BenchmarkId, Scale};

/// The paper's two studied corners: the levels of `figures` and `models`.
pub const CORNERS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// How large an experiment is: benchmark inputs, injection runs per
/// campaign cell and DTA operand pairs per instruction type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Benchmark problem scale.
    pub scale: Scale,
    /// Injection runs per (benchmark, model, level) cell.
    pub runs: usize,
    /// DTA operand pairs per instruction type (IA pairs, trace cap and
    /// DA calibration budget).
    pub dta_pairs: usize,
}

impl Sizing {
    /// The paper's sizing under `TEI_FULL=1`: `Scale::Full`, 1068 runs
    /// per cell (3 % margin at 95 % confidence) and 1 M DTA pairs per
    /// instruction type. Otherwise scaled down for laptop runtimes. The
    /// only reader of `TEI_FULL`.
    pub fn from_env() -> Sizing {
        if std::env::var("TEI_FULL").is_ok_and(|v| v == "1") {
            Sizing {
                scale: Scale::Full,
                runs: 1068,
                dta_pairs: 1_000_000,
            }
        } else {
            Sizing {
                scale: Scale::Small,
                runs: 120,
                dta_pairs: 20_000,
            }
        }
    }
}

/// The experiment runner: a sizing, its Vdd levels, and the artifacts
/// built for them on demand.
pub struct Artifacts {
    sizing: Sizing,
    levels: Vec<VoltageReduction>,
    bank: (FpuBank, FpuTimingSpec),
    benches: Mutex<BTreeMap<BenchmarkId, Benchmark>>,
    goldens: Mutex<BTreeMap<BenchmarkId, Arc<GoldenRun>>>,
    traces: Mutex<BTreeMap<BenchmarkId, Arc<dev::TraceSet>>>,
    /// DTA statistics per operand stream: the IA model's random pairs
    /// (`None`) or a benchmark's trace.
    stats: Mutex<BTreeMap<Option<BenchmarkId>, Arc<LevelStats>>>,
    da_cal: Mutex<Option<DaCalibration>>,
}

/// Per-op DTA statistics at every level of the runner, level-major.
type LevelStats = Vec<Vec<OpErrorStats>>;

/// The value cached under `key`, built by `make` on a miss.
fn cached<K: Ord, V: Clone>(
    cache: &Mutex<BTreeMap<K, V>>,
    key: K,
    make: impl FnOnce() -> Result<V, TeiError>,
) -> Result<V, TeiError> {
    if let Some(v) = cache.lock().expect("cache lock").get(&key) {
        return Ok(v.clone());
    }
    let v = make()?;
    cache.lock().expect("cache lock").insert(key, v.clone());
    Ok(v)
}

impl Artifacts {
    /// A runner at `sizing` over `levels` (generating the FPU bank
    /// eagerly — everything else lazily).
    pub fn new(sizing: Sizing, levels: &[VoltageReduction]) -> Self {
        eprintln!("[artifacts] generating calibrated FPU bank ...");
        Artifacts {
            sizing,
            levels: levels.to_vec(),
            bank: dev::default_bank(),
            benches: Mutex::new(BTreeMap::new()),
            goldens: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(BTreeMap::new()),
            da_cal: Mutex::new(None),
        }
    }

    /// The experiment sizing in use.
    pub fn sizing(&self) -> Sizing {
        self.sizing
    }

    /// The Vdd levels every model is developed at.
    pub fn levels(&self) -> &[VoltageReduction] {
        &self.levels
    }

    /// The levels as a stderr phrase: `VR15, VR20`.
    fn levels_label(&self) -> String {
        let labels: Vec<String> = self.levels.iter().map(|l| l.label()).collect();
        labels.join(", ")
    }

    /// The calibrated FPU bank and timing spec.
    pub fn bank(&self) -> (&FpuBank, &FpuTimingSpec) {
        (&self.bank.0, &self.bank.1)
    }

    /// A built benchmark (cached).
    pub fn bench(&self, id: BenchmarkId) -> Benchmark {
        self.benches
            .lock()
            .expect("benches lock")
            .entry(id)
            .or_insert_with(|| build(id, self.sizing.scale))
            .clone()
    }

    /// The golden run of a benchmark (cached).
    ///
    /// # Errors
    ///
    /// Propagates [`GoldenRun::capture`] failures.
    pub fn golden(&self, id: BenchmarkId) -> Result<Arc<GoldenRun>, TeiError> {
        cached(&self.goldens, id, || {
            eprintln!("[artifacts] golden run of {id} ...");
            let g = GoldenRun::capture(&self.bench(id), GOLDEN_MEM_BYTES, u64::MAX)?;
            Ok(Arc::new(g))
        })
    }

    /// The operand trace of a benchmark (cached; capped at the sizing's
    /// DTA pairs per op).
    pub fn trace(&self, id: BenchmarkId) -> Arc<dev::TraceSet> {
        let mut traces = self.traces.lock().expect("traces lock");
        let t = traces.entry(id).or_insert_with(|| {
            eprintln!("[artifacts] operand trace of {id} ...");
            let program = self.bench(id).program;
            let cap = self.sizing.dta_pairs;
            Arc::new(dev::TraceSet::capture(
                &program,
                GOLDEN_MEM_BYTES,
                u64::MAX,
                cap,
            ))
        });
        Arc::clone(t)
    }

    /// A statistical model at level `vr`, read off statistics cached for
    /// every level of the runner.
    fn model_at(
        &self,
        kind: ModelKind,
        stats: &LevelStats,
        vr: VoltageReduction,
    ) -> Result<StatModel, TeiError> {
        let missing = || TeiError::MissingVrLevel {
            vr: vr.label(),
            context: "the experiment runner's levels",
        };
        let level = self
            .levels
            .iter()
            .position(|&l| l == vr)
            .ok_or_else(missing)?;
        StatModel::from_campaign_stats(kind, vr, MaskSampling::default(), &stats[level])
    }

    /// The instruction-aware model at a level of the runner, from IA
    /// statistics walked once for every level (cached).
    ///
    /// # Errors
    ///
    /// Propagates model-development failures;
    /// [`TeiError::MissingVrLevel`] for a level the runner lacks.
    pub fn ia(&self, vr: VoltageReduction) -> Result<StatModel, TeiError> {
        let stats = self.ia_stats()?;
        self.model_at(ModelKind::Ia, &stats, vr)
    }

    /// The IA statistics at every level: one walk over random operand
    /// pairs (cached).
    fn ia_stats(&self) -> Result<Arc<LevelStats>, TeiError> {
        cached(&self.stats, None, || {
            eprintln!("[artifacts] IA-model DTA at {} ...", self.levels_label());
            let (bank, spec) = self.bank();
            let n = self.sizing.dta_pairs;
            let s = dev::per_op_stats(bank, spec, &self.levels, |op| {
                dev::random_operand_pairs(op, n, 0x1A)
            })?;
            Ok(Arc::new(s))
        })
    }

    /// The workload-aware statistics of a benchmark at every level,
    /// level-major: one walk over its operand trace (cached).
    ///
    /// # Errors
    ///
    /// Propagates model-development failures.
    pub fn wa_stats(&self, id: BenchmarkId) -> Result<Arc<LevelStats>, TeiError> {
        cached(&self.stats, Some(id), || {
            let trace = self.trace(id);
            eprintln!(
                "[artifacts] WA-model DTA for {id} at {} ...",
                self.levels_label()
            );
            let (bank, spec) = self.bank();
            let s = dev::per_op_stats(bank, spec, &self.levels, |op| trace.of(op))?;
            Ok(Arc::new(s))
        })
    }

    /// The workload-aware model of a benchmark at a level of the runner,
    /// built from [`Artifacts::wa_stats`].
    ///
    /// # Errors
    ///
    /// Propagates model-development failures;
    /// [`TeiError::MissingVrLevel`] for a level the runner lacks.
    pub fn wa(&self, id: BenchmarkId, vr: VoltageReduction) -> Result<StatModel, TeiError> {
        let stats = self.wa_stats(id)?;
        self.model_at(ModelKind::Wa, &stats, vr)
    }

    /// The DA calibration over the pooled benchmark mix at every level
    /// (cached): the paper's Section IV.C.1 Monte-Carlo DTA.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn da_calibration(&self) -> Result<DaCalibration, TeiError> {
        if let Some(c) = self.da_cal.lock().expect("da lock").as_ref() {
            return Ok(c.clone());
        }
        eprintln!("[artifacts] DA-model calibration over the benchmark mix ...");
        let mut pooled = dev::TraceSet::default();
        // Pool a prefix of every benchmark's cached trace.
        let budget = self.sizing.dta_pairs;
        let per_bench = (budget / BenchmarkId::all().len()).max(500);
        for id in BenchmarkId::all() {
            pooled.merge_prefix(&self.trace(id), per_bench);
        }
        let (bank, spec) = self.bank();
        let cal = dev::calibrate_da(bank, spec, &pooled, &self.levels, budget)?;
        *self.da_cal.lock().expect("da lock") = Some(cal.clone());
        Ok(cal)
    }

    /// The DA model at a level, built from the pooled calibration.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures and unknown-level lookups.
    pub fn da(&self, vr: VoltageReduction) -> Result<DaModel, TeiError> {
        DaModel::from_calibration(&self.da_calibration()?, vr)
    }

    /// One campaign cell: the benchmark's golden run, the `kind` model
    /// at level `vr`, then an injection campaign of the sizing's runs
    /// from `seed` on `TEI_THREADS` workers.
    ///
    /// # Errors
    ///
    /// Propagates golden-run, model-development and campaign failures.
    pub fn campaign(
        &self,
        id: BenchmarkId,
        kind: ModelKind,
        vr: VoltageReduction,
        seed: u64,
    ) -> Result<CampaignResult, TeiError> {
        let golden = self.golden(id)?;
        let cfg = CampaignConfig {
            runs: self.sizing.runs,
            seed,
            ..CampaignConfig::default()
        };
        match kind {
            ModelKind::Da => run_campaign_checked(id.name(), &golden, &self.da(vr)?, &cfg),
            ModelKind::Ia => run_campaign_checked(id.name(), &golden, &self.ia(vr)?, &cfg),
            ModelKind::Wa => run_campaign_checked(id.name(), &golden, &self.wa(id, vr)?, &cfg),
        }
    }
}
