//! Shared, lazily-built experiment artifacts: the calibrated FPU bank,
//! per-benchmark golden runs and operand traces, and the error models.
//!
//! Each operand stream is walked once for both corners: the IA pairs in
//! one [`dev::per_op_stats`] walk per run, each benchmark's trace in one
//! per benchmark. Models are built from those cached statistics.
//!
//! Cached values are lent out as shared [`Arc`] handles, never deep-copied:
//! a paper-scale trace holds up to a million pairs per op.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tei_core::{
    campaign::GoldenRun, dev, DaCalibration, DaModel, MaskSampling, ModelKind, OpErrorStats,
    StatModel, TeiError,
};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_timing::VoltageReduction;
use tei_workloads::{build, Benchmark, BenchmarkId, Scale};

/// Data-memory size for benchmark simulations.
pub const MEM: usize = 8 << 20;

/// The two studied corners.
pub const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// Lazily-built shared artifacts for the experiment harness.
pub struct Artifacts {
    scale: Scale,
    bank: (FpuBank, FpuTimingSpec),
    benches: Mutex<BTreeMap<BenchmarkId, Benchmark>>,
    goldens: Mutex<BTreeMap<BenchmarkId, Arc<GoldenRun>>>,
    traces: Mutex<BTreeMap<BenchmarkId, Arc<dev::TraceSet>>>,
    ia: Mutex<Option<Arc<CornerStats>>>,
    wa: Mutex<BTreeMap<BenchmarkId, Arc<CornerStats>>>,
    da_cal: Mutex<Option<DaCalibration>>,
}

/// Per-op DTA statistics at every corner of [`LEVELS`], level-major.
type CornerStats = Vec<Vec<OpErrorStats>>;

/// A statistical model at corner `vr`, read off statistics cached for
/// every corner of [`LEVELS`].
fn model_at(
    kind: ModelKind,
    stats: &CornerStats,
    vr: VoltageReduction,
) -> Result<StatModel, TeiError> {
    let level = LEVELS
        .iter()
        .position(|&l| l == vr)
        .ok_or_else(|| TeiError::MissingVrLevel {
            vr: vr.label(),
            context: "model development corners",
        })?;
    StatModel::from_campaign_stats(kind, vr, MaskSampling::default(), &stats[level])
}

/// Benchmark scale of the paper flow (`figures`, `models`): paper scale
/// under `TEI_FULL=1`, [`Scale::Small`] otherwise.
pub fn experiment_scale() -> Scale {
    if tei_core::config::full_scale() {
        Scale::Full
    } else {
        Scale::Small
    }
}

impl Artifacts {
    /// Build (generating the FPU bank eagerly — everything else lazily).
    pub fn new(scale: Scale) -> Self {
        eprintln!("[artifacts] generating calibrated FPU bank ...");
        Artifacts {
            scale,
            bank: dev::default_bank(),
            benches: Mutex::new(BTreeMap::new()),
            goldens: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(BTreeMap::new()),
            ia: Mutex::new(None),
            wa: Mutex::new(BTreeMap::new()),
            da_cal: Mutex::new(None),
        }
    }

    /// Benchmark problem scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The calibrated FPU bank and timing spec.
    pub fn bank(&self) -> (&FpuBank, &FpuTimingSpec) {
        (&self.bank.0, &self.bank.1)
    }

    /// DTA sample budget per instruction type.
    pub fn dta_samples(&self) -> usize {
        tei_core::config::default_dta_samples()
    }

    /// A built benchmark (cached).
    pub fn bench(&self, id: BenchmarkId) -> Benchmark {
        self.benches
            .lock()
            .expect("benches lock")
            .entry(id)
            .or_insert_with(|| build(id, self.scale))
            .clone()
    }

    /// The golden run of a benchmark (cached).
    ///
    /// # Errors
    ///
    /// Propagates [`GoldenRun::capture`] failures.
    pub fn golden(&self, id: BenchmarkId) -> Result<Arc<GoldenRun>, TeiError> {
        if let Some(g) = self.goldens.lock().expect("goldens lock").get(&id) {
            return Ok(Arc::clone(g));
        }
        eprintln!("[artifacts] golden run of {id} ...");
        let bench = self.bench(id);
        let g = Arc::new(GoldenRun::capture(&bench, MEM, u64::MAX)?);
        self.goldens
            .lock()
            .expect("goldens lock")
            .insert(id, Arc::clone(&g));
        Ok(g)
    }

    /// The operand trace of a benchmark (cached; capped at the DTA budget).
    pub fn trace(&self, id: BenchmarkId) -> Arc<dev::TraceSet> {
        if let Some(t) = self.traces.lock().expect("traces lock").get(&id) {
            return Arc::clone(t);
        }
        eprintln!("[artifacts] operand trace of {id} ...");
        let bench = self.bench(id);
        let t = Arc::new(dev::TraceSet::capture(
            &bench.program,
            MEM,
            u64::MAX,
            self.dta_samples(),
        ));
        self.traces
            .lock()
            .expect("traces lock")
            .insert(id, Arc::clone(&t));
        t
    }

    /// The instruction-aware model at a corner of [`LEVELS`], from IA
    /// statistics walked once for both corners (cached).
    ///
    /// # Errors
    ///
    /// Propagates model-development failures;
    /// [`TeiError::MissingVrLevel`] for a corner outside [`LEVELS`].
    pub fn ia(&self, vr: VoltageReduction) -> Result<StatModel, TeiError> {
        let stats = self.ia_stats()?;
        model_at(ModelKind::Ia, &stats, vr)
    }

    /// The IA statistics at every corner of [`LEVELS`]: one walk over
    /// random operand pairs (cached).
    fn ia_stats(&self) -> Result<Arc<CornerStats>, TeiError> {
        if let Some(s) = self.ia.lock().expect("ia lock").as_ref() {
            return Ok(Arc::clone(s));
        }
        eprintln!("[artifacts] IA-model DTA at VR15 and VR20 ...");
        let (bank, spec) = self.bank();
        let n = self.dta_samples();
        let s = Arc::new(dev::per_op_stats(bank, spec, &LEVELS, |op| {
            dev::random_operand_pairs(op, n, 0x1A)
        })?);
        *self.ia.lock().expect("ia lock") = Some(Arc::clone(&s));
        Ok(s)
    }

    /// The workload-aware statistics of a benchmark at every corner of
    /// [`LEVELS`], level-major: one walk over its operand trace (cached).
    ///
    /// # Errors
    ///
    /// Propagates model-development failures.
    pub fn wa_stats(&self, id: BenchmarkId) -> Result<Arc<CornerStats>, TeiError> {
        if let Some(s) = self.wa.lock().expect("wa lock").get(&id) {
            return Ok(Arc::clone(s));
        }
        let trace = self.trace(id);
        eprintln!("[artifacts] WA-model DTA for {id} at VR15 and VR20 ...");
        let (bank, spec) = self.bank();
        let s = Arc::new(dev::per_op_stats(bank, spec, &LEVELS, |op| trace.of(op))?);
        self.wa.lock().expect("wa lock").insert(id, Arc::clone(&s));
        Ok(s)
    }

    /// The workload-aware model of a benchmark at a corner of
    /// [`LEVELS`], built from [`Artifacts::wa_stats`].
    ///
    /// # Errors
    ///
    /// Propagates model-development failures;
    /// [`TeiError::MissingVrLevel`] for a corner outside [`LEVELS`].
    pub fn wa(&self, id: BenchmarkId, vr: VoltageReduction) -> Result<StatModel, TeiError> {
        let stats = self.wa_stats(id)?;
        model_at(ModelKind::Wa, &stats, vr)
    }

    /// The DA calibration over the pooled benchmark mix (cached):
    /// the paper's Section IV.C.1 Monte-Carlo DTA.
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
        let per_bench = (self.dta_samples() / BenchmarkId::all().len()).max(500);
        for id in BenchmarkId::all() {
            pooled.merge_prefix(&self.trace(id), per_bench);
        }
        let (bank, spec) = self.bank();
        let cal = dev::calibrate_da(bank, spec, &pooled, &LEVELS, self.dta_samples())?;
        *self.da_cal.lock().expect("da lock") = Some(cal.clone());
        Ok(cal)
    }

    /// The DA model at a corner, built from the pooled calibration.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures and unknown-corner lookups.
    pub fn da(&self, vr: VoltageReduction) -> Result<DaModel, TeiError> {
        DaModel::from_calibration(&self.da_calibration()?, vr)
    }
}
