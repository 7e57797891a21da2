//! Application evaluation phase: microarchitecture-aware injection
//! campaigns (paper Section III.B and V).
//!
//! Each campaign cell runs the target benchmark once on the detailed
//! out-of-order core (golden run, counting per operation the FP writebacks
//! and the commits, whose difference is the wrong-path writebacks) and once
//! functionally (golden output and the dynamic FP index of every committed
//! op, by operation). Every injection run then draws an operation weighted
//! by the model's per-instruction error probability times its writebacks,
//! then the wrong path with the op's squashed share; a wrong-path draw
//! classifies as microarchitecturally masked, and otherwise a committed
//! index of that op is corrupted in a fast functional replay whose outcome
//! is classified as Masked / SDC / Crash / Timeout against the golden
//! output (Section IV.A), with the paper's 2× timeout criterion.
//!
//! ## Fault tolerance and durability
//!
//! A paper-scale sweep is 1068 runs per cell across dozens of cells; the
//! runner is built to survive the chaos fault injection creates (the ZOFI
//! principle). Each injection run executes behind a panic isolation
//! boundary: a run that panics is retried once with the same draw, and a
//! second panic **quarantines** the run (recording its `(seed, target,
//! mask)` repro triple) instead of tearing down the worker pool.
//! [`run_campaign_durable`] additionally write-ahead-logs every completed
//! run to a [`Journal`] in group commits sized by replayed work: each
//! thread fsyncs its batch once the batch's charged work reaches
//! [`JOURNAL_BATCH_WORK`] instructions, each run charged at least
//! [`JOURNAL_RUN_FLOOR`] (so at most [`JOURNAL_BATCH_RUNS`] runs per
//! batch). A run counts once its batch is fsync'd. The runner drains
//! workers on SIGINT/SIGTERM and resumes interrupted sweeps with final
//! [`OutcomeCounts`] byte-identical to an uninterrupted campaign.

// Orchestration must degrade to typed errors, never panic mid-sweep
// (clippy.toml bans the panicking extractors here).
#![deny(clippy::disallowed_methods)]

use crate::error::TeiError;
use crate::journal::{fnv64, CampaignManifest, Journal, JournalResume, RecordedOutcome, RunRecord};
use crate::models::InjectionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_uarch::{
    CheckpointPool, CheckpointRecorder, ExitReason, FuncCore, InjectedExit, OooConfig, OooCore,
};
use tei_workloads::Benchmark;

/// Injection-run outcome categories (paper Section IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Execution and output identical to the error-free run.
    Masked,
    /// Completed with different output, no observable indication.
    Sdc,
    /// Process/system crash or floating-point exception.
    Crash,
    /// Did not finish within 2× the error-free execution time.
    Timeout,
}

impl Outcome {
    /// All four categories, paper order.
    pub fn all() -> [Outcome; 4] {
        [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::Crash,
            Outcome::Timeout,
        ]
    }

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "Masked",
            Outcome::Sdc => "SDC",
            Outcome::Crash => "Crash",
            Outcome::Timeout => "Timeout",
        }
    }
}

/// Golden-run record shared by all injection runs of a benchmark.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    program: tei_isa::Program,
    mem_bytes: usize,
    /// Error-free output bytes.
    pub output: Vec<u8>,
    /// Error-free retired instruction count.
    pub instructions: u64,
    /// Error-free dynamic FP operation count.
    pub fp_ops: u64,
    /// Error-free detailed-core cycle count.
    pub cycles: u64,
    /// Committed arch FP indices per operation type, in program order.
    pub arch_by_op: Vec<Vec<u32>>,
    /// Wrong-path (squashed) FP writebacks per operation type: writebacks
    /// that reached the detailed core's hook and never committed.
    pub squashed_by_op: Vec<u64>,
    /// Detailed-core statistics of the golden run.
    pub ooo_stats: tei_uarch::OooStats,
    /// Golden-run checkpoints for the fork-replay engine, shared by all
    /// campaign workers (cheap `Arc` clone).
    pub checkpoints: CheckpointPool,
}

impl GoldenRun {
    /// Execute the golden detailed + functional runs with the recorder's
    /// auto checkpoint policy (a dense initial interval with adaptive
    /// thinning under a fixed snapshot cap).
    ///
    /// # Errors
    ///
    /// [`TeiError::GoldenRun`] if the error-free benchmark does not
    /// complete successfully, the two cores disagree on the output or on
    /// the committed FP ops of any operation type, or the run has more FP
    /// ops than a `u32` index holds.
    pub fn capture(bench: &Benchmark, mem_bytes: usize, max_cycles: u64) -> Result<Self, TeiError> {
        Self::capture_with_checkpoints(bench, mem_bytes, max_cycles, 0)
    }

    /// [`GoldenRun::capture`] with an explicit checkpoint spacing in
    /// dynamic FP operations (0 selects the auto policy). The spacing only
    /// affects replay speed, never campaign outcomes.
    ///
    /// # Errors
    ///
    /// See [`GoldenRun::capture`].
    pub fn capture_with_checkpoints(
        bench: &Benchmark,
        mem_bytes: usize,
        max_cycles: u64,
        checkpoint_interval: u64,
    ) -> Result<Self, TeiError> {
        let fail = |detail: String| TeiError::GoldenRun {
            benchmark: bench.id.to_string(),
            detail,
        };
        let mut ooo = OooCore::with_memory(&bench.program, OooConfig::default(), mem_bytes);
        let od = ooo.run(max_cycles);
        if !od.exit.is_success() {
            return Err(fail(format!("detailed run exited with {:?}", od.exit)));
        }
        let mut func = FuncCore::with_memory(&bench.program, mem_bytes);
        let mut recorder = CheckpointRecorder::try_new(&func, checkpoint_interval)
            .map_err(|e| fail(e.to_string()))?;
        let mut arch_by_op: Vec<Vec<u32>> = vec![Vec::new(); 12];
        let mut next_index = Some(0u32);
        // Manual run loop so checkpoints are captured at instruction
        // boundaries whenever the FP-op counter crosses the next mark.
        let exit = loop {
            recorder.observe(&func);
            match func.step(&mut |ev| {
                push_arch_index(&mut arch_by_op, &mut next_index, ev.op);
                ev.result
            }) {
                Ok(None) => {}
                Ok(Some(exit)) => break exit,
                Err(trap) => break ExitReason::Trapped(trap),
            }
        };
        if !matches!(exit, ExitReason::Halted | ExitReason::Exited(0)) {
            return Err(fail(format!("functional run exited with {exit:?}")));
        }
        if next_index.is_none() {
            return Err(fail(format!(
                "{} FP ops exceed the u32 index range",
                func.fp_ops()
            )));
        }
        let stats = &ooo.stats;
        let same_fp_mix = arch_by_op
            .iter()
            .zip(stats.fp_committed_by_op)
            .all(|(arch, committed)| arch.len() as u64 == committed);
        if func.output != ooo.output || !same_fp_mix {
            return Err(fail("core disagreement in golden run".to_string()));
        }
        let squashed_by_op = (stats.fp_written_back_by_op.iter())
            .zip(stats.fp_committed_by_op)
            .map(|(&written_back, committed)| written_back - committed)
            .collect();
        Ok(GoldenRun {
            program: bench.program.clone(),
            mem_bytes,
            instructions: func.instructions(),
            fp_ops: func.fp_ops(),
            output: func.output,
            cycles: ooo.stats.cycles,
            arch_by_op,
            squashed_by_op,
            ooo_stats: ooo.stats.clone(),
            checkpoints: recorder.finish(),
        })
    }
}

/// Append the next dynamic FP index to `op`'s list. `next` turns `None`
/// once the indices leave the `u32` range, and nothing is appended after.
fn push_arch_index(arch_by_op: &mut [Vec<u32>], next: &mut Option<u32>, op: FpOp) {
    if let Some(i) = *next {
        arch_by_op[op.index()].push(i);
        *next = i.checked_add(1);
    }
}

/// How each injection run replays the corrupted execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplayMode {
    /// Fresh core per run, full re-execution from instruction zero (the
    /// original engine; kept as the reference the replay tests compare
    /// against).
    FromZero,
    /// Fork from the nearest golden checkpoint, fast-forward hook-free to
    /// the target, and cut the run short on state re-convergence.
    #[default]
    Checkpointed,
}

/// Test-only chaos hooks, used to exercise the fault-tolerance machinery
/// deterministically. All fields default to "off"; they are excluded from
/// serialization and from the campaign manifest, so chaos settings never
/// change a journal's identity.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Chaos {
    /// Run indices whose *first* attempt panics (the retry succeeds).
    pub panic_once: Vec<usize>,
    /// Run indices that panic on every attempt (always quarantined).
    pub panic_always: Vec<usize>,
    /// Per-run sleep in milliseconds — slows a sweep down so external
    /// kill-and-resume tests reliably interrupt it mid-flight.
    pub throttle_ms: u64,
    /// Stop scheduling new runs once this many runs were queued for the
    /// journal (simulates an interrupt at a deterministic point; each
    /// thread commits its queued batch before it stops).
    pub stop_after_appends: Option<u64>,
}

impl Chaos {
    fn should_panic(&self, run: usize, attempt: u32) -> bool {
        self.panic_always.contains(&run) || (attempt == 0 && self.panic_once.contains(&run))
    }
}

/// Campaign sizing and determinism knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Injection runs (paper: 1068 for 3 % margin / 95 % confidence).
    pub runs: usize,
    /// Base RNG seed (each run derives its own).
    pub seed: u64,
    /// Timeout threshold as a multiple of the error-free instruction count.
    pub timeout_factor: f64,
    /// Worker threads.
    pub threads: usize,
    /// Replay engine. Outcome tallies are byte-identical across modes and
    /// thread counts; only wall-clock differs.
    pub mode: ReplayMode,
    /// Test-only fault/chaos hooks. Excluded from the campaign manifest,
    /// so chaos settings never change a journal's identity.
    pub chaos: Chaos,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: crate::config::default_runs(),
            seed: 0x7e1_c0de,
            timeout_factor: 2.0,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            mode: ReplayMode::default(),
            chaos: Chaos::default(),
        }
    }
}

impl CampaignConfig {
    /// Sanity-check the sizing knobs before a long sweep.
    ///
    /// # Errors
    ///
    /// [`TeiError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), TeiError> {
        let bad = |knob: &str, reason: String| TeiError::Config {
            knob: knob.to_string(),
            reason,
        };
        if self.runs == 0 {
            return Err(bad("runs", "must be at least 1".into()));
        }
        if self.threads == 0 {
            return Err(bad("threads", "must be at least 1".into()));
        }
        if !(self.timeout_factor.is_finite() && self.timeout_factor > 0.0) {
            return Err(bad(
                "timeout_factor",
                format!("{} is not a positive finite factor", self.timeout_factor),
            ));
        }
        Ok(())
    }
}

/// Outcome tally of one campaign cell.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Masked runs (total, including the microarchitectural subset).
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes.
    pub crash: u64,
    /// Timeouts.
    pub timeout: u64,
    /// Subset of `masked`: injection landed on a squashed (wrong-path)
    /// instruction.
    pub masked_wrong_path: u64,
    /// Subset of `masked`: the model assigned zero error probability to
    /// every executed instruction, so no error manifests at this corner.
    pub masked_no_error: u64,
    /// Runs whose drawn target FP event never fired during replay (e.g. a
    /// trap or the step budget hit before reaching it). Should stay 0 —
    /// targets are drawn from committed golden events, and the identical
    /// prefix guarantees they are reached; a non-zero value flags silent
    /// mis-targeting.
    pub mistargeted: u64,
    /// Runs that panicked on both attempts and were isolated instead of
    /// classified (their repro triples are in
    /// [`CampaignResult::quarantined`]). Should stay 0; a non-zero value
    /// flags a replay-engine bug without invalidating the rest of the
    /// sweep.
    pub quarantined: u64,
}

impl OutcomeCounts {
    pub(crate) fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Timeout => self.timeout += 1,
        }
    }

    pub(crate) fn merge(&mut self, other: &OutcomeCounts) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.timeout += other.timeout;
        self.masked_wrong_path += other.masked_wrong_path;
        self.masked_no_error += other.masked_no_error;
        self.mistargeted += other.mistargeted;
        self.quarantined += other.quarantined;
    }

    /// Total runs tallied (classified + quarantined).
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.crash + self.timeout + self.quarantined
    }
}

/// Repro handle of a run that panicked on both attempts: everything
/// needed to replay it offline (`seed` re-derives the draw; `target` and
/// `mask` are the draw it made, when the panic happened after drawing).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedRun {
    /// Run index within the campaign.
    pub run: u64,
    /// The run's derived RNG seed.
    pub seed: u64,
    /// Drawn target FP index (None when the draw itself was unreachable).
    pub target: Option<u64>,
    /// Drawn XOR corruption mask.
    pub mask: u64,
    /// Panic payload of the failing attempt (best effort).
    pub message: String,
}

/// Result of one campaign cell (benchmark × model × VR).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Model family label.
    pub model: String,
    /// Voltage-reduction level.
    pub vr: VoltageReduction,
    /// Outcome tally.
    pub counts: OutcomeCounts,
    /// The model's injected error ratio on this workload — the fraction of
    /// dynamic FP instructions the model deems faulty (paper eq. 2 /
    /// Figure 10).
    pub error_ratio: f64,
    /// Quarantined runs with their repro triples, sorted by run index.
    pub quarantined: Vec<QuarantinedRun>,
}

impl CampaignResult {
    /// Application Vulnerability Metric (paper eq. 4), over classified
    /// runs (quarantined runs carry no outcome and are excluded from both
    /// numerator and denominator).
    pub fn avm(&self) -> f64 {
        let t = self.counts.total() - self.counts.quarantined;
        if t == 0 {
            0.0
        } else {
            (self.counts.sdc + self.counts.crash + self.counts.timeout) as f64 / t as f64
        }
    }

    /// Outcome fractions in `[Masked, SDC, Crash, Timeout]` order.
    pub fn fractions(&self) -> [f64; 4] {
        let t = (self.counts.total() - self.counts.quarantined).max(1) as f64;
        [
            self.counts.masked as f64 / t,
            self.counts.sdc as f64 / t,
            self.counts.crash as f64 / t,
            self.counts.timeout as f64 / t,
        ]
    }
}

/// The model's expected error ratio over a golden run's FP instruction mix.
pub fn model_error_ratio<M: InjectionModel + ?Sized>(model: &M, golden: &GoldenRun) -> f64 {
    if golden.fp_ops == 0 {
        return 0.0;
    }
    let mut expected = 0.0;
    for op in FpOp::all() {
        expected += model.error_ratio(op) * golden.arch_by_op[op.index()].len() as f64;
    }
    expected / golden.fp_ops as f64
}

/// Per-cell draw tables, hoisted out of the per-run loop: event weights
/// per op (architectural + wrong-path writebacks, each weighted by the
/// model's per-instruction error probability). The per-run scan over the
/// 12 entries is kept bit-identical to the original per-run computation.
struct CellPlan {
    weights: [f64; 12],
    total: f64,
}

impl CellPlan {
    fn new<M: InjectionModel + ?Sized>(golden: &GoldenRun, model: &M) -> Self {
        let mut weights = [0f64; 12];
        let mut total = 0.0;
        for op in FpOp::all() {
            let i = op.index();
            let events = golden.arch_by_op[i].len() as f64 + golden.squashed_by_op[i] as f64;
            weights[i] = model.error_ratio(op) * events;
            total += weights[i];
        }
        CellPlan { weights, total }
    }
}

/// What a run's seeded RNG draw selected, before any replay happens.
/// Pure and panic-free, so quarantine reporting can re-derive the repro
/// triple of a run that panicked mid-replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// The model predicts no errors anywhere in this execution.
    NoError,
    /// The draw landed on a squashed (wrong-path) writeback.
    WrongPath,
    /// Corrupt FP event `target` with XOR `mask`.
    Inject {
        /// Target dynamic FP index.
        target: u64,
        /// XOR corruption mask.
        mask: u64,
    },
}

/// Tally of one injection run.
struct RunTally {
    outcome: Outcome,
    wrong_path: bool,
    no_error: bool,
    mistargeted: bool,
    target: Option<u64>,
    mask: u64,
    /// The replay core's retired instruction count when the run ended (0
    /// for draws that replay nothing); the journal's batch sizing reads it.
    retired: u64,
}

/// Per-worker replay context: the cell plan plus the reusable fork core
/// (checkpointed mode).
struct Runner<'a, M: ?Sized> {
    golden: &'a GoldenRun,
    model: &'a M,
    plan: &'a CellPlan,
    timeout_steps: u64,
    /// Checkpointed (fork-replay) mode rather than from-zero replay.
    checkpointed: bool,
    /// Reusable core for checkpoint restores, built on the first replay
    /// (a worker whose runs are all journaled never needs one).
    fork: Option<FuncCore>,
}

impl<'a, M: InjectionModel + ?Sized> Runner<'a, M> {
    fn new(
        golden: &'a GoldenRun,
        model: &'a M,
        plan: &'a CellPlan,
        timeout_steps: u64,
        mode: ReplayMode,
    ) -> Runner<'a, M> {
        Runner {
            golden,
            model,
            plan,
            timeout_steps,
            checkpointed: mode == ReplayMode::Checkpointed,
            fork: None,
        }
    }

    /// Drop the fork core after a panic may have left it mid-replay; the
    /// next replay builds a fresh one.
    fn reset_fork(&mut self) {
        self.fork = None;
    }

    /// Re-derive the run's draw from its seed without replaying anything.
    fn draw(&self, seed: u64) -> Draw {
        let golden = self.golden;
        let mut rng = StdRng::seed_from_u64(seed);
        if self.plan.total <= 0.0 {
            return Draw::NoError;
        }
        // Draw the target operation type.
        let mut draw = rng.gen_range(0.0..self.plan.total);
        let mut op_idx = 11;
        for (i, &w) in self.plan.weights.iter().enumerate() {
            if draw < w {
                op_idx = i;
                break;
            }
            draw -= w;
        }
        let op = FpOp::all()[op_idx];
        let arch_count = golden.arch_by_op[op_idx].len() as u64;
        let squashed = golden.squashed_by_op[op_idx];
        // Wrong-path hit → microarchitectural masking.
        if rng.gen_range(0..arch_count + squashed) >= arch_count {
            return Draw::WrongPath;
        }
        let target = u64::from(golden.arch_by_op[op_idx][rng.gen_range(0..arch_count as usize)]);
        let mask = self.model.sample_mask(op, &mut rng);
        debug_assert_ne!(mask, 0, "models must produce non-empty masks");
        Draw::Inject { target, mask }
    }

    /// Run one injection experiment.
    fn one_run(&mut self, seed: u64) -> RunTally {
        let (target, mask) = match self.draw(seed) {
            Draw::NoError => {
                return RunTally {
                    outcome: Outcome::Masked,
                    wrong_path: false,
                    no_error: true,
                    mistargeted: false,
                    target: None,
                    mask: 0,
                    retired: 0,
                }
            }
            Draw::WrongPath => {
                return RunTally {
                    outcome: Outcome::Masked,
                    wrong_path: true,
                    no_error: false,
                    mistargeted: false,
                    target: None,
                    mask: 0,
                    retired: 0,
                }
            }
            Draw::Inject { target, mask } => (target, mask),
        };

        let (outcome, fired, retired) = self.replay(target, mask);
        debug_assert!(fired, "target FP event {target} never fired");
        RunTally {
            outcome,
            wrong_path: false,
            no_error: false,
            mistargeted: !fired,
            target: Some(target),
            mask,
            retired,
        }
    }

    /// Replay the corrupted execution and classify it. Also returns
    /// whether the target fired and the core's final retired count.
    fn replay(&mut self, target: u64, mask: u64) -> (Outcome, bool, u64) {
        let golden = self.golden;
        if !self.checkpointed {
            // Reference engine: full functional replay from instruction 0.
            let mut core = FuncCore::with_memory(&golden.program, golden.mem_bytes);
            let mut injected = false;
            let r = core.run_with_hook(self.timeout_steps, &mut |ev| {
                if ev.index == target {
                    injected = true;
                    ev.result ^ mask
                } else {
                    ev.result
                }
            });
            return (
                classify(r.exit, &core.output, &golden.output),
                injected,
                core.instructions(),
            );
        }
        // Checkpointed fork-replay with early-convergence cutoff.
        let core = self
            .fork
            .get_or_insert_with(|| FuncCore::with_memory(&golden.program, golden.mem_bytes));
        let inj = golden
            .checkpoints
            .run_injected(core, self.timeout_steps, target, mask);
        let outcome = match inj.exit {
            InjectedExit::Converged {
                output_matches,
                instructions,
                checkpoint_instructions,
            } => {
                // The rest of the run is identical to the golden suffix;
                // apply the timeout criterion to the implied full
                // instruction count.
                let total = instructions + (golden.instructions - checkpoint_instructions);
                if total > self.timeout_steps {
                    Outcome::Timeout
                } else if output_matches {
                    Outcome::Masked
                } else {
                    Outcome::Sdc
                }
            }
            InjectedExit::Finished(r) => classify(r.exit, &core.output, &golden.output),
        };
        (outcome, inj.fired, core.instructions())
    }
}

/// Map an exit + output comparison to the paper's outcome taxonomy.
fn classify(exit: ExitReason, output: &[u8], golden_output: &[u8]) -> Outcome {
    match exit {
        ExitReason::Trapped(_) => Outcome::Crash,
        ExitReason::Limit => Outcome::Timeout,
        ExitReason::Exited(c) if c != 0 => Outcome::Crash,
        ExitReason::Halted | ExitReason::Exited(_) => {
            if output == golden_output {
                Outcome::Masked
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Stable 64-bit FNV-1a over the model name — salts the per-cell seed so
/// DA/IA/WA cells at the same VR draw decorrelated outcome streams.
fn model_salt(name: &str) -> u64 {
    fnv64(name.as_bytes())
}

/// The per-run derived seed (stable across engines, thread counts, and
/// resume boundaries — the determinism anchor of the whole campaign
/// layer).
fn run_seed(cell_seed: u64, run: usize) -> u64 {
    cell_seed ^ ((run as u64) << 20)
}

fn cell_seed<M: InjectionModel + ?Sized>(cfg: &CampaignConfig, model: &M) -> u64 {
    // Decorrelate cells that share a base seed: different corners via the
    // VR salt, different model families at the same corner via the model
    // name salt.
    let vr_salt = (model.vr().fraction() * 1e6) as u64;
    cfg.seed
        ^ vr_salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ model_salt(model.name()).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Outcome of one panic-isolated injection run.
enum IsolatedRun {
    Tally(
        RunTally,
        /* retried */ bool,
        /* run */ u64,
        /* seed */ u64,
    ),
    Quarantined(QuarantinedRun),
}

/// Execute run `r` behind the panic isolation boundary: a panicking run
/// is retried once with the same draw (same derived seed), and a second
/// panic quarantines it with its repro triple instead of unwinding into
/// the worker pool.
fn run_isolated<M: InjectionModel + ?Sized>(
    runner: &mut Runner<'_, M>,
    chaos: &Chaos,
    r: usize,
    seed: u64,
) -> IsolatedRun {
    for attempt in 0u32..2 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if chaos.should_panic(r, attempt) {
                panic!("chaos hook: injected panic in run {r}");
            }
            runner.one_run(seed)
        }));
        match result {
            Ok(tally) => return IsolatedRun::Tally(tally, attempt > 0, r as u64, seed),
            Err(payload) => {
                // The panic may have left the reusable fork core
                // mid-replay; rebuild it before the retry touches it.
                runner.reset_fork();
                if attempt == 1 {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    // Re-derive the repro triple without replaying.
                    let (target, mask) = match runner.draw(seed) {
                        Draw::Inject { target, mask } => (Some(target), mask),
                        _ => (None, 0),
                    };
                    return IsolatedRun::Quarantined(QuarantinedRun {
                        run: r as u64,
                        seed,
                        target,
                        mask,
                        message,
                    });
                }
            }
        }
    }
    unreachable!("loop returns on success or second failure")
}

/// Build the journal record and tally delta of one isolated run — the
/// single place a run's outcome becomes durable bytes, shared by the
/// in-process worker pool and the fabric's leased execution.
fn record_of(isolated: IsolatedRun, golden_instructions: u64) -> (RunRecord, OutcomeCounts) {
    match isolated {
        IsolatedRun::Tally(tally, retried, run, seed) => {
            let mut c = OutcomeCounts::default();
            c.add(tally.outcome);
            if tally.wrong_path {
                c.masked_wrong_path += 1;
            }
            if tally.no_error {
                c.masked_no_error += 1;
            }
            if tally.mistargeted {
                c.mistargeted += 1;
            }
            (
                RunRecord {
                    run,
                    seed,
                    target: tally.target,
                    mask: tally.mask,
                    outcome: RecordedOutcome::Classified(tally.outcome),
                    wrong_path: tally.wrong_path,
                    no_error: tally.no_error,
                    mistargeted: tally.mistargeted,
                    retried,
                    instructions: golden_instructions,
                },
                c,
            )
        }
        IsolatedRun::Quarantined(q) => {
            let mut c = OutcomeCounts::default();
            c.quarantined += 1;
            (
                RunRecord {
                    run: q.run,
                    seed: q.seed,
                    target: q.target,
                    mask: q.mask,
                    outcome: RecordedOutcome::Quarantined,
                    wrong_path: false,
                    no_error: false,
                    mistargeted: false,
                    retried: true,
                    instructions: golden_instructions,
                },
                c,
            )
        }
    }
}

/// Fold one journaled record into a running tally — the inverse of
/// [`record_of`], shared by the durable resume path and the fabric's
/// deterministic merge. [`OutcomeCounts`] fields are commutative sums,
/// so the fold order never changes the result.
pub(crate) fn absorb_record(
    counts: &mut OutcomeCounts,
    quarantined: &mut Vec<QuarantinedRun>,
    rec: &RunRecord,
) {
    match rec.outcome {
        RecordedOutcome::Classified(o) => {
            counts.add(o);
            if rec.wrong_path {
                counts.masked_wrong_path += 1;
            }
            if rec.no_error {
                counts.masked_no_error += 1;
            }
            if rec.mistargeted {
                counts.mistargeted += 1;
            }
        }
        RecordedOutcome::Quarantined => {
            counts.quarantined += 1;
            quarantined.push(QuarantinedRun {
                run: rec.run,
                seed: rec.seed,
                target: rec.target,
                mask: rec.mask,
                message: "replayed from journal".to_string(),
            });
        }
    }
}

/// Work budget of one journal group commit, in charged replay
/// instructions: a campaign thread fsyncs its pending batch once the
/// batch's charged work reaches this (and at the end of its run range or
/// before a stop). 2^22 instructions are about 20-30 ms of replay, so a
/// cheap cell no longer pays one fsync per few microseconds of work, and
/// a crash loses at most one batch per thread: under this budget plus
/// one run's charge, and at most [`JOURNAL_BATCH_RUNS`] runs.
pub const JOURNAL_BATCH_WORK: u64 = 1 << 22;

/// Least charge of one run toward [`JOURNAL_BATCH_WORK`]. A run is
/// charged the instructions its replay retired past the restored
/// checkpoint (from instruction 0 under [`ReplayMode::FromZero`]), or
/// this floor if that is less; wrong-path, no-error and quarantined runs
/// replay nothing and pay the floor. A run's replay is a pure function
/// of (cell seed, run index), so commit points, and with them failpoint
/// hit order, are a pure function of the cell and the thread count.
pub const JOURNAL_RUN_FLOOR: u64 = 1 << 10;

/// Most runs one journal batch holds: the work budget over the per-run
/// floor (4,096).
pub const JOURNAL_BATCH_RUNS: usize = (JOURNAL_BATCH_WORK / JOURNAL_RUN_FLOOR) as usize;

/// The instructions run `isolated`'s replay retired past its starting
/// point: the restored checkpoint, or instruction 0 under
/// [`ReplayMode::FromZero`]. 0 for runs that replayed nothing.
fn replayed_instructions(golden: &GoldenRun, mode: ReplayMode, isolated: &IsolatedRun) -> u64 {
    let IsolatedRun::Tally(tally, ..) = isolated else {
        return 0;
    };
    match (tally.target, mode) {
        (None, _) => 0,
        (Some(_), ReplayMode::FromZero) => tally.retired,
        (Some(target), ReplayMode::Checkpointed) => tally
            .retired
            .saturating_sub(golden.checkpoints.nearest(target).instructions()),
    }
}

/// One campaign thread's uncommitted journal batch: its records, the sum
/// of their tallies, and their charged work.
#[derive(Default)]
struct Batch {
    records: Vec<RunRecord>,
    counts: OutcomeCounts,
    work: u64,
}

impl Batch {
    /// Queue one run that replayed `replayed` instructions; true once the
    /// batch's charged work has reached [`JOURNAL_BATCH_WORK`].
    fn push(&mut self, record: RunRecord, counts: &OutcomeCounts, replayed: u64) -> bool {
        self.records.push(record);
        self.counts.merge(counts);
        self.work += replayed.max(JOURNAL_RUN_FLOOR);
        self.work >= JOURNAL_BATCH_WORK
    }
}

/// One campaign thread's journaled sweep over `runs`: `execute` each run
/// (its record, tally and replayed instructions), queue it, and hand the
/// batch to `commit` once it is due, at the end of the range, and before
/// a stop. `commit` returns `Ok(false)` when it dropped the batch (disk
/// full), which ends the sweep. Returns whether a stop or a dropped
/// batch cut the sweep short.
fn journal_runs(
    runs: impl Iterator<Item = usize>,
    stop_requested: impl Fn() -> bool,
    mut execute: impl FnMut(usize) -> (RunRecord, OutcomeCounts, u64),
    mut commit: impl FnMut(Batch) -> Result<bool, TeiError>,
) -> Result<bool, TeiError> {
    let mut batch = Batch::default();
    let mut interrupted = false;
    for r in runs {
        if stop_requested() {
            interrupted = true;
            break;
        }
        let (record, counts, replayed) = execute(r);
        if batch.push(record, &counts, replayed) && !commit(std::mem::take(&mut batch))? {
            return Ok(true);
        }
    }
    // The range ended or a stop drained it: commit the partial batch.
    if !batch.records.is_empty() && !commit(batch)? {
        interrupted = true;
    }
    Ok(interrupted)
}

/// Everything a cell execution produces: merged tallies, quarantine
/// reports, and whether a cooperative stop cut the sweep short.
struct CellOutcome {
    counts: OutcomeCounts,
    quarantined: Vec<QuarantinedRun>,
    interrupted: bool,
    /// The journal that hit `ENOSPC`, when disk exhaustion (real or
    /// failpoint-injected) paused the sweep.
    disk_full: Option<PathBuf>,
}

/// What [`execute_lease`] produced for one leased run range.
#[derive(Debug)]
pub struct LeaseOutcome {
    /// Tally delta of the runs executed under this lease.
    pub counts: OutcomeCounts,
    /// Quarantined runs within the lease, sorted by run index.
    pub quarantined: Vec<QuarantinedRun>,
    /// A shutdown signal cut the lease short (every run tallied in
    /// `counts` is committed to the journal).
    pub interrupted: bool,
    /// Disk exhaustion paused the lease: the named journal hit `ENOSPC`,
    /// the failed batch was dropped untallied, and everything
    /// acknowledged is durable — resumable once space is freed.
    pub disk_full: Option<PathBuf>,
}

/// The shared worker-pool core of [`run_campaign`],
/// [`run_campaign_durable`], and the fabric's [`execute_lease`]: shard
/// `span` across workers, skip runs already journaled, isolate panics,
/// and (when a journal is present) write-ahead-log every completed run
/// before tallying it, one group commit per [`JOURNAL_BATCH_WORK`]
/// charged instructions per thread.
fn execute_cell<M: InjectionModel + Sync + ?Sized>(
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
    span: std::ops::Range<usize>,
    skip: &HashSet<u64>,
    journal: Option<&Mutex<Journal>>,
) -> Result<CellOutcome, TeiError> {
    let timeout_steps = (golden.instructions as f64 * cfg.timeout_factor).ceil() as u64;
    let seed = cell_seed(cfg, model);
    let plan = CellPlan::new(golden, model);
    let span_len = span.len();
    let threads = cfg.threads.clamp(1, span_len.max(1));
    let chunk = span_len.div_ceil(threads).max(1);
    let chaos = &cfg.chaos;
    // ENOSPC degradation: the first worker whose append hits disk-full
    // records the journal path and raises this flag; every worker then
    // stops scheduling new runs and drains, leaving the journal intact.
    let enospc_hit = AtomicBool::new(false);
    let enospc_path: Mutex<Option<PathBuf>> = Mutex::new(None);
    // Runs queued for the journal so far, for the `stop_after_appends`
    // chaos hook.
    let appends = AtomicU64::new(0);
    let stop_requested = || {
        crate::shutdown::requested()
            || enospc_hit.load(Ordering::Relaxed)
            || chaos
                .stop_after_appends
                .is_some_and(|cap| appends.load(Ordering::Relaxed) >= cap)
    };

    // Group commit of one thread's pending batch. The batch's tallies
    // reach `local` only once the whole batch is fsync'd. Disk exhaustion
    // degrades gracefully: the batch was never acknowledged, so dropping
    // it costs nothing (resume re-executes it); the ENOSPC flag then
    // drains every worker. `Ok(false)` reports that drop; anything else
    // stays fatal.
    let commit = |journal: &Mutex<Journal>,
                  batch: Batch,
                  local: &mut OutcomeCounts|
     -> Result<bool, TeiError> {
        let mut j = match journal.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match j.append_batch(&batch.records) {
            Ok(()) => {
                local.merge(&batch.counts);
                Ok(true)
            }
            Err(TeiError::Io { source, .. }) if crate::failpoint::is_enospc(&source) => {
                let mut p = match enospc_path.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                p.get_or_insert_with(|| j.path().to_path_buf());
                enospc_hit.store(true, Ordering::Relaxed);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    };

    type WorkerResult = Result<(OutcomeCounts, Vec<QuarantinedRun>, bool), TeiError>;
    let worker = |lo: usize, hi: usize| -> WorkerResult {
        let mut local = OutcomeCounts::default();
        let mut quarantined = Vec::new();
        let mut runner = Runner::new(golden, model, &plan, timeout_steps, cfg.mode);
        let runs = (lo..hi).filter(|&r| !skip.contains(&(r as u64)));
        let mut execute = |r: usize| {
            if chaos.throttle_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(chaos.throttle_ms));
            }
            let isolated = run_isolated(&mut runner, chaos, r, run_seed(seed, r));
            if let IsolatedRun::Quarantined(q) = &isolated {
                quarantined.push(q.clone());
            }
            isolated
        };
        let Some(journal) = journal else {
            for r in runs {
                local.merge(&record_of(execute(r), golden.instructions).1);
            }
            return Ok((local, quarantined, false));
        };
        // WAL discipline: a run only counts once its batch is durably on
        // disk, so a crash can at worst lose uncommitted runs, never
        // double-count.
        let interrupted = journal_runs(
            runs,
            stop_requested,
            |r| {
                let isolated = execute(r);
                let replayed = replayed_instructions(golden, cfg.mode, &isolated);
                let (record, counts) = record_of(isolated, golden.instructions);
                appends.fetch_add(1, Ordering::Relaxed);
                (record, counts, replayed)
            },
            |batch| commit(journal, batch, &mut local),
        )?;
        Ok((local, quarantined, interrupted))
    };

    let mut counts = OutcomeCounts::default();
    let mut quarantined = Vec::new();
    let mut interrupted = false;
    let joined: Result<Vec<WorkerResult>, _> = crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = span.start + t * chunk;
            let hi = (span.start + (t + 1) * chunk).min(span.end);
            if lo >= hi {
                break;
            }
            let worker = &worker;
            handles.push(scope.spawn(move |_| worker(lo, hi)));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| TeiError::WorkerPool("campaign cell")))
            .collect()
    })
    .map_err(|_| TeiError::WorkerPool("campaign scope"))?;
    for wr in joined? {
        let (c, q, i) = wr?;
        counts.merge(&c);
        quarantined.extend(q);
        interrupted |= i;
    }
    quarantined.sort_by_key(|q| q.run);
    let disk_full = match enospc_path.into_inner() {
        Ok(p) => p,
        Err(poisoned) => poisoned.into_inner(),
    };
    Ok(CellOutcome {
        counts,
        quarantined,
        interrupted,
        disk_full,
    })
}

/// Execute the leased run range `[lo, hi)` of a campaign cell, committing
/// every completed run to `journal` before tallying it — the fabric
/// worker's entry point. It returns only after the lease's final batch
/// commit, so a completed lease is wholly durable. Runs in `skip`
/// (already in this worker's journal) are not re-executed. Outcomes are
/// identical to the same runs executed by [`run_campaign_durable`]: the
/// per-run derived seed depends only on the cell seed and the run index,
/// never on which process or lease executed it.
///
/// # Errors
///
/// [`TeiError::Config`] for unusable sizing knobs or an out-of-range
/// lease, [`TeiError::Io`] when a journal commit fails, and
/// [`TeiError::WorkerPool`] if the in-process pool cannot be joined.
pub fn execute_lease<M: InjectionModel + Sync + ?Sized>(
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
    lo: u64,
    hi: u64,
    skip: &HashSet<u64>,
    journal: &Mutex<Journal>,
) -> Result<LeaseOutcome, TeiError> {
    cfg.validate()?;
    if lo >= hi || hi > cfg.runs as u64 {
        return Err(TeiError::Config {
            knob: "lease".to_string(),
            reason: format!("range [{lo}, {hi}) is empty or outside 0..{}", cfg.runs),
        });
    }
    let cell = execute_cell(
        golden,
        model,
        cfg,
        lo as usize..hi as usize,
        skip,
        Some(journal),
    )?;
    Ok(LeaseOutcome {
        counts: cell.counts,
        quarantined: cell.quarantined,
        interrupted: cell.interrupted,
        disk_full: cell.disk_full,
    })
}

/// Run a full campaign cell in parallel, surfacing orchestration failures
/// as typed errors.
///
/// # Errors
///
/// [`TeiError::Config`] for unusable sizing knobs and
/// [`TeiError::WorkerPool`] if the worker pool cannot be joined (runs
/// themselves never abort the pool — they are panic-isolated and at worst
/// quarantined).
pub fn run_campaign_checked<M: InjectionModel + Sync + ?Sized>(
    benchmark_name: &str,
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, TeiError> {
    cfg.validate()?;
    let cell = execute_cell(golden, model, cfg, 0..cfg.runs, &HashSet::new(), None)?;
    Ok(CampaignResult {
        benchmark: benchmark_name.to_string(),
        model: model.name().to_string(),
        vr: model.vr(),
        counts: cell.counts,
        error_ratio: model_error_ratio(model, golden),
        quarantined: cell.quarantined,
    })
}

/// Run a full campaign cell in parallel.
///
/// # Panics
///
/// Documented invariant: with a default-valid config and no journal, the
/// only failure [`run_campaign_checked`] can surface is a worker-pool
/// join error, which panic isolation makes unreachable short of a runtime
/// bug; an invalid `cfg` is a caller bug at this non-`Result` API.
pub fn run_campaign<M: InjectionModel + Sync + ?Sized>(
    benchmark_name: &str,
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
) -> CampaignResult {
    match run_campaign_checked(benchmark_name, golden, model, cfg) {
        Ok(r) => r,
        Err(e) => panic!("campaign failed: {e}"),
    }
}

/// The durable identity of a campaign cell, used to key its journal.
pub fn campaign_manifest<M: InjectionModel + ?Sized>(
    benchmark_name: &str,
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
) -> CampaignManifest {
    // The model fingerprint folds the per-op error-ratio bit patterns:
    // any recalibration that changes behavior changes the hash.
    let mut ratio_bytes = Vec::with_capacity(12 * 8);
    for op in FpOp::all() {
        ratio_bytes.extend_from_slice(&model.error_ratio(op).to_bits().to_le_bytes());
    }
    ratio_bytes.extend_from_slice(model.name().as_bytes());
    ratio_bytes.extend_from_slice(model.vr().label().as_bytes());
    CampaignManifest {
        version: 1,
        benchmark: benchmark_name.to_string(),
        model: model.name().to_string(),
        vr: model.vr().label(),
        runs: cfg.runs as u64,
        seed: cfg.seed,
        timeout_factor_bits: cfg.timeout_factor.to_bits(),
        golden_instructions: golden.instructions,
        golden_fp_ops: golden.fp_ops,
        golden_output_fnv: fnv64(&golden.output),
        model_fingerprint: fnv64(&ratio_bytes),
    }
}

/// [`run_campaign`] with durability: every completed run is write-ahead-
/// logged to a journal under `journal_dir` before it counts (one group
/// commit per [`JOURNAL_BATCH_WORK`] charged instructions per thread), an
/// existing journal for the same manifest resumes the sweep (skipping
/// completed runs), and SIGINT/SIGTERM drain the workers and commit their
/// pending batches instead of losing progress. The final
/// [`OutcomeCounts`] of a resumed campaign are byte-identical to an
/// uninterrupted one.
///
/// # Errors
///
/// * [`TeiError::Config`] — malformed env knobs or config fields.
/// * [`TeiError::ManifestMismatch`] — `journal_dir` holds a journal for a
///   different campaign identity (it is refused, never merged).
/// * [`TeiError::JournalCorrupt`] / [`TeiError::Io`] — journal damage
///   beyond torn-tail recovery, or filesystem failures.
/// * [`TeiError::Interrupted`] — a shutdown signal arrived; workers were
///   drained and the journal flushed, so re-running resumes.
pub fn run_campaign_durable<M: InjectionModel + Sync + ?Sized>(
    benchmark_name: &str,
    golden: &GoldenRun,
    model: &M,
    cfg: &CampaignConfig,
    journal_dir: &Path,
) -> Result<CampaignResult, TeiError> {
    crate::config::validate_env()?;
    crate::failpoint::configure_from_env()?;
    cfg.validate()?;
    // The deterministic-interrupt chaos hook stands in for a real signal;
    // tests using it must not install process-wide handlers. Every other
    // configuration (including throttled sweeps) wants graceful draining.
    if cfg.chaos.stop_after_appends.is_none() {
        crate::shutdown::install_handlers();
    }
    let manifest = campaign_manifest(benchmark_name, golden, model, cfg);
    let JournalResume {
        journal,
        completed,
        truncated_bytes,
    } = Journal::open_or_create(journal_dir, &manifest)?;
    if truncated_bytes > 0 {
        eprintln!(
            "[journal] recovered {}: dropped {truncated_bytes} torn byte(s) from the tail",
            journal.path().display()
        );
    }

    // Rebuild the partial tally from the journal replay.
    let mut counts = OutcomeCounts::default();
    let mut quarantined = Vec::new();
    let mut skip: HashSet<u64> = HashSet::with_capacity(completed.len());
    for rec in &completed {
        if rec.run >= cfg.runs as u64 || !skip.insert(rec.run) {
            // Out-of-range or duplicate records cannot come from this
            // manifest's own append path; refuse rather than double-count.
            return Err(TeiError::JournalCorrupt {
                path: journal.path().to_path_buf(),
                reason: format!("record for run {} is out of range or duplicated", rec.run),
            });
        }
        absorb_record(&mut counts, &mut quarantined, rec);
    }
    if !completed.is_empty() {
        eprintln!(
            "[journal] resuming {benchmark_name}/{}/{}: {} of {} runs already recorded",
            manifest.model,
            manifest.vr,
            skip.len(),
            cfg.runs
        );
    }

    let journal = Mutex::new(journal);
    let cell = execute_cell(golden, model, cfg, 0..cfg.runs, &skip, Some(&journal))?;
    counts.merge(&cell.counts);
    quarantined.extend(cell.quarantined);
    quarantined.sort_by_key(|q| q.run);

    if let Some(path) = cell.disk_full {
        // Workers drained on the ENOSPC flag; every acknowledged run is
        // fsync'd. Typed so callers can distinguish "free space and
        // resume" from real failures.
        return Err(TeiError::DiskFull {
            path,
            completed: counts.total(),
            requested: cfg.runs as u64,
        });
    }
    if cell.interrupted && counts.total() < cfg.runs as u64 {
        // Workers drained and committed their pending batches; the
        // journal holds every tallied run.
        return Err(TeiError::Interrupted {
            completed: counts.total(),
            requested: cfg.runs as u64,
        });
    }
    Ok(CampaignResult {
        benchmark: benchmark_name.to_string(),
        model: model.name().to_string(),
        vr: model.vr(),
        counts,
        error_ratio: model_error_ratio(model, golden),
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    // Tests should panic loudly, not thread errors.
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use crate::journal::RecordedOutcome;
    use crate::DaModel;
    use std::cell::Cell;
    use tei_workloads::{build, BenchmarkId, Scale};

    fn record(run: usize) -> RunRecord {
        RunRecord {
            run: run as u64,
            seed: 0,
            target: None,
            mask: 0,
            outcome: RecordedOutcome::Classified(Outcome::Masked),
            wrong_path: false,
            no_error: false,
            mistargeted: false,
            retried: false,
            instructions: 0,
        }
    }

    /// Drive `journal_runs` over `charges` (run `r` replays `charges[r]`
    /// instructions), stopping once `stop_after` runs executed. Returns
    /// each commit's (runs, charged work) and whether the sweep was cut
    /// short.
    fn batches(charges: &[u64], stop_after: Option<usize>) -> (Vec<(usize, u64)>, bool) {
        let executed = Cell::new(0usize);
        let mut commits = Vec::new();
        let interrupted = journal_runs(
            0..charges.len(),
            || stop_after.is_some_and(|n| executed.get() >= n),
            |r| {
                executed.set(executed.get() + 1);
                let mut counts = OutcomeCounts::default();
                counts.add(Outcome::Masked);
                (record(r), counts, charges[r])
            },
            |batch| {
                assert_eq!(batch.counts.total(), batch.records.len() as u64);
                commits.push((batch.records.len(), batch.work));
                Ok(true)
            },
        )
        .expect("synthetic sweep");
        (commits, interrupted)
    }

    #[test]
    fn batch_closes_once_its_work_reaches_the_budget() {
        // Four quarter-budget runs fill a batch exactly; a run that
        // crosses the budget closes the batch it lands in.
        let quarter = JOURNAL_BATCH_WORK / 4;
        let charges = [quarter, quarter, quarter, quarter, 3 << 20, 2 << 20, 7];
        let (commits, interrupted) = batches(&charges, None);
        assert!(!interrupted);
        assert_eq!(
            commits,
            vec![
                (4, JOURNAL_BATCH_WORK),
                (2, 5 << 20),
                (1, JOURNAL_RUN_FLOOR)
            ]
        );
    }

    #[test]
    fn cheap_runs_close_batches_at_the_run_cap_and_range_end() {
        // Runs under the floor are charged the floor, so a batch of them
        // closes at the run cap; the range end commits the remainder.
        let charges = vec![17u64; 2 * JOURNAL_BATCH_RUNS + 5];
        let (commits, interrupted) = batches(&charges, None);
        assert!(!interrupted);
        let full = (JOURNAL_BATCH_RUNS, JOURNAL_BATCH_WORK);
        assert_eq!(commits, vec![full, full, (5, 5 * JOURNAL_RUN_FLOOR)]);
    }

    #[test]
    fn stop_commits_the_partial_batch() {
        let charges = vec![1u64 << 20; 20];
        let (commits, interrupted) = batches(&charges, Some(6));
        assert!(interrupted);
        assert_eq!(commits, vec![(4, JOURNAL_BATCH_WORK), (2, 2 << 20)]);
    }

    #[test]
    fn dropped_batch_ends_the_sweep() {
        let executed = Cell::new(0usize);
        let interrupted = journal_runs(
            0..10,
            || false,
            |r| {
                executed.set(executed.get() + 1);
                (record(r), OutcomeCounts::default(), JOURNAL_BATCH_WORK)
            },
            |_| Ok(false),
        )
        .expect("synthetic sweep");
        assert!(interrupted);
        assert_eq!(executed.get(), 1, "no run after the dropped batch");
    }

    #[test]
    fn arch_indices_stop_at_the_u32_range() {
        let [a, b] = [FpOp::all()[0], FpOp::all()[1]];
        let mut by_op = vec![Vec::new(); 12];
        let mut next = Some(u32::MAX - 1);
        for op in [a, b, a, b] {
            push_arch_index(&mut by_op, &mut next, op);
        }
        assert_eq!(next, None, "the index range is used up");
        assert_eq!(by_op[a.index()], vec![u32::MAX - 1]);
        assert_eq!(
            by_op[b.index()],
            vec![u32::MAX],
            "nothing after the last index"
        );
    }

    /// cg at Small scale replays ~10^5 instructions per checkpointed run,
    /// so its batches close on the work budget, long before the run cap.
    /// The per-run charges come from a runner of the test's own; the
    /// journaled sweep must make exactly the commits they imply.
    #[test]
    fn expensive_runs_close_batches_on_the_work_budget() {
        let bench = build(BenchmarkId::Cg, Scale::Small);
        let golden = GoldenRun::capture(&bench, 8 << 20, u64::MAX).expect("golden run");
        let model = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
        let cfg = CampaignConfig {
            runs: 1068,
            seed: 7,
            threads: 1,
            ..Default::default()
        };
        let plan = CellPlan::new(&golden, &model);
        let timeout_steps = (golden.instructions as f64 * cfg.timeout_factor).ceil() as u64;
        let mut runner = Runner::new(&golden, &model, &plan, timeout_steps, cfg.mode);
        let seed = cell_seed(&cfg, &model);
        let mut memory = OutcomeCounts::default();
        // (runs, charged work, last run's charge) of each batch.
        let mut expected: Vec<(usize, u64, u64)> = vec![(0, 0, 0)];
        for r in 0..cfg.runs {
            let isolated = run_isolated(&mut runner, &cfg.chaos, r, run_seed(seed, r));
            let charge = replayed_instructions(&golden, cfg.mode, &isolated).max(JOURNAL_RUN_FLOOR);
            memory.merge(&record_of(isolated, golden.instructions).1);
            let last = expected.last_mut().expect("open batch");
            if last.1 >= JOURNAL_BATCH_WORK {
                expected.push((1, charge, charge));
            } else {
                *last = (last.0 + 1, last.1 + charge, charge);
            }
        }
        let (closed, open) = expected.split_at(expected.len() - 1);
        assert!(closed.len() > 1, "batches: {expected:?}");
        for &(runs, work, last) in closed {
            assert!(runs < JOURNAL_BATCH_RUNS, "batch closed at the run cap");
            assert!((JOURNAL_BATCH_WORK..JOURNAL_BATCH_WORK + last).contains(&work));
        }
        assert!(open[0].1 < JOURNAL_BATCH_WORK + open[0].2);

        let dir = std::env::temp_dir().join(format!("tei-campaign-cg-{}", std::process::id()));
        let manifest = campaign_manifest("cg", &golden, &model, &cfg);
        let journal = Mutex::new(
            Journal::open_or_create(&dir, &manifest)
                .expect("create journal")
                .journal,
        );
        let cell = execute_cell(
            &golden,
            &model,
            &cfg,
            0..cfg.runs,
            &HashSet::new(),
            Some(&journal),
        )
        .expect("durable sweep");
        let journal = journal.into_inner().expect("journal lock");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(journal.commits(), expected.len() as u64);
        assert_eq!(cell.counts, memory);
        let in_memory = run_campaign_checked("cg", &golden, &model, &cfg).expect("campaign");
        assert_eq!(cell.counts, in_memory.counts);
    }
}
