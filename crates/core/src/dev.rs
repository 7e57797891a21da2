//! Model development phase: dynamic timing analysis campaigns over the
//! gate-level FPU units, producing the per-bit error statistics and bitmask
//! libraries the injection models are built from (paper Section III.A).

use crate::config;
use crate::error::TeiError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tei_fpu::{FpuBank, FpuTimingSpec, FpuUnit};
use tei_isa::Program;
use tei_softfloat::{FpOp, FpOpKind};
use tei_timing::{ArrivalEngine, SpecializedKernel, VoltageReduction};
use tei_uarch::FuncCore;

/// Per-operation operand trace: consecutive `(a, b)` raw-bit pairs in
/// execution order, as seen by that operation's functional unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSet {
    per_op: Vec<Vec<(u64, u64)>>,
}

impl Default for TraceSet {
    fn default() -> Self {
        TraceSet {
            per_op: vec![Vec::new(); 12],
        }
    }
}

impl TraceSet {
    /// Extract the FP operand trace of a program by instrumented functional
    /// execution, keeping at most `cap` pairs per operation type.
    pub fn capture(program: &Program, mem_bytes: usize, max_steps: u64, cap: usize) -> Self {
        let mut per_op: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 12];
        let mut core = FuncCore::with_memory(program, mem_bytes);
        // Reservoir-free capture: keep the first `cap` pairs (the paper
        // randomly extracts 1 M; execution order preserves the consecutive
        // same-unit previous-state semantics DTA needs).
        core.run_with_hook(max_steps, &mut |ev| {
            let slot = &mut per_op[ev.op.index()];
            if slot.len() < cap {
                slot.push((ev.a, ev.b));
            }
            ev.result
        });
        TraceSet { per_op }
    }

    /// The trace of one operation type.
    pub fn of(&self, op: FpOp) -> &[(u64, u64)] {
        &self.per_op[op.index()]
    }

    /// Total captured pairs.
    pub fn len(&self) -> usize {
        self.per_op.iter().map(Vec::len).sum()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge another trace set into this one (same caps not enforced).
    pub fn merge(&mut self, other: &TraceSet) {
        assert_eq!(self.per_op.len(), other.per_op.len(), "trace arity");
        for (dst, src) in self.per_op.iter_mut().zip(&other.per_op) {
            dst.extend_from_slice(src);
        }
    }
}

/// Uniform random operand pairs for one operation type (the IA model's
/// characterization kernels with randomized inputs).
pub fn random_operand_pairs(op: FpOp, count: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ (op.index() as u64) << 32);
    let fmt = op.format();
    let mask = if fmt.width() == 64 {
        u64::MAX
    } else {
        (1u64 << fmt.width()) - 1
    };
    let gen = |rng: &mut StdRng| -> u64 {
        match op.kind {
            FpOpKind::ItoF => {
                let bits = rng.gen_range(1..=op.precision.int_bits() as u64);
                let raw = rng.gen::<u64>() >> (64 - bits);
                if rng.gen() {
                    (raw as i64).wrapping_neg() as u64
                        & if op.precision.int_bits() == 32 {
                            0xffff_ffff
                        } else {
                            u64::MAX
                        }
                } else {
                    raw
                }
            }
            _ => rng.gen::<u64>() & mask,
        }
    };
    (0..count)
        .map(|_| {
            let a = gen(&mut rng);
            let b = if op.is_binary() { gen(&mut rng) } else { 0 };
            (a, b)
        })
        .collect()
}

/// DTA-derived error statistics of one operation type at one VR level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpErrorStats {
    /// The characterized operation.
    pub op: FpOp,
    /// Voltage-reduction level.
    pub vr: VoltageReduction,
    /// Operand pairs analyzed.
    pub samples: u64,
    /// Pairs whose output had at least one corrupted bit.
    pub faulty: u64,
    /// Per-output-bit error counts (LSB first) — the BER numerators.
    pub bit_errors: Vec<u64>,
    /// Library of observed error bitmasks (with multiplicity, capped).
    pub masks: Vec<u64>,
    /// Histogram of flipped-bit counts among faulty outputs (Figure 5).
    pub flip_hist: BTreeMap<usize, u64>,
}

impl OpErrorStats {
    /// Instruction-level error ratio (paper eq. 2 restricted to this type).
    pub fn error_ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.faulty as f64 / self.samples as f64
        }
    }

    /// Per-bit error ratios (BER), LSB first.
    pub fn ber(&self) -> Vec<f64> {
        self.bit_errors
            .iter()
            .map(|&c| {
                if self.samples == 0 {
                    0.0
                } else {
                    c as f64 / self.samples as f64
                }
            })
            .collect()
    }

    /// An empty stats record for `(op, vr)` with `width` output bits.
    fn empty(op: FpOp, vr: VoltageReduction, width: usize) -> Self {
        OpErrorStats {
            op,
            vr,
            samples: 0,
            faulty: 0,
            bit_errors: vec![0; width],
            masks: Vec::new(),
            flip_hist: BTreeMap::new(),
        }
    }

    /// Fold `other` into `self` deterministically: counts add (they are
    /// associative), the mask library concatenates in call order, and the
    /// flip histogram sums per bucket. Merging per-shard stats in shard
    /// order therefore reproduces the serial campaign exactly.
    ///
    /// # Panics
    ///
    /// Panics when the records describe different `(op, vr)` cells or
    /// output widths.
    pub fn merge(&mut self, other: &OpErrorStats) {
        assert_eq!(self.op, other.op, "merging stats of different ops");
        assert_eq!(self.vr, other.vr, "merging stats of different VR levels");
        assert_eq!(
            self.bit_errors.len(),
            other.bit_errors.len(),
            "merging stats of different output widths"
        );
        self.samples += other.samples;
        self.faulty += other.faulty;
        for (dst, &src) in self.bit_errors.iter_mut().zip(&other.bit_errors) {
            *dst += src;
        }
        self.masks.extend_from_slice(&other.masks);
        for (&flips, &count) in &other.flip_hist {
            *self.flip_hist.entry(flips).or_default() += count;
        }
    }
}

/// Maximum retained masks per (op, VR) — enough for faithful empirical
/// sampling without unbounded memory. Libraries over the cap are reduced
/// by seeded reservoir sampling (not first-N truncation, which would
/// over-weight early-trace behavior).
const MASK_CAP: usize = 50_000;

/// The arrival-engine backend of a campaign. There is one: the
/// table-driven [`SpecializedKernel`] over the unit's
/// [`FpuUnit::dta_program`] (see [`dta_engine`]). The type stays only
/// because the end-to-end benchmark package reads
/// [`DtaTuning::backend`]; it goes with that package's next change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// The table-driven kernel.
    #[default]
    Auto,
}

/// Policy for the static-slack whole-unit skip.
///
/// A campaign skips a unit outright when the static slack oracle proves
/// every result bit safe at every requested level: the walk could only
/// count error-free transitions, so the skipped unit reports
/// `samples = transitions` and nothing else. The skip is exact, not
/// approximate: dynamic settle times never exceed the static bound (the
/// `sanitize-arrivals` feature asserts this, and under it the unit is
/// walked anyway and every mask asserted zero), and the campaign's
/// nominal clamp only lowers them further. On the shipped bank it skips
/// f2i-d, f2i-s, fp-sub-s and i2f-s at VR15, and f2i-d and f2i-s at
/// VR20. There is no per-bit skip: the window kernel thresholds every
/// kept bit in one pass, so proving some bits safe saves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrunePolicy {
    /// Skip when the oracle proves at least
    /// [`PRUNE_MIN_SAFE_FRACTION`] of the (bit, level) pairs safe —
    /// and, for the skip itself, all of them.
    #[default]
    Auto,
    /// Skip whenever every bit is proven safe.
    ForceOn,
    /// Never skip: walk every unit (the byte-identity control).
    ForceOff,
}

/// Minimum fraction of (bit, level) pairs the static oracle must prove
/// safe for [`PrunePolicy::Auto`] to enable pruning. The whole-unit
/// skip needs every pair safe, which passes any threshold, so the value
/// only shapes what [`resolve_prune`] reports for partly-safe units.
pub const PRUNE_MIN_SAFE_FRACTION: f64 = 1.0 / 16.0;

/// The resolved pruning choice for one campaign, recorded so benches
/// and logs report what actually ran instead of what was requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneDecision {
    /// Whether the campaign may skip a unit the oracle proves safe.
    pub enabled: bool,
    /// Fraction of (bit, level) pairs the oracle proves safe.
    pub safe_fraction: f64,
    /// The policy the decision was resolved from.
    pub policy: PrunePolicy,
}

/// Resolve a [`PrunePolicy`] against the static slack oracle for `unit`
/// at clock `clk` over the campaign's levels. Pruning is exact at any
/// setting, so the decision can never change statistics — only whether
/// a fully safe unit is walked.
pub fn resolve_prune(
    unit: &FpuUnit,
    clk: f64,
    levels: &[VoltageReduction],
    policy: PrunePolicy,
) -> PruneDecision {
    let safe: usize = safe_bit_counts(unit, clk, levels).iter().sum();
    let total = unit.result_port().len() * levels.len();
    let safe_fraction = if total == 0 {
        0.0
    } else {
        safe as f64 / total as f64
    };
    let enabled = match policy {
        PrunePolicy::ForceOn => true,
        PrunePolicy::ForceOff => false,
        PrunePolicy::Auto => safe_fraction >= PRUNE_MIN_SAFE_FRACTION,
    };
    PruneDecision {
        enabled,
        safe_fraction,
        policy,
    }
}

/// Auto lane width of the table kernel: its fastest width in the
/// `BENCH_dta.json` `table_kernel` rows.
pub const CODEGEN_LANES: usize = 8;

/// Resolve a requested lane width (`None` = auto, [`CODEGEN_LANES`]).
///
/// The last two parameters affect nothing. They stay for the
/// end-to-end benchmark package, which calls this signature.
pub fn resolve_lanes(
    requested: Option<usize>,
    _backend: KernelBackend,
    _fresh_kernel: bool,
) -> usize {
    requested.unwrap_or(CODEGEN_LANES)
}

/// Tuning knobs of the DTA campaign inner loop. Tuning never changes
/// the produced statistics — only how much work the inner loop performs
/// and how wide its windows are. The default is what every shipped flow
/// runs: auto pruning, auto lane width, no surrogate; a
/// caller that wants another value sets the field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DtaTuning {
    /// Whole-unit skip policy (see [`PrunePolicy`]; the default
    /// [`PrunePolicy::Auto`] skips units the oracle proves safe).
    pub prune: PrunePolicy,
    /// Window lane words of the bit-sliced kernel: 1, 4, or 8 `u64`s
    /// per net, i.e. 64 / 256 / 512 input vectors per whole-circuit
    /// evaluation pass (see [`SpecializedKernel`]). `None` (the
    /// default) picks the measured-best width — see [`resolve_lanes`].
    /// Campaign statistics are bit-identical at every width.
    pub lanes: Option<usize>,
    /// Arrival-engine backend; [`KernelBackend`] has one variant.
    pub backend: KernelBackend,
    /// Surrogate tiering mode (see [`SurrogateMode`]; default
    /// [`SurrogateMode::Off`]). Only [`dta_campaign_predictive`]
    /// consults it — the exact campaign entry points ignore the field
    /// entirely, so `filter`'s skips can never leak into a caller that
    /// did not opt into the predictive path.
    pub surrogate: SurrogateMode,
}

/// Tiering mode of the predict-then-verify DTA pipeline
/// ([`dta_campaign_predictive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateMode {
    /// Exact DTA on every transition (the surrogate is not consulted).
    #[default]
    Off,
    /// Skip only transitions the surrogate classifies as confidently
    /// safe; everything else — and a seeded audit fraction of the safe
    /// band — runs exact DTA. An audit miscalibration triggers a loud
    /// fallback to the full exact campaign; an unaudited false-safe skip
    /// goes unnoticed (DESIGN.md §11).
    Filter,
}

/// The table kernel over `unit`'s [`FpuUnit::dta_program`] at `lanes`
/// lane words — the one engine every DTA campaign runs, and the single
/// place the lane width turns into a type.
///
/// # Errors
///
/// [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`].
pub fn dta_engine(unit: &FpuUnit, lanes: usize) -> Result<Box<dyn ArrivalEngine + '_>, TeiError> {
    let program = unit.dta_program();
    Ok(match lanes {
        1 => Box::new(SpecializedKernel::<1>::new(program)),
        4 => Box::new(SpecializedKernel::<4>::new(program)),
        8 => Box::new(SpecializedKernel::<8>::new(program)),
        _ => return Err(unsupported_lanes(lanes)),
    })
}

/// The [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`].
fn unsupported_lanes(lanes: usize) -> TeiError {
    TeiError::Config {
        knob: "lanes".to_string(),
        reason: format!("unsupported lane width {lanes} (supported: 1, 4, 8)"),
    }
}

/// Per level, the result bits the static slack oracle proves safe for
/// `unit` at clock period `clk` (bit `j` = result bit `j`).
fn safe_bit_masks(unit: &FpuUnit, clk: f64, levels: &[VoltageReduction]) -> Vec<u64> {
    let compiled = unit.dta_compiled();
    let outputs = unit.result_port();
    levels
        .iter()
        .map(|vr| {
            let k = vr.derating_factor();
            outputs
                .iter()
                .enumerate()
                .filter(|&(_, &net)| compiled.static_bound(net) * k <= clk)
                .fold(0, |mask, (bit, _)| mask | 1 << bit)
        })
        .collect()
}

/// Output bits per VR level that the static slack oracle proves safe for
/// `unit` at clock period `clk`; a unit with every bit safe at every
/// level is skipped (see [`PrunePolicy`]).
pub fn safe_bit_counts(unit: &FpuUnit, clk: f64, levels: &[VoltageReduction]) -> Vec<usize> {
    safe_bit_masks(unit, clk, levels)
        .iter()
        .map(|m| m.count_ones() as usize)
        .collect()
}

/// Fold one transition's error mask at one level into its statistics:
/// the sample, and for a non-zero mask the per-bit counts, the mask
/// library and the flip histogram. Masks accumulate uncapped here;
/// [`finalize_masks`] applies the reservoir cap after shards merge.
fn record_mask(s: &mut OpErrorStats, mask: u64) {
    s.samples += 1;
    if mask == 0 {
        return;
    }
    let mut bits = mask;
    while bits != 0 {
        s.bit_errors[bits.trailing_zeros() as usize] += 1;
        bits &= bits - 1;
    }
    s.faulty += 1;
    *s.flip_hist.entry(mask.count_ones() as usize).or_default() += 1;
    s.masks.push(mask);
}

/// Reduce oversized mask libraries to `cap` entries with in-place
/// Algorithm-R reservoir sampling, seeded from the `(op, vr)` cell so
/// the subsample is reproducible and identical between the serial and
/// sharded campaign paths.
fn finalize_masks_with_cap(stats: &mut [OpErrorStats], cap: usize) {
    for s in stats {
        if s.masks.len() <= cap {
            continue;
        }
        let seed = 0x6d61_736b_5245_5356u64
            ^ ((s.op.index() as u64) << 32)
            ^ (s.vr.fraction() * 1e6) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in cap..s.masks.len() {
            let j = rng.gen_range(0..=i);
            if j < cap {
                s.masks[j] = s.masks[i];
            }
        }
        s.masks.truncate(cap);
    }
}

fn finalize_masks(stats: &mut [OpErrorStats]) {
    finalize_masks_with_cap(stats, MASK_CAP);
}

fn empty_stats(unit: &FpuUnit, levels: &[VoltageReduction], width: usize) -> Vec<OpErrorStats> {
    levels
        .iter()
        .map(|&vr| OpErrorStats::empty(unit.op(), vr, width))
        .collect()
}

/// Windows of work per distribution chunk. Small enough that a worker
/// stuck on a skewed chunk (dense transitions cost more than sparse
/// ones) cannot serialize the campaign the way the old static
/// contiguous split could — idle workers just pull the next chunk off
/// the cursor — and large enough that the one-vector state
/// re-establishment at each chunk boundary stays negligible (< 0.5 %).
const CHUNK_WINDOWS: usize = 4;

/// Error label for the DTA worker pools.
const DTA_POOL: &str = "DTA campaign";

/// Per-worker scratch reused across every chunk a worker claims: the
/// arrival engine (lane planes, settle arrays, toggle words) and the
/// window buffers are allocated once per worker thread, never per
/// window or per chunk.
struct EngineScratch<'u> {
    engine: Box<dyn ArrivalEngine + 'u>,
    /// The current window's operand pairs, in window-vector order.
    vectors: Vec<(u64, u64)>,
    /// `vectors` packed into input lanes ([`FpuUnit::pack_lanes`]).
    lanes: Vec<u64>,
    /// The window's error masks, transition-major, one word per level.
    masks: Vec<u64>,
    /// The current window's segments (see [`pack_window`]).
    segs: Vec<Segment>,
    /// The current window's keep mask, one bit per local transition.
    keep: Vec<u64>,
}

/// One chunk's finished statistics, published exactly once by whichever
/// worker claimed the chunk. Aligned to its own cache line so adjacent
/// slots written by different workers never false-share.
#[derive(Default)]
#[repr(align(128))]
struct ChunkSlot(Mutex<Option<Vec<OpErrorStats>>>);

/// Run `n_chunks` chunk jobs across `threads` workers pulling chunk
/// indices off a shared atomic cursor, then merge the per-chunk stats
/// **in chunk-index order** — chunk order is transition order, so the
/// merged result is byte-identical to the serial walk no matter which
/// worker ran which chunk or in what order they finished.
///
/// `run_chunk(ci, scratch)` computes chunk `ci` with the worker's
/// reusable scratch. Each worker builds its scratch once on its own
/// thread via `make_scratch` (first-touch local allocation) and keeps
/// per-chunk accumulation thread-local; only the finished chunk result
/// is published.
fn run_chunked<S>(
    n_chunks: usize,
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    empty: impl Fn() -> Vec<OpErrorStats>,
    run_chunk: impl Fn(usize, &mut S) -> Vec<OpErrorStats> + Sync,
) -> Result<Vec<OpErrorStats>, TeiError> {
    let threads = threads.clamp(1, n_chunks.max(1));
    let mut merged = empty();
    if threads <= 1 {
        let mut scratch = make_scratch();
        for ci in 0..n_chunks {
            for (dst, src) in merged.iter_mut().zip(&run_chunk(ci, &mut scratch)) {
                dst.merge(src);
            }
        }
        return Ok(merged);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<ChunkSlot> = (0..n_chunks).map(|_| ChunkSlot::default()).collect();
    let panicked = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut scratch = make_scratch();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let stats = run_chunk(ci, &mut scratch);
                        let mut slot = match slots[ci].0.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        *slot = Some(stats);
                    }
                })
            })
            .collect();
        // Join *every* handle (an early return would leave panicked
        // threads unjoined and re-panic at scope exit), then report.
        let mut panicked = false;
        for h in handles {
            panicked |= h.join().is_err();
        }
        panicked
    })
    .map_err(|_| TeiError::WorkerPool(DTA_POOL))?;
    if panicked {
        return Err(TeiError::WorkerPool(DTA_POOL));
    }
    for slot in slots {
        let stats = match slot.0.into_inner() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        }
        .ok_or(TeiError::WorkerPool(DTA_POOL))?;
        for (dst, src) in merged.iter_mut().zip(&stats) {
            dst.merge(src);
        }
    }
    Ok(merged)
}

/// A non-empty run of consecutive transitions `lo..hi` for
/// [`walk_runs`]; transition `t` is `states[t] → states[t + 1]`. An
/// `audit` run is one the surrogate classified safe: every transition in
/// it must come back error-free.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: usize,
    hi: usize,
    audit: bool,
}

/// Transitions `t..t + n` of one run, placed in a window so that
/// states `t..=t + n` fill window vectors `first..=first + n` and
/// transition `t + j` sits at local offset `first + j`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    t: usize,
    n: usize,
    first: usize,
    audit: bool,
}

/// Packing position: a run index and the next transition of that run.
type Cursor = (usize, usize);

/// Pack the window that starts at `at` into `segs` and return the
/// position after it. A segment that picks up at the state the previous
/// one ended on shares that vector, so a contiguous run costs one vector
/// per transition; any other segment costs one more for its `prev`
/// state, and the seam transition into it is never evaluated.
fn pack_window(
    runs: &[Run],
    mut at: Cursor,
    window_vectors: usize,
    segs: &mut Vec<Segment>,
) -> Cursor {
    segs.clear();
    while let Some(run) = runs.get(at.0) {
        let t = at.1;
        let first = match segs.last() {
            Some(s) if s.t + s.n == t => s.first + s.n,
            Some(s) => s.first + s.n + 1,
            None => 0,
        };
        let n = (run.hi - t).min(window_vectors.saturating_sub(first + 1));
        if n == 0 {
            break;
        }
        segs.push(Segment {
            t,
            n,
            first,
            audit: run.audit,
        });
        at = if t + n == run.hi {
            (at.0 + 1, runs.get(at.0 + 1).map_or(0, |r| r.lo))
        } else {
            (at.0, t + n)
        };
    }
    at
}

/// The exact-DTA walk behind every campaign: evaluate the transitions
/// of `runs`, in run order, at every requested VR level.
///
/// Runs pack into bit-sliced windows (see [`pack_window`]) and every
/// [`CHUNK_WINDOWS`] windows form one chunk of work for the
/// `threads`-worker pool. Per window the walk speaks the engine's
/// window protocol: operand pairs in ([`FpuUnit::pack_lanes`], then
/// [`ArrivalEngine::load_window`]), error masks out
/// ([`ArrivalEngine::window_masks`]), which it folds into the
/// statistics. Chunks merge in chunk order, so the statistics — mask
/// library order included — are byte-identical to a serial walk at any
/// thread count or lane width. A unit the slack oracle proves safe at
/// every level is not walked at all (see [`PrunePolicy`]). Returns the
/// finalized statistics and the number of `audit` transitions that
/// came back erroneous.
///
/// # Errors
///
/// [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`];
/// [`TeiError::WorkerPool`] when a campaign worker panics.
fn walk_runs(
    unit: &FpuUnit,
    states: &[(u64, u64)],
    runs: &[Run],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
) -> Result<(Vec<OpErrorStats>, u64), TeiError> {
    // Validate the lane width up front so config errors surface before
    // any worker threads spawn; workers then build their own engine.
    let lanes = resolve_lanes(tuning.lanes, tuning.backend, true);
    if !config::SUPPORTED_LANES.contains(&lanes) {
        return Err(unsupported_lanes(lanes));
    }
    let width = unit.result_width();
    let factors: Vec<f64> = levels.iter().map(|vr| vr.derating_factor()).collect();
    let safe = safe_bit_masks(unit, clk, levels);
    let all_bits = if width == 64 { !0 } else { (1u64 << width) - 1 };
    let all_safe = safe.iter().all(|&m| m == all_bits);
    if all_safe
        && resolve_prune(unit, clk, levels, tuning.prune).enabled
        && !cfg!(feature = "sanitize-arrivals")
    {
        // Every transition is provably error-free at every level.
        let transitions: usize = runs.iter().map(|r| r.hi - r.lo).sum();
        let mut stats = empty_stats(unit, levels, width);
        for s in &mut stats {
            s.samples = transitions as u64;
        }
        return Ok((stats, 0));
    }
    let input_width = unit.input_width();
    let window_vectors = lanes * 64;

    // Chunk plan: where each chunk's first window starts. Packing is
    // arithmetic per run, so a contiguous campaign (one run) plans in
    // O(windows) with no per-transition state.
    let mut starts: Vec<Cursor> = Vec::new();
    let mut at = (0, runs.first().map_or(0, |r| r.lo));
    let mut segs = Vec::new();
    while at.0 < runs.len() {
        starts.push(at);
        for _ in 0..CHUNK_WINDOWS {
            at = pack_window(runs, at, window_vectors, &mut segs);
        }
    }

    let audit_errors = std::sync::atomic::AtomicU64::new(0);
    let make_scratch = || EngineScratch {
        engine: dta_engine(unit, lanes).expect("tuning validated above"),
        vectors: Vec::with_capacity(window_vectors),
        lanes: vec![0; input_width * lanes],
        masks: vec![0; window_vectors * levels.len()],
        segs: Vec::new(),
        keep: vec![0; lanes],
    };
    let run_chunk = |ci: usize, scratch: &mut EngineScratch| -> Vec<OpErrorStats> {
        let EngineScratch {
            engine,
            vectors,
            lanes: packed,
            masks,
            segs,
            keep,
        } = scratch;
        let mut stats = empty_stats(unit, levels, width);
        let mut at = starts[ci];
        for _ in 0..CHUNK_WINDOWS {
            at = pack_window(runs, at, window_vectors, segs);
            if segs.is_empty() {
                break;
            }
            vectors.clear();
            keep.fill(0);
            for s in segs.iter() {
                // A segment starts right after the previous one's last
                // vector, or on it when it continues that run's state
                // (see `pack_window`).
                vectors.truncate(s.first);
                vectors.extend_from_slice(&states[s.t..=s.t + s.n]);
                for local in s.first..s.first + s.n {
                    keep[local >> 6] |= 1 << (local & 63);
                }
            }
            unit.pack_lanes(vectors, lanes, packed);
            // Seam transitions between segments are dense garbage
            // toggles; the keep mask drops them from the settle sweeps.
            engine.set_window_keep_mask(keep);
            engine.load_window(packed, vectors.len());
            // The engine clamps settle times to the clock before
            // derating: at nominal the fabricated design meets timing by
            // construction, so settle times past the clock (γ-calibration
            // tail noise) fail under any voltage reduction but never at
            // nominal.
            engine.window_masks(clk, &factors, masks);
            for s in segs.iter() {
                for local in s.first..s.first + s.n {
                    let row = &masks[local * levels.len()..(local + 1) * levels.len()];
                    let mut any = 0u64;
                    for ((st, &mask), &safe) in stats.iter_mut().zip(row).zip(&safe) {
                        // The static oracle's soundness, checked on
                        // every mask: no statically-safe bit may err.
                        if cfg!(feature = "sanitize-arrivals") {
                            assert_eq!(
                                mask & safe,
                                0,
                                "sanitize-arrivals: {} mask {mask:#x} touches statically-safe bits",
                                unit.tag()
                            );
                        }
                        record_mask(st, mask);
                        any |= mask;
                    }
                    if s.audit && any != 0 {
                        audit_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        stats
    };

    let mut stats = run_chunked(
        starts.len(),
        threads,
        make_scratch,
        || empty_stats(unit, levels, width),
        run_chunk,
    )?;
    finalize_masks(&mut stats);
    Ok((stats, audit_errors.into_inner()))
}

/// Run a DTA campaign for one unit over an operand-pair stream, producing
/// stats for every requested VR level in one pass (uniform derating lets a
/// single settle computation be re-thresholded per corner).
///
/// The first pair only establishes circuit state; transition `k` is
/// `pairs[k] → pairs[k+1]`. The table kernel ([`dta_engine`])
/// evaluates the stream in bit-sliced windows of `lanes * 64` vectors,
/// consecutive windows overlapping by one vector. Work is distributed
/// in chunks across `threads` worker threads; the output is
/// byte-identical to the single-threaded one. Tuning never changes the
/// produced statistics — only how much work the inner loop performs
/// and how wide its lane words are; callers without a preference pass
/// `DtaTuning::default()` (every setting auto, no surrogate).
///
/// # Errors
///
/// [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`];
/// [`TeiError::WorkerPool`] when a campaign worker panics.
pub fn dta_campaign_tuned(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
) -> Result<Vec<OpErrorStats>, TeiError> {
    let transitions = pairs.len().saturating_sub(1);
    let run = Run {
        lo: 0,
        hi: transitions,
        audit: false,
    };
    let runs: &[Run] = if transitions == 0 { &[] } else { &[run] };
    Ok(walk_runs(unit, pairs, runs, clk, levels, threads, tuning)?.0)
}

/// DTA over a *sampled subset* of a trace: each sampled index `i ≥ 1`
/// is analyzed as the transition `trace[i-1] → trace[i]`, preserving the
/// true previous circuit state of every sampled dynamic instruction (the
/// paper's "randomly extracted" characterization). Statistics follow
/// the order of `indices` and are byte-identical at any thread count or
/// tuning.
///
/// # Panics
///
/// Panics when an index is 0 or past the end of `trace`.
///
/// # Errors
///
/// As for [`dta_campaign_tuned`].
pub fn dta_campaign_sampled_tuned(
    unit: &FpuUnit,
    trace: &[(u64, u64)],
    indices: &[usize],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
) -> Result<Vec<OpErrorStats>, TeiError> {
    let runs: Vec<Run> = indices
        .iter()
        .map(|&i| {
            assert!(i >= 1 && i < trace.len(), "sample index out of range");
            Run {
                lo: i - 1,
                hi: i,
                audit: false,
            }
        })
        .collect();
    Ok(walk_runs(unit, trace, &runs, clk, levels, threads, tuning)?.0)
}

// ---------------------------------------------------------------------
// Predict-then-verify tiering: surrogate fit, predictive campaign, and
// fingerprint-checked model persistence. No shipped flow runs it (see
// DESIGN.md §11); it stays as a library for the end-to-end benchmark.
// ---------------------------------------------------------------------

/// Default audit fraction of surrogate-skipped transitions that run
/// exact DTA anyway: 1/32 keeps the skip savings while sampling the
/// "confidently safe" band densely enough that a drifted model is
/// caught within a few thousand transitions.
pub const DEFAULT_AUDIT_FRACTION: f64 = 1.0 / 32.0;

/// Audit policy of the predictive campaign: which safe-classified
/// transitions are *also* exact-evaluated to cross-check the model.
/// The draw is a pure function of `(audit_seed, transition index)`, so
/// it is independent of lane width, thread count, and chunk boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateRun {
    /// Fraction of safe-classified transitions audited (0 disables
    /// auditing — ablation use only; the default is
    /// [`DEFAULT_AUDIT_FRACTION`]).
    pub audit_fraction: f64,
    /// Seed of the per-transition audit draw.
    pub audit_seed: u64,
}

impl Default for SurrogateRun {
    fn default() -> Self {
        SurrogateRun {
            audit_fraction: DEFAULT_AUDIT_FRACTION,
            audit_seed: 0x5eed_a0d1_7ea1,
        }
    }
}

impl SurrogateRun {
    /// Whether transition `t` is audited under this policy. The draw is
    /// made per 64-transition *block* (`t / 64`), not per transition:
    /// audited spans are then contiguous and pack into bit-sliced
    /// windows at ~1 vector per transition, where scattered singleton
    /// audits would cost 2 vectors plus a seam each. The expected
    /// audited fraction is unchanged.
    fn audited(&self, t: usize) -> bool {
        // 53-bit threshold comparison against a SplitMix64 draw keeps
        // the decision exact in f64 and chunk/thread-independent.
        let threshold = (self.audit_fraction.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64;
        (splitmix64(self.audit_seed ^ (t as u64 >> 6)) >> 11) < threshold
    }
}

/// SplitMix64 mixer (the same finalizer the derating jitter and chaos
/// schedules use) — a stateless, high-quality hash of one `u64`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the predictive campaign actually did, alongside its statistics:
/// how many transitions the surrogate absorbed, how many ran exact, and
/// whether the audit tripped a fallback.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurrogateReport {
    /// Tiering mode that ran (`off` or `filter`).
    pub mode: String,
    /// Total transitions in the campaign.
    pub transitions: u64,
    /// Transitions skipped as confidently safe (they contribute only
    /// their sample count).
    pub safe_skipped: u64,
    /// Transitions exact DTA evaluated (uncertain band + audits).
    pub exact_evaluated: u64,
    /// Surrogate-handled transitions exact-evaluated as audits.
    pub audited: u64,
    /// Audited transitions where exact DTA contradicted the surrogate.
    pub audit_errors: u64,
    /// `Some(reason)` when audit miscalibration forced the loud
    /// fallback to a full exact campaign (whose statistics are what
    /// this report accompanies).
    pub fallback: Option<String>,
}

impl SurrogateReport {
    /// A report for a run that evaluated every transition exactly
    /// (surrogate off, or a pre-surrogate code path).
    #[must_use]
    pub fn exact_only(mode: &str, transitions: u64) -> Self {
        SurrogateReport {
            mode: mode.to_string(),
            transitions,
            safe_skipped: 0,
            exact_evaluated: transitions,
            audited: 0,
            audit_errors: 0,
            fallback: None,
        }
    }
}

/// The surrogate feature shape of one operation's operands: IEEE field
/// split for the FP-consuming ops, raw-integer fallback for ItoF.
pub fn operand_format_of(op: FpOp) -> tei_timing::OperandFormat {
    match op.kind {
        FpOpKind::ItoF => tei_timing::OperandFormat {
            width: op.precision.int_bits(),
            exp_bits: 0,
            frac_bits: 0,
            binary: false,
        },
        _ => {
            let f = op.format();
            tei_timing::OperandFormat {
                width: f.width(),
                exp_bits: f.exp_bits,
                frac_bits: f.frac_bits,
                binary: op.is_binary(),
            }
        }
    }
}

/// Fit a surrogate settle-time model for `unit` from an exact-DTA walk
/// over `pairs` (transition `t` is `pairs[t] → pairs[t+1]`, the same
/// state semantics the campaigns use). Serial by design: the fit folds
/// floating-point sums, and a fixed fold order keeps the artifact
/// reproducible bit-for-bit.
///
/// # Errors
///
/// [`TeiError::Config`] for an unsupported lane width.
pub fn fit_surrogate(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    tuning: DtaTuning,
) -> Result<tei_timing::SurrogateModel, TeiError> {
    let lanes = resolve_lanes(tuning.lanes, tuning.backend, true);
    let mut engine = dta_engine(unit, lanes)?;
    let outputs = unit.result_port().to_vec();
    let mut fitter = tei_timing::SurrogateFitter::new(
        unit.tag(),
        unit.dta_compiled().fingerprint(),
        clk,
        operand_format_of(unit.op()),
        outputs.len() as u32,
    );
    if pairs.len() < 2 {
        return Ok(fitter.finish());
    }
    let window_vectors = lanes * 64;
    let mut packed = vec![0; unit.input_width() * lanes];
    let mut settles = vec![0.0f64; outputs.len()];
    let transitions = pairs.len() - 1;
    let mut start = 0usize;
    while start < transitions {
        let count = (transitions - start + 1).min(window_vectors);
        unit.pack_lanes(&pairs[start..start + count], lanes, &mut packed);
        engine.load_window(&packed, count);
        for t in 0..count - 1 {
            engine.select_transition(t);
            for (i, &net) in outputs.iter().enumerate() {
                settles[i] = engine.settle_of(net).min(clk); // nominal clamp
            }
            fitter.observe(pairs[start + t], pairs[start + t + 1], &settles);
        }
        start += count - 1;
    }
    Ok(fitter.finish())
}

/// Artifact path of a unit's persisted surrogate model under `dir`.
fn surrogate_model_path(dir: &std::path::Path, unit_tag: &str) -> std::path::PathBuf {
    dir.join(format!("surrogate-{unit_tag}.json"))
}

/// Persist a fitted surrogate model under `dir` as checksummed JSON
/// (`surrogate-<tag>.json` + `.fnv` sidecar, both written atomically).
///
/// # Errors
///
/// [`TeiError::Io`] on filesystem failure.
pub fn save_surrogate(
    model: &tei_timing::SurrogateModel,
    dir: &std::path::Path,
) -> Result<std::path::PathBuf, TeiError> {
    std::fs::create_dir_all(dir).map_err(|e| TeiError::io("create model dir", dir, e))?;
    let path = surrogate_model_path(dir, &model.unit_tag);
    let json = serde_json::to_string(model).expect("surrogate model serializes");
    crate::journal::atomic_write_checksummed(&path, json.as_bytes())?;
    Ok(path)
}

/// Load a persisted surrogate model for `unit` and validate it against
/// the unit's live netlist fingerprint, the campaign clock, and the
/// largest derating factor it will be queried at.
///
/// # Errors
///
/// [`TeiError::Io`] when the artifact is unreadable;
/// [`TeiError::SurrogateStale`] for a corrupt, mismatched, or stale
/// artifact — never a silently wrong model.
pub fn load_surrogate(
    dir: &std::path::Path,
    unit: &FpuUnit,
    clk: f64,
    k_max: f64,
) -> Result<tei_timing::SurrogateModel, TeiError> {
    let path = surrogate_model_path(dir, unit.tag());
    let stale = |reason: String| TeiError::SurrogateStale {
        unit: unit.tag().to_string(),
        reason,
    };
    match crate::journal::verify_checksummed(&path) {
        Ok(_) => {}
        Err(TeiError::Io { op, path, source }) => {
            return Err(TeiError::Io { op, path, source });
        }
        Err(e) => return Err(stale(format!("artifact failed checksum verification: {e}"))),
    }
    let json = std::fs::read_to_string(&path)
        .map_err(|e| TeiError::io("read surrogate model", &path, e))?;
    let model: tei_timing::SurrogateModel = serde_json::from_str(&json)
        .map_err(|e| stale(format!("unparsable artifact {}: {e:?}", path.display())))?;
    model
        .validate(unit.tag(), unit.dta_compiled().fingerprint(), clk, k_max)
        .map_err(stale)?;
    Ok(model)
}

/// Predict-then-verify DTA campaign: the surrogate classifies every
/// transition, exact DTA runs on the rest plus a seeded audit fraction
/// of the confidently-safe band, and the results merge into statistics
/// plus a [`SurrogateReport`].
///
/// **Filter mode is byte-identical when its skips are sound.** Only
/// confidently-safe transitions are skipped, and a skipped transition
/// contributes exactly what an error-free transition contributes to
/// exact DTA: one sample
/// and nothing else. Exact transitions are evaluated in increasing
/// transition order (chunks merge in index order), so the mask library
/// sequence — and therefore the seeded reservoir cap — matches the
/// exact campaign bit-for-bit whenever the skip decisions are sound.
/// Soundness is audited on a sample: if exact DTA contradicts the
/// surrogate on any audited transition, the campaign discards the
/// filtered statistics and loudly re-runs full exact DTA, recording the
/// fallback in the report. A safe verdict the audit does not draw is
/// never checked, so a model queried outside the trace it was fitted on
/// can change the statistics silently; see DESIGN.md §11.
///
/// With `tuning.surrogate == SurrogateMode::Off` the model is ignored
/// and this is exactly [`dta_campaign_tuned`].
///
/// # Errors
///
/// [`TeiError::SurrogateStale`] when the model does not match the unit,
/// clock, or requested corners; [`TeiError::Config`] /
/// [`TeiError::WorkerPool`] as for the exact campaign.
#[allow(clippy::too_many_arguments)]
pub fn dta_campaign_predictive(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
    model: &tei_timing::SurrogateModel,
    run: &SurrogateRun,
) -> Result<(Vec<OpErrorStats>, SurrogateReport), TeiError> {
    let transitions = pairs.len().saturating_sub(1);
    if tuning.surrogate == SurrogateMode::Off {
        let stats = dta_campaign_tuned(unit, pairs, clk, levels, threads, tuning)?;
        return Ok((
            stats,
            SurrogateReport::exact_only("off", transitions as u64),
        ));
    }
    let k_max = levels
        .iter()
        .fold(0.0f64, |a, vr| a.max(vr.derating_factor()));
    model
        .validate(unit.tag(), unit.dta_compiled().fingerprint(), clk, k_max)
        .map_err(|reason| TeiError::SurrogateStale {
            unit: unit.tag().to_string(),
            reason,
        })?;

    // --- Tier 1: classification pass (serial; tens of ns/transition).
    // Everything that must run exact DTA — the uncertain band and the
    // audited part of the safe band — goes into maximal runs of
    // consecutive transitions with the same audit flag, in increasing
    // transition order. The uncertain band clusters (bursts of novel
    // operands), so a run of L transitions costs L + 1 window vectors,
    // exactly like the contiguous walk; runs that abut share their
    // boundary state, so an audit flag change costs nothing.
    let mut runs: Vec<Run> = Vec::new();
    let mut safe_skipped = 0u64;
    let mut audited = 0u64;
    for t in 0..transitions {
        let audit =
            model.classify(pairs[t], pairs[t + 1], k_max) == tei_timing::SurrogateClass::Safe;
        if audit && !run.audited(t) {
            // A confidently-safe transition contributes what an
            // error-free transition contributes: one sample.
            safe_skipped += 1;
            continue;
        }
        audited += u64::from(audit);
        match runs.last_mut() {
            Some(r) if r.hi == t && r.audit == audit => r.hi += 1,
            _ => runs.push(Run {
                lo: t,
                hi: t + 1,
                audit,
            }),
        }
    }

    // --- Tier 2: exact DTA over the runs, audits checked on the way.
    let (mut stats, audit_errors) = walk_runs(unit, pairs, &runs, clk, levels, threads, tuning)?;
    if audit_errors > 0 {
        // The surrogate lied about at least one transition it handled.
        // The filtered statistics are unsound — discard them and run the
        // campaign the model-free way, loudly.
        let reason = format!(
            "audit miscalibration: exact DTA contradicted the surrogate on \
             {audit_errors} of {audited} audited transitions; falling back to \
             exact DTA for unit {}",
            unit.tag()
        );
        eprintln!("warning: {reason}");
        let exact = dta_campaign_tuned(unit, pairs, clk, levels, threads, tuning)?;
        let mut report = SurrogateReport::exact_only("filter", transitions as u64);
        report.audited = audited;
        report.audit_errors = audit_errors;
        report.fallback = Some(reason);
        return Ok((exact, report));
    }

    // Skipped transitions contribute only their sample count, so the
    // mask sequence — and the seeded reservoir over it — is exactly the
    // exact campaign's.
    for s in &mut stats {
        s.samples += safe_skipped;
    }
    Ok((
        stats,
        SurrogateReport {
            mode: "filter".to_string(),
            transitions: transitions as u64,
            safe_skipped,
            exact_evaluated: transitions as u64 - safe_skipped,
            audited,
            audit_errors: 0,
            fallback: None,
        },
    ))
}

/// Average absolute BER estimation error (paper eq. 3) between a
/// full-trace reference and a sampled estimate, over bits where the
/// reference is non-zero.
pub fn average_absolute_error(full: &[f64], sim: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&f, &s) in full.iter().zip(sim) {
        if f > 0.0 {
            sum += ((f - s) / f).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The fixed error ratios of the data-agnostic model, measured by DTA over
/// a pooled benchmark-mix instruction stream (paper Section IV.C.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaCalibration {
    /// `(VR level, fixed ER)` pairs.
    pub er: Vec<(VoltageReduction, f64)>,
}

/// Map `f` over all twelve operation types, distributing ops to up to
/// `TEI_THREADS` scoped worker threads through a shared work queue.
/// Results come back in op order regardless of completion order, so
/// callers folding them stay deterministic. Workers run their campaigns
/// serially (pass `threads = 1` down) to avoid oversubscription.
///
/// A worker that panics (or a slot left unfilled) surfaces as
/// [`TeiError::WorkerPool`] instead of tearing the process down, so model
/// development failures are reportable by the campaign orchestrator.
pub(crate) fn per_op_parallel<T, F>(f: F) -> Result<Vec<T>, TeiError>
where
    T: Send,
    F: Fn(FpOp) -> T + Sync,
{
    const POOL: &str = "per-op model development";
    let ops = FpOp::all();
    let threads = config::default_threads().clamp(1, ops.len());
    if threads <= 1 {
        return Ok(ops.into_iter().map(f).collect());
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..ops.len()).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ops.len() {
                    break;
                }
                let value = f(ops[i]);
                let mut slot = match slots[i].lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(value);
            });
        }
    })
    .map_err(|_| TeiError::WorkerPool(POOL))?;
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .ok_or(TeiError::WorkerPool(POOL))
        })
        .collect()
}

/// Calibrate the DA model's fixed ER from pooled traces: the average
/// instruction error ratio over the mixed stream. Per-op campaigns run
/// on parallel worker threads; totals fold in op order.
///
/// # Errors
///
/// [`TeiError::WorkerPool`] when the per-op worker pool fails.
pub fn calibrate_da(
    bank: &FpuBank,
    spec: &FpuTimingSpec,
    pooled: &TraceSet,
    levels: &[VoltageReduction],
    per_op_cap: usize,
) -> Result<DaCalibration, TeiError> {
    let per_op: Vec<Result<Option<Vec<OpErrorStats>>, TeiError>> = per_op_parallel(|op| {
        let trace = pooled.of(op);
        if trace.len() < 2 {
            return Ok(None);
        }
        let take = trace.len().min(per_op_cap);
        dta_campaign_tuned(
            bank.unit(op),
            &trace[..take],
            spec.clk,
            levels,
            1,
            DtaTuning::default(),
        )
        .map(Some)
    })?;
    let mut totals = vec![(0u64, 0u64); levels.len()]; // (faulty, samples)
    for stats in per_op {
        for (t, s) in totals.iter_mut().zip(&stats?.unwrap_or_default()) {
            t.0 += s.faulty;
            t.1 += s.samples;
        }
    }
    Ok(DaCalibration {
        er: levels
            .iter()
            .zip(&totals)
            .map(|(&vr, &(f, n))| (vr, if n == 0 { 0.0 } else { f as f64 / n as f64 }))
            .collect(),
    })
}

/// Run the structural netlist lints over every unit of a bank, so a
/// campaign can refuse to characterize a broken design up front.
///
/// # Errors
///
/// [`TeiError::NetlistLint`] naming the first unit with findings.
pub fn lint_bank(bank: &FpuBank) -> Result<(), TeiError> {
    for unit in bank.iter() {
        let diagnostics = tei_netlist::lint_netlist(unit.netlist());
        if !diagnostics.is_empty() {
            return Err(TeiError::NetlistLint {
                design: unit.tag().to_string(),
                diagnostics,
            });
        }
    }
    Ok(())
}

/// Generate (or regenerate) the calibrated FPU bank used across the
/// toolflow. The twelve units are built on the per-op worker pool
/// (`TEI_THREADS`); the bank equals [`FpuBank::generate`]'s.
pub fn default_bank() -> (FpuBank, FpuTimingSpec) {
    let spec = FpuTimingSpec::paper_calibrated();
    let bank = match per_op_parallel(|op| FpuUnit::generate(op, &spec)) {
        Ok(units) => FpuBank::from_units(units),
        // A worker panicked: rebuild serially so the panic surfaces here.
        Err(_) => FpuBank::generate(&spec),
    };
    (bank, spec)
}

/// The default DTA sample budget (see [`config::default_dta_samples`]).
pub fn dta_samples() -> usize {
    config::default_dta_samples()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_softfloat::Precision;

    fn stats_with_masks(masks: Vec<u64>) -> OpErrorStats {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let mut s = OpErrorStats::empty(op, VoltageReduction::VR20, 32);
        s.masks = masks;
        s
    }

    #[test]
    fn reservoir_cap_is_deterministic_and_unbiased_to_prefix() {
        let full: Vec<u64> = (1..=1000).collect();
        let mut a = [stats_with_masks(full.clone())];
        let mut b = [stats_with_masks(full.clone())];
        finalize_masks_with_cap(&mut a, 64);
        finalize_masks_with_cap(&mut b, 64);
        assert_eq!(a[0].masks, b[0].masks, "same seed, same subsample");
        assert_eq!(a[0].masks.len(), 64);
        assert!(a[0].masks.iter().all(|m| full.contains(m)));
        assert_ne!(
            a[0].masks,
            full[..64].to_vec(),
            "reservoir must not degenerate to first-N truncation"
        );
    }

    #[test]
    fn reservoir_leaves_small_libraries_untouched() {
        let mut s = [stats_with_masks(vec![3, 1, 2])];
        finalize_masks_with_cap(&mut s, 10);
        assert_eq!(s[0].masks, vec![3, 1, 2], "under-cap library keeps order");
    }

    #[test]
    fn merge_concatenates_masks_and_sums_counts() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let mut a = OpErrorStats::empty(op, VoltageReduction::VR20, 2);
        let mut b = OpErrorStats::empty(op, VoltageReduction::VR20, 2);
        a.samples = 5;
        a.faulty = 2;
        a.bit_errors = vec![2, 0];
        a.masks = vec![0b01, 0b01];
        a.flip_hist.insert(1, 2);
        b.samples = 3;
        b.faulty = 1;
        b.bit_errors = vec![0, 1];
        b.masks = vec![0b10];
        b.flip_hist.insert(1, 1);
        a.merge(&b);
        assert_eq!(a.samples, 8);
        assert_eq!(a.faulty, 3);
        assert_eq!(a.bit_errors, vec![2, 1]);
        assert_eq!(a.masks, vec![0b01, 0b01, 0b10], "shard-order concatenation");
        assert_eq!(a.flip_hist.get(&1), Some(&3));
    }

    #[test]
    fn chunked_merge_preserves_chunk_order() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let empty = || vec![OpErrorStats::empty(op, VoltageReduction::VR20, 8)];
        let run = |ci: usize, _s: &mut ()| {
            let mut v = empty();
            v[0].samples = 1;
            v[0].masks = vec![ci as u64];
            v
        };
        for threads in [1usize, 2, 5, 32] {
            let merged = run_chunked(17, threads, || (), empty, run).expect("pool");
            assert_eq!(merged[0].samples, 17);
            let want: Vec<u64> = (0..17).collect();
            assert_eq!(
                merged[0].masks, want,
                "masks must concatenate in chunk-index order at {threads} threads"
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_as_pool_error() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let empty = || vec![OpErrorStats::empty(op, VoltageReduction::VR20, 8)];
        let run = |ci: usize, _s: &mut ()| -> Vec<OpErrorStats> {
            assert!(ci != 3, "injected worker fault");
            empty()
        };
        let err = run_chunked(8, 2, || (), empty, run).expect_err("must not succeed");
        assert!(
            matches!(err, TeiError::WorkerPool(_)),
            "worker panic must surface as a typed pool error, got {err}"
        );
    }

    #[test]
    fn bad_lane_width_is_a_config_error() {
        let (bank, spec) = default_bank();
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let pairs = random_operand_pairs(op, 8, 7);
        let tuning = DtaTuning {
            lanes: Some(3),
            ..DtaTuning::default()
        };
        let err = dta_campaign_tuned(
            bank.unit(op),
            &pairs,
            spec.clk,
            &[VoltageReduction::VR20],
            1,
            tuning,
        )
        .expect_err("lane width 3 must be rejected");
        assert!(
            matches!(err, TeiError::Config { .. }),
            "unsupported lanes must be a config error, got {err}"
        );
    }

    #[test]
    fn lane_auto_pick_is_the_table_kernel_width() {
        for fresh in [false, true] {
            for lanes in [1usize, 4, 8] {
                assert_eq!(
                    resolve_lanes(Some(lanes), KernelBackend::Auto, fresh),
                    lanes
                );
            }
            assert_eq!(
                resolve_lanes(None, KernelBackend::Auto, fresh),
                CODEGEN_LANES
            );
        }
        // A typo here would silently break auto.
        assert!(config::SUPPORTED_LANES.contains(&CODEGEN_LANES));
    }

    #[test]
    fn dta_engine_builds_every_supported_width() {
        let (bank, _) = default_bank();
        let unit = bank.unit(FpOp::new(FpOpKind::Add, Precision::Single));
        for lanes in config::SUPPORTED_LANES {
            let engine = dta_engine(unit, lanes).expect("engine");
            assert_eq!(engine.lanes(), lanes);
            assert_eq!(engine.window_vectors(), lanes * 64);
        }
    }

    #[test]
    fn prune_policy_resolves_against_the_oracle() {
        let (bank, spec) = default_bank();
        let unit = bank.unit(FpOp::new(FpOpKind::Add, Precision::Single));
        let levels = [VoltageReduction::VR15, VoltageReduction::VR20];
        let auto = resolve_prune(unit, spec.clk, &levels, PrunePolicy::Auto);
        let on = resolve_prune(unit, spec.clk, &levels, PrunePolicy::ForceOn);
        let off = resolve_prune(unit, spec.clk, &levels, PrunePolicy::ForceOff);
        assert!(on.enabled && !off.enabled);
        assert_eq!(auto.safe_fraction, on.safe_fraction);
        assert_eq!(
            auto.enabled,
            auto.safe_fraction >= PRUNE_MIN_SAFE_FRACTION,
            "auto must be exactly the threshold comparison, measured fraction {}",
            auto.safe_fraction
        );
        // The decision is a pure perf knob: forcing pruning on and off
        // must produce byte-identical statistics either way.
        let pairs = random_operand_pairs(FpOp::new(FpOpKind::Add, Precision::Single), 120, 23);
        let stats: Vec<String> = [PrunePolicy::ForceOn, PrunePolicy::ForceOff]
            .into_iter()
            .map(|prune| {
                let tuning = DtaTuning {
                    prune,
                    ..DtaTuning::default()
                };
                let s = dta_campaign_tuned(unit, &pairs, spec.clk, &levels, 1, tuning)
                    .expect("campaign succeeds");
                serde_json::to_string(&s).expect("stats serialize")
            })
            .collect();
        assert_eq!(stats[0], stats[1], "pruning must never change statistics");
    }
}
