//! Checkpointed fork-replay support for injection campaigns.
//!
//! A campaign replays the same program once per injection run, and every
//! replay's prefix up to the corrupted FP writeback is identical to the
//! golden run. This module removes that redundancy ZOFI-style: the golden
//! functional run records cheap [`Snapshot`]s every K dynamic FP
//! operations (architectural registers, dirty-page deltas over a shared
//! base image, output watermark), and each injection run *forks* from the
//! nearest checkpoint at or before its target FP index instead of
//! re-executing from instruction zero.
//!
//! After the corruption is applied, [`CheckpointPool::run_injected`] keeps
//! comparing the corrupted core against golden checkpoints at matching FP
//! counts; the moment registers, memory, and output re-converge the run is
//! provably identical to the golden run from there on and can stop early
//! (the early-convergence cutoff). Both paths are exact: outcomes are
//! byte-identical to a full replay-from-zero, which
//! `crates/core/tests/replay_equivalence.rs` asserts.

use crate::arch::{ExitReason, FpEvent, RunResult};
use crate::func::FuncCore;
use crate::mem::PAGE_BYTES;
use std::sync::Arc;

/// Default checkpoint spacing in dynamic FP operations (auto mode).
const DEFAULT_INTERVAL: u64 = 16;
/// Checkpoint-count cap: when recording exceeds it, every other snapshot
/// is dropped and the interval doubles, bounding pool memory while keeping
/// coverage of the whole run.
const MAX_SNAPSHOTS: usize = 64;

/// One resume point of the golden functional run: architectural state,
/// the pages that diverged from the initial memory image, and the output
/// watermark, all at an instruction boundary where `fp_ops` first reached
/// the checkpoint's FP index.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: crate::ArchState,
    instructions: u64,
    fp_ops: u64,
    output: Vec<u8>,
    /// Dirty-page bitmap at capture time (one bit per page).
    dirty: Vec<u64>,
    /// Dirty pages' contents, packed at [`PAGE_BYTES`] stride in ascending
    /// page order (a trailing partial page is zero-padded).
    pages: Vec<u8>,
}

impl Snapshot {
    /// Capture the core's current state. Must be taken at an instruction
    /// boundary (between [`FuncCore::step`] calls).
    pub fn capture(core: &FuncCore) -> Self {
        let dirty = core.mem.dirty_words().to_vec();
        let idxs = core.mem.dirty_pages();
        let mut pages = vec![0u8; idxs.len() * PAGE_BYTES];
        for (k, &p) in idxs.iter().enumerate() {
            let b = core.mem.page_bytes(p);
            pages[k * PAGE_BYTES..k * PAGE_BYTES + b.len()].copy_from_slice(b);
        }
        Snapshot {
            state: core.state.clone(),
            instructions: core.instructions,
            fp_ops: core.fp_ops,
            output: core.output.clone(),
            dirty,
            pages,
        }
    }

    /// Dynamic FP operations completed at this checkpoint.
    pub fn fp_ops(&self) -> u64 {
        self.fp_ops
    }

    /// Instructions retired at this checkpoint.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Approximate heap footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.pages.len() + self.output.len() + self.dirty.len() * 8
    }
}

/// Checkpoint recording was started on a core that already executed
/// instructions, so the pristine base memory image is unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleCoreError {
    /// Instructions the core had already retired.
    pub instructions: u64,
}

impl std::fmt::Display for StaleCoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint recording must start on a fresh core, but {} \
             instructions were already retired",
            self.instructions
        )
    }
}

impl std::error::Error for StaleCoreError {}

/// Records golden-run checkpoints every `interval` dynamic FP operations,
/// thinning adaptively so the pool never exceeds [`MAX_SNAPSHOTS`].
#[derive(Debug)]
pub struct CheckpointRecorder {
    base: Vec<u8>,
    snaps: Vec<Snapshot>,
    interval: u64,
    next_mark: u64,
}

impl CheckpointRecorder {
    /// Start recording on a fresh core (captures the base memory image and
    /// the initial checkpoint). `interval` of 0 selects the auto policy.
    ///
    /// # Errors
    ///
    /// [`StaleCoreError`] if the core has already executed instructions —
    /// the base image must be the pristine initial memory. Campaign
    /// orchestrators surface this as a run-level failure instead of
    /// tearing down the process.
    pub fn try_new(core: &FuncCore, interval: u64) -> Result<Self, StaleCoreError> {
        if core.instructions() != 0 {
            return Err(StaleCoreError {
                instructions: core.instructions(),
            });
        }
        let interval = if interval == 0 {
            DEFAULT_INTERVAL
        } else {
            interval
        };
        Ok(CheckpointRecorder {
            base: core.mem.as_bytes().to_vec(),
            snaps: vec![Snapshot::capture(core)],
            interval,
            next_mark: interval,
        })
    }

    /// [`CheckpointRecorder::try_new`] for contexts where a stale core is
    /// a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if the core has already executed instructions.
    pub fn new(core: &FuncCore, interval: u64) -> Self {
        match Self::try_new(core, interval) {
            Ok(rec) => rec,
            Err(e) => panic!("{e}"),
        }
    }

    /// Call at every instruction boundary of the golden run; captures a
    /// snapshot whenever the FP-op counter crosses the next mark.
    #[inline]
    pub fn observe(&mut self, core: &FuncCore) {
        if core.fp_ops() >= self.next_mark {
            self.capture(core);
        }
    }

    fn capture(&mut self, core: &FuncCore) {
        self.snaps.push(Snapshot::capture(core));
        if self.snaps.len() > MAX_SNAPSHOTS {
            let mut keep = 0usize;
            self.snaps.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.interval *= 2;
        }
        self.next_mark = core.fp_ops() + self.interval;
    }

    /// Freeze the recording into a shareable pool.
    pub fn finish(self) -> CheckpointPool {
        CheckpointPool {
            inner: Arc::new(PoolInner {
                base: self.base,
                snaps: self.snaps,
                interval: self.interval,
            }),
        }
    }
}

#[derive(Debug)]
struct PoolInner {
    base: Vec<u8>,
    snaps: Vec<Snapshot>,
    interval: u64,
}

/// An immutable, cheaply clonable set of golden-run checkpoints shared by
/// every worker of a campaign cell.
#[derive(Debug, Clone)]
pub struct CheckpointPool {
    inner: Arc<PoolInner>,
}

/// How a checkpoint-replayed injection run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedExit {
    /// Ran to a natural end (halt / exit / trap / step budget), exactly as
    /// a replay-from-zero would have.
    Finished(RunResult),
    /// Registers and memory re-converged with a golden checkpoint at the
    /// same FP count, so the rest of the execution is provably identical
    /// to the golden run. `output_matches` reports whether the emitted
    /// output prefix also equals the golden prefix (it decides Masked vs
    /// SDC); the instruction counts let the caller apply the timeout
    /// criterion to the implied full run.
    Converged {
        /// Output emitted so far equals the golden output watermark.
        output_matches: bool,
        /// Corrupted run's retired instructions at the convergence point.
        instructions: u64,
        /// Golden instructions at the matching checkpoint.
        checkpoint_instructions: u64,
    },
}

/// Result of [`CheckpointPool::run_injected`].
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedRun {
    /// Terminal condition (natural end or early convergence).
    pub exit: InjectedExit,
    /// Whether the target FP event was actually reached and corrupted.
    pub fired: bool,
}

impl CheckpointPool {
    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.inner.snaps.len()
    }

    /// True when no checkpoints were recorded (never: the initial
    /// checkpoint is always present).
    pub fn is_empty(&self) -> bool {
        self.inner.snaps.is_empty()
    }

    /// Final checkpoint spacing in dynamic FP operations.
    pub fn interval(&self) -> u64 {
        self.inner.interval
    }

    /// Approximate heap footprint of the pool in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.inner.base.len()
            + self
                .inner
                .snaps
                .iter()
                .map(Snapshot::footprint_bytes)
                .sum::<usize>()
    }

    /// The latest checkpoint at or before `fp` dynamic FP operations.
    pub fn nearest(&self, fp: u64) -> &Snapshot {
        let snaps = &self.inner.snaps;
        let i = snaps.partition_point(|s| s.fp_ops <= fp);
        &snaps[i - 1]
    }

    /// Rewind `core` to `snap`. The core must have been built from the
    /// same program and memory size the pool was recorded with.
    pub fn restore(&self, core: &mut FuncCore, snap: &Snapshot) {
        core.state.clone_from(&snap.state);
        core.mem
            .restore_pages(&snap.dirty, &snap.pages, &self.inner.base);
        core.output.clear();
        core.output.extend_from_slice(&snap.output);
        core.instructions = snap.instructions;
        core.fp_ops = snap.fp_ops;
    }

    /// Execute one injection run by forking from the nearest checkpoint:
    /// restore, fast-forward hook-free to the target FP index, XOR `mask`
    /// into that event's writeback, then run on — stopping early if the
    /// corrupted state re-converges with a golden checkpoint.
    ///
    /// `step_budget` is the total instruction budget counted from program
    /// start (the restored instruction counter continues the golden
    /// count), so `Limit` exits match a replay-from-zero with the same
    /// budget exactly.
    pub fn run_injected(
        &self,
        core: &mut FuncCore,
        step_budget: u64,
        target_fp: u64,
        mask: u64,
    ) -> InjectedRun {
        let snaps = &self.inner.snaps;
        self.restore(core, self.nearest(target_fp));

        let finish = |core: &FuncCore, exit: ExitReason, fired: bool| InjectedRun {
            exit: InjectedExit::Finished(RunResult {
                exit,
                instructions: core.instructions,
                fp_ops: core.fp_ops,
            }),
            fired,
        };

        // Phase 1: hook-free fast-forward to the target FP index.
        if let Err(exit) = run_to_fp(core, target_fp, step_budget) {
            return finish(core, exit, false);
        }

        // Phase 2: step until the target event fires and corrupt it.
        let mut fired = false;
        while !fired {
            if core.instructions >= step_budget {
                return finish(core, ExitReason::Limit, false);
            }
            let step = core.step(&mut |ev: &FpEvent| {
                debug_assert_eq!(ev.index, target_fp, "fast-forward overshot the target");
                fired = true;
                ev.result ^ mask
            });
            match step {
                Ok(None) => {}
                Ok(Some(exit)) => return finish(core, exit, fired),
                Err(trap) => return finish(core, ExitReason::Trapped(trap), fired),
            }
        }

        // Phase 3: run on from checkpoint to checkpoint downstream of the
        // injection, testing for re-convergence at the first instruction
        // boundary at each one's FP count (FP counts rise by at most one
        // per instruction, so none is skipped).
        let downstream = snaps.partition_point(|s| s.fp_ops <= target_fp);
        for s in &snaps[downstream..] {
            if let Err(exit) = run_to_fp(core, s.fp_ops, step_budget) {
                return finish(core, exit, true);
            }
            if core.instructions >= step_budget {
                return finish(core, ExitReason::Limit, true);
            }
            if core.state == s.state && core.mem.pages_match(&s.dirty, &s.pages, &self.inner.base) {
                return InjectedRun {
                    exit: InjectedExit::Converged {
                        output_matches: core.output == s.output,
                        instructions: core.instructions,
                        checkpoint_instructions: s.instructions,
                    },
                    fired: true,
                };
            }
        }
        let Err(exit) = run_to_fp(core, u64::MAX, step_budget) else {
            unreachable!("the FP count cannot reach u64::MAX");
        };
        finish(core, exit, true)
    }
}

/// Step `core` hook-free until it has retired `fp_stop` FP operations;
/// `Err` carries the exit if the run ends (or spends `step_budget`)
/// first.
///
/// Out of line on purpose: one copy, with the step inlined into its
/// loop, serves all three call sites. Inlined at each of them, the step
/// itself stopped being inlined and replays ran about 15 % slower.
#[inline(never)]
fn run_to_fp(core: &mut FuncCore, fp_stop: u64, step_budget: u64) -> Result<(), ExitReason> {
    while core.fp_ops < fp_stop {
        if core.instructions >= step_budget {
            return Err(ExitReason::Limit);
        }
        match core.step(&mut |ev: &FpEvent| ev.result) {
            Ok(None) => {}
            Ok(Some(exit)) => return Err(exit),
            Err(trap) => return Err(ExitReason::Trapped(trap)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExitReason;
    use tei_isa::{FReg, ProgramBuilder, Reg, Syscall};

    /// An FP-heavy loop: each iteration reloads clean operands, so a
    /// corrupted register value is overwritten on the next pass.
    fn fp_loop_program(iters: i64) -> tei_isa::Program {
        let mut p = ProgramBuilder::new();
        let addr = p.doubles(&[1.25, 2.5]);
        p.li(Reg::T0, iters);
        p.la(Reg::S0, addr);
        let head = p.here();
        p.fld(FReg::F1, 0, Reg::S0);
        p.fld(FReg::F2, 8, Reg::S0);
        p.fmul_d(FReg::F3, FReg::F1, FReg::F2);
        p.fadd_d(FReg::F10, FReg::F3, FReg::F2);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, head);
        p.syscall(Syscall::PutF64);
        p.halt();
        p.finish()
    }

    fn record_golden(prog: &tei_isa::Program, interval: u64) -> (CheckpointPool, RunResult) {
        let mut core = FuncCore::with_memory(prog, 1 << 16);
        let mut rec = CheckpointRecorder::new(&core, interval);
        let exit = loop {
            rec.observe(&core);
            match core.step(&mut |ev| ev.result) {
                Ok(None) => {}
                Ok(Some(exit)) => break exit,
                Err(trap) => break ExitReason::Trapped(trap),
            }
        };
        let rr = RunResult {
            exit,
            instructions: core.instructions(),
            fp_ops: core.fp_ops(),
        };
        (rec.finish(), rr)
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let prog = fp_loop_program(40);
        // Uninterrupted reference.
        let mut reference = FuncCore::with_memory(&prog, 1 << 16);
        let rr = reference.run(100_000);
        assert_eq!(rr.exit, ExitReason::Halted);

        let (pool, golden_rr) = record_golden(&prog, 8);
        assert_eq!(golden_rr, rr);
        assert!(pool.len() > 3, "loop must produce several checkpoints");

        // Fork from a mid-run checkpoint and run to completion.
        let snap = pool.nearest(33);
        assert!(snap.fp_ops() <= 33 && snap.fp_ops() > 0);
        let mut fork = FuncCore::with_memory(&prog, 1 << 16);
        pool.restore(&mut fork, snap);
        assert_eq!(fork.instructions(), snap.instructions());
        let fr = fork.run(100_000);
        assert_eq!(fr.exit, ExitReason::Halted);
        assert_eq!(fr.instructions, rr.instructions);
        assert_eq!(fork.output, reference.output);
        assert_eq!(fork.state, reference.state);
    }

    #[test]
    fn run_injected_matches_replay_from_zero() {
        let prog = fp_loop_program(25);
        let (pool, golden_rr) = record_golden(&prog, 4);
        let budget = golden_rr.instructions * 2;
        let mut fork = FuncCore::with_memory(&prog, 1 << 16);
        for target in [0u64, 7, 23, golden_rr.fp_ops - 1] {
            for mask in [1u64 << 2, 1 << 40, 1 << 63] {
                // Reference: full replay from zero with a dyn hook.
                let mut refc = FuncCore::with_memory(&prog, 1 << 16);
                let rr = refc.run_with_hook(budget, &mut |ev| {
                    if ev.index == target {
                        ev.result ^ mask
                    } else {
                        ev.result
                    }
                });
                let inj = pool.run_injected(&mut fork, budget, target, mask);
                assert!(inj.fired, "target {target} must fire");
                match inj.exit {
                    InjectedExit::Finished(f) => {
                        assert_eq!(f, rr, "target {target} mask {mask:#x}");
                        assert_eq!(fork.output, refc.output);
                    }
                    InjectedExit::Converged {
                        output_matches,
                        instructions,
                        checkpoint_instructions,
                    } => {
                        // The implied full run must agree with the reference.
                        let total =
                            instructions + (golden_rr.instructions - checkpoint_instructions);
                        assert!(total <= budget);
                        assert_eq!(rr.exit, ExitReason::Halted);
                        assert_eq!(rr.instructions, total, "target {target} mask {mask:#x}");
                        if output_matches {
                            assert!(refc.output.starts_with(&fork.output));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn early_convergence_detects_masked_flip() {
        // A low-mantissa flip in f3 is overwritten on the next loop
        // iteration, so state re-converges long before the run ends.
        let prog = fp_loop_program(200);
        let (pool, golden_rr) = record_golden(&prog, 4);
        let mut fork = FuncCore::with_memory(&prog, 1 << 16);
        let inj = pool.run_injected(&mut fork, golden_rr.instructions * 2, 10, 1 << 3);
        assert!(inj.fired);
        match inj.exit {
            InjectedExit::Converged {
                output_matches,
                instructions,
                ..
            } => {
                assert!(output_matches, "no output emitted before convergence");
                assert!(
                    instructions < golden_rr.instructions / 2,
                    "must converge early, not at the end ({instructions} of {})",
                    golden_rr.instructions
                );
            }
            other => panic!("expected early convergence, got {other:?}"),
        }
    }

    #[test]
    fn recorder_thins_to_snapshot_cap() {
        let prog = fp_loop_program(600); // 1200 FP ops at interval 1
        let (pool, _) = record_golden(&prog, 1);
        assert!(pool.len() <= MAX_SNAPSHOTS + 1);
        assert!(pool.interval() > 1, "interval must have doubled");
        assert!(pool.footprint_bytes() > 0);
        assert!(!pool.is_empty());
    }
}
