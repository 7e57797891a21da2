//! Cycle-level out-of-order core (the gem5 substitute).
//!
//! A 5-stage organization — fetch, dispatch/rename, issue (order-control
//! buffer), execute, commit — with ROB-based renaming, a bimodal branch
//! predictor, speculative wrong-path execution with squash on mispredict,
//! store-queue forwarding, a small direct-mapped data cache, and precise
//! exceptions at commit.
//!
//! Values are computed *in* the pipeline (execute-at-execute), so timing
//! error injection at FP writeback propagates architecturally exactly as in
//! the paper's microarchitecture-level methodology: corruptions on
//! wrong-path instructions are squashed (microarchitectural masking), and
//! corrupted committed values flow into dependent instructions, memory, and
//! control flow.
//!
//! The scheduler is event-driven: in-flight instructions live in a ring
//! addressed by stable tags, and each stage visits only the instructions
//! it can act on (writeback the executing list, wake-up the consumers
//! renamed to the producer, issue the entries whose sources are ready).
//! A cycle in which nothing commits, writes back, issues or dispatches
//! leaves the machine unchanged except for its cycle number, so the core
//! jumps straight to the next cycle at which an execution latency or an
//! unpipelined unit's busy window ends.

use std::collections::VecDeque;

use crate::arch::{ArchState, ExitReason, FpEvent, RunResult, Trap};
use crate::mem::Memory;
use crate::sem;
use crate::sem::{write_kind, DestKind};
use serde::{Deserialize, Serialize};
use tei_isa::{FReg, Instr, Program, Reg, Syscall, DEFAULT_MEM_BYTES};
use tei_softfloat::FpuConfig;

/// Microarchitectural configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OooConfig {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Issue-queue (order control buffer) capacity.
    pub iq_entries: usize,
    /// Integer ALU units.
    pub alu_units: usize,
    /// L1 data-cache hit latency (cycles).
    pub mem_latency: u64,
    /// Data-cache miss latency (cycles).
    pub miss_latency: u64,
    /// Direct-mapped data-cache lines (64-byte lines).
    pub cache_lines: usize,
    /// Bimodal predictor entries.
    pub bp_entries: usize,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            rob_entries: 64,
            iq_entries: 32,
            alu_units: 2,
            mem_latency: 3,
            miss_latency: 20,
            cache_lines: 256,
            bp_entries: 1024,
        }
    }
}

/// Execution latency of an instruction class (cycles), mirroring the
/// six-stage FPU of the paper's Figure 3.
fn latency(i: &Instr) -> u64 {
    use Instr::*;
    match i {
        Mul { .. } => 3,
        Div { .. } | Rem { .. } => 12,
        FaddD { .. } | FsubD { .. } | FaddS { .. } | FsubS { .. } => 6,
        FmulD { .. } | FmulS { .. } => 6,
        FdivD { .. } | FdivS { .. } => 20,
        FcvtDL { .. } | FcvtLD { .. } | FcvtSW { .. } | FcvtWS { .. } => 4,
        FmvD { .. }
        | FnegD { .. }
        | FabsD { .. }
        | FmvXD { .. }
        | FmvDX { .. }
        | FeqD { .. }
        | FltD { .. }
        | FleD { .. } => 2,
        _ => 1,
    }
}

fn is_fp_domain(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        FaddD { .. }
            | FsubD { .. }
            | FmulD { .. }
            | FdivD { .. }
            | FaddS { .. }
            | FsubS { .. }
            | FmulS { .. }
            | FdivS { .. }
            | FcvtDL { .. }
            | FcvtLD { .. }
            | FcvtSW { .. }
            | FcvtWS { .. }
            | FmvD { .. }
            | FnegD { .. }
            | FabsD { .. }
            | FmvXD { .. }
            | FmvDX { .. }
            | FeqD { .. }
            | FltD { .. }
            | FleD { .. }
    )
}

fn is_unpipelined_fp(i: &Instr) -> bool {
    matches!(i, Instr::FdivD { .. } | Instr::FdivS { .. })
}

/// Stable identity of an in-flight instruction: its position in dispatch
/// order. Tags below `OooCore::head` have committed; tags in
/// `head..tail` are in flight. A squash rewinds `tail`, so the tags of
/// squashed instructions are handed out again.
type Tag = u64;

/// Source operand slots: integer rs1/rs2, FP fs1/fs2.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// Not used.
    None,
    /// Value available.
    Ready(u64),
    /// Waiting on an in-flight producer.
    Rob(Tag),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Dispatched,
    Executing,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    pc: usize,
    instr: Instr,
    stage: Stage,
    srcs: [Src; 2],
    /// Integer operand for FP conversions / fmv.d.x (third source slot).
    xsrc: Src,
    value: u64,
    exception: Option<Trap>,
    /// Predicted next PC of a control instruction.
    pred_next: Option<usize>,
    // Store state (filled at execute).
    store_addr: u64,
    store_width: usize,
    store_ready: bool,
    done_at: u64,
    /// Resolved next PC for control instructions.
    actual_next: Option<usize>,
    /// Speculative FP dynamic index (program order at dispatch).
    fp_index: Option<u64>,
    /// Sources still waiting on an in-flight producer.
    pending: u8,
    /// Saved rename-map entry for squash recovery.
    prev_map: Option<(DestKind, Option<Tag>)>,
}

/// Run statistics of the detailed core.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OooStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions squashed on mispredicts.
    pub squashed: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Data-cache misses.
    pub cache_misses: u64,
    /// Committed FP operations (the twelve modeled kinds).
    pub fp_committed: u64,
    /// FP writebacks that happened on the wrong path (squashed).
    pub fp_squashed: u64,
    /// FP writebacks that reached the hook, per [`FpOp::index`]: every
    /// modeled FP op that wrote back without an exception, on either
    /// path.
    ///
    /// [`FpOp::index`]: tei_softfloat::FpOp::index
    pub fp_written_back_by_op: [u64; 12],
    /// Committed FP operations per [`FpOp::index`]. Written back minus
    /// committed is the op's wrong-path writebacks, counting any still in
    /// flight when the run ended (unlike [`OooStats::fp_squashed`], which
    /// also counts squashed ops that trapped and never reached the hook).
    ///
    /// [`FpOp::index`]: tei_softfloat::FpOp::index
    pub fp_committed_by_op: [u64; 12],
}

/// The detailed out-of-order core.
pub struct OooCore {
    cfg: OooConfig,
    text: Vec<Instr>,
    /// Committed architectural state.
    pub state: ArchState,
    /// Data memory (committed stores only).
    pub mem: Memory,
    /// Output stream.
    pub output: Vec<u8>,
    fpu_cfg: FpuConfig,

    /// Reorder buffer: a ring in which tag `t` lives in slot `t & rob_mask`.
    rob: Vec<RobEntry>,
    rob_mask: u64,
    /// Oldest in-flight tag.
    head: Tag,
    /// Next tag to dispatch.
    tail: Tag,
    /// Dispatched, not yet issued: the issue-queue occupancy.
    in_iq: usize,
    /// Issue-queue entries whose sources are all available, in ROB order.
    ready: Vec<Tag>,
    /// Issued, not yet written back, in ROB order.
    executing: Vec<Tag>,
    /// Per ROB slot, the tags renamed to wait on that slot's instruction.
    /// A squash can leave stale tags behind; wake-up checks each source.
    waiters: Vec<Vec<Tag>>,
    /// In-flight stores, in ROB order.
    stores: VecDeque<Tag>,
    map_x: [Option<Tag>; 32],
    map_f: [Option<Tag>; 32],
    fetch_pc: usize,
    fetch_stalled: bool,
    cycle: u64,
    fp_dispatch_count: u64,
    fp_commit_count: u64,

    // Predictors.
    bimodal: Vec<u8>,
    jalr_targets: Vec<usize>,

    // FP divider occupancy (unpipelined).
    fpu_busy_until: u64,
    int_div_busy_until: u64,

    // Data cache tags (direct mapped, 64-byte lines).
    cache_tags: Vec<Option<u64>>,

    /// Statistics.
    pub stats: OooStats,
    exit: Option<ExitReason>,
}

impl OooCore {
    /// Build a detailed core with the default memory size.
    pub fn new(program: &Program, cfg: OooConfig) -> Self {
        Self::with_memory(program, cfg, DEFAULT_MEM_BYTES as usize)
    }

    /// Build a detailed core with an explicit memory size.
    pub fn with_memory(program: &Program, cfg: OooConfig, mem_bytes: usize) -> Self {
        let stack_top = (tei_isa::DATA_BASE as usize + mem_bytes - 16) as u64;
        OooCore {
            text: program.text.clone(),
            state: ArchState::new(program.entry, stack_top),
            mem: Memory::with_image(mem_bytes, &program.data),
            output: Vec::new(),
            fpu_cfg: FpuConfig { ftz: true },
            rob: Vec::new(),
            rob_mask: cfg.rob_entries.max(1).next_power_of_two() as u64 - 1,
            head: 0,
            tail: 0,
            in_iq: 0,
            ready: Vec::new(),
            executing: Vec::new(),
            waiters: Vec::new(),
            stores: VecDeque::new(),
            map_x: [None; 32],
            map_f: [None; 32],
            fetch_pc: program.entry,
            fetch_stalled: false,
            cycle: 0,
            fp_dispatch_count: 0,
            fp_commit_count: 0,
            bimodal: vec![1; cfg.bp_entries], // weakly not-taken
            jalr_targets: vec![0; cfg.bp_entries],
            fpu_busy_until: 0,
            int_div_busy_until: 0,
            cache_tags: vec![None; cfg.cache_lines],
            stats: OooStats::default(),
            exit: None,
            cfg,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Run until termination or `max_cycles`, with an FP writeback hook.
    pub fn run_with_hook(
        &mut self,
        max_cycles: u64,
        fp_hook: &mut dyn FnMut(&FpEvent) -> u64,
    ) -> RunResult {
        while self.exit.is_none() && self.cycle < max_cycles {
            self.step_cycle(max_cycles, fp_hook);
        }
        let exit = self.exit.unwrap_or(ExitReason::Limit);
        self.stats.cycles = self.cycle;
        RunResult {
            exit,
            instructions: self.stats.committed,
            fp_ops: self.fp_commit_count,
        }
    }

    /// Run fault-free.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.run_with_hook(max_cycles, &mut |ev: &FpEvent| ev.result)
    }

    fn step_cycle(&mut self, max_cycles: u64, fp_hook: &mut dyn FnMut(&FpEvent) -> u64) {
        let head = self.head;
        self.commit();
        if self.exit.is_some() {
            return;
        }
        let wrote_back = self.writeback(fp_hook);
        let issued = self.issue();
        let tail = self.tail;
        self.fetch_dispatch();
        if head == self.head && !wrote_back && !issued && tail == self.tail {
            // Nothing moved, so every following cycle repeats this one
            // until a latency or busy window ends: skip to that cycle.
            self.cycle = self.next_event().min(max_cycles);
        } else {
            self.cycle += 1;
        }
    }

    /// The earliest cycle after the current one at which a time comparison
    /// of the machine flips: an executing entry becomes due for writeback
    /// or an unpipelined divider frees up.
    fn next_event(&self) -> u64 {
        let busy = [self.fpu_busy_until, self.int_div_busy_until];
        self.executing
            .iter()
            .map(|&t| self.entry(t).done_at)
            .chain(busy.into_iter().filter(|&b| b > self.cycle))
            .min()
            .map_or(u64::MAX, |c| c.max(self.cycle + 1))
    }

    fn entry(&self, tag: Tag) -> &RobEntry {
        &self.rob[(tag & self.rob_mask) as usize]
    }

    fn entry_mut(&mut self, tag: Tag) -> &mut RobEntry {
        &mut self.rob[(tag & self.rob_mask) as usize]
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.head == self.tail || self.entry(self.head).stage != Stage::Done {
                return;
            }
            let tag = self.head;
            let e = *self.entry(tag);
            self.head += 1;
            self.stats.committed += 1;
            // Precise exception.
            if let Some(trap) = e.exception {
                self.exit = Some(ExitReason::Trapped(trap));
                return;
            }
            // Serializing instructions act at commit.
            match e.instr {
                Instr::Ecall => {
                    if !self.do_syscall() {
                        return;
                    }
                    self.fetch_pc = e.pc + 1;
                    self.fetch_stalled = false;
                }
                Instr::Halt => {
                    self.exit = Some(ExitReason::Halted);
                    return;
                }
                _ => {}
            }
            // Stores write memory in order at commit.
            if e.store_ready {
                self.stores.pop_front();
                if let Err(f) = self.mem.store(e.store_addr, e.store_width, e.value) {
                    self.exit = Some(ExitReason::Trapped(f.into()));
                    return;
                }
                self.cache_fill(e.store_addr);
            }
            // Register writeback to committed state; a rename entry still
            // naming this instruction now reads the architectural file.
            let map = match write_kind(&e.instr) {
                DestKind::Int(rd) => {
                    self.state.set_x(rd, e.value);
                    &mut self.map_x[rd.num() as usize]
                }
                DestKind::Fp(fd) => {
                    self.state.set_f(fd, e.value);
                    &mut self.map_f[fd.num() as usize]
                }
                DestKind::None => &mut None,
            };
            if *map == Some(tag) {
                *map = None;
            }
            if let Some(n) = e.actual_next {
                self.state.pc = n;
            }
            if let Some(op) = e.instr.fp_op() {
                self.fp_commit_count += 1;
                self.stats.fp_committed += 1;
                self.stats.fp_committed_by_op[op.index()] += 1;
            }
            if e.actual_next.is_none() {
                self.state.pc = e.pc + 1;
            }
        }
    }

    /// Returns false when the syscall ended the run.
    fn do_syscall(&mut self) -> bool {
        match Syscall::from_u64(self.state.x(Reg::A7)) {
            Some(Syscall::Exit) => {
                self.exit = Some(ExitReason::Exited(self.state.x(Reg::A0) as i64));
                false
            }
            Some(Syscall::PutByte) => {
                self.output.push(self.state.x(Reg::A0) as u8);
                true
            }
            Some(Syscall::PutInt) => {
                let v = self.state.x(Reg::A0) as i64;
                self.output.extend_from_slice(v.to_string().as_bytes());
                true
            }
            Some(Syscall::PutF64) => {
                let bits = self.state.f(FReg::F10);
                self.output.extend_from_slice(&bits.to_le_bytes());
                true
            }
            None => {
                self.exit = Some(ExitReason::Trapped(Trap::BadSyscall(self.state.x(Reg::A7))));
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution
    // ------------------------------------------------------------------

    /// Write back every executing entry due this cycle, in ROB order.
    /// Returns whether any did.
    fn writeback(&mut self, fp_hook: &mut dyn FnMut(&FpEvent) -> u64) -> bool {
        let (cycle, mask) = (self.cycle, self.rob_mask);
        let executing = self.executing.len();
        let mut squash_after: Option<(Tag, usize)> = None; // (branch, redirect pc)
        let mut i = 0;
        while i < self.executing.len() {
            let tag = self.executing[i];
            if self.entry(tag).done_at > cycle {
                i += 1;
                continue;
            }
            self.executing.remove(i);
            let e = *self.entry(tag);
            let instr = e.instr;
            let mut value = e.value;
            // FP writeback hook (injection point). Trapping operations
            // never write back and are invisible to the injector.
            if let (Some(op), Some(spec), None) = (instr.fp_op(), e.fp_index, e.exception) {
                let (a, b) = fp_event_operands(&e, &instr);
                let ev = FpEvent {
                    index: spec,
                    op,
                    a,
                    b,
                    result: value,
                };
                self.stats.fp_written_back_by_op[op.index()] += 1;
                value = fp_hook(&ev);
            }
            let done = self.entry_mut(tag);
            done.value = value;
            done.stage = Stage::Done;
            // Branch resolution.
            if let (Some(pred), Some(actual)) = (e.pred_next, e.actual_next) {
                self.train_predictor(&instr, e.pc, actual);
                if actual != pred && squash_after.is_none() {
                    squash_after = Some((tag, actual));
                }
            }
            // Wake up dependents.
            let slot = (tag & mask) as usize;
            for &w in &self.waiters[slot] {
                if w >= self.tail {
                    continue; // squashed
                }
                let r = &mut self.rob[(w & mask) as usize];
                for s in r.srcs.iter_mut().chain(std::iter::once(&mut r.xsrc)) {
                    if *s == Src::Rob(tag) {
                        *s = Src::Ready(value);
                        r.pending -= 1;
                        if r.pending == 0 {
                            let at = self.ready.partition_point(|&t| t < w);
                            self.ready.insert(at, w);
                        }
                    }
                }
            }
            self.waiters[slot].clear();
        }
        let wrote_back = self.executing.len() < executing;
        if let Some((tag, redirect)) = squash_after {
            self.squash_younger_than(tag, redirect);
        }
        wrote_back
    }

    fn train_predictor(&mut self, i: &Instr, pc: usize, actual_next: usize) {
        let slot = pc % self.cfg.bp_entries;
        match i {
            Instr::Jalr { .. } => {
                self.jalr_targets[slot] = actual_next;
            }
            _ if i.is_control() => {
                let taken = actual_next != pc + 1;
                let c = &mut self.bimodal[slot];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
            _ => {}
        }
    }

    fn squash_younger_than(&mut self, branch: Tag, redirect: usize) {
        self.stats.mispredicts += 1;
        let mut min_fp: Option<u64> = None;
        // Restore rename state newest-first.
        while self.tail > branch + 1 {
            self.tail -= 1;
            let e = *self.entry(self.tail);
            self.stats.squashed += 1;
            if e.stage == Stage::Dispatched {
                self.in_iq -= 1;
            }
            if let Some((kind, prev)) = e.prev_map {
                // A previous producer that has committed since reads as the
                // architectural register.
                let prev = prev.filter(|&p| p >= self.head);
                match kind {
                    DestKind::Int(r) => self.map_x[r.num() as usize] = prev,
                    DestKind::Fp(r) => self.map_f[r.num() as usize] = prev,
                    DestKind::None => {}
                }
            }
            if let Some(fi) = e.fp_index {
                min_fp = Some(min_fp.map_or(fi, |m: u64| m.min(fi)));
                // Ops already written back on the wrong path stay counted in
                // `fp_written_back_by_op` but never commit (microarchitectural
                // masking); entries squashed before writeback counted nothing.
                if e.stage == Stage::Done {
                    self.stats.fp_squashed += 1;
                }
            }
        }
        let keep = self.ready.partition_point(|&t| t <= branch);
        self.ready.truncate(keep);
        let keep = self.executing.partition_point(|&t| t <= branch);
        self.executing.truncate(keep);
        while self.stores.back().is_some_and(|&t| t > branch) {
            self.stores.pop_back();
        }
        if let Some(m) = min_fp {
            self.fp_dispatch_count = m;
        }
        self.fetch_pc = redirect;
        self.fetch_stalled = false;
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Issue ready entries, oldest first. Returns whether any issued.
    fn issue(&mut self) -> bool {
        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut mem_used = false;
        let mut fp_used = false;
        let mut i = 0;
        while i < self.ready.len() && issued < self.cfg.issue_width {
            let tag = self.ready[i];
            let instr = self.entry(tag).instr;
            // Structural hazards.
            let unit_free = if instr.is_mem() {
                !mem_used
            } else if is_fp_domain(&instr) {
                !fp_used && self.cycle >= self.fpu_busy_until
            } else if matches!(instr, Instr::Div { .. } | Instr::Rem { .. }) {
                self.cycle >= self.int_div_busy_until
            } else {
                alu_used < self.cfg.alu_units
            };
            let issuable = unit_free
                && !(is_load(&instr) && self.older_store_unexecuted(tag))
                && self.execute(tag);
            if !issuable {
                i += 1;
                continue;
            }
            self.ready.remove(i);
            self.in_iq -= 1;
            let at = self.executing.partition_point(|&t| t < tag);
            self.executing.insert(at, tag);
            issued += 1;
            match () {
                _ if instr.is_mem() => mem_used = true,
                _ if is_fp_domain(&instr) => {
                    fp_used = true;
                    if is_unpipelined_fp(&instr) {
                        self.fpu_busy_until = self.cycle + latency(&instr);
                    }
                }
                _ if matches!(instr, Instr::Div { .. } | Instr::Rem { .. }) => {
                    self.int_div_busy_until = self.cycle + latency(&instr);
                }
                _ => alu_used += 1,
            }
        }
        issued > 0
    }

    /// Loads wait until every older store has executed (knows its
    /// address).
    fn older_store_unexecuted(&self, load: Tag) -> bool {
        self.stores
            .iter()
            .take_while(|&&st| st < load)
            .any(|&st| !self.entry(st).store_ready)
    }

    fn src_val(s: Src) -> u64 {
        match s {
            Src::Ready(v) => v,
            Src::None => 0,
            Src::Rob(_) => unreachable!("issued with pending source"),
        }
    }

    /// Execute the instruction tagged `tag`; returns false if it must retry later
    /// (store-to-load aliasing without exact forwarding).
    fn execute(&mut self, tag: Tag) -> bool {
        use Instr::*;
        let e = self.entry(tag);
        let instr = e.instr;
        let a = Self::src_val(e.srcs[0]);
        let b = Self::src_val(e.srcs[1]);
        let xa = Self::src_val(e.xsrc);
        let pc = e.pc;
        let mut lat = latency(&instr);
        let mut exception = None;
        let value = match instr {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Slt { .. }
            | Sltu { .. }
            | Mul { .. }
            | Div { .. }
            | Rem { .. } => sem::int_op(&instr, a, b),
            Addi { imm, .. } | Slti { imm, .. } => sem::int_op(&instr, a, imm as i64 as u64),
            Andi { imm, .. } | Ori { imm, .. } | Xori { imm, .. } => {
                sem::int_op(&instr, a, imm as u16 as u64)
            }
            Slli { .. } | Srli { .. } | Srai { .. } => sem::int_op(&instr, a, 0),
            Movhi { .. } => sem::int_op(&instr, 0, 0),
            Ld { off, .. }
            | Lw { off, .. }
            | Lwu { off, .. }
            | Lb { off, .. }
            | Lbu { off, .. }
            | Fld { off, .. }
            | Flw { off, .. } => {
                let addr = a.wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&instr);
                match self.load_with_forwarding(tag, addr, w) {
                    LoadOutcome::Value(raw, extra) => {
                        lat += extra;
                        sem::extend_load(&instr, raw)
                    }
                    LoadOutcome::Retry => return false,
                    LoadOutcome::Fault(f) => {
                        exception = Some(f.into());
                        0
                    }
                }
            }
            Sd { off, .. }
            | Sw { off, .. }
            | Sb { off, .. }
            | Fsd { off, .. }
            | Fsw { off, .. } => {
                let addr = a.wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&instr);
                let e = self.entry_mut(tag);
                e.store_addr = addr;
                e.store_width = w;
                e.store_ready = true;
                b // store data travels in the value field
            }
            Beq { off, .. }
            | Bne { off, .. }
            | Blt { off, .. }
            | Bge { off, .. }
            | Bltu { off, .. }
            | Bgeu { off, .. } => {
                let taken = sem::branch_taken(&instr, a, b);
                let target = if taken {
                    pc.wrapping_add(off as i64 as usize)
                } else {
                    pc + 1
                };
                self.entry_mut(tag).actual_next = Some(target);
                0
            }
            Jal { off, .. } => {
                self.entry_mut(tag).actual_next = Some(pc.wrapping_add(off as i64 as usize));
                (pc + 1) as u64 // link value
            }
            Jalr { imm, .. } => {
                self.entry_mut(tag).actual_next = Some(a.wrapping_add(imm as i64 as u64) as usize);
                (pc + 1) as u64 // link value
            }
            Ecall | Halt => 0,
            _ if is_fp_domain(&instr) => {
                let out = sem::fp_op(self.fpu_cfg, &instr, a, b, xa);
                if out.trap {
                    exception = Some(Trap::FpException);
                }
                out.bits
            }
            other => panic!("execute: unhandled {other:?}"),
        };
        let done_at = self.cycle + lat;
        let e = self.entry_mut(tag);
        e.value = value;
        e.exception = exception;
        e.stage = Stage::Executing;
        e.done_at = done_at;
        true
    }

    fn load_with_forwarding(&mut self, tag: Tag, addr: u64, width: usize) -> LoadOutcome {
        // Youngest older store overlapping this load.
        for &st in self.stores.iter().rev().skip_while(|&&st| st > tag) {
            let e = self.entry(st);
            if !e.store_ready {
                continue;
            }
            let (sa, sw) = (e.store_addr, e.store_width);
            let overlap = addr < sa.wrapping_add(sw as u64) && sa < addr.wrapping_add(width as u64);
            if !overlap {
                continue;
            }
            if sa == addr && sw == width {
                // Exact store-to-load forwarding (a microarchitectural
                // masking channel the paper calls out).
                return LoadOutcome::Value(e.value & width_mask(width), 0);
            }
            // Partial overlap: wait until the store commits.
            return LoadOutcome::Retry;
        }
        match self.mem.load(addr, width) {
            Ok(v) => {
                let extra = if self.cache_lookup(addr) {
                    0
                } else {
                    self.stats.cache_misses += 1;
                    self.cache_fill(addr);
                    self.cfg.miss_latency - self.cfg.mem_latency
                };
                LoadOutcome::Value(v, extra)
            }
            Err(f) => LoadOutcome::Fault(f),
        }
    }

    fn cache_index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> 6;
        ((line as usize) % self.cfg.cache_lines, line)
    }

    fn cache_lookup(&self, addr: u64) -> bool {
        let (i, t) = self.cache_index_tag(addr);
        self.cache_tags[i] == Some(t)
    }

    fn cache_fill(&mut self, addr: u64) {
        let (i, t) = self.cache_index_tag(addr);
        self.cache_tags[i] = Some(t);
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch / rename
    // ------------------------------------------------------------------

    fn fetch_dispatch(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_stalled
                || self.tail - self.head >= self.cfg.rob_entries as u64
                || self.in_iq >= self.cfg.iq_entries
            {
                return;
            }
            let pc = self.fetch_pc;
            let Some(&instr) = self.text.get(pc) else {
                // Invalid PC becomes a trapping bubble that commits (or is
                // squashed if this fetch was down the wrong path).
                self.push_entry(pc, Instr::Halt, Some(Trap::BadPc(pc as u64)), None);
                self.fetch_stalled = true;
                return;
            };
            // Predict next PC.
            let slot = pc % self.cfg.bp_entries;
            let pred_next = match instr {
                Instr::Jal { off, .. } => pc.wrapping_add(off as i64 as usize),
                Instr::Jalr { .. } => {
                    let t = self.jalr_targets[slot];
                    if t == 0 {
                        pc + 1
                    } else {
                        t
                    }
                }
                ref i if i.is_control() => {
                    if self.bimodal[slot] >= 2 {
                        pc.wrapping_add(branch_offset(i) as usize)
                    } else {
                        pc + 1
                    }
                }
                _ => pc + 1,
            };
            let control = instr.is_control().then_some(pred_next);
            self.push_entry(pc, instr, None, control);
            if matches!(instr, Instr::Ecall | Instr::Halt) {
                self.fetch_stalled = true;
                return;
            }
            self.fetch_pc = pred_next;
            if instr.is_control() && pred_next != pc + 1 {
                // Taken-predicted control breaks the fetch group.
                return;
            }
        }
    }

    fn push_entry(
        &mut self,
        pc: usize,
        instr: Instr,
        exception: Option<Trap>,
        pred_next: Option<usize>,
    ) {
        let (srcs, xsrc) = self.rename_sources(&instr);
        let tag = self.tail;
        let mut pending = 0;
        for s in srcs.iter().chain(std::iter::once(&xsrc)) {
            if let Src::Rob(t) = *s {
                self.waiters[(t & self.rob_mask) as usize].push(tag);
                pending += 1;
            }
        }
        let dest = write_kind(&instr);
        let prev = match dest {
            DestKind::Int(r) => Some((dest, self.map_x[r.num() as usize])),
            DestKind::Fp(r) => Some((dest, self.map_f[r.num() as usize])),
            DestKind::None => None,
        };
        let fp_index = instr.fp_op().map(|_| {
            let i = self.fp_dispatch_count;
            self.fp_dispatch_count += 1;
            i
        });
        let done = exception.is_some() || matches!(instr, Instr::Ecall | Instr::Halt);
        let entry = RobEntry {
            pc,
            instr,
            stage: if done { Stage::Done } else { Stage::Dispatched },
            srcs,
            xsrc,
            value: 0,
            exception,
            pred_next,
            store_addr: 0,
            store_width: 0,
            store_ready: false,
            done_at: self.cycle,
            actual_next: None,
            fp_index,
            pending,
            prev_map: prev,
        };
        // Slots fill in tag order, so the ring grows to capacity on the
        // first pass and is overwritten in place afterwards.
        let slot = (tag & self.rob_mask) as usize;
        if slot < self.rob.len() {
            self.rob[slot] = entry;
            self.waiters[slot].clear();
        } else {
            self.rob.push(entry);
            self.waiters.push(Vec::new());
        }
        self.tail += 1;
        if !done {
            self.in_iq += 1;
            if pending == 0 {
                self.ready.push(tag);
            }
        }
        if is_store(&instr) {
            self.stores.push_back(tag);
        }
        match dest {
            DestKind::Int(r) if r != Reg::ZERO => self.map_x[r.num() as usize] = Some(tag),
            DestKind::Fp(r) => self.map_f[r.num() as usize] = Some(tag),
            _ => {}
        }
    }

    fn read_x(&self, r: Reg) -> Src {
        if r == Reg::ZERO {
            return Src::Ready(0);
        }
        match self.map_x[r.num() as usize] {
            None => Src::Ready(self.state.x(r)),
            Some(tag) => self.read_in_flight(tag),
        }
    }

    fn read_f(&self, r: FReg) -> Src {
        match self.map_f[r.num() as usize] {
            None => Src::Ready(self.state.f(r)),
            Some(tag) => self.read_in_flight(tag),
        }
    }

    /// A source renamed to an in-flight producer: its value once written
    /// back, its tag until then.
    fn read_in_flight(&self, tag: Tag) -> Src {
        let e = self.entry(tag);
        if e.stage == Stage::Done {
            Src::Ready(e.value)
        } else {
            Src::Rob(tag)
        }
    }

    fn rename_sources(&self, i: &Instr) -> ([Src; 2], Src) {
        use Instr::*;
        match *i {
            Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Rem { rs1, rs2, .. } => ([self.read_x(rs1), self.read_x(rs2)], Src::None),
            Addi { rs1, .. }
            | Andi { rs1, .. }
            | Ori { rs1, .. }
            | Xori { rs1, .. }
            | Slti { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. }
            | Jalr { rs1, .. } => ([self.read_x(rs1), Src::None], Src::None),
            Movhi { .. } | Jal { .. } | Ecall | Halt => ([Src::None, Src::None], Src::None),
            Ld { rs1, .. }
            | Lw { rs1, .. }
            | Lwu { rs1, .. }
            | Lb { rs1, .. }
            | Lbu { rs1, .. }
            | Fld { rs1, .. }
            | Flw { rs1, .. } => ([self.read_x(rs1), Src::None], Src::None),
            Sd { rs1, rs2, .. } | Sw { rs1, rs2, .. } | Sb { rs1, rs2, .. } => {
                ([self.read_x(rs1), self.read_x(rs2)], Src::None)
            }
            Fsd { rs1, fs, .. } | Fsw { rs1, fs, .. } => {
                ([self.read_x(rs1), self.read_f(fs)], Src::None)
            }
            Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. }
            | Bltu { rs1, rs2, .. }
            | Bgeu { rs1, rs2, .. } => ([self.read_x(rs1), self.read_x(rs2)], Src::None),
            FaddD { fs1, fs2, .. }
            | FsubD { fs1, fs2, .. }
            | FmulD { fs1, fs2, .. }
            | FdivD { fs1, fs2, .. }
            | FaddS { fs1, fs2, .. }
            | FsubS { fs1, fs2, .. }
            | FmulS { fs1, fs2, .. }
            | FdivS { fs1, fs2, .. }
            | FeqD { fs1, fs2, .. }
            | FltD { fs1, fs2, .. }
            | FleD { fs1, fs2, .. } => ([self.read_f(fs1), self.read_f(fs2)], Src::None),
            FcvtLD { fs1, .. }
            | FcvtWS { fs1, .. }
            | FmvD { fs1, .. }
            | FnegD { fs1, .. }
            | FabsD { fs1, .. }
            | FmvXD { fs1, .. } => ([self.read_f(fs1), Src::None], Src::None),
            FcvtDL { rs1, .. } | FcvtSW { rs1, .. } | FmvDX { rs1, .. } => {
                ([Src::None, Src::None], self.read_x(rs1))
            }
        }
    }
}

enum LoadOutcome {
    Value(u64, u64), // raw value, extra latency
    Retry,
    Fault(crate::mem::MemFault),
}

fn width_mask(w: usize) -> u64 {
    if w == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * w)) - 1
    }
}

fn is_store(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Sd { .. }
            | Instr::Sw { .. }
            | Instr::Sb { .. }
            | Instr::Fsd { .. }
            | Instr::Fsw { .. }
    )
}

fn is_load(i: &Instr) -> bool {
    i.is_mem() && !is_store(i)
}

fn branch_offset(i: &Instr) -> i64 {
    use Instr::*;
    match i {
        Beq { off, .. }
        | Bne { off, .. }
        | Blt { off, .. }
        | Bge { off, .. }
        | Bltu { off, .. }
        | Bgeu { off, .. } => *off as i64,
        _ => 0,
    }
}

/// Reconstruct the FP event operand pair from an executed ROB entry.
fn fp_event_operands(e: &RobEntry, i: &Instr) -> (u64, u64) {
    use Instr::*;
    let s0 = match e.srcs[0] {
        Src::Ready(v) => v,
        _ => 0,
    };
    let s1 = match e.srcs[1] {
        Src::Ready(v) => v,
        _ => 0,
    };
    let xa = match e.xsrc {
        Src::Ready(v) => v,
        _ => 0,
    };
    match i {
        FcvtDL { .. } | FcvtSW { .. } => (xa, 0),
        FcvtLD { .. } | FcvtWS { .. } => (s0, 0),
        FaddS { .. } | FsubS { .. } | FmulS { .. } | FdivS { .. } => {
            (s0 & 0xffff_ffff, s1 & 0xffff_ffff)
        }
        _ => (s0, s1),
    }
}
