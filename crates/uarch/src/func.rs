//! Fast functional (instruction-accurate) core.

use crate::arch::{ArchState, ExitReason, FpEvent, RunResult, Trap};
use crate::mem::Memory;
use crate::sem;
use tei_isa::{Instr, Program, Reg, Syscall, DEFAULT_MEM_BYTES};
use tei_softfloat::FpuConfig;

/// Instruction-accurate simulator: executes the program at maximum speed
/// with no timing model. Used for golden runs, for the fast-forward
/// injection replay, and as the value oracle the detailed core is
/// cross-checked against.
#[derive(Debug, Clone)]
pub struct FuncCore {
    /// Architectural registers and PC.
    pub state: ArchState,
    /// Data memory.
    pub mem: Memory,
    /// Bytes emitted through the output services.
    pub output: Vec<u8>,
    text: Vec<Instr>,
    fpu_cfg: FpuConfig,
    pub(crate) instructions: u64,
    pub(crate) fp_ops: u64,
}

impl FuncCore {
    /// Build a core with the default memory size.
    pub fn new(program: &Program) -> Self {
        Self::with_memory(program, DEFAULT_MEM_BYTES as usize)
    }

    /// Build a core with an explicit data-memory size.
    pub fn with_memory(program: &Program, mem_bytes: usize) -> Self {
        let stack_top = (tei_isa::DATA_BASE as usize + mem_bytes - 16) as u64;
        FuncCore {
            state: ArchState::new(program.entry, stack_top),
            mem: Memory::with_image(mem_bytes, &program.data),
            output: Vec::new(),
            text: program.text.clone(),
            // Flush-to-zero matches the modeled gate-level FPU.
            fpu_cfg: FpuConfig { ftz: true },
            instructions: 0,
            fp_ops: 0,
        }
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic FP operations retired so far.
    pub fn fp_ops(&self) -> u64 {
        self.fp_ops
    }

    /// Execute one instruction. `fp_hook` observes every modeled FP
    /// operation and returns the (possibly corrupted) result bits to write
    /// back — identity for fault-free runs.
    ///
    /// Returns `Ok(None)` to continue, `Ok(Some(exit))` on termination.
    ///
    /// # Errors
    ///
    /// Returns the trap on architectural exceptions.
    pub fn step(
        &mut self,
        fp_hook: &mut dyn FnMut(&FpEvent) -> u64,
    ) -> Result<Option<ExitReason>, Trap> {
        self.step_with(fp_hook)
    }

    /// Monomorphic variant of [`FuncCore::step`]: hot loops (golden
    /// fast-forward, checkpoint replay) instantiate it with an inline
    /// closure, eliminating the per-FP-event dynamic dispatch.
    #[inline]
    pub(crate) fn step_with<F: FnMut(&FpEvent) -> u64 + ?Sized>(
        &mut self,
        fp_hook: &mut F,
    ) -> Result<Option<ExitReason>, Trap> {
        use Instr::*;
        let pc = self.state.pc;
        let Some(&i) = self.text.get(pc) else {
            return Err(Trap::BadPc(pc as u64));
        };
        self.instructions += 1;
        let mut next = pc + 1;
        match i {
            Add { rd, rs1, rs2 }
            | Sub { rd, rs1, rs2 }
            | And { rd, rs1, rs2 }
            | Or { rd, rs1, rs2 }
            | Xor { rd, rs1, rs2 }
            | Sll { rd, rs1, rs2 }
            | Srl { rd, rs1, rs2 }
            | Sra { rd, rs1, rs2 }
            | Slt { rd, rs1, rs2 }
            | Sltu { rd, rs1, rs2 }
            | Mul { rd, rs1, rs2 }
            | Div { rd, rs1, rs2 }
            | Rem { rd, rs1, rs2 } => {
                let v = sem::int_op(&i, self.state.x(rs1), self.state.x(rs2));
                self.state.set_x(rd, v);
            }
            Addi { rd, rs1, imm }
            | Andi { rd, rs1, imm }
            | Ori { rd, rs1, imm }
            | Xori { rd, rs1, imm }
            | Slti { rd, rs1, imm } => {
                let b = match i {
                    // Logical immediates are zero-extended; arithmetic
                    // immediates sign-extend (OpenRISC convention).
                    Andi { .. } | Ori { .. } | Xori { .. } => imm as u16 as u64,
                    _ => imm as i64 as u64,
                };
                let v = sem::int_op(&i, self.state.x(rs1), b);
                self.state.set_x(rd, v);
            }
            Slli { rd, rs1, .. } | Srli { rd, rs1, .. } | Srai { rd, rs1, .. } => {
                let v = sem::int_op(&i, self.state.x(rs1), 0);
                self.state.set_x(rd, v);
            }
            Movhi { rd, .. } => {
                let v = sem::int_op(&i, 0, 0);
                self.state.set_x(rd, v);
            }
            Ld { rd, rs1, off }
            | Lw { rd, rs1, off }
            | Lwu { rd, rs1, off }
            | Lb { rd, rs1, off }
            | Lbu { rd, rs1, off } => {
                let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&i);
                let raw = self.mem.load(addr, w)?;
                self.state.set_x(rd, sem::extend_load(&i, raw));
            }
            Sd { rs2, rs1, off } | Sw { rs2, rs1, off } | Sb { rs2, rs1, off } => {
                let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&i);
                self.mem.store(addr, w, self.state.x(rs2))?;
            }
            Fld { fd, rs1, off } | Flw { fd, rs1, off } => {
                let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&i);
                let raw = self.mem.load(addr, w)?;
                self.state.set_f(fd, raw);
            }
            Fsd { fs, rs1, off } | Fsw { fs, rs1, off } => {
                let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&i);
                self.mem.store(addr, w, self.state.f(fs))?;
            }
            Beq { rs1, rs2, off }
            | Bne { rs1, rs2, off }
            | Blt { rs1, rs2, off }
            | Bge { rs1, rs2, off }
            | Bltu { rs1, rs2, off }
            | Bgeu { rs1, rs2, off } => {
                if sem::branch_taken(&i, self.state.x(rs1), self.state.x(rs2)) {
                    next = pc.wrapping_add(off as i64 as usize);
                }
            }
            Jal { rd, off } => {
                self.state.set_x(rd, (pc + 1) as u64);
                next = pc.wrapping_add(off as i64 as usize);
            }
            Jalr { rd, rs1, imm } => {
                let target = self.state.x(rs1).wrapping_add(imm as i64 as u64);
                self.state.set_x(rd, (pc + 1) as u64);
                next = target as usize;
            }
            FaddD { .. }
            | FsubD { .. }
            | FmulD { .. }
            | FdivD { .. }
            | FaddS { .. }
            | FsubS { .. }
            | FmulS { .. }
            | FdivS { .. }
            | FcvtDL { .. }
            | FcvtSW { .. }
            | FcvtLD { .. }
            | FcvtWS { .. }
            | FmvD { .. }
            | FnegD { .. }
            | FabsD { .. }
            | FmvXD { .. }
            | FmvDX { .. }
            | FeqD { .. }
            | FltD { .. }
            | FleD { .. } => {
                let (fa, fb, xa) = fp_sources(&self.state, &i);
                let out = sem::fp_op(self.fpu_cfg, &i, fa, fb, xa);
                if out.trap {
                    // A trapping operation never writes back, so it is
                    // neither counted nor visible to the injector.
                    return Err(Trap::FpException);
                }
                let mut bits = out.bits;
                if let Some(op) = out.modeled {
                    let ev = FpEvent {
                        index: self.fp_ops,
                        op,
                        a: out.operands.0,
                        b: out.operands.1,
                        result: bits,
                    };
                    self.fp_ops += 1;
                    bits = fp_hook(&ev);
                }
                write_fp_dest(&mut self.state, &i, bits);
            }
            Ecall => match Syscall::from_u64(self.state.x(Reg::A7)) {
                Some(Syscall::Exit) => {
                    return Ok(Some(ExitReason::Exited(self.state.x(Reg::A0) as i64)))
                }
                Some(Syscall::PutByte) => {
                    self.output.push(self.state.x(Reg::A0) as u8);
                }
                Some(Syscall::PutInt) => {
                    let v = self.state.x(Reg::A0) as i64;
                    self.output.extend_from_slice(v.to_string().as_bytes());
                }
                Some(Syscall::PutF64) => {
                    let bits = self.state.f(tei_isa::FReg::F10);
                    self.output.extend_from_slice(&bits.to_le_bytes());
                }
                None => return Err(Trap::BadSyscall(self.state.x(Reg::A7))),
            },
            Halt => return Ok(Some(ExitReason::Halted)),
        }
        // Out-of-range targets (including falling off the end) trap at the
        // next fetch, keeping all control-transfer checks in one place.
        self.state.pc = next;
        Ok(None)
    }

    /// Run until termination or `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> RunResult {
        self.run_with_hook(max_steps, &mut |ev: &FpEvent| ev.result)
    }

    /// Run with an FP writeback hook (injection / tracing).
    pub fn run_with_hook(
        &mut self,
        max_steps: u64,
        fp_hook: &mut dyn FnMut(&FpEvent) -> u64,
    ) -> RunResult {
        let start = self.instructions;
        let exit = loop {
            if self.instructions - start >= max_steps {
                break ExitReason::Limit;
            }
            match self.step_with(fp_hook) {
                Ok(None) => {}
                Ok(Some(exit)) => break exit,
                Err(trap) => break ExitReason::Trapped(trap),
            }
        };
        RunResult {
            exit,
            instructions: self.instructions,
            fp_ops: self.fp_ops,
        }
    }
}

/// FP source register bits + integer source for an FP-domain instruction.
#[inline(always)]
pub(crate) fn fp_sources(state: &ArchState, i: &Instr) -> (u64, u64, u64) {
    use Instr::*;
    match *i {
        FaddD { fs1, fs2, .. }
        | FsubD { fs1, fs2, .. }
        | FmulD { fs1, fs2, .. }
        | FdivD { fs1, fs2, .. }
        | FeqD { fs1, fs2, .. }
        | FltD { fs1, fs2, .. }
        | FleD { fs1, fs2, .. } => (state.f(fs1), state.f(fs2), 0),
        FaddS { fs1, fs2, .. }
        | FsubS { fs1, fs2, .. }
        | FmulS { fs1, fs2, .. }
        | FdivS { fs1, fs2, .. } => (state.f(fs1) & 0xffff_ffff, state.f(fs2) & 0xffff_ffff, 0),
        FcvtLD { fs1, .. }
        | FmvD { fs1, .. }
        | FnegD { fs1, .. }
        | FabsD { fs1, .. }
        | FmvXD { fs1, .. } => (state.f(fs1), 0, 0),
        FcvtWS { fs1, .. } => (state.f(fs1) & 0xffff_ffff, 0, 0),
        FcvtDL { rs1, .. } | FcvtSW { rs1, .. } | FmvDX { rs1, .. } => (0, 0, state.x(rs1)),
        ref other => panic!("fp_sources on {other}"),
    }
}

/// Write an FP-domain instruction's result to its destination register.
#[inline(always)]
pub(crate) fn write_fp_dest(state: &mut ArchState, i: &Instr, bits: u64) {
    use Instr::*;
    match *i {
        FaddD { fd, .. }
        | FsubD { fd, .. }
        | FmulD { fd, .. }
        | FdivD { fd, .. }
        | FaddS { fd, .. }
        | FsubS { fd, .. }
        | FmulS { fd, .. }
        | FdivS { fd, .. }
        | FcvtDL { fd, .. }
        | FcvtSW { fd, .. }
        | FmvD { fd, .. }
        | FnegD { fd, .. }
        | FabsD { fd, .. }
        | FmvDX { fd, .. } => state.set_f(fd, bits),
        FcvtLD { rd, .. }
        | FcvtWS { rd, .. }
        | FmvXD { rd, .. }
        | FeqD { rd, .. }
        | FltD { rd, .. }
        | FleD { rd, .. } => state.set_x(rd, bits),
        ref other => panic!("write_fp_dest on {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_isa::{FReg, ProgramBuilder};

    #[test]
    fn computes_a_sum_loop() {
        let mut p = ProgramBuilder::new();
        // sum 1..=10 in t1
        p.li(Reg::T0, 10);
        p.li(Reg::T1, 0);
        let head = p.here();
        p.add(Reg::T1, Reg::T1, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, head);
        p.mv(Reg::A0, Reg::T1);
        p.syscall(Syscall::Exit);
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(10_000);
        assert_eq!(r.exit, ExitReason::Exited(55));
    }

    #[test]
    fn fp_kernel_and_hook_fire() {
        let mut p = ProgramBuilder::new();
        p.fli(FReg::F1, 1.5, Reg::T0);
        p.fli(FReg::F2, 2.0, Reg::T0);
        p.fmul_d(FReg::F3, FReg::F1, FReg::F2);
        p.fadd_d(FReg::F3, FReg::F3, FReg::F2);
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let mut events = Vec::new();
        let r = core.run_with_hook(1000, &mut |ev| {
            events.push(*ev);
            ev.result
        });
        assert_eq!(r.exit, ExitReason::Halted);
        assert_eq!(events.len(), 2);
        assert_eq!(f64::from_bits(core.state.f(FReg::F3)), 5.0);
        assert_eq!(r.fp_ops, 2);
    }

    #[test]
    fn injection_corrupts_destination() {
        let mut p = ProgramBuilder::new();
        p.fli(FReg::F1, 1.0, Reg::T0);
        p.fmul_d(FReg::F2, FReg::F1, FReg::F1);
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        core.run_with_hook(1000, &mut |ev| ev.result ^ (1 << 52));
        assert_ne!(f64::from_bits(core.state.f(FReg::F2)), 1.0);
    }

    #[test]
    fn memory_and_output() {
        let mut p = ProgramBuilder::new();
        let addr = p.doubles(&[2.5, -1.25]);
        p.la(Reg::S0, addr);
        p.fld(FReg::F1, 0, Reg::S0);
        p.fld(FReg::F2, 8, Reg::S0);
        p.fadd_d(FReg::F10, FReg::F1, FReg::F2);
        p.syscall(Syscall::PutF64);
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(1000);
        assert_eq!(r.exit, ExitReason::Halted);
        assert_eq!(core.output, 1.25f64.to_bits().to_le_bytes());
    }

    #[test]
    fn wild_store_traps() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 0x10);
        p.sd(Reg::T0, 0, Reg::T0);
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(100);
        assert!(matches!(
            r.exit,
            ExitReason::Trapped(Trap::Mem { store: true, .. })
        ));
    }

    #[test]
    fn bad_jump_traps() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 99_999_999);
        p.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::T0,
            imm: 0,
        });
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(100);
        assert!(matches!(r.exit, ExitReason::Trapped(Trap::BadPc(_))));
    }

    #[test]
    fn step_limit_reports_timeout() {
        let mut p = ProgramBuilder::new();
        let head = p.here();
        p.j(head); // infinite loop
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(500);
        assert_eq!(r.exit, ExitReason::Limit);
        assert_eq!(r.instructions, 500);
    }

    #[test]
    fn fp_exception_traps() {
        let mut p = ProgramBuilder::new();
        p.fli(FReg::F1, 0.0, Reg::T0);
        p.fdiv_d(FReg::F2, FReg::F1, FReg::F1); // 0/0 invalid
        p.halt();
        let prog = p.finish();
        let mut core = FuncCore::with_memory(&prog, 1 << 16);
        let r = core.run(100);
        assert_eq!(r.exit, ExitReason::Trapped(Trap::FpException));
    }
}
