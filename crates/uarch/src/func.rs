//! Fast functional (instruction-accurate) core.

use crate::arch::{ArchState, ExitReason, FpEvent, RunResult, Trap};
use crate::mem::Memory;
use crate::sem::{self, AluOp, Cond};
use tei_isa::{FReg, Instr, Program, Reg, Syscall, DEFAULT_MEM_BYTES};
use tei_softfloat::{FpOp, FpOpKind, FpuConfig, Precision};

/// Instruction-accurate simulator: executes the program at maximum speed
/// with no timing model. Used for golden runs, for the fast-forward
/// injection replay, and as the value oracle the detailed core is
/// cross-checked against.
#[derive(Debug)]
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
    /// back — identity for fault-free runs. Hot loops pass a closure and
    /// get a monomorphic step; `&mut dyn FnMut` works as well.
    ///
    /// Every opcode has its own arm, so widths, signedness, ALU
    /// operations and FPU operations are constants inside it.
    ///
    /// Returns `Ok(None)` to continue, `Ok(Some(exit))` on termination.
    ///
    /// # Errors
    ///
    /// Returns the trap on architectural exceptions.
    #[inline]
    pub fn step<F: FnMut(&FpEvent) -> u64 + ?Sized>(
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
            Add { rd, rs1, rs2 } => self.alu_rr(AluOp::Add, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => self.alu_rr(AluOp::Sub, rd, rs1, rs2),
            And { rd, rs1, rs2 } => self.alu_rr(AluOp::And, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => self.alu_rr(AluOp::Or, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => self.alu_rr(AluOp::Xor, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => self.alu_rr(AluOp::Sll, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => self.alu_rr(AluOp::Srl, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => self.alu_rr(AluOp::Sra, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => self.alu_rr(AluOp::Slt, rd, rs1, rs2),
            Sltu { rd, rs1, rs2 } => self.alu_rr(AluOp::Sltu, rd, rs1, rs2),
            Mul { rd, rs1, rs2 } => self.alu_rr(AluOp::Mul, rd, rs1, rs2),
            Div { rd, rs1, rs2 } => self.alu_rr(AluOp::Div, rd, rs1, rs2),
            Rem { rd, rs1, rs2 } => self.alu_rr(AluOp::Rem, rd, rs1, rs2),
            // Arithmetic immediates sign-extend; logical immediates are
            // zero-extended (OpenRISC convention).
            Addi { rd, rs1, imm } => self.alu_ri(AluOp::Add, rd, rs1, imm as i64 as u64),
            Slti { rd, rs1, imm } => self.alu_ri(AluOp::Slt, rd, rs1, imm as i64 as u64),
            Andi { rd, rs1, imm } => self.alu_ri(AluOp::And, rd, rs1, imm as u16 as u64),
            Ori { rd, rs1, imm } => self.alu_ri(AluOp::Or, rd, rs1, imm as u16 as u64),
            Xori { rd, rs1, imm } => self.alu_ri(AluOp::Xor, rd, rs1, imm as u16 as u64),
            Slli { rd, rs1, shamt } => self.alu_ri(AluOp::Sll, rd, rs1, shamt as u64),
            Srli { rd, rs1, shamt } => self.alu_ri(AluOp::Srl, rd, rs1, shamt as u64),
            Srai { rd, rs1, shamt } => self.alu_ri(AluOp::Sra, rd, rs1, shamt as u64),
            Movhi { rd, imm } => self.state.set_x(rd, sem::movhi(imm)),
            Ld { rd, rs1, off } => {
                let v = self.load::<8>(rs1, off, false)?;
                self.state.set_x(rd, v);
            }
            Lw { rd, rs1, off } => {
                let v = self.load::<4>(rs1, off, true)?;
                self.state.set_x(rd, v);
            }
            Lwu { rd, rs1, off } => {
                let v = self.load::<4>(rs1, off, false)?;
                self.state.set_x(rd, v);
            }
            Lb { rd, rs1, off } => {
                let v = self.load::<1>(rs1, off, true)?;
                self.state.set_x(rd, v);
            }
            Lbu { rd, rs1, off } => {
                let v = self.load::<1>(rs1, off, false)?;
                self.state.set_x(rd, v);
            }
            Sd { rs2, rs1, off } => self.store::<8>(rs1, off, self.state.x(rs2))?,
            Sw { rs2, rs1, off } => self.store::<4>(rs1, off, self.state.x(rs2))?,
            Sb { rs2, rs1, off } => self.store::<1>(rs1, off, self.state.x(rs2))?,
            Fld { fd, rs1, off } => {
                let v = self.load::<8>(rs1, off, false)?;
                self.state.set_f(fd, v);
            }
            Flw { fd, rs1, off } => {
                let v = self.load::<4>(rs1, off, false)?;
                self.state.set_f(fd, v);
            }
            Fsd { fs, rs1, off } => self.store::<8>(rs1, off, self.state.f(fs))?,
            Fsw { fs, rs1, off } => self.store::<4>(rs1, off, self.state.f(fs))?,
            Beq { rs1, rs2, off } => next = self.branch(Cond::Eq, rs1, rs2, pc, off),
            Bne { rs1, rs2, off } => next = self.branch(Cond::Ne, rs1, rs2, pc, off),
            Blt { rs1, rs2, off } => next = self.branch(Cond::Lt, rs1, rs2, pc, off),
            Bge { rs1, rs2, off } => next = self.branch(Cond::Ge, rs1, rs2, pc, off),
            Bltu { rs1, rs2, off } => next = self.branch(Cond::Ltu, rs1, rs2, pc, off),
            Bgeu { rs1, rs2, off } => next = self.branch(Cond::Geu, rs1, rs2, pc, off),
            Jal { rd, off } => {
                self.state.set_x(rd, (pc + 1) as u64);
                next = pc.wrapping_add(off as i64 as usize);
            }
            Jalr { rd, rs1, imm } => {
                let target = self.state.x(rs1).wrapping_add(imm as i64 as u64);
                self.state.set_x(rd, (pc + 1) as u64);
                next = target as usize;
            }
            FaddD { fd, fs1, fs2 } => self.fp_rr(ADD_D, fd, fs1, fs2, fp_hook)?,
            FsubD { fd, fs1, fs2 } => self.fp_rr(SUB_D, fd, fs1, fs2, fp_hook)?,
            FmulD { fd, fs1, fs2 } => self.fp_rr(MUL_D, fd, fs1, fs2, fp_hook)?,
            FdivD { fd, fs1, fs2 } => self.fp_rr(DIV_D, fd, fs1, fs2, fp_hook)?,
            FaddS { fd, fs1, fs2 } => self.fp_rr(ADD_S, fd, fs1, fs2, fp_hook)?,
            FsubS { fd, fs1, fs2 } => self.fp_rr(SUB_S, fd, fs1, fs2, fp_hook)?,
            FmulS { fd, fs1, fs2 } => self.fp_rr(MUL_S, fd, fs1, fs2, fp_hook)?,
            FdivS { fd, fs1, fs2 } => self.fp_rr(DIV_S, fd, fs1, fs2, fp_hook)?,
            FcvtDL { fd, rs1 } => {
                let v = self.fp_modeled(ITOF_D, self.state.x(rs1), 0, fp_hook)?;
                self.state.set_f(fd, v);
            }
            FcvtSW { fd, rs1 } => {
                let v = self.fp_modeled(ITOF_S, self.state.x(rs1), 0, fp_hook)?;
                self.state.set_f(fd, v);
            }
            FcvtLD { rd, fs1 } => {
                let v = self.fp_modeled(FTOI_D, self.state.f(fs1), 0, fp_hook)?;
                self.state.set_x(rd, v);
            }
            FcvtWS { rd, fs1 } => {
                let v = self.fp_modeled(FTOI_S, self.state.f(fs1) & LOW32, 0, fp_hook)?;
                self.state.set_x(rd, v);
            }
            FmvD { fd, fs1 } => self.state.set_f(fd, self.state.f(fs1)),
            FnegD { fd, fs1 } => self.state.set_f(fd, sem::fneg(self.state.f(fs1))),
            FabsD { fd, fs1 } => self.state.set_f(fd, sem::fabs(self.state.f(fs1))),
            FmvXD { rd, fs1 } => self.state.set_x(rd, self.state.f(fs1)),
            FmvDX { fd, rs1 } => self.state.set_f(fd, self.state.x(rs1)),
            FeqD { rd, fs1, fs2 } => {
                let v = sem::feq(self.state.f(fs1), self.state.f(fs2));
                self.state.set_x(rd, v);
            }
            FltD { rd, fs1, fs2 } => {
                let v = sem::flt(self.state.f(fs1), self.state.f(fs2));
                self.state.set_x(rd, v);
            }
            FleD { rd, fs1, fs2 } => {
                let v = sem::fle(self.state.f(fs1), self.state.f(fs2));
                self.state.set_x(rd, v);
            }
            Ecall => {
                if let Some(exit) = self.ecall()? {
                    return Ok(Some(exit));
                }
            }
            Halt => return Ok(Some(ExitReason::Halted)),
        }
        // Out-of-range targets (including falling off the end) trap at the
        // next fetch, keeping all control-transfer checks in one place.
        self.state.pc = next;
        Ok(None)
    }

    #[inline(always)]
    fn alu_rr(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu_ri(op, rd, rs1, self.state.x(rs2));
    }

    #[inline(always)]
    fn alu_ri(&mut self, op: AluOp, rd: Reg, rs1: Reg, b: u64) {
        let v = sem::alu(op, self.state.x(rs1), b);
        self.state.set_x(rd, v);
    }

    /// Load `W` bytes from `rs1 + off`, extended per `signed`.
    #[inline(always)]
    fn load<const W: usize>(&self, rs1: Reg, off: i16, signed: bool) -> Result<u64, Trap> {
        let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
        Ok(sem::extend(self.mem.load_n::<W>(addr)?, W, signed))
    }

    /// Store the low `W` bytes of `value` at `rs1 + off`.
    #[inline(always)]
    fn store<const W: usize>(&mut self, rs1: Reg, off: i16, value: u64) -> Result<(), Trap> {
        let addr = self.state.x(rs1).wrapping_add(off as i64 as u64);
        Ok(self.mem.store_n::<W>(addr, value)?)
    }

    /// The next PC of a conditional branch at `pc`.
    #[inline(always)]
    fn branch(&self, c: Cond, rs1: Reg, rs2: Reg, pc: usize, off: i16) -> usize {
        if sem::cond(c, self.state.x(rs1), self.state.x(rs2)) {
            pc.wrapping_add(off as i64 as usize)
        } else {
            pc + 1
        }
    }

    /// A two-source modeled FP operation; single precision reads the low
    /// 32 bits of each source.
    #[inline(always)]
    fn fp_rr<F: FnMut(&FpEvent) -> u64 + ?Sized>(
        &mut self,
        op: FpOp,
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
        fp_hook: &mut F,
    ) -> Result<(), Trap> {
        let mask = match op.precision {
            Precision::Single => LOW32,
            Precision::Double => u64::MAX,
        };
        let (a, b) = (self.state.f(fs1) & mask, self.state.f(fs2) & mask);
        let v = self.fp_modeled(op, a, b, fp_hook)?;
        self.state.set_f(fd, v);
        Ok(())
    }

    /// Execute a modeled FP operation and pass its result through
    /// `fp_hook`, returning the bits to write back.
    #[inline(always)]
    fn fp_modeled<F: FnMut(&FpEvent) -> u64 + ?Sized>(
        &mut self,
        op: FpOp,
        a: u64,
        b: u64,
        fp_hook: &mut F,
    ) -> Result<u64, Trap> {
        let (result, trap) = sem::fp_modeled(self.fpu_cfg, op, a, b);
        if trap {
            // A trapping operation never writes back, so it is neither
            // counted nor visible to the injector.
            return Err(Trap::FpException);
        }
        let ev = FpEvent {
            index: self.fp_ops,
            op,
            a,
            b,
            result,
        };
        self.fp_ops += 1;
        Ok(fp_hook(&ev))
    }

    /// The environment services; `Ok(None)` continues.
    #[inline(never)]
    fn ecall(&mut self) -> Result<Option<ExitReason>, Trap> {
        match Syscall::from_u64(self.state.x(Reg::A7)) {
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
                let bits = self.state.f(FReg::F10);
                self.output.extend_from_slice(&bits.to_le_bytes());
            }
            None => return Err(Trap::BadSyscall(self.state.x(Reg::A7))),
        }
        Ok(None)
    }

    /// Run until termination or `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> RunResult {
        self.run_with_hook(max_steps, &mut |ev: &FpEvent| ev.result)
    }

    /// Run with an FP writeback hook (injection / tracing); see
    /// [`FuncCore::step`].
    pub fn run_with_hook<F: FnMut(&FpEvent) -> u64 + ?Sized>(
        &mut self,
        max_steps: u64,
        fp_hook: &mut F,
    ) -> RunResult {
        let start = self.instructions;
        let exit = loop {
            if self.instructions - start >= max_steps {
                break ExitReason::Limit;
            }
            match self.step(fp_hook) {
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

/// Low-half mask: single-precision operands live in the low 32 bits.
const LOW32: u64 = 0xffff_ffff;

const ADD_D: FpOp = FpOp::new(FpOpKind::Add, Precision::Double);
const SUB_D: FpOp = FpOp::new(FpOpKind::Sub, Precision::Double);
const MUL_D: FpOp = FpOp::new(FpOpKind::Mul, Precision::Double);
const DIV_D: FpOp = FpOp::new(FpOpKind::Div, Precision::Double);
const ITOF_D: FpOp = FpOp::new(FpOpKind::ItoF, Precision::Double);
const FTOI_D: FpOp = FpOp::new(FpOpKind::FtoI, Precision::Double);
const ADD_S: FpOp = FpOp::new(FpOpKind::Add, Precision::Single);
const SUB_S: FpOp = FpOp::new(FpOpKind::Sub, Precision::Single);
const MUL_S: FpOp = FpOp::new(FpOpKind::Mul, Precision::Single);
const DIV_S: FpOp = FpOp::new(FpOpKind::Div, Precision::Single);
const ITOF_S: FpOp = FpOp::new(FpOpKind::ItoF, Precision::Single);
const FTOI_S: FpOp = FpOp::new(FpOpKind::FtoI, Precision::Single);

#[cfg(test)]
mod tests {
    use super::*;
    use tei_isa::ProgramBuilder;

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
