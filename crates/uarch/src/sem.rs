//! Pure per-instruction semantics, shared by the functional and the
//! out-of-order cores so the two can never disagree on values.

use tei_isa::{FReg, Instr, Reg};
use tei_softfloat::{apply_fast, apply_op, Flags, FpOp, FpuConfig};

/// Destination register class of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestKind {
    /// No register destination.
    None,
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Fp(FReg),
}

/// The destination register of `i`, if any (`x0` counts as none).
pub fn write_kind(i: &Instr) -> DestKind {
    use Instr::*;
    let d = match *i {
        Add { rd, .. }
        | Sub { rd, .. }
        | And { rd, .. }
        | Or { rd, .. }
        | Xor { rd, .. }
        | Sll { rd, .. }
        | Srl { rd, .. }
        | Sra { rd, .. }
        | Slt { rd, .. }
        | Sltu { rd, .. }
        | Mul { rd, .. }
        | Div { rd, .. }
        | Rem { rd, .. }
        | Addi { rd, .. }
        | Andi { rd, .. }
        | Ori { rd, .. }
        | Xori { rd, .. }
        | Slti { rd, .. }
        | Slli { rd, .. }
        | Srli { rd, .. }
        | Srai { rd, .. }
        | Movhi { rd, .. }
        | Ld { rd, .. }
        | Lw { rd, .. }
        | Lwu { rd, .. }
        | Lb { rd, .. }
        | Lbu { rd, .. }
        | Jal { rd, .. }
        | Jalr { rd, .. }
        | FcvtLD { rd, .. }
        | FcvtWS { rd, .. }
        | FmvXD { rd, .. }
        | FeqD { rd, .. }
        | FltD { rd, .. }
        | FleD { rd, .. } => DestKind::Int(rd),
        Fld { fd, .. }
        | Flw { fd, .. }
        | FaddD { fd, .. }
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
        | FmvDX { fd, .. } => DestKind::Fp(fd),
        Sd { .. }
        | Sw { .. }
        | Sb { .. }
        | Fsd { .. }
        | Fsw { .. }
        | Beq { .. }
        | Bne { .. }
        | Blt { .. }
        | Bge { .. }
        | Bltu { .. }
        | Bgeu { .. }
        | Ecall
        | Halt => DestKind::None,
    };
    match d {
        DestKind::Int(r) if r == Reg::ZERO => DestKind::None,
        other => other,
    }
}

/// An integer ALU operation: the semantics behind every integer
/// register-register and register-immediate instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Div,
    Rem,
}

/// Integer ALU semantics. `a` is `rs1`; `b` is `rs2`, the
/// already-extended immediate, or the shift amount.
#[inline(always)]
pub fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Mul => a.wrapping_mul(b),
        // RISC-V semantics: division by zero yields all-ones / dividend.
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
    }
}

/// `movhi`: the zero-extended immediate in bits 16..32.
#[inline(always)]
pub fn movhi(imm: u16) -> u64 {
    (imm as u64) << 16
}

/// Integer ALU semantics for register-register and immediate forms.
/// `a` is `rs1`; `b` is `rs2` or the already-extended immediate.
///
/// # Panics
///
/// Panics if called on a non-ALU instruction (programming error).
#[inline(always)]
pub fn int_op(i: &Instr, a: u64, b: u64) -> u64 {
    use Instr::*;
    let op = match *i {
        Add { .. } | Addi { .. } => AluOp::Add,
        Sub { .. } => AluOp::Sub,
        And { .. } | Andi { .. } => AluOp::And,
        Or { .. } | Ori { .. } => AluOp::Or,
        Xor { .. } | Xori { .. } => AluOp::Xor,
        Sll { .. } => AluOp::Sll,
        Srl { .. } => AluOp::Srl,
        Sra { .. } => AluOp::Sra,
        Slli { shamt, .. } => return alu(AluOp::Sll, a, shamt as u64),
        Srli { shamt, .. } => return alu(AluOp::Srl, a, shamt as u64),
        Srai { shamt, .. } => return alu(AluOp::Sra, a, shamt as u64),
        Slt { .. } | Slti { .. } => AluOp::Slt,
        Sltu { .. } => AluOp::Sltu,
        Mul { .. } => AluOp::Mul,
        Div { .. } => AluOp::Div,
        Rem { .. } => AluOp::Rem,
        Movhi { imm, .. } => return movhi(imm),
        other => panic!("int_op on non-ALU instruction {other:?}"),
    };
    alu(op, a, b)
}

/// A branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Branch condition semantics, given `rs1` and `rs2` values.
#[inline(always)]
pub fn cond(c: Cond, a: u64, b: u64) -> bool {
    match c {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => (a as i64) < (b as i64),
        Cond::Ge => (a as i64) >= (b as i64),
        Cond::Ltu => a < b,
        Cond::Geu => a >= b,
    }
}

/// Branch condition, given `rs1` and `rs2` values.
///
/// # Panics
///
/// Panics if called on a non-branch instruction.
#[inline(always)]
pub fn branch_taken(i: &Instr, a: u64, b: u64) -> bool {
    use Instr::*;
    let c = match i {
        Beq { .. } => Cond::Eq,
        Bne { .. } => Cond::Ne,
        Blt { .. } => Cond::Lt,
        Bge { .. } => Cond::Ge,
        Bltu { .. } => Cond::Ltu,
        Bgeu { .. } => Cond::Geu,
        other => panic!("branch_taken on {other:?}"),
    };
    cond(c, a, b)
}

/// Width in bytes and signedness of a load, or width of a store.
///
/// # Panics
///
/// Panics on non-memory instructions.
#[inline(always)]
pub fn mem_width(i: &Instr) -> (usize, bool) {
    use Instr::*;
    match i {
        Ld { .. } | Sd { .. } | Fld { .. } | Fsd { .. } => (8, false),
        Lw { .. } => (4, true),
        Lwu { .. } | Sw { .. } | Flw { .. } | Fsw { .. } => (4, false),
        Lb { .. } => (1, true),
        Lbu { .. } | Sb { .. } => (1, false),
        other => panic!("mem_width on {other:?}"),
    }
}

/// Sign- or zero-extend a `width`-byte loaded value.
#[inline(always)]
pub fn extend(raw: u64, width: usize, signed: bool) -> u64 {
    match (signed, width) {
        (true, 4) => raw as u32 as i32 as i64 as u64,
        (true, 1) => raw as u8 as i8 as i64 as u64,
        _ => raw,
    }
}

/// Sign/zero-extend a loaded value per the load instruction.
#[inline(always)]
pub fn extend_load(i: &Instr, raw: u64) -> u64 {
    let (w, signed) = mem_width(i);
    extend(raw, w, signed)
}

/// Result of a floating-point-domain instruction.
#[derive(Debug, Clone, Copy)]
pub struct FpOutcome {
    /// Raw result bits (destination register value).
    pub bits: u64,
    /// True if the operation raised invalid/div-by-zero (traps enabled).
    pub trap: bool,
}

/// One modeled FPU operation on raw operand bits: the result bits and
/// whether it raised invalid or div-by-zero (traps enabled).
///
/// The host FPU answers through [`apply_fast`] when its guard proves the
/// result bit-identical to softfloat; softfloat answers otherwise, out
/// of line, so a constant `op` folds the fast path into its caller.
#[inline(always)]
pub fn fp_modeled(cfg: FpuConfig, op: FpOp, a: u64, b: u64) -> (u64, bool) {
    match apply_fast(op, a, b) {
        Some(bits) => (bits, false),
        None => fp_softfloat(cfg, op, a, b),
    }
}

/// The softfloat path of [`fp_modeled`]: special operands, tiny or huge
/// results, and every trap.
#[cold]
#[inline(never)]
fn fp_softfloat(cfg: FpuConfig, op: FpOp, a: u64, b: u64) -> (u64, bool) {
    let mut flags = Flags::default();
    let bits = apply_op(op, a, b, cfg, &mut flags);
    (bits, flags.invalid || flags.div_by_zero)
}

const SIGN: u64 = 1 << 63;

/// `fneg.d`: flip the sign bit.
#[inline(always)]
pub fn fneg(a: u64) -> u64 {
    a ^ SIGN
}

/// `fabs.d`: clear the sign bit.
#[inline(always)]
pub fn fabs(a: u64) -> u64 {
    a & !SIGN
}

/// `feq.d` (quiet: NaN compares unequal and never traps).
#[inline(always)]
pub fn feq(a: u64, b: u64) -> u64 {
    (f64::from_bits(a) == f64::from_bits(b)) as u64
}

/// `flt.d` (false on NaN, no trap).
#[inline(always)]
pub fn flt(a: u64, b: u64) -> u64 {
    (f64::from_bits(a) < f64::from_bits(b)) as u64
}

/// `fle.d` (false on NaN, no trap).
#[inline(always)]
pub fn fle(a: u64, b: u64) -> u64 {
    (f64::from_bits(a) <= f64::from_bits(b)) as u64
}

/// Execute an FP-domain instruction (arithmetic, conversion, move,
/// compare). `fa`/`fb` are the FP source register bits; `xa` is the integer
/// source value (conversions and `fmv.d.x`). Modeled operations go
/// through [`fp_modeled`].
///
/// # Panics
///
/// Panics on non-FP instructions.
#[inline(always)]
pub fn fp_op(cfg: FpuConfig, i: &Instr, fa: u64, fb: u64, xa: u64) -> FpOutcome {
    use Instr::*;
    if let Some(op) = i.fp_op() {
        // Operand mapping: conversions take the integer or float operand
        // in `a`; binaries take (fa, fb). Single precision uses low bits.
        let (a, b) = match i {
            FcvtDL { .. } | FcvtSW { .. } => (xa, 0),
            FcvtLD { .. } | FcvtWS { .. } => (fa, 0),
            _ => (fa, fb),
        };
        let (bits, trap) = fp_modeled(cfg, op, a, b);
        return FpOutcome { bits, trap };
    }
    let bits = match i {
        FmvD { .. } | FmvXD { .. } => fa,
        FnegD { .. } => fneg(fa),
        FabsD { .. } => fabs(fa),
        FmvDX { .. } => xa,
        FeqD { .. } => feq(fa, fb),
        FltD { .. } => flt(fa, fb),
        FleD { .. } => fle(fa, fb),
        other => panic!("fp_op on {other:?}"),
    };
    FpOutcome { bits, trap: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_isa::{FReg, Reg};

    fn r3(f: fn(Reg, Reg, Reg) -> Instr) -> Instr {
        f(Reg::A0, Reg::A1, Reg::A2)
    }

    #[test]
    fn int_alu_semantics() {
        let add = r3(|rd, rs1, rs2| Instr::Add { rd, rs1, rs2 });
        assert_eq!(int_op(&add, 7, 9), 16);
        let sub = r3(|rd, rs1, rs2| Instr::Sub { rd, rs1, rs2 });
        assert_eq!(int_op(&sub, 3, 5) as i64, -2);
        let sra = r3(|rd, rs1, rs2| Instr::Sra { rd, rs1, rs2 });
        assert_eq!(int_op(&sra, (-8i64) as u64, 2) as i64, -2);
        let div = r3(|rd, rs1, rs2| Instr::Div { rd, rs1, rs2 });
        assert_eq!(int_op(&div, (-9i64) as u64, 2) as i64, -4);
        assert_eq!(int_op(&div, 5, 0), u64::MAX, "div by zero = all ones");
        let rem = r3(|rd, rs1, rs2| Instr::Rem { rd, rs1, rs2 });
        assert_eq!(int_op(&rem, 9, 0), 9, "rem by zero = dividend");
        let movhi = Instr::Movhi {
            rd: Reg::A0,
            imm: 0xabcd,
        };
        assert_eq!(int_op(&movhi, 0, 0), 0xabcd_0000);
    }

    #[test]
    fn branch_semantics() {
        let blt = Instr::Blt {
            rs1: Reg::A0,
            rs2: Reg::A1,
            off: 0,
        };
        assert!(branch_taken(&blt, (-1i64) as u64, 0));
        let bltu = Instr::Bltu {
            rs1: Reg::A0,
            rs2: Reg::A1,
            off: 0,
        };
        assert!(!branch_taken(&bltu, (-1i64) as u64, 0), "unsigned compare");
    }

    #[test]
    fn load_extension() {
        let lw = Instr::Lw {
            rd: Reg::A0,
            rs1: Reg::A1,
            off: 0,
        };
        assert_eq!(extend_load(&lw, 0x8000_0000) as i64, -(0x8000_0000i64));
        let lbu = Instr::Lbu {
            rd: Reg::A0,
            rs1: Reg::A1,
            off: 0,
        };
        assert_eq!(extend_load(&lbu, 0xff), 0xff);
    }

    #[test]
    fn fp_arith_and_traps() {
        let cfg = FpuConfig { ftz: true };
        let mul = Instr::FmulD {
            fd: FReg::F0,
            fs1: FReg::F1,
            fs2: FReg::F2,
        };
        let out = fp_op(cfg, &mul, 2.5f64.to_bits(), 4.0f64.to_bits(), 0);
        assert_eq!(f64::from_bits(out.bits), 10.0);
        assert!(!out.trap);
        // 0/0 raises invalid → trap.
        let div = Instr::FdivD {
            fd: FReg::F0,
            fs1: FReg::F1,
            fs2: FReg::F2,
        };
        let out = fp_op(cfg, &div, 0f64.to_bits(), 0f64.to_bits(), 0);
        assert!(out.trap);
        // Compares are unmodeled and never trap (quiet on NaN).
        let feq = Instr::FeqD {
            rd: Reg::A0,
            fs1: FReg::F1,
            fs2: FReg::F2,
        };
        let out = fp_op(cfg, &feq, f64::NAN.to_bits(), 1.0f64.to_bits(), 0);
        assert_eq!(out.bits, 0);
        assert!(!out.trap);
    }

    #[test]
    fn fp_moves_and_sign_ops() {
        let cfg = FpuConfig::default();
        let neg = Instr::FnegD {
            fd: FReg::F0,
            fs1: FReg::F1,
        };
        let out = fp_op(cfg, &neg, 3.0f64.to_bits(), 0, 0);
        assert_eq!(f64::from_bits(out.bits), -3.0);
        let abs = Instr::FabsD {
            fd: FReg::F0,
            fs1: FReg::F1,
        };
        let out = fp_op(cfg, &abs, (-3.0f64).to_bits(), 0, 0);
        assert_eq!(f64::from_bits(out.bits), 3.0);
        let mvdx = Instr::FmvDX {
            fd: FReg::F0,
            rs1: Reg::A0,
        };
        let out = fp_op(cfg, &mvdx, 0, 0, 0x1234);
        assert_eq!(out.bits, 0x1234);
    }
}
