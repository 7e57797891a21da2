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

/// Integer ALU semantics for register-register and immediate forms.
/// `a` is `rs1`; `b` is `rs2` or the already-extended immediate.
///
/// # Panics
///
/// Panics if called on a non-ALU instruction (programming error).
#[inline(always)]
pub fn int_op(i: &Instr, a: u64, b: u64) -> u64 {
    use Instr::*;
    match i {
        Add { .. } | Addi { .. } => a.wrapping_add(b),
        Sub { .. } => a.wrapping_sub(b),
        And { .. } | Andi { .. } => a & b,
        Or { .. } | Ori { .. } => a | b,
        Xor { .. } | Xori { .. } => a ^ b,
        Sll { .. } => a.wrapping_shl((b & 63) as u32),
        Srl { .. } => a.wrapping_shr((b & 63) as u32),
        Sra { .. } => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        Slli { shamt, .. } => a.wrapping_shl(*shamt as u32),
        Srli { shamt, .. } => a.wrapping_shr(*shamt as u32),
        Srai { shamt, .. } => ((a as i64).wrapping_shr(*shamt as u32)) as u64,
        Slt { .. } | Slti { .. } => ((a as i64) < (b as i64)) as u64,
        Sltu { .. } => (a < b) as u64,
        Mul { .. } => a.wrapping_mul(b),
        // RISC-V semantics: division by zero yields all-ones / dividend.
        Div { .. } => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        Rem { .. } => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        Movhi { imm, .. } => (*imm as u64) << 16,
        other => panic!("int_op on non-ALU instruction {other}"),
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
    match i {
        Beq { .. } => a == b,
        Bne { .. } => a != b,
        Blt { .. } => (a as i64) < (b as i64),
        Bge { .. } => (a as i64) >= (b as i64),
        Bltu { .. } => a < b,
        Bgeu { .. } => a >= b,
        other => panic!("branch_taken on {other}"),
    }
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
        other => panic!("mem_width on {other}"),
    }
}

/// Sign/zero-extend a loaded value per the load instruction.
#[inline(always)]
pub fn extend_load(i: &Instr, raw: u64) -> u64 {
    let (w, signed) = mem_width(i);
    if !signed {
        return raw;
    }
    match w {
        4 => raw as u32 as i32 as i64 as u64,
        1 => raw as u8 as i8 as i64 as u64,
        _ => raw,
    }
}

/// Result of a floating-point-domain instruction.
#[derive(Debug, Clone, Copy)]
pub struct FpOutcome {
    /// Raw result bits (destination register value).
    pub bits: u64,
    /// The modeled FPU operation, if this was one of the twelve.
    pub modeled: Option<FpOp>,
    /// Raw operand bits as seen by the FPU (`a`, `b`).
    pub operands: (u64, u64),
    /// True if the operation raised invalid/div-by-zero (traps enabled).
    pub trap: bool,
}

/// Execute an FP-domain instruction (arithmetic, conversion, move,
/// compare). `fa`/`fb` are the FP source register bits; `xa` is the integer
/// source value (conversions and `fmv.d.x`).
///
/// Modeled operations take the host FPU through [`apply_fast`] when its
/// guard proves the result bit-identical to softfloat, and softfloat
/// otherwise.
///
/// # Panics
///
/// Panics on non-FP instructions.
#[inline(always)]
pub fn fp_op(cfg: FpuConfig, i: &Instr, fa: u64, fb: u64, xa: u64) -> FpOutcome {
    use Instr::*;
    let modeled = i.fp_op();
    if let Some(op) = modeled {
        // Operand mapping: conversions take the integer or float operand
        // in `a`; binaries take (fa, fb). Single precision uses low bits.
        let (a, b) = match i {
            FcvtDL { .. } | FcvtSW { .. } => (xa, 0),
            FcvtLD { .. } | FcvtWS { .. } => (fa, 0),
            _ => (fa, fb),
        };
        let (bits, trap) = match apply_fast(op, a, b) {
            Some(bits) => (bits, false),
            None => {
                let mut flags = Flags::default();
                let bits = apply_op(op, a, b, cfg, &mut flags);
                (bits, flags.invalid || flags.div_by_zero)
            }
        };
        return FpOutcome {
            bits,
            modeled,
            operands: (a, b),
            trap,
        };
    }
    let bits = match i {
        FmvD { .. } => fa,
        FnegD { .. } => fa ^ (1u64 << 63),
        FabsD { .. } => fa & !(1u64 << 63),
        FmvXD { .. } => fa,
        FmvDX { .. } => xa,
        FeqD { .. } => (f64::from_bits(fa) == f64::from_bits(fb)) as u64,
        FltD { .. } => (f64::from_bits(fa) < f64::from_bits(fb)) as u64,
        FleD { .. } => (f64::from_bits(fa) <= f64::from_bits(fb)) as u64,
        other => panic!("fp_op on {other}"),
    };
    FpOutcome {
        bits,
        modeled: None,
        operands: (fa, fb),
        trap: false,
    }
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
        assert!(out.modeled.is_some());
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
        assert!(out.modeled.is_none());
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
