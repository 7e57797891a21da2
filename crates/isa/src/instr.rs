//! The instruction set.
//!
//! A RISC-style 64-bit ISA with exactly the twelve floating-point
//! arithmetic operations the paper models (add/sub/mul/div/I2F/F2I in
//! single and double precision), plus the integer, memory, and control
//! instructions the benchmark kernels need. Branch and jump offsets are in
//! units of instructions, relative to the branch itself.

use crate::reg::{FReg, Reg};
use serde::{Deserialize, Serialize};
use tei_softfloat::{FpOp, FpOpKind, Precision};

/// One architectural instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field meanings follow standard RISC conventions
pub enum Instr {
    // ---- integer register-register -------------------------------------
    Add {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    And {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Or {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Xor {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sll {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Srl {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sra {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Slt {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sltu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Div {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Rem {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    // ---- integer immediate ----------------------------------------------
    Addi {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    Andi {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    Ori {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    Xori {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    Slti {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    Slli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srai {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    /// `rd = zext(imm) << 16`.
    Movhi {
        rd: Reg,
        imm: u16,
    },

    // ---- memory -----------------------------------------------------------
    Ld {
        rd: Reg,
        rs1: Reg,
        off: i16,
    },
    Lw {
        rd: Reg,
        rs1: Reg,
        off: i16,
    },
    Lwu {
        rd: Reg,
        rs1: Reg,
        off: i16,
    },
    Lb {
        rd: Reg,
        rs1: Reg,
        off: i16,
    },
    Lbu {
        rd: Reg,
        rs1: Reg,
        off: i16,
    },
    Sd {
        rs2: Reg,
        rs1: Reg,
        off: i16,
    },
    Sw {
        rs2: Reg,
        rs1: Reg,
        off: i16,
    },
    Sb {
        rs2: Reg,
        rs1: Reg,
        off: i16,
    },
    Fld {
        fd: FReg,
        rs1: Reg,
        off: i16,
    },
    Flw {
        fd: FReg,
        rs1: Reg,
        off: i16,
    },
    Fsd {
        fs: FReg,
        rs1: Reg,
        off: i16,
    },
    Fsw {
        fs: FReg,
        rs1: Reg,
        off: i16,
    },

    // ---- control ----------------------------------------------------------
    Beq {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Bne {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Blt {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Bge {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Bltu {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Bgeu {
        rs1: Reg,
        rs2: Reg,
        off: i16,
    },
    Jal {
        rd: Reg,
        off: i32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },

    // ---- the twelve modeled FP operations ---------------------------------
    FaddD {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FsubD {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FmulD {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FdivD {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    /// `fd = (f64) rs1` (signed 64-bit integer to double).
    FcvtDL {
        fd: FReg,
        rs1: Reg,
    },
    /// `rd = (i64) fs1` (double to signed integer, truncating).
    FcvtLD {
        rd: Reg,
        fs1: FReg,
    },
    FaddS {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FsubS {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FmulS {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    FdivS {
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    /// `fd = (f32) rs1` (signed 32-bit integer to single).
    FcvtSW {
        fd: FReg,
        rs1: Reg,
    },
    /// `rd = (i32) fs1` (single to signed integer, truncating).
    FcvtWS {
        rd: Reg,
        fs1: FReg,
    },

    // ---- FP support ---------------------------------------------------------
    FmvD {
        fd: FReg,
        fs1: FReg,
    },
    FnegD {
        fd: FReg,
        fs1: FReg,
    },
    FabsD {
        fd: FReg,
        fs1: FReg,
    },
    /// Raw bit move f→x.
    FmvXD {
        rd: Reg,
        fs1: FReg,
    },
    /// Raw bit move x→f.
    FmvDX {
        fd: FReg,
        rs1: Reg,
    },
    FeqD {
        rd: Reg,
        fs1: FReg,
        fs2: FReg,
    },
    FltD {
        rd: Reg,
        fs1: FReg,
        fs2: FReg,
    },
    FleD {
        rd: Reg,
        fs1: FReg,
        fs2: FReg,
    },

    // ---- system -------------------------------------------------------------
    /// Environment call; `a7` selects the service (see `tei-uarch`).
    Ecall,
    /// Stop the machine.
    Halt,
}

impl Instr {
    /// If this instruction is one of the twelve modeled FPU operations,
    /// return it — the hook the timing-error injector keys on.
    #[inline(always)]
    pub fn fp_op(&self) -> Option<FpOp> {
        use FpOpKind::*;
        use Precision::*;
        Some(match self {
            Instr::FaddD { .. } => FpOp::new(Add, Double),
            Instr::FsubD { .. } => FpOp::new(Sub, Double),
            Instr::FmulD { .. } => FpOp::new(Mul, Double),
            Instr::FdivD { .. } => FpOp::new(Div, Double),
            Instr::FcvtDL { .. } => FpOp::new(ItoF, Double),
            Instr::FcvtLD { .. } => FpOp::new(FtoI, Double),
            Instr::FaddS { .. } => FpOp::new(Add, Single),
            Instr::FsubS { .. } => FpOp::new(Sub, Single),
            Instr::FmulS { .. } => FpOp::new(Mul, Single),
            Instr::FdivS { .. } => FpOp::new(Div, Single),
            Instr::FcvtSW { .. } => FpOp::new(ItoF, Single),
            Instr::FcvtWS { .. } => FpOp::new(FtoI, Single),
            _ => return None,
        })
    }

    /// True for conditional branches and jumps.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blt { .. }
                | Instr::Bge { .. }
                | Instr::Bltu { .. }
                | Instr::Bgeu { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
        )
    }

    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. }
                | Instr::Lw { .. }
                | Instr::Lwu { .. }
                | Instr::Lb { .. }
                | Instr::Lbu { .. }
                | Instr::Sd { .. }
                | Instr::Sw { .. }
                | Instr::Sb { .. }
                | Instr::Fld { .. }
                | Instr::Flw { .. }
                | Instr::Fsd { .. }
                | Instr::Fsw { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_op_mapping_covers_exactly_twelve() {
        let r = Reg::A0;
        let fr = FReg::new(1);
        let samples = [
            Instr::FaddD {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FsubD {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FmulD {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FdivD {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FcvtDL { fd: fr, rs1: r },
            Instr::FcvtLD { rd: r, fs1: fr },
            Instr::FaddS {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FsubS {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FmulS {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FdivS {
                fd: fr,
                fs1: fr,
                fs2: fr,
            },
            Instr::FcvtSW { fd: fr, rs1: r },
            Instr::FcvtWS { rd: r, fs1: fr },
        ];
        let mut seen = std::collections::BTreeSet::new();
        for s in samples {
            let op = s.fp_op().expect("modeled op");
            seen.insert(op.index());
        }
        assert_eq!(seen.len(), 12);
        // Support instructions are not modeled FPU operations.
        assert!(Instr::FmvD { fd: fr, fs1: fr }.fp_op().is_none());
        assert!(Instr::FeqD {
            rd: r,
            fs1: fr,
            fs2: fr
        }
        .fp_op()
        .is_none());
        assert!(Instr::Add {
            rd: r,
            rs1: r,
            rs2: r
        }
        .fp_op()
        .is_none());
    }

    #[test]
    fn classification_helpers() {
        let r = Reg::A0;
        assert!(Instr::Beq {
            rs1: r,
            rs2: r,
            off: 1
        }
        .is_control());
        assert!(Instr::Ld {
            rd: r,
            rs1: r,
            off: 0
        }
        .is_mem());
        assert!(!Instr::Add {
            rd: r,
            rs1: r,
            rs2: r
        }
        .is_control());
    }
}
