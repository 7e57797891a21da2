//! Program builder: the API the benchmark kernels are written in.

use crate::instr::Instr;
use crate::program::{Program, Syscall, DATA_BASE};
use crate::reg::{FReg, Reg};

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Fix {
    Branch,
    Jal,
}

/// Builds a [`Program`] instruction by instruction, with labels, data
/// directives, and pseudo-instructions.
///
/// ```
/// use tei_isa::{ProgramBuilder, Reg};
///
/// let mut p = ProgramBuilder::new();
/// let done = p.label();
/// p.li(Reg::T0, 10);
/// let head = p.here();
/// p.addi(Reg::T1, Reg::T1, 1);
/// p.addi(Reg::T0, Reg::T0, -1);
/// p.bne(Reg::T0, Reg::ZERO, head);
/// p.bind(done);
/// p.halt();
/// let prog = p.finish();
/// assert!(prog.len() > 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    text: Vec<Instr>,
    data: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label, Fix)>,
}

impl ProgramBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.text.len());
    }

    /// A label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Current instruction index.
    pub fn pc(&self) -> usize {
        self.text.len()
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) {
        self.text.push(i);
    }

    /// Finalize: patch label references and return the program.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels or branch offsets that overflow their field.
    pub fn finish(self) -> Program {
        let ProgramBuilder {
            mut text,
            data,
            labels,
            fixups,
        } = self;
        for (at, label, kind) in fixups {
            let target = labels[label.0].expect("unbound label") as i64;
            let off = target - at as i64;
            match (&mut text[at], kind) {
                (Instr::Beq { off: o, .. }, Fix::Branch)
                | (Instr::Bne { off: o, .. }, Fix::Branch)
                | (Instr::Blt { off: o, .. }, Fix::Branch)
                | (Instr::Bge { off: o, .. }, Fix::Branch)
                | (Instr::Bltu { off: o, .. }, Fix::Branch)
                | (Instr::Bgeu { off: o, .. }, Fix::Branch) => {
                    *o = i16::try_from(off).expect("branch offset overflow");
                }
                (Instr::Jal { off: o, .. }, Fix::Jal) => {
                    *o = i32::try_from(off).expect("jump offset overflow");
                }
                other => panic!("fixup on non-branch {other:?}"),
            }
        }
        Program {
            text,
            data,
            entry: 0,
        }
    }

    // ---------------- data directives ----------------

    /// Align the data cursor to `n` bytes.
    pub fn align(&mut self, n: usize) {
        while !self.data.len().is_multiple_of(n) {
            self.data.push(0);
        }
    }

    /// Current data address.
    pub fn data_addr(&self) -> u64 {
        DATA_BASE + self.data.len() as u64
    }

    /// Append raw bytes; returns their address.
    pub fn bytes(&mut self, b: &[u8]) -> u64 {
        let addr = self.data_addr();
        self.data.extend_from_slice(b);
        addr
    }

    /// Append a 64-bit little-endian word; returns its address.
    pub fn dword(&mut self, x: u64) -> u64 {
        self.align(8);
        self.bytes(&x.to_le_bytes())
    }

    /// Append an `f64`; returns its address.
    pub fn double(&mut self, x: f64) -> u64 {
        self.dword(x.to_bits())
    }

    /// Append a slice of `f64`s; returns the base address.
    pub fn doubles(&mut self, xs: &[f64]) -> u64 {
        self.align(8);
        let addr = self.data_addr();
        for &x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        addr
    }

    /// Append a slice of `u64`s; returns the base address.
    pub fn dwords(&mut self, xs: &[u64]) -> u64 {
        self.align(8);
        let addr = self.data_addr();
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
        addr
    }

    /// Reserve `n` zero bytes; returns the base address.
    pub fn zeros(&mut self, n: usize) -> u64 {
        let addr = self.data_addr();
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    // ---------------- pseudo-instructions ----------------

    /// Load an arbitrary 64-bit immediate (1–6 instructions).
    pub fn li(&mut self, rd: Reg, imm: i64) {
        if let Ok(small) = i16::try_from(imm) {
            self.addi(rd, Reg::ZERO, small);
            return;
        }
        let u = imm as u64;
        if u <= u32::MAX as u64 {
            self.movhi(rd, (u >> 16) as u16);
            self.ori(rd, rd, (u & 0xffff) as u16 as i16);
            return;
        }
        self.movhi(rd, (u >> 48) as u16);
        self.ori(rd, rd, (u >> 32 & 0xffff) as u16 as i16);
        self.slli(rd, rd, 16);
        self.ori(rd, rd, (u >> 16 & 0xffff) as u16 as i16);
        self.slli(rd, rd, 16);
        self.ori(rd, rd, (u & 0xffff) as u16 as i16);
    }

    /// Load an address (alias of [`ProgramBuilder::li`]).
    pub fn la(&mut self, rd: Reg, addr: u64) {
        self.li(rd, addr as i64);
    }

    /// Load an `f64` constant into an FP register via `tmp`.
    pub fn fli(&mut self, fd: FReg, value: f64, tmp: Reg) {
        self.li(tmp, value.to_bits() as i64);
        self.push(Instr::FmvDX { fd, rs1: tmp });
    }

    /// Register move.
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// No-operation.
    pub fn nop(&mut self) {
        self.addi(Reg::ZERO, Reg::ZERO, 0);
    }

    /// Call a label (link in `ra`).
    pub fn call(&mut self, target: Label) {
        let at = self.text.len();
        self.push(Instr::Jal {
            rd: Reg::RA,
            off: 0,
        });
        self.fixups.push((at, target, Fix::Jal));
    }

    /// Return through `ra`.
    pub fn ret(&mut self) {
        self.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            imm: 0,
        });
    }

    /// Unconditional jump to a label.
    pub fn j(&mut self, target: Label) {
        let at = self.text.len();
        self.push(Instr::Jal {
            rd: Reg::ZERO,
            off: 0,
        });
        self.fixups.push((at, target, Fix::Jal));
    }

    /// Invoke environment service `s` (clobbers `a7`).
    pub fn syscall(&mut self, s: Syscall) {
        self.li(Reg::A7, s as i64);
        self.push(Instr::Ecall);
    }

    /// Exit with a constant code (clobbers `a0`, `a7`).
    pub fn exit(&mut self, code: i64) {
        self.li(Reg::A0, code);
        self.syscall(Syscall::Exit);
    }

    /// Stop the machine.
    pub fn halt(&mut self) {
        self.push(Instr::Halt);
    }
}

macro_rules! r_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rd, rs1, rs2`.")]
                pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
                    self.push(Instr::$variant { rd, rs1, rs2 });
                }
            )*
        }
    };
}

r_type! {
    add => Add, sub => Sub, and => And, or => Or, xor => Xor,
    sll => Sll, srl => Srl, sra => Sra, slt => Slt, sltu => Sltu,
    mul => Mul, div => Div, rem => Rem,
}

macro_rules! i_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rd, rs1, imm`.")]
                pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i16) {
                    self.push(Instr::$variant { rd, rs1, imm });
                }
            )*
        }
    };
}

i_type! {
    addi => Addi, andi => Andi, ori => Ori, xori => Xori, slti => Slti,
}

macro_rules! sh_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rd, rs1, shamt`.")]
                pub fn $name(&mut self, rd: Reg, rs1: Reg, shamt: u8) {
                    self.push(Instr::$variant { rd, rs1, shamt });
                }
            )*
        }
    };
}

sh_type! { slli => Slli, srli => Srli, srai => Srai }

macro_rules! load_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rd, off(rs1)`.")]
                pub fn $name(&mut self, rd: Reg, off: i16, rs1: Reg) {
                    self.push(Instr::$variant { rd, rs1, off });
                }
            )*
        }
    };
}

load_type! { ld => Ld, lw => Lw, lwu => Lwu, lb => Lb, lbu => Lbu }

macro_rules! store_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rs2, off(rs1)`.")]
                pub fn $name(&mut self, rs2: Reg, off: i16, rs1: Reg) {
                    self.push(Instr::$variant { rs2, rs1, off });
                }
            )*
        }
    };
}

store_type! { sd => Sd, sw => Sw, sb => Sb }

macro_rules! branch_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rs1, rs2, label`.")]
                pub fn $name(&mut self, rs1: Reg, rs2: Reg, target: Label) {
                    let at = self.text.len();
                    self.push(Instr::$variant { rs1, rs2, off: 0 });
                    self.fixups.push((at, target, Fix::Branch));
                }
            )*
        }
    };
}

branch_type! {
    beq => Beq, bne => Bne, blt => Blt, bge => Bge, bltu => Bltu, bgeu => Bgeu,
}

macro_rules! fp_r_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " fd, fs1, fs2`.")]
                pub fn $name(&mut self, fd: FReg, fs1: FReg, fs2: FReg) {
                    self.push(Instr::$variant { fd, fs1, fs2 });
                }
            )*
        }
    };
}

fp_r_type! {
    fadd_d => FaddD, fsub_d => FsubD, fmul_d => FmulD, fdiv_d => FdivD,
    fadd_s => FaddS, fsub_s => FsubS, fmul_s => FmulS, fdiv_s => FdivS,
}

macro_rules! fp_cmp_type {
    ($($name:ident => $variant:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                #[doc = concat!("Emit `", stringify!($name), " rd, fs1, fs2`.")]
                pub fn $name(&mut self, rd: Reg, fs1: FReg, fs2: FReg) {
                    self.push(Instr::$variant { rd, fs1, fs2 });
                }
            )*
        }
    };
}

fp_cmp_type! { feq_d => FeqD, flt_d => FltD, fle_d => FleD }

impl ProgramBuilder {
    /// Emit `movhi rd, imm` (`rd = imm << 16`).
    pub fn movhi(&mut self, rd: Reg, imm: u16) {
        self.push(Instr::Movhi { rd, imm });
    }

    /// Emit `fld fd, off(rs1)`.
    pub fn fld(&mut self, fd: FReg, off: i16, rs1: Reg) {
        self.push(Instr::Fld { fd, rs1, off });
    }

    /// Emit `flw fd, off(rs1)`.
    pub fn flw(&mut self, fd: FReg, off: i16, rs1: Reg) {
        self.push(Instr::Flw { fd, rs1, off });
    }

    /// Emit `fsd fs, off(rs1)`.
    pub fn fsd(&mut self, fs: FReg, off: i16, rs1: Reg) {
        self.push(Instr::Fsd { fs, rs1, off });
    }

    /// Emit `fsw fs, off(rs1)`.
    pub fn fsw(&mut self, fs: FReg, off: i16, rs1: Reg) {
        self.push(Instr::Fsw { fs, rs1, off });
    }

    /// Emit `fcvt.d.l fd, rs1` (signed i64 → f64).
    pub fn fcvt_d_l(&mut self, fd: FReg, rs1: Reg) {
        self.push(Instr::FcvtDL { fd, rs1 });
    }

    /// Emit `fcvt.l.d rd, fs1` (f64 → signed i64, truncating).
    pub fn fcvt_l_d(&mut self, rd: Reg, fs1: FReg) {
        self.push(Instr::FcvtLD { rd, fs1 });
    }

    /// Emit `fcvt.s.w fd, rs1` (signed i32 → f32).
    pub fn fcvt_s_w(&mut self, fd: FReg, rs1: Reg) {
        self.push(Instr::FcvtSW { fd, rs1 });
    }

    /// Emit `fcvt.w.s rd, fs1` (f32 → signed i32, truncating).
    pub fn fcvt_w_s(&mut self, rd: Reg, fs1: FReg) {
        self.push(Instr::FcvtWS { rd, fs1 });
    }

    /// Emit `fmv.d fd, fs1`.
    pub fn fmv_d(&mut self, fd: FReg, fs1: FReg) {
        self.push(Instr::FmvD { fd, fs1 });
    }

    /// Emit `fneg.d fd, fs1`.
    pub fn fneg_d(&mut self, fd: FReg, fs1: FReg) {
        self.push(Instr::FnegD { fd, fs1 });
    }

    /// Emit `fabs.d fd, fs1`.
    pub fn fabs_d(&mut self, fd: FReg, fs1: FReg) {
        self.push(Instr::FabsD { fd, fs1 });
    }

    /// Emit `fmv.x.d rd, fs1` (raw bits f→x).
    pub fn fmv_x_d(&mut self, rd: Reg, fs1: FReg) {
        self.push(Instr::FmvXD { rd, fs1 });
    }

    /// Emit `fmv.d.x fd, rs1` (raw bits x→f).
    pub fn fmv_d_x(&mut self, fd: FReg, rs1: Reg) {
        self.push(Instr::FmvDX { fd, rs1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_fixups_resolve_both_directions() {
        let mut p = ProgramBuilder::new();
        let fwd = p.label();
        let back = p.here(); // pc 0
        p.nop(); // 0 actually: here() binds before nop... pc of nop = 0
        p.beq(Reg::ZERO, Reg::ZERO, fwd); // pc 1
        p.bne(Reg::T0, Reg::T1, back); // pc 2
        p.bind(fwd); // pc 3
        p.halt();
        let prog = p.finish();
        match prog.text[1] {
            Instr::Beq { off, .. } => assert_eq!(off, 2, "forward to pc 3"),
            ref other => panic!("{other:?}"),
        }
        match prog.text[2] {
            Instr::Bne { off, .. } => assert_eq!(off, -2, "backward to pc 0"),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.label();
        p.j(l);
        p.finish();
    }

    #[test]
    fn data_directives_lay_out_correctly() {
        let mut p = ProgramBuilder::new();
        let a = p.bytes(&[1, 2, 3]);
        let b = p.dword(0xdead_beef);
        let c = p.double(1.5);
        assert_eq!(a, DATA_BASE);
        assert_eq!(b, DATA_BASE + 8, "aligned to 8");
        assert_eq!(c, b + 8);
        let prog = p.finish();
        assert_eq!(&prog.data[8..16], &0xdead_beefu64.to_le_bytes());
        assert_eq!(&prog.data[16..24], &1.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn li_picks_minimal_sequences() {
        let count = |imm: i64| {
            let mut p = ProgramBuilder::new();
            p.li(Reg::T0, imm);
            p.finish().len()
        };
        assert_eq!(count(7), 1);
        assert_eq!(count(-5), 1);
        assert_eq!(count(0x1234_5678), 2);
        assert_eq!(count(0x1234_5678_9abc_def0), 6);
        assert_eq!(count(-1), 1, "sign-extending addi covers -1");
        assert_eq!(count(i64::MIN), 6);
    }
}
