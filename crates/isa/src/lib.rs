//! # tei-isa
//!
//! The instruction set of the simulated core: a RISC-style 64-bit ISA
//! carrying exactly the twelve floating-point operations the paper models,
//! and the programmatic builder API the benchmark kernels are written in.
//! Programs exist only as [`Instr`] values: the cores fetch them by index,
//! so there is no binary encoding and no text syntax.
//!
//! ## Example
//!
//! ```
//! use tei_isa::{Instr, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::A0, 42);
//! b.halt();
//! let p = b.finish();
//! assert_eq!(p.len(), 2);
//! assert_eq!(p.text[1], Instr::Halt);
//! ```

mod builder;
mod instr;
mod program;
mod reg;

pub use builder::{Label, ProgramBuilder};
pub use instr::Instr;
pub use program::{Program, Syscall, DATA_BASE, DEFAULT_MEM_BYTES, STACK_TOP};
pub use reg::{FReg, Reg};
