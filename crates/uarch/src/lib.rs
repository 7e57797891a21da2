//! # tei-uarch
//!
//! The microarchitecture substrate: a fast functional core and a detailed
//! cycle-level out-of-order core (the gem5 substitute) for the same ISA,
//! sharing one set of instruction semantics so they can never diverge.
//!
//! The detailed core exposes the paper's injection surface: a hook at every
//! FP-unit writeback (destination-register `ORd` values), per-operation
//! counts of FP writebacks and commits (their difference is the wrong-path,
//! squashed, writebacks), and precise Crash/Timeout detection.
//!
//! ## Example
//!
//! ```
//! use tei_isa::{ProgramBuilder, Reg, FReg};
//! use tei_uarch::{FuncCore, ExitReason};
//!
//! let mut p = ProgramBuilder::new();
//! p.fli(FReg::F1, 1.5, Reg::T0);
//! p.fadd_d(FReg::F2, FReg::F1, FReg::F1);
//! p.halt();
//! let prog = p.finish();
//! let mut core = FuncCore::with_memory(&prog, 1 << 16);
//! let r = core.run(100);
//! assert_eq!(r.exit, ExitReason::Halted);
//! assert_eq!(f64::from_bits(core.state.f(FReg::F2)), 3.0);
//! ```

mod arch;
mod func;
mod mem;
mod ooo;
mod sem;
mod snapshot;

pub use arch::{ArchState, ExitReason, FpEvent, RunResult, Trap};
pub use func::FuncCore;
pub use mem::{MemFault, Memory, PAGE_BYTES};
pub use ooo::{OooConfig, OooCore, OooStats};
pub use sem::{write_kind, DestKind};
pub use snapshot::{
    CheckpointPool, CheckpointRecorder, InjectedExit, InjectedRun, Snapshot, StaleCoreError,
};
