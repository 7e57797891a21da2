//! # tei-fpu
//!
//! Gate-level IEEE-754 FPU datapath generators with calibrated,
//! post-place-and-route-style timing.
//!
//! This crate substitutes the marocchino OpenRISC FPU netlist of the paper:
//! for each of the twelve modeled operations (add/sub/mul/div/I2F/F2I ×
//! single/double) it generates a complete combinational datapath out of
//! `tei-netlist` primitives — classification, alignment, mantissa
//! arithmetic, LZC normalization, round-to-nearest-even, and special-case
//! selection — organized into the six stage blocks of the paper's Figure 3.
//!
//! Every datapath is functionally bit-exact against `tei-softfloat` in
//! flush-to-zero mode (enforced by this crate's tests), and each netlist's
//! static critical path is calibrated to a published-corner target delay
//! ([`FpuTimingSpec`]), so dynamic timing analysis over these circuits
//! reproduces the paper's per-instruction criticality ordering.
//!
//! ## Example
//!
//! ```
//! use tei_fpu::{FpuTimingSpec, FpuUnit};
//! use tei_softfloat::{FpOp, FpOpKind, Precision};
//!
//! let spec = FpuTimingSpec::paper_calibrated();
//! let unit = FpuUnit::generate(FpOp::new(FpOpKind::Mul, Precision::Double), &spec);
//! let r = unit.eval_bits(2.5f64.to_bits(), 4.0f64.to_bits());
//! assert_eq!(f64::from_bits(r), 10.0);
//! ```

mod addsub;
mod common;
mod core_blocks;
mod cvt;
mod div;
mod mul;
mod unit;

pub use core_blocks::{whole_core, AGEN_TARGET, ALU_TARGET, BRANCH_TARGET, DECODE_TARGET};
pub use unit::{build_datapath, short_tag, FpuBank, FpuTimingSpec, FpuUnit};
