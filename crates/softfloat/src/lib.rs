//! # tei-softfloat
//!
//! Bit-accurate software IEEE-754 floating point: the golden reference the
//! gate-level FPU datapaths of `tei-fpu` are verified against, and the
//! arithmetic the `tei-uarch` simulator executes.
//!
//! Supports the twelve operations modeled in the paper — addition,
//! subtraction, multiplication, division, integer→float and float→integer
//! conversion, each in single and double precision — with round-to-nearest-
//! even, IEEE exception flags, and an optional flush-to-zero mode matching
//! the gate-level multiplier/divider datapaths.
//!
//! ## Example
//!
//! ```
//! use tei_softfloat::{Fpu, FpOp, FpOpKind, Precision};
//!
//! let mut fpu = Fpu::new();
//! let a = 1.5f64.to_bits();
//! let b = 2.25f64.to_bits();
//! let sum = fpu.apply(FpOp::new(FpOpKind::Add, Precision::Double), a, b);
//! assert_eq!(f64::from_bits(sum), 3.75);
//! assert!(!fpu.flags.inexact);
//! ```

mod arith;
mod convert;
mod ops;

pub use ops::{apply as apply_op, apply_fast, FpOp, FpOpKind, Precision};

use serde::{Deserialize, Serialize};

/// An IEEE-754 binary interchange format, described by field widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Format {
    /// Exponent field width in bits.
    pub exp_bits: u32,
    /// Fraction (trailing significand) field width in bits.
    pub frac_bits: u32,
}

impl Format {
    /// IEEE-754 binary32.
    pub const F32: Format = Format {
        exp_bits: 8,
        frac_bits: 23,
    };
    /// IEEE-754 binary64.
    pub const F64: Format = Format {
        exp_bits: 11,
        frac_bits: 52,
    };

    /// Total encoding width in bits.
    pub const fn width(self) -> u32 {
        1 + self.exp_bits + self.frac_bits
    }

    /// Exponent bias.
    pub const fn bias(self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// All-ones exponent field (infinities and NaNs).
    pub const fn max_exp(self) -> u32 {
        (1 << self.exp_bits) - 1
    }

    pub(crate) fn sign_of(self, bits: u64) -> bool {
        (bits >> (self.width() - 1)) & 1 == 1
    }

    pub(crate) fn exp_of(self, bits: u64) -> u32 {
        ((bits >> self.frac_bits) & ((1 << self.exp_bits) - 1)) as u32
    }

    pub(crate) fn frac_of(self, bits: u64) -> u64 {
        bits & ((1u64 << self.frac_bits) - 1)
    }

    pub(crate) fn pack(self, sign: bool, exp: u32, frac: u64) -> u64 {
        debug_assert!(exp <= self.max_exp());
        debug_assert!(frac < (1u64 << self.frac_bits));
        ((sign as u64) << (self.width() - 1)) | ((exp as u64) << self.frac_bits) | frac
    }

    /// Canonical quiet NaN of this format.
    pub fn quiet_nan(self) -> u64 {
        self.pack(false, self.max_exp(), 1u64 << (self.frac_bits - 1))
    }

    /// Signed infinity.
    pub fn infinity(self, sign: bool) -> u64 {
        self.pack(sign, self.max_exp(), 0)
    }

    /// Signed zero.
    pub fn zero(self, sign: bool) -> u64 {
        self.pack(sign, 0, 0)
    }

    /// True if `bits` encodes any NaN.
    pub fn is_nan(self, bits: u64) -> bool {
        self.exp_of(bits) == self.max_exp() && self.frac_of(bits) != 0
    }

    /// True if `bits` encodes a signaling NaN (quiet bit clear).
    pub fn is_snan(self, bits: u64) -> bool {
        self.is_nan(bits) && (self.frac_of(bits) >> (self.frac_bits - 1)) & 1 == 0
    }

    /// True if `bits` encodes ±infinity.
    pub fn is_inf(self, bits: u64) -> bool {
        self.exp_of(bits) == self.max_exp() && self.frac_of(bits) == 0
    }

    /// True if `bits` encodes ±0.
    pub fn is_zero(self, bits: u64) -> bool {
        self.exp_of(bits) == 0 && self.frac_of(bits) == 0
    }

    /// True if `bits` encodes a subnormal (denormal) number.
    pub fn is_subnormal(self, bits: u64) -> bool {
        self.exp_of(bits) == 0 && self.frac_of(bits) != 0
    }
}

/// IEEE-754 exception flags (sticky).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flags {
    /// Invalid operation (NaN produced from non-NaN inputs, 0/0, ∞−∞, ...).
    pub invalid: bool,
    /// Division of a finite non-zero number by zero.
    pub div_by_zero: bool,
    /// Result overflowed to infinity.
    pub overflow: bool,
    /// Result underflowed (tiny and inexact, or flushed to zero).
    pub underflow: bool,
    /// Result was rounded.
    pub inexact: bool,
}

impl Flags {
    /// Merge another flag set into this one (sticky semantics).
    pub fn merge(&mut self, other: Flags) {
        self.invalid |= other.invalid;
        self.div_by_zero |= other.div_by_zero;
        self.overflow |= other.overflow;
        self.underflow |= other.underflow;
        self.inexact |= other.inexact;
    }

    /// True if any flag is raised.
    pub fn any(&self) -> bool {
        self.invalid || self.div_by_zero || self.overflow || self.underflow || self.inexact
    }
}

/// FPU behavior configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpuConfig {
    /// Flush subnormal results to zero and treat subnormal inputs as zero.
    ///
    /// The gate-level multiplier/divider datapaths in `tei-fpu` operate in
    /// this mode (documented substitution; see DESIGN.md).
    pub ftz: bool,
}

/// A software FPU: configuration plus sticky exception flags.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fpu {
    /// Behavior configuration.
    pub cfg: FpuConfig,
    /// Sticky exception flags accumulated across operations.
    pub flags: Flags,
}

impl Fpu {
    /// A fresh IEEE-compliant FPU (no flush-to-zero, clear flags).
    pub fn new() -> Self {
        Fpu::default()
    }

    /// Apply `op` to raw operand bits, accumulating exception flags.
    ///
    /// For conversions, integer operands/results travel as two's-complement
    /// bits in the low half of the `u64` (sign-extended for reads).
    pub fn apply(&mut self, op: FpOp, a: u64, b: u64) -> u64 {
        ops::apply(op, a, b, self.cfg, &mut self.flags)
    }
}

// Re-export the low-level functional API for callers that manage their own
// flag state.
pub use arith::{add, div, mul, sub};
pub use convert::{f2i, i2f};
