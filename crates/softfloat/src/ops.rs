//! The twelve modeled FPU operations and their dispatch.

use crate::{arith, convert, Flags, Format, FpuConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operation kind (precision-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FpOpKind {
    /// Floating-point addition.
    Add,
    /// Floating-point subtraction.
    Sub,
    /// Floating-point multiplication.
    Mul,
    /// Floating-point division.
    Div,
    /// Signed integer → floating point.
    ItoF,
    /// Floating point → signed integer (truncate).
    FtoI,
}

impl FpOpKind {
    /// All six kinds.
    pub const ALL: [FpOpKind; 6] = [
        FpOpKind::Add,
        FpOpKind::Sub,
        FpOpKind::Mul,
        FpOpKind::Div,
        FpOpKind::ItoF,
        FpOpKind::FtoI,
    ];
}

/// Operand/result precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE-754 binary32.
    Single,
    /// IEEE-754 binary64.
    Double,
}

impl Precision {
    /// The corresponding interchange format.
    pub fn format(self) -> Format {
        match self {
            Precision::Single => Format::F32,
            Precision::Double => Format::F64,
        }
    }

    /// Width of the companion integer type (conversions).
    pub fn int_bits(self) -> u32 {
        match self {
            Precision::Single => 32,
            Precision::Double => 64,
        }
    }
}

/// One of the twelve modeled FPU operations (6 kinds × 2 precisions) —
/// the instruction set of the paper's Section IV.B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FpOp {
    /// Operation kind.
    pub kind: FpOpKind,
    /// Operand precision.
    pub precision: Precision,
}

impl FpOp {
    /// Construct an operation.
    pub fn new(kind: FpOpKind, precision: Precision) -> Self {
        FpOp { kind, precision }
    }

    /// All twelve operations, double precision first, in a stable order
    /// usable as a table index (see [`FpOp::index`]).
    pub fn all() -> [FpOp; 12] {
        let mut out = [FpOp::new(FpOpKind::Add, Precision::Double); 12];
        let mut i = 0;
        for precision in [Precision::Double, Precision::Single] {
            for kind in FpOpKind::ALL {
                out[i] = FpOp { kind, precision };
                i += 1;
            }
        }
        out
    }

    /// Stable index in `0..12` matching [`FpOp::all`].
    pub fn index(self) -> usize {
        let k = match self.kind {
            FpOpKind::Add => 0,
            FpOpKind::Sub => 1,
            FpOpKind::Mul => 2,
            FpOpKind::Div => 3,
            FpOpKind::ItoF => 4,
            FpOpKind::FtoI => 5,
        };
        match self.precision {
            Precision::Double => k,
            Precision::Single => 6 + k,
        }
    }

    /// The operand format.
    pub fn format(self) -> Format {
        self.precision.format()
    }

    /// True for the two-operand arithmetic kinds.
    pub fn is_binary(self) -> bool {
        matches!(
            self.kind,
            FpOpKind::Add | FpOpKind::Sub | FpOpKind::Mul | FpOpKind::Div
        )
    }

    /// Width in bits of the destination register value.
    pub fn result_bits(self) -> u32 {
        match self.precision {
            Precision::Single => 32,
            Precision::Double => 64,
        }
    }
}

impl fmt::Display for FpOp {
    /// Paper-style label, e.g. `fp-mul (d)` or `I2F (s)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = match self.precision {
            Precision::Single => "s",
            Precision::Double => "d",
        };
        match self.kind {
            FpOpKind::Add => write!(f, "fp-add ({p})"),
            FpOpKind::Sub => write!(f, "fp-sub ({p})"),
            FpOpKind::Mul => write!(f, "fp-mul ({p})"),
            FpOpKind::Div => write!(f, "fp-div ({p})"),
            FpOpKind::ItoF => write!(f, "I2F ({p})"),
            FpOpKind::FtoI => write!(f, "F2I ({p})"),
        }
    }
}

/// Apply `op` to raw operand bits. Unary kinds ignore `b`.
///
/// Integer operands (ItoF) are read from the low `int_bits` of `a` and
/// sign-extended; integer results (FtoI) are returned sign-extended in a
/// `u64`.
pub fn apply(op: FpOp, a: u64, b: u64, cfg: FpuConfig, flags: &mut Flags) -> u64 {
    let fmt = op.format();
    match op.kind {
        FpOpKind::Add => arith::add(fmt, a, b, cfg, flags),
        FpOpKind::Sub => arith::sub(fmt, a, b, cfg, flags),
        FpOpKind::Mul => arith::mul(fmt, a, b, cfg, flags),
        FpOpKind::Div => arith::div(fmt, a, b, cfg, flags),
        FpOpKind::ItoF => {
            let x = match op.precision {
                Precision::Single => a as u32 as i32 as i64,
                Precision::Double => a as i64,
            };
            i2f_dispatch(fmt, x, cfg, flags, op.precision)
        }
        FpOpKind::FtoI => {
            let v = convert::f2i(fmt, a, op.precision.int_bits(), flags);
            match op.precision {
                Precision::Single => (v as i32) as u32 as u64,
                Precision::Double => v as u64,
            }
        }
    }
}

/// The host FPU's result of `op`, when it is provably bit-identical to
/// [`apply`] under every [`FpuConfig`] and [`apply`] would raise neither
/// `invalid` nor `div_by_zero`; `None` sends the caller to [`apply`].
/// The host FPU runs in its default round-to-nearest-even mode with
/// subnormals enabled, which Rust assumes and nothing here changes.
///
/// The guard, per kind:
/// - add/sub/mul/div: both operands normal (biased exponent in
///   `1..max`) and the result's biased exponent in `2..max`. Normal
///   operands cannot raise `invalid` or `div_by_zero`, and flush-to-zero
///   input handling does not touch them. A rounded result of exponent
///   `>= 2` is at least twice the smallest normal, so the exact result
///   was not tiny and [`apply`], which detects tininess before rounding,
///   neither flushes nor denormalizes it. Exponent 1 is excluded: the
///   host can round a tiny exact result up to the smallest normal, which
///   flush-to-zero turns into zero.
/// - int→float: always (round-to-nearest-even, never subnormal).
/// - float→int: finite `|x| < 9.0e18` (double) or `< 2.0e9` (single), so
///   the truncated value fits the integer; NaN, infinities and larger
///   values raise `invalid` and go to [`apply`].
#[inline(always)]
pub fn apply_fast(op: FpOp, a: u64, b: u64) -> Option<u64> {
    match (op.kind, op.precision) {
        (FpOpKind::ItoF, Precision::Double) => Some((a as i64 as f64).to_bits()),
        (FpOpKind::ItoF, Precision::Single) => Some((a as u32 as i32 as f32).to_bits() as u64),
        (FpOpKind::FtoI, Precision::Double) => {
            let x = f64::from_bits(a);
            (x.abs() < 9.0e18).then_some(x as i64 as u64)
        }
        (FpOpKind::FtoI, Precision::Single) => {
            let x = f32::from_bits(a as u32);
            (x.abs() < 2.0e9).then_some(x as i32 as u32 as u64)
        }
        (kind, Precision::Double) => {
            let exp = |bits: u64| (bits >> 52) & 0x7ff;
            if !(1..0x7ff).contains(&exp(a)) || !(1..0x7ff).contains(&exp(b)) {
                return None;
            }
            let r = host_binary(kind, f64::from_bits(a), f64::from_bits(b)).to_bits();
            (2..0x7ff).contains(&exp(r)).then_some(r)
        }
        (kind, Precision::Single) => {
            let exp = |bits: u32| (bits >> 23) & 0xff;
            let (a, b) = (a as u32, b as u32);
            if !(1..0xff).contains(&exp(a)) || !(1..0xff).contains(&exp(b)) {
                return None;
            }
            let r = host_binary(kind, f32::from_bits(a), f32::from_bits(b)).to_bits();
            (2..0xff).contains(&exp(r)).then_some(r as u64)
        }
    }
}

/// One host-FPU add/sub/mul/div (round-to-nearest-even).
#[inline(always)]
fn host_binary<T>(kind: FpOpKind, a: T, b: T) -> T
where
    T: std::ops::Add<Output = T>
        + std::ops::Sub<Output = T>
        + std::ops::Mul<Output = T>
        + std::ops::Div<Output = T>,
{
    match kind {
        FpOpKind::Add => a + b,
        FpOpKind::Sub => a - b,
        FpOpKind::Mul => a * b,
        FpOpKind::Div => a / b,
        FpOpKind::ItoF | FpOpKind::FtoI => unreachable!("conversions are not binary"),
    }
}

fn i2f_dispatch(fmt: Format, x: i64, cfg: FpuConfig, flags: &mut Flags, _p: Precision) -> u64 {
    convert::i2f(fmt, x, cfg, flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_ops_with_stable_indices() {
        let all = FpOp::all();
        assert_eq!(all.len(), 12);
        for (i, op) in all.iter().enumerate() {
            assert_eq!(op.index(), i, "{op}");
        }
        // Double precision comes first (the error-prone half).
        assert_eq!(all[2], FpOp::new(FpOpKind::Mul, Precision::Double));
        assert!(all[..6].iter().all(|o| o.precision == Precision::Double));
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(
            FpOp::new(FpOpKind::Mul, Precision::Double).to_string(),
            "fp-mul (d)"
        );
        assert_eq!(
            FpOp::new(FpOpKind::ItoF, Precision::Single).to_string(),
            "I2F (s)"
        );
    }

    #[test]
    fn apply_dispatches_all_kinds() {
        let mut flags = Flags::default();
        let cfg = FpuConfig::default();
        let d = Precision::Double;
        let a = 6.0f64.to_bits();
        let b = 1.5f64.to_bits();
        assert_eq!(
            f64::from_bits(apply(FpOp::new(FpOpKind::Add, d), a, b, cfg, &mut flags)),
            7.5
        );
        assert_eq!(
            f64::from_bits(apply(FpOp::new(FpOpKind::Sub, d), a, b, cfg, &mut flags)),
            4.5
        );
        assert_eq!(
            f64::from_bits(apply(FpOp::new(FpOpKind::Mul, d), a, b, cfg, &mut flags)),
            9.0
        );
        assert_eq!(
            f64::from_bits(apply(FpOp::new(FpOpKind::Div, d), a, b, cfg, &mut flags)),
            4.0
        );
        assert_eq!(
            f64::from_bits(apply(
                FpOp::new(FpOpKind::ItoF, d),
                (-9i64) as u64,
                0,
                cfg,
                &mut flags
            )),
            -9.0
        );
        assert_eq!(
            apply(
                FpOp::new(FpOpKind::FtoI, d),
                (-2.75f64).to_bits(),
                0,
                cfg,
                &mut flags
            ) as i64,
            -2
        );
    }

    #[test]
    fn single_precision_conversions_use_32bit_ints() {
        let mut flags = Flags::default();
        let cfg = FpuConfig::default();
        let s = Precision::Single;
        // -1 as a 32-bit pattern sign-extends correctly.
        let r = apply(
            FpOp::new(FpOpKind::ItoF, s),
            0xffff_ffff,
            0,
            cfg,
            &mut flags,
        );
        assert_eq!(f32::from_bits(r as u32), -1.0);
        // Saturation at the i32 boundary.
        let mut flags = Flags::default();
        let big = 3e9f32.to_bits() as u64;
        let r = apply(FpOp::new(FpOpKind::FtoI, s), big, 0, cfg, &mut flags);
        assert_eq!(r as u32 as i32, i32::MAX);
        assert!(flags.invalid);
    }

    #[test]
    fn fast_path_refuses_the_tininess_round_up() {
        // The exact product lies just below the smallest normal. The host
        // rounds it up to -MIN_POSITIVE (biased exponent 1); flush-to-zero
        // softfloat detects tininess before rounding and returns -0.
        let op = FpOp::new(FpOpKind::Mul, Precision::Double);
        let (a, b) = (0x002f_ffff_ffff_ffff, 0xbfd0_0000_0000_0000);
        let host = f64::from_bits(a) * f64::from_bits(b);
        assert_eq!(host, -f64::MIN_POSITIVE);
        let mut flags = Flags::default();
        let ftz = apply(op, a, b, FpuConfig { ftz: true }, &mut flags);
        assert_eq!(ftz, (-0.0f64).to_bits());
        assert_eq!(apply_fast(op, a, b), None);
    }

    #[test]
    fn fast_path_answers_ordinary_operands_and_refuses_special_ones() {
        let cfg = FpuConfig { ftz: true };
        for op in FpOp::all() {
            let (a, b) = match (op.kind, op.precision) {
                (FpOpKind::ItoF, _) => ((-7i64) as u64, 0),
                (_, Precision::Double) => ((-6.5f64).to_bits(), 1.25f64.to_bits()),
                (_, Precision::Single) => ((-6.5f32).to_bits() as u64, 1.25f32.to_bits() as u64),
            };
            let mut flags = Flags::default();
            assert_eq!(
                apply_fast(op, a, b),
                Some(apply(op, a, b, cfg, &mut flags)),
                "{op}"
            );
        }
        let d = |kind| FpOp::new(kind, Precision::Double);
        let one = 1.0f64.to_bits();
        for special in [0, 1, f64::INFINITY.to_bits(), f64::NAN.to_bits()] {
            assert_eq!(apply_fast(d(FpOpKind::Add), special, one), None);
            assert_eq!(apply_fast(d(FpOpKind::Div), one, special), None);
        }
        assert_eq!(apply_fast(d(FpOpKind::FtoI), 1e19f64.to_bits(), 0), None);
        assert_eq!(apply_fast(d(FpOpKind::FtoI), f64::NAN.to_bits(), 0), None);
    }
}
