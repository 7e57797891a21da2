//! Property tests: tei-softfloat must agree bit-for-bit with the host's
//! IEEE-754 round-to-nearest-even arithmetic on arbitrary bit patterns,
//! and the host-FPU fast path must agree bit-for-bit with softfloat
//! whenever its guard accepts.

use proptest::prelude::*;
use tei_softfloat::{
    add, apply_fast, apply_op, div, f2i, i2f, mul, sub, Flags, Format, FpOp, FpuConfig, Precision,
};

/// Generate interesting f64 bit patterns: uniform bits hit NaN/Inf/subnormal
/// ranges often enough to exercise every special path.
fn any_f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        // Exponent-structured values cluster near interesting binades.
        (any::<bool>(), 0u64..2048, any::<u64>())
            .prop_map(|(s, e, f)| { ((s as u64) << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        Just(0u64),
        Just(0x8000_0000_0000_0000),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NAN.to_bits()),
        Just(f64::MIN_POSITIVE.to_bits()),
        Just(1u64), // smallest subnormal
    ]
}

fn any_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (any::<bool>(), 0u32..256, any::<u32>())
            .prop_map(|(s, e, f)| { ((s as u32) << 31) | (e << 23) | (f & ((1 << 23) - 1)) }),
    ]
}

/// Operands for the fast-path guard: arbitrary patterns plus the bottom
/// of the normal range.
fn guard_f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any_f64_bits(),
        (any::<bool>(), 0u64..8, any::<u64>())
            .prop_map(|(s, e, f)| ((s as u64) << 63) | (e << 52) | (f & ((1 << 52) - 1))),
    ]
}

fn guard_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        any_f32_bits(),
        (any::<bool>(), 0u32..8, any::<u32>())
            .prop_map(|(s, e, f)| ((s as u32) << 31) | (e << 23) | (f & ((1 << 23) - 1))),
    ]
}

/// Operand triples `(a, b, c)` at the tininess boundary of `fmt`: `a` has
/// an all-ones significand at a low exponent, and `a * b` and `a / c`
/// (powers of two) land within two binades of the smallest normal. Where
/// the exact result sits just below it, the host rounds up to the
/// smallest normal while flush-to-zero softfloat, which detects tininess
/// before rounding, flushes to zero.
fn tininess_triple(fmt: Format) -> impl Strategy<Value = (u64, u64, u64)> {
    let bias = fmt.bias() as i64;
    let frac = (1u64 << fmt.frac_bits) - 1;
    let sign = fmt.width() - 1;
    (0u8..8, 1i64..32, -2i64..=2).prop_map(move |(s, e, k)| {
        let pack =
            |s: bool, e: i64, f: u64| ((s as u64) << sign) | ((e as u64) << fmt.frac_bits) | f;
        (
            pack(s & 1 != 0, e, frac),
            pack(s & 2 != 0, bias - e + k, 0),
            pack(s & 4 != 0, bias + e - k, 0),
        )
    })
}

/// When the fast path answers, softfloat must give the same bits with and
/// without flush-to-zero and raise neither `invalid` nor `div_by_zero`.
fn check_fast(precision: Precision, a: u64, b: u64) -> Result<(), TestCaseError> {
    for op in FpOp::all()
        .into_iter()
        .filter(|op| op.precision == precision)
    {
        let Some(fast) = apply_fast(op, a, b) else {
            continue;
        };
        for ftz in [false, true] {
            let mut fl = Flags::default();
            let slow = apply_op(op, a, b, FpuConfig { ftz }, &mut fl);
            prop_assert_eq!(fast, slow, "{}({:#x}, {:#x}) ftz={}", op, a, b, ftz);
            prop_assert!(
                !fl.invalid && !fl.div_by_zero,
                "{op}({a:#x}, {b:#x}) ftz={ftz} raised {fl:?}"
            );
        }
    }
    Ok(())
}

fn check_f64(ours: u64, native: f64, what: &str, a: u64, b: u64) -> Result<(), TestCaseError> {
    if native.is_nan() {
        prop_assert!(
            Format::F64.is_nan(ours),
            "{what}({a:#x}, {b:#x}) should be NaN"
        );
    } else {
        prop_assert_eq!(
            ours,
            native.to_bits(),
            "{}({:#x}, {:#x}): got {:e}, want {:e}",
            what,
            a,
            b,
            f64::from_bits(ours),
            native
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn prop_f64_add_sub(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(add(Format::F64, a, b, cfg, &mut fl), fa + fb, "add", a, b)?;
        check_f64(sub(Format::F64, a, b, cfg, &mut fl), fa - fb, "sub", a, b)?;
    }

    #[test]
    fn prop_f64_mul(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(mul(Format::F64, a, b, cfg, &mut fl), fa * fb, "mul", a, b)?;
    }

    #[test]
    fn prop_f64_div(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(div(Format::F64, a, b, cfg, &mut fl), fa / fb, "div", a, b)?;
    }

    #[test]
    fn prop_f32_all(a in any_f32_bits(), b in any_f32_bits()) {
        let cfg = FpuConfig::default();
        let fmt = Format::F32;
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        let mut fl = Flags::default();
        for (ours, native) in [
            (add(fmt, a as u64, b as u64, cfg, &mut fl), fa + fb),
            (sub(fmt, a as u64, b as u64, cfg, &mut fl), fa - fb),
            (mul(fmt, a as u64, b as u64, cfg, &mut fl), fa * fb),
            (div(fmt, a as u64, b as u64, cfg, &mut fl), fa / fb),
        ] {
            if native.is_nan() {
                prop_assert!(fmt.is_nan(ours));
            } else {
                prop_assert_eq!(ours as u32, native.to_bits(),
                    "({:#x}, {:#x}) -> {:e}", a, b, native);
            }
        }
    }

    #[test]
    fn prop_i2f_matches_cast(x in any::<i64>()) {
        let mut fl = Flags::default();
        let r = i2f(Format::F64, x, FpuConfig::default(), &mut fl);
        prop_assert_eq!(r, (x as f64).to_bits());
        let mut fl = Flags::default();
        let x32 = x as i32;
        let r = i2f(Format::F32, x32 as i64, FpuConfig::default(), &mut fl);
        prop_assert_eq!(r as u32, (x32 as f32).to_bits());
    }

    #[test]
    fn prop_f2i_matches_saturating_cast(a in any_f64_bits()) {
        let mut fl = Flags::default();
        let v = f2i(Format::F64, a, 64, &mut fl);
        prop_assert_eq!(v, f64::from_bits(a) as i64, "{:#x}", a);
        let mut fl = Flags::default();
        let v32 = f2i(Format::F64, a, 32, &mut fl);
        prop_assert_eq!(v32, (f64::from_bits(a) as i32) as i64, "{:#x}", a);
    }

    #[test]
    fn prop_ftz_results_are_never_subnormal(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig { ftz: true };
        let fmt = Format::F64;
        let mut fl = Flags::default();
        for r in [
            add(fmt, a, b, cfg, &mut fl),
            sub(fmt, a, b, cfg, &mut fl),
            mul(fmt, a, b, cfg, &mut fl),
            div(fmt, a, b, cfg, &mut fl),
        ] {
            prop_assert!(!fmt.is_subnormal(r), "FTZ produced subnormal {:#x}", r);
        }
    }

    #[test]
    fn prop_add_commutes_and_mul_commutes(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let fmt = Format::F64;
        let mut fl = Flags::default();
        prop_assert_eq!(add(fmt, a, b, cfg, &mut fl), add(fmt, b, a, cfg, &mut fl));
        prop_assert_eq!(mul(fmt, a, b, cfg, &mut fl), mul(fmt, b, a, cfg, &mut fl));
    }

    #[test]
    fn prop_fast_path_matches_softfloat_f64(a in guard_f64_bits(), b in guard_f64_bits()) {
        check_fast(Precision::Double, a, b)?;
    }

    #[test]
    fn prop_fast_path_matches_softfloat_f32(a in guard_f32_bits(), b in guard_f32_bits()) {
        check_fast(Precision::Single, a as u64, b as u64)?;
    }

    #[test]
    fn prop_fast_path_matches_softfloat_at_tininess(
        (a, b, c) in tininess_triple(Format::F64),
        (x, y, z) in tininess_triple(Format::F32),
    ) {
        for (a, b) in [(a, b), (b, a), (a, c)] {
            check_fast(Precision::Double, a, b)?;
        }
        for (x, y) in [(x, y), (y, x), (x, z)] {
            check_fast(Precision::Single, x, y)?;
        }
    }
}
