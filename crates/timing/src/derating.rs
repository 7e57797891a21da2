//! Voltage → delay derating.
//!
//! The paper re-characterizes its 45 nm library at 15 % and 20 % supply
//! reduction with SiliconSmart. We substitute the standard alpha-power-law
//! MOSFET delay model: gate delay is proportional to
//! `V / (V − Vth)^α`, so reducing the supply from `Vnom` to `V` inflates
//! every delay by
//!
//! ```text
//! k(V) = (V / Vnom) · ((Vnom − Vth) / (V − Vth))^α
//! ```
//!
//! With the 45 nm-class constants (`Vnom = 1.1 V`, `Vth = 0.5 V`,
//! `α = 1.4`), the paper's two corners come out to `k(VR15) ≈ 1.33` and
//! `k(VR20) ≈ 1.52`. The same law derates every supply voltage, the
//! corners and the points of a continuous-Vdd sweep alike.

use serde::{Deserialize, Serialize};

/// Nominal supply voltage of the modeled library corner (volts).
pub const V_NOMINAL: f64 = 1.1;

/// Effective threshold voltage (volts): the law has no value at or below it.
pub const V_THRESHOLD: f64 = 0.5;

/// Velocity-saturation exponent of the alpha-power law.
const ALPHA: f64 = 1.4;

/// The supply-voltage reduction levels studied in the paper, plus an
/// arbitrary supply voltage for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VoltageReduction {
    /// Nominal operation (no reduction).
    Nominal,
    /// 15 % supply reduction (the paper's VR15, 0.935 V).
    VR15,
    /// 20 % supply reduction (the paper's VR20, 0.88 V).
    VR20,
    /// An absolute supply voltage in volts: the carrier for
    /// continuous-Vdd sweeps (`tei sweep`).
    Vdd(f64),
}

impl VoltageReduction {
    /// The reduction as a fraction of nominal (0.15 for VR15).
    pub fn fraction(self) -> f64 {
        match self {
            VoltageReduction::Nominal => 0.0,
            VoltageReduction::VR15 => 0.15,
            VoltageReduction::VR20 => 0.20,
            VoltageReduction::Vdd(v) => 1.0 - v / V_NOMINAL,
        }
    }

    /// The resulting supply voltage in volts.
    pub fn vdd(self) -> f64 {
        match self {
            // Return the stored voltage bit-exactly: round-tripping through
            // `fraction()` would perturb the low mantissa bits.
            VoltageReduction::Vdd(v) => v,
            _ => V_NOMINAL * (1.0 - self.fraction()),
        }
    }

    /// Delay inflation factor at this supply: the alpha-power law at
    /// [`vdd`](Self::vdd), exactly 1 at nominal.
    ///
    /// # Panics
    ///
    /// Panics if the supply is not above [`V_THRESHOLD`] (the circuit
    /// would not switch at all).
    pub fn derating_factor(self) -> f64 {
        let vdd = self.vdd();
        assert!(
            vdd > V_THRESHOLD,
            "supply {vdd} V at or below threshold {V_THRESHOLD} V"
        );
        (vdd / V_NOMINAL) * ((V_NOMINAL - V_THRESHOLD) / (vdd - V_THRESHOLD)).powf(ALPHA)
    }

    /// Short label used in reports ("VR15", "VR20", ...).
    pub fn label(self) -> String {
        match self {
            VoltageReduction::Nominal => "nominal".to_string(),
            VoltageReduction::VR15 => "VR15".to_string(),
            VoltageReduction::VR20 => "VR20".to_string(),
            VoltageReduction::Vdd(v) => format!("V{v:.3}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_factor_is_exactly_one() {
        assert_eq!(
            VoltageReduction::Nominal.derating_factor().to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn paper_corners_inflate_delay_monotonically() {
        let k15 = VoltageReduction::VR15.derating_factor();
        let k20 = VoltageReduction::VR20.derating_factor();
        assert!(k15 > 1.0 && k20 > k15, "k15={k15} k20={k20}");
        // Calibration band documented in DESIGN.md.
        assert!((1.25..1.45).contains(&k15), "k15={k15}");
        assert!((1.40..1.65).contains(&k20), "k20={k20}");
    }

    /// The corner factors every committed figure was computed with.
    #[test]
    fn corner_factors_are_pinned() {
        assert_eq!(
            VoltageReduction::VR15.derating_factor().to_bits(),
            0x3ff5_556b_cdb6_1003
        );
        assert_eq!(
            VoltageReduction::VR20.derating_factor().to_bits(),
            0x3ff8_430b_6d2a_ef1b
        );
    }

    #[test]
    fn vdd_at_a_corner_matches_the_corner_bit_exactly() {
        for vr in [VoltageReduction::VR15, VoltageReduction::VR20] {
            assert_eq!(
                VoltageReduction::Vdd(vr.vdd()).derating_factor().to_bits(),
                vr.derating_factor().to_bits(),
                "{}",
                vr.label()
            );
        }
    }

    #[test]
    fn factor_strictly_decreases_in_vdd() {
        let steps = 600;
        let lo = V_THRESHOLD + 1e-3;
        let factors: Vec<f64> = (0..=steps)
            .map(|i| {
                let v = lo + (V_NOMINAL - lo) * f64::from(i) / f64::from(steps);
                VoltageReduction::Vdd(v).derating_factor()
            })
            .collect();
        for (i, w) in factors.windows(2).enumerate() {
            assert!(w[0] > w[1], "step {i}: {} then {}", w[0], w[1]);
        }
        assert!(factors[0].is_finite());
    }

    #[test]
    fn vdd_values_match_paper() {
        assert!((VoltageReduction::VR15.vdd() - 0.935).abs() < 1e-9);
        assert!((VoltageReduction::VR20.vdd() - 0.88).abs() < 1e-9);
        assert_eq!(
            VoltageReduction::Vdd(0.91).vdd().to_bits(),
            0.91f64.to_bits()
        );
        assert_eq!(VoltageReduction::Vdd(0.91).label(), "V0.910");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn sub_threshold_supply_rejected() {
        VoltageReduction::Vdd(0.4).derating_factor();
    }
}
