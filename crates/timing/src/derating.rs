//! Voltage → delay derating models.
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
//! With the 45 nm-class defaults (`Vnom = 1.1 V`, `Vth = 0.5 V`,
//! `α = 1.4`), the paper's two corners come out to `k(VR15) ≈ 1.33` and
//! `k(VR20) ≈ 1.52`.

use serde::{Deserialize, Serialize};

/// Nominal supply voltage of the modeled library corner (volts).
pub const V_NOMINAL: f64 = 1.1;

/// The supply-voltage reduction levels studied in the paper, plus an
/// arbitrary level for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VoltageReduction {
    /// Nominal operation (no reduction).
    Nominal,
    /// 15 % supply reduction (the paper's VR15, 0.935 V).
    VR15,
    /// 20 % supply reduction (the paper's VR20, 0.88 V).
    VR20,
    /// An arbitrary fractional reduction in `(0, 0.5]`, e.g. `0.10` for 10 %.
    Custom(f64),
    /// An absolute supply voltage in volts, derated by piecewise-linear
    /// interpolation between the characterized corners
    /// ([`InterpolatedDerating::paper_characterized`]) instead of the
    /// analytic alpha-power law. This is the carrier for continuous-Vdd
    /// sweeps (`tei sweep`).
    Vdd(f64),
}

impl VoltageReduction {
    /// The reduction as a fraction of nominal (0.15 for VR15).
    pub fn fraction(self) -> f64 {
        match self {
            VoltageReduction::Nominal => 0.0,
            VoltageReduction::VR15 => 0.15,
            VoltageReduction::VR20 => 0.20,
            VoltageReduction::Custom(f) => f,
            VoltageReduction::Vdd(v) => 1.0 - v / V_NOMINAL,
        }
    }

    /// The resulting supply voltage in volts.
    pub fn vdd(self) -> f64 {
        match self {
            // Return the stored voltage bit-exactly: round-tripping through
            // `fraction()` would perturb the low mantissa bits and break the
            // corner-exactness guarantee of the interpolated table.
            VoltageReduction::Vdd(v) => v,
            _ => V_NOMINAL * (1.0 - self.fraction()),
        }
    }

    /// Delay inflation factor at this corner: the analytic
    /// [`AlphaPowerLaw`] for the characterized levels, piecewise-linear
    /// interpolation between the characterized corners for [`Vdd`]
    /// (matching them bit-exactly at the corner voltages).
    ///
    /// [`Vdd`]: VoltageReduction::Vdd
    pub fn derating_factor(self) -> f64 {
        match self {
            VoltageReduction::Vdd(v) => InterpolatedDerating::paper_characterized().factor(v),
            _ => AlphaPowerLaw::default().factor(self.vdd()),
        }
    }

    /// Short label used in reports ("VR15", "VR20", ...).
    pub fn label(self) -> String {
        match self {
            VoltageReduction::Nominal => "nominal".to_string(),
            VoltageReduction::VR15 => "VR15".to_string(),
            VoltageReduction::VR20 => "VR20".to_string(),
            VoltageReduction::Custom(f) => format!("VR{:02.0}", f * 100.0),
            VoltageReduction::Vdd(v) => format!("V{v:.3}"),
        }
    }
}

/// Piecewise-linear delay derating between characterized voltage corners.
///
/// The paper characterizes the library at discrete corners (nominal, VR15,
/// VR20); a continuous-Vdd sweep needs a factor at every grid voltage.
/// Rather than trusting the analytic law between corners, this model
/// interpolates linearly between the characterized `(vdd, factor)` points —
/// conservative for any convex delay-vs-voltage curve (the chord lies above
/// the curve), and **bit-exact** at the corners themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterpolatedDerating {
    /// Characterized `(vdd, factor)` corners, sorted ascending by voltage.
    corners: Vec<(f64, f64)>,
}

impl InterpolatedDerating {
    /// The paper's characterized corners: nominal (factor 1), VR15, VR20,
    /// with factors from the calibrated alpha-power law.
    pub fn paper_characterized() -> Self {
        InterpolatedDerating::from_corners(vec![
            (
                VoltageReduction::VR20.vdd(),
                VoltageReduction::VR20.derating_factor(),
            ),
            (
                VoltageReduction::VR15.vdd(),
                VoltageReduction::VR15.derating_factor(),
            ),
            (V_NOMINAL, 1.0),
        ])
    }

    /// Build from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two corners, duplicate voltages, or factors
    /// that do not decrease as the supply rises (a non-physical table).
    pub fn from_corners(mut corners: Vec<(f64, f64)>) -> Self {
        assert!(corners.len() >= 2, "need at least two corners");
        corners.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite corner voltage"));
        for w in corners.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate corner voltage {}", w[0].0);
            assert!(
                w[0].1 > w[1].1,
                "factor must decrease with vdd: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        InterpolatedDerating { corners }
    }

    /// Lowest characterized voltage.
    pub fn min_vdd(&self) -> f64 {
        self.corners[0].0
    }

    /// Highest characterized voltage.
    pub fn max_vdd(&self) -> f64 {
        self.corners[self.corners.len() - 1].0
    }

    /// Delay inflation factor at supply `vdd`.
    ///
    /// At a characterized corner the stored factor is returned bit-exactly
    /// (no `a + t*(b-a)` round-off); between corners it is the linear
    /// interpolant.
    ///
    /// # Panics
    ///
    /// Panics outside the characterized range `[min_vdd, max_vdd]` — the
    /// table has no basis for extrapolation.
    pub fn factor(&self, vdd: f64) -> f64 {
        assert!(
            vdd >= self.min_vdd() && vdd <= self.max_vdd(),
            "supply {vdd} V outside characterized range [{}, {}]",
            self.min_vdd(),
            self.max_vdd()
        );
        // Exact corner hit: return the characterized factor verbatim.
        if let Some(&(_, f)) = self.corners.iter().find(|&&(v, _)| v == vdd) {
            return f;
        }
        let i = self
            .corners
            .windows(2)
            .position(|w| w[0].0 < vdd && vdd < w[1].0)
            .expect("vdd within range must fall in a segment");
        let (v0, f0) = self.corners[i];
        let (v1, f1) = self.corners[i + 1];
        let t = (vdd - v0) / (v1 - v0);
        f0 + t * (f1 - f0)
    }
}

/// Alpha-power-law delay model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaPowerLaw {
    /// Nominal supply (volts).
    pub vnom: f64,
    /// Effective threshold voltage (volts).
    pub vth: f64,
    /// Velocity-saturation exponent.
    pub alpha: f64,
}

impl Default for AlphaPowerLaw {
    fn default() -> Self {
        AlphaPowerLaw {
            vnom: V_NOMINAL,
            vth: 0.5,
            alpha: 1.4,
        }
    }
}

impl AlphaPowerLaw {
    /// Delay inflation factor at supply `vdd` relative to `vnom`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not above the threshold voltage (the circuit
    /// would not switch at all).
    pub fn factor(&self, vdd: f64) -> f64 {
        assert!(
            vdd > self.vth,
            "supply {vdd} V at or below threshold {} V",
            self.vth
        );
        (vdd / self.vnom) * ((self.vnom - self.vth) / (vdd - self.vth)).powf(self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_factor_is_one() {
        let law = AlphaPowerLaw::default();
        assert!((law.factor(V_NOMINAL) - 1.0).abs() < 1e-12);
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

    #[test]
    fn vdd_values_match_paper() {
        assert!((VoltageReduction::VR15.vdd() - 0.935).abs() < 1e-9);
        assert!((VoltageReduction::VR20.vdd() - 0.88).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn sub_threshold_supply_rejected() {
        AlphaPowerLaw::default().factor(0.4);
    }

    #[test]
    fn custom_reduction_label() {
        assert_eq!(VoltageReduction::Custom(0.10).label(), "VR10");
        assert_eq!(VoltageReduction::VR15.label(), "VR15");
    }

    #[test]
    fn interpolated_corners_are_bit_exact() {
        let table = InterpolatedDerating::paper_characterized();
        let (v15, k15) = (
            VoltageReduction::VR15.vdd(),
            VoltageReduction::VR15.derating_factor(),
        );
        let (v20, k20) = (
            VoltageReduction::VR20.vdd(),
            VoltageReduction::VR20.derating_factor(),
        );
        assert_eq!(table.factor(v15).to_bits(), k15.to_bits());
        assert_eq!(table.factor(v20).to_bits(), k20.to_bits());
        assert_eq!(table.factor(V_NOMINAL).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn vdd_variant_routes_through_interpolation() {
        // Corner voltages reproduce the characterized factors bit-exactly.
        let v15 = VoltageReduction::VR15.vdd();
        assert_eq!(
            VoltageReduction::Vdd(v15).derating_factor().to_bits(),
            VoltageReduction::VR15.derating_factor().to_bits()
        );
        // A mid-segment voltage lands strictly between the corner factors.
        let mid = VoltageReduction::Vdd(0.91).derating_factor();
        let k15 = VoltageReduction::VR15.derating_factor();
        let k20 = VoltageReduction::VR20.derating_factor();
        assert!(k15 < mid && mid < k20, "mid={mid} k15={k15} k20={k20}");
        // The stored voltage round-trips bit-exactly.
        assert_eq!(
            VoltageReduction::Vdd(0.91).vdd().to_bits(),
            0.91f64.to_bits()
        );
        assert_eq!(VoltageReduction::Vdd(0.91).label(), "V0.910");
    }

    #[test]
    #[should_panic(expected = "outside characterized range")]
    fn interpolation_refuses_extrapolation() {
        InterpolatedDerating::paper_characterized().factor(0.80);
    }

    #[test]
    #[should_panic(expected = "factor must decrease")]
    fn non_monotone_corner_table_rejected() {
        InterpolatedDerating::from_corners(vec![(0.9, 1.2), (1.0, 1.3)]);
    }
}
