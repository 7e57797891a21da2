//! Power/energy model and AVM-guided voltage selection (paper Section V.C).
//!
//! Substitutes the Voltus power measurements: normalized core power as a
//! function of supply reduction, calibrated through the paper's anchor
//! points (≈21 % savings at 10 % reduction, ≈56 % at 20 %), plus the
//! energy accounting for the AVM-guided operating-point selection and a
//! simple error-prevention (instruction clock-stretch) mitigation model.

use serde::{Deserialize, Serialize};
use tei_timing::VoltageReduction;

/// Normalized power at a supply-reduction fraction `f` (0 = nominal):
/// the quadratic `P(f) = 1 − 1.4 f − 7 f²` fitted through the paper's
/// anchor points `P(0) = 1`, `P(0.10) ≈ 0.79`, `P(0.20) = 0.44`.
pub fn power_ratio_at(fraction: f64) -> f64 {
    assert!(
        (0.0..=0.3).contains(&fraction),
        "reduction fraction out of the calibrated range"
    );
    1.0 - 1.4 * fraction - 7.0 * fraction * fraction
}

/// Normalized power at a VR level.
pub fn power_ratio(vr: VoltageReduction) -> f64 {
    power_ratio_at(vr.fraction())
}

/// Power savings (fraction of nominal) at a VR level.
pub fn power_savings(vr: VoltageReduction) -> f64 {
    1.0 - power_ratio(vr)
}

/// The minimum supply voltage meeting an AVM target on a measured grid:
/// the lowest `vdd` in `avm_by_vdd` (pairs of `(vdd, avm)`, any order)
/// whose own AVM and the AVM of every higher grid point are at most
/// `target`. A point that passes below a failing one is not trusted, so
/// a non-monotone grid never yields a voltage under a failure. `None`
/// when even the highest point fails (or the grid is empty); a NaN AVM
/// fails.
pub fn min_vdd_meeting(avm_by_vdd: &[(f64, f64)], target: f64) -> Option<f64> {
    let mut points = avm_by_vdd.to_vec();
    points.sort_by(|a, b| b.0.total_cmp(&a.0));
    points
        .iter()
        .take_while(|&&(_, avm)| avm <= target)
        .last()
        .map(|&(vdd, _)| vdd)
}

/// AVM-guided operating point: the deepest voltage reduction that
/// [`min_vdd_meeting`] accepts at `threshold` (0 = strictly error-free
/// operation). The nominal point is included implicitly (AVM 0 by
/// construction) and is the answer when no listed level qualifies.
pub fn select_operating_point(
    avm_by_vr: &[(VoltageReduction, f64)],
    threshold: f64,
) -> VoltageReduction {
    let points: Vec<(f64, f64)> = avm_by_vr
        .iter()
        .map(|&(vr, avm)| (vr.vdd(), avm))
        .chain([(VoltageReduction::Nominal.vdd(), 0.0)])
        .collect();
    let vdd = min_vdd_meeting(&points, threshold);
    avm_by_vr
        .iter()
        .find(|&&(vr, _)| Some(vr.vdd()) == vdd)
        .map_or(VoltageReduction::Nominal, |&(vr, _)| vr)
}

/// Energy accounting for the clock-stretch error-prevention technique:
/// running at `vr` while stretching the clock (one extra cycle) for the
/// fraction `prone_fraction` of instructions that the error model marks
/// as error-prone at this corner. Returns normalized energy relative to
/// nominal-voltage execution of the same program
/// (`E = P(vr) × (1 + prone_fraction)`, nominal = 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MitigationEnergy {
    /// Operating point.
    pub vr: VoltageReduction,
    /// Fraction of dynamic instructions stretched.
    pub prone_fraction: f64,
    /// Normalized energy (nominal, unprotected = 1.0).
    pub energy: f64,
}

/// Evaluate the prevention technique at `vr`.
pub fn mitigation_energy(vr: VoltageReduction, prone_fraction: f64) -> MitigationEnergy {
    assert!((0.0..=1.0).contains(&prone_fraction), "invalid fraction");
    MitigationEnergy {
        vr,
        prone_fraction,
        energy: power_ratio(vr) * (1.0 + prone_fraction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper() {
        assert!((power_ratio_at(0.0) - 1.0).abs() < 1e-12);
        let s10 = 1.0 - power_ratio_at(0.10);
        assert!(
            (s10 - 0.21).abs() < 0.001,
            "10% VR ≈ 21% savings, got {s10}"
        );
        let s20 = 1.0 - power_ratio_at(0.20);
        assert!(
            (s20 - 0.56).abs() < 0.001,
            "20% VR ≈ 56% savings, got {s20}"
        );
        // Monotone increasing savings.
        assert!(power_savings(VoltageReduction::VR20) > power_savings(VoltageReduction::VR15));
        assert!(power_savings(VoltageReduction::VR15) > 0.0);
    }

    #[test]
    fn operating_point_selection() {
        use VoltageReduction::*;
        // k-means-like: error-free at both levels → deepest reduction.
        let safe = [(VR15, 0.0), (VR20, 0.0)];
        assert_eq!(select_operating_point(&safe, 0.0), VR20);
        // Errors at VR20 only → VR15.
        let mid = [(VR15, 0.0), (VR20, 0.3)];
        assert_eq!(select_operating_point(&mid, 0.0), VR15);
        // Errors everywhere → nominal.
        let none = [(VR15, 0.5), (VR20, 0.9)];
        assert_eq!(select_operating_point(&none, 0.0), Nominal);
        // A tolerance threshold admits low-AVM points.
        assert_eq!(select_operating_point(&mid, 0.35), VR20);
        // Passing at VR20 does not count while VR15 above it fails.
        let dip = [(VR15, 0.2), (VR20, 0.0)];
        assert_eq!(select_operating_point(&dip, 0.0), Nominal);
    }

    #[test]
    fn min_vdd_needs_every_higher_point_to_pass() {
        // A planted non-monotone grid (unsorted): 0.90 V passes, but
        // 0.95 V above it fails, so the answer is 1.00 V, not 0.90 V.
        let grid = [
            (1.00, 0.0),
            (0.90, 0.005),
            (1.10, 0.0),
            (0.95, 0.04),
            (0.85, 0.30),
        ];
        assert_eq!(min_vdd_meeting(&grid, 0.01), Some(1.00));
        // Monotone grid: the lowest passing point.
        let mono = [(0.9, 0.0), (1.0, 0.0), (1.1, 0.0), (0.8, 0.5)];
        assert_eq!(min_vdd_meeting(&mono, 0.01), Some(0.9));
        // The highest point fails: no voltage qualifies.
        let fails = [(1.0, 0.0), (1.1, 0.02)];
        assert_eq!(min_vdd_meeting(&fails, 0.01), None);
        assert_eq!(min_vdd_meeting(&[], 0.01), None);
        // A NaN AVM is a failure, not a pass.
        assert_eq!(min_vdd_meeting(&[(1.0, 0.0), (1.1, f64::NAN)], 0.01), None);
    }

    #[test]
    fn mitigation_energy_tradeoff() {
        // Stretching a tiny fraction at VR20 keeps most of the savings.
        let m = mitigation_energy(VoltageReduction::VR20, 0.01);
        assert!(m.energy < 0.5, "VR20 with 1% stretching stays cheap");
        // Stretching everything erases the benefit.
        let all = mitigation_energy(VoltageReduction::VR15, 1.0);
        assert!(all.energy > 1.0);
    }

    #[test]
    #[should_panic(expected = "calibrated range")]
    fn out_of_range_fraction_rejected() {
        power_ratio_at(0.5);
    }
}
