//! Delay-annotated standard-cell library.

use crate::gate::GateKind;
use serde::{Deserialize, Serialize};

/// A standard-cell library: one nominal propagation delay per cell kind, in
/// nanoseconds.
///
/// This substitutes the NanGate 45 nm CCS library of the paper's flow. The
/// [`CellLibrary::nangate45_like`] corner uses delays representative of a
/// 45 nm process at 1.1 V / 25 °C, including an average fanout/wire load
/// (post-place-and-route netlists fold interconnect delay into effective
/// cell delay, which is the abstraction `tei-timing` consumes).
///
/// ```
/// use tei_netlist::{CellLibrary, GateKind};
/// let lib = CellLibrary::nangate45_like();
/// assert!(lib.delay(GateKind::Xor2) > lib.delay(GateKind::Not));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    delays: [f64; 13],
}

fn slot(kind: GateKind) -> usize {
    match kind {
        GateKind::Input => 0,
        GateKind::Const0 => 1,
        GateKind::Const1 => 2,
        GateKind::Buf => 3,
        GateKind::Not => 4,
        GateKind::And2 => 5,
        GateKind::Or2 => 6,
        GateKind::Nand2 => 7,
        GateKind::Nor2 => 8,
        GateKind::Xor2 => 9,
        GateKind::Xnor2 => 10,
        GateKind::Mux2 => 11,
        GateKind::Maj3 => 12,
    }
}

impl CellLibrary {
    /// Build a library from an explicit `(kind, delay_ns)` table. Kinds not
    /// listed default to zero delay.
    ///
    /// # Panics
    ///
    /// Panics if any delay is negative or not finite.
    pub fn from_table(name: impl Into<String>, table: &[(GateKind, f64)]) -> Self {
        let mut delays = [0.0; 13];
        for &(kind, d) in table {
            assert!(d.is_finite() && d >= 0.0, "invalid delay {d} for {kind:?}");
            delays[slot(kind)] = d;
        }
        CellLibrary {
            name: name.into(),
            delays,
        }
    }

    /// A 45 nm-class typical corner (1.1 V, 25 °C) with averaged wire load.
    pub fn nangate45_like() -> Self {
        use GateKind::*;
        CellLibrary::from_table(
            "nangate45-like-tt-1v1-25c",
            &[
                (Buf, 0.045),
                (Not, 0.030),
                (And2, 0.050),
                (Or2, 0.055),
                (Nand2, 0.035),
                (Nor2, 0.040),
                (Xor2, 0.075),
                (Xnor2, 0.075),
                (Mux2, 0.070),
                (Maj3, 0.085),
            ],
        )
    }

    /// A unit-delay library (all logic cells 1.0 ns); handy for depth checks.
    pub fn unit() -> Self {
        use GateKind::*;
        let table: Vec<(GateKind, f64)> =
            [Buf, Not, And2, Or2, Nand2, Nor2, Xor2, Xnor2, Mux2, Maj3]
                .into_iter()
                .map(|k| (k, 1.0))
                .collect();
        CellLibrary::from_table("unit", &table)
    }

    /// Nominal propagation delay of `kind`, in nanoseconds.
    #[inline]
    pub fn delay(&self, kind: GateKind) -> f64 {
        self.delays[slot(kind)]
    }

    /// A copy of this library with every delay multiplied by `factor`,
    /// e.g. to model a slower corner.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "invalid factor");
        let mut out = self.clone();
        for d in &mut out.delays {
            *d *= factor;
        }
        out.name = format!("{}*{factor}", self.name);
        out
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::nangate45_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_and_constants_are_free() {
        let lib = CellLibrary::nangate45_like();
        assert_eq!(lib.delay(GateKind::Input), 0.0);
        assert_eq!(lib.delay(GateKind::Const0), 0.0);
        assert_eq!(lib.delay(GateKind::Const1), 0.0);
    }

    #[test]
    fn all_logic_cells_have_positive_delay() {
        let lib = CellLibrary::nangate45_like();
        for &k in GateKind::all_logic() {
            if matches!(k, GateKind::Const0 | GateKind::Const1) {
                continue;
            }
            assert!(lib.delay(k) > 0.0, "{k:?}");
        }
    }

    #[test]
    fn scaling_scales_every_delay() {
        let lib = CellLibrary::nangate45_like();
        let double = lib.scaled(2.0);
        for &k in GateKind::all_logic() {
            assert!((double.delay(k) - 2.0 * lib.delay(k)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_rejected() {
        CellLibrary::from_table("bad", &[(GateKind::Not, -1.0)]);
    }
}
