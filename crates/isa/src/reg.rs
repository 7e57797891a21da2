//! Architectural register names.

use serde::{Deserialize, Serialize};

/// An integer register (`x0`–`x31`); `x0` is hardwired to zero.
///
/// ABI aliases follow RISC-V conventions (`a0`–`a7` arguments, `t*`
/// temporaries, `s*` saved, `sp` stack pointer, `ra` return address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// Construct from a register number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn new(n: u8) -> Reg {
        assert!(n < 32, "register number out of range");
        Reg(n)
    }

    /// The register number (0–31).
    pub const fn num(self) -> u8 {
        self.0
    }

    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    /// Return address.
    pub const RA: Reg = Reg(1);
    /// Stack pointer.
    pub const SP: Reg = Reg(2);
    /// Global pointer.
    pub const GP: Reg = Reg(3);
    /// Thread pointer.
    pub const TP: Reg = Reg(4);
    /// Temporary 0.
    pub const T0: Reg = Reg(5);
    /// Temporary 1.
    pub const T1: Reg = Reg(6);
    /// Temporary 2.
    pub const T2: Reg = Reg(7);
    /// Saved 0 / frame pointer.
    pub const S0: Reg = Reg(8);
    /// Saved 1.
    pub const S1: Reg = Reg(9);
    /// Argument/return 0.
    pub const A0: Reg = Reg(10);
    /// Argument/return 1.
    pub const A1: Reg = Reg(11);
    /// Argument 2.
    pub const A2: Reg = Reg(12);
    /// Argument 3.
    pub const A3: Reg = Reg(13);
    /// Argument 4.
    pub const A4: Reg = Reg(14);
    /// Argument 5.
    pub const A5: Reg = Reg(15);
    /// Argument 6.
    pub const A6: Reg = Reg(16);
    /// Argument 7 / syscall number.
    pub const A7: Reg = Reg(17);
    /// Saved 2.
    pub const S2: Reg = Reg(18);
    /// Saved 3.
    pub const S3: Reg = Reg(19);
    /// Saved 4.
    pub const S4: Reg = Reg(20);
    /// Saved 5.
    pub const S5: Reg = Reg(21);
    /// Saved 6.
    pub const S6: Reg = Reg(22);
    /// Saved 7.
    pub const S7: Reg = Reg(23);
    /// Saved 8.
    pub const S8: Reg = Reg(24);
    /// Saved 9.
    pub const S9: Reg = Reg(25);
    /// Saved 10.
    pub const S10: Reg = Reg(26);
    /// Saved 11.
    pub const S11: Reg = Reg(27);
    /// Temporary 3.
    pub const T3: Reg = Reg(28);
    /// Temporary 4.
    pub const T4: Reg = Reg(29);
    /// Temporary 5.
    pub const T5: Reg = Reg(30);
    /// Temporary 6.
    pub const T6: Reg = Reg(31);
}

/// A floating-point register (`f0`–`f31`), holding 64 raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FReg(u8);

impl FReg {
    /// Construct from a register number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn new(n: u8) -> FReg {
        assert!(n < 32, "fp register number out of range");
        FReg(n)
    }

    /// The register number (0–31).
    pub const fn num(self) -> u8 {
        self.0
    }
}

/// All 32 FP register constants `F0`..`F31` are available via [`FReg::new`];
/// a few common ones are named for convenience.
impl FReg {
    /// FP temporary 0.
    pub const F0: FReg = FReg(0);
    /// FP temporary 1.
    pub const F1: FReg = FReg(1);
    /// FP temporary 2.
    pub const F2: FReg = FReg(2);
    /// FP temporary 3.
    pub const F3: FReg = FReg(3);
    /// FP temporary 4.
    pub const F4: FReg = FReg(4);
    /// FP temporary 5.
    pub const F5: FReg = FReg(5);
    /// FP temporary 6.
    pub const F6: FReg = FReg(6);
    /// FP temporary 7.
    pub const F7: FReg = FReg(7);
    /// FP saved 0.
    pub const F8: FReg = FReg(8);
    /// FP saved 1.
    pub const F9: FReg = FReg(9);
    /// FP argument 0.
    pub const F10: FReg = FReg(10);
    /// FP argument 1.
    pub const F11: FReg = FReg(11);
    /// FP argument 2.
    pub const F12: FReg = FReg(12);
    /// FP argument 3.
    pub const F13: FReg = FReg(13);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_bounds_checked() {
        Reg::new(32);
    }
}
