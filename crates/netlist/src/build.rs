//! Combinational datapath builders.
//!
//! These methods extend [`Netlist`] with the RTL-style building blocks the
//! gate-level FPU generators are assembled from: adders, shifters,
//! leading-zero counters, multiplier and divider arrays, and reductions.
//!
//! Buses are `Vec<NetId>` in LSB-first order throughout.

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};

impl Netlist {
    // ------------------------------------------------------------------
    // Single-bit primitives
    // ------------------------------------------------------------------

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Not, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Buf, &[a])
    }

    /// 2-input AND.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::And2, &[a, b])
    }

    /// 2-input OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Or2, &[a, b])
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Xor2, &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Xnor2, &[a, b])
    }

    /// 2-input NOR.
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Nor2, &[a, b])
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Mux2, &[sel, a, b])
    }

    /// 3-input majority.
    pub fn maj(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.add_gate(GateKind::Maj3, &[a, b, c])
    }

    /// 3-input AND.
    pub fn and3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        let ab = self.and(a, b);
        self.and(ab, c)
    }

    /// 3-input OR.
    pub fn or3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        let ab = self.or(a, b);
        self.or(ab, c)
    }

    // ------------------------------------------------------------------
    // Bitwise bus operations
    // ------------------------------------------------------------------

    /// Bitwise NOT of a bus.
    pub fn not_bus(&mut self, a: &[NetId]) -> Vec<NetId> {
        a.iter().map(|&x| self.not(x)).collect()
    }

    /// Bitwise AND of two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch (also true of the other bitwise bus ops).
    pub fn and_bus(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect()
    }

    /// Bitwise XOR of two equal-width buses.
    pub fn xor_bus(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// XOR every bit of `a` with the single bit `s` (conditional invert).
    pub fn xor_bit_bus(&mut self, a: &[NetId], s: NetId) -> Vec<NetId> {
        a.iter().map(|&x| self.xor(x, s)).collect()
    }

    /// AND every bit of `a` with the single bit `s` (bus gating).
    pub fn and_bit_bus(&mut self, a: &[NetId], s: NetId) -> Vec<NetId> {
        a.iter().map(|&x| self.and(x, s)).collect()
    }

    /// Per-bit 2:1 mux between equal-width buses: `sel ? b : a`.
    pub fn mux_bus(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    fn reduce(&mut self, bits: &[NetId], kind: GateKind) -> NetId {
        assert!(!bits.is_empty(), "empty reduction");
        let mut layer = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.add_gate(kind, &[pair[0], pair[1]])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Balanced OR-reduction tree.
    pub fn or_reduce(&mut self, bits: &[NetId]) -> NetId {
        self.reduce(bits, GateKind::Or2)
    }

    /// Balanced AND-reduction tree.
    pub fn and_reduce(&mut self, bits: &[NetId]) -> NetId {
        self.reduce(bits, GateKind::And2)
    }

    /// 1 iff the bus is all zeros.
    pub fn is_zero(&mut self, bits: &[NetId]) -> NetId {
        let any = self.or_reduce(bits);
        self.not(any)
    }

    /// 1 iff the two equal-width buses are bit-for-bit equal.
    pub fn eq_bus(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        let eq: Vec<NetId> = a.iter().zip(b).map(|(&x, &y)| self.xnor(x, y)).collect();
        self.and_reduce(&eq)
    }

    // ------------------------------------------------------------------
    // Addition and subtraction
    // ------------------------------------------------------------------

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let carry = self.maj(a, b, cin);
        (sum, carry)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Ripple-carry adder over equal-width buses. Returns `(sum, carry_out)`.
    ///
    /// The serial carry chain is deliberate: its data-dependent carry
    /// propagation length is what makes dynamic timing analysis interesting.
    pub fn ripple_add(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// `a - b` over equal-width buses (two's complement).
    /// Returns `(difference, no_borrow)`; `no_borrow == 1` iff `a >= b`.
    pub fn ripple_sub(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        let nb = self.not_bus(b);
        let one = self.const_bit(true);
        self.ripple_add(a, &nb, one)
    }

    /// Increment a bus by one. Returns `(result, carry_out)`.
    pub fn incrementer(&mut self, a: &[NetId]) -> (Vec<NetId>, NetId) {
        let mut carry = self.const_bit(true);
        let mut out = Vec::with_capacity(a.len());
        for &x in a {
            out.push(self.xor(x, carry));
            carry = self.and(x, carry);
        }
        (out, carry)
    }

    /// Two's-complement negation of a bus.
    pub fn negate(&mut self, a: &[NetId]) -> Vec<NetId> {
        let inv = self.not_bus(a);
        self.incrementer(&inv).0
    }

    /// Unsigned `a < b` for equal-width buses.
    pub fn ult(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        let (_, no_borrow) = self.ripple_sub(a, b);
        self.not(no_borrow)
    }

    // ------------------------------------------------------------------
    // Shifters
    // ------------------------------------------------------------------

    /// Logical barrel shifter right by a variable amount; shifted-in bits are
    /// `fill`. Also returns the OR ("sticky") of all shifted-out bits, which
    /// floating-point alignment needs for round/sticky computation.
    ///
    /// Amounts ≥ the bus width shift everything out.
    pub fn barrel_shift_right_sticky(
        &mut self,
        bus: &[NetId],
        amount: &[NetId],
        fill: NetId,
    ) -> (Vec<NetId>, NetId) {
        let w = bus.len();
        let mut cur = bus.to_vec();
        let mut sticky = self.const_bit(false);
        for (stage, &sel) in amount.iter().enumerate() {
            let shift = 1usize << stage;
            // Bits dropped by this stage if it is enabled.
            let dropped: Vec<NetId> = cur.iter().take(shift.min(w)).copied().collect();
            let stage_sticky = self.or_reduce(&dropped);
            let gated = self.and(stage_sticky, sel);
            sticky = self.or(sticky, gated);
            // Shifted version of the current bus.
            let shifted: Vec<NetId> = (0..w)
                .map(|i| if i + shift < w { cur[i + shift] } else { fill })
                .collect();
            cur = self.mux_bus(sel, &cur, &shifted);
            if shift >= w {
                // Further stages shift everything out; keep folding sticky
                // but the data pattern no longer changes shape.
            }
        }
        (cur, sticky)
    }

    /// Logical barrel shifter left by a variable amount (fill = 0).
    ///
    /// Amounts ≥ the bus width shift everything out.
    pub fn barrel_shift_left(&mut self, bus: &[NetId], amount: &[NetId]) -> Vec<NetId> {
        let w = bus.len();
        let zero = self.const_bit(false);
        let mut cur = bus.to_vec();
        for (stage, &sel) in amount.iter().enumerate() {
            let shift = 1usize << stage;
            let shifted: Vec<NetId> = (0..w)
                .map(|i| if i >= shift { cur[i - shift] } else { zero })
                .collect();
            cur = self.mux_bus(sel, &cur, &shifted);
        }
        cur
    }

    // ------------------------------------------------------------------
    // Counting
    // ------------------------------------------------------------------

    /// Population count. Output width is `ceil(log2(n+1))`.
    pub fn popcount(&mut self, bits: &[NetId]) -> Vec<NetId> {
        assert!(!bits.is_empty(), "empty popcount");
        match bits.len() {
            1 => vec![bits[0]],
            2 => {
                let (s, c) = self.half_adder(bits[0], bits[1]);
                vec![s, c]
            }
            3 => {
                let (s, c) = self.full_adder(bits[0], bits[1], bits[2]);
                vec![s, c]
            }
            n => {
                let (lo, hi) = bits.split_at(n / 2);
                let a = self.popcount(lo);
                let b = self.popcount(hi);
                self.add_unequal(&a, &b)
            }
        }
    }

    /// Add two buses of possibly different widths; result is
    /// `max(width) + 1` bits.
    pub fn add_unequal(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        let w = a.len().max(b.len());
        let zero = self.const_bit(false);
        let ax: Vec<NetId> = (0..w).map(|i| a.get(i).copied().unwrap_or(zero)).collect();
        let bx: Vec<NetId> = (0..w).map(|i| b.get(i).copied().unwrap_or(zero)).collect();
        let (mut sum, cout) = self.ripple_add(&ax, &bx, zero);
        sum.push(cout);
        sum
    }

    /// Leading-zero count of a bus (zeros from the MSB end; bus is
    /// LSB-first, so the MSB is the last element). Output width is
    /// `ceil(log2(n+1))`; an all-zero input yields `n`.
    pub fn leading_zero_count(&mut self, bus: &[NetId]) -> Vec<NetId> {
        assert!(!bus.is_empty(), "empty lzc");
        // prefix[k] = OR of the k+1 most significant bits. The serial scan
        // is deliberate: its settle time tracks the leading-zero run length,
        // a key source of data-dependent timing spread in normalization.
        let mut flags = Vec::with_capacity(bus.len());
        let mut prefix: Option<NetId> = None;
        for &bit in bus.iter().rev() {
            let p = match prefix {
                None => bit,
                Some(prev) => self.or(prev, bit),
            };
            prefix = Some(p);
            flags.push(self.not(p));
        }
        self.popcount(&flags)
    }

    // ------------------------------------------------------------------
    // Multiplication
    // ------------------------------------------------------------------

    /// Unsigned array multiplier with carry-save column reduction and a
    /// final ripple adder. Result width is `a.len() + b.len()`.
    pub fn array_multiplier(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert!(!a.is_empty() && !b.is_empty(), "empty multiplier operand");
        let wa = a.len();
        let wb = b.len();
        let wout = wa + wb;
        // Partial products, bucketed by output column.
        let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); wout];
        for (i, &bi) in b.iter().enumerate() {
            for (j, &aj) in a.iter().enumerate() {
                let pp = self.and(aj, bi);
                columns[i + j].push(pp);
            }
        }
        // Carry-save reduction until every column holds at most 2 bits.
        loop {
            let max = columns.iter().map(Vec::len).max().unwrap_or(0);
            if max <= 2 {
                break;
            }
            let mut next: Vec<Vec<NetId>> = vec![Vec::new(); wout + 1];
            for (col, bits) in columns.iter().enumerate() {
                let mut it = bits.chunks(3);
                for chunk in &mut it {
                    match chunk.len() {
                        3 => {
                            let (s, c) = self.full_adder(chunk[0], chunk[1], chunk[2]);
                            next[col].push(s);
                            next[col + 1].push(c);
                        }
                        2 => {
                            let (s, c) = self.half_adder(chunk[0], chunk[1]);
                            next[col].push(s);
                            next[col + 1].push(c);
                        }
                        _ => next[col].push(chunk[0]),
                    }
                }
            }
            next.truncate(wout);
            columns = next;
        }
        // Final carry-propagate add of the two remaining rows.
        let zero = self.const_bit(false);
        let row0: Vec<NetId> = columns
            .iter()
            .map(|c| c.first().copied().unwrap_or(zero))
            .collect();
        let row1: Vec<NetId> = columns
            .iter()
            .map(|c| c.get(1).copied().unwrap_or(zero))
            .collect();
        let (sum, _) = self.ripple_add(&row0, &row1, zero);
        sum
    }

    // ------------------------------------------------------------------
    // Division
    // ------------------------------------------------------------------

    /// Unsigned non-restoring array divider.
    ///
    /// Divides an `n`-bit dividend by an `m`-bit divisor, producing an
    /// `n`-bit quotient and an `m`-bit remainder.
    ///
    /// The divisor must be non-zero for meaningful results (a zero divisor
    /// produces unspecified quotient/remainder values, as in hardware; the
    /// FPU layer detects division by zero before the array).
    pub fn nonrestoring_divider(
        &mut self,
        dividend: &[NetId],
        divisor: &[NetId],
    ) -> (Vec<NetId>, Vec<NetId>) {
        assert!(
            !dividend.is_empty() && !divisor.is_empty(),
            "empty divider operand"
        );
        let n = dividend.len();
        let m = divisor.len();
        let w = m + 2; // partial remainder width (signed)
        let zero = self.const_bit(false);
        // Sign/zero-extended divisor.
        let dext: Vec<NetId> = (0..w)
            .map(|i| divisor.get(i).copied().unwrap_or(zero))
            .collect();
        let mut r: Vec<NetId> = vec![zero; w];
        let mut sign = zero; // R starts at 0 (non-negative)
        let mut quotient = vec![zero; n];
        for i in (0..n).rev() {
            // R = (R << 1) | dividend[i], keeping width w.
            let mut shifted = Vec::with_capacity(w);
            shifted.push(dividend[i]);
            shifted.extend_from_slice(&r[..w - 1]);
            // If R >= 0 subtract the divisor, else add it:
            // operand = D ^ s, cin = s with s = !sign.
            let s = self.not(sign);
            let operand = self.xor_bit_bus(&dext, s);
            let (next, _) = self.ripple_add(&shifted, &operand, s);
            sign = next[w - 1];
            quotient[i] = self.not(sign);
            r = next;
        }
        // Remainder correction: if R is negative, add D back once.
        let gated = self.and_bit_bus(&dext, sign);
        let (fixed, _) = self.ripple_add(&r, &gated, zero);
        (quotient, fixed[..m].to_vec())
    }

    /// Non-restoring divider with a preloaded partial remainder.
    ///
    /// Divides the value `(high << low.len()) | low` by `divisor`, where the
    /// caller guarantees `high < divisor` numerically. Only `low.len()`
    /// array rows are generated (one per quotient bit), which is how the
    /// FPU mantissa divider avoids rows for the quotient bits that are
    /// structurally zero. Returns `(quotient, remainder)` of widths
    /// `low.len()` and `divisor.len()`.
    pub fn nonrestoring_divider_preloaded(
        &mut self,
        high: &[NetId],
        low: &[NetId],
        divisor: &[NetId],
    ) -> (Vec<NetId>, Vec<NetId>) {
        assert!(
            !low.is_empty() && !divisor.is_empty(),
            "empty divider operand"
        );
        let m = divisor.len();
        let n = low.len();
        let w = m + 2;
        assert!(high.len() <= m, "preload must be narrower than the divisor");
        let zero = self.const_bit(false);
        let dext: Vec<NetId> = (0..w)
            .map(|i| divisor.get(i).copied().unwrap_or(zero))
            .collect();
        let mut r: Vec<NetId> = (0..w)
            .map(|i| high.get(i).copied().unwrap_or(zero))
            .collect();
        let mut sign = zero; // high < divisor, so R starts non-negative
        let mut quotient = vec![zero; n];
        for i in (0..n).rev() {
            let mut shifted = Vec::with_capacity(w);
            shifted.push(low[i]);
            shifted.extend_from_slice(&r[..w - 1]);
            let s = self.not(sign);
            let operand = self.xor_bit_bus(&dext, s);
            let (next, _) = self.ripple_add(&shifted, &operand, s);
            sign = next[w - 1];
            quotient[i] = self.not(sign);
            r = next;
        }
        let gated = self.and_bit_bus(&dext, sign);
        let (fixed, _) = self.ripple_add(&r, &gated, zero);
        (quotient, fixed[..m].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;
    use crate::netlist::bus_value_u64;

    fn fresh() -> Netlist {
        Netlist::new("t", CellLibrary::unit())
    }

    /// Evaluate a netlist whose inputs were declared as buses `a` then `b`.
    fn eval2(nl: &Netlist, wa: usize, wb: usize, a: u64, b: u64) -> Vec<bool> {
        let mut bits = Vec::new();
        for i in 0..wa {
            bits.push((a >> i) & 1 == 1);
        }
        for i in 0..wb {
            bits.push((b >> i) & 1 == 1);
        }
        nl.eval(&bits)
    }

    #[test]
    fn ripple_add_matches_integer_add() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        for (x, y) in [(0u64, 0u64), (255, 1), (127, 128), (200, 100), (13, 42)] {
            let v = eval2(&nl, 8, 8, x, y);
            assert_eq!(bus_value_u64(&v, &sum), (x + y) & 0xff);
            assert_eq!(v[cout.index()] as u64, (x + y) >> 8);
        }
    }

    #[test]
    fn ripple_sub_matches_integer_sub() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let (diff, no_borrow) = nl.ripple_sub(&a, &b);
        for (x, y) in [(5u64, 3u64), (3, 5), (255, 255), (0, 1), (128, 127)] {
            let v = eval2(&nl, 8, 8, x, y);
            assert_eq!(bus_value_u64(&v, &diff), x.wrapping_sub(y) & 0xff);
            assert_eq!(v[no_borrow.index()], x >= y);
        }
    }

    #[test]
    fn ult_orders_correctly() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 6);
        let b = nl.add_input_bus("b", 6);
        let lt = nl.ult(&a, &b);
        for (x, y) in [(0u64, 0u64), (1, 2), (2, 1), (63, 62), (31, 32)] {
            let v = eval2(&nl, 6, 6, x, y);
            assert_eq!(v[lt.index()], x < y, "{x} < {y}");
        }
    }

    #[test]
    fn incrementer_and_negate() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 8);
        let (inc, _) = nl.incrementer(&a);
        let neg = nl.negate(&a);
        for x in [0u64, 1, 127, 128, 254, 255] {
            let v = eval2(&nl, 8, 0, x, 0);
            assert_eq!(bus_value_u64(&v, &inc), (x + 1) & 0xff);
            assert_eq!(bus_value_u64(&v, &neg), x.wrapping_neg() & 0xff);
        }
    }

    #[test]
    fn shifters_match_integer_shifts() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 16);
        let amt = nl.add_input_bus("amt", 5);
        let left = nl.barrel_shift_left(&a, &amt);
        for (x, s) in [
            (0xffffu64, 4u64),
            (0x8001, 1),
            (0x1234, 12),
            (0xbeef, 0),
            (0xbeef, 16),
            (0xbeef, 31),
        ] {
            let mut bits = Vec::new();
            for i in 0..16 {
                bits.push((x >> i) & 1 == 1);
            }
            for i in 0..5 {
                bits.push((s >> i) & 1 == 1);
            }
            let v = nl.eval(&bits);
            let expect_l = if s >= 16 { 0 } else { (x << s) & 0xffff };
            assert_eq!(bus_value_u64(&v, &left), expect_l, "{x:#x} << {s}");
        }
    }

    #[test]
    fn right_shift_sticky_collects_dropped_bits() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 8);
        let amt = nl.add_input_bus("amt", 4);
        let zero = nl.const_bit(false);
        let (_, sticky) = nl.barrel_shift_right_sticky(&a, &amt, zero);
        for (x, s) in [
            (0b0000_0100u64, 2u64),
            (0b0000_0100, 3),
            (0b0000_0011, 2),
            (0b1000_0000, 8),
            (0, 7),
        ] {
            let mut bits = Vec::new();
            for i in 0..8 {
                bits.push((x >> i) & 1 == 1);
            }
            for i in 0..4 {
                bits.push((s >> i) & 1 == 1);
            }
            let v = nl.eval(&bits);
            let dropped_mask = if s >= 64 {
                u64::MAX
            } else {
                (1u64 << s.min(63)) - 1
            };
            let expect = (x & dropped_mask) != 0;
            assert_eq!(v[sticky.index()], expect, "x={x:#b} s={s}");
        }
    }

    #[test]
    fn popcount_small_and_large() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 13);
        let pc = nl.popcount(&a);
        for x in [0u64, 1, 0b1010101010101, 0x1fff, 0b11, 0b1000000000000] {
            let v = eval2(&nl, 13, 0, x, 0);
            assert_eq!(bus_value_u64(&v, &pc), x.count_ones() as u64, "{x:#b}");
        }
    }

    #[test]
    fn lzc_counts_from_msb() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 10);
        let lzc = nl.leading_zero_count(&a);
        for x in [0u64, 1, 0x200, 0x3ff, 0x100, 0x0ff] {
            let v = eval2(&nl, 10, 0, x, 0);
            let expect = if x == 0 {
                10
            } else {
                10 - (64 - x.leading_zeros() as u64)
            };
            assert_eq!(bus_value_u64(&v, &lzc), expect, "{x:#x}");
        }
    }

    #[test]
    fn multiplier_matches_integer_multiply() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 7);
        let b = nl.add_input_bus("b", 9);
        let p = nl.array_multiplier(&a, &b);
        assert_eq!(p.len(), 16);
        for (x, y) in [
            (0u64, 0u64),
            (1, 1),
            (127, 511),
            (100, 300),
            (85, 170),
            (127, 1),
        ] {
            let v = eval2(&nl, 7, 9, x, y);
            assert_eq!(bus_value_u64(&v, &p), x * y, "{x}*{y}");
        }
    }

    #[test]
    fn divider_matches_integer_division() {
        let mut nl = fresh();
        let n = nl.add_input_bus("n", 12);
        let d = nl.add_input_bus("d", 6);
        let (q, r) = nl.nonrestoring_divider(&n, &d);
        assert_eq!(q.len(), 12);
        assert_eq!(r.len(), 6);
        for (x, y) in [
            (0u64, 1u64),
            (100, 7),
            (4095, 63),
            (4095, 1),
            (63, 63),
            (62, 63),
            (1000, 3),
            (2048, 32),
        ] {
            let v = eval2(&nl, 12, 6, x, y);
            assert_eq!(bus_value_u64(&v, &q), x / y, "{x}/{y} quotient");
            assert_eq!(bus_value_u64(&v, &r), x % y, "{x}%{y} remainder");
        }
    }

    #[test]
    fn reductions() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 5);
        let o = nl.or_reduce(&a);
        let an = nl.and_reduce(&a);
        let z = nl.is_zero(&a);
        for v in [0u64, 1, 0b11111, 0b10101, 0b01000] {
            let vals = eval2(&nl, 5, 0, v, 0);
            assert_eq!(vals[o.index()], v != 0);
            assert_eq!(vals[an.index()], v == 0b11111);
            assert_eq!(vals[z.index()], v == 0);
        }
    }

    #[test]
    fn eq_bus_detects_equality() {
        let mut nl = fresh();
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let eq = nl.eq_bus(&a, &b);
        for (x, y) in [(1u64, 1u64), (1, 2), (255, 255), (0, 128)] {
            let v = eval2(&nl, 8, 8, x, y);
            assert_eq!(v[eq.index()], x == y);
        }
    }
}
