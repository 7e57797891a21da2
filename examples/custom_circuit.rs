//! Use the circuit substrate directly: build a custom datapath (a 16-bit
//! multiply-accumulate unit), calibrate it, and characterize its timing
//! error behavior under voltage reduction — the library is not limited to
//! the bundled FPU.
//!
//! ```text
//! cargo run --release --example custom_circuit
//! ```

use tei::netlist::{CellLibrary, Netlist, NetlistStats};
use tei::timing::{ArrivalSim, Sta, VoltageReduction};

fn main() {
    // A 16×16→32-bit multiplier with a 32-bit accumulator input.
    let mut nl = Netlist::new("mac16", CellLibrary::nangate45_like());
    let a = nl.add_input_bus("a", 16);
    let b = nl.add_input_bus("b", 16);
    let acc = nl.add_input_bus("acc", 32);
    nl.begin_block("mac/multiply");
    let p = nl.array_multiplier(&a, &b);
    nl.begin_block("mac/accumulate");
    let zero = nl.const_bit(false);
    let (sum, _) = nl.ripple_add(&p, &acc, zero);
    nl.mark_output_bus("result", &sum);

    let stats = NetlistStats::of(&nl);
    println!(
        "mac16: {} gates ({} inputs)",
        stats.logic_gates, stats.inputs
    );

    // Calibrate the static critical path to 3.8 ns; this MAC block runs on
    // a tight 3.0 ns clock domain, so its dynamically excited paths sit
    // close to the capturing edge.
    let clk = 3.0;
    let sta = Sta::analyze(&nl);
    nl.scale_all_delays(3.8 / sta.max_delay());
    println!("calibrated static critical path: 3.80 ns (clock {clk:.1} ns)");

    // Functional check: 123 × 456 + 789.
    let out = nl.eval_u64(&[("a", 123), ("b", 456), ("acc", 789)]);
    assert_eq!(out["result"], 123 * 456 + 789);
    println!("functional check: 123 × 456 + 789 = {}", out["result"]);

    // Dynamic timing analysis across a small operand sweep.
    let encode = |a_v: u64, b_v: u64, acc_v: u64| -> Vec<bool> {
        (0..16)
            .map(|i| (a_v >> i) & 1 == 1)
            .chain((0..16).map(|i| (b_v >> i) & 1 == 1))
            .chain((0..32).map(|i| (acc_v >> i) & 1 == 1))
            .collect()
    };
    let prev = encode(0x0003, 0x0007, 0);
    let cur = encode(0xffff, 0xfffe, 0xdead_beef);
    let r = ArrivalSim::run(&nl, &prev, &cur);
    let port = nl.output_port("result").unwrap();
    for vr in [
        VoltageReduction::Nominal,
        VoltageReduction::VR15,
        VoltageReduction::VR20,
        VoltageReduction::Vdd(0.825),
    ] {
        // Bit i of the mask: result bit i latches a stale value.
        let k = vr.derating_factor();
        let mask = port
            .iter()
            .enumerate()
            .filter(|&(_, &n)| r.is_error(n, clk, k))
            .fold(0u32, |m, (i, _)| m | 1 << i);
        println!(
            "{:9}: {} corrupted output bits (mask {mask:#010x})",
            vr.label(),
            mask.count_ones()
        );
    }

    // Settle-time spread over operand values (the workload-dependence the
    // paper's WA model captures).
    let mut narrow_max = 0.0f64;
    let mut wide_max = 0.0f64;
    for i in 0..40u64 {
        let narrow = encode(i + 1, i + 2, 0);
        let wide = encode(0x8000 | (i * 997), 0x7fff ^ (i * 131), i * 0x0101_0101);
        let rn = ArrivalSim::run(&nl, &encode(0, 0, 0), &narrow);
        let rw = ArrivalSim::run(&nl, &encode(0, 0, 0), &wide);
        narrow_max = narrow_max.max(rn.max_settle(port));
        wide_max = wide_max.max(rw.max_settle(port));
    }
    println!(
        "settle-time spread: narrow operands ≤ {narrow_max:.2} ns, wide operands ≤ {wide_max:.2} ns"
    );
}
