//! Test support shared by the detailed-core suites: a seeded generator of
//! random terminating programs and the microarchitectural configurations
//! the co-simulation sweeps. Included with `#[path]` by
//! `crates/uarch/tests/cosim.rs` and `crates/workloads/tests/golden.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_isa::{FReg, Program, ProgramBuilder, Reg, Syscall};
use tei_uarch::OooConfig;

/// Build a random but guaranteed-terminating program: a counted loop whose
/// body mixes ALU ops, FP arithmetic, scratch-memory traffic, and
/// data-dependent forward branches.
pub fn random_program(seed: u64, body_len: usize, iters: i64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = ProgramBuilder::new();
    let scratch = p.zeros(512);
    // Seed some FP data.
    let table: Vec<f64> = (0..8)
        .map(|_| f64::from_bits((1023u64 + rng.gen_range(0u64..4)) << 52 | rng.gen::<u64>() >> 12))
        .collect();
    let table_addr = p.doubles(&table);

    p.la(Reg::S0, scratch);
    p.la(Reg::S1, table_addr);
    for i in 0..6 {
        p.fld(FReg::new(i), (8 * i as i16) % 64, Reg::S1);
    }
    for r in [Reg::T0, Reg::T1, Reg::T2, Reg::T3] {
        p.li(r, rng.gen_range(-100..100));
    }
    p.li(Reg::S2, iters);
    let head = p.here();

    let int_regs = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4];
    let fp_regs: Vec<FReg> = (0..6).map(FReg::new).collect();
    let mut skip_targets: Vec<(usize, tei_isa::Label)> = Vec::new();
    for b in 0..body_len {
        // Close any due forward branches.
        skip_targets.retain(|(due, l)| {
            if *due <= b {
                p.bind(*l);
                false
            } else {
                true
            }
        });
        let rd = int_regs[rng.gen_range(0..int_regs.len())];
        let r1 = int_regs[rng.gen_range(0..int_regs.len())];
        let r2 = int_regs[rng.gen_range(0..int_regs.len())];
        let fd = fp_regs[rng.gen_range(0..fp_regs.len())];
        let f1 = fp_regs[rng.gen_range(0..fp_regs.len())];
        let f2 = fp_regs[rng.gen_range(0..fp_regs.len())];
        match rng.gen_range(0..14) {
            0 => p.add(rd, r1, r2),
            1 => p.sub(rd, r1, r2),
            2 => p.xor(rd, r1, r2),
            3 => p.mul(rd, r1, r2),
            4 => p.slli(rd, r1, rng.gen_range(0..8)),
            5 => p.fadd_d(fd, f1, f2),
            6 => p.fsub_d(fd, f1, f2),
            7 => p.fmul_d(fd, f1, f2),
            8 => {
                // Store then load through scratch (exercises forwarding).
                let off = (rng.gen_range(0..56) * 8) as i16;
                p.sd(r1, off, Reg::S0);
                p.ld(rd, off, Reg::S0);
            }
            9 => {
                let off = (rng.gen_range(0..56) * 8) as i16;
                p.fsd(f1, off, Reg::S0);
                p.fld(fd, off, Reg::S0);
            }
            10 => {
                // Data-dependent forward skip (mispredict source).
                let l = p.label();
                p.blt(r1, r2, l);
                skip_targets.push((b + 1 + rng.gen_range(0usize..3), l));
            }
            11 => p.fcvt_d_l(fd, r1),
            12 => p.fcvt_l_d(rd, f1),
            _ => p.andi(rd, r1, 0xff),
        }
    }
    for (_, l) in skip_targets {
        p.bind(l);
    }
    p.addi(Reg::S2, Reg::S2, -1);
    p.bne(Reg::S2, Reg::ZERO, head);
    // Emit observable state.
    for r in int_regs {
        p.mv(Reg::A0, r);
        p.syscall(Syscall::PutInt);
    }
    for f in &fp_regs {
        p.fmv_d(FReg::F10, *f);
        p.syscall(Syscall::PutF64);
    }
    p.halt();
    p.finish()
}

/// Machine shapes the co-simulation sweeps: narrow, wide, a thrashing
/// two-line cache, and a one-entry (always aliasing) branch predictor.
pub fn sweep_configs() -> [OooConfig; 4] {
    [
        OooConfig {
            fetch_width: 1,
            issue_width: 1,
            commit_width: 1,
            rob_entries: 8,
            iq_entries: 4,
            alu_units: 1,
            ..Default::default()
        },
        OooConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 128,
            iq_entries: 64,
            alu_units: 4,
            ..Default::default()
        },
        OooConfig {
            cache_lines: 2,
            miss_latency: 60,
            ..Default::default()
        },
        OooConfig {
            bp_entries: 1, // pathological aliasing: constant mispredicts
            ..Default::default()
        },
    ]
}
