//! Test support shared by the detailed-core suites: seeded generators of
//! random terminating programs and the microarchitectural configurations
//! the co-simulation sweeps. Included with `#[path]` by
//! `crates/uarch/tests/cosim.rs` and `crates/workloads/tests/golden.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_isa::{FReg, Instr, Program, ProgramBuilder, Reg, Syscall};
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

/// Build a random terminating program that uses every [`Instr`] variant:
/// every integer op (shifts by register and immediate, set-less-than,
/// div/rem including by zero), sub-word and FP loads and stores at
/// overlapping offsets, every branch condition, `jal`/`jalr` with links,
/// all twelve modeled FP ops in both precisions, FP moves, sign ops and
/// compares, and the output and exit services.
///
/// The FP operand pools are reloaded from finite tables at the top of
/// every iteration and divisors always come from a table, so values stay
/// finite and most programs run to their end: a halt or an exit whose
/// code is a data-dependent register.
// Only `cosim.rs` uses it; `golden.rs` includes this module too.
#[allow(dead_code)]
pub fn random_program_every_op(seed: u64, body_len: usize, iters: i64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = ProgramBuilder::new();
    let scratch = p.zeros(512);
    let doubles: Vec<f64> = (0..8)
        .map(|_| {
            let sign = (rng.gen::<bool>() as u64) << 63;
            f64::from_bits(sign | (1022u64 + rng.gen_range(0u64..5)) << 52 | rng.gen::<u64>() >> 12)
        })
        .collect();
    let double_table = p.doubles(&doubles);
    // Single-precision values in the low half of each dword.
    let singles: Vec<u64> = (0..8)
        .map(|_| {
            let sign = (rng.gen::<bool>() as u32) << 31;
            (sign | (126 + rng.gen_range(0u32..5)) << 23 | rng.gen::<u32>() >> 9) as u64
        })
        .collect();
    let single_table = p.dwords(&singles);

    let int_regs = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4];
    let doubles_pool: Vec<FReg> = (0..6).map(FReg::new).collect();
    let singles_pool: Vec<FReg> = (12..16).map(FReg::new).collect();
    let (raw_bits, divisor) = (FReg::new(8), FReg::new(16));

    p.la(Reg::S0, scratch);
    p.la(Reg::S1, double_table);
    p.la(Reg::S3, single_table);
    for r in int_regs {
        p.li(r, rng.gen_range(-100..100));
    }
    p.li(Reg::S2, iters);
    let head = p.here();
    for (k, &f) in doubles_pool.iter().enumerate() {
        p.fld(f, 8 * k as i16, Reg::S1);
    }
    for (k, &f) in singles_pool.iter().enumerate() {
        p.flw(f, 8 * k as i16, Reg::S3);
    }

    let mut skip_targets: Vec<(usize, tei_isa::Label)> = Vec::new();
    for b in 0..body_len {
        skip_targets.retain(|(due, l)| {
            if *due <= b {
                p.bind(*l);
                false
            } else {
                true
            }
        });
        let pick = |rng: &mut StdRng, regs: &[Reg]| regs[rng.gen_range(0..regs.len())];
        let (rd, r1, r2) = (
            pick(&mut rng, &int_regs),
            pick(&mut rng, &int_regs),
            pick(&mut rng, &int_regs),
        );
        let fpick = |rng: &mut StdRng, regs: &[FReg]| regs[rng.gen_range(0..regs.len())];
        let (fd, f1, f2) = (
            fpick(&mut rng, &doubles_pool),
            fpick(&mut rng, &doubles_pool),
            fpick(&mut rng, &doubles_pool),
        );
        let (sd, s1, s2) = (
            fpick(&mut rng, &singles_pool),
            fpick(&mut rng, &singles_pool),
            fpick(&mut rng, &singles_pool),
        );
        let imm = rng.gen_range(-2000i16..2000);
        let shamt = rng.gen_range(0u8..64);
        // Byte offsets into the scratch area: unaligned, and the load
        // offset lands on, inside, or away from the store.
        let st = rng.gen_range(0i16..496);
        let ld = st + [0i16, 0, 1, 3, 4, 8][rng.gen_range(0..6usize)];
        let table_off = 8 * rng.gen_range(0i16..8);
        match rng.gen_range(0..46) {
            0 => p.add(rd, r1, r2),
            1 => p.sub(rd, r1, r2),
            2 => p.and(rd, r1, r2),
            3 => p.or(rd, r1, r2),
            4 => p.xor(rd, r1, r2),
            5 => p.sll(rd, r1, r2),
            6 => p.srl(rd, r1, r2),
            7 => p.sra(rd, r1, r2),
            8 => p.slt(rd, r1, r2),
            9 => p.sltu(rd, r1, r2),
            10 => p.mul(rd, r1, r2),
            11 => p.div(rd, r1, r2),
            12 => p.rem(rd, r1, r2),
            13 => p.div(rd, r1, Reg::ZERO),
            14 => p.rem(rd, r1, Reg::ZERO),
            15 => p.addi(rd, r1, imm),
            16 => p.andi(rd, r1, imm),
            17 => p.ori(rd, r1, imm),
            18 => p.xori(rd, r1, imm),
            19 => p.slti(rd, r1, imm),
            20 => p.slli(rd, r1, shamt),
            21 => p.srli(rd, r1, shamt),
            22 => p.srai(rd, r1, shamt),
            23 => p.movhi(rd, rng.gen()),
            24 => {
                p.sd(r1, st, Reg::S0);
                p.ld(rd, ld, Reg::S0);
            }
            25 => {
                p.sw(r1, st, Reg::S0);
                if rng.gen() {
                    p.lw(rd, ld, Reg::S0);
                } else {
                    p.lwu(rd, ld, Reg::S0);
                }
            }
            26 => {
                p.sb(r1, st, Reg::S0);
                if rng.gen() {
                    p.lb(rd, ld, Reg::S0);
                } else {
                    p.lbu(rd, ld, Reg::S0);
                }
            }
            // FP values round-trip through memory at the same offset, so
            // the pools only ever hold FP results.
            27 => {
                p.fsd(f1, st, Reg::S0);
                p.fld(fd, st, Reg::S0);
            }
            28 => {
                p.fsw(s1, st, Reg::S0);
                p.flw(sd, st, Reg::S0);
            }
            29 => p.fadd_d(fd, f1, f2),
            30 => p.fsub_d(fd, f1, f2),
            31 => p.fmul_d(fd, f1, f2),
            32 => {
                p.fld(divisor, table_off, Reg::S1);
                p.fdiv_d(fd, f1, divisor);
            }
            33 => p.fadd_s(sd, s1, s2),
            34 => p.fsub_s(sd, s1, s2),
            35 => p.fmul_s(sd, s1, s2),
            36 => {
                p.flw(divisor, table_off, Reg::S3);
                p.fdiv_s(sd, s1, divisor);
            }
            37 => {
                p.fcvt_d_l(fd, r1);
                p.fcvt_l_d(rd, f1);
            }
            38 => {
                p.fcvt_s_w(sd, r1);
                p.fcvt_w_s(rd, s1);
            }
            39 => match rng.gen_range(0..3) {
                0 => p.fmv_d(fd, f1),
                1 => p.fneg_d(fd, f1),
                _ => p.fabs_d(fd, f1),
            },
            40 => {
                // Integer bits pass through a register no FP op reads.
                p.fmv_d_x(raw_bits, r1);
                p.fmv_x_d(rd, if rng.gen() { raw_bits } else { f1 });
            }
            41 => match rng.gen_range(0..3) {
                0 => p.feq_d(rd, f1, f2),
                1 => p.flt_d(rd, f1, f2),
                _ => p.fle_d(rd, f1, f2),
            },
            42 => {
                // Data-dependent forward skip under every condition.
                let l = p.label();
                match rng.gen_range(0..6) {
                    0 => p.beq(r1, r2, l),
                    1 => p.bne(r1, r2, l),
                    2 => p.blt(r1, r2, l),
                    3 => p.bge(r1, r2, l),
                    4 => p.bltu(r1, r2, l),
                    _ => p.bgeu(r1, r2, l),
                }
                skip_targets.push((b + 1 + rng.gen_range(0usize..3), l));
            }
            43 => {
                // Unconditional forward jump over one instruction.
                let l = p.label();
                p.j(l);
                p.addi(rd, rd, 1);
                p.bind(l);
            }
            44 => {
                // `jal` to the next instruction links its address; `jalr`
                // then skips one instruction relative to it and links too.
                p.push(Instr::Jal {
                    rd: Reg::T5,
                    off: 1,
                });
                p.push(Instr::Jalr {
                    rd,
                    rs1: Reg::T5,
                    imm: 2,
                });
                p.addi(r1, r1, 7);
            }
            _ => {
                p.mv(Reg::A0, r1);
                p.syscall(Syscall::PutByte);
            }
        }
    }
    for (_, l) in skip_targets {
        p.bind(l);
    }
    p.addi(Reg::S2, Reg::S2, -1);
    p.bne(Reg::S2, Reg::ZERO, head);
    for r in int_regs {
        p.mv(Reg::A0, r);
        p.syscall(Syscall::PutInt);
    }
    for f in doubles_pool.iter().chain(&singles_pool) {
        p.fmv_d(FReg::F10, *f);
        p.syscall(Syscall::PutF64);
    }
    if rng.gen() {
        p.halt();
    } else {
        p.andi(Reg::A0, Reg::T0, 0x7f);
        p.syscall(Syscall::Exit);
    }
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
