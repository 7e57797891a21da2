//! Co-simulation: the detailed out-of-order core must produce exactly the
//! architectural results of the functional core on arbitrary programs.

mod support;

use std::collections::HashSet;
use support::{random_program, random_program_every_op, sweep_configs};
use tei_isa::{FReg, Program, ProgramBuilder, Reg, Syscall, DATA_BASE};
use tei_uarch::{ArchState, ExitReason, FuncCore, Memory, OooConfig, OooCore, RunResult, Trap};

/// Run `prog` on both cores and require identical architectural results.
fn cosim(prog: &Program, what: &str) -> ExitReason {
    let mut func = FuncCore::with_memory(prog, 1 << 20);
    let fr = func.run(2_000_000);
    let mut ooo = OooCore::with_memory(prog, OooConfig::default(), 1 << 20);
    let or = ooo.run(20_000_000);
    assert_eq!(fr.exit, or.exit, "{what}: exit reasons differ");
    assert_eq!(
        fr.instructions, or.instructions,
        "{what}: committed instruction counts differ"
    );
    assert_eq!(fr.fp_ops, or.fp_ops, "{what}: fp op counts differ");
    assert_eq!(func.output, ooo.output, "{what}: outputs differ");
    // Full register-file comparison.
    for i in 0..32 {
        let r = Reg::new(i);
        assert_eq!(func.state.x(r), ooo.state.x(r), "{what}: x{i}");
        let f = FReg::new(i);
        assert_eq!(func.state.f(f), ooo.state.f(f), "{what}: f{i}");
    }
    // Scratch memory comparison.
    let a = func.mem.read_block(DATA_BASE, 512).unwrap();
    let b = ooo.mem.read_block(DATA_BASE, 512).unwrap();
    assert_eq!(a, b, "{what}: memory differs");
    fr.exit
}

#[test]
fn cosim_many_random_programs() {
    for seed in 0..25 {
        cosim(&random_program(seed, 40, 30), &format!("seed {seed}"));
    }
}

/// Number of `Instr` variants; the every-op generator must emit each.
const INSTR_VARIANTS: usize = 64;

#[test]
fn cosim_every_instruction_kind() {
    let mut kinds = HashSet::new();
    let mut finished = 0;
    let seeds = 0..40u64;
    for seed in seeds.clone() {
        let prog = random_program_every_op(seed, 60, 25);
        kinds.extend(prog.text.iter().map(std::mem::discriminant));
        let exit = cosim(&prog, &format!("every-op seed {seed}"));
        finished += matches!(exit, ExitReason::Halted | ExitReason::Exited(_)) as usize;
    }
    assert_eq!(
        kinds.len(),
        INSTR_VARIANTS,
        "some Instr variant is never emitted"
    );
    assert!(
        finished * 10 >= seeds.count() * 9,
        "only {finished} every-op programs ran to their end"
    );
}

/// Both cores' run result, last eight memory bytes and final state.
fn run_both(prog: &Program, mem: usize) -> [(RunResult, Vec<u8>, ArchState); 2] {
    let tail = |m: &Memory| {
        m.read_block(DATA_BASE + mem as u64 - 8, 8)
            .unwrap()
            .to_vec()
    };
    let mut func = FuncCore::with_memory(prog, mem);
    let fr = func.run(10_000);
    let mut ooo = OooCore::with_memory(prog, OooConfig::default(), mem);
    let or = ooo.run(1_000_000);
    [
        (fr, tail(&func.mem), func.state),
        (or, tail(&ooo.mem), ooo.state),
    ]
}

#[test]
fn accesses_straddling_the_memory_edges_fault_identically() {
    const MEM: usize = 1 << 16;
    let end = DATA_BASE + MEM as u64;
    type Access = fn(&mut ProgramBuilder);
    // (access at 0(t0), width, is a store)
    let cases: [(Access, u64, bool); 14] = [
        (|p| p.lb(Reg::T1, 0, Reg::T0), 1, false),
        (|p| p.lbu(Reg::T1, 0, Reg::T0), 1, false),
        (|p| p.sb(Reg::T2, 0, Reg::T0), 1, true),
        (|p| p.lw(Reg::T1, 0, Reg::T0), 4, false),
        (|p| p.lwu(Reg::T1, 0, Reg::T0), 4, false),
        (|p| p.sw(Reg::T2, 0, Reg::T0), 4, true),
        (|p| p.flw(FReg::F1, 0, Reg::T0), 4, false),
        (|p| p.fsw(FReg::F2, 0, Reg::T0), 4, true),
        (|p| p.ld(Reg::T1, 0, Reg::T0), 8, false),
        (|p| p.sd(Reg::T2, 0, Reg::T0), 8, true),
        (|p| p.fld(FReg::F1, 0, Reg::T0), 8, false),
        (|p| p.fsd(FReg::F2, 0, Reg::T0), 8, true),
        // A wide access starting below the base wraps, and faults too.
        (|p| p.ld(Reg::T1, 0, Reg::T0), 0, false),
        (|p| p.sw(Reg::T2, 0, Reg::T0), 0, true),
    ];
    for (access, width, store) in cases {
        // Half the access lies past the end (a 1-byte one starts just
        // past it); width 0 marks the below-base cases.
        let addr = match width {
            0 => DATA_BASE - 2,
            1 => end,
            w => end - w / 2,
        };
        let mut p = ProgramBuilder::new();
        p.li(Reg::T2, -1);
        p.fmv_d_x(FReg::F2, Reg::T2);
        p.li(Reg::T1, 0x5a);
        p.fmv_d_x(FReg::F1, Reg::T1);
        p.li(Reg::T0, (end - 8) as i64);
        p.li(Reg::T3, 0x0102_0304_0506_0708);
        p.sd(Reg::T3, 0, Reg::T0);
        p.li(Reg::T0, addr as i64);
        access(&mut p);
        p.halt();
        let prog = p.finish();
        let what = format!("width {width} store {store} at {addr:#x}");
        let expected = ExitReason::Trapped(Trap::Mem { addr, store });
        let runs = run_both(&prog, MEM);
        assert_eq!(runs[0].0, runs[1].0, "{what}: run results differ");
        for (core, (r, tail, state)) in ["functional", "detailed"].iter().zip(runs) {
            assert_eq!(r.exit, expected, "{core}: {what}");
            assert_eq!(
                tail,
                0x0102_0304_0506_0708u64.to_le_bytes(),
                "{core}: {what} wrote part of the access"
            );
            assert_eq!(
                state.x(Reg::T1),
                0x5a,
                "{core}: {what} wrote its destination"
            );
            assert_eq!(
                state.f(FReg::F1),
                0x5a,
                "{core}: {what} wrote its destination"
            );
        }
    }
}

#[test]
fn fp_zero_by_zero_traps_before_writeback_in_both_precisions() {
    type Div = fn(&mut ProgramBuilder);
    let divs: [(&str, Div); 2] = [
        ("fdiv.d", |p| p.fdiv_d(FReg::F3, FReg::F1, FReg::F1)),
        ("fdiv.s", |p| p.fdiv_s(FReg::F3, FReg::F1, FReg::F1)),
    ];
    for (name, div) in divs {
        let mut p = ProgramBuilder::new();
        p.fli(FReg::F1, 0.0, Reg::T0);
        p.fli(FReg::F2, 1.5, Reg::T0);
        p.fli(FReg::F3, 7.0, Reg::T0);
        p.fadd_d(FReg::F4, FReg::F2, FReg::F2);
        div(&mut p);
        p.halt();
        let prog = p.finish();
        let trap = ExitReason::Trapped(Trap::FpException);

        let mut func = FuncCore::with_memory(&prog, 1 << 16);
        let mut seen = Vec::new();
        let fr = func.run_with_hook(1000, &mut |ev| {
            seen.push(ev.op);
            ev.result
        });
        assert_eq!(fr.exit, trap, "{name}: functional");
        assert_eq!(fr.fp_ops, 1, "{name}: the trapping op is not counted");
        assert_eq!(seen.len(), 1, "{name}: the injector never sees it");
        assert_eq!(
            func.state.f(FReg::F3),
            7.0f64.to_bits(),
            "{name}: written back"
        );

        let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
        let or = ooo.run_with_hook(100_000, &mut |ev| ev.result);
        assert_eq!(or.exit, trap, "{name}: detailed");
        assert_eq!(or.fp_ops, 1, "{name}: detailed counts it");
        assert_eq!(
            ooo.state.f(FReg::F3),
            7.0f64.to_bits(),
            "{name}: detailed wrote back"
        );
        let committed = ooo.fp_timeline.iter().filter(|e| e.arch_index.is_some());
        assert_eq!(committed.count(), 1, "{name}: detailed timeline");
    }
}

#[test]
fn ooo_runs_faster_than_one_ipc_on_ilp_code() {
    // Independent ALU ops should dual-issue.
    let mut p = ProgramBuilder::new();
    p.li(Reg::S2, 200);
    let head = p.here();
    for _ in 0..8 {
        p.addi(Reg::T0, Reg::T0, 1);
        p.addi(Reg::T1, Reg::T1, 1);
    }
    p.addi(Reg::S2, Reg::S2, -1);
    p.bne(Reg::S2, Reg::ZERO, head);
    p.halt();
    let prog = p.finish();
    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
    let r = ooo.run(1_000_000);
    assert_eq!(r.exit, ExitReason::Halted);
    let ipc = r.instructions as f64 / ooo.stats.cycles as f64;
    assert!(ipc > 1.0, "expected dual-issue IPC, got {ipc:.2}");
}

#[test]
fn mispredicts_squash_and_recover() {
    // A data-dependent alternating branch drives mispredictions; results
    // must still match the functional core.
    let mut p = ProgramBuilder::new();
    p.li(Reg::S2, 500);
    p.li(Reg::T0, 0);
    p.li(Reg::T1, 0);
    let head = p.here();
    p.andi(Reg::T2, Reg::S2, 1);
    let odd = p.label();
    p.bne(Reg::T2, Reg::ZERO, odd);
    p.addi(Reg::T0, Reg::T0, 3);
    p.bind(odd);
    p.addi(Reg::T1, Reg::T1, 5);
    p.addi(Reg::S2, Reg::S2, -1);
    p.bne(Reg::S2, Reg::ZERO, head);
    p.halt();
    let prog = p.finish();

    let mut func = FuncCore::with_memory(&prog, 1 << 16);
    func.run(1_000_000);
    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
    let r = ooo.run(10_000_000);
    assert_eq!(r.exit, ExitReason::Halted);
    assert!(
        ooo.stats.mispredicts > 0,
        "alternating branch must mispredict"
    );
    assert!(ooo.stats.squashed > 0);
    assert_eq!(func.state.x(Reg::T0), ooo.state.x(Reg::T0));
    assert_eq!(func.state.x(Reg::T1), ooo.state.x(Reg::T1));
}

#[test]
fn fp_timeline_records_committed_ops_in_order() {
    let mut p = ProgramBuilder::new();
    p.fli(FReg::F1, 1.5, Reg::T0);
    p.fli(FReg::F2, 2.5, Reg::T0);
    for _ in 0..5 {
        p.fmul_d(FReg::F3, FReg::F1, FReg::F2);
        p.fadd_d(FReg::F1, FReg::F3, FReg::F2);
    }
    p.halt();
    let prog = p.finish();
    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
    let r = ooo.run(100_000);
    assert_eq!(r.exit, ExitReason::Halted);
    let committed: Vec<u64> = ooo
        .fp_timeline
        .iter()
        .filter_map(|e| e.arch_index)
        .collect();
    assert_eq!(committed.len(), 10);
    let mut sorted = committed.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "each arch index once");
    // Cycles are monotome per arch order after sorting by arch index.
    assert!(ooo.fp_timeline.iter().all(|e| e.cycle < ooo.stats.cycles));
}

#[test]
fn detailed_injection_corrupts_like_functional() {
    // Corrupt arch FP op #3 in both cores; architectural results match.
    let prog = random_program(77, 30, 10);
    let mask = 1u64 << 51;

    let mut func = FuncCore::with_memory(&prog, 1 << 20);
    func.run_with_hook(1_000_000, &mut |ev| {
        if ev.index == 3 {
            ev.result ^ mask
        } else {
            ev.result
        }
    });

    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 20);
    // In the detailed core, FP events carry speculative indices; on the
    // correct path they coincide with architectural indices.
    ooo.run_with_hook(20_000_000, &mut |ev| {
        if ev.index == 3 {
            ev.result ^ mask
        } else {
            ev.result
        }
    });
    assert_eq!(func.output, ooo.output, "corrupted runs must still agree");
}

#[test]
fn timeout_on_livelock() {
    let mut p = ProgramBuilder::new();
    let head = p.here();
    p.j(head);
    let prog = p.finish();
    let mut ooo = OooCore::with_memory(&prog, OooConfig::default(), 1 << 16);
    let r = ooo.run(5_000);
    assert_eq!(r.exit, ExitReason::Limit);
}

#[test]
fn cosim_across_microarchitectural_configs() {
    // The timing model must never change architectural results, whatever
    // the machine width, ROB size, or cache geometry.
    let configs = sweep_configs();
    for (ci, cfg) in configs.into_iter().enumerate() {
        for seed in [3u64, 14] {
            for prog in [
                random_program(seed, 30, 20),
                random_program_every_op(seed, 50, 15),
            ] {
                let mut func = FuncCore::with_memory(&prog, 1 << 20);
                let fr = func.run(2_000_000);
                let mut ooo = OooCore::with_memory(&prog, cfg.clone(), 1 << 20);
                let or = ooo.run(50_000_000);
                assert_eq!(fr.exit, or.exit, "config {ci} seed {seed}");
                assert_eq!(func.output, ooo.output, "config {ci} seed {seed}");
                for i in 0..32 {
                    assert_eq!(
                        func.state.x(Reg::new(i)),
                        ooo.state.x(Reg::new(i)),
                        "config {ci} seed {seed} x{i}"
                    );
                }
            }
        }
    }
}

#[test]
fn narrow_machine_is_slower_than_wide() {
    let prog = random_program(2, 40, 40);
    let narrow = OooConfig {
        fetch_width: 1,
        issue_width: 1,
        commit_width: 1,
        alu_units: 1,
        ..Default::default()
    };
    let mut a = OooCore::with_memory(&prog, narrow, 1 << 20);
    a.run(100_000_000);
    let mut b = OooCore::with_memory(&prog, OooConfig::default(), 1 << 20);
    b.run(100_000_000);
    assert!(
        a.stats.cycles > b.stats.cycles,
        "single-issue ({}) should be slower than dual-issue ({})",
        a.stats.cycles,
        b.stats.cycles
    );
}

#[test]
fn cache_miss_counting_responds_to_geometry() {
    let prog = random_program(8, 35, 30);
    let tiny = OooConfig {
        cache_lines: 2,
        ..Default::default()
    };
    let mut small = OooCore::with_memory(&prog, tiny, 1 << 20);
    small.run(100_000_000);
    let mut big = OooCore::with_memory(&prog, OooConfig::default(), 1 << 20);
    big.run(100_000_000);
    assert!(
        small.stats.cache_misses >= big.stats.cache_misses,
        "a 2-line cache cannot miss less than a 256-line one"
    );
    assert!(big.stats.cache_misses > 0, "cold misses exist");
}

/// A dependent chain of unpipelined divisions followed by a dependent
/// chain of loads that each miss the cache: long stretches in which
/// nothing commits, writes back, issues or dispatches.
fn stall_program() -> Program {
    let mut p = ProgramBuilder::new();
    let buf = p.zeros(64 * 8);
    p.la(Reg::S0, buf);
    p.fli(FReg::F1, 1.5, Reg::T0);
    p.fli(FReg::F2, 1.25, Reg::T0);
    for _ in 0..4 {
        p.fdiv_d(FReg::F1, FReg::F1, FReg::F2);
    }
    // The quotient (1.5 / 1.25^4, truncated to 0) and then each loaded
    // zero feed the next address: the divisions and misses serialize.
    p.fcvt_l_d(Reg::T1, FReg::F1);
    p.add(Reg::S0, Reg::S0, Reg::T1);
    for i in 0..4 {
        p.ld(Reg::T1, 64 * i, Reg::S0);
        p.add(Reg::S0, Reg::S0, Reg::T1);
    }
    p.fmv_d(FReg::F10, FReg::F1);
    p.syscall(Syscall::PutF64);
    p.mv(Reg::A0, Reg::S0);
    p.syscall(Syscall::PutInt);
    p.halt();
    p.finish()
}

#[test]
fn run_limits_inside_stalls_are_exact_and_resumable() {
    let cfg = OooConfig {
        miss_latency: 200,
        ..Default::default()
    };
    let prog = stall_program();
    let mut whole = OooCore::with_memory(&prog, cfg.clone(), 1 << 16);
    assert_eq!(whole.run(u64::MAX).exit, ExitReason::Halted);
    let total = whole.stats.cycles;
    assert!(
        total > 4 * 20 + 4 * 200,
        "the divisions and misses must serialize ({total} cycles)"
    );
    for max in 1..total {
        let mut core = OooCore::with_memory(&prog, cfg.clone(), 1 << 16);
        let r = core.run(max);
        assert_eq!(r.exit, ExitReason::Limit, "run({max})");
        assert_eq!(core.stats.cycles, max, "run({max}) stops at its limit");
        assert_eq!(core.cycle(), max);
        let r = core.run(u64::MAX);
        assert_eq!(r.exit, ExitReason::Halted, "run({max}) then run(MAX)");
        assert_eq!(core.stats, whole.stats, "stats after run({max})");
        assert_eq!(core.output, whole.output, "output after run({max})");
        assert_eq!(
            core.fp_timeline, whole.fp_timeline,
            "timeline after run({max})"
        );
    }
}
