//! Core memory costs the pages a program touches, not its size: building
//! a core maps its memory without writing it, and the kernel supplies a
//! zero page on first touch. Alone in its binary, so no other test moves
//! the resident set it measures.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use tei_isa::{FReg, ProgramBuilder, Reg, DEFAULT_MEM_BYTES};
use tei_uarch::{ExitReason, FuncCore};

/// The process's resident set in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn cores_cost_only_the_pages_they_touch() {
    // Touches the data image's page and the stack page at the top.
    let mut p = ProgramBuilder::new();
    let addr = p.doubles(&[1.5, 2.5]);
    p.la(Reg::S0, addr);
    p.fld(FReg::F1, 0, Reg::S0);
    p.fld(FReg::F2, 8, Reg::S0);
    p.fmul_d(FReg::F3, FReg::F1, FReg::F2);
    p.fsd(FReg::F3, -8, Reg::SP);
    p.halt();
    let prog = p.finish();
    let run = |mem_bytes: usize| {
        let mut core = FuncCore::with_memory(&prog, mem_bytes);
        assert_eq!(core.run(100).exit, ExitReason::Halted);
        core
    };

    let before = vm_rss_kib();
    // One after another at the 8 MiB the campaigns use, as a from-zero
    // campaign builds one per run: a freed block reused from the heap
    // would be zero-filled, and stay resident, every time.
    for _ in 0..16 {
        drop(run(8 << 20));
    }
    // Several alive at once at the default 64 MiB.
    let cores: Vec<FuncCore> = (0..8).map(|_| run(DEFAULT_MEM_BYTES as usize)).collect();
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 4 << 10,
        "{} cores of {} MiB grew the resident set by {grown} KiB",
        cores.len(),
        DEFAULT_MEM_BYTES >> 20
    );
}
