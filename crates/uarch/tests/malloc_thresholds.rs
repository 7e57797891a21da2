//! Building a core memory fixes glibc's mmap and trim thresholds, so a
//! large block freed after it goes back to the kernel instead of staying
//! resident in the heap. Alone in its binary, so no other test moves the
//! resident set it measures.
#![cfg(all(
    target_os = "linux",
    target_env = "gnu",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use tei_uarch::Memory;

/// The process's resident set in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn freed_large_blocks_leave_the_resident_set() {
    drop(Memory::with_image(1 << 16, &[1, 2, 3]));
    let before = vm_rss_kib();
    // Under glibc's dynamic thresholds the first free raises the mmap
    // threshold past 4 MiB and the trim threshold past 8 MiB, so every
    // later block comes from the heap and stays resident after its free.
    for _ in 0..4 {
        let block = std::hint::black_box(vec![1u8; 4 << 20]);
        drop(block);
    }
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 1 << 10,
        "freed 4 MiB blocks left {grown} KiB resident"
    );
}
