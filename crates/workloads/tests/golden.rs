//! Golden tests: every benchmark must complete cleanly in the simulator
//! and reproduce its native Rust reference output byte-for-byte, and the
//! detailed out-of-order core must reproduce its pinned timing signature.

#[path = "../../uarch/tests/support/mod.rs"]
mod support;

use tei_uarch::{FpTimelineEvent, FuncCore, OooConfig, OooCore, OooStats};
use tei_workloads::{build, native_output, BenchmarkId, Scale};

fn check(id: BenchmarkId, scale: Scale) {
    let bench = build(id, scale);
    let mut core = FuncCore::with_memory(&bench.program, 8 << 20);
    let r = core.run(200_000_000);
    assert!(
        r.exit.is_success(),
        "{id} at {scale:?} exited with {:?}",
        r.exit
    );
    assert!(r.fp_ops > 0, "{id} must exercise the FPU");
    let expect = native_output(id, scale);
    assert!(!expect.is_empty(), "{id} produces output");
    assert_eq!(
        core.output, expect,
        "{id} at {scale:?}: simulator output diverges from native reference"
    );
}

#[test]
fn sobel_matches_native() {
    check(BenchmarkId::Sobel, Scale::Test);
}

#[test]
fn cg_matches_native() {
    check(BenchmarkId::Cg, Scale::Test);
}

#[test]
fn kmeans_matches_native() {
    check(BenchmarkId::Kmeans, Scale::Test);
}

#[test]
fn srad_matches_native() {
    check(BenchmarkId::SradV1, Scale::Test);
}

#[test]
fn hotspot_matches_native() {
    check(BenchmarkId::Hotspot, Scale::Test);
}

#[test]
fn is_matches_native() {
    check(BenchmarkId::Is, Scale::Test);
}

#[test]
fn mg_matches_native() {
    check(BenchmarkId::Mg, Scale::Test);
}

#[test]
fn cg_verification_passes() {
    // The golden cg run must self-verify (first output line "1").
    let out = native_output(BenchmarkId::Cg, Scale::Test);
    assert!(
        out.starts_with(b"1\n"),
        "cg verification failed in golden run"
    );
}

#[test]
fn mg_verification_passes() {
    let out = native_output(BenchmarkId::Mg, Scale::Test);
    assert!(
        out.starts_with(b"1\n"),
        "mg verification failed in golden run"
    );
}

#[test]
fn is_verification_passes() {
    let out = native_output(BenchmarkId::Is, Scale::Test);
    assert!(
        out.starts_with(b"1\n"),
        "is verification failed in golden run"
    );
}

#[test]
fn kmeans_produces_stable_clusters() {
    // All k clusters are non-empty in the golden assignment.
    let out = native_output(BenchmarkId::Kmeans, Scale::Test);
    let (_, k, _) = tei_workloads::kmeans::params(Scale::Test);
    for c in 0..k as u8 {
        assert!(out.contains(&c), "cluster {c} is empty");
    }
}

#[test]
fn table2_metadata_present() {
    for id in BenchmarkId::all() {
        let b = build(id, Scale::Test);
        assert!(!b.input_desc.is_empty());
        assert!(!b.classification.is_empty());
        assert!(b.program.len() > 10);
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over every timeline event's (cycle, spec index, op index, arch
/// index), arch index `None` hashed as `u64::MAX`.
fn timeline_hash(timeline: &[FpTimelineEvent]) -> u64 {
    fnv1a(timeline.iter().flat_map(|e| {
        [
            e.cycle,
            e.spec_index,
            e.op.index() as u64,
            e.arch_index.unwrap_or(u64::MAX),
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

/// Expected detailed-core signature of one benchmark at Test scale: the
/// full run statistics, then FNV-1a hashes of the output bytes and of the
/// FP writeback timeline.
const BENCH_SIGNATURES: [(BenchmarkId, OooStats, u64, u64); 7] = [
    (
        BenchmarkId::Sobel,
        OooStats {
            cycles: 19571,
            committed: 5381,
            squashed: 179,
            mispredicts: 56,
            cache_misses: 2,
            fp_committed: 1920,
            fp_squashed: 0,
        },
        0x4a65103fd9f79de2,
        0x64bcf1d89092023a,
    ),
    (
        BenchmarkId::Cg,
        OooStats {
            cycles: 10773,
            committed: 11626,
            squashed: 384,
            mispredicts: 141,
            cache_misses: 10,
            fp_committed: 2565,
            fp_squashed: 0,
        },
        0x49b9ef82a22073ca,
        0x2ad94338a71758b2,
    ),
    (
        BenchmarkId::Kmeans,
        OooStats {
            cycles: 15633,
            committed: 14920,
            squashed: 14201,
            mispredicts: 918,
            cache_misses: 11,
            fp_committed: 3445,
            fp_squashed: 1031,
        },
        0x31d96cc34215019c,
        0x190b89b70336f3f5,
    ),
    (
        BenchmarkId::SradV1,
        OooStats {
            cycles: 26558,
            committed: 11029,
            squashed: 2192,
            mispredicts: 73,
            cache_misses: 10,
            fp_committed: 6146,
            fp_squashed: 402,
        },
        0x9fcaf8868754282f,
        0x091002db9e64b41c,
    ),
    (
        BenchmarkId::Hotspot,
        OooStats {
            cycles: 12415,
            committed: 7085,
            squashed: 119,
            mispredicts: 34,
            cache_misses: 20,
            fp_committed: 2656,
            fp_squashed: 0,
        },
        0xdbc2618006179a5b,
        0x5522729481b6e123,
    ),
    (
        BenchmarkId::Is,
        OooStats {
            cycles: 54101,
            committed: 22090,
            squashed: 782,
            mispredicts: 516,
            cache_misses: 32,
            fp_committed: 14848,
            fp_squashed: 0,
        },
        0x8be5712a975277cc,
        0xe584a88ee70f8dcf,
    ),
    (
        BenchmarkId::Mg,
        OooStats {
            cycles: 31057,
            committed: 19074,
            squashed: 1221,
            mispredicts: 207,
            cache_misses: 19,
            fp_committed: 6051,
            fp_squashed: 0,
        },
        0xefbed8c04753298e,
        0xc1760fd3c739df24,
    ),
];

#[test]
fn detailed_core_signatures_are_pinned() {
    for (id, stats, output_hash, timeline_hash_expected) in BENCH_SIGNATURES {
        let bench = build(id, Scale::Test);
        let mut core = OooCore::with_memory(&bench.program, OooConfig::default(), 8 << 20);
        let r = core.run(u64::MAX);
        assert!(r.exit.is_success(), "{id}: {:?}", r.exit);
        assert_eq!(core.stats, stats, "{id}: stats");
        assert_eq!(
            fnv1a(core.output.iter().copied()),
            output_hash,
            "{id}: output"
        );
        assert_eq!(
            timeline_hash(&core.fp_timeline),
            timeline_hash_expected,
            "{id}: fp timeline"
        );
    }
}

/// Expected (cycles, squashed, mispredicts, fp_squashed) of the random
/// co-simulation programs (`random_program(seed, 30, 20)`), one row per
/// seed, one column per machine of `support::sweep_configs`.
const RANDOM_SIGNATURES: [[(u64, u64, u64, u64); 4]; 16] = [
    [
        (278, 2, 1, 0),
        (138, 3, 1, 0),
        (176, 3, 1, 0),
        (152, 18, 6, 0),
    ],
    [
        (994, 2, 2, 0),
        (324, 11, 2, 0),
        (476, 7, 2, 0),
        (449, 13, 2, 0),
    ],
    [
        (912, 13, 5, 0),
        (286, 57, 5, 0),
        (456, 29, 5, 0),
        (475, 78, 23, 0),
    ],
    [
        (963, 35, 17, 0),
        (727, 710, 18, 6),
        (743, 283, 17, 5),
        (743, 387, 30, 9),
    ],
    [
        (977, 2, 2, 0),
        (437, 5, 2, 0),
        (495, 5, 2, 0),
        (490, 57, 19, 0),
    ],
    [
        (942, 37, 20, 0),
        (374, 424, 20, 7),
        (538, 157, 20, 0),
        (620, 376, 59, 0),
    ],
    [
        (915, 2, 2, 0),
        (535, 3, 2, 0),
        (565, 7, 2, 0),
        (549, 57, 19, 0),
    ],
    [
        (305, 3, 1, 0),
        (140, 3, 1, 0),
        (184, 3, 1, 0),
        (158, 21, 7, 0),
    ],
    [
        (244, 6, 6, 0),
        (130, 190, 6, 0),
        (176, 72, 6, 0),
        (134, 79, 5, 0),
    ],
    [
        (237, 1, 1, 0),
        (115, 3, 1, 0),
        (157, 3, 1, 0),
        (122, 15, 5, 0),
    ],
    [
        (882, 12, 6, 0),
        (391, 163, 5, 8),
        (510, 89, 6, 2),
        (637, 404, 40, 0),
    ],
    [
        (932, 6, 4, 0),
        (318, 48, 4, 0),
        (485, 20, 4, 0),
        (525, 64, 20, 0),
    ],
    [
        (396, 3, 3, 0),
        (182, 65, 3, 1),
        (213, 9, 3, 0),
        (188, 27, 9, 0),
    ],
    [
        (932, 4, 2, 0),
        (391, 13, 2, 0),
        (506, 17, 2, 0),
        (560, 57, 19, 0),
    ],
    [
        (923, 3, 5, 0),
        (293, 133, 5, 8),
        (484, 19, 5, 0),
        (485, 63, 20, 0),
    ],
    [
        (874, 4, 2, 0),
        (320, 19, 2, 0),
        (491, 17, 2, 0),
        (470, 57, 19, 0),
    ],
];

#[test]
fn random_program_signatures_are_pinned() {
    for (seed, row) in RANDOM_SIGNATURES.iter().enumerate() {
        let prog = support::random_program(seed as u64, 30, 20);
        for (ci, (cfg, expected)) in support::sweep_configs().into_iter().zip(row).enumerate() {
            let mut core = OooCore::with_memory(&prog, cfg, 1 << 20);
            core.run(u64::MAX);
            let s = &core.stats;
            assert_eq!(
                (s.cycles, s.squashed, s.mispredicts, s.fp_squashed),
                *expected,
                "seed {seed} config {ci}"
            );
        }
    }
}
