//! Guard against knob creep: every `TEI_*` environment name the code
//! spells as a string literal is one of a fixed, documented set. A new
//! name has to be added here on purpose, next to the reason it earns
//! its place.

use std::collections::BTreeSet;
use std::path::Path;

/// The environment names the workspace reads.
const KNOBS: [&str; 4] = [
    // Worker threads for DTA, model building and campaigns.
    "TEI_THREADS",
    // Paper-scale experiment sizing.
    "TEI_FULL",
    // Seeded failpoint schedules (the `failpoints` feature).
    "TEI_FAILPOINTS",
    // The CI thread-scaling gate in the `dta_throughput` bench.
    "TEI_SCALING_SMOKE",
];

/// Names that only tests spell, for knobs no code reads.
const TEST_ONLY: [&str; 2] = ["TEI_TEST_BAD_KNOB", "TEI_SURELY_UNSET_VAR_12345"];

/// Directories under the scanned roots that hold no workspace code of
/// their own (the benchmark package has its own manifest and build).
const SKIPPED: [&str; 3] = ["vendor", "target", "crates/bench/examples/benchmark"];

fn rust_files(root: &Path, dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let rel = path.strip_prefix(root).expect("path under the root");
        if SKIPPED
            .iter()
            .any(|s| rel == Path::new(s) || rel.file_name() == Some(s.as_ref()))
        {
            continue;
        }
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `"TEI_[A-Z0-9_]+"` string literal in `src`.
fn knob_literals(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("\"TEI_") {
        let tail = &rest[at + 1..];
        let len = tail
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        if len > "TEI_".len() && tail.as_bytes().get(len) == Some(&b'"') {
            found.push(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
    found
}

/// Every workspace Rust file but this one, with its source.
fn workspace_sources() -> Vec<(std::path::PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_files(root, &root.join(dir), &mut files);
    }
    files
        .into_iter()
        .filter(|p| *p != this_file)
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable source");
            (p, src)
        })
        .collect()
}

#[test]
fn only_the_known_tei_names_are_read() {
    let mut seen = BTreeSet::new();
    for (_, src) in workspace_sources() {
        for name in knob_literals(&src) {
            seen.insert(name);
        }
    }
    let expected: BTreeSet<String> = KNOBS
        .iter()
        .chain(&TEST_ONLY)
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        seen, expected,
        "the set of TEI_* names changed: retire the new name or list it here"
    );
}

/// Paper-scale sizing is the experiment runner's decision alone: the
/// knob is spelled only in `tei-bench`'s sources and read in one place,
/// so no library default changes with it.
#[test]
fn paper_scale_knob_is_read_only_by_the_experiment_runner() {
    let runner = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src");
    let mut reads = 0;
    for (path, src) in workspace_sources() {
        if src.contains("TEI_FULL") {
            assert!(
                path.starts_with(&runner),
                "{} spells TEI_FULL outside crates/bench/src",
                path.display()
            );
        }
        reads += knob_literals(&src)
            .iter()
            .filter(|n| *n == "TEI_FULL")
            .count();
    }
    assert_eq!(reads, 1, "TEI_FULL must be read in exactly one place");
}

#[test]
fn literal_scan_finds_whole_names_only() {
    let src = r#"env("TEI_THREADS"); ["TEI_", "RUNS"]; "TEI_lower"; "XTEI_A""#;
    assert_eq!(knob_literals(src), ["TEI_THREADS"]);
}
