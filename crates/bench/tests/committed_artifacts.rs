//! The committed measurement artifacts must match their `.fnv`
//! checksum sidecars: every repo-root `BENCH_*.json` (each of which
//! must have a sidecar) and every `results/*.json` that has one. A
//! hand edit or a partial regeneration then fails here, not in a later
//! reader.

use std::path::{Path, PathBuf};
use tei_core::journal::{sidecar_path, verify_checksummed};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.json` files directly under `dir` whose names pass `keep`,
/// sorted for stable failure messages.
fn json_files(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name().and_then(|n| n.to_str()).is_some_and(&keep)
        })
        .collect();
    files.sort();
    files
}

fn assert_verified(path: &Path) {
    match verify_checksummed(path) {
        Ok(true) => {}
        Ok(false) => panic!("{}: no checksum sidecar", path.display()),
        Err(e) => panic!("{}: {e}", path.display()),
    }
}

#[test]
fn every_bench_artifact_has_a_matching_sidecar() {
    let benches = json_files(&repo_root(), |n| n.starts_with("BENCH_"));
    assert!(!benches.is_empty(), "no BENCH_*.json at the repo root");
    for path in &benches {
        assert_verified(path);
    }
}

#[test]
fn every_checksummed_result_matches_its_sidecar() {
    let results = json_files(&repo_root().join("results"), |_| true);
    let checksummed: Vec<&PathBuf> = results
        .iter()
        .filter(|p| sidecar_path(p).exists())
        .collect();
    assert!(
        !checksummed.is_empty(),
        "no checksummed artifact under results/"
    );
    for path in checksummed {
        assert_verified(path);
    }
}
