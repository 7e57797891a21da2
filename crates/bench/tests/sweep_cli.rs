//! `tei sweep` over the real binary: every sweep runs exact DTA, so its
//! result depends only on its own flags. An `is` sweep that follows a
//! `sobel` sweep in the same working directory must match an `is` sweep
//! run alone, and the removed surrogate flags are usage errors.

use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// One `grid` row of a sweep result.
#[derive(Debug, PartialEq, Deserialize)]
struct Point {
    vdd: f64,
    derating_factor: f64,
    avm: f64,
    masked: u64,
    sdc: u64,
    crash: u64,
    timeout: u64,
}

/// The parts of a sweep result the tests compare.
#[derive(Debug, Deserialize)]
struct Sweep {
    schema: String,
    min_vdd_at_target: Option<f64>,
    grid: Vec<Point>,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tei-sweep-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tei(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tei"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn tei")
}

/// Run a Small-scale sweep of `benchmark` in `dir` and parse the JSON it
/// writes to the default `results/sweep-<benchmark>.json`.
fn sweep(dir: &Path, benchmark: &str) -> Sweep {
    let out = tei(
        dir,
        &["sweep", "--benchmark", benchmark, "--scale", "small"],
    );
    assert!(
        out.status.success(),
        "tei sweep {benchmark} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join(format!("results/sweep-{benchmark}.json"));
    let text = std::fs::read_to_string(&path).expect("sweep result");
    assert!(!text.contains("surrogate"), "{text}");
    serde_json::from_str(&text).expect("sweep JSON")
}

#[test]
fn sweep_result_does_not_depend_on_an_earlier_sweep() {
    let chained = scratch_dir("chained");
    let alone = scratch_dir("alone");
    let sobel = sweep(&chained, "sobel");
    let after_sobel = sweep(&chained, "is");
    let is_alone = sweep(&alone, "is");

    for result in [&sobel, &after_sobel, &is_alone] {
        assert_eq!(result.schema, "tei-sweep-v2");
        assert_eq!(result.grid.len(), 12);
    }
    assert_eq!(after_sobel.grid, is_alone.grid);
    assert_eq!(after_sobel.min_vdd_at_target, Some(1.0));
    assert_eq!(is_alone.min_vdd_at_target, Some(1.0));
    // Nothing besides the result file is left behind for a later sweep
    // to pick up.
    for dir in [&chained, &alone] {
        let entries: Vec<_> = std::fs::read_dir(dir)
            .expect("list scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(entries, ["results"], "{}", dir.display());
    }
    let _ = std::fs::remove_dir_all(&chained);
    let _ = std::fs::remove_dir_all(&alone);
}

#[test]
fn removed_surrogate_flags_are_usage_errors() {
    let dir = scratch_dir("flags");
    for flag in [["--surrogate", "filter"], ["--model-dir", "models"]] {
        let mut args = vec!["sweep", "--benchmark", "sobel"];
        args.extend(flag);
        let out = tei(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag:?}: {stderr}");
    }
    // Refused before any work: nothing was written.
    assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
