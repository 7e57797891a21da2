//! `models show` over the real binary: a checksummed model prints, and a
//! missing file or one that no longer matches its `.fnv` sidecar is a
//! typed error with exit code 1, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tei_core::journal::atomic_write_checksummed;
use tei_core::DaModel;
use tei_timing::VoltageReduction;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tei-models-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn show(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_models"))
        .arg("show")
        .arg(path)
        .output()
        .expect("spawn models")
}

/// Exit code 1 with a one-line `models:` diagnostic naming `want`.
fn assert_refused(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(
        stderr.starts_with("models: ") && stderr.contains(want),
        "expected a typed error mentioning {want:?}, got: {stderr}"
    );
}

#[test]
fn show_prints_a_checksummed_model() {
    let dir = scratch_dir("ok");
    let path = dir.join("da-VR20.json");
    let model = DaModel::from_fixed(VoltageReduction::VR20, 0.125);
    let json = serde_json::to_string_pretty(&model).expect("serialize");
    atomic_write_checksummed(&path, json.as_bytes()).expect("write model");
    let out = show(&path);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("VR20"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn show_refuses_a_missing_file() {
    let dir = scratch_dir("missing");
    let out = show(&dir.join("no-such-model.json"));
    assert_refused(&out, "no-such-model.json");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn show_refuses_a_file_that_fails_its_checksum() {
    let dir = scratch_dir("corrupt");
    let path = dir.join("da-VR15.json");
    let model = DaModel::from_fixed(VoltageReduction::VR15, 0.5);
    let json = serde_json::to_string_pretty(&model).expect("serialize");
    atomic_write_checksummed(&path, json.as_bytes()).expect("write model");
    // Still a valid model, but not the bytes the sidecar vouches for.
    std::fs::write(&path, json.replace("0.5", "0.25")).expect("tamper");
    let out = show(&path);
    assert_refused(&out, "checksum mismatch");
    let _ = std::fs::remove_dir_all(&dir);
}
