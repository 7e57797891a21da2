//! The `tei` front end's subcommand surface: retired subcommands are
//! unknown (exit 2) and absent from the usage text.

use std::process::Command;

#[test]
fn codegen_is_an_unknown_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_tei"))
        .args(["codegen", "--check"])
        .output()
        .expect("spawn tei");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown subcommand \"codegen\""),
        "stderr: {stderr}"
    );
}

#[test]
fn usage_does_not_list_codegen() {
    let out = Command::new(env!("CARGO_BIN_EXE_tei"))
        .arg("--help")
        .output()
        .expect("spawn tei");
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("tei lint"), "usage: {usage}");
    assert!(
        !usage.contains("codegen"),
        "usage still lists codegen: {usage}"
    );
}
