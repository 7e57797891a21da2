//! The `tei` front end's subcommand surface: retired subcommands are
//! unknown (exit 2) and absent from the usage text.

use std::process::Command;

#[test]
fn retired_subcommands_are_unknown() {
    for args in [&["codegen", "--check"][..], &["serve"], &["submit"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tei"))
            .args(args)
            .output()
            .expect("spawn tei");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown subcommand {:?}", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn usage_lists_no_retired_subcommand_or_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_tei"))
        .arg("--help")
        .output()
        .expect("spawn tei");
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("tei lint"), "usage: {usage}");
    for retired in ["codegen", "tei serve", "tei submit", "--listen"] {
        assert!(
            !usage.contains(retired),
            "usage still lists {retired}: {usage}"
        );
    }
}
