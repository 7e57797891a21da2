//! The static-verification subcommand `lint`: structural netlist lints.

use crate::USAGE;
use tei_netlist::{lint_module, lint_netlist, parse_verilog, to_verilog, CellLibrary};

/// Run the lint subcommand; returns whether every design came back clean.
pub(crate) fn lint(args: &[String]) -> bool {
    if args.iter().any(|a| a == "--fpu") {
        if args.len() != 1 {
            eprintln!("tei: --fpu takes no file arguments\n{USAGE}");
            std::process::exit(2);
        }
        return lint_fpu_bank();
    }
    if args.is_empty() {
        eprintln!("tei: lint needs --fpu or at least one Verilog file\n{USAGE}");
        std::process::exit(2);
    }
    let lib = CellLibrary::nangate45_like();
    let mut clean = true;
    for path in args {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("tei: cannot read {path}: {e}");
                clean = false;
                continue;
            }
        };
        let module = match parse_verilog(&src) {
            Ok(module) => module,
            Err(e) => {
                eprintln!("tei: {path}: {e}");
                clean = false;
                continue;
            }
        };
        clean &= report(path, &lint_module(&module, &lib));
    }
    clean
}

/// Lint the generated FPU bank: the functional and DTA netlists of every
/// unit, plus an export → parse → module-lint round-trip of the first
/// unit to cover the Verilog path end to end.
fn lint_fpu_bank() -> bool {
    let (bank, _) = tei_core::dev::default_bank();
    let mut clean = true;
    for unit in bank.iter() {
        clean &= report(unit.tag(), &lint_netlist(unit.netlist()));
        let dta = unit.dta_netlist();
        clean &= report(&format!("{} (DTA)", unit.tag()), &lint_netlist(&dta));
    }
    if let Some(unit) = bank.iter().next() {
        let src = to_verilog(unit.netlist());
        match parse_verilog(&src) {
            Ok(module) => {
                let diags = lint_module(&module, unit.netlist().library());
                clean &= report(&format!("{} (round-trip)", unit.tag()), &diags);
            }
            Err(e) => {
                eprintln!("tei: {} round-trip failed to parse: {e}", unit.tag());
                clean = false;
            }
        }
    }
    clean
}

/// Print one design's diagnostics; returns whether it was clean.
fn report(design: &str, diags: &[tei_netlist::LintDiagnostic]) -> bool {
    if diags.is_empty() {
        println!("{design}: clean");
        return true;
    }
    println!(
        "{design}: {} finding{}",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    );
    for d in diags {
        println!("  {d}");
    }
    false
}
