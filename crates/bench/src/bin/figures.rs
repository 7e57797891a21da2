//! Regenerate the paper's tables and figures from the `tei` toolflow.
//!
//! ```text
//! cargo run --release -p tei-bench --bin figures -- all
//! cargo run --release -p tei-bench --bin figures -- fig9 fig10 avm
//! TEI_FULL=1 cargo run --release -p tei-bench --bin figures -- all
//! ```
//!
//! JSON copies of every artifact land in `results/`.

use tei_bench::figures::{self, Report};
use tei_bench::{Artifacts, Sizing, CORNERS};

const USAGE: &str = "usage: figures [fig4|fig5|fig6|fig7|fig8|fig9|fig10|table2|avm|mitigation|da-calibration|all]...";

fn main() {
    if let Err(e) = run() {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), tei_core::TeiError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("{USAGE}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut wanted: Vec<&str> = args.iter().map(String::as_str).collect();
    if wanted.contains(&"all") {
        wanted = vec![
            "table2",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "da-calibration",
            "fig9",
            "fig10",
            "avm",
            "mitigation",
        ];
    }
    let arts = Artifacts::new(Sizing::from_env(), &CORNERS);
    let out_dir = std::path::Path::new("results");

    // The campaign sweep backs fig9/fig10/avm/mitigation; run it at most
    // once.
    let needs_campaigns = wanted
        .iter()
        .any(|w| matches!(*w, "fig9" | "fig10" | "avm" | "mitigation"));
    let campaign_results = if needs_campaigns {
        figures::campaigns(&arts)?
    } else {
        Vec::new()
    };

    let mut emitted = 0;
    for w in &wanted {
        let report: Report = match *w {
            "fig4" => figures::fig4(&arts),
            "fig5" => figures::fig5(&arts)?,
            "fig6" => figures::fig6(&arts)?,
            "fig7" => figures::fig7(&arts)?,
            "fig8" => figures::fig8(&arts)?,
            "fig9" => figures::fig9(&campaign_results),
            "fig10" => figures::fig10(&arts, &campaign_results),
            "table2" => figures::table2(&arts)?,
            "avm" => figures::avm_analysis(&campaign_results),
            "mitigation" => figures::mitigation(&arts, &campaign_results)?,
            "da-calibration" => figures::da_calibration(&arts)?,
            other => {
                eprintln!("unknown artifact {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        };
        println!("==== {} ====", report.id);
        println!("{}", report.text);
        report.save(out_dir)?;
        emitted += 1;
    }
    eprintln!(
        "regenerated {emitted} artifact(s) into {}",
        out_dir.display()
    );
    Ok(())
}
