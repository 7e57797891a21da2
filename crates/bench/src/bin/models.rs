//! Develop and persist error models (the toolflow's model development
//! phase, Figure 2), so the application-evaluation phase can reload them
//! without re-running gate-level DTA.
//!
//! ```text
//! # develop and save all models for the studied corners
//! cargo run --release -p tei-bench --bin models -- develop models/
//!
//! # inspect a saved model
//! cargo run --release -p tei-bench --bin models -- show models/wa-sobel-VR20.json
//! ```

use tei_bench::figures::region_means;
use tei_bench::{Artifacts, Sizing, CORNERS};
use tei_core::journal::{atomic_write_checksummed, verify_checksummed};
use tei_core::{InjectionModel, StatModel, TeiError};
use tei_softfloat::FpOp;
use tei_workloads::BenchmarkId;

const USAGE: &str = "usage: models develop <dir> | models show <file.json>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("develop") => {
            let dir = std::path::PathBuf::from(args.get(1).map_or("models", String::as_str));
            if let Err(e) = develop(&dir) {
                eprintln!("models: {e}");
                std::process::exit(1);
            }
        }
        Some("show") => {
            let Some(path) = args.get(1) else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            if let Err(e) = show(std::path::Path::new(path)) {
                eprintln!("models: {e}");
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn develop(dir: &std::path::Path) -> Result<(), TeiError> {
    std::fs::create_dir_all(dir).map_err(|e| TeiError::io("create output directory", dir, e))?;
    let arts = Artifacts::new(Sizing::from_env(), &CORNERS);
    let mut written = 0usize;
    for &vr in arts.levels() {
        let da = arts.da(vr)?;
        save(dir, &format!("da-{}", vr.label()), &da)?;
        written += 1;
        let ia = arts.ia(vr)?;
        save(dir, &format!("ia-{}", vr.label()), &ia)?;
        written += 1;
        for id in BenchmarkId::all() {
            let wa = arts.wa(id, vr)?;
            save(dir, &format!("wa-{}-{}", id.name(), vr.label()), &wa)?;
            written += 1;
        }
    }
    eprintln!("wrote {written} models into {}", dir.display());
    Ok(())
}

fn save<M: serde::Serialize>(dir: &std::path::Path, name: &str, model: &M) -> Result<(), TeiError> {
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(model).unwrap_or_default();
    atomic_write_checksummed(&path, body.as_bytes())?;
    eprintln!("  {}", path.display());
    Ok(())
}

/// Print a saved model. The file is checked against its `.fnv` sidecar
/// first (when one exists), so a truncated or edited model is refused
/// rather than summarized.
fn show(path: &std::path::Path) -> Result<(), TeiError> {
    verify_checksummed(path)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| TeiError::io("read model file", path, e))?;
    // DA models are small ({vr, er}); statistical models carry per-op data.
    if let Ok(m) = serde_json::from_str::<StatModel>(&text) {
        println!("{} at {}", m.name(), m.vr().label());
        println!("{:14} {:>10}  S/E/M mean BER", "op", "ER");
        for op in FpOp::all() {
            let [sign, expo, mant] = region_means(m.ber(op), op.result_bits() as usize);
            println!(
                "{:14} {:10.2e}  {sign:.2e} / {expo:.2e} / {mant:.2e}",
                op.to_string(),
                m.error_ratio(op)
            );
        }
    } else if let Ok(m) = serde_json::from_str::<tei_core::DaModel>(&text) {
        println!(
            "{} at {}: fixed ER {:.3e}",
            m.name(),
            m.vr().label(),
            m.fixed_er()
        );
    } else {
        return Err(TeiError::Config {
            knob: "model file".into(),
            reason: format!("{} is neither a statistical nor a DA model", path.display()),
        });
    }
    Ok(())
}
