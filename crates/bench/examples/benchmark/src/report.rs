//! The benchmark's definition (`BENCHMARK.json` at the repository
//! root), the result files a run writes, and `--check`.

use crate::trace::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `BENCHMARK.json`, compiled in so the metrics a run emits and the
/// units it gives them come from the definition itself.
const DEFINITION_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Deserialize)]
pub struct Definition {
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<EndToEndDef>,
    pub per_layer: Vec<LayerDef>,
}

#[derive(Debug, Deserialize)]
pub struct WorkloadDef {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEndDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct LayerDef {
    pub name: String,
    pub unit: String,
}

impl Definition {
    pub fn load() -> Self {
        serde_json::from_str(DEFINITION_JSON).expect("BENCHMARK.json matches its schema")
    }

    /// `(name, unit)` of the metrics a run reports: the end-to-end ones
    /// untraced, the per-layer ones traced.
    pub fn metrics(&self, trace: bool) -> Vec<(&str, &str)> {
        if trace {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}

/// One metric of one workload: the median over the repetitions it was
/// measured in, with their quartiles and count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

/// What one workload's run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Timed repetitions (the warm-up is not counted).
    pub reps: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// What actually ran: backend, lane width and pruning per FPU unit,
    /// threads, and the journal directory's filesystem.
    pub resolved: BTreeMap<String, String>,
    /// Spans of the traced repetitions.
    pub spans: Vec<Span>,
}

/// A result file (`--out`).
#[derive(Debug, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: String,
    pub host_cores: u64,
    pub commit: String,
    pub seed: u64,
    pub workloads: Vec<WorkloadResult>,
}

pub const SCHEMA: &str = "tei-e2e-benchmark-v1";

/// Validate a result file against the definition: every workload is
/// present with every metric of its mode under the declared unit, the
/// host and commit are recorded, and `failed_frac` is the stated
/// failed / attempted. Returns the violations.
pub fn check(def: &Definition, file: &ResultFile) -> Vec<String> {
    let mut errors = Vec::new();
    if file.schema != SCHEMA {
        errors.push(format!("schema {:?}, expected {SCHEMA:?}", file.schema));
    }
    if file.host_cores == 0 {
        errors.push("host_cores is 0".to_string());
    }
    if file.commit.is_empty() {
        errors.push("commit is empty".to_string());
    }
    for w in &def.workloads {
        if !file.workloads.iter().any(|r| r.workload == w.name) {
            errors.push(format!("workload {} is missing", w.name));
        }
    }
    for r in &file.workloads {
        let name = &r.workload;
        if !def.workloads.iter().any(|w| &w.name == name) {
            errors.push(format!("workload {name} is not in BENCHMARK.json"));
        }
        if r.seed != file.seed {
            errors.push(format!(
                "{name}: seed {} != file seed {}",
                r.seed, file.seed
            ));
        }
        if r.attempted == 0 || r.failed > r.attempted {
            errors.push(format!(
                "{name}: {} failed of {} attempted",
                r.failed, r.attempted
            ));
        }
        for (metric, unit) in def.metrics(r.trace) {
            match r.metrics.get(metric) {
                None => errors.push(format!("{name}: metric {metric} is missing")),
                Some(m) if m.unit != unit => errors.push(format!(
                    "{name}: metric {metric} in {:?}, declared {unit:?}",
                    m.unit
                )),
                Some(m) if !m.value.is_finite() => {
                    errors.push(format!("{name}: metric {metric} is not finite"))
                }
                Some(_) => {}
            }
        }
        if let Some(m) = r.metrics.get("failed_frac") {
            let stated = r.failed as f64 / r.attempted.max(1) as f64;
            if m.value != stated {
                errors.push(format!(
                    "{name}: failed_frac {} != failed / attempted = {stated}",
                    m.value
                ));
            }
        }
    }
    errors
}
