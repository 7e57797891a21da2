//! # tei-workloads
//!
//! The seven benchmark kernels of the paper's Table II — `sobel`, `cg`,
//! `k-means`, `srad_v1`, `hotspot`, `is`, and `mg` — written against the
//! `tei-isa` program builder, with deterministic synthetic inputs, native
//! Rust reference implementations (bit-exact mirrors used by the test
//! suite), and the per-benchmark outcome-classification criteria.
//!
//! Sizes are scaled for simulator throughput ([`Scale`]); EXPERIMENTS.md
//! records the mapping to the paper's inputs.
//!
//! ## Example
//!
//! ```
//! use tei_workloads::{build, BenchmarkId, Scale};
//! use tei_uarch::FuncCore;
//!
//! let bench = build(BenchmarkId::Sobel, Scale::Test);
//! let mut core = FuncCore::with_memory(&bench.program, 1 << 20);
//! let r = core.run(10_000_000);
//! assert!(r.exit.is_success());
//! assert_eq!(core.output, tei_workloads::sobel::native_output(Scale::Test));
//! ```

pub mod cg;
pub mod helpers;
pub mod hotspot;
pub mod is;
pub mod kmeans;
pub mod mg;
pub mod sobel;
pub mod srad;

use serde::{Deserialize, Serialize};
use tei_isa::Program;

/// Benchmark identifiers, in the paper's Table II order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BenchmarkId {
    /// Sobel image filter (Image Detection domain).
    Sobel,
    /// NAS conjugate gradient (HPC).
    Cg,
    /// Rodinia k-means (Data Mining).
    Kmeans,
    /// Rodinia srad_v1 (Medical Imaging).
    SradV1,
    /// Rodinia hotspot (Physics simulation).
    Hotspot,
    /// NAS integer sort (HPC).
    Is,
    /// NAS multigrid (HPC).
    Mg,
}

impl BenchmarkId {
    /// All seven benchmarks in Table II order.
    pub fn all() -> [BenchmarkId; 7] {
        [
            BenchmarkId::Sobel,
            BenchmarkId::Cg,
            BenchmarkId::Kmeans,
            BenchmarkId::SradV1,
            BenchmarkId::Hotspot,
            BenchmarkId::Is,
            BenchmarkId::Mg,
        ]
    }

    /// The paper's name for this benchmark.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Sobel => "sobel",
            BenchmarkId::Cg => "cg",
            BenchmarkId::Kmeans => "k-means",
            BenchmarkId::SradV1 => "srad_v1",
            BenchmarkId::Hotspot => "hotspot",
            BenchmarkId::Is => "is",
            BenchmarkId::Mg => "mg",
        }
    }

    /// The benchmark [`BenchmarkId::name`] spells as `name`, if any.
    pub fn from_name(name: &str) -> Option<BenchmarkId> {
        BenchmarkId::all().into_iter().find(|b| b.name() == name)
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem-size scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Tiny inputs for unit tests (debug-build friendly).
    Test,
    /// Default campaign inputs (hundreds of thousands of instructions).
    #[default]
    Small,
    /// Larger inputs for full experiments.
    Full,
}

impl Scale {
    /// The scale's command-line name: `test`, `small` or `full`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// The scale [`Scale::name`] spells as `name`, if any.
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Test, Scale::Small, Scale::Full]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// A built benchmark: the program plus its Table II metadata.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// Table II "Input" column (actual scaled parameters).
    pub input_desc: String,
    /// Table II "Classification Criteria" column.
    pub classification: &'static str,
    /// The executable program.
    pub program: Program,
}

/// Build a benchmark at the given scale.
pub fn build(id: BenchmarkId, scale: Scale) -> Benchmark {
    match id {
        BenchmarkId::Sobel => sobel::build(scale),
        BenchmarkId::Cg => cg::build(scale),
        BenchmarkId::Kmeans => kmeans::build(scale),
        BenchmarkId::SradV1 => srad::build(scale),
        BenchmarkId::Hotspot => hotspot::build(scale),
        BenchmarkId::Is => is::build(scale),
        BenchmarkId::Mg => mg::build(scale),
    }
}

/// The bit-exact native reference output for a benchmark at a scale.
pub fn native_output(id: BenchmarkId, scale: Scale) -> Vec<u8> {
    match id {
        BenchmarkId::Sobel => sobel::native_output(scale),
        BenchmarkId::Cg => cg::native_output(scale),
        BenchmarkId::Kmeans => kmeans::native_output(scale),
        BenchmarkId::SradV1 => srad::native_output(scale),
        BenchmarkId::Hotspot => hotspot::native_output(scale),
        BenchmarkId::Is => is::native_output(scale),
        BenchmarkId::Mg => mg::native_output(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        for id in BenchmarkId::all() {
            assert_eq!(BenchmarkId::from_name(id.name()), Some(id));
        }
        for scale in [Scale::Test, Scale::Small, Scale::Full] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        for unknown in ["", "kmeans", "Sobel", "medium", "Small"] {
            assert_eq!(BenchmarkId::from_name(unknown), None, "{unknown:?}");
            assert_eq!(Scale::from_name(unknown), None, "{unknown:?}");
        }
    }
}
