//! Multi-process campaign fabric: lease-partitioned DTA/injection
//! campaigns over the WAL journal layer.
//!
//! The paper's methodology is embarrassingly parallel — every injection
//! run is independent given the campaign manifest — but a single process
//! caps throughput at one machine's worth of threads sharing one
//! allocator. The fabric turns the durable journal substrate into a
//! coordinator/worker architecture:
//!
//! * The **coordinator** ([`run_fabric_campaign`]) runs exactly one
//!   campaign: it partitions the campaign's run-index space into **leases** ([`lease::LeaseTable`],
//!   persisted next to the journals and fingerprint-checked against the
//!   campaign manifest), spawns N worker processes, grants leases over a
//!   localhost TCP socket with simple length-prefixed frames
//!   ([`wire`]), and reassigns the leases of workers that die (socket
//!   EOF) or hang (lease expiry).
//! * Each **worker** ([`worker_main`]) executes leased run ranges with
//!   the existing checkpointed runner
//!   ([`crate::campaign::execute_lease`]) and appends to its *own*
//!   FNV-checksummed journal
//!   ([`CampaignManifest::worker_file_name`](crate::journal::CampaignManifest::worker_file_name)),
//!   so workers never contend on a file and a crashed worker's partial
//!   progress survives.
//! * The **merge** ([`merge`]) folds every per-worker journal into one
//!   [`OutcomeCounts`](crate::campaign::OutcomeCounts) that is
//!   byte-identical to the single-process result regardless of worker
//!   count, lease schedule, or crash/resume history: the per-run derived
//!   seed depends only on the cell seed and run index, outcomes are
//!   deterministic given the draw, and the tally is a commutative sum
//!   over run indices, so identical duplicate records (from a killed
//!   worker whose lease was re-executed) deduplicate exactly and any
//!   *conflicting* duplicate is a hard error, never a silent merge.

// Orchestration must degrade to typed errors, never panic mid-sweep
// (clippy.toml bans the panicking extractors here).
#![deny(clippy::disallowed_methods)]

/// `eprintln!` in one `write` call. `eprintln!` writes each format
/// piece separately, so lines from a coordinator and its workers sharing
/// one stderr pipe could otherwise split mid-line.
#[macro_export]
macro_rules! log_line {
    ($($arg:tt)*) => {
        eprint!("{}", format!("{}\n", format_args!($($arg)*)))
    };
}

pub mod coordinator;
pub mod lease;
pub mod merge;
pub mod wire;
pub mod worker;

pub use coordinator::{run_fabric_campaign, ChaosKill, FabricConfig, FabricEvent};
pub use lease::{Lease, LeaseState, LeaseTable};
pub use merge::{merged_result, scan_journals};
pub use wire::Message;
pub use worker::worker_main;

use crate::campaign::{CampaignConfig, GoldenRun, GOLDEN_MEM_BYTES};
use crate::error::TeiError;
use crate::journal::CampaignManifest;
use crate::models::DaModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tei_timing::VoltageReduction;
use tei_workloads::{build, Benchmark, BenchmarkId, Scale};

/// A campaign request: everything a worker needs to rebuild the
/// exact campaign context (golden run, model, config) independently.
/// The coordinator and every worker derive the campaign manifest from
/// their own resolution of this spec and cross-check the hashes at
/// launch, so binary or netlist drift between processes is refused
/// instead of silently merging incompatible journals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Benchmark name (e.g. `sobel`, `is`, `k-means`).
    pub benchmark: String,
    /// Problem scale: `test`, `small`, or `full`.
    pub scale: String,
    /// Injection model: `fixed:<er>` (calibration-free DA model).
    pub model: String,
    /// Voltage-reduction corner: `vr15` or `vr20`.
    pub vr: String,
    /// Total injection runs.
    pub runs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Timeout threshold as a multiple of the golden instruction count.
    pub timeout_factor: f64,
    /// Worker threads *inside* each worker process.
    pub threads_per_worker: u64,
    /// Per-run sleep in ms (test-only; lets kill tests land mid-lease).
    pub throttle_ms: u64,
}

impl CampaignSpec {
    /// A spec with the CLI defaults for everything but the benchmark.
    pub fn new(benchmark: &str) -> Self {
        CampaignSpec {
            benchmark: benchmark.to_string(),
            scale: "test".to_string(),
            model: "fixed:1e-2".to_string(),
            vr: "vr20".to_string(),
            runs: 120,
            seed: 1,
            timeout_factor: 2.0,
            threads_per_worker: 1,
            throttle_ms: 0,
        }
    }

    /// Parse and validate the string fields.
    ///
    /// # Errors
    ///
    /// [`TeiError::Config`] naming the offending field.
    pub fn parse(&self) -> Result<ParsedSpec, TeiError> {
        let bad = |knob: &str, reason: String| TeiError::Config {
            knob: knob.to_string(),
            reason,
        };
        let id = BenchmarkId::from_name(&self.benchmark).ok_or_else(|| {
            bad(
                "benchmark",
                format!("unknown benchmark {:?}", self.benchmark),
            )
        })?;
        let scale = Scale::from_name(&self.scale)
            .ok_or_else(|| bad("scale", format!("unknown scale {:?}", self.scale)))?;
        let vr = match self.vr.as_str() {
            "vr15" => VoltageReduction::VR15,
            "vr20" => VoltageReduction::VR20,
            other => return Err(bad("vr", format!("unknown VR level {other:?}"))),
        };
        let er = self
            .model
            .strip_prefix("fixed")
            .map(|r| r.strip_prefix(':').unwrap_or("1e-2"))
            .and_then(|r| r.parse::<f64>().ok())
            .ok_or_else(|| {
                bad(
                    "model",
                    format!("unknown model {:?} (supported: fixed[:<er>])", self.model),
                )
            })?;
        if self.runs == 0 {
            return Err(bad("runs", "must be at least 1".into()));
        }
        Ok(ParsedSpec { id, scale, vr, er })
    }

    /// Resolve the spec into a full campaign context: build the
    /// benchmark, capture the golden run (unless `golden` holds the one
    /// an earlier resolution of this same spec captured), and construct
    /// model + config. Deterministic, so every process resolving the
    /// same spec derives the same campaign manifest.
    ///
    /// # Errors
    ///
    /// [`TeiError::Config`] for malformed fields and
    /// [`TeiError::GoldenRun`] when the golden run fails.
    pub fn resolve(&self, golden: Option<Arc<GoldenRun>>) -> Result<ResolvedCampaign, TeiError> {
        let parsed = self.parse()?;
        let bench = build(parsed.id, parsed.scale);
        let golden = match golden {
            Some(g) => g,
            None => Arc::new(GoldenRun::capture(&bench, GOLDEN_MEM_BYTES, u64::MAX)?),
        };
        let model = DaModel::from_fixed(parsed.vr, parsed.er);
        let mut cfg = CampaignConfig {
            runs: self.runs as usize,
            seed: self.seed,
            timeout_factor: self.timeout_factor,
            threads: (self.threads_per_worker as usize).max(1),
            ..CampaignConfig::default()
        };
        cfg.chaos.throttle_ms = self.throttle_ms;
        Ok(ResolvedCampaign {
            bench,
            golden,
            model,
            cfg,
        })
    }
}

/// The validated, typed fields of a [`CampaignSpec`].
#[derive(Debug, Clone, Copy)]
pub struct ParsedSpec {
    /// Benchmark.
    pub id: BenchmarkId,
    /// Problem scale.
    pub scale: Scale,
    /// VR corner.
    pub vr: VoltageReduction,
    /// Fixed error ratio of the DA model.
    pub er: f64,
}

/// A fully resolved campaign: everything [`crate::campaign`] needs.
#[derive(Debug)]
pub struct ResolvedCampaign {
    /// The built benchmark.
    pub bench: Benchmark,
    /// The captured golden run (with its checkpoint pool), shared so a
    /// reconnecting worker can resolve again without recapturing it.
    pub golden: Arc<GoldenRun>,
    /// The injection model.
    pub model: DaModel,
    /// Campaign sizing.
    pub cfg: CampaignConfig,
}

impl ResolvedCampaign {
    /// The campaign manifest this context journals under.
    pub fn manifest(&self) -> CampaignManifest {
        crate::campaign::campaign_manifest(
            &self.bench.id.to_string(),
            &self.golden,
            &self.model,
            &self.cfg,
        )
    }
}
