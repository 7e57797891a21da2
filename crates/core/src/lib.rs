//! # tei-core
//!
//! The paper's primary contribution: the cross-layer timing error injection
//! toolflow (Figure 2).
//!
//! * **Model development phase** ([`dev`]) — dynamic timing analysis
//!   campaigns over the gate-level FPU units extract per-instruction,
//!   per-bit error statistics and bitmask libraries.
//! * **Error models** ([`models`]) — the data-agnostic (DA),
//!   instruction-aware (IA), and workload-aware (WA) injection models of
//!   Table I.
//! * **Application evaluation phase** ([`campaign`]) — microarchitecture-
//!   aware injection campaigns over the benchmark programs, classifying
//!   every run as Masked / SDC / Crash / Timeout and computing the
//!   Application Vulnerability Metric (AVM, eq. 4).
//! * **Energy analysis** ([`power`]) — the calibrated power model and
//!   AVM-guided operating-point selection of Section V.C.
//! * **Statistics** ([`stats`]) — Leveugle sample sizing (the 1068 runs).
//! * **Durability** ([`journal`], [`error`], [`shutdown`]) — write-ahead
//!   outcome journals with manifest-keyed resume, panic-isolated runs
//!   with quarantine + retry, typed orchestration errors, and
//!   signal-drained shutdown, so multi-hour sweeps survive crashes,
//!   poisoned runs, and ctrl-C without losing completed work.
//! * **Campaign fabric** ([`fabric`]) — lease-partitioned multi-process
//!   campaigns over the journal layer (coordinator + worker fleet over a
//!   localhost framed socket, with a resident `tei serve` front end);
//!   the merged result is byte-identical to the single-process run.
//!
//! ## Example
//!
//! ```no_run
//! use tei_core::{campaign, dev, models, models::InjectionModel};
//! use tei_timing::VoltageReduction;
//! use tei_workloads::{build, BenchmarkId, Scale};
//!
//! # fn main() -> Result<(), tei_core::TeiError> {
//! // Model development: generate the FPU bank and a workload-aware model.
//! let (bank, spec) = dev::default_bank();
//! let bench = build(BenchmarkId::Sobel, Scale::Small);
//! let trace = dev::TraceSet::capture(&bench.program, 8 << 20, u64::MAX, 20_000);
//! let wa = models::StatModel::workload_aware(
//!     &bank, &spec, VoltageReduction::VR20, &trace, 20_000)?;
//!
//! // Application evaluation: run the injection campaign durably — every
//! // completed run is journaled, and an interrupted sweep resumes.
//! let golden = campaign::GoldenRun::capture(&bench, 8 << 20, u64::MAX)?;
//! let cfg = campaign::CampaignConfig::default();
//! let result = campaign::run_campaign_durable(
//!     "sobel", &golden, &wa, &cfg, &tei_core::config::default_journal_dir())?;
//! println!("AVM = {:.3}", result.avm());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod config;
pub mod dev;
pub mod error;
pub mod fabric;
pub mod failpoint;
pub mod journal;
pub mod models;
pub mod power;
pub mod shutdown;
pub mod stats;

pub use campaign::{
    CampaignConfig, CampaignResult, GoldenRun, Outcome, OutcomeCounts, QuarantinedRun, ReplayMode,
};
pub use dev::{
    dta_campaign_predictive, fit_surrogate, load_surrogate, operand_format_of, save_surrogate,
    DaCalibration, DtaTuning, KernelBackend, OpErrorStats, PruneDecision, PrunePolicy,
    SurrogateMode, SurrogateReport, SurrogateRun, TraceSet,
};
pub use error::TeiError;
pub use fabric::{run_fabric_campaign, serve, CampaignSpec, FabricConfig, FabricEvent};
pub use journal::{atomic_write, atomic_write_checksummed, fnv64, CampaignManifest, Journal};
pub use models::{DaModel, InjectionModel, MaskSampling, ModelKind, StatModel};
