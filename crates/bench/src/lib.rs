//! # tei-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, regenerating the corresponding rows/series from the `tei`
//! toolflow. The `figures` binary drives them from the command line and
//! writes machine-readable JSON next to the pretty-printed tables.
//!
//! Experiment sizing (benchmark scale, injection runs, DTA samples) is
//! scaled down by default and paper-scale under `TEI_FULL=1`; see
//! EXPERIMENTS.md.

pub mod artifacts;
pub mod figures;
pub mod scaling;

pub use artifacts::{experiment_scale, Artifacts};
