//! # tei-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, regenerating the corresponding rows/series from the `tei`
//! toolflow. The `figures` binary drives them from the command line and
//! writes machine-readable JSON next to the pretty-printed tables.
//!
//! [`Artifacts`] is the one experiment runner: `figures`, `models
//! develop` and `tei sweep` all drive the paper's flow through it. A
//! runner is fixed by a [`Sizing`] (benchmark scale, injection runs per
//! cell, DTA pairs per op) and its Vdd levels. `figures` and `models`
//! take [`Sizing::from_env`] — scaled down by default, paper-scale under
//! `TEI_FULL=1` — at the two [`CORNERS`]; `tei sweep` builds its sizing
//! from its flags and runs at its Vdd grid. See EXPERIMENTS.md.

pub mod artifacts;
pub mod figures;
pub mod scaling;

pub use artifacts::{Artifacts, Sizing, CORNERS};
