//! # tei-netlist
//!
//! Gate-level netlist representation and combinational datapath builders.
//!
//! This crate is the circuit substrate of the `tei` cross-layer timing-error
//! framework. It plays the role that a synthesized, placed-and-routed Verilog
//! netlist plays in the paper's EDA flow: a directed acyclic graph of
//! primitive logic cells, each annotated with a propagation delay drawn from
//! a [`CellLibrary`]. Higher layers perform static and dynamic timing
//! analysis over it (`tei-timing`) and generate whole functional-unit
//! datapaths from it (`tei-fpu`).
//!
//! ## Model
//!
//! * Every gate drives exactly one net, identified by a [`NetId`] equal to
//!   the gate's index. Primary inputs are gates of kind [`GateKind::Input`].
//! * Construction order is topological by construction: a gate may only
//!   reference already-created nets. Evaluation and timing analysis are
//!   therefore single forward passes.
//! * Gates carry a [`BlockId`] tag naming the pipeline stage / functional
//!   block they belong to, which the paper's Figure 4 path census groups by.
//! * [`lint_netlist`] reports what construction cannot rule out: logic
//!   gates that reach no output and logic gates with a zero delay.
//!
//! ## Example
//!
//! ```
//! use tei_netlist::{Netlist, CellLibrary};
//!
//! let mut nl = Netlist::new("adder4", CellLibrary::nangate45_like());
//! let a = nl.add_input_bus("a", 4);
//! let b = nl.add_input_bus("b", 4);
//! let zero = nl.const_bit(false);
//! let (sum, carry) = nl.ripple_add(&a, &b, zero);
//! nl.mark_output_bus("sum", &sum);
//! nl.mark_output_bus("carry", &[carry]);
//! let out = nl.eval_u64(&[("a", 7), ("b", 9)]);
//! assert_eq!(out["sum"], (7 + 9) & 0xf);
//! assert_eq!(out["carry"], 1);
//! ```

mod build;
mod gate;
mod library;
mod lint;
mod netlist;
mod stats;

pub use gate::{Gate, GateKind};
pub use library::CellLibrary;
pub use lint::{lint_netlist, LintDiagnostic, LintKind};
pub use netlist::{bus_value_u128, bus_value_u64, BlockId, NetId, Netlist};
pub use stats::{BlockStats, NetlistStats};
