//! # tei-timing
//!
//! Static and dynamic timing analysis over `tei-netlist` circuits, plus the
//! voltage→delay derating models that turn supply-voltage reduction into
//! path-delay inflation.
//!
//! This crate substitutes the commercial timing flow of the paper
//! (PrimeTime-style STA, ModelSim gate-level dynamic timing analysis with
//! SDF back-annotation, and SiliconSmart library re-characterization at
//! reduced voltage):
//!
//! * [`Sta`] — static timing analysis: per-net arrival times, per-endpoint
//!   worst paths, slack, and the top-K lowest-slack path census behind the
//!   paper's Figure 4.
//! * [`ArrivalSim`] — fast two-vector *dynamic* timing simulation using
//!   transition-propagation arrival times (glitch-free approximation; the
//!   Razor-style "latch keeps the old value" error model). The per-pair
//!   test oracle of the table kernel.
//! * [`SpecializedKernel`] over a [`DynProgram`] built from a
//!   [`CompiledNetlist`] — the one DTA engine (campaigns and γ
//!   calibration): the same arrival model over bit-sliced 8-word window
//!   lanes (512 vectors per pass) and liveness-compacted settle tables,
//!   bit-identical to `ArrivalSim`.
//! * [`EventSim`] — exact event-driven timed simulation with transport
//!   delays (models glitches); the reference engine the fast one is
//!   validated against.
//! * [`VoltageReduction`] / [`InterpolatedDerating`] — the alpha-power-law
//!   supply-voltage derating used to model VR15/VR20 corners and
//!   continuous-Vdd sweeps.
//!
//! A DTA step is one consecutive input pair: the bits a register latches
//! at the derated corner are [`TwoVectorResult::latched`] at
//! `(clk, vr.derating_factor())`, the error mask their XOR with the
//! steady state. An output bit is statically safe when
//! [`CompiledNetlist::static_bound`]`(net) * factor <= clk`.
//!
//! ## Example
//!
//! ```
//! use tei_netlist::{Netlist, CellLibrary};
//! use tei_timing::{Sta, VoltageReduction};
//!
//! let mut nl = Netlist::new("inc", CellLibrary::nangate45_like());
//! let a = nl.add_input_bus("a", 8);
//! let (r, _) = nl.incrementer(&a);
//! nl.mark_output_bus("r", &r);
//! let sta = Sta::analyze(&nl);
//! let clk = 4.5;
//! assert!(sta.max_delay() < clk, "circuit meets timing at nominal");
//! let k = VoltageReduction::VR20.derating_factor();
//! assert!(k > 1.0, "reduced voltage inflates delay");
//! ```

pub mod codegen;
mod compiled;
mod derating;
mod event;
mod sim;
mod sta;
pub mod surrogate;

pub use codegen::{transpose64, DynProgram, SettlePlan, SpecializedKernel};
pub use compiled::CompiledNetlist;
pub use derating::{AlphaPowerLaw, InterpolatedDerating, VoltageReduction};
pub use event::{EventSim, EventSimResult, FanoutTable};
pub use sim::{ArrivalSim, TwoVectorResult};
pub use sta::{PathCensus, PathInfo, Sta};
pub use surrogate::{OperandFormat, SurrogateClass, SurrogateFitter, SurrogateModel};
