//! # tei — cross-layer timing error injection
//!
//! Umbrella crate re-exporting the full `tei` toolchain, a Rust
//! reproduction of *"Boosting Microprocessor Efficiency: Circuit- and
//! Workload-Aware Assessment of Timing Errors"* (IISWC 2021).
//!
//! See the individual crates for details:
//!
//! * [`netlist`] — gate-level circuits and datapath builders
//! * [`timing`] — static and dynamic timing analysis (interpreted and
//!   table-driven DTA kernels), voltage derating
//! * [`softfloat`] — bit-accurate IEEE-754 reference arithmetic
//! * [`fpu`] — gate-level FPU datapath generators
//! * [`isa`] — the simulated instruction set and assembler
//! * [`uarch`] — the out-of-order pipeline simulator
//! * [`workloads`] — the seven benchmark kernels
//! * [`core`] — error models (DA/IA/WA), injection campaigns, AVM, energy

pub use tei_core as core;
pub use tei_fpu as fpu;
pub use tei_isa as isa;
pub use tei_netlist as netlist;
pub use tei_softfloat as softfloat;
pub use tei_timing as timing;
pub use tei_uarch as uarch;
pub use tei_workloads as workloads;
