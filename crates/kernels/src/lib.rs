//! # tei-kernels
//!
//! Compatibility shim for callers that still ask whether a shipped FPU
//! unit has a specialized DTA kernel. Every unit now builds its table
//! program at runtime ([`FpuUnit::dta_program`]), so the answer is
//! always yes and nothing here is generated or checked.

use tei_fpu::FpuUnit;

/// The answer to "which units have a specialized kernel": all of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// Whether `unit` has a specialized kernel: always `true`.
    pub fn covers(&self, _unit: &FpuUnit) -> bool {
        true
    }
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    &Registry
}
