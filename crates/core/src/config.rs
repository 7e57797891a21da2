//! Environment-tunable experiment sizing.

use crate::error::TeiError;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Knob names already warned about (one stderr line per knob per
/// process, so a sharded campaign does not spam 16 copies).
fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

pub(crate) fn warn_once(name: &str, detail: &str) {
    let mut seen = match warned().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if seen.insert(name.to_string()) {
        eprintln!("warning: ignoring {name}: {detail}");
    }
}

#[cfg(test)]
pub(crate) fn warned_knobs() -> BTreeSet<String> {
    match warned().lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    }
}

/// Read a `usize` from the environment with a default. A set-but-
/// malformed value falls back to the default *and* warns once to stderr —
/// a silently ignored `TEI_THREADS=abc` would otherwise masquerade as a
/// deliberate setting for an entire multi-hour sweep.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                warn_once(name, &format!("unparsable value {v:?}, using {default}"));
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, &format!("non-unicode value, using {default}"));
            default
        }
    }
}

/// True when `TEI_FULL=1` selects paper-scale experiment sizes.
pub fn full_scale() -> bool {
    std::env::var("TEI_FULL").is_ok_and(|v| v == "1")
}

/// Injection runs per (benchmark, model, VR) cell. Paper: 1068 (3 % margin,
/// 95 % confidence); default scaled down for laptop runtimes. Override with
/// `TEI_RUNS`.
pub fn default_runs() -> usize {
    let fallback = if full_scale() { 1068 } else { 120 };
    env_usize("TEI_RUNS", fallback)
}

/// Operand pairs per instruction type for model development DTA. Paper: 1 M
/// per type; default scaled down. Override with `TEI_DTA_SAMPLES`.
pub fn default_dta_samples() -> usize {
    let fallback = if full_scale() { 1_000_000 } else { 20_000 };
    env_usize("TEI_DTA_SAMPLES", fallback)
}

/// Worker threads for sharded DTA campaigns and per-op model building.
/// Defaults to all available cores; override with `TEI_THREADS` (set it
/// to 1 for fully serial execution — results are identical either way).
pub fn default_threads() -> usize {
    let fallback = std::thread::available_parallelism().map_or(4, |n| n.get());
    env_usize("TEI_THREADS", fallback).max(1)
}

/// Supported window lane widths (`u64` words per net) of the bit-sliced
/// DTA kernel — each word carries 64 input vectors.
pub const SUPPORTED_LANES: [usize; 3] = [1, 4, 8];

/// Directory for durable campaign journals. Override with
/// `TEI_JOURNAL_DIR`; defaults to `journal/`.
pub fn default_journal_dir() -> std::path::PathBuf {
    std::env::var_os("TEI_JOURNAL_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("journal"))
}

/// Upper sanity bound for `TEI_THREADS`: beyond this the value is a typo,
/// not a machine.
const MAX_THREADS: usize = 4096;

fn validate_knob(name: &str, check: impl Fn(usize) -> Result<(), String>) -> Result<(), TeiError> {
    let raw = match std::env::var(name) {
        Ok(v) => v,
        Err(_) => return Ok(()), // unset (or non-unicode → default path warns)
    };
    let parsed = raw.trim().parse::<usize>().map_err(|_| TeiError::Config {
        knob: name.to_string(),
        reason: format!("unparsable value {raw:?}"),
    })?;
    check(parsed).map_err(|reason| TeiError::Config {
        knob: name.to_string(),
        reason,
    })
}

/// Validate the campaign-relevant env knobs **at campaign start**: a
/// durable sweep refuses to launch on a malformed `TEI_THREADS` or
/// `TEI_RUNS` rather than silently running with defaults for hours.
///
/// # Errors
///
/// [`TeiError::Config`] naming the offending knob.
pub fn validate_env() -> Result<(), TeiError> {
    validate_knob("TEI_THREADS", |n| {
        if n == 0 {
            Err("must be at least 1".into())
        } else if n > MAX_THREADS {
            Err(format!("{n} exceeds the sanity cap of {MAX_THREADS}"))
        } else {
            Ok(())
        }
    })?;
    validate_knob("TEI_RUNS", |n| {
        if n == 0 {
            Err("must be at least 1".into())
        } else {
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("TEI_SURELY_UNSET_VAR_12345", 7), 7);
    }

    #[test]
    fn malformed_env_warns_once_and_falls_back() {
        // Process-wide env mutation: use a knob name no other test reads.
        std::env::set_var("TEI_TEST_BAD_KNOB", "abc");
        assert_eq!(env_usize("TEI_TEST_BAD_KNOB", 3), 3);
        assert_eq!(env_usize("TEI_TEST_BAD_KNOB", 3), 3);
        assert!(warned_knobs().contains("TEI_TEST_BAD_KNOB"));
        std::env::remove_var("TEI_TEST_BAD_KNOB");
    }

    // Env mutation is process-wide, so every validate_env scenario
    // lives in this one test (parallel test threads would otherwise
    // observe each other's knob values mid-assertion).
    #[test]
    fn validate_env_rejects_bad_knobs() {
        std::env::set_var("TEI_THREADS", "0");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_THREADS"));
        std::env::set_var("TEI_THREADS", "not-a-number");
        assert!(validate_env().is_err());
        std::env::remove_var("TEI_THREADS");
        assert!(validate_env().is_ok());

        // Settings that live in a struct field or a CLI flag have no
        // environment shadow: the names that once overrode them change
        // nothing. (Each name is spelled in two parts so that a search
        // for a knob name finds only code that reads it.)
        let retired = [
            (["TEI_", "LANES"].concat(), "1"),
            (["TEI_", "KERNEL"].concat(), "interp"),
            (["TEI_", "SURROGATE"].concat(), "filter"),
            (["TEI_", "FABRIC_TICK"].concat(), "50"),
            (["TEI_", "LEASE_TIMEOUT"].concat(), "5"),
        ];
        for (name, value) in &retired {
            std::env::set_var(name, value);
        }
        let tuning = crate::dev::DtaTuning::default();
        assert_eq!(tuning.lanes, None);
        assert_eq!(tuning.backend, crate::dev::KernelBackend::Auto);
        assert_eq!(tuning.surrogate, crate::dev::SurrogateMode::Off);
        assert_eq!(tuning.prune, crate::dev::PrunePolicy::Auto);
        let fabric = crate::fabric::FabricConfig::new(Vec::new(), "journal".into());
        assert_eq!(fabric.tick, crate::fabric::coordinator::DEFAULT_TICK);
        assert_eq!(
            fabric.lease_timeout,
            crate::fabric::coordinator::DEFAULT_LEASE_TIMEOUT
        );
        assert!(validate_env().is_ok());
        for (name, _) in &retired {
            std::env::remove_var(name);
        }
    }
}
