//! Typed errors for the orchestration (non-hot) paths of the toolflow.
//!
//! Hot per-run replay code stays `Result`-free — it operates on data the
//! golden run already validated — but everything that touches the outside
//! world (env knobs, filesystems, model calibration inputs, worker pools)
//! surfaces a [`TeiError`] instead of panicking, so a multi-hour campaign
//! can report *what* went wrong and leave its journal resumable.

use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by campaign orchestration, model development, and the
/// durable-journal layer.
#[derive(Debug)]
pub enum TeiError {
    /// An environment knob or config field holds an unusable value.
    Config {
        /// Knob or field name (e.g. `TEI_THREADS`).
        knob: String,
        /// What was wrong with it.
        reason: String,
    },
    /// [`crate::stats::sample_size`] got a confidence level outside the
    /// supported table.
    UnsupportedConfidence(f64),
    /// A model constructor asked a calibration for a VR level it does not
    /// contain.
    MissingVrLevel {
        /// The requested level's label (e.g. `VR20`).
        vr: String,
        /// Which lookup failed.
        context: &'static str,
    },
    /// A DTA campaign produced no stats for a requested `(op, vr)` cell.
    EmptyDta {
        /// Operation label.
        op: String,
        /// VR level label.
        vr: String,
    },
    /// The error-free golden run of a benchmark did not complete cleanly.
    GoldenRun {
        /// Benchmark name.
        benchmark: String,
        /// Failure detail (exit reason / core disagreement).
        detail: String,
    },
    /// A filesystem operation failed.
    Io {
        /// What was being attempted (`create journal`, `rename artifact`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A journal file failed structural validation beyond simple tail
    /// truncation (bad magic, unreadable manifest), or a checksummed
    /// artifact no longer matches its `.fnv` sidecar.
    JournalCorrupt {
        /// Journal path.
        path: PathBuf,
        /// What was malformed.
        reason: String,
    },
    /// An existing journal was recorded under a different campaign
    /// manifest; resuming would silently merge incompatible sweeps.
    ManifestMismatch {
        /// Journal path.
        path: PathBuf,
        /// Manifest hash the current campaign expects.
        expected: u64,
        /// Manifest hash stored in the journal.
        found: u64,
    },
    /// The filesystem under a journal ran out of space. The campaign
    /// paused scheduling, dropped the batch whose commit failed, and
    /// drained — the journal is intact and resumable once space is
    /// freed, never a corrupt artifact.
    DiskFull {
        /// Journal (or artifact) path that hit `ENOSPC`.
        path: PathBuf,
        /// Runs committed and tallied before the pause. The journal may
        /// also hold whole records of the failed batch; resume counts
        /// them.
        completed: u64,
        /// Total runs the campaign wants.
        requested: u64,
    },
    /// The sweep was interrupted (SIGINT/SIGTERM) after draining workers
    /// and flushing the journal; completed runs are preserved on disk.
    Interrupted {
        /// Runs durably recorded before stopping.
        completed: u64,
        /// Total runs the campaign wants.
        requested: u64,
    },
    /// A worker pool could not be joined — the scoped-thread invariant
    /// (workers never unwind past their isolation boundary) was violated.
    WorkerPool(&'static str),
    /// A fabric peer (worker, coordinator, or client) violated the wire
    /// protocol: bad handshake token, corrupt frame, or a message that is
    /// not valid in the connection's current state.
    Protocol {
        /// Which peer misbehaved (e.g. `worker 3`, `client 127.0.0.1:…`).
        peer: String,
        /// What was wrong.
        detail: String,
    },
    /// The multi-process campaign fabric failed as a whole: workers could
    /// not be spawned, every worker died with leases outstanding, or the
    /// final merge found conflicting records.
    Fabric {
        /// What went wrong.
        detail: String,
    },
    /// A persisted surrogate settle-time model does not match the unit it
    /// was asked to predict for (wrong unit tag, stale netlist
    /// fingerprint, different clock, or a derating factor above its
    /// calibrated ceiling). The predict-then-verify pipeline refuses
    /// rather than risk silently wrong skips — re-fit the model with
    /// `fit_surrogate`, or run the exact campaign (`dta_campaign_tuned`).
    SurrogateStale {
        /// The FPU unit the prediction was requested for.
        unit: String,
        /// Why the model was rejected.
        reason: String,
    },
}

impl fmt::Display for TeiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeiError::Config { knob, reason } => write!(f, "invalid {knob}: {reason}"),
            TeiError::UnsupportedConfidence(c) => write!(
                f,
                "unsupported confidence level {c} (supported: 0.90, 0.95, 0.99)"
            ),
            TeiError::MissingVrLevel { vr, context } => {
                write!(f, "VR level {vr} missing from {context}")
            }
            TeiError::EmptyDta { op, vr } => {
                write!(f, "DTA campaign returned no stats for {op} at {vr}")
            }
            TeiError::GoldenRun { benchmark, detail } => {
                write!(f, "golden run of {benchmark} failed: {detail}")
            }
            TeiError::Io { op, path, source } => {
                write!(f, "could not {op} {}: {source}", path.display())
            }
            TeiError::JournalCorrupt { path, reason } => {
                write!(f, "{} is corrupt: {reason}", path.display())
            }
            TeiError::ManifestMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {} belongs to a different campaign \
                 (manifest {found:#018x}, expected {expected:#018x}); \
                 delete it or pass another --journal-dir",
                path.display()
            ),
            TeiError::DiskFull {
                path,
                completed,
                requested,
            } => write!(
                f,
                "disk full under {} after {completed}/{requested} runs; \
                 journal drained and intact — free space and re-run to resume",
                path.display()
            ),
            TeiError::Interrupted {
                completed,
                requested,
            } => write!(
                f,
                "campaign interrupted after {completed}/{requested} runs; \
                 journal flushed, re-run to resume"
            ),
            TeiError::WorkerPool(what) => write!(f, "worker pool failure in {what}"),
            TeiError::Protocol { peer, detail } => {
                write!(f, "fabric protocol violation from {peer}: {detail}")
            }
            TeiError::Fabric { detail } => write!(f, "campaign fabric failed: {detail}"),
            TeiError::SurrogateStale { unit, reason } => write!(
                f,
                "surrogate model unusable for {unit}: {reason}; \
                 re-fit the model or run exact DTA instead"
            ),
        }
    }
}

impl std::error::Error for TeiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TeiError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl TeiError {
    /// Wrap an I/O error with the operation and path that hit it.
    pub fn io(op: &'static str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        TeiError::Io {
            op,
            path: path.into(),
            source,
        }
    }

    /// True when the error is the cooperative-interrupt signal (not a
    /// failure: the journal holds every completed run).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, TeiError::Interrupted { .. })
    }

    /// True for errors that leave resumable journals behind: re-running
    /// the same campaign picks up where this one stopped, so a retry
    /// (after freeing space, for an expired lease, …) is safe and loses
    /// nothing.
    pub fn is_resumable(&self) -> bool {
        matches!(
            self,
            TeiError::Interrupted { .. } | TeiError::DiskFull { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = TeiError::ManifestMismatch {
            path: PathBuf::from("j/x.wal"),
            expected: 1,
            found: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("different campaign"));
        assert!(msg.contains("--journal-dir"));
        assert!(TeiError::Interrupted {
            completed: 3,
            requested: 10
        }
        .is_interrupted());
    }

    #[test]
    fn io_wrapper_keeps_source() {
        use std::error::Error as _;
        let e = TeiError::io(
            "create journal",
            "/nope/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.source().is_some());
        assert!(e.to_string().contains("create journal"));
    }
}
