//! Cooperative shutdown for long-running sweeps.
//!
//! Durable campaigns install SIGINT/SIGTERM handlers that set a process-
//! wide flag; workers poll it between injection runs, commit their
//! pending journal batch, and drain before the campaign returns
//! [`TeiError::Interrupted`](crate::TeiError::Interrupted). A second
//! ctrl-C therefore still kills the process the ordinary way — the
//! journal's group-commit contract (a run counts once its batch is
//! fsync'd) makes even that safe: it loses at most the uncommitted batch
//! of each campaign thread, under
//! [`JOURNAL_BATCH_WORK`](crate::campaign::JOURNAL_BATCH_WORK) replayed
//! instructions plus one run and at most
//! [`JOURNAL_BATCH_RUNS`](crate::campaign::JOURNAL_BATCH_RUNS) runs,
//! which resume re-executes.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a shutdown signal was received (or [`request`]ed).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Programmatically request shutdown (tests and embedders).
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Clear the flag (tests only — a real process exits after draining).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one relaxed store.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Install SIGINT/SIGTERM handlers (idempotent; unix only — a no-op
/// elsewhere). Uses the libc `signal` symbol std already links, so no
/// external crate is needed.
pub fn install_handlers() {
    #[cfg(unix)]
    {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        install_handlers(); // must not crash, idempotent
        install_handlers();
    }
}
