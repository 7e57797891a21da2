//! Process-level fabric tests over the real `tei` binary: a 2-worker
//! campaign with a chaos SIGKILL mid-lease must reassign the dead
//! worker's leases and still merge to the exact serial result, the
//! in-process campaign (`--workers 0`) must write the same result file
//! as a 2-worker fleet, invalid fleet timing must be refused as a usage
//! error, and a
//! `tei serve` + `tei submit` round trip must stream that same result
//! (twice — the second submission answers from the journals without
//! re-executing). These are the CI smoke tests of DESIGN.md's
//! "Campaign fabric" section.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use tei_core::campaign::{self, GoldenRun};
use tei_core::{CampaignResult, DaModel};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const RUNS: usize = 64;

fn tei_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tei")
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tei-fabric-cli-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The serial ground truth, computed in-process with the exact campaign
/// identity the fabric derives from the same spec flags (throttle and
/// worker count are excluded from the manifest, so they cannot matter).
fn reference_json() -> &'static str {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = scratch_dir("ref");
        let bench = build(BenchmarkId::Sobel, Scale::Test);
        let golden = GoldenRun::capture(&bench, 8 << 20, u64::MAX).expect("golden run");
        let model = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
        let cfg = campaign::CampaignConfig {
            runs: RUNS,
            seed: 1,
            timeout_factor: 2.0,
            threads: 1,
            ..Default::default()
        };
        let result = campaign::run_campaign_durable("sobel", &golden, &model, &cfg, &dir)
            .expect("serial reference campaign");
        std::fs::remove_dir_all(&dir).ok();
        serde_json::to_string(&result).expect("serialize reference")
    })
}

/// Parse a result artifact and re-serialize it compactly so byte
/// comparison ignores the pretty-printing of the file format.
fn read_result(path: &Path) -> String {
    let body = std::fs::read_to_string(path).expect("result artifact");
    let parsed: CampaignResult = serde_json::from_str(&body).expect("parse result artifact");
    serde_json::to_string(&parsed).expect("re-serialize result")
}

#[test]
fn two_worker_campaign_with_chaos_kill_matches_serial() {
    let dir = scratch_dir("chaos");
    let out = dir.join("fabric.json");
    // Throttle each run so leases take long enough (~8 runs × 25 ms)
    // that the 200 ms chaos tick reliably catches worker 0 mid-lease.
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
            "--workers",
            "2",
            "--throttle-ms",
            "25",
            "--chaos-kill-worker",
            "0:1",
            "--journal-dir",
        ])
        .arg(dir.join("journal"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tei campaign failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: killed worker 0"),
        "chaos hook did not fire:\n{stderr}"
    );
    assert!(
        stderr.contains("worker 0 died"),
        "worker death went undetected:\n{stderr}"
    );
    assert_eq!(
        read_result(&out),
        reference_json(),
        "kill-and-reassign changed the merged result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `tei campaign` over the test spec with extra flags; return its
/// result file verbatim.
fn campaign_result_file(dir: &Path, tag: &str, extra: &[&str]) -> String {
    let out = dir.join(format!("{tag}.json"));
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
        ])
        .args(extra)
        .arg("--journal-dir")
        .arg(dir.join(format!("journal-{tag}")))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    assert!(
        output.status.success(),
        "tei campaign {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(&out).expect("result file")
}

#[test]
fn in_process_campaign_matches_two_worker_fleet_byte_for_byte() {
    let dir = scratch_dir("inproc");
    let in_process = campaign_result_file(
        &dir,
        "in-process",
        &["--workers", "0", "--threads-per-worker", "2"],
    );
    let fleet = campaign_result_file(&dir, "fleet", &["--workers", "2"]);
    assert_eq!(
        in_process, fleet,
        "--workers 0 and --workers 2 wrote different result files"
    );
    let parsed: CampaignResult = serde_json::from_str(&in_process).expect("parse result");
    assert_eq!(
        serde_json::to_string(&parsed).expect("re-serialize result"),
        reference_json(),
        "in-process campaign diverged from the serial reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_fleet_timing_is_a_usage_error() {
    for (flag, value, field) in [
        ("--tick-ms", "0", "tick"),
        ("--tick-ms", "60001", "tick"),
        ("--lease-timeout-s", "0", "lease_timeout"),
        ("--heartbeat-timeout-s", "0", "heartbeat_timeout"),
    ] {
        let dir = scratch_dir("timing");
        let output = Command::new(tei_bin())
            .args(["campaign", "--benchmark", "sobel", flag, value])
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .output()
            .expect("run tei campaign");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}:\n{stderr}");
        assert!(
            stderr.contains(field),
            "{flag} {value} not named:\n{stderr}"
        );
        assert!(
            !dir.join("journal").exists(),
            "{flag} {value} was refused only after the journal was created"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(unix)]
#[test]
fn sigstopped_worker_is_detected_by_heartbeat_not_lease_expiry() {
    let dir = scratch_dir("sigstop");
    let out = dir.join("fabric.json");
    let start = std::time::Instant::now();
    // SIGSTOP (unlike SIGKILL) keeps the socket open, so EOF never
    // arrives; with the lease timeout cranked to 600 s only heartbeat
    // loss can recover the frozen worker's leases within the deadline.
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
            "--workers",
            "2",
            "--throttle-ms",
            "25",
            "--chaos-stop-worker",
            "0:1",
            "--lease-timeout-s",
            "600",
            "--heartbeat-timeout-s",
            "2",
            "--tick-ms",
            "100",
            "--journal-dir",
        ])
        .arg(dir.join("journal"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tei campaign failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: stopped worker 0"),
        "chaos stop hook did not fire:\n{stderr}"
    );
    assert!(
        stderr.contains("heartbeat lost"),
        "frozen worker went undetected by heartbeats:\n{stderr}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(120),
        "recovery took {elapsed:?}; heartbeat detection should beat the 600 s lease timeout"
    );
    assert_eq!(
        read_result(&out),
        reference_json(),
        "freeze-and-reassign changed the merged result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_submit_round_trip_matches_serial() {
    let dir = scratch_dir("serve");
    let mut serve = Command::new(tei_bin())
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
        .arg("--journal-dir")
        .arg(dir.join("journal"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tei serve");
    let stderr = serve.stderr.take().expect("serve stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("[fabric] serving on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address on the serving line")
                .to_string();
        }
    };
    // Keep draining stderr so the server never blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines {});

    let submit = |out: &Path| {
        Command::new(tei_bin())
            .args([
                "submit",
                "--connect",
                &addr,
                "--benchmark",
                "sobel",
                "--runs",
                "64",
                "--seed",
                "1",
                "--out",
            ])
            .arg(out)
            .output()
            .expect("run tei submit")
    };

    let first_out = dir.join("first.json");
    let first = submit(&first_out);
    let first_err = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "tei submit failed:\n{first_err}");
    assert!(
        first_err.contains("accepted as campaign"),
        "no acceptance streamed:\n{first_err}"
    );
    assert_eq!(
        read_result(&first_out),
        reference_json(),
        "served campaign diverged from the serial reference"
    );

    // Same spec again: every run is journaled, so the server must answer
    // from the merge without re-executing anything.
    let again_out = dir.join("again.json");
    let again = submit(&again_out);
    assert!(
        again.status.success(),
        "re-submit failed:\n{}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(
        read_result(&again_out),
        reference_json(),
        "replayed submission diverged"
    );

    serve.kill().ok();
    serve.wait().ok();
    drain.join().ok();
    std::fs::remove_dir_all(&dir).ok();
}
