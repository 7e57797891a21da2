//! Toolflow front-end: the `tei` command.
//!
//! Campaign fabric (see DESIGN.md, "Campaign fabric"):
//!
//! * `tei campaign --workers N` — one lease-partitioned multi-process
//!   injection campaign per coordinator; byte-identical to the
//!   single-process run (`--workers 0`, in process) and resumable
//!   after any crash.
//! * `tei fabric-worker` — the worker process body the coordinator
//!   spawns (internal; documented for completeness).
//! * `tei chaos` — seeded failpoint-schedule matrix over the fabric
//!   (requires a `--features failpoints` build): every schedule must
//!   end in a result byte-identical to the clean run, or a typed
//!   resumable failure whose resume then matches.
//!
//! Voltage sweep:
//!
//! * `tei sweep` — exact DTA at each point of a Vdd grid, then AVM per
//!   point and the minimum Vdd meeting an AVM target.
//!
//! Exit codes: 0 success, 1 failed campaign, chaos schedule or sweep,
//! 2 usage, 130 interrupted (journals retained; re-run to resume).

mod chaos_cli;
mod fabric_cli;
mod sweep_cli;

const USAGE: &str = "usage: tei <subcommand> [args]

campaign fabric:
  tei campaign --benchmark <name> [--workers <n>] [options]
                                        multi-process campaign
                                        (--workers 0: in process)
  tei fabric-worker --connect <addr> --token <t> --index <i> --journal-dir <d>
                                        internal: fleet worker process
  tei chaos --benchmark <name> [--seeds <a,b,..>] [options]
                                        seeded failpoint chaos matrix
                                        (needs --features failpoints)

campaign options:
  --benchmark <name>       benchmark (e.g. is, sobel, k-means)
  --model fixed[:<er>]     fixed-ratio DA model (default fixed:1e-2)
  --vr vr15|vr20           voltage-reduction corner (default vr20)
  --scale test|small|full  benchmark problem size (default test)
  --runs <n>               injection runs (default 120)
  --seed <n>               base RNG seed (default 1)
  --timeout-factor <x>     timeout as a multiple of golden instructions
  --threads-per-worker <n> threads inside each worker process, or in
                           this process at --workers 0 (default 1)
  --throttle-ms <n>        per-run sleep, for kill tests (default 0)
  --out <file>             result JSON (default results/fabric-<bench>.json)

fleet options:
  --workers <n>            worker processes (default 2; 0 runs in process)
  --leases-per-worker <n>  lease granularity when partitioning (default 4)
  --lease-timeout-s <n>    hung-worker lease expiry backstop, >= 1 (default 600)
  --tick-ms <n>            scheduler timer period, 10..=60000 (default 200)
  --heartbeat-timeout-s <n>  silent-worker dead-peer detection, >= 1 (default 5)
  --journal-dir <dir>      journal directory (default journal/)
  --chaos-kill-worker <w>:<n>  test hook: SIGKILL worker w after n leases
  --chaos-stop-worker <w>:<n>  test hook: SIGSTOP worker w after n leases

chaos options (tei chaos):
  --seeds <a,b,..>         schedule seeds to run (default 1,2,3)
  --keep-going             run every seed even after a failure

voltage sweep:
  tei sweep --benchmark <name> [--grid <n>] [options]
                                        continuous-Vdd AVM sweep: exact DTA
                                        at the alpha-power-law derating per
                                        grid point, then AVM per point and
                                        the minimum Vdd meeting --avm-target

sweep options:
  --grid <n>               Vdd grid points (default 12, min 2)
  --vdd-min <v>            lowest Vdd, volts, above the 0.5 V threshold
                           (default the VR20 corner)
  --vdd-max <v>            highest Vdd, volts, at most nominal 1.1 V
                           (default nominal)
  --avm-target <x>         AVM threshold for min-Vdd (default 0.01)
  --dta-cap <n>            per-op transition cap for DTA (default 4000)
  --out <file>             result JSON (default results/sweep-<bench>.json)
  (--scale, --runs, --seed as for campaigns)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let rest = &args[1..];
    let code = match cmd.as_str() {
        "campaign" => fabric_cli::exit_code(fabric_cli::campaign(rest)),
        "fabric-worker" => fabric_cli::exit_code(fabric_cli::worker(rest)),
        "chaos" => fabric_cli::exit_code(chaos_cli::chaos(rest)),
        "sweep" => fabric_cli::exit_code(sweep_cli::sweep(rest)),
        other => {
            eprintln!("tei: unknown subcommand {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
