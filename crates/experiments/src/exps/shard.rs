//! `hobbit shard`: one run split over worker processes on one host
//! ([`crate::coordinator`]). `--shards N --run-dir DIR` coordinates and
//! merges into `DIR/report.json`, exiting 3 on a refused re-run, 5 on a
//! storage failure and 1 on any other; `--shard I --run-dir DIR` is a
//! worker the coordinator spawns, exiting with [`worker_main`]'s code.

use crate::args::{ExpArgs, ParseOutcome};
use crate::coordinator::{run_sharded, worker_main, CoordinatorConfig, REPORT_FILE};
use crate::report::Report;
use obs::NullRecorder;

/// Check `--shards`/`--shard` against each other, `--run-dir` and
/// `--resume`. `hobbit shard` runs this before it refuses any flag by
/// name, so every conflict fails before a run dir is touched.
pub fn check_role(args: &ExpArgs) -> Result<(), ParseOutcome> {
    let dir = args.run_dir.is_some();
    let msg = match (args.shards, args.shard) {
        (Some(_), Some(_)) => "--shards and --shard are mutually exclusive",
        (None, None) => "need --shards N (coordinator) or --shard I (worker)",
        (Some(0), None) => "--shards must be at least 1",
        (Some(_), None) if !dir => "--shards requires --run-dir (leases live there)",
        (None, Some(_)) if !dir => "--shard requires --run-dir (its lease lives there)",
        (Some(_), None) if args.resume => {
            "--resume conflicts with --shards: \
             re-run the coordinator on the same --run-dir to resume a sharded run"
        }
        (None, Some(_)) if args.resume => {
            "--resume conflicts with --shard: \
             a worker resumes its own shard journal automatically"
        }
        _ => return Ok(()),
    };
    Err(ParseOutcome::Error(msg.into()))
}

/// Coordinate or work a sharded run, as [`check_role`] admitted it. A
/// worker, and a coordinator that fails, end the process with their exit
/// code.
pub fn run(args: &ExpArgs) -> Report {
    let (shards, run_dir) = match (args.shards, args.shard, &args.run_dir) {
        (None, Some(shard), Some(dir)) => std::process::exit(worker_main(dir, shard)),
        (Some(shards), None, Some(dir)) => (shards, dir),
        _ => unreachable!("check_role admits a coordinator or a worker"),
    };
    let cfg = CoordinatorConfig {
        args: args.clone(),
        ..CoordinatorConfig::new(run_dir, shards)
    };
    if let Err(e) = run_sharded(&cfg, &NullRecorder) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    let mut r = Report::new(
        "shard",
        "Sharded run: shard journals merged into one report",
    );
    r.info("shards", shards);
    r.info("report", run_dir.join(REPORT_FILE).display().to_string());
    r
}
