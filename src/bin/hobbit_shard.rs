//! `hobbit-shard` — multi-process sharded runs on one host.
//!
//! Coordinator mode (`--shards N --run-dir DIR`): partitions the block
//! order into N filesystem shard leases under DIR, spawns one worker
//! process per shard (this same binary, re-entered with `--shard`),
//! supervises them through heartbeat mtimes, and merges the per-shard
//! journals into `DIR/report.json` — byte-identical to a single-process
//! run with the same seed/scale/faults. Re-running the identical command
//! resumes a killed coordinator: finished shards are skipped, unfinished
//! ones resume from their journals. A re-run follows the rule of
//! `--resume`: the recorded seed, scale and faults win, and another probe
//! mode, dynamics schedule or shard count exits 3 and touches nothing.
//! A storage failure exits 5, any other failure 1.
//!
//! Worker mode (`--shard I --run-dir DIR`): spawned by the coordinator;
//! every knob comes from the shard's lease file, not the command line.
//! Only this binary parses `--shards` and `--shard`.

use experiments::args::{expect_value, or_exit, ParseOutcome, USAGE};
use experiments::coordinator::{run_sharded, worker_main, CoordinatorConfig, REPORT_FILE};
use experiments::ExpArgs;
use obs::NullRecorder;
use std::path::PathBuf;

/// The flags only this binary takes; the shared experiment flags follow.
const SHARD_USAGE: &str = "usage: hobbit_shard (--shards N | --shard I) --run-dir DIR [flags]\n\
--shards N    coordinate a multi-process sharded run: write N shard\n\
\u{20}             leases under --run-dir and spawn one worker per shard;\n\
\u{20}             re-run the same command to resume (conflicts with\n\
\u{20}             --resume and --shard)\n\
--shard I     run as shard worker I of a sharded run (spawned by the\n\
\u{20}             coordinator; the lease file under --run-dir carries\n\
\u{20}             every other knob)\n";

/// This process's part in a sharded run.
#[derive(Debug, PartialEq)]
enum Role {
    /// `--shards N`: lease, spawn, supervise and merge N shards.
    Coordinator { shards: usize, run_dir: PathBuf },
    /// `--shard I`: run shard I from its lease under the run dir.
    Worker { shard: usize, run_dir: PathBuf },
}

/// Split `--shards`/`--shard` off the command line, parse the rest as
/// experiment flags, and check the role against them: every conflict
/// fails here, before any run dir is touched.
fn parse_from(tokens: impl IntoIterator<Item = String>) -> Result<(Role, ExpArgs), ParseOutcome> {
    let (mut shards, mut shard, mut rest) = (None, None, Vec::new());
    let mut it = tokens.into_iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--shards" => shards = Some(expect_value(&mut it, "--shards")?),
            "--shard" => shard = Some(expect_value(&mut it, "--shard")?),
            _ => rest.push(token),
        }
    }
    let args = ExpArgs::parse_from(rest)?;
    let role = match (shards, shard, args.run_dir.clone()) {
        (Some(_), Some(_), _) => Err("--shards and --shard are mutually exclusive"),
        (None, None, _) => Err("need --shards N (coordinator) or --shard I (worker)"),
        (Some(0), None, _) => Err("--shards must be at least 1"),
        (Some(_), None, None) => Err("--shards requires --run-dir (leases live there)"),
        (None, Some(_), None) => Err("--shard requires --run-dir (its lease lives there)"),
        (Some(_), None, _) if args.resume => Err("--resume conflicts with --shards: \
             re-run the coordinator on the same --run-dir to resume a sharded run"),
        (None, Some(_), _) if args.resume => Err("--resume conflicts with --shard: \
             a worker resumes its own shard journal automatically"),
        (Some(shards), None, Some(run_dir)) => Ok(Role::Coordinator { shards, run_dir }),
        (None, Some(shard), Some(run_dir)) => Ok(Role::Worker { shard, run_dir }),
    };
    Ok((role.map_err(|msg| ParseOutcome::Error(msg.into()))?, args))
}

fn main() {
    let usage = format!("{SHARD_USAGE}\n{USAGE}");
    let (role, args) = or_exit(parse_from(std::env::args().skip(1)), &usage);
    let (shards, run_dir) = match role {
        Role::Worker { shard, run_dir } => std::process::exit(worker_main(&run_dir, shard)),
        Role::Coordinator { shards, run_dir } => (shards, run_dir),
    };
    let cfg = CoordinatorConfig {
        args,
        ..CoordinatorConfig::new(run_dir, shards)
    };
    match run_sharded(&cfg, &NullRecorder) {
        Ok(report) => {
            if cfg.args.json {
                println!("{report}");
            } else {
                println!(
                    "sharded run complete: {} shards merged into {}",
                    cfg.shards,
                    cfg.run_dir.join(REPORT_FILE).display()
                );
            }
        }
        Err(e) => {
            eprintln!("hobbit-shard: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<(Role, ExpArgs), ParseOutcome> {
        parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shard_flags_parse_with_run_dir() {
        let (role, _) = parse(&["--shards", "4", "--run-dir", "runs/x"]).unwrap();
        assert_eq!(
            role,
            Role::Coordinator {
                shards: 4,
                run_dir: "runs/x".into()
            }
        );
        let (role, _) = parse(&["--shard", "2", "--run-dir", "runs/x"]).unwrap();
        assert_eq!(
            role,
            Role::Worker {
                shard: 2,
                run_dir: "runs/x".into()
            }
        );
        // The experiment flags a coordinator copies into every lease.
        let (_, args) = parse(&[
            "--mda-lite",
            "--storage-chaos",
            "7",
            "--shards",
            "2",
            "--run-dir",
            "x",
        ])
        .unwrap();
        assert!(args.mda_lite);
        assert_eq!(
            args.storage_chaos,
            Some((7, experiments::args::DEFAULT_CHAOS_RATE))
        );
        // Neither role: nothing to do.
        assert!(matches!(
            parse(&["--run-dir", "x"]),
            Err(ParseOutcome::Error(_))
        ));
    }

    #[test]
    fn shard_flag_conflicts_fail_before_any_run_dir_is_touched() {
        // --resume + --shards: the coordinator resumes by re-running.
        let e = parse(&["--shards", "2", "--run-dir", "x", "--resume"]);
        match e {
            Err(ParseOutcome::Error(msg)) => assert!(msg.contains("--resume"), "{msg}"),
            other => panic!("expected conflict error, got {other:?}"),
        }
        // --shard without a run dir: the lease file is unreachable.
        let e = parse(&["--shard", "0"]);
        match e {
            Err(ParseOutcome::Error(msg)) => assert!(msg.contains("--run-dir"), "{msg}"),
            other => panic!("expected missing run-dir error, got {other:?}"),
        }
        // Coordinator and worker roles are exclusive.
        assert!(matches!(
            parse(&["--shards", "2", "--shard", "0", "--run-dir", "x"]),
            Err(ParseOutcome::Error(_))
        ));
        // --shards without a run dir would have nowhere to put leases.
        assert!(matches!(
            parse(&["--shards", "2"]),
            Err(ParseOutcome::Error(_))
        ));
        // A worker resumes its own journal; --resume on a worker is a bug.
        assert!(matches!(
            parse(&["--shard", "0", "--run-dir", "x", "--resume"]),
            Err(ParseOutcome::Error(_))
        ));
        // Zero shards is meaningless.
        assert!(matches!(
            parse(&["--shards", "0", "--run-dir", "x"]),
            Err(ParseOutcome::Error(_))
        ));
    }
}
