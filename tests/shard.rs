//! Multi-process shard conformance sweep: a run partitioned over N worker
//! processes — including runs where workers are killed mid-journal, wedge
//! past their heartbeat timeout, or the coordinator itself dies — must
//! merge into a `hobbit-report/v1` byte-identical to a single-process run
//! with the same seed/scale. Workers are the real `hobbit` executable,
//! re-entered as `hobbit shard --shard I` exactly as in production, and
//! the CLI cases drive `hobbit shard` itself.

use experiments::args::{ParseOutcome, DEFAULT_CHAOS_RATE};
use experiments::coordinator::{
    run_sharded, CoordCrash, CoordError, CoordinatorConfig, LOCK_FILE, REPORT_FILE,
};
use experiments::exps::shard::check_role;
use experiments::journal::CrashPoint;
use experiments::lease::{shard_dir, LeaseSabotage};
use experiments::{ExpArgs, Pipeline, RunError};
use obs::{NullRecorder, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;
use testkit::{first_divergence, kill_points, CrashPlan};

const SEED: u64 = 4242;
const SCALE: f64 = 0.01;

/// The `hobbit` binary cargo built alongside this test.
fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_hobbit"))
}

/// A `hobbit shard` command line, to which the test appends flags.
fn shard_cli() -> Command {
    let mut cmd = Command::new(worker_exe());
    cmd.arg("shard");
    cmd
}

/// The single-process truth, computed once: the canonical report every
/// sharded variant must reproduce byte-for-byte, plus the selected-block
/// count the kill sweep derives its crash points from.
struct Baseline {
    report: String,
    selected: usize,
}

fn baseline() -> &'static Baseline {
    static CELL: OnceLock<Baseline> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = Pipeline::builder().seed(SEED).scale(SCALE).threads(2).run();
        Baseline {
            report: p.canonical_report(),
            selected: p.selected.len(),
        }
    })
}

/// Run dirs live under `HOBBIT_RESUME_DIR` (CI points this at a workspace
/// path so diverging run-dirs survive as artifacts) or the system temp
/// dir. Passing tests remove their dirs; a failing test leaves everything
/// — leases, shard journals, heartbeats — behind for post-mortem.
fn run_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("HOBBIT_RESUME_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let d = base.join(format!("sharded-run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(dir: &PathBuf, shards: usize, threads: usize) -> CoordinatorConfig {
    let mut cfg = CoordinatorConfig::new(dir, shards);
    cfg.args = ExpArgs {
        seed: SEED,
        scale: SCALE,
        threads,
        ..Default::default()
    };
    cfg.worker_exe = Some(worker_exe());
    cfg
}

fn assert_identical(got: &str, what: &str) {
    if let Some((pos, ctx)) = first_divergence(&baseline().report, got) {
        panic!("{what}: merged report diverges from single-process at {pos}: {ctx}");
    }
}

#[test]
fn clean_sharded_runs_merge_byte_identical_to_single_process() {
    for (shards, threads) in [(2, 1), (2, 8), (4, 1), (4, 8)] {
        let tag = format!("clean-s{shards}-t{threads}");
        let dir = run_dir(&tag);
        let reg = Registry::new();
        let report = run_sharded(&config(&dir, shards, threads), &reg).unwrap();
        assert_identical(&report, &tag);
        // The on-disk report is the same bytes the call returned.
        let on_disk = std::fs::read_to_string(dir.join(REPORT_FILE)).unwrap();
        assert_eq!(on_disk, report, "{tag}");
        // Coordinator accounting: one spawn per shard, no failures, and
        // the lock released.
        assert_eq!(reg.counter_value("coord.shards"), Some(shards as u64));
        assert_eq!(reg.counter_value("coord.spawns"), Some(shards as u64));
        assert_eq!(reg.counter_value("coord.revocations"), Some(0));
        assert_eq!(reg.counter_value("coord.shards_done"), Some(shards as u64));
        assert_eq!(reg.counter_value("coord.merges"), Some(1));
        assert!(!dir.join(LOCK_FILE).exists(), "{tag}: lock left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The tentpole acceptance sweep: kill worker 1 of 2 at every crash point
/// of its own journal (torn and clean tails alternating), at worker thread
/// counts 1 and 8. Each kill must be revoked, the lease reassigned, the
/// respawned incarnation must resume from the shard journal, and the final
/// merge must stay byte-identical.
#[test]
fn killed_worker_is_reassigned_and_merge_stays_byte_identical() {
    // Shard 1 of 2 owns every odd selection index — about half the blocks.
    let owned = (baseline().selected / 2) as u64;
    for (i, &kp) in kill_points(owned).iter().enumerate() {
        let torn = i % 2 == 1;
        for &threads in &[1usize, 8] {
            let plan = CrashPlan::KillWorker {
                shard: 1,
                appends: kp,
                torn,
            };
            let tag = format!("kill-k{kp}-torn{torn}-t{threads}");
            let dir = run_dir(&tag);
            let mut cfg = config(&dir, 2, threads);
            let CrashPlan::KillWorker {
                shard,
                appends,
                torn,
            } = plan
            else {
                unreachable!()
            };
            cfg.sabotage = vec![(shard, LeaseSabotage::CrashAfter { appends, torn })];
            let reg = Registry::new();
            let report = run_sharded(&cfg, &reg).unwrap();
            assert_identical(&report, &tag);
            assert_eq!(
                reg.counter_value("coord.worker_crashes"),
                Some(1),
                "{tag}: the armed kill must fire exactly once"
            );
            assert_eq!(reg.counter_value("coord.revocations"), Some(1), "{tag}");
            assert_eq!(reg.counter_value("coord.respawns"), Some(1), "{tag}");
            assert_eq!(reg.counter_value("coord.spawns"), Some(3), "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn both_workers_killed_in_one_run_still_merge_identically() {
    let owned = (baseline().selected / 2) as u64;
    let dir = run_dir("kill-both");
    let mut cfg = config(&dir, 2, 2);
    cfg.sabotage = vec![
        (
            0,
            LeaseSabotage::CrashAfter {
                appends: owned / 3,
                torn: true,
            },
        ),
        (
            1,
            LeaseSabotage::CrashAfter {
                appends: owned / 2,
                torn: false,
            },
        ),
    ];
    let reg = Registry::new();
    let report = run_sharded(&cfg, &reg).unwrap();
    assert_identical(&report, "kill-both");
    assert_eq!(reg.counter_value("coord.worker_crashes"), Some(2));
    assert_eq!(reg.counter_value("coord.respawns"), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The missed-heartbeat path: a wedged worker never exits on its own, so
/// the coordinator must notice the stale mtime, kill the incarnation,
/// and reassign the lease.
#[test]
fn stalled_worker_is_revoked_by_heartbeat_and_reassigned() {
    let plan = CrashPlan::StallWorker { shard: 0 };
    let CrashPlan::StallWorker { shard } = plan else {
        unreachable!()
    };
    let dir = run_dir("stall");
    let mut cfg = config(&dir, 2, 2);
    cfg.sabotage = vec![(shard, LeaseSabotage::Stall)];
    cfg.heartbeat_timeout = Duration::from_millis(600);
    let reg = Registry::new();
    let report = run_sharded(&cfg, &reg).unwrap();
    assert_identical(&report, "stall");
    assert_eq!(reg.counter_value("coord.stale_heartbeats"), Some(1));
    assert_eq!(reg.counter_value("coord.revocations"), Some(1));
    assert_eq!(reg.counter_value("coord.respawns"), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Coordinator kills at both quiescent points: before any worker spawned,
/// and after every worker finished but before the merge. Re-running the
/// same coordinator command must complete the run either way.
#[test]
fn killed_coordinator_resumes_to_an_identical_report() {
    for plan in [
        CrashPlan::KillCoordinator {
            before_merge: false,
        },
        CrashPlan::KillCoordinator { before_merge: true },
    ] {
        let CrashPlan::KillCoordinator { before_merge } = plan else {
            unreachable!()
        };
        let crash = if before_merge {
            CoordCrash::BeforeMerge
        } else {
            CoordCrash::BeforeSpawn
        };
        let tag = format!("coord-kill-{crash:?}");
        let dir = run_dir(&tag);
        let mut cfg = config(&dir, 2, 2);
        cfg.crash = Some(crash);
        match run_sharded(&cfg, &NullRecorder) {
            Err(CoordError::SimulatedCrash(cp)) => assert_eq!(cp, crash),
            other => panic!("{tag}: expected the simulated crash, got {other:?}"),
        }
        // Re-run the identical command, minus the armed crash.
        cfg.crash = None;
        let reg = Registry::new();
        let report = run_sharded(&cfg, &reg).unwrap();
        assert_identical(&report, &tag);
        if before_merge {
            // Every shard had finished: the resumed coordinator must go
            // straight to the merge without spawning anything.
            assert_eq!(reg.counter_value("coord.spawns"), Some(0), "{tag}");
            assert_eq!(reg.counter_value("coord.shards_done"), Some(2), "{tag}");
        } else {
            assert_eq!(reg.counter_value("coord.spawns"), Some(2), "{tag}");
        }
        assert_eq!(reg.counter_value("coord.merges"), Some(1), "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every file under `dir`, by path, with its bytes.
fn tree_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// A re-run of a finished run dir goes by the rule of `--resume`: another
/// probe mode or dynamics schedule is refused with a typed error that
/// names the setting, and leaves every byte of the run dir as it was;
/// another seed or scale is adopted, so the re-run reports the recorded
/// run.
#[test]
fn rerun_of_a_finished_run_dir_follows_the_resume_rule() {
    let dir = run_dir("rerun");
    let cfg = config(&dir, 2, 2);
    run_sharded(&cfg, &NullRecorder).unwrap();
    let before = tree_bytes(&dir);
    assert!(before.contains_key(&dir.join(REPORT_FILE)));
    let rerun = |args: ExpArgs| CoordinatorConfig {
        args,
        ..cfg.clone()
    };
    let refusals = [
        (
            ExpArgs {
                mda_lite: true,
                ..cfg.args.clone()
            },
            ("mda mode", "classic", "lite"),
        ),
        (
            ExpArgs {
                dynamics: Some((0.5, 64)),
                ..cfg.args.clone()
            },
            ("dynamics", "static", "0.5,64"),
        ),
    ];
    for (args, want) in refusals {
        match run_sharded(&rerun(args), &NullRecorder) {
            Err(CoordError::Refused(m)) => {
                assert_eq!((m.field, &*m.recorded, &*m.requested), want);
            }
            other => panic!("{want:?}: expected a refusal, got {other:?}"),
        }
        assert!(tree_bytes(&dir) == before, "{want:?}: the run dir changed");
    }
    let adopted = ExpArgs {
        seed: 7,
        scale: 0.5,
        ..cfg.args.clone()
    };
    let report = run_sharded(&rerun(adopted), &NullRecorder).unwrap();
    assert_identical(&report, "re-run under another seed and scale");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A coordinator kill *combined* with a worker kill in the completed half:
/// the resumed coordinator must leave the finished shard alone and only
/// re-drive the unfinished one.
#[test]
fn coordinator_kill_before_spawn_then_worker_kill_on_resume() {
    let owned = (baseline().selected / 2) as u64;
    let dir = run_dir("coord-then-worker");
    let mut cfg = config(&dir, 2, 2);
    cfg.crash = Some(CoordCrash::BeforeSpawn);
    assert!(matches!(
        run_sharded(&cfg, &NullRecorder),
        Err(CoordError::SimulatedCrash(CoordCrash::BeforeSpawn))
    ));
    cfg.crash = None;
    cfg.sabotage = vec![(
        1,
        LeaseSabotage::CrashAfter {
            appends: owned / 2,
            torn: true,
        },
    )];
    let reg = Registry::new();
    let report = run_sharded(&cfg, &reg).unwrap();
    assert_identical(&report, "coord-then-worker");
    assert_eq!(reg.counter_value("coord.respawns"), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Parse `tokens` as `hobbit shard` does: the shared flags, then the role
/// checks.
fn shard_role(tokens: &[&str]) -> Result<ExpArgs, ParseOutcome> {
    let args = ExpArgs::parse_from(tokens.iter().map(|s| s.to_string()))?;
    check_role(&args).map(|()| args)
}

#[test]
fn shard_flags_parse_with_run_dir() {
    let a = shard_role(&["--shards", "4", "--run-dir", "runs/x"]).unwrap();
    assert_eq!((a.shards, a.shard), (Some(4), None));
    assert_eq!(a.run_dir, Some(PathBuf::from("runs/x")));
    let a = shard_role(&["--shard", "2", "--run-dir", "runs/x"]).unwrap();
    assert_eq!((a.shards, a.shard), (None, Some(2)));
    assert_eq!(a.run_dir, Some(PathBuf::from("runs/x")));
    // The experiment flags a coordinator copies into every lease.
    let a = shard_role(&[
        "--mda-lite",
        "--storage-chaos",
        "7",
        "--shards",
        "2",
        "--run-dir",
        "x",
    ])
    .unwrap();
    assert!(a.mda_lite);
    assert_eq!(a.storage_chaos, Some((7, DEFAULT_CHAOS_RATE)));
    // Neither role: nothing to do.
    assert!(matches!(
        shard_role(&["--run-dir", "x"]),
        Err(ParseOutcome::Error(_))
    ));
}

#[test]
fn shard_flag_conflicts_fail_before_any_run_dir_is_touched() {
    let cases: &[(&[&str], &str)] = &[
        // The coordinator resumes by being re-run.
        (&["--shards", "2", "--run-dir", "x", "--resume"], "--resume"),
        // Without a run dir the lease file is unreachable.
        (&["--shard", "0"], "--run-dir"),
        // Coordinator and worker roles are exclusive.
        (
            &["--shards", "2", "--shard", "0", "--run-dir", "x"],
            "mutually exclusive",
        ),
        // Without a run dir leases would have nowhere to go.
        (&["--shards", "2"], "--run-dir"),
        // A worker resumes its own journal; --resume on a worker is a bug.
        (&["--shard", "0", "--run-dir", "x", "--resume"], "--resume"),
        // Zero shards is meaningless.
        (&["--shards", "0", "--run-dir", "x"], "at least 1"),
    ];
    for (tokens, needle) in cases {
        match shard_role(tokens) {
            Err(ParseOutcome::Error(msg)) => assert!(msg.contains(needle), "{tokens:?}: {msg}"),
            other => panic!("{tokens:?}: expected a role error, got {other:?}"),
        }
    }
}

/// CLI contract: conflicting or underspecified shard flags, and flags a
/// sharded run would ignore, fail up front with a clear message (exit 2)
/// before any run dir is created; a worker pointed at a dir with no lease
/// refuses.
#[test]
fn shard_cli_conflicts_fail_clearly_and_touch_nothing() {
    let ghost = run_dir("cli-ghost");
    let ignored = "has no effect on shard; try hobbit shard --help";
    let cases: &[(&[&str], &str)] = &[
        (
            &["--shards", "2", "--shard", "1", "--run-dir", "X"],
            "mutually exclusive",
        ),
        (&["--shards", "2"], "requires --run-dir"),
        (&["--shard", "0"], "requires --run-dir"),
        (
            &["--shards", "2", "--resume", "--run-dir", "X"],
            "re-run the coordinator",
        ),
        (
            &["--shard", "0", "--resume", "--run-dir", "X"],
            "resumes its own shard journal",
        ),
        (&["--shards", "0", "--run-dir", "X"], "at least 1"),
        // Leases carry no metrics file, span tree or deadline.
        (
            &["--shards", "2", "--run-dir", "X", "--metrics", "m.json"],
            ignored,
        ),
        (
            &["--shards", "2", "--run-dir", "X", "--trace-spans"],
            ignored,
        ),
        (
            &["--shards", "2", "--run-dir", "X", "--deadline", "0.000001"],
            ignored,
        ),
    ];
    for (args, needle) in cases {
        let args: Vec<String> = args
            .iter()
            .map(|a| {
                if *a == "X" {
                    ghost.display().to_string()
                } else {
                    a.to_string()
                }
            })
            .collect();
        let out = shard_cli().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: wrong exit code; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: stderr was {stderr:?}");
        assert!(
            !ghost.exists(),
            "{args:?}: a rejected command created the run dir"
        );
    }

    // A re-run under another probe mode is refused (exit 3) on one line
    // naming the setting, and leaves the leases as they were.
    let leased = run_dir("cli-rerun");
    let mut cfg = config(&leased, 2, 1);
    cfg.crash = Some(CoordCrash::BeforeSpawn);
    assert!(run_sharded(&cfg, &NullRecorder).is_err());
    let before = tree_bytes(&leased);
    let out = shard_cli()
        .args(["--shards", "2", "--mda-lite", "--run-dir"])
        .arg(&leased)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("mda mode classic"), "{stderr}");
    assert!(tree_bytes(&leased) == before, "the refused re-run wrote");
    std::fs::remove_dir_all(&leased).unwrap();

    // A worker spawned against a dir with no lease refuses (exit 3), it
    // does not limp into a fresh single-process run.
    let empty = run_dir("cli-no-lease");
    std::fs::create_dir_all(&empty).unwrap();
    let out = shard_cli()
        .args(["--shard", "0", "--run-dir"])
        .arg(&empty)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "lease-less worker must refuse");
    assert!(
        !shard_dir(&empty, 0).join("journal.wal").exists(),
        "a refused worker must not have started journaling"
    );
    std::fs::remove_dir_all(&empty).unwrap();
}

/// Builder settings no run can honour are a typed configuration error
/// (exit 2), not a panic, and the run writes nothing: no run dir appears.
#[test]
fn builder_misuse_is_a_typed_config_error_and_writes_nothing() {
    let dir = run_dir("misuse");
    let crash = CrashPoint {
        after_block_appends: 1,
        torn: false,
    };
    let base = || Pipeline::builder().seed(SEED).scale(SCALE);
    let cases = [
        (
            "0 shards",
            base().run_dir(&dir).shard(0, 0),
            "at least one shard",
        ),
        (
            "shard >= shards",
            base().run_dir(&dir).shard(2, 2),
            "out of range",
        ),
        ("shard without run dir", base().shard(0, 2), "run dir"),
        (
            "crash point without run dir",
            base().crash_point(crash),
            "run dir",
        ),
    ];
    for (what, builder, needle) in cases {
        match builder.try_run() {
            Err(e @ RunError::Config(_)) => {
                assert_eq!(e.exit_code(), 2, "{what}");
                assert!(e.to_string().contains(needle), "{what}: {e}");
            }
            Err(e) => panic!("{what}: expected a config error, got {e}"),
            Ok(_) => panic!("{what}: the run went ahead"),
        }
        assert!(!dir.exists(), "{what}: the refused run created its run dir");
    }
}
