//! Multi-process sharded runs on one host: a coordinator that partitions
//! the deterministic block order into filesystem shard leases, spawns one
//! worker process per shard, supervises them through heartbeat mtimes, and
//! deterministically merges the per-shard journals into a
//! `hobbit-report/v1` that is byte-identical to a single-process run.
//!
//! # Topology
//!
//! ```text
//! run_dir/
//!   coordinator.lock        pid of the live coordinator (stale ⇒ takeover)
//!   leases/shard-<i>.lease  hobbit-lease/v2, atomically replaced whole
//!   shards/shard-<i>/
//!     journal.wal           the shard's hobbit-journal/v1 WAL (PR 5 code,
//!                           unchanged — supervision, fsync batching, torn
//!                           tails all behave exactly as single-process)
//!     heartbeat             mtime = liveness, content = epoch + pid
//!     done                  written only after the final journal flush
//!   report.json             the merged canonical report
//! ```
//!
//! # Failure handling
//!
//! A worker that exits non-zero, exits zero without its `done` marker, or
//! lets its heartbeat go stale is *revoked*: the coordinator kills the
//! process if it is still alive, bumps the lease epoch (fencing any
//! zombie), clears planted sabotage, and respawns the shard — which
//! resumes from its own journal, re-measuring only the unsynced tail.
//! This mirrors the per-block bounded-requeue state machine of the
//! in-process supervisor one level up: each shard gets a respawn budget,
//! and exhausting it quarantines the shard and fails the run rather than
//! retrying forever.
//!
//! Disk failures ride the same state machine (DESIGN.md §17): a worker
//! whose journal seals under a storage fault exits [`EXIT_STORAGE`]
//! without a done marker — *self-quarantining its shard* — and the
//! coordinator's ordinary crash arm revokes the lease and respawns; the
//! regrant clears any planted chaos, so the respawn resumes the journal
//! on a clean disk. The coordinator's own filesystem operations (lock,
//! leases, merged report) go through its [`Storage`] handle, retrying
//! transient faults and surfacing persistent ones as typed
//! [`CoordError::Storage`] errors.
//!
//! A killed *coordinator* is recovered by re-running it on the same run
//! dir: finished shards are recognized by their `done` markers and never
//! respawned; unfinished shards are re-granted (epoch bump) and resumed.
//! A re-run follows the rule of `--resume` ([`RunMeta::adopt`]): it adopts
//! the recorded seed, scale and faults, and refuses another probe mode,
//! dynamics schedule or shard count with [`CoordError::Refused`] before
//! it writes anything.
//!
//! # Merge determinism
//!
//! Selection and calibration depend only on (seed, scale), so every worker
//! derives the identical confidence table and block order, and each shard
//! journal carries the same [`ShardInfo`] global totals. The merge
//! therefore never re-probes: it folds the per-shard block measurements
//! together, sorts by block address (the same order a single-process run
//! reports), cross-checks the totals, and renders through the *same*
//! serializer as [`Pipeline::canonical_report`] — one code path, one byte
//! layout.
//!
//! [`Pipeline::canonical_report`]: crate::pipeline::Pipeline::canonical_report

#![deny(clippy::unwrap_used)]

use crate::args::ExpArgs;
use crate::journal::{read_journal_via, CrashPoint, Mismatch, RunMeta, ShardInfo, JOURNAL_FILE};
use crate::lease::{
    heartbeat_age_via, heartbeat_epoch_via, is_done, mark_done_via, shard_dir, write_heartbeat_via,
    Lease, LeaseSabotage, LeaseState, HEARTBEAT_INTERVAL,
};
use crate::pipeline::{render_canonical_report, Pipeline, RunError};
use crate::vfs::{ChaosVfs, Storage, StorageError};
use hobbit::BlockMeasurement;
use netsim::Block24;
use obs::{Counter, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coordinator's pid file inside a run dir.
pub const LOCK_FILE: &str = "coordinator.lock";

/// File name of the merged canonical report inside a run dir.
pub const REPORT_FILE: &str = "report.json";

/// Exit code a worker uses when its armed simulated kill fired — the
/// coordinator treats it exactly like any other crash, the testkit asserts
/// on it to distinguish an injected death from an accidental one.
pub const EXIT_KILLED: i32 = 9;

/// Exit code for a worker that refuses its lease (revoked, quarantined, or
/// unreadable): respawning cannot help, so the coordinator fails the run.
pub const EXIT_REFUSED: i32 = 3;

/// Exit code for a worker whose storage failed (sealed journal, unwritable
/// heartbeat or done marker): the worker self-quarantines its shard by
/// exiting *without* a done marker, and the coordinator's ordinary crash
/// arm revokes the lease and respawns — the regrant clears any planted
/// chaos, so the respawn resumes the journal on a clean disk.
pub const EXIT_STORAGE: i32 = 5;

/// Extra allowance before a worker's *first* heartbeat (process spawn plus
/// scenario build).
pub const SPAWN_GRACE: Duration = Duration::from_secs(30);

/// Coordinator poll interval.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Respawns a shard may consume before it is quarantined.
pub const RESPAWN_BUDGET: u32 = 3;

/// A simulated coordinator kill (testkit harness). Only quiescent points
/// are modeled — with workers in flight a dead coordinator leaves them
/// running, which re-running the coordinator also handles (done markers),
/// but simulating that from inside one test process would mean two
/// writers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordCrash {
    /// Die after writing every lease but before spawning any worker.
    BeforeSpawn,
    /// Die after every shard finished but before the merge.
    BeforeMerge,
}

/// Everything `run_sharded` needs.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The run directory (created if missing).
    pub run_dir: PathBuf,
    /// Number of worker processes / shards.
    pub shards: usize,
    /// Every other run setting, as the command line gives it: seed, scale,
    /// faults, MDA mode and dynamics become the run's [`RunMeta`] in every
    /// lease, `threads` the classification threads per worker (0 = all
    /// cores), and `storage_chaos` plants a [`LeaseSabotage::Chaos`]
    /// schedule (seed decorrelated per shard) in every first-incarnation
    /// lease that `sabotage` doesn't already claim.
    pub args: ExpArgs,
    /// Worker executable, a `hobbit` binary; `None` re-enters the current
    /// executable.
    pub worker_exe: Option<PathBuf>,
    /// Heartbeat age past which a live-looking worker is declared dead.
    pub heartbeat_timeout: Duration,
    /// Testkit sabotage, planted into the named shard's first-incarnation
    /// lease (revocation clears it).
    pub sabotage: Vec<(usize, LeaseSabotage)>,
    /// Simulated coordinator kill (testkit harness).
    pub crash: Option<CoordCrash>,
}

impl CoordinatorConfig {
    /// A config for `shards` shards under `run_dir`, with default run
    /// settings and a test-friendly heartbeat timeout.
    pub fn new(run_dir: impl Into<PathBuf>, shards: usize) -> Self {
        CoordinatorConfig {
            run_dir: run_dir.into(),
            shards,
            args: ExpArgs::default(),
            worker_exe: None,
            heartbeat_timeout: Duration::from_millis(2000),
            sabotage: Vec::new(),
            crash: None,
        }
    }
}

/// Pre-interned `coord.*` counters, bound once per coordinator run.
#[derive(Clone)]
pub struct CoordObs {
    /// `coord.shards` — shards this run partitioned into.
    pub shards: Counter,
    /// `coord.spawns` — worker processes started (incl. respawns).
    pub spawns: Counter,
    /// `coord.respawns` — spawns that replaced a revoked incarnation.
    pub respawns: Counter,
    /// `coord.revocations` — leases revoked (crash or stale heartbeat).
    pub revocations: Counter,
    /// `coord.stale_heartbeats` — revocations caused by heartbeat age.
    pub stale_heartbeats: Counter,
    /// `coord.worker_crashes` — worker exits the coordinator treated as
    /// crashes (non-zero exit, or zero exit without a done marker).
    pub worker_crashes: Counter,
    /// `coord.shards_done` — shards that reached their done marker.
    pub shards_done: Counter,
    /// `coord.merges` — successful shard-merges.
    pub merges: Counter,
}

impl CoordObs {
    /// Intern every coordinator metric in `rec`.
    pub fn bind(rec: &dyn Recorder) -> Self {
        CoordObs {
            shards: rec.counter("coord.shards"),
            spawns: rec.counter("coord.spawns"),
            respawns: rec.counter("coord.respawns"),
            revocations: rec.counter("coord.revocations"),
            stale_heartbeats: rec.counter("coord.stale_heartbeats"),
            worker_crashes: rec.counter("coord.worker_crashes"),
            shards_done: rec.counter("coord.shards_done"),
            merges: rec.counter("coord.merges"),
        }
    }
}

/// Why a sharded run failed.
#[derive(Debug)]
pub enum CoordError {
    /// Filesystem trouble in the run dir (process-level I/O: spawn, wait).
    Io(std::io::Error),
    /// A typed storage failure in the run dir (lock, lease, journal,
    /// report) that survived the bounded-retry policy.
    Storage(StorageError),
    /// The run dir records another probe mode, dynamics schedule or shard
    /// count than this run asks for; nothing was written.
    Refused(Mismatch),
    /// Another coordinator holds the run dir.
    Locked {
        /// pid recorded in the lock file.
        pid: u32,
    },
    /// A shard exhausted its respawn budget.
    ShardQuarantined {
        /// The quarantined shard.
        shard: usize,
        /// Respawns spent before giving up.
        respawns: u32,
    },
    /// A worker refused its lease — a configuration bug, not a crash.
    WorkerRefused {
        /// The refusing shard.
        shard: usize,
        /// The worker's exit code.
        code: i32,
    },
    /// The armed simulated coordinator kill fired.
    SimulatedCrash(CoordCrash),
    /// The per-shard journals do not fold into a consistent report.
    Merge(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Io(e) => write!(f, "run-dir I/O: {e}"),
            CoordError::Storage(e) => write!(f, "{e}"),
            CoordError::Refused(m) => write!(f, "{m}"),
            CoordError::Locked { pid } => {
                write!(f, "run dir is held by live coordinator pid {pid}")
            }
            CoordError::ShardQuarantined { shard, respawns } => write!(
                f,
                "shard {shard} quarantined after {respawns} respawns — the run cannot complete"
            ),
            CoordError::WorkerRefused { shard, code } => write!(
                f,
                "shard {shard} worker refused its lease (exit {code}); respawning cannot help"
            ),
            CoordError::SimulatedCrash(cp) => write!(f, "simulated coordinator kill at {cp:?}"),
            CoordError::Merge(msg) => write!(f, "shard-merge: {msg}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl CoordError {
    /// The coordinator's process exit code: [`EXIT_REFUSED`] when the run
    /// dir or a worker refused the run, [`EXIT_STORAGE`] for a storage
    /// failure, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            CoordError::Refused(_) | CoordError::WorkerRefused { .. } => EXIT_REFUSED,
            CoordError::Storage(_) => EXIT_STORAGE,
            _ => 1,
        }
    }
}

impl From<Mismatch> for CoordError {
    fn from(m: Mismatch) -> Self {
        CoordError::Refused(m)
    }
}

impl From<std::io::Error> for CoordError {
    fn from(e: std::io::Error) -> Self {
        CoordError::Io(e)
    }
}

impl From<StorageError> for CoordError {
    fn from(e: StorageError) -> Self {
        CoordError::Storage(e)
    }
}

/// Removes the coordinator pid file when the coordinator leaves the run
/// dir for *any* reason. A simulated kill also drops the lock: the real
/// analogue is a lock naming a dead pid, which takeover treats as absent —
/// but inside one test process the recorded pid is still alive, so the
/// model must delete instead.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Take the coordinator lock: atomically create the pid file, or — when
/// one exists — take over iff the recorded pid is no longer alive.
fn acquire_lock(storage: &Storage, run_dir: &Path) -> Result<LockGuard, CoordError> {
    storage.create_dir_all(run_dir)?;
    let path = run_dir.join(LOCK_FILE);
    loop {
        match storage.create_new(&path, format!("{}\n", std::process::id()).as_bytes()) {
            Ok(()) => return Ok(LockGuard { path }),
            Err(e) if e.io_kind == std::io::ErrorKind::AlreadyExists => {
                let pid: Option<u32> = storage
                    .read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse().ok());
                match pid {
                    Some(pid) if Path::new(&format!("/proc/{pid}")).exists() => {
                        return Err(CoordError::Locked { pid });
                    }
                    _ => {
                        // Stale (dead pid or garbage): remove and retry the
                        // atomic create — a racing taker may still beat us.
                        let _ = storage.remove_file(&path);
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// One spawned worker incarnation.
struct WorkerSlot {
    child: Child,
    lease: Lease,
    spawned_at: Instant,
    respawns: u32,
}

/// Kills every still-running child if the coordinator bails early
/// (quarantine, refusal): orphaned workers must not keep writing into a
/// run dir the coordinator has walked away from.
struct ReapGuard {
    slots: Vec<Option<WorkerSlot>>,
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }
}

/// Spawn a worker incarnation for `lease` and publish the lease with the
/// worker's pid.
fn spawn_worker(
    exe: &Path,
    storage: &Storage,
    run_dir: &Path,
    mut lease: Lease,
    respawns: u32,
    obs: &CoordObs,
) -> Result<WorkerSlot, CoordError> {
    obs.spawns.inc();
    let child = Command::new(exe)
        .arg("shard")
        .arg("--run-dir")
        .arg(run_dir)
        .arg("--shard")
        .arg(lease.shard.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    lease.holder_pid = child.id();
    lease.store_via(storage, run_dir)?;
    Ok(WorkerSlot {
        child,
        lease,
        spawned_at: Instant::now(),
        respawns,
    })
}

/// The settings and shard count a run dir already records: those of the
/// first shard with a readable lease, or else a shard journal that names
/// its shard count. `None` for a fresh run dir.
fn recorded(
    storage: &Storage,
    run_dir: &Path,
    shards: usize,
) -> Result<Option<(RunMeta, u64)>, StorageError> {
    for shard in 0..shards {
        if let Ok(lease) = Lease::load_via(storage, run_dir, shard) {
            return Ok(Some((lease.meta, lease.shards)));
        }
        let replay = read_journal_via(storage, &shard_dir(run_dir, shard).join(JOURNAL_FILE))?;
        if let (Some(meta), Some(info)) = (replay.meta, replay.shard_info) {
            return Ok(Some((meta, info.shards)));
        }
    }
    Ok(None)
}

/// Run a sharded measurement: partition, lease, spawn, supervise, merge.
/// Returns the merged canonical report (also written to
/// `<run_dir>/report.json`), byte-identical to what a single-process run
/// with the same seed/scale/faults reports.
///
/// Re-running on the same run dir resumes: finished shards (done markers)
/// are skipped, unfinished ones are re-granted and resumed from their
/// journals. The settings the run dir records win as on `--resume`
/// ([`RunMeta::adopt`]); another shard count is refused too.
pub fn run_sharded(cfg: &CoordinatorConfig, rec: &dyn Recorder) -> Result<String, CoordError> {
    assert!(cfg.shards >= 1, "a sharded run needs at least one shard");
    let obs = CoordObs::bind(rec);
    let mut storage = Storage::real();
    storage.observe(rec);
    let lock = acquire_lock(&storage, &cfg.run_dir)?;
    let mut args = cfg.args.clone();
    if let Some((meta, shards)) = recorded(&storage, &cfg.run_dir, cfg.shards)? {
        Mismatch::check("shards", shards, cfg.shards as u64, u64::to_string)?;
        meta.adopt(&mut args)?;
    }
    obs.shards.add(cfg.shards as u64);
    let meta = RunMeta::of(&args);
    let exe = match &cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()?,
    };

    // Grant a lease per unfinished shard. An existing lease's epoch is
    // bumped so any worker of a previous coordinator incarnation is fenced
    // out; cfg sabotage is planted fresh each run.
    let mut pending: Vec<Lease> = Vec::new();
    for shard in 0..cfg.shards {
        if is_done(&shard_dir(&cfg.run_dir, shard)) {
            obs.shards_done.inc();
            continue;
        }
        let mut lease = Lease::grant(shard, cfg.shards, &meta, args.threads);
        match Lease::load_via(&storage, &cfg.run_dir, shard) {
            Ok(prev) if prev.state == LeaseState::Quarantined => {
                return Err(CoordError::ShardQuarantined {
                    shard,
                    respawns: prev.epoch,
                });
            }
            Ok(prev) => lease.epoch = prev.epoch + 1,
            Err(_) => {}
        }
        lease.sabotage = cfg
            .sabotage
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, sab)| *sab)
            .or_else(|| {
                // `--storage-chaos`: every shard's first incarnation runs
                // on a seeded fault schedule, decorrelated per shard.
                args.storage_chaos.map(|(seed, rate)| LeaseSabotage::Chaos {
                    seed: seed ^ (0x9E37_79B9 * (shard as u64 + 1)),
                    rate,
                })
            });
        lease.store_via(&storage, &cfg.run_dir)?;
        pending.push(lease);
    }

    if cfg.crash == Some(CoordCrash::BeforeSpawn) {
        return Err(CoordError::SimulatedCrash(CoordCrash::BeforeSpawn));
    }

    // Spawn one worker per pending shard, then supervise until every
    // shard reaches its done marker (or one quarantines).
    let mut reap = ReapGuard {
        slots: (0..cfg.shards).map(|_| None).collect(),
    };
    let mut remaining: usize = pending.len();
    for lease in pending {
        let shard = lease.shard as usize;
        let slot = spawn_worker(&exe, &storage, &cfg.run_dir, lease, 0, &obs)?;
        reap.slots[shard] = Some(slot);
    }

    while remaining > 0 {
        std::thread::sleep(POLL_INTERVAL);
        for shard in 0..cfg.shards {
            let Some(slot) = reap.slots[shard].as_mut() else {
                continue;
            };
            let sd = shard_dir(&cfg.run_dir, shard);
            // Exit first: a finished worker must not be misread as stale.
            let crashed = match slot.child.try_wait()? {
                Some(status) if status.code() == Some(0) && is_done(&sd) => {
                    obs.shards_done.inc();
                    reap.slots[shard] = None;
                    remaining -= 1;
                    continue;
                }
                Some(status) if status.code() == Some(EXIT_REFUSED) => {
                    return Err(CoordError::WorkerRefused {
                        shard,
                        code: EXIT_REFUSED,
                    });
                }
                Some(_) => {
                    // Simulated kill, panic, signal, storage self-
                    // quarantine (EXIT_STORAGE), or a zero exit that never
                    // sealed its shard: all crashes — the revoke/respawn
                    // arm below handles every one of them.
                    obs.worker_crashes.inc();
                    true
                }
                None => {
                    // Still running — judge the heartbeat. Beats of older
                    // epochs belong to fenced incarnations and don't count.
                    let fresh_epoch = heartbeat_epoch_via(&storage, &sd) == Some(slot.lease.epoch);
                    let age = if fresh_epoch {
                        heartbeat_age_via(&storage, &sd)
                    } else {
                        None
                    };
                    let stale = match age {
                        Some(age) => age > cfg.heartbeat_timeout,
                        None => slot.spawned_at.elapsed() > SPAWN_GRACE,
                    };
                    if stale {
                        obs.stale_heartbeats.inc();
                        let _ = slot.child.kill();
                        let _ = slot.child.wait();
                    }
                    stale
                }
            };
            if !crashed {
                continue;
            }
            // Revoke → re-grant → respawn, inside the shard's budget.
            obs.revocations.inc();
            if slot.respawns >= RESPAWN_BUDGET {
                let mut q = slot.lease.clone();
                q.state = LeaseState::Quarantined;
                q.store_via(&storage, &cfg.run_dir)?;
                return Err(CoordError::ShardQuarantined {
                    shard,
                    respawns: slot.respawns,
                });
            }
            let lease = slot.lease.regrant();
            lease.store_via(&storage, &cfg.run_dir)?;
            obs.respawns.inc();
            let respawns = slot.respawns + 1;
            let slot = spawn_worker(&exe, &storage, &cfg.run_dir, lease, respawns, &obs)?;
            reap.slots[shard] = Some(slot);
        }
    }

    if cfg.crash == Some(CoordCrash::BeforeMerge) {
        return Err(CoordError::SimulatedCrash(CoordCrash::BeforeMerge));
    }

    let report = merge_run_via(&storage, &cfg.run_dir, cfg.shards)?;
    // The canonical report is published like a lease: temp + fsync +
    // rename, retried as a unit, so a reader never sees a prefix.
    let tmp = cfg
        .run_dir
        .join(format!(".{REPORT_FILE}.tmp.{}", std::process::id()));
    storage.atomic_write(&tmp, &cfg.run_dir.join(REPORT_FILE), report.as_bytes())?;
    obs.merges.inc();
    drop(lock);
    Ok(report)
}

/// Fold the per-shard journals of a finished sharded run into the
/// canonical report, cross-checking that every journal describes the same
/// world. Pure read: no probing, no journal writes.
pub fn merge_run_via(
    storage: &Storage,
    run_dir: &Path,
    shards: usize,
) -> Result<String, CoordError> {
    let mut meta: Option<RunMeta> = None;
    let mut info: Option<ShardInfo> = None;
    // BTreeMap keys the dedup and yields block-address order — exactly the
    // order `canonical_report` sorts single-process measurements into.
    let mut by_block: BTreeMap<Block24, BlockMeasurement> = BTreeMap::new();
    let mut quarantines: Vec<(u64, Block24, u32, String)> = Vec::new();
    for shard in 0..shards {
        let sd = shard_dir(run_dir, shard);
        if !is_done(&sd) {
            return Err(CoordError::Merge(format!(
                "shard {shard} has no done marker — the run is not finished"
            )));
        }
        let replay = read_journal_via(storage, &sd.join(JOURNAL_FILE))?;
        let m = replay
            .meta
            .ok_or_else(|| CoordError::Merge(format!("shard {shard} journal has no meta")))?;
        match &meta {
            None => meta = Some(m),
            Some(prev) if *prev != m => {
                return Err(CoordError::Merge(format!(
                    "shard {shard} ran a different world: {m:?} vs {prev:?}"
                )));
            }
            Some(_) => {}
        }
        let si = replay.shard_info.ok_or_else(|| {
            CoordError::Merge(format!("shard {shard} journal has no shard-info record"))
        })?;
        if (si.shard, si.shards) != (shard as u64, shards as u64) {
            return Err(CoordError::Merge(format!(
                "shard {shard} journal claims shard {}/{}",
                si.shard, si.shards
            )));
        }
        // Every shard derives the same globals; only the index differs.
        let globals = ShardInfo { shard: 0, ..si };
        match &info {
            None => info = Some(globals),
            Some(prev) if *prev != globals => {
                return Err(CoordError::Merge(format!(
                    "shard {shard} derived different globals: {globals:?} vs {prev:?}"
                )));
            }
            Some(_) => {}
        }
        for m in replay.blocks {
            by_block.entry(m.block).or_insert(m);
        }
        quarantines.extend(replay.quarantines);
    }
    let meta = meta.ok_or_else(|| CoordError::Merge("no shards".into()))?;
    let info = info.ok_or_else(|| CoordError::Merge("no shards".into()))?;

    // Quarantine records are informational: a later incarnation may have
    // classified the block after all. Only never-measured blocks survive
    // into the report, matching what single-process supervision reports.
    quarantines.retain(|(_, block, _, _)| !by_block.contains_key(block));
    quarantines.sort_by_key(|(index, _, _, _)| *index);
    quarantines.dedup_by_key(|(index, _, _, _)| *index);

    let measurements: Vec<BlockMeasurement> = by_block.into_values().collect();
    if measurements.len() as u64 + quarantines.len() as u64 != info.selected {
        return Err(CoordError::Merge(format!(
            "{} measurements + {} quarantines cover only {} of {} selected blocks",
            measurements.len(),
            quarantines.len(),
            measurements.len() + quarantines.len(),
            info.selected
        )));
    }
    Ok(render_canonical_report(
        meta.seed,
        info.selected,
        info.reject_too_few,
        info.reject_uncovered,
        info.calibration_probes,
        meta.dynamics().map(|(r, p)| (r, p, info.dynamics_events)),
        &measurements,
        &quarantines,
    ))
}

/// A shard worker's whole life: load the lease, heartbeat, run the
/// pipeline over the owned blocks (resuming the shard journal if one
/// exists), seal with a done marker. Returns the process exit code.
///
/// Spawned via `hobbit shard --run-dir <dir> --shard <i>`; everything
/// else comes from the lease.
pub fn worker_main(run_dir: &Path, shard: usize) -> i32 {
    let lease = match Lease::load_via(&Storage::real(), run_dir, shard) {
        Ok(lease) => lease,
        Err(e) => {
            eprintln!("shard {shard}: cannot load lease: {e}");
            return EXIT_REFUSED;
        }
    };
    if lease.state != LeaseState::Granted {
        eprintln!("shard {shard}: lease is {:?}, refusing to run", lease.state);
        return EXIT_REFUSED;
    }
    // Chaos sabotage puts the worker's *entire* run-dir footprint —
    // journal, heartbeats, done marker — on the seeded fault schedule.
    let storage = match lease.sabotage {
        Some(LeaseSabotage::Chaos { seed, rate }) => {
            Storage::with_chaos(ChaosVfs::seeded(seed, rate))
        }
        _ => Storage::real(),
    };
    let sd = shard_dir(run_dir, shard);
    if let Err(e) = write_heartbeat_via(&storage, &sd, lease.epoch) {
        // Unlike a bad lease, storage trouble is not a configuration bug:
        // self-quarantine (no done marker) and let the coordinator's
        // crash arm respawn this shard on a clean disk.
        eprintln!("shard {shard}: cannot heartbeat: {e}");
        return EXIT_STORAGE;
    }

    // Stall sabotage: one heartbeat, then wedge. The coordinator's
    // missed-heartbeat path must kill and replace this incarnation.
    if lease.sabotage == Some(LeaseSabotage::Stall) {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Keep the heartbeat fresh for the whole pipeline run.
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = Arc::clone(&stop);
        let storage = storage.clone();
        let sd = sd.clone();
        let epoch = lease.epoch;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let _ = write_heartbeat_via(&storage, &sd, epoch);
                std::thread::sleep(HEARTBEAT_INTERVAL);
            }
        })
    };

    // The lease's meta is the run's settings. A journal an earlier
    // incarnation left behind is resumed, so the pipeline checks it
    // against them by the resume rule.
    let mut args = ExpArgs {
        threads: lease.threads as usize,
        run_dir: Some(sd.clone()),
        resume: sd.join(JOURNAL_FILE).exists(),
        ..Default::default()
    };
    lease.meta.apply(&mut args);
    let mut builder = Pipeline::builder()
        .args(&args)
        .shard(shard, lease.shards as usize)
        .storage(storage.clone());
    if let Some(LeaseSabotage::CrashAfter { appends, torn }) = lease.sabotage {
        builder = builder.crash_point(CrashPoint {
            after_block_appends: appends,
            torn,
        });
    }
    let pipeline = match builder.try_run() {
        Ok(p) => p,
        Err(e) => {
            stop.store(true, Ordering::Release);
            let _ = beat.join();
            // A refusal cannot be respawned away, and neither can a lease
            // whose shard settings make no run. After a storage failure
            // the shard's journal is a valid prefix and nothing unjournaled
            // was acknowledged: self-quarantine by exiting without a done
            // marker, and the coordinator revokes and respawns.
            let code = match e {
                RunError::Config(_) => EXIT_REFUSED,
                _ => e.exit_code(),
            };
            let verdict = if code == EXIT_STORAGE {
                "storage failure, self-quarantining"
            } else {
                "refusing to run"
            };
            eprintln!("shard {shard}: {verdict}: {e}");
            return code;
        }
    };

    stop.store(true, Ordering::Release);
    let _ = beat.join();

    if pipeline.supervision.interrupted {
        // The armed kill fired: the journal is dead mid-write and this
        // "process" must die with it, leaving no done marker.
        return EXIT_KILLED;
    }
    if let Err(e) = mark_done_via(&storage, &sd) {
        eprintln!("shard {shard}: cannot write done marker: {e}");
        return EXIT_STORAGE;
    }
    0
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::journal::{Entry, JournalWriter};
    use obs::NullRecorder;

    fn meta(seed: u64) -> RunMeta {
        RunMeta::of(&ExpArgs {
            seed,
            scale: 0.01,
            ..Default::default()
        })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hobbit-coord-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lock_refuses_a_live_holder_and_takes_over_a_dead_one() {
        let dir = tmpdir("lock");
        std::fs::create_dir_all(&dir).unwrap();
        let storage = Storage::real();
        // pid 1 is always alive on Linux.
        std::fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
        match acquire_lock(&storage, &dir) {
            Err(CoordError::Locked { pid: 1 }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        // A dead (impossible) pid is stale: takeover succeeds.
        std::fs::write(dir.join(LOCK_FILE), "4194305\n").unwrap();
        let guard = acquire_lock(&storage, &dir).unwrap();
        let recorded = std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(recorded.trim(), std::process::id().to_string());
        drop(guard);
        assert!(!dir.join(LOCK_FILE).exists(), "guard removes the lock");
        // Garbage content is also stale.
        std::fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let _guard = acquire_lock(&storage, &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_refuses_missing_or_revoked_leases() {
        let dir = tmpdir("refuse");
        // No lease at all.
        assert_eq!(worker_main(&dir, 0), EXIT_REFUSED);
        // A revoked lease.
        let mut lease = Lease::grant(0, 2, &meta(42), 1);
        lease.state = LeaseState::Revoked;
        lease.store_via(&Storage::real(), &dir).unwrap();
        assert_eq!(worker_main(&dir, 0), EXIT_REFUSED);
        // A granted lease whose shard count makes no run: a typed refusal
        // before the journal, not a panic the coordinator would respawn.
        Lease::grant(0, 0, &meta(42), 1)
            .store_via(&Storage::real(), &dir)
            .unwrap();
        assert_eq!(worker_main(&dir, 0), EXIT_REFUSED);
        assert!(!shard_dir(&dir, 0).join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_exits_refused_when_its_journal_records_another_mode() {
        let dir = tmpdir("refused-journal");
        let lite = RunMeta {
            mda_lite: true,
            ..meta(42)
        };
        let storage = Storage::real();
        Lease::grant(0, 2, &lite, 1)
            .store_via(&storage, &dir)
            .unwrap();
        JournalWriter::create_via(storage, &shard_dir(&dir, 0), &meta(42)).unwrap();
        assert_eq!(worker_main(&dir, 0), EXIT_REFUSED);
        assert!(!is_done(&shard_dir(&dir, 0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_requires_done_markers_and_consistent_worlds() {
        let dir = tmpdir("merge");
        // Shard 0 finished, shard 1 has no done marker.
        let sd0 = shard_dir(&dir, 0);
        let mut w = JournalWriter::create_via(Storage::real(), &sd0, &meta(42)).unwrap();
        w.append(&Entry::ShardInfo(ShardInfo {
            shard: 0,
            shards: 2,
            selected: 0,
            reject_too_few: 0,
            reject_uncovered: 0,
            calibration_probes: 1,
            dynamics_events: 0,
        }))
        .unwrap();
        w.flush().unwrap();
        mark_done_via(&Storage::real(), &sd0).unwrap();
        match merge_run_via(&Storage::real(), &dir, 2) {
            Err(CoordError::Merge(msg)) => assert!(msg.contains("done marker"), "{msg}"),
            other => panic!("expected Merge error, got {other:?}"),
        }
        // Shard 1 finished but under a different seed: refused.
        let sd1 = shard_dir(&dir, 1);
        let mut w = JournalWriter::create_via(Storage::real(), &sd1, &meta(43)).unwrap();
        w.append(&Entry::ShardInfo(ShardInfo {
            shard: 1,
            shards: 2,
            selected: 0,
            reject_too_few: 0,
            reject_uncovered: 0,
            calibration_probes: 1,
            dynamics_events: 0,
        }))
        .unwrap();
        w.flush().unwrap();
        mark_done_via(&Storage::real(), &sd1).unwrap();
        match merge_run_via(&Storage::real(), &dir, 2) {
            Err(CoordError::Merge(msg)) => assert!(msg.contains("different world"), "{msg}"),
            other => panic!("expected Merge error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_sharded_propagates_the_simulated_before_spawn_crash() {
        let dir = tmpdir("crash-before-spawn");
        let mut cfg = CoordinatorConfig::new(&dir, 2);
        cfg.args.scale = 0.01;
        cfg.crash = Some(CoordCrash::BeforeSpawn);
        match run_sharded(&cfg, &NullRecorder) {
            Err(CoordError::SimulatedCrash(CoordCrash::BeforeSpawn)) => {}
            other => panic!("expected the simulated crash, got {other:?}"),
        }
        // The leases were already published; the lock is gone (stale-pid
        // model), so a re-run can take over.
        assert!(Lease::path(&dir, 0).exists());
        assert!(Lease::path(&dir, 1).exists());
        assert!(!dir.join(LOCK_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerun_adopts_the_recorded_settings_and_refuses_another_shard_count() {
        let dir = tmpdir("rerun");
        let mut cfg = CoordinatorConfig::new(&dir, 2);
        cfg.args.scale = 0.01;
        cfg.crash = Some(CoordCrash::BeforeSpawn);
        let _ = run_sharded(&cfg, &NullRecorder);
        let lease0 = || std::fs::read(Lease::path(&dir, 0)).unwrap();
        let before = lease0();
        let three = CoordinatorConfig {
            shards: 3,
            ..cfg.clone()
        };
        match run_sharded(&three, &NullRecorder) {
            Err(e @ CoordError::Refused(_)) => {
                assert_eq!(e.exit_code(), EXIT_REFUSED);
                let CoordError::Refused(m) = e else {
                    unreachable!()
                };
                assert_eq!((m.field, &*m.recorded, &*m.requested), ("shards", "2", "3"));
            }
            other => panic!("expected the shard-count refusal, got {other:?}"),
        }
        assert_eq!(lease0(), before, "a refused re-run writes nothing");
        assert!(!dir.join(LOCK_FILE).exists());
        // Another seed and scale are adopted, as on --resume.
        let mut other = cfg.clone();
        other.args.seed = 7;
        other.args.scale = 0.5;
        let _ = run_sharded(&other, &NullRecorder);
        let lease = Lease::load_via(&Storage::real(), &dir, 0).unwrap();
        assert_eq!(lease.meta, RunMeta::of(&cfg.args));
        assert_eq!(lease.epoch, 1, "the re-grant fences the old epoch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_chaos_config_plants_decorrelated_chaos_leases() {
        let dir = tmpdir("chaos-plant");
        let mut cfg = CoordinatorConfig::new(&dir, 3);
        cfg.args.scale = 0.01;
        cfg.args.storage_chaos = Some((0x57A6, 0.02));
        // Explicit per-shard sabotage wins over the blanket chaos plan.
        cfg.sabotage = vec![(1, LeaseSabotage::Stall)];
        cfg.crash = Some(CoordCrash::BeforeSpawn);
        let _ = run_sharded(&cfg, &NullRecorder);
        let l0 = Lease::load_via(&Storage::real(), &dir, 0).unwrap();
        let l1 = Lease::load_via(&Storage::real(), &dir, 1).unwrap();
        let l2 = Lease::load_via(&Storage::real(), &dir, 2).unwrap();
        let (
            Some(LeaseSabotage::Chaos { seed: s0, rate }),
            Some(LeaseSabotage::Chaos { seed: s2, .. }),
        ) = (l0.sabotage, l2.sabotage)
        else {
            panic!("chaos not planted: {:?} {:?}", l0.sabotage, l2.sabotage);
        };
        assert_eq!(rate, 0.02);
        assert_ne!(s0, s2, "per-shard schedules are decorrelated");
        assert_eq!(l1.sabotage, Some(LeaseSabotage::Stall));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
