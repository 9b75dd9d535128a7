//! Filesystem shard leases for multi-process sharded runs.
//!
//! A sharded run partitions the deterministic selection order round-robin
//! over `shards` worker processes ([`shard_of`]). The coordinator owns one
//! lease file per shard under `<run_dir>/leases/`; a lease is the single
//! source of truth a spawned worker reads its entire configuration from
//! (the run's [`RunMeta`] and its thread count — the worker command line
//! carries only `--run-dir` and `--shard`).
//!
//! # Atomicity and fencing
//!
//! Lease files are only ever *replaced whole*: [`Lease::store_via`] writes a
//! temp file in the same directory, fsyncs it, and `rename(2)`s it into
//! place, so a reader sees either the old lease or the new one, never a
//! torn mix. Every revocation bumps the lease `epoch`; workers stamp their
//! epoch into each heartbeat, so the coordinator can tell a live holder
//! from a zombie of a revoked incarnation, and a worker that loads a lease
//! in state [`LeaseState::Revoked`] or [`LeaseState::Quarantined`] refuses
//! to run at all.
//!
//! Every write goes through [`crate::vfs::Storage`], so a torn rename or
//! a transient write error is retried as a whole temp-write-fsync-rename
//! sequence — the atomicity guarantee holds even on a faulting disk
//! (DESIGN.md §17).
//!
//! # Liveness
//!
//! A worker heartbeats by atomically rewriting `<shard dir>/heartbeat`
//! (the file's mtime is the liveness signal, its content the fencing
//! epoch). Completion is a separate `done` marker written after the final
//! journal flush — the coordinator never has to guess whether an exited
//! worker finished. Staleness math is skew-bounded: a heartbeat whose
//! mtime sits in the *future* (backwards clock jump, lying filesystem
//! stamp) counts the skew magnitude as age instead of reading as
//! permanently fresh.

#![deny(clippy::unwrap_used)]

use crate::journal::RunMeta;
use crate::vfs::{Storage, StorageError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Version tag carried by every lease file.
pub const LEASE_SCHEMA: &str = "hobbit-lease/v2";

/// Directory of lease files inside a run dir.
pub const LEASES_DIR: &str = "leases";

/// Directory of per-shard run dirs (journal, heartbeat, done marker).
pub const SHARDS_DIR: &str = "shards";

/// Heartbeat file name inside a shard dir.
pub const HEARTBEAT_FILE: &str = "heartbeat";

/// Completion marker file name inside a shard dir.
pub const DONE_FILE: &str = "done";

/// Interval between worker heartbeats.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Which shard owns selection-order index `index`: round-robin, so every
/// shard gets an equal slice of the deterministic block order regardless
/// of where selection density lands in address space.
#[inline]
pub fn shard_of(index: usize, shards: usize) -> usize {
    index % shards.max(1)
}

/// Lease lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    /// Held by the worker incarnation named in the lease.
    Granted,
    /// Revoked by the coordinator (crash or missed heartbeat); the next
    /// store with a bumped epoch re-grants it.
    Revoked,
    /// The shard exhausted its respawn budget; the run cannot complete.
    Quarantined,
}

/// Sabotage the testkit plants in a lease (first incarnation only;
/// revocation clears it, so the respawned worker runs clean).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LeaseSabotage {
    /// Arm the worker journal's simulated kill after this many block
    /// appends (`torn` leaves a partial frame), then exit nonzero.
    CrashAfter {
        /// Block appends before the simulated kill.
        appends: u64,
        /// Leave a torn record at the journal tail.
        torn: bool,
    },
    /// Write one heartbeat, then wedge without probing until killed — the
    /// missed-heartbeat revocation path.
    Stall,
    /// Run the worker's journal on a seeded `ChaosVfs` fault schedule.
    /// A worker whose journal seals under the schedule self-quarantines
    /// (exits [`crate::coordinator::EXIT_STORAGE`] without a done marker);
    /// revocation clears the sabotage, so the respawn runs on a clean disk.
    Chaos {
        /// Chaos schedule seed.
        seed: u64,
        /// Per-operation fault probability.
        rate: f64,
    },
}

/// One shard lease: assignment, fencing epoch, and the full worker
/// configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Always [`LEASE_SCHEMA`]; checked on load.
    pub schema: String,
    /// Shard index in `0..shards`.
    pub shard: u64,
    /// Total shard count of the run.
    pub shards: u64,
    /// Incarnation fence, bumped on every revocation.
    pub epoch: u32,
    /// Lifecycle state.
    pub state: LeaseState,
    /// pid of the holding worker process (0 = not spawned yet).
    pub holder_pid: u32,
    /// The settings of the run, exactly as its shard journals record them.
    pub meta: RunMeta,
    /// Classification worker threads inside the worker process.
    pub threads: u64,
    /// Testkit sabotage for this incarnation.
    pub sabotage: Option<LeaseSabotage>,
}

impl Lease {
    /// A fresh granted lease for `shard` of `shards` with the run knobs.
    pub fn grant(shard: usize, shards: usize, meta: &RunMeta, threads: usize) -> Self {
        Lease {
            schema: LEASE_SCHEMA.to_string(),
            shard: shard as u64,
            shards: shards as u64,
            epoch: 0,
            state: LeaseState::Granted,
            holder_pid: 0,
            meta: meta.clone(),
            threads: threads as u64,
            sabotage: None,
        }
    }

    /// Path of this shard's lease file inside `run_dir`.
    pub fn path(run_dir: &Path, shard: usize) -> PathBuf {
        run_dir
            .join(LEASES_DIR)
            .join(format!("shard-{shard}.lease"))
    }

    /// Atomically publish the lease: write a temp file beside the target,
    /// fsync it, and rename it into place. A concurrent reader sees the
    /// previous lease or this one, never a prefix. The whole
    /// temp-write-fsync-rename sequence retries as a unit on transient
    /// faults, so even a torn rename leaves the target either old or new.
    pub fn store_via(&self, storage: &Storage, run_dir: &Path) -> Result<(), StorageError> {
        let dir = run_dir.join(LEASES_DIR);
        storage.create_dir_all(&dir)?;
        let target = Lease::path(run_dir, self.shard as usize);
        let tmp = dir.join(format!(
            ".shard-{}.lease.tmp.{}",
            self.shard,
            std::process::id()
        ));
        let payload = serde_json::to_string(self)
            .map_err(|e| StorageError::corruption("lease.encode", &target, format!("{e:?}")))?;
        storage.atomic_write(&tmp, &target, payload.as_bytes())
    }

    /// Load and validate a shard's lease file.
    pub fn load_via(
        storage: &Storage,
        run_dir: &Path,
        shard: usize,
    ) -> Result<Lease, StorageError> {
        let path = Lease::path(run_dir, shard);
        let text = storage.read_to_string(&path)?;
        let lease: Lease = serde_json::from_str(&text)
            .map_err(|e| StorageError::corruption("lease.load", &path, format!("{e:?}")))?;
        if lease.schema != LEASE_SCHEMA {
            return Err(StorageError::corruption(
                "lease.load",
                &path,
                format!(
                    "lease written by an incompatible version: {:?} (want {LEASE_SCHEMA:?})",
                    lease.schema
                ),
            ));
        }
        if lease.shard != shard as u64 {
            return Err(StorageError::corruption(
                "lease.load",
                &path,
                format!("lease file for shard {shard} names shard {}", lease.shard),
            ));
        }
        Ok(lease)
    }

    /// Revoke this lease and re-grant it to a fresh incarnation: bump the
    /// fencing epoch, clear any planted sabotage (the respawn must be able
    /// to finish), and reset the holder.
    pub fn regrant(&self) -> Lease {
        Lease {
            epoch: self.epoch + 1,
            state: LeaseState::Granted,
            holder_pid: 0,
            sabotage: None,
            ..self.clone()
        }
    }
}

/// Per-shard working directory (journal, heartbeat, done marker) inside a
/// run dir.
pub fn shard_dir(run_dir: &Path, shard: usize) -> PathBuf {
    run_dir.join(SHARDS_DIR).join(format!("shard-{shard}"))
}

/// Atomically rewrite the shard's heartbeat file. The rename refreshes the
/// mtime (the liveness signal the coordinator polls) and the content
/// carries the fencing epoch and pid of the writer.
pub fn write_heartbeat_via(
    storage: &Storage,
    shard_dir: &Path,
    epoch: u32,
) -> Result<(), StorageError> {
    storage.create_dir_all(shard_dir)?;
    let tmp = shard_dir.join(format!(".{HEARTBEAT_FILE}.tmp.{}", std::process::id()));
    storage.atomic_write(
        &tmp,
        &shard_dir.join(HEARTBEAT_FILE),
        format!("{epoch} {}\n", std::process::id()).as_bytes(),
    )
}

/// Age of the shard's last heartbeat, `None` when no heartbeat exists (a
/// worker that never got as far as its first beat).
pub fn heartbeat_age_via(storage: &Storage, shard_dir: &Path) -> Option<Duration> {
    let mtime = storage.mtime(&shard_dir.join(HEARTBEAT_FILE)).ok()?;
    match SystemTime::now().duration_since(mtime) {
        Ok(age) => Some(age),
        // The beat's mtime sits in our future: a backwards clock jump or
        // a skewed filesystem stamp. Swallowing the error (the old
        // `.ok()?`) made a dead worker's heartbeat read as permanently
        // fresh — the coordinator could never declare it stale. Counting
        // the skew magnitude as age bounds it instead: a small jump still
        // reads fresh, a large one reads stale and triggers revocation.
        Err(e) => Some(e.duration()),
    }
}

/// The fencing epoch of the shard's last heartbeat.
pub fn heartbeat_epoch_via(storage: &Storage, shard_dir: &Path) -> Option<u32> {
    let text = storage
        .read_to_string(&shard_dir.join(HEARTBEAT_FILE))
        .ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Write the shard's completion marker (atomic rename, like heartbeats).
/// Only a worker that sealed its journal calls this.
pub fn mark_done_via(storage: &Storage, shard_dir: &Path) -> Result<(), StorageError> {
    storage.create_dir_all(shard_dir)?;
    let tmp = shard_dir.join(format!(".{DONE_FILE}.tmp.{}", std::process::id()));
    storage.atomic_write(&tmp, &shard_dir.join(DONE_FILE), b"done\n")
}

/// Whether the shard has a completion marker.
pub fn is_done(shard_dir: &Path) -> bool {
    shard_dir.join(DONE_FILE).exists()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::vfs::{ChaosVfs, FaultKind, OpKind};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hobbit-lease-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn meta() -> RunMeta {
        RunMeta::of(&crate::args::ExpArgs {
            seed: 42,
            scale: 0.01,
            faults: Some((0.02, 0.5)),
            ..Default::default()
        })
    }

    #[test]
    fn shard_of_is_round_robin_and_total() {
        for shards in 1..=5 {
            let mut counts = vec![0usize; shards];
            for i in 0..100 {
                counts[shard_of(i, shards)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 100);
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{counts:?}");
        }
        // Degenerate shard count never divides by zero.
        assert_eq!(shard_of(7, 0), 0);
    }

    #[test]
    fn lease_store_load_roundtrip_and_validation() {
        let dir = tmpdir("roundtrip");
        let mut lease = Lease::grant(2, 4, &meta(), 8);
        lease.sabotage = Some(LeaseSabotage::CrashAfter {
            appends: 5,
            torn: true,
        });
        lease.store_via(&Storage::real(), &dir).unwrap();
        let back = Lease::load_via(&Storage::real(), &dir, 2).unwrap();
        assert_eq!(back, lease);
        assert_eq!(back.meta.faults(), Some((0.02, 0.5)));
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.join(LEASES_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // Loading the wrong shard index is refused.
        assert!(Lease::load_via(&Storage::real(), &dir, 3).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_carries_mda_mode_and_defaults_old_files_to_classic() {
        let dir = tmpdir("mda-mode");
        let m = RunMeta {
            mda_lite: true,
            ..meta()
        };
        let lease = Lease::grant(0, 2, &m, 1);
        assert!(lease.meta.mda_lite);
        assert!(
            lease.regrant().meta.mda_lite,
            "regrant must keep the probe mode"
        );
        lease.store_via(&Storage::real(), &dir).unwrap();
        assert!(
            Lease::load_via(&Storage::real(), &dir, 0)
                .unwrap()
                .meta
                .mda_lite
        );
        // A lease written before the mode existed deserializes as classic.
        let path = Lease::path(&dir, 0);
        let stripped = std::fs::read_to_string(&path)
            .unwrap()
            .replace(",\"mda_lite\":true", "");
        assert!(!stripped.contains("mda_lite"));
        std::fs::write(&path, stripped).unwrap();
        assert!(
            !Lease::load_via(&Storage::real(), &dir, 0)
                .unwrap()
                .meta
                .mda_lite
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_schema_mismatch_is_refused() {
        let dir = tmpdir("schema");
        let mut lease = Lease::grant(0, 2, &meta(), 1);
        lease.schema = "hobbit-lease/v0".into();
        lease.store_via(&Storage::real(), &dir).unwrap();
        let err = Lease::load_via(&Storage::real(), &dir, 0).unwrap_err();
        assert!(err.to_string().contains("incompatible"), "{err}");
        // A v1 lease, with flat copies of the settings, is unreadable: the
        // coordinator grants such a shard afresh.
        let v1 = r#"{"schema":"hobbit-lease/v1","shard":0,"shards":2,"epoch":0,
            "state":"Granted","holder_pid":0,"seed":42,"scale":0.01,"faulted":false,
            "fault_loss":0.0,"fault_rate":0.0,"threads":1,"heartbeat_ms":100,
            "sabotage":null}"#;
        std::fs::write(Lease::path(&dir, 0), v1).unwrap();
        assert!(Lease::load_via(&Storage::real(), &dir, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn regrant_bumps_epoch_and_clears_sabotage() {
        let mut lease = Lease::grant(1, 2, &meta(), 4);
        lease.sabotage = Some(LeaseSabotage::Stall);
        lease.holder_pid = 4242;
        lease.state = LeaseState::Revoked;
        let next = lease.regrant();
        assert_eq!(next.epoch, 1);
        assert_eq!(next.state, LeaseState::Granted);
        assert_eq!(next.holder_pid, 0);
        assert_eq!(next.sabotage, None);
        assert_eq!(next.meta, lease.meta);
        assert_eq!(next.shard, lease.shard);
    }

    #[test]
    fn regrant_clears_chaos_sabotage_so_the_respawn_runs_clean() {
        let mut lease = Lease::grant(0, 2, &meta(), 1);
        lease.sabotage = Some(LeaseSabotage::Chaos {
            seed: 0x57A6,
            rate: 0.05,
        });
        let json = serde_json::to_string(&lease).unwrap();
        let back: Lease = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sabotage, lease.sabotage, "chaos plan roundtrips");
        assert_eq!(back.regrant().sabotage, None);
    }

    #[test]
    fn store_replaces_atomically_under_a_reader() {
        // Replacing a lease many times never exposes a torn read.
        let dir = tmpdir("atomic");
        Lease::grant(0, 2, &meta(), 1)
            .store_via(&Storage::real(), &dir)
            .unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let lease = Lease::load_via(&Storage::real(), &dir, 0)
                        .expect("reader saw a torn lease");
                    assert_eq!(lease.shard, 0);
                    reads += 1;
                }
                reads
            });
            for epoch in 0..200u32 {
                let mut l = Lease::grant(0, 2, &meta(), 1);
                l.epoch = epoch;
                l.store_via(&Storage::real(), &dir).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            assert!(reader.join().unwrap() > 0);
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_retries_through_torn_renames_without_exposing_a_prefix() {
        // Both tear flavours: target never appears (even rename index) and
        // source lingers beside a complete copy (odd index). The retried
        // temp-write-fsync-rename sequence heals either.
        for at in [0u64, 1] {
            let dir = tmpdir(&format!("torn-store-{at}"));
            let storage = Storage::with_chaos(ChaosVfs::scripted(vec![(
                OpKind::Rename,
                at,
                FaultKind::TornRename,
            )]));
            let lease = Lease::grant(0, 2, &meta(), 1);
            // Warm up one clean store for the odd-index case.
            if at == 1 {
                lease.store_via(&storage, &dir).unwrap();
            }
            let mut next = lease.regrant();
            next.holder_pid = 77;
            next.store_via(&storage, &dir).unwrap();
            let back = Lease::load_via(&Storage::real(), &dir, 0).unwrap();
            assert_eq!(back, next, "reader sees the healed replacement");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn heartbeat_age_epoch_and_done_marker() {
        let dir = tmpdir("heartbeat");
        let sd = shard_dir(&dir, 1);
        assert_eq!(heartbeat_age_via(&Storage::real(), &sd), None);
        assert_eq!(heartbeat_epoch_via(&Storage::real(), &sd), None);
        assert!(!is_done(&sd));
        write_heartbeat_via(&Storage::real(), &sd, 3).unwrap();
        assert_eq!(heartbeat_epoch_via(&Storage::real(), &sd), Some(3));
        let age = heartbeat_age_via(&Storage::real(), &sd).unwrap();
        assert!(age < Duration::from_secs(5), "{age:?}");
        // A fresh beat with a newer epoch replaces the old one.
        write_heartbeat_via(&Storage::real(), &sd, 4).unwrap();
        assert_eq!(heartbeat_epoch_via(&Storage::real(), &sd), Some(4));
        // Staleness grows monotonically once the worker stops beating.
        std::thread::sleep(Duration::from_millis(30));
        assert!(heartbeat_age_via(&Storage::real(), &sd).unwrap() >= Duration::from_millis(25));
        mark_done_via(&Storage::real(), &sd).unwrap();
        assert!(is_done(&sd));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_mtime_reads_as_bounded_age_not_permanently_fresh() {
        // Regression: a heartbeat stamped *after* "now" (backwards clock
        // jump) used to make heartbeat_age return None forever — the
        // coordinator treated the dead worker as never-started and judged
        // it only by spawn grace. The skew must count as age instead.
        let dir = tmpdir("skew");
        let sd = shard_dir(&dir, 0);
        write_heartbeat_via(&Storage::real(), &sd, 1).unwrap();
        let hb = sd.join(HEARTBEAT_FILE);
        let f = std::fs::OpenOptions::new().write(true).open(&hb).unwrap();
        f.set_modified(SystemTime::now() + Duration::from_secs(3600))
            .unwrap();
        drop(f);
        let age = heartbeat_age_via(&Storage::real(), &sd).expect("a skewed beat still has an age");
        assert!(
            age >= Duration::from_secs(3590),
            "an hour of skew reads as ~an hour of staleness, got {age:?}"
        );

        // The ChaosVfs SkewMtime fault exercises the same path without
        // touching the real clock.
        let storage =
            Storage::with_chaos(ChaosVfs::from_plan(&testkit::StorageSabotage::ClockSkew {
                skew_secs: 3600,
            }));
        write_heartbeat_via(&Storage::real(), &sd, 2).unwrap();
        let age = heartbeat_age_via(&storage, &sd).expect("skewed mtime still ages");
        assert!(age >= Duration::from_secs(3590), "{age:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
