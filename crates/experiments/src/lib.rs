//! # experiments — regenerating every table and figure of the paper
//!
//! Each table/figure has a module with a `run(&ExpArgs) -> Report`
//! function, listed in [`exps::EXPERIMENTS`]. The one `hobbit` binary,
//! in the workspace's root package, runs any of them by name (`cargo run
//! --release -- table1`); its `shard` entry splits one run over worker
//! processes ([`coordinator`]). Every experiment accepts `--seed`, `--scale` (1.0 builds
//! about 32k ordinary /24s plus the Table-5 sites, some 1% of the paper's
//! 3.37M probed /24s) and `--json`; one given a flag it does not act on
//! exits 2.
//!
//! The shared [`pipeline`] performs the paper's measurement sequence once:
//! ZMap scan → selection → confidence calibration → per-/24
//! classification; the experiment modules post-process its outputs. A run
//! with a run dir persists the scan and calibration in [`prefix`], so a
//! resumed run skips them.

#![warn(missing_docs)]

pub mod args;
pub mod coordinator;
pub mod journal;
pub mod lease;
pub mod pipeline;
pub mod prefix;
pub mod report;
pub mod supervise;
pub mod vfs;

pub mod exps;

pub use args::ExpArgs;
pub use coordinator::{
    run_sharded, worker_main, CoordCrash, CoordError, CoordObs, CoordinatorConfig, EXIT_KILLED,
    EXIT_REFUSED, EXIT_STORAGE,
};
pub use journal::{CrashPoint, JournalWriter, Mismatch, RunMeta, ShardInfo, JOURNAL_SCHEMA};
pub use lease::{Lease, LeaseSabotage, LeaseState, LEASE_SCHEMA};
pub use pipeline::{classify_blocks, Pipeline, PipelineBuilder, RunError, WorkerStats};
pub use report::Report;
pub use supervise::{
    FaultInjector, InjectedFault, QuarantineReason, QuarantinedBlock, ShutdownSignal,
    SuperviseReport,
};
pub use vfs::{
    ChaosVfs, FaultKind, OpKind, RealVfs, Storage, StorageError, StorageErrorKind, StorageObs, Vfs,
    VfsFile,
};
