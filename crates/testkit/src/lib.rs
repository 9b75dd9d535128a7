//! # testkit — differential conformance tooling for the Hobbit pipeline
//!
//! The production classifier is optimized: work-stealing workers over one
//! shared network, early-terminating probing, union-find group merging,
//! fault-resilient retries. None of that machinery should ever change a
//! *verdict* — the paper's classification is a pure function of the
//! evidence a block yields. This crate checks that claim the way MDA-Lite
//! was validated against full stochastic MDA: an independent, deliberately
//! naive reimplementation ([`oracle`]) is run over the same measurements
//! and every divergence is a bug in one of the two.
//!
//! The pieces:
//!
//! * [`oracle`] — single-threaded, O(n²) reimplementations of last-hop
//!   grouping, the hierarchy test, strict-disjoint subnet detection,
//!   identical-set aggregation, similarity edges, and a replay of the
//!   classifier's early-termination state machine. Shares no code with
//!   `hobbit`'s production paths beyond the `core` data types. It is the
//!   one reference: the conformance runner and `tests/prop_flat.rs`, which
//!   checks the flat `hobbit::layout` and aggregation kernels on arbitrary
//!   inputs, both compare against it.
//! * [`scenario`] — a serializable scenario grammar ([`ScenarioSpec`])
//!   with a seeded generator and a miniature topology builder producing
//!   netsim networks with *known ground-truth labels*.
//! * [`diff`] — the differential runner: production classification (injected
//!   by the caller, so this crate stays independent of `experiments`)
//!   versus the oracle, block by block, across thread counts.
//! * [`shrink`](mod@shrink) — a greedy delta-debugging shrinker that reduces a failing
//!   scenario to a minimal reproducer.
//! * [`corpus`] — seed-file I/O and the golden corpus definitions checked
//!   into `tests/corpus/`.
//! * [`accuracy`] — the ground-truth accuracy harness for time-evolving
//!   worlds: epoch-aware truth labels derived from the event schedule,
//!   plus verdict-flip and stale-aggregate rates of a dynamic run against
//!   its own frozen baseline.
//! * [`crash`] — the kill/resume harness vocabulary: [`CrashPlan`]s (kill
//!   after N journal appends, torn tail, worker panic/stall injection),
//!   the standard kill-point sweep, and the byte-divergence locator used
//!   by checkpoint/resume byte-identity assertions.
//!
//! [`ScenarioSpec`]: scenario::ScenarioSpec

#![warn(missing_docs)]

pub mod accuracy;
pub mod corpus;
pub mod crash;
pub mod diff;
pub mod oracle;
pub mod scenario;
pub mod shrink;
pub mod storage;

pub use accuracy::{dynamics_accuracy, epoch_truth, AccuracyObs, AccuracyReport};
pub use corpus::{golden_specs, CorpusEntry, CorpusStore, ExpectedBlock, StdCorpusStore};
pub use crash::{first_divergence, kill_points, CrashPlan};
pub use diff::{run_spec, ClassifyRef, ConformObs, DiffReport, Mismatch};
pub use oracle::{
    naive_aggregate, naive_disjoint_aligned, naive_early_verdict, naive_lasthop_set,
    naive_merged_groups, naive_relationship, naive_similarity_edges, replay_verdict, OracleVerdict,
};
pub use scenario::{
    build_world, gen_spec, BlockKind, BlockSpec, DynamicsSpec, EventSpec, NetemKnobs, PopSpec,
    ScenarioSpec, World,
};
pub use shrink::shrink;
pub use storage::{storage_schedules, StorageSabotage};
