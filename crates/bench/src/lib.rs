//! # bench — the benchmark trajectory for the Hobbit reproduction
//!
//! The crate ships the [`snapshot`] module (the versioned
//! `hobbit-bench/v1` JSON format) and the `hobbit-bench`
//! binary, which times the classify/aggregate/MCL kernels at 10k/100k/1M
//! simulated /24s under either the flat dense-layout kernels
//! (`--label flat`) or the preserved pre-flat ones from
//! `testkit::baseline` (`--label baseline`), emitting a snapshot that CI
//! gates against the committed `BENCH_*.json`.

pub mod snapshot;

pub use snapshot::{
    compare, BenchEntry, BenchSnapshot, CompareError, CompareReport, Regression, SNAPSHOT_SCHEMA,
};
