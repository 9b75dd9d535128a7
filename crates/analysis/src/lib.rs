//! # analysis — statistics and implication experiments
//!
//! The paper's Section 7 applications of Hobbit blocks, plus the shared
//! statistics toolkit:
//!
//! * [`stats`] — empirical CDFs, quantiles, histograms (every figure is
//!   one of these);
//! * [`coverage`] — topology-discovery link coverage when destinations are
//!   chosen per Hobbit block vs per /24 (Figure 11);
//! * [`sampling`] — stratified sampling from Hobbit blocks vs simple
//!   random sampling, measured by distinct rDNS patterns (Figure 12);
//! * [`cellular`] — cellular-block identification from first-ping deltas
//!   (Figure 6) and rDNS pattern extraction (Section 7.2);
//! * [`longitudinal`] — homogeneity stability across measurement epochs
//!   (the paper's stated future work).

#![warn(missing_docs)]

pub mod cellular;
pub mod coverage;
pub mod longitudinal;
pub mod plot;
pub mod sampling;
pub mod stats;

pub use cellular::{block_ping_deltas, dominant_pattern, looks_cellular, pattern_is_exclusive};
pub use coverage::{coverage_curve, CoveragePoint, TraceDataset};
pub use longitudinal::{jaccard, snapshot_epoch, stability, EpochSnapshot, StabilityReport};
pub use plot::ascii_cdf;
pub use sampling::{distinct_patterns, figure12, random_sample, stratified_sample, SamplingRow};
pub use stats::{histogram, mean, stderr, Ecdf};
