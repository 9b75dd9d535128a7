//! # aggregate — merging homogeneous /24s into larger homogeneous blocks
//!
//! Implements the paper's Sections 5 and 6:
//!
//! * [`identical`] — merge /24s whose last-hop router sets are identical
//!   (the all-or-nothing step; Figure 5's size distribution, Table 5's
//!   giant blocks);
//! * [`similarity`](mod@similarity) — the `|SA∩SB| / max(|SA|,|SB|)` score and the weighted
//!   similarity graph (built through an inverted last-hop index);
//! * [`cluster`] — MCL over the graph with the paper's pre-processing
//!   (identical-set merge + connected-component split) and inflation
//!   parameter sweep;
//! * [`reprobe`] — validation by reprobing sampled /24 pairs with the
//!   modified (exhaustive) probing strategy;
//! * [`rule`] — the experimental similarity-distribution rule that
//!   predicts homogeneous clusters without reprobing (Figure 9);
//! * [`adjacency`] — numeric-adjacency analysis of aggregates
//!   (Figures 7 and 8);
//! * [`dataset`] — the publishable Hobbit-blocks dataset format (the
//!   paper's data release), with text and JSON serialization.

#![warn(missing_docs)]

pub mod adjacency;
pub mod cluster;
pub mod dataset;
pub mod identical;
pub mod reprobe;
pub mod rule;
pub mod similarity;

pub use adjacency::{contiguous_runs, figure8_positions, first_last_lcp, neighbor_lcp_lens, Run};
pub use cluster::{
    cluster_aggregates, sweep_inflation, sweep_inflation_observed, AggregateClustering,
};
pub use dataset::{DatasetBlock, HobbitDataset};
pub use identical::{aggregate_identical, size_histogram, Aggregate, HomogBlock};
pub use reprobe::{reprobe_block, validate_clusters, ClusterValidation, ReprobeConfig};
pub use rule::{rule_matches, RuleParams};
pub use similarity::{pairwise_scores, similarity, similarity_edges};
