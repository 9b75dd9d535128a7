//! # hobbit — homogeneous /24 block identification
//!
//! The primary contribution of *Identifying and Aggregating Homogeneous
//! IPv4 /24 Blocks with Hobbit* (Lee & Spring, IMC 2016), reimplemented
//! over the [`netsim`] substrate and the [`probe`] measurement tools.
//!
//! Hobbit decides whether all addresses of a /24 are topologically
//! co-located despite per-destination load balancing changing even their
//! last-hop routers. The pipeline:
//!
//! 1. [`select`]: choose /24s from a ZMap snapshot (≥ 4 active addresses,
//!    one per /26 quarter);
//! 2. [`schedule`]: probe destinations round-robin across /26 quarters;
//! 3. [`layout`] + [`hierarchy`]: group destinations by last-hop router in
//!    a dense per-/24 table (256-bit member bitsets, block-local router
//!    ids) and test whether the groups' numeric ranges are hierarchical —
//!    non-hierarchical grouping proves load balancing, hence homogeneity;
//! 4. [`confidence`]: an empirical `<cardinality, #probed>` table bounds
//!    the miss probability and drives termination (Figure 4);
//! 5. [`classify`]: the per-block state machine producing Table 1 verdicts;
//! 6. [`hetero`]: the disjoint-and-aligned criterion exposing true splits
//!    and their sub-block compositions (Table 2);
//! 7. [`survey`]: full-block datasets for the metric comparison and the
//!    topology-discovery experiments.

#![warn(missing_docs)]

pub mod classify;
pub mod confidence;
pub mod hetero;
pub mod hierarchy;
pub mod layout;
pub mod schedule;
pub mod select;
pub mod survey;

pub use classify::{
    block_ident, classify_block, early_verdict, prober_retries, BlockMeasurement, Classification,
    ClassifyObs, HobbitConfig, FAULTED_RETRIES, MIN_ACTIVE, SAME_LASTHOP_MIN,
};
pub use confidence::{detects_homogeneous, BlockLasthopData, ConfidenceTable};
pub use hetero::{very_likely_heterogeneous, SubBlockComposition};
pub use hierarchy::Relationship;
pub use layout::{intersect_count_sorted, BlockTable, HostSet, RouterInterner};
pub use probe::types::Hop;
pub use schedule::{probing_order, reprobe_order};
pub use select::{select_all, select_block, SelectReject, SelectedBlock};
pub use survey::{survey_block, BlockSurvey};
