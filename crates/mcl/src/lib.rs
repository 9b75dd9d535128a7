//! # mcl — the Markov Cluster Algorithm, from scratch
//!
//! A pure-Rust implementation of MCL (van Dongen, *Graph clustering by flow
//! simulation*, 2000), the graph clustering algorithm the Hobbit paper uses
//! to aggregate /24 blocks with similar-but-not-identical last-hop router
//! sets (Section 6).
//!
//! MCL simulates flow on a graph: its column-stochastic matrix is
//! alternately **expanded** (squared — flow spreads) and **inflated**
//! (entry-wise powered and renormalized — strong flows win) until the
//! process converges to a forest of attractors whose basins are the
//! clusters.
//!
//! The inflation exponent is the one setting: larger values give finer
//! clusters, and the paper sweeps it (Section 6.4). The rest is fixed:
//! each vertex's self-loop is its strongest edge, entries below
//! [`matrix::PRUNE_BELOW`] are pruned after each inflation, and the
//! iteration stops when no entry moves by 1e-6, or after 100 rounds.
//!
//! The paper's two pre-processing steps are provided too: merging vertices
//! connected by weight-1 edges happens upstream (in the `aggregate` crate),
//! and [`mcl_by_components`] splits the input into connected components so
//! the cubic-time iteration runs on small matrices.
//!
//! ```
//! use mcl::mcl;
//! // Two triangles joined by a weak bridge.
//! let edges = [
//!     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
//!     (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
//!     (2, 3, 0.1),
//! ];
//! let clustering = mcl(6, &edges, 2.0);
//! assert_eq!(clustering.clusters.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod matrix;

pub use cluster::{connected_components, mcl, mcl_by_components, Clustering};
pub use matrix::{Column, SparseMatrix};
