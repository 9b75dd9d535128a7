//! Property tests for the MCL implementation and the aggregation algebra.

use aggregate::{aggregate_identical, similarity, similarity_edges, Aggregate, HomogBlock};
use mcl::{connected_components, mcl, mcl_by_components, SparseMatrix};
use netsim::{Addr, Block24};
use proptest::prelude::*;

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, 0.05f64..1.0), 0..(n * 2).max(1))
}

proptest! {
    /// MCL clusters always partition the vertex set.
    #[test]
    fn clusters_partition(n in 2usize..14, edges in arb_edges(12)) {
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(a, b, _)| (a as usize) < n && (b as usize) < n)
            .collect();
        let c = mcl(n, &edges, 2.0);
        let mut seen = vec![false; n];
        for cluster in &c.clusters {
            for &v in cluster {
                prop_assert!(!seen[v as usize], "vertex {v} clustered twice");
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// MCL never clusters across connected components, and per-component
    /// runs agree with the whole-graph run.
    #[test]
    fn component_consistency(n in 2usize..12, edges in arb_edges(10)) {
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(a, b, _)| (a as usize) < n && (b as usize) < n)
            .collect();
        let comps = connected_components(n, &edges);
        let comp_of = {
            let mut v = vec![0usize; n];
            for (ci, comp) in comps.iter().enumerate() {
                for &x in comp {
                    v[x as usize] = ci;
                }
            }
            v
        };
        let whole = mcl(n, &edges, 2.0);
        for cluster in &whole.clusters {
            let c0 = comp_of[cluster[0] as usize];
            for &v in cluster {
                prop_assert_eq!(comp_of[v as usize], c0, "cluster spans components");
            }
        }
        let split = mcl_by_components(n, &edges, 2.0);
        let mut wc = whole.clusters.clone();
        wc.sort();
        prop_assert_eq!(wc, split.clusters);
    }

    /// Normalization + expansion preserve column-stochasticity.
    #[test]
    fn stochastic_invariant(n in 2usize..10, edges in arb_edges(8)) {
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(a, b, _)| (a as usize) < n && (b as usize) < n)
            .collect();
        let mut m = SparseMatrix::from_edges(n, &edges);
        m.normalize_columns();
        prop_assert!(m.is_column_stochastic(1e-9));
        let sq = m.squared();
        prop_assert!(sq.is_column_stochastic(1e-6), "squaring broke stochasticity");
        let mut infl = sq;
        infl.inflate(2.0);
        prop_assert!(infl.is_column_stochastic(1e-9), "inflation broke stochasticity");
    }

    /// The similarity score is a bounded, symmetric overlap measure that is
    /// 1 exactly on identical sets.
    #[test]
    fn similarity_properties(
        a in proptest::collection::btree_set(0u32..40, 0..10),
        b in proptest::collection::btree_set(0u32..40, 0..10),
    ) {
        let va: Vec<Addr> = a.iter().map(|&x| Addr(x)).collect();
        let vb: Vec<Addr> = b.iter().map(|&x| Addr(x)).collect();
        let s = similarity(&va, &vb);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, similarity(&vb, &va));
        if !va.is_empty() {
            prop_assert_eq!(similarity(&va, &va), 1.0);
        }
        if s == 1.0 {
            prop_assert_eq!(&va, &vb);
        }
        let disjoint = a.intersection(&b).count() == 0;
        prop_assert_eq!(s == 0.0, disjoint || va.is_empty() || vb.is_empty());
    }

    /// Identical-set aggregation: every input block lands in exactly one
    /// aggregate whose set equals the block's set.
    #[test]
    fn aggregation_is_a_partition(
        blocks in proptest::collection::vec(
            (0u32..1000, proptest::collection::btree_set(0u32..6, 1..4)),
            1..30,
        ),
    ) {
        let input: Vec<HomogBlock> = blocks
            .iter()
            .map(|(b, set)| {
                HomogBlock::new(Block24(*b), set.iter().map(|&x| Addr(x)).collect())
            })
            .collect();
        let aggs = aggregate_identical(&input);
        // Every distinct input block appears exactly once.
        let mut out_blocks: Vec<Block24> = aggs.iter().flat_map(|a| a.blocks.clone()).collect();
        out_blocks.sort();
        let mut in_blocks: Vec<Block24> = input.iter().map(|h| h.block).collect();
        in_blocks.sort();
        in_blocks.dedup_by(|a, b| a == b); // duplicate blocks merge
        // (a duplicated block with different sets may appear twice; allow)
        for agg in &aggs {
            for blk in &agg.blocks {
                let matching = input
                    .iter()
                    .any(|h| h.block == *blk && h.lasthops == agg.lasthops);
                prop_assert!(matching, "aggregate set must match a member's set");
            }
        }
        prop_assert!(out_blocks.len() >= in_blocks.len());
    }

    /// The similarity graph has an edge exactly for overlapping aggregates.
    #[test]
    fn similarity_edges_iff_overlap(
        sets in proptest::collection::vec(proptest::collection::btree_set(0u32..8, 1..4), 2..10),
    ) {
        let aggs: Vec<Aggregate> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| Aggregate {
                lasthops: s.iter().map(|&x| Addr(x)).collect(),
                blocks: vec![Block24(i as u32)],
            })
            .collect();
        let edges = similarity_edges(&aggs);
        for i in 0..aggs.len() {
            for j in 0..i {
                let overlap = sets[i].intersection(&sets[j]).count() > 0;
                let edge = edges
                    .iter()
                    .any(|&(a, b, _)| (a, b) == (j as u32, i as u32) || (a, b) == (i as u32, j as u32));
                prop_assert_eq!(edge, overlap, "edge ({}, {})", i, j);
            }
        }
    }
}
