//! Differential property tests: the flat dense-layout kernels
//! (`hobbit::layout`, the sorted-`Vec` aggregation paths) must be
//! extensionally equal to the naive reimplementations in
//! `testkit::oracle`, the one reference the conformance runner also
//! checks against, on arbitrary scenarios.

use aggregate::{aggregate_identical, similarity_edges, Aggregate, HomogBlock};
use hobbit::{early_verdict, BlockLasthopData, BlockTable, ConfidenceTable, HostSet};
use netsim::{Addr, Block24};
use proptest::prelude::*;
use std::collections::BTreeSet;
use testkit::{
    naive_aggregate, naive_disjoint_aligned, naive_early_verdict, naive_lasthop_set,
    naive_merged_groups, naive_relationship, naive_similarity_edges,
};

fn lh(i: usize) -> Addr {
    Addr(0x0A00_0000 + i as u32)
}

/// Observations from (host, router-ids) assignments, possibly multihomed.
fn obs_of(assignments: &[(u8, Vec<usize>)]) -> Vec<(Addr, Vec<Addr>)> {
    assignments
        .iter()
        .map(|(h, gs)| {
            (
                Block24(0x0B_0000).addr(*h),
                gs.iter().map(|&g| lh(g)).collect(),
            )
        })
        .collect()
}

/// Sort merged groups into a canonical set-of-sets for comparison (the
/// two implementations enumerate merged groups in different orders).
fn canonical(mut groups: Vec<Vec<Addr>>) -> Vec<Vec<Addr>> {
    groups.sort();
    groups
}

/// A small calibrated confidence table so the Hierarchical early-exit
/// branch is actually exercised (the empty table never terminates it).
fn calibrated() -> ConfidenceTable {
    let dataset: Vec<BlockLasthopData> = (0..8)
        .map(|i| BlockLasthopData {
            per_addr: (0..40)
                .map(|j| {
                    let host = (j % 254 + 1) as u8;
                    (Block24(0x0C_0000).addr(host), vec![lh(j % (2 + i % 4))])
                })
                .collect(),
        })
        .collect();
    ConfidenceTable::build(&dataset, 24, 16, 0.95, 8, 7)
}

proptest! {
    /// Grouping, merging, cardinality, relationship and the §4.2
    /// disjoint-aligned test agree between the flat table and the oracle
    /// on arbitrary (multihomed) observations.
    #[test]
    fn flat_grouping_matches_oracle(
        assignments in proptest::collection::vec(
            (0u8..=255, proptest::collection::vec(0usize..8, 1..4)), 0..40),
    ) {
        let obs = obs_of(&assignments);
        let table = BlockTable::from_observations(obs.iter().map(|(a, l)| (*a, l.as_slice())));
        let lasthops = naive_lasthop_set(&obs);
        prop_assert_eq!(table.cardinality(), lasthops.len());
        prop_assert_eq!(table.lasthop_set(), lasthops);
        prop_assert_eq!(
            canonical(table.merged_members()),
            canonical(naive_merged_groups(&obs))
        );
        prop_assert_eq!(table.relationship(), naive_relationship(&obs));
        prop_assert_eq!(table.disjoint_and_aligned(), naive_disjoint_aligned(&obs));
    }

    /// The incremental early-termination verdict equals the oracle's
    /// from-scratch one at every prefix of a measurement stream, under
    /// both the empty and a calibrated confidence table.
    #[test]
    fn flat_early_verdict_matches_oracle(
        assignments in proptest::collection::vec(
            (0u8..=255, proptest::collection::vec(0usize..6, 1..3)), 1..25),
    ) {
        let obs = obs_of(&assignments);
        for conf in [ConfidenceTable::empty(), calibrated()] {
            let mut table = BlockTable::new(Block24(0x0B_0000));
            for (k, (dst, lasthops)) in obs.iter().enumerate() {
                table.add(*dst, lasthops);
                prop_assert_eq!(
                    early_verdict(&table, k + 1, &conf),
                    naive_early_verdict(&obs[..=k], &conf)
                );
            }
        }
    }

    /// Interned-id similarity edges equal the oracle's all-pairs ones —
    /// same pairs, same order, same weights.
    #[test]
    fn flat_similarity_matches_oracle(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0usize..12, 0..6), 0..30),
    ) {
        let aggs: Vec<Aggregate> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| Aggregate {
                lasthops: s.iter().map(|&g| lh(g)).collect(),
                blocks: vec![Block24(i as u32)],
            })
            .collect();
        let plain: Vec<Vec<Addr>> = aggs.iter().map(|a| a.lasthops.clone()).collect();
        prop_assert_eq!(similarity_edges(&aggs), naive_similarity_edges(&plain));
    }

    /// Sort-based identical-set aggregation reproduces the oracle's
    /// output exactly, including presentation order.
    #[test]
    fn flat_identical_matches_oracle(
        blocks in proptest::collection::vec(
            (0u32..50, proptest::collection::vec(0usize..6, 0..4)), 0..40),
    ) {
        let world: Vec<HomogBlock> = blocks
            .iter()
            .map(|(b, gs)| {
                HomogBlock::new(Block24(*b), gs.iter().map(|&g| lh(g)).collect())
            })
            .collect();
        let pairs: Vec<(Block24, Vec<Addr>)> = world
            .iter()
            .map(|b| (b.block, b.lasthops.clone()))
            .collect();
        let flat: Vec<(Vec<Addr>, Vec<Block24>)> = aggregate_identical(&world)
            .into_iter()
            .map(|a| (a.lasthops, a.blocks))
            .collect();
        prop_assert_eq!(flat, naive_aggregate(&pairs));
    }

    /// The 256-bit member bitset agrees with a `BTreeSet` model on every
    /// queried operation.
    #[test]
    fn hostset_matches_set_model(
        a in proptest::collection::btree_set(0u8..=255, 0..64),
        b in proptest::collection::btree_set(0u8..=255, 0..64),
        lo in 0u8..=255,
        hi in 0u8..=255,
    ) {
        let of = |s: &BTreeSet<u8>| {
            let mut hs = HostSet::default();
            for &h in s {
                hs.insert(h);
            }
            hs
        };
        let (ha, hb) = (of(&a), of(&b));
        prop_assert_eq!(ha.count() as usize, a.len());
        prop_assert_eq!(ha.min(), a.iter().next().copied());
        prop_assert_eq!(ha.max(), a.iter().next_back().copied());
        prop_assert_eq!(ha.iter().collect::<Vec<_>>(), a.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(ha.intersects(&hb), !a.is_disjoint(&b));
        prop_assert_eq!(ha.intersection_count(&hb) as usize, a.intersection(&b).count());
        // `range` over the raw pair: an inverted range (lo > hi) is the
        // empty set, matching `lo..=hi` iteration semantics.
        let mask = HostSet::range(lo, hi);
        if lo > hi {
            prop_assert_eq!(mask, HostSet::EMPTY);
        }
        prop_assert_eq!(
            mask.intersection_count(&ha) as usize,
            if lo <= hi { a.range(lo..=hi).count() } else { 0 }
        );
    }
}
