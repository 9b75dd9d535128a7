//! Aggregation of homogeneous /24s with identical last-hop sets
//! (paper Section 5).
//!
//! Each homogeneous /24 carries the set of last-hop routers observed for
//! its addresses (a singleton, or several when per-destination balancing
//! spreads the block). Blocks whose sets are *identical* are merged into
//! one aggregate — the all-or-nothing step that reduced the paper's 1.77M
//! homogeneous /24s to 0.53M aggregates, with sizes up to 1,251 /24s.

use netsim::{Addr, Block24};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A homogeneous /24 with its observed last-hop router set (sorted).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomogBlock {
    /// The block.
    pub block: Block24,
    /// Sorted, deduplicated last-hop set.
    pub lasthops: Vec<Addr>,
}

impl HomogBlock {
    /// Construct, normalizing the last-hop set.
    pub fn new(block: Block24, mut lasthops: Vec<Addr>) -> Self {
        lasthops.sort();
        lasthops.dedup();
        HomogBlock { block, lasthops }
    }
}

/// An aggregate of /24 blocks sharing one last-hop set.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aggregate {
    /// The shared last-hop set (sorted).
    pub lasthops: Vec<Addr>,
    /// Member blocks, numerically sorted.
    pub blocks: Vec<Block24>,
}

impl Aggregate {
    /// Aggregate size in /24s.
    pub fn size(&self) -> usize {
        self.blocks.len()
    }
}

/// Merge blocks with identical last-hop sets. Blocks with empty sets are
/// dropped (nothing to aggregate on).
///
/// Flat path: one scan groups blocks through an open-addressing table
/// keyed by a 64-bit mix of the set's fixed-width `KEY_SLOTS`-router
/// prefix key, with a full slice comparison against each group's
/// representative confirming (or probing past) every hash hit. Only the
/// few thousand live slots are ever touched, so probes stay in cache; no
/// global sort over the blocks is needed, because the presentation
/// comparator below is a total order over distinct aggregates and fixes
/// the output order on its own.
pub fn aggregate_identical(blocks: &[HomogBlock]) -> Vec<Aggregate> {
    let cap = (blocks.len().max(2) * 2).next_power_of_two();
    let shift = 64 - cap.trailing_zeros();
    let mask = cap - 1;
    // slot -> group id (MAX = empty); per group: a representative block
    // index (its lasthops define the group) and a member count.
    let mut slot_gid: Vec<u32> = vec![u32::MAX; cap];
    let mut rep: Vec<u32> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    // Group id per input block, MAX for dropped empty-set blocks.
    let mut gids: Vec<u32> = Vec::with_capacity(blocks.len());
    for (i, hb) in blocks.iter().enumerate() {
        if hb.lasthops.is_empty() {
            gids.push(u32::MAX);
            continue;
        }
        let key = prefix_key(&hb.lasthops);
        // Multiply each half before combining: a plain XOR of the halves
        // self-cancels on structured router addresses (sets drawn from one
        // PoP differ only in low bits), collapsing the table to one chain.
        let mut h = ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (key as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut idx = (h >> shift) as usize;
        let gid = loop {
            let cur = slot_gid[idx];
            if cur == u32::MAX {
                slot_gid[idx] = rep.len() as u32;
                rep.push(i as u32);
                counts.push(0);
                break rep.len() as u32 - 1;
            }
            // Sets sharing a prefix key (or, rarely, a mixed hash) land on
            // the same probe chain; the full comparison keeps grouping
            // exact regardless.
            if blocks[rep[cur as usize] as usize].lasthops == hb.lasthops {
                break cur;
            }
            idx = (idx + 1) & mask;
        };
        counts[gid as usize] += 1;
        gids.push(gid);
    }
    // Scatter member blocks into per-group segments of one flat array.
    let mut cursor: Vec<u32> = Vec::with_capacity(counts.len());
    let mut total = 0u32;
    for &c in &counts {
        cursor.push(total);
        total += c;
    }
    let mut member: Vec<u32> = vec![0; total as usize];
    for (hb, &gid) in blocks.iter().zip(&gids) {
        if gid != u32::MAX {
            let at = &mut cursor[gid as usize];
            member[*at as usize] = hb.block.0;
            *at += 1;
        }
    }
    let mut out: Vec<Aggregate> = Vec::with_capacity(rep.len());
    let mut seg_end = 0usize;
    for (g, &c) in counts.iter().enumerate() {
        let seg_start = seg_end;
        seg_end += c as usize;
        let seg = &mut member[seg_start..seg_end];
        seg.sort_unstable();
        let mut blocks_vec: Vec<Block24> = seg.iter().map(|&b| Block24(b)).collect();
        blocks_vec.dedup();
        out.push(Aggregate {
            lasthops: blocks[rep[g] as usize].lasthops.clone(),
            blocks: blocks_vec,
        });
    }
    // Largest first: the presentation order of Table 5. Sort a compact
    // (inverted size, first block, index) projection — a total order up to
    // aggregates sharing size and first block, which a stable full
    // comparison pass then resolves — keeping the 56-byte aggregates and
    // their heap vectors out of the sort's comparisons and moves.
    let mut order: Vec<(u32, u32, u32)> = out
        .iter()
        .enumerate()
        .map(|(i, a)| (u32::MAX - a.size() as u32, a.blocks[0].0, i as u32))
        .collect();
    order.sort_unstable();
    let mut k = 0;
    while k < order.len() {
        let mut e = k + 1;
        while e < order.len() && (order[e].0, order[e].1) == (order[k].0, order[k].1) {
            e += 1;
        }
        if e - k > 1 {
            // Ties in the projection resolve by full member comparison and —
            // for degenerate equal-member aggregates — lexicographic set
            // order, the order the old `BTreeMap` iteration emitted them in.
            order[k..e].sort_by(|&(_, _, a), &(_, _, b)| {
                let (x, y) = (&out[a as usize], &out[b as usize]);
                x.blocks
                    .cmp(&y.blocks)
                    .then_with(|| x.lasthops.cmp(&y.lasthops))
            });
        }
        k = e;
    }
    let mut taken: Vec<Option<Aggregate>> = out.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|(_, _, idx)| taken[idx as usize].take().expect("permutation"))
        .collect()
}

/// Routers packed into the grouping key of [`aggregate_identical`].
const KEY_SLOTS: usize = 4;

/// The first [`KEY_SLOTS`] routers of a sorted set packed big-endian into
/// a `u128`, zero-padded. Injective for sets of at most [`KEY_SLOTS`]
/// routers; longer sets share the key of their prefix and are told apart
/// by the full slice comparison at each hash hit.
fn prefix_key(set: &[Addr]) -> u128 {
    let mut key = 0u128;
    for slot in 0..KEY_SLOTS {
        key = (key << 32) | set.get(slot).map_or(0, |a| a.0) as u128;
    }
    key
}

/// The power-of-two size histogram behind Figure 5: bucket `i` counts
/// aggregates with `2^i <= size < 2^(i+1)`.
pub fn size_histogram(aggs: &[Aggregate]) -> Vec<(u32, usize)> {
    let mut hist: BTreeMap<u32, usize> = BTreeMap::new();
    for a in aggs {
        let bucket = (a.size() as f64).log2().floor() as u32;
        *hist.entry(bucket).or_default() += 1;
    }
    hist.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lh(n: u32) -> Addr {
        Addr(0x0A00_0000 + n)
    }

    fn hb(block: u32, lhs: &[u32]) -> HomogBlock {
        HomogBlock::new(Block24(block), lhs.iter().map(|&n| lh(n)).collect())
    }

    #[test]
    fn identical_sets_merge() {
        let blocks = vec![
            hb(1, &[1, 2]),
            hb(2, &[2, 1]), // order-insensitive
            hb(3, &[1]),
            hb(4, &[1, 2, 3]),
        ];
        let aggs = aggregate_identical(&blocks);
        assert_eq!(aggs.len(), 3);
        let big = aggs.iter().find(|a| a.size() == 2).unwrap();
        assert_eq!(big.blocks, vec![Block24(1), Block24(2)]);
        assert_eq!(big.lasthops, vec![lh(1), lh(2)]);
    }

    #[test]
    fn subset_sets_do_not_merge() {
        // {1} vs {1,2}: equal sizes and membership both matter.
        let aggs = aggregate_identical(&[hb(1, &[1]), hb(2, &[1, 2])]);
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn empty_sets_are_dropped() {
        let aggs = aggregate_identical(&[hb(1, &[]), hb(2, &[1])]);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].blocks, vec![Block24(2)]);
    }

    #[test]
    fn sorted_largest_first() {
        let aggs = aggregate_identical(&[hb(1, &[1]), hb(2, &[1]), hb(3, &[1]), hb(9, &[2])]);
        assert_eq!(aggs[0].size(), 3);
        assert_eq!(aggs[1].size(), 1);
    }

    #[test]
    fn duplicate_blocks_dedup() {
        let aggs = aggregate_identical(&[hb(1, &[1]), hb(1, &[1])]);
        assert_eq!(aggs[0].blocks, vec![Block24(1)]);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut blocks = Vec::new();
        // 3 singletons, one aggregate of 5 (bucket 2), one of 16 (bucket 4)
        blocks.push(hb(100, &[10]));
        blocks.push(hb(101, &[11]));
        blocks.push(hb(102, &[12]));
        for i in 0..5 {
            blocks.push(hb(200 + i, &[20]));
        }
        for i in 0..16 {
            blocks.push(hb(300 + i, &[30]));
        }
        let aggs = aggregate_identical(&blocks);
        let hist = size_histogram(&aggs);
        assert_eq!(hist, vec![(0, 3), (2, 1), (4, 1)]);
    }
}
