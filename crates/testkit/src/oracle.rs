//! The reference oracle: naive, single-threaded reimplementations of every
//! decision the production classifier and aggregation make.
//!
//! Everything here is deliberately O(n²) or worse — repeated fixpoint merge
//! passes instead of union-find, all-pairs scans instead of sorted sweeps,
//! insertion sort instead of the standard library's — so that no production
//! shortcut is accidentally shared. The only inputs are `core` data types:
//! a [`BlockMeasurement`]'s recorded evidence, the [`ConfidenceTable`], and
//! the classifier's thresholds ([`SAME_LASTHOP_MIN`], [`MIN_ACTIVE`]). If
//! production and oracle ever disagree on the same evidence, one of them is
//! wrong.

use hobbit::{
    BlockMeasurement, Classification, ConfidenceTable, Relationship, MIN_ACTIVE, SAME_LASTHOP_MIN,
};
use netsim::{Addr, Block24, Prefix};

/// One per-destination observation: `(destination, its last-hop routers)`.
pub type Obs = (Addr, Vec<Addr>);

/// Insertion sort — quadratic on purpose (independence from `sort`).
fn insertion_sort<T: Ord + Copy>(v: &mut [T]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] > x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Remove duplicates from a sorted vector by linear rebuild.
fn dedup_sorted<T: Ord + Copy>(v: &mut Vec<T>) {
    let mut out: Vec<T> = Vec::new();
    for &x in v.iter() {
        if out.last() != Some(&x) {
            out.push(x);
        }
    }
    *v = out;
}

/// All distinct last-hop interfaces in `per_dest`, ascending — the naive
/// recomputation of [`BlockMeasurement::lasthop_set`].
pub fn naive_lasthop_set(per_dest: &[Obs]) -> Vec<Addr> {
    let mut all: Vec<Addr> = Vec::new();
    for (_, lhs) in per_dest {
        for &lh in lhs {
            if !all.contains(&lh) {
                all.push(lh);
            }
        }
    }
    insertion_sort(&mut all);
    all
}

/// Group destinations by last-hop interface, then merge groups sharing a
/// member address to a fixpoint (repeated full passes, no union-find).
///
/// Longest-prefix matching assigns each destination to exactly one route
/// entry, so two interfaces serving the same destination must be one ECMP
/// set. The result is canonical: each merged group sorted ascending, groups
/// ordered by their smallest member.
pub fn naive_merged_groups(per_dest: &[Obs]) -> Vec<Vec<Addr>> {
    // Raw groups, one per distinct last-hop interface.
    let mut groups: Vec<(Addr, Vec<Addr>)> = Vec::new();
    for (dst, lhs) in per_dest {
        for &lh in lhs {
            match groups.iter_mut().find(|(g, _)| *g == lh) {
                Some((_, members)) => {
                    if !members.contains(dst) {
                        members.push(*dst);
                    }
                }
                None => groups.push((lh, vec![*dst])),
            }
        }
    }
    let mut merged: Vec<Vec<Addr>> = groups.into_iter().map(|(_, m)| m).collect();
    // Fixpoint: merge any two groups sharing a member, restart, repeat.
    loop {
        let mut merged_any = false;
        'outer: for i in 0..merged.len() {
            for j in (i + 1)..merged.len() {
                let shares = merged[i].iter().any(|a| merged[j].contains(a));
                if shares {
                    let absorbed = merged.remove(j);
                    for a in absorbed {
                        if !merged[i].contains(&a) {
                            merged[i].push(a);
                        }
                    }
                    merged_any = true;
                    break 'outer;
                }
            }
        }
        if !merged_any {
            break;
        }
    }
    for g in merged.iter_mut() {
        insertion_sort(g);
        dedup_sorted(g);
    }
    merged.sort_by_key(|g| g.first().copied());
    merged
}

/// The range-relationship test over the merged groups, all pairs.
pub fn naive_relationship(per_dest: &[Obs]) -> Relationship {
    let merged = naive_merged_groups(per_dest);
    if merged.len() <= 1 {
        return Relationship::SingleGroup;
    }
    for i in 0..merged.len() {
        for j in 0..merged.len() {
            if i == j {
                continue;
            }
            let (alo, ahi) = (merged[i][0], *merged[i].last().unwrap());
            let (blo, bhi) = (merged[j][0], *merged[j].last().unwrap());
            let disjoint = ahi < blo || bhi < alo;
            let a_in_b = blo <= alo && ahi <= bhi;
            let b_in_a = alo <= blo && bhi <= ahi;
            if !(disjoint || a_in_b || b_in_a) {
                return Relationship::NonHierarchical;
            }
        }
    }
    Relationship::Hierarchical
}

/// The smallest prefix containing every address in `members`: start from
/// the first address's /32 and widen one bit at a time.
fn naive_cover(members: &[Addr]) -> Prefix {
    let mut p = Prefix::new(members[0], 32);
    while !members.iter().all(|&a| p.contains(a)) {
        p = p.parent().expect("/0 contains everything");
    }
    p
}

/// Strict-disjoint subnet detection (paper §4.2): every merged group's
/// range pairwise disjoint, and every group's covering subnet free of other
/// groups' addresses. Returns the covers sorted by base, or `None`.
pub fn naive_disjoint_aligned(per_dest: &[Obs]) -> Option<Vec<Prefix>> {
    let merged = naive_merged_groups(per_dest);
    if merged.len() < 2 {
        return None;
    }
    for i in 0..merged.len() {
        for j in 0..merged.len() {
            if i == j {
                continue;
            }
            let (alo, ahi) = (merged[i][0], *merged[i].last().unwrap());
            let (blo, bhi) = (merged[j][0], *merged[j].last().unwrap());
            if !(ahi < blo || bhi < alo) {
                return None;
            }
        }
    }
    let covers: Vec<Prefix> = merged.iter().map(|g| naive_cover(g)).collect();
    for (i, cover) in covers.iter().enumerate() {
        for (j, members) in merged.iter().enumerate() {
            if i != j && members.iter().any(|&a| cover.contains(a)) {
                return None;
            }
        }
    }
    let mut sorted = covers;
    sorted.sort_by_key(|p| (p.base(), p.len()));
    Some(sorted)
}

/// The early-termination test the classifier applies after each resolved
/// destination, recomputed naively over an evidence prefix. The confidence
/// table is indexed by the *unmerged* cardinality, the number of distinct
/// last-hop interfaces.
pub fn naive_early_verdict(per_dest: &[Obs], table: &ConfidenceTable) -> Option<Classification> {
    match naive_relationship(per_dest) {
        Relationship::NonHierarchical => Some(Classification::NonHierarchical),
        Relationship::SingleGroup => {
            (per_dest.len() >= SAME_LASTHOP_MIN).then_some(Classification::SameLasthop)
        }
        Relationship::Hierarchical => {
            match table.required_probes(naive_lasthop_set(per_dest).len()) {
                Some(required) if per_dest.len() >= required => Some(Classification::Hierarchical),
                _ => None,
            }
        }
    }
}

/// The oracle's reading of one finished measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleVerdict {
    /// The classification the evidence supports.
    pub classification: Classification,
    /// `Some((k, v))` when the early-termination test already fired at
    /// evidence prefix `k < len`: correct production code stops probing the
    /// moment a verdict exists, so its recorded `per_dest` can never extend
    /// past the first firing. A premature stop here means the production
    /// classifier kept probing after it should have concluded `v`.
    pub premature: Option<(usize, Classification)>,
}

/// Replay the classifier's decision process over a measurement's recorded
/// evidence, naively.
///
/// `per_dest` is recorded in resolution order (first pass, then targeted
/// reprobes), and production re-tests the grouping after every resolution —
/// so replaying each prefix of `per_dest` reproduces exactly the decision
/// points the production classifier saw. The anonymous count and the
/// [`MIN_ACTIVE`] fallback come from the measurement's own counters.
pub fn replay_verdict(m: &BlockMeasurement, table: &ConfidenceTable) -> OracleVerdict {
    let per_dest = &m.per_dest;
    let mut premature = None;
    for k in 1..per_dest.len() {
        if let Some(v) = naive_early_verdict(&per_dest[..k], table) {
            premature = Some((k, v));
            break;
        }
    }
    let classification = match naive_early_verdict(per_dest, table) {
        Some(v) => v,
        // Probing exhausted every destination without an early verdict.
        None => {
            if per_dest.len() < MIN_ACTIVE {
                if m.dests_anonymous >= MIN_ACTIVE {
                    Classification::UnresponsiveLasthop
                } else {
                    Classification::TooFewActive
                }
            } else {
                match naive_relationship(per_dest) {
                    Relationship::NonHierarchical => Classification::NonHierarchical,
                    Relationship::SingleGroup => {
                        if per_dest.len() >= SAME_LASTHOP_MIN {
                            Classification::SameLasthop
                        } else {
                            Classification::TooFewActive
                        }
                    }
                    Relationship::Hierarchical => {
                        match table.required_probes(naive_lasthop_set(per_dest).len()) {
                            Some(required) if per_dest.len() < required => {
                                Classification::TooFewActive
                            }
                            _ => Classification::Hierarchical,
                        }
                    }
                }
            }
        }
    };
    OracleVerdict {
        classification,
        premature,
    }
}

/// Naive identical-set aggregation: for each homogeneous block, linearly
/// search the aggregates built so far for one whose last-hop set is
/// set-equal, else open a new one. Output is normalized to the production
/// presentation order (largest first, ties by member blocks, then by
/// last-hop set) so the two can be compared directly.
pub fn naive_aggregate(blocks: &[(Block24, Vec<Addr>)]) -> Vec<(Vec<Addr>, Vec<Block24>)> {
    let mut aggs: Vec<(Vec<Addr>, Vec<Block24>)> = Vec::new();
    for (block, lasthops) in blocks {
        let mut set = lasthops.clone();
        insertion_sort(&mut set);
        dedup_sorted(&mut set);
        if set.is_empty() {
            continue;
        }
        match aggs.iter_mut().find(|(s, _)| *s == set) {
            Some((_, members)) => {
                if !members.contains(block) {
                    members.push(*block);
                }
            }
            None => aggs.push((set, vec![*block])),
        }
    }
    for (_, members) in aggs.iter_mut() {
        insertion_sort(members);
    }
    aggs.sort_by(|a, b| {
        b.1.len()
            .cmp(&a.1.len())
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.0.cmp(&b.0))
    });
    aggs
}

/// Naive similarity edges over last-hop sets: every pair `i < j` that
/// shares an interface, weighted by the shared count over the larger set
/// (paper §6.3), found by linear `contains` scans over all pairs.
pub fn naive_similarity_edges(sets: &[Vec<Addr>]) -> Vec<(u32, u32, f64)> {
    let mut edges = Vec::new();
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            let shared = sets[i].iter().filter(|a| sets[j].contains(a)).count();
            if shared > 0 {
                let larger = sets[i].len().max(sets[j].len());
                edges.push((i as u32, j as u32, shared as f64 / larger as f64));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobbit::BlockTable;

    fn lh(n: u32) -> Addr {
        Addr(0x0A00_0000 + n)
    }

    fn d(h: u8) -> Addr {
        Addr::new(192, 0, 2, h)
    }

    fn obs(pairs: &[(u8, &[u32])]) -> Vec<Obs> {
        pairs
            .iter()
            .map(|&(h, lhs)| (d(h), lhs.iter().map(|&n| lh(n)).collect()))
            .collect()
    }

    /// The naive grouping agrees with the production `BlockTable` on a
    /// spread of shapes, including transitive merges.
    #[test]
    fn grouping_matches_production() {
        // Figures 2(a)–2(c) first, then merges.
        let cases: Vec<Vec<Obs>> = vec![
            obs(&[(2, &[1]), (126, &[1]), (130, &[2]), (237, &[2])]),
            obs(&[(2, &[1]), (237, &[1]), (126, &[2]), (130, &[2])]),
            obs(&[(2, &[1]), (130, &[1]), (126, &[2]), (237, &[2])]),
            obs(&[(2, &[1, 2]), (200, &[2, 3])]),
            obs(&[(2, &[1]), (100, &[1, 2]), (200, &[2])]),
            obs(&[(10, &[5]), (20, &[5]), (30, &[5])]),
            obs(&[]),
        ];
        use Relationship::{Hierarchical, NonHierarchical};
        for (per_dest, figure) in cases
            .iter()
            .zip([Hierarchical, Hierarchical, NonHierarchical])
        {
            assert_eq!(naive_relationship(per_dest), figure);
        }
        for per_dest in cases {
            let prod =
                BlockTable::from_observations(per_dest.iter().map(|(a, l)| (*a, l.as_slice())));
            let mut prod_merged = prod.merged_members();
            prod_merged.sort_by_key(|g| g.first().copied());
            assert_eq!(naive_merged_groups(&per_dest), prod_merged);
            assert_eq!(naive_relationship(&per_dest), prod.relationship());
            assert_eq!(
                naive_disjoint_aligned(&per_dest),
                prod.disjoint_and_aligned()
            );
        }
    }

    #[test]
    fn interleaved_ranges_are_non_hierarchical() {
        let per_dest = obs(&[(2, &[1]), (130, &[1]), (126, &[2]), (237, &[2])]);
        assert_eq!(naive_relationship(&per_dest), Relationship::NonHierarchical);
    }

    #[test]
    fn aligned_split_detected_naively() {
        let per_dest = obs(&[(2, &[1]), (125, &[1]), (129, &[2]), (254, &[2])]);
        let covers = naive_disjoint_aligned(&per_dest).expect("aligned /25 split");
        assert_eq!(covers.len(), 2);
        assert_eq!(covers[0].to_string(), "192.0.2.0/25");
        assert_eq!(covers[1].to_string(), "192.0.2.128/25");
    }

    #[test]
    fn lasthop_set_is_sorted_and_deduped() {
        let per_dest = obs(&[(2, &[3, 1]), (4, &[1, 2])]);
        assert_eq!(naive_lasthop_set(&per_dest), vec![lh(1), lh(2), lh(3)]);
    }

    #[test]
    fn naive_aggregate_matches_production() {
        use aggregate::{aggregate_identical, HomogBlock};
        let blocks: Vec<(Block24, Vec<Addr>)> = vec![
            (Block24(1), vec![lh(1), lh(2)]),
            (Block24(2), vec![lh(2), lh(1)]),
            (Block24(3), vec![lh(1)]),
            (Block24(4), vec![lh(1), lh(2), lh(3)]),
            (Block24(5), vec![]),
            // One /24 twice with different sets: two size-1 aggregates
            // with equal members, ordered by last-hop set.
            (Block24(6), vec![lh(3)]),
            (Block24(6), vec![lh(2)]),
        ];
        let prod: Vec<(Vec<Addr>, Vec<Block24>)> = aggregate_identical(
            &blocks
                .iter()
                .map(|(b, l)| HomogBlock::new(*b, l.clone()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|a| (a.lasthops, a.blocks))
        .collect();
        assert_eq!(naive_aggregate(&blocks), prod);
    }

    #[test]
    fn replay_same_lasthop_needs_six() {
        let mut m = BlockMeasurement {
            block: Block24(0x0C_0000),
            classification: Classification::SameLasthop,
            lasthop_set: vec![lh(1)],
            per_dest: obs(&[
                (1, &[1]),
                (70, &[1]),
                (130, &[1]),
                (200, &[1]),
                (10, &[1]),
                (80, &[1]),
            ]),
            dests_probed: 6,
            dests_resolved: 6,
            dests_anonymous: 0,
            dests_unresolved: 0,
            reprobes: 0,
            probes_used: 60,
            dest_epochs: vec![],
        };
        let table = ConfidenceTable::empty();
        let v = replay_verdict(&m, &table);
        assert_eq!(v.classification, Classification::SameLasthop);
        assert_eq!(v.premature, None, "verdict fires exactly at the 6th");
        // With one extra recorded destination the stop was premature.
        m.per_dest.push((d(90), vec![lh(1)]));
        let v = replay_verdict(&m, &table);
        assert_eq!(v.premature, Some((6, Classification::SameLasthop)));
    }

    #[test]
    fn replay_fallbacks() {
        let table = ConfidenceTable::empty();
        let base = BlockMeasurement {
            block: Block24(0x0C_0000),
            classification: Classification::TooFewActive,
            lasthop_set: vec![],
            per_dest: vec![],
            dests_probed: 8,
            dests_resolved: 0,
            dests_anonymous: 0,
            dests_unresolved: 8,
            reprobes: 0,
            probes_used: 8,
            dest_epochs: vec![],
        };
        // Nothing resolved, nothing anonymous: too few active.
        assert_eq!(
            replay_verdict(&base, &table).classification,
            Classification::TooFewActive
        );
        // Nothing resolved but plenty of anonymous echoes: unresponsive LH.
        let m = BlockMeasurement {
            dests_anonymous: 5,
            dests_unresolved: 3,
            ..base.clone()
        };
        assert_eq!(
            replay_verdict(&m, &table).classification,
            Classification::UnresponsiveLasthop
        );
        // Hierarchical split with an empty table: verdict at exhaustion.
        let m = BlockMeasurement {
            per_dest: obs(&[(1, &[1]), (50, &[1]), (130, &[2]), (200, &[2])]),
            dests_resolved: 4,
            dests_unresolved: 4,
            ..base
        };
        assert_eq!(
            replay_verdict(&m, &table).classification,
            Classification::Hierarchical
        );
    }
}
