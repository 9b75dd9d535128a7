//! The pre-flat-layout kernels, preserved verbatim.
//!
//! The production hot path now runs over dense per-/24 tables, interned
//! router ids, and 256-bit member bitsets (`hobbit::layout`). This module
//! keeps the `BTreeMap`/`HashMap` implementations they replaced for one
//! consumer, the differential property tests of `tests/prop_flat.rs`: the
//! flat kernels must be extensionally equal to these on arbitrary
//! scenarios, independently of the deliberately-naive
//! [`oracle`](crate::oracle) implementations.

use hobbit::{Classification, ConfidenceTable, Relationship, SAME_LASTHOP_MIN};
use netsim::{Addr, Block24, Prefix};
use std::collections::{BTreeMap, HashMap};

/// Addresses grouped by last-hop router — the old `hobbit::LasthopGroups`,
/// one `BTreeMap` keyed by router with sorted member `Vec`s.
#[derive(Clone, Debug, Default)]
pub struct BaselineGroups {
    groups: BTreeMap<Addr, Vec<Addr>>,
}

impl BaselineGroups {
    /// Build groups from per-destination last-hop observations.
    pub fn build<'a, I>(observations: I) -> Self
    where
        I: IntoIterator<Item = (Addr, &'a [Addr])>,
    {
        let mut groups: BTreeMap<Addr, Vec<Addr>> = BTreeMap::new();
        for (dst, lasthops) in observations {
            for &lh in lasthops {
                groups.entry(lh).or_default().push(dst);
            }
        }
        for members in groups.values_mut() {
            members.sort();
            members.dedup();
        }
        BaselineGroups { groups }
    }

    /// Number of distinct last-hop routers (unmerged cardinality).
    pub fn cardinality(&self) -> usize {
        self.groups.len()
    }

    /// The distinct last-hop routers, ascending.
    pub fn lasthops(&self) -> impl Iterator<Item = Addr> + '_ {
        self.groups.keys().copied()
    }

    /// Merge groups that share a member address (transitively).
    #[allow(clippy::needless_range_loop)] // index loops pair i with find(i)
    pub fn merged_members(&self) -> Vec<Vec<Addr>> {
        let groups: Vec<&Vec<Addr>> = self.groups.values().collect();
        let n = groups.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for i in 0..n {
            for j in 0..i {
                if shares_member(groups[i], groups[j]) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut merged: BTreeMap<usize, Vec<Addr>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            merged
                .entry(root)
                .or_default()
                .extend(groups[i].iter().copied());
        }
        merged
            .into_values()
            .map(|mut v| {
                v.sort();
                v.dedup();
                v
            })
            .collect()
    }

    /// The range-relationship test over the merged groups.
    pub fn relationship(&self) -> Relationship {
        let merged = self.merged_members();
        if merged.len() <= 1 {
            return Relationship::SingleGroup;
        }
        let ranges: Vec<(Addr, Addr)> = merged
            .iter()
            .map(|v| (*v.first().unwrap(), *v.last().unwrap()))
            .collect();
        for i in 0..ranges.len() {
            for j in 0..i {
                let (alo, ahi) = ranges[i];
                let (blo, bhi) = ranges[j];
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

    /// The Section 4.2 disjoint-and-aligned criteria over member lists.
    pub fn disjoint_and_aligned(&self) -> Option<Vec<Prefix>> {
        let merged = self.merged_members();
        if merged.len() < 2 {
            return None;
        }
        let ranges: Vec<(Addr, Addr)> = merged
            .iter()
            .map(|v| (*v.first().unwrap(), *v.last().unwrap()))
            .collect();
        for i in 0..ranges.len() {
            for j in 0..i {
                let (alo, ahi) = ranges[i];
                let (blo, bhi) = ranges[j];
                if !(ahi < blo || bhi < alo) {
                    return None;
                }
            }
        }
        let covers: Vec<Prefix> = merged
            .iter()
            .map(|v| Prefix::covering(v).expect("non-empty group"))
            .collect();
        for (i, cover) in covers.iter().enumerate() {
            for (j, members) in merged.iter().enumerate() {
                if i == j {
                    continue;
                }
                if members.iter().any(|&a| cover.contains(a)) {
                    return None;
                }
            }
        }
        let mut sorted = covers;
        sorted.sort_by_key(|p| (p.base(), p.len()));
        Some(sorted)
    }
}

/// Whether two sorted member lists share an address.
fn shares_member(a: &[Addr], b: &[Addr]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The old per-resolution early-termination test: rebuild the full
/// `BTreeMap` grouping from scratch and re-derive the verdict — exactly
/// what the classifier did before the incremental [`hobbit::BlockTable`].
pub fn baseline_early_verdict(
    per_dest: &[(Addr, Vec<Addr>)],
    table: &ConfidenceTable,
) -> Option<Classification> {
    let groups = BaselineGroups::build(per_dest.iter().map(|(a, l)| (*a, l.as_slice())));
    match groups.relationship() {
        Relationship::NonHierarchical => Some(Classification::NonHierarchical),
        Relationship::SingleGroup => {
            (per_dest.len() >= SAME_LASTHOP_MIN).then_some(Classification::SameLasthop)
        }
        Relationship::Hierarchical => match table.required_probes(groups.cardinality()) {
            Some(required) if per_dest.len() >= required => Some(Classification::Hierarchical),
            _ => None,
        },
    }
}

/// The old hash-indexed similarity edge construction over last-hop sets
/// (each set sorted and deduplicated).
pub fn baseline_similarity_edges(sets: &[Vec<Addr>]) -> Vec<(u32, u32, f64)> {
    let mut by_lasthop: HashMap<Addr, Vec<u32>> = HashMap::new();
    for (i, set) in sets.iter().enumerate() {
        for &lh in set {
            by_lasthop.entry(lh).or_default().push(i as u32);
        }
    }
    let mut pairs: HashMap<(u32, u32), ()> = HashMap::new();
    for members in by_lasthop.values() {
        for i in 0..members.len() {
            for j in 0..i {
                let (a, b) = (members[j].min(members[i]), members[j].max(members[i]));
                pairs.insert((a, b), ());
            }
        }
    }
    let mut edges: Vec<(u32, u32, f64)> = pairs
        .into_keys()
        .map(|(i, j)| {
            (
                i,
                j,
                aggregate::similarity(&sets[i as usize], &sets[j as usize]),
            )
        })
        .filter(|&(_, _, w)| w > 0.0)
        .collect();
    edges.sort_by_key(|&(i, j, _)| (i, j));
    edges
}

/// The old `BTreeMap`-keyed identical-set aggregation, returning
/// `(lasthop set, member blocks)` in the production presentation order.
pub fn baseline_aggregate_identical(
    blocks: &[(Block24, Vec<Addr>)],
) -> Vec<(Vec<Addr>, Vec<Block24>)> {
    let mut by_set: BTreeMap<&[Addr], Vec<Block24>> = BTreeMap::new();
    for (block, lasthops) in blocks {
        if lasthops.is_empty() {
            continue;
        }
        by_set.entry(lasthops).or_default().push(*block);
    }
    let mut out: Vec<(Vec<Addr>, Vec<Block24>)> = by_set
        .into_iter()
        .map(|(set, mut member)| {
            member.sort();
            member.dedup();
            (set.to_vec(), member)
        })
        .collect();
    out.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.1.cmp(&b.1)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lh(n: u32) -> Addr {
        Addr(0x0A00_0000 + n)
    }

    fn d(h: u8) -> Addr {
        Addr::new(192, 0, 2, h)
    }

    #[test]
    fn baseline_reproduces_paper_figures() {
        let obs = |pairs: &[(u8, &[u32])]| -> Vec<(Addr, Vec<Addr>)> {
            pairs
                .iter()
                .map(|&(h, ls)| (d(h), ls.iter().map(|&n| lh(n)).collect()))
                .collect()
        };
        let rel = |o: &[(Addr, Vec<Addr>)]| {
            BaselineGroups::build(o.iter().map(|(a, l)| (*a, l.as_slice()))).relationship()
        };
        // Figures 2(a)–2(c).
        let a = obs(&[(2, &[1]), (126, &[1]), (130, &[2]), (237, &[2])]);
        assert_eq!(rel(&a), Relationship::Hierarchical);
        let b = obs(&[(2, &[1]), (237, &[1]), (126, &[2]), (130, &[2])]);
        assert_eq!(rel(&b), Relationship::Hierarchical);
        let c = obs(&[(2, &[1]), (130, &[1]), (126, &[2]), (237, &[2])]);
        assert_eq!(rel(&c), Relationship::NonHierarchical);
    }

    #[test]
    fn baseline_similarity_matches_shape() {
        let sets = vec![vec![lh(1), lh(2)], vec![lh(2), lh(3)], vec![lh(9)]];
        let edges = baseline_similarity_edges(&sets);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].0, edges[0].1), (0, 1));
    }
}
