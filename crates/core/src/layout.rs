//! Flat hot-path data layout for per-/24 measurement kernels.
//!
//! A /24 has at most 256 addresses, so everything the classifier re-tests
//! after each resolved destination — last-hop grouping, range overlap,
//! member sharing — fits in fixed-width bitsets: a [`HostSet`] is four
//! `u64` words covering the 256 host offsets of one block, and set algebra
//! (intersection, union, popcount, min/max member) is branch-free word
//! arithmetic instead of `BTreeMap` walks.
//!
//! Two structures make up the layout:
//!
//! * [`BlockTable`] — the dense per-block observation table classify and
//!   hetero run over: a small first-seen-order router table with one
//!   [`HostSet`] of member hosts per router. Routers are block-local
//!   (a handful per /24), so "interning" a router is a linear scan over a
//!   short `Vec` — faster than any hash for these sizes.
//! * [`RouterInterner`] — the per-run router-id space the aggregation
//!   phase shares: every distinct last-hop router maps to a dense `u32`,
//!   assigned in ascending address order so that sorted id vectors
//!   correspond exactly to sorted address vectors (the mapping is
//!   monotone). Set similarity and identical-set grouping then run over
//!   `u32` ids instead of 32-bit addresses boxed in `Vec<Addr>` trees.

use netsim::{Addr, Block24};

/// Number of `u64` words in a [`HostSet`].
pub const HOST_WORDS: usize = 4;

/// A fixed-width bitset over the 256 host offsets of one /24.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostSet {
    words: [u64; HOST_WORDS],
}

impl HostSet {
    /// The empty set.
    pub const EMPTY: HostSet = HostSet {
        words: [0; HOST_WORDS],
    };

    /// Insert a host offset.
    #[inline]
    pub fn insert(&mut self, host: u8) {
        self.words[(host >> 6) as usize] |= 1u64 << (host & 63);
    }

    /// Whether the host offset is present.
    #[inline]
    pub fn contains(&self, host: u8) -> bool {
        self.words[(host >> 6) as usize] & (1u64 << (host & 63)) != 0
    }

    /// Whether no host is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of hosts present (branch-free popcount over the four words).
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Smallest host present, or `None` for the empty set.
    #[inline]
    pub fn min(&self) -> Option<u8> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i as u32 * 64 + w.trailing_zeros()) as u8);
            }
        }
        None
    }

    /// Largest host present, or `None` for the empty set.
    #[inline]
    pub fn max(&self) -> Option<u8> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some((i as u32 * 64 + 63 - w.leading_zeros()) as u8);
            }
        }
        None
    }

    /// Whether the two sets share a host — one AND/OR pass, no branches
    /// per element.
    #[inline]
    pub fn intersects(&self, other: &HostSet) -> bool {
        (self.words[0] & other.words[0])
            | (self.words[1] & other.words[1])
            | (self.words[2] & other.words[2])
            | (self.words[3] & other.words[3])
            != 0
    }

    /// `|self ∩ other|` via word-wise AND + popcount.
    #[inline]
    pub fn intersection_count(&self, other: &HostSet) -> u32 {
        (self.words[0] & other.words[0]).count_ones()
            + (self.words[1] & other.words[1]).count_ones()
            + (self.words[2] & other.words[2]).count_ones()
            + (self.words[3] & other.words[3]).count_ones()
    }

    /// Merge `other` into this set.
    #[inline]
    pub fn union_with(&mut self, other: &HostSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// The set of every host in `lo..=hi`. An inverted range (`lo > hi`)
    /// denotes the empty set, mirroring `lo..=hi` iteration semantics.
    pub fn range(lo: u8, hi: u8) -> HostSet {
        let mut s = HostSet::EMPTY;
        if lo > hi {
            return s;
        }
        for (i, w) in s.words.iter_mut().enumerate() {
            let word_lo = (i as u16) * 64;
            let word_hi = word_lo + 63;
            if (hi as u16) < word_lo || (lo as u16) > word_hi {
                continue;
            }
            let a = (lo as u16).max(word_lo) - word_lo;
            let b = (hi as u16).min(word_hi) - word_lo;
            let span = b - a + 1;
            *w = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << a
            };
        }
        s
    }

    /// Iterate the hosts present, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((i as u32 * 64 + bit) as u8)
            })
        })
    }
}

/// The per-run router-id space: every distinct last-hop router address maps
/// to a dense `u32` id.
///
/// Built with [`RouterInterner::build`], ids are assigned in ascending
/// address order — the mapping is *monotone*, so a sorted vector of ids
/// corresponds position-for-position to the sorted vector of addresses it
/// came from, and every ordering/equality computed over ids equals the one
/// computed over addresses.
#[derive(Clone, Debug, Default)]
pub struct RouterInterner {
    /// id → address, in id order.
    addrs: Vec<Addr>,
    /// Lookup index sorted by address.
    index: Vec<(Addr, u32)>,
}

impl RouterInterner {
    /// Intern every address the iterator yields, assigning ids in
    /// ascending address order (the monotone construction).
    pub fn build(addrs: impl IntoIterator<Item = Addr>) -> Self {
        let mut v: Vec<Addr> = addrs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let index = v.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect();
        RouterInterner { addrs: v, index }
    }

    /// The id of an already-interned address.
    pub fn id(&self, addr: Addr) -> Option<u32> {
        self.index
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|pos| self.index[pos].1)
    }

    /// The address behind an id.
    ///
    /// # Panics
    /// Panics if the id was never assigned.
    pub fn addr(&self, id: u32) -> Addr {
        self.addrs[id as usize]
    }

    /// Number of interned routers (the id space width).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Map a slice of already-interned addresses to ids. With the monotone
    /// construction a sorted input yields a sorted output.
    ///
    /// # Panics
    /// Panics if an address was never interned.
    pub fn ids(&self, addrs: &[Addr]) -> Vec<u32> {
        addrs
            .iter()
            .map(|&a| self.id(a).expect("address was interned"))
            .collect()
    }
}

/// `|a ∩ b|` for two sorted, deduplicated id slices — the merge kernel
/// similarity scoring runs on.
#[inline]
pub fn intersect_count_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // Branch-light merge: each comparison advances at least one side.
        n += (x == y) as usize;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    n
}

/// The dense per-block observation table: destinations of one /24 grouped
/// by last-hop router, each group a [`HostSet`] of member host offsets.
///
/// This is the structure the classifier re-tests after every resolved
/// destination (see `hierarchy` for the relationship test itself), and the
/// one `hetero` reads the sub-block composition from.
///
/// ```
/// use hobbit::{BlockTable, Relationship};
/// use netsim::Addr;
///
/// // Paper Figure 2(c): interleaved ranges can only come from load
/// // balancing, so the /24 is homogeneous.
/// let x = Addr::new(10, 0, 0, 1); // router X
/// let y = Addr::new(10, 0, 0, 2); // router Y
/// let d = |h| Addr::new(192, 0, 2, h);
/// let obs = [
///     (d(2),   vec![x]),
///     (d(126), vec![y]),
///     (d(130), vec![x]),
///     (d(237), vec![y]),
/// ];
/// let table = BlockTable::from_observations(obs.iter().map(|(a, l)| (*a, l.as_slice())));
/// assert_eq!(table.relationship(), Relationship::NonHierarchical);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlockTable {
    /// The block every destination belongs to (set by the first add).
    block: Option<Block24>,
    /// Block-local router table, first-seen order. A /24 sees a handful of
    /// last-hop routers, so linear scans beat hashing here.
    routers: Vec<Addr>,
    /// Parallel to `routers`: the member hosts of each router's group.
    members: Vec<HostSet>,
    /// Union of all groups: hosts with at least one resolved last-hop.
    observed: HostSet,
}

impl BlockTable {
    /// An empty table pinned to `block`.
    pub fn new(block: Block24) -> Self {
        BlockTable {
            block: Some(block),
            ..Default::default()
        }
    }

    /// Build a table from per-destination last-hop observations. The block
    /// is inferred from the first destination; all destinations must lie in
    /// one /24 (the unit the paper measures).
    pub fn from_observations<'a, I>(observations: I) -> Self
    where
        I: IntoIterator<Item = (Addr, &'a [Addr])>,
    {
        let mut t = BlockTable::default();
        for (dst, lasthops) in observations {
            t.add(dst, lasthops);
        }
        t
    }

    /// Record one resolved destination and its last-hop routers.
    pub fn add(&mut self, dst: Addr, lasthops: &[Addr]) {
        let block = *self.block.get_or_insert_with(|| dst.block24());
        debug_assert_eq!(dst.block24(), block, "destinations span one /24");
        if lasthops.is_empty() {
            return;
        }
        let host = dst.host24();
        self.observed.insert(host);
        for &lh in lasthops {
            match self.routers.iter().position(|&r| r == lh) {
                Some(i) => self.members[i].insert(host),
                None => {
                    self.routers.push(lh);
                    let mut set = HostSet::EMPTY;
                    set.insert(host);
                    self.members.push(set);
                }
            }
        }
    }

    /// The block the table observes (`None` until something was added).
    pub fn block(&self) -> Option<Block24> {
        self.block
    }

    /// Number of distinct last-hop routers (the /24's last-hop cardinality,
    /// *before* ECMP merging — what the confidence table is indexed by).
    pub fn cardinality(&self) -> usize {
        self.routers.len()
    }

    /// The distinct last-hop routers, ascending.
    pub fn lasthop_set(&self) -> Vec<Addr> {
        let mut v = self.routers.clone();
        v.sort_unstable();
        v
    }

    /// Hosts with at least one resolved last-hop.
    pub fn observed(&self) -> &HostSet {
        &self.observed
    }

    /// The raw (unmerged) groups: each router with its member host set.
    pub fn groups(&self) -> impl Iterator<Item = (Addr, &HostSet)> + '_ {
        self.routers.iter().copied().zip(self.members.iter())
    }

    /// Merge groups that share a member host (transitively) and return the
    /// merged host sets.
    ///
    /// Longest-prefix matching assigns each address to exactly one route
    /// entry, so two last-hop routers serving the same destination must be
    /// one entry's ECMP set: for the purpose of the route-entry hierarchy
    /// test they are a single group. Sharing is a bitset intersection,
    /// merging a bitset union — no per-member work at all.
    pub fn merged_host_sets(&self) -> Vec<HostSet> {
        let n = self.members.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            // Path compression.
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for i in 0..n {
            for j in 0..i {
                if self.members[i].intersects(&self.members[j]) {
                    let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                    if ri != rj {
                        parent[ri as usize] = rj;
                    }
                }
            }
        }
        let mut merged: Vec<(u32, HostSet)> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i as u32);
            match merged.iter_mut().find(|(r, _)| *r == root) {
                Some((_, set)) => set.union_with(&self.members[i]),
                None => merged.push((root, self.members[i])),
            }
        }
        merged.into_iter().map(|(_, s)| s).collect()
    }

    /// The merged groups as sorted member-address lists (reconstructed from
    /// the host bitsets; groups ordered by smallest member).
    pub fn merged_members(&self) -> Vec<Vec<Addr>> {
        let block = match self.block {
            Some(b) => b,
            None => return Vec::new(),
        };
        let mut out: Vec<Vec<Addr>> = self
            .merged_host_sets()
            .iter()
            .map(|set| set.iter().map(|h| block.addr(h)).collect())
            .collect();
        out.sort_by_key(|g| g.first().copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostset_algebra() {
        let mut a = HostSet::EMPTY;
        assert!(a.is_empty());
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        for h in [0u8, 63, 64, 127, 128, 255] {
            a.insert(h);
        }
        assert_eq!(a.count(), 6);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(255));
        assert!(a.contains(127));
        assert!(!a.contains(126));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 255]);

        let mut b = HostSet::EMPTY;
        b.insert(127);
        b.insert(200);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 1);
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.count(), 7);
    }

    #[test]
    fn hostset_range_masks() {
        assert_eq!(HostSet::range(0, 255).count(), 256);
        let r = HostSet::range(60, 70);
        assert_eq!(r.count(), 11);
        assert_eq!(r.min(), Some(60));
        assert_eq!(r.max(), Some(70));
        assert_eq!(HostSet::range(5, 5).iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(HostSet::range(64, 127).count(), 64);
    }

    #[test]
    fn hostset_range_inverted_is_empty() {
        // `lo > hi` is the empty set, like `lo..=hi` iteration — not a
        // word-loop underflow.
        assert_eq!(HostSet::range(1, 0), HostSet::EMPTY);
        assert_eq!(HostSet::range(255, 0), HostSet::EMPTY);
        assert_eq!(HostSet::range(70, 60).count(), 0);
        assert_eq!(HostSet::range(128, 127).min(), None);
        // The boundary case on either side of an inversion still works.
        assert_eq!(HostSet::range(200, 200).count(), 1);
        assert_eq!(HostSet::range(201, 200).count(), 0);
    }

    #[test]
    fn interner_is_monotone_over_build_set() {
        let a = |n: u32| Addr(0x0A00_0000 + n);
        let it = RouterInterner::build([a(9), a(3), a(7), a(3)]);
        assert_eq!(it.len(), 3);
        assert_eq!(it.id(a(3)), Some(0));
        assert_eq!(it.id(a(7)), Some(1));
        assert_eq!(it.id(a(9)), Some(2));
        assert_eq!(it.addr(1), a(7));
        assert_eq!(it.id(a(4)), None);
        assert_eq!(it.ids(&[a(3), a(9)]), vec![0, 2]);
    }

    #[test]
    fn intersect_count_merges() {
        assert_eq!(intersect_count_sorted(&[1, 2, 3], &[3, 4]), 1);
        assert_eq!(intersect_count_sorted(&[], &[1]), 0);
        assert_eq!(intersect_count_sorted(&[5, 7, 9], &[5, 7, 9]), 3);
        assert_eq!(intersect_count_sorted(&[1, 4], &[2, 3, 5]), 0);
    }

    #[test]
    fn table_groups_and_merges() {
        let block = Block24(0x0A_0102);
        let lh = |n: u32| Addr(0x0B00_0000 + n);
        let mut t = BlockTable::new(block);
        t.add(block.addr(2), &[lh(1)]);
        t.add(block.addr(100), &[lh(1), lh(2)]);
        t.add(block.addr(200), &[lh(2)]);
        t.add(block.addr(50), &[]); // unresolved: not evidence
        assert_eq!(t.cardinality(), 2);
        assert_eq!(t.lasthop_set(), vec![lh(1), lh(2)]);
        assert_eq!(t.observed().count(), 3);
        // .100 behind both routers merges them into one ECMP group.
        let merged = t.merged_members();
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged[0],
            vec![block.addr(2), block.addr(50 + 50), block.addr(200)]
        );
    }
}
