//! Route tables with longest-prefix-match lookup and ECMP next-hop groups.
//!
//! Route entries are the heart of the paper's argument: entries for distinct
//! destination networks never partially overlap — every pair is either
//! disjoint or nested — so genuinely *heterogeneous* address groups inherit
//! that hierarchy, while load-balanced groups need not (Section 2.3).
//! The table enforces the prefix discipline; the ECMP groups produce the
//! load-balanced path diversity Hobbit must see through.

use crate::addr::{Addr, Prefix};
use crate::hash::{mix2, mix3};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Identifies a router in the simulated internet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// Where a matched route entry sends the packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NextHop {
    /// Forward to another router.
    Router(RouterId),
    /// The destination subnet is directly attached: deliver to the host.
    /// The router holding this entry is the destination's *last-hop router*.
    Deliver,
}

/// How an ECMP group spreads traffic over its next hops.
///
/// Mirrors the three flavours the paper distinguishes (Section 2):
/// per-flow (Paris-traceroute's target), per-destination (the confounder
/// Hobbit is built to handle), and per-packet (rare; included for
/// completeness and failure-injection tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Hash over (src, dst, protocol, first 4 bytes of transport header) —
    /// for ICMP, the type/code/checksum words, so Paris probes with a fixed
    /// checksum stick to one path.
    PerFlow,
    /// Hash over the destination address only.
    PerDestination,
    /// Hash over source and destination addresses. Some routers include the
    /// source (paper Section 6.1 cites Cisco CEF); for a fixed vantage point
    /// this behaves like `PerDestination`, but reprobing from a different
    /// source would see different paths.
    PerSrcDest,
    /// A fresh choice for every packet (hashes the IP ident field).
    PerPacket,
}

impl LbPolicy {
    /// Which of `n` next hops (`n >= 1`) a probe with `key` takes at a
    /// router salted `salt`: the one ECMP choice both
    /// [`NextHopGroup::select_among`] and the compiled forwarding plane
    /// make.
    #[inline]
    pub(crate) fn pick(self, key: &FlowKey, salt: u64, n: usize) -> usize {
        if n == 1 {
            return 0;
        }
        let h = match self {
            LbPolicy::PerFlow => mix3(
                salt,
                ((key.src.0 as u64) << 32) | key.dst.0 as u64,
                ((key.protocol as u64) << 16) | key.flow_label as u64,
            ),
            LbPolicy::PerDestination => mix2(salt, key.dst.0 as u64),
            LbPolicy::PerSrcDest => mix2(salt, ((key.src.0 as u64) << 32) | key.dst.0 as u64),
            LbPolicy::PerPacket => mix3(
                salt,
                ((key.src.0 as u64) << 32) | key.dst.0 as u64,
                key.ip_ident as u64,
            ),
        };
        crate::hash::pick(h, n)
    }
}

/// The fields of a probe that load balancers may hash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowKey {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// For ICMP: the checksum word a per-flow balancer hashes.
    pub flow_label: u16,
    /// IP identification field; only `PerPacket` policies consume it.
    pub ip_ident: u16,
}

/// An ECMP next-hop group: one or more next hops plus the hash policy that
/// selects among them.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NextHopGroup {
    hops: Vec<NextHop>,
    policy: LbPolicy,
}

impl NextHopGroup {
    /// A single, non-load-balanced next hop.
    pub fn single(hop: NextHop) -> Self {
        NextHopGroup {
            hops: vec![hop],
            policy: LbPolicy::PerFlow,
        }
    }

    /// An ECMP group.
    ///
    /// # Panics
    /// Panics if `hops` is empty.
    pub fn ecmp(hops: Vec<NextHop>, policy: LbPolicy) -> Self {
        assert!(!hops.is_empty(), "ECMP group must have at least one hop");
        NextHopGroup { hops, policy }
    }

    /// The hops in the group.
    pub fn hops(&self) -> &[NextHop] {
        &self.hops
    }

    /// The policy used to select a hop.
    pub fn policy(&self) -> LbPolicy {
        self.policy
    }

    /// Select the next hop for a flow. `salt` is per-router so distinct
    /// routers make independent choices for the same flow.
    pub fn select(&self, key: &FlowKey, salt: u64) -> NextHop {
        self.select_among(key, salt, self.hops.len())
    }

    /// [`NextHopGroup::select`] restricted to the group's first `width` next
    /// hops (clamped to `1..=hops.len()`). The dynamics layer models
    /// load-balancer reconfiguration — narrowing, collapsing, or re-widening
    /// an ECMP fan mid-campaign — through this clamp, without ever mutating
    /// a route table (tables stay immutable once probing starts).
    pub fn select_among(&self, key: &FlowKey, salt: u64, width: usize) -> NextHop {
        let n = width.clamp(1, self.hops.len());
        self.hops[self.policy.pick(key, salt, n)]
    }
}

/// A routing table: a set of (prefix → next-hop group) entries with
/// longest-prefix-match lookup through a sorted interval index.
///
/// Because every pair of CIDR prefixes is nested or disjoint, the longest
/// match is constant between consecutive prefix boundaries (a first
/// address, or one past a last address). The table therefore compiles to
/// the sorted starts of those intervals plus the entry each one resolves
/// to, and a lookup is one binary search over a few KB of `u32`s. The index
/// is compiled on the first lookup after an [`insert`](RouteTable::insert),
/// so building a world never pays for it and threads racing the first
/// lookup on a shared table compile it exactly once.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Installed entries, in insertion order (for iteration/inspection).
    entries: Vec<(Prefix, NextHopGroup)>,
    /// Indices into `entries`, sorted by `(base, len)`: parents before
    /// their descendants. Finds a duplicate prefix on insert and is the
    /// sweep order of the index compile.
    by_prefix: Vec<u32>,
    /// The compiled interval index; reset by every insert.
    index: OnceLock<IntervalIndex>,
}

/// `IntervalIndex::entry` value of an interval no route covers.
const NO_ROUTE: u32 = u32::MAX;

/// Sorted half-open address intervals, each resolving to one entry.
#[derive(Clone, Debug)]
struct IntervalIndex {
    /// Interval starts, strictly increasing; the first is always 0.
    starts: Vec<u32>,
    /// Per interval: the index into `entries` of its longest match, or
    /// [`NO_ROUTE`].
    entry: Vec<u32>,
}

impl IntervalIndex {
    /// Sweep the prefixes in `(base, len)` order with a stack of the ones
    /// still open: each prefix opens an interval at its first address, and
    /// each one closed at `last + 1` resumes its enclosing prefix.
    fn compile(entries: &[(Prefix, NextHopGroup)], by_prefix: &[u32]) -> Self {
        let mut index = IntervalIndex {
            starts: vec![0],
            entry: vec![NO_ROUTE],
        };
        // (last address, entry index) of each open prefix, innermost on top.
        let mut open: Vec<(u32, u32)> = Vec::new();
        for &i in by_prefix {
            let prefix = entries[i as usize].0;
            index.close_before(&mut open, prefix.first().0);
            open.push((prefix.last().0, i));
            index.push(prefix.first().0, i);
        }
        index.close_before(&mut open, u32::MAX);
        index
    }

    /// Close every open prefix that ends before `addr`. A prefix ending at
    /// `u32::MAX` is never closed, so `last + 1` cannot overflow.
    fn close_before(&mut self, open: &mut Vec<(u32, u32)>, addr: u32) {
        while let Some(&(last, _)) = open.last().filter(|(last, _)| *last < addr) {
            open.pop();
            self.push(last + 1, open.last().map_or(NO_ROUTE, |&(_, i)| i));
        }
    }

    /// Start an interval resolving to `entry` at `at`, replacing an
    /// interval that starts at the same address and merging into an equal
    /// predecessor.
    fn push(&mut self, at: u32, entry: u32) {
        if self.starts.last() == Some(&at) {
            self.starts.pop();
            self.entry.pop();
        }
        if self.entry.last() != Some(&entry) {
            self.starts.push(at);
            self.entry.push(entry);
        }
    }

    /// The index of the interval holding `addr`.
    fn interval_of(&self, addr: u32) -> usize {
        // `starts[0] == 0`, so the partition point is at least 1.
        self.starts.partition_point(|&s| s <= addr) - 1
    }

    /// The entry index of the longest match for `dst`, if any.
    fn lookup(&self, dst: Addr) -> Option<usize> {
        let entry = self.entry[self.interval_of(dst.0)];
        (entry != NO_ROUTE).then_some(entry as usize)
    }
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install a route. A second insert for the same prefix replaces the
    /// earlier group in place (like a route update).
    pub fn insert(&mut self, prefix: Prefix, group: NextHopGroup) {
        self.index.take();
        let key = |p: Prefix| (p.base().0, p.len());
        let entries = &self.entries;
        match self
            .by_prefix
            .binary_search_by_key(&key(prefix), |&i| key(entries[i as usize].0))
        {
            Ok(at) => self.entries[self.by_prefix[at] as usize] = (prefix, group),
            Err(at) => {
                self.by_prefix.insert(at, self.entries.len() as u32);
                self.entries.push((prefix, group));
            }
        }
    }

    /// The compiled interval index, compiled now if no lookup has yet.
    fn index(&self) -> &IntervalIndex {
        self.index
            .get_or_init(|| IntervalIndex::compile(&self.entries, &self.by_prefix))
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Addr) -> Option<(Prefix, &NextHopGroup)> {
        self.index().lookup(dst).map(|i| {
            let (p, ref g) = self.entries[i];
            (p, g)
        })
    }

    /// The longest matches across `first..=last`, in address order: the
    /// first address of each run of addresses that resolve alike (clipped
    /// to `first`) and the group they resolve to. This is how the compiled
    /// forwarding plane reads a table once per destination /24 instead of
    /// once per probe.
    pub(crate) fn resolve_range(
        &self,
        first: Addr,
        last: Addr,
    ) -> impl Iterator<Item = (Addr, Option<&NextHopGroup>)> + '_ {
        let index = self.index();
        let from = index.interval_of(first.0);
        let to = index.interval_of(last.0);
        (from..=to).map(move |i| {
            let group =
                (index.entry[i] != NO_ROUTE).then(|| &self.entries[index.entry[i] as usize].1);
            (Addr(index.starts[i].max(first.0)), group)
        })
    }

    /// Iterate over all installed entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(Prefix, NextHopGroup)> {
        self.entries.iter()
    }

    /// Reference LPM by linear scan; used by tests to cross-check the
    /// interval index.
    pub fn lookup_linear(&self, dst: Addr) -> Option<(Prefix, &NextHopGroup)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, g)| (*p, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(n: u32) -> NextHop {
        NextHop::Router(RouterId(n))
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut t = RouteTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHopGroup::single(hop(1)));
        t.insert("10.1.0.0/16".parse().unwrap(), NextHopGroup::single(hop(2)));
        t.insert("10.1.2.0/24".parse().unwrap(), NextHopGroup::single(hop(3)));

        let pick = |a: &str| {
            t.lookup(a.parse().unwrap())
                .map(|(_, g)| g.hops()[0])
                .unwrap()
        };
        assert_eq!(pick("10.9.9.9"), hop(1));
        assert_eq!(pick("10.1.9.9"), hop(2));
        assert_eq!(pick("10.1.2.9"), hop(3));
        assert!(t.lookup("11.0.0.0".parse().unwrap()).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = RouteTable::new();
        t.insert(Prefix::ALL, NextHopGroup::single(hop(9)));
        assert!(t.lookup(Addr::MIN).is_some());
        assert!(t.lookup(Addr::MAX).is_some());
    }

    /// Every entry's first and last address and both outside neighbours:
    /// the only places an interval boundary can be wrong.
    fn entry_edges(t: &RouteTable) -> Vec<Addr> {
        t.iter()
            .flat_map(|(p, _)| {
                let (first, last) = (p.first().0, p.last().0);
                [first, last, first.wrapping_sub(1), last.wrapping_add(1)]
            })
            .map(Addr)
            .collect()
    }

    fn assert_matches_linear(t: &RouteTable, addrs: &[Addr]) {
        for &a in addrs {
            assert_eq!(t.lookup(a), t.lookup_linear(a), "lookup of {a}");
        }
    }

    #[test]
    fn every_tiny_world_router_matches_linear_scan_at_entry_edges() {
        let s = crate::build::build(crate::build::ScenarioConfig::tiny(3));
        for i in 0..s.network.router_count() {
            let t = &s.network.router(RouterId(i as u32)).table;
            assert_matches_linear(t, &entry_edges(t));
        }
    }

    #[test]
    fn racing_first_lookups_agree_with_linear_scan() {
        let s = crate::build::build(crate::build::ScenarioConfig::tiny(4));
        let largest = (0..s.network.router_count())
            .map(|i| &s.network.router(RouterId(i as u32)).table)
            .max_by_key(|t| t.len())
            .unwrap();
        let mut fresh = RouteTable::new();
        for (p, g) in largest.iter() {
            fresh.insert(*p, g.clone());
        }
        assert!(fresh.index.get().is_none(), "no lookup has compiled it yet");
        let edges = entry_edges(&fresh);
        let workers = 4;
        let barrier = std::sync::Barrier::new(workers);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    barrier.wait();
                    assert_matches_linear(&fresh, &edges);
                });
            }
        });
    }

    #[test]
    fn clone_of_a_looked_up_network_forwards_identically() {
        use crate::forward::encode_probe;
        let s = crate::build::build(crate::build::ScenarioConfig::tiny(5));
        let net = &s.network;
        let probes: Vec<_> = net
            .allocated_blocks()
            .iter()
            .flat_map(|b| [b.addr(1), b.addr(77), b.addr(254)])
            .flat_map(|dst| (1..=12u8).map(move |ttl| (dst, ttl)))
            .collect();
        let send = |n: &crate::topology::Network, (dst, ttl): (Addr, u8)| {
            let probe = encode_probe(n.vantage_addr(), dst, ttl, 7, ttl as u16, 0x2222, 0);
            let d = n.send(probe).unwrap();
            (d.response.map(|r| r.to_vec()), d.rtt_us)
        };
        // Compile every index the probes reach, then clone.
        for &p in &probes {
            send(net, p);
        }
        let copy = net.clone();
        for &p in &probes {
            assert_eq!(send(&copy, p), send(net, p), "probe {p:?}");
        }
    }

    #[test]
    fn insert_replaces_same_prefix() {
        let mut t = RouteTable::new();
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        t.insert(p, NextHopGroup::single(hop(1)));
        t.insert(p, NextHopGroup::single(hop(2)));
        assert_eq!(t.len(), 1);
        let (_, g) = t.lookup(Addr::new(192, 0, 2, 5)).unwrap();
        assert_eq!(g.hops()[0], hop(2));
    }

    fn key(dst: Addr, flow: u16, ident: u16) -> FlowKey {
        FlowKey {
            src: Addr::new(1, 1, 1, 1),
            dst,
            protocol: 1,
            flow_label: flow,
            ip_ident: ident,
        }
    }

    #[test]
    fn per_flow_stable_for_fixed_flow() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3)], LbPolicy::PerFlow);
        let k = key(Addr::new(2, 2, 2, 2), 0xAAAA, 0);
        let first = g.select(&k, 7);
        for ident in 0..64 {
            assert_eq!(g.select(&key(k.dst, 0xAAAA, ident), 7), first);
        }
    }

    #[test]
    fn per_flow_varies_with_flow_label() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3), hop(4)], LbPolicy::PerFlow);
        let dst = Addr::new(2, 2, 2, 2);
        let mut seen = std::collections::HashSet::new();
        for flow in 0..256u16 {
            seen.insert(g.select(&key(dst, flow, 0), 7));
        }
        assert_eq!(
            seen.len(),
            4,
            "varying the flow label should reach all hops"
        );
    }

    #[test]
    fn per_destination_ignores_flow_label() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let dst = Addr::new(3, 3, 3, 3);
        let first = g.select(&key(dst, 0, 0), 7);
        for flow in 0..128u16 {
            assert_eq!(g.select(&key(dst, flow, flow), 7), first);
        }
    }

    #[test]
    fn per_destination_varies_with_destination() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let mut seen = std::collections::HashSet::new();
        for d in 0..64u32 {
            seen.insert(g.select(&key(Addr(0x0a000000 + d), 0, 0), 7));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn per_packet_varies_with_ident() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerPacket);
        let dst = Addr::new(4, 4, 4, 4);
        let mut seen = std::collections::HashSet::new();
        for ident in 0..64u16 {
            seen.insert(g.select(&key(dst, 0, ident), 7));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn salt_decorrelates_routers() {
        // Two routers with identical 2-way groups should not always agree;
        // otherwise multi-stage ECMP would not multiply path counts.
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let mut agree = 0;
        let n = 1000;
        for d in 0..n {
            let k = key(Addr(0x0B00_0000 + d), 0, 0);
            if g.select(&k, 1) == g.select(&k, 2) {
                agree += 1;
            }
        }
        assert!(
            (350..650).contains(&agree),
            "agreement {agree}/{n} not ~half"
        );
    }

    #[test]
    fn select_among_clamps_and_matches_full_width() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3)], LbPolicy::PerDestination);
        for d in 0..64u32 {
            let k = key(Addr(0x0a00_0000 + d), 0, 0);
            assert_eq!(g.select_among(&k, 7, 3), g.select(&k, 7));
            assert_eq!(g.select_among(&k, 7, 1), hop(1));
            assert_eq!(g.select_among(&k, 7, 0), hop(1), "width 0 clamps to 1");
            assert!([hop(1), hop(2)].contains(&g.select_among(&k, 7, 2)));
            assert_eq!(g.select_among(&k, 7, 9), g.select(&k, 7), "clamps to len");
        }
    }

    #[test]
    fn single_hop_group_ignores_everything() {
        let g = NextHopGroup::single(NextHop::Deliver);
        let k = key(Addr::new(5, 5, 5, 5), 9, 9);
        assert_eq!(g.select(&k, 1), NextHop::Deliver);
    }
}
