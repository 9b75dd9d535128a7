//! Property tests for the simulator substrate: LPM correctness, wire
//! roundtrips, and forwarding invariants.

use netsim::addr::{Addr, Prefix};
use netsim::build::{build, ScenarioConfig};
use netsim::forward::encode_probe;
use netsim::route::{NextHop, NextHopGroup, RouteTable, RouterId};
use netsim::wire::{IcmpEcho, Ipv4Header, ICMP_ECHO_REQUEST};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(base, len)| Prefix::new(Addr(base), len))
}

/// A family of nested prefixes: a random parent, then members that each
/// refine a random earlier member by up to 12 bits. Uniform random
/// prefixes rarely nest; route tables are mostly nesting.
fn arb_family() -> impl Strategy<Value = Vec<Prefix>> {
    let refinement = (any::<u32>(), any::<u32>(), 0u8..=12);
    (arb_prefix(), collection::vec(refinement, 0..10)).prop_map(|(parent, refinements)| {
        let mut family = vec![parent];
        for (pick, bits, extra) in refinements {
            let outer = family[pick as usize % family.len()];
            let host_bits = u32::MAX.checked_shr(outer.len().into()).unwrap_or(0);
            let base = outer.base().0 | (bits & host_bits);
            family.push(Prefix::new(Addr(base), (outer.len() + extra).min(32)));
        }
        family
    })
}

fn route(i: usize) -> NextHopGroup {
    NextHopGroup::single(NextHop::Router(RouterId(i as u32)))
}

/// Every entry's first and last address and both outside neighbours.
fn entry_edges(table: &RouteTable) -> Vec<Addr> {
    table
        .iter()
        .flat_map(|(p, _)| {
            let (first, last) = (p.first().0, p.last().0);
            [first, last, first.wrapping_sub(1), last.wrapping_add(1)]
        })
        .map(Addr)
        .collect()
}

proptest! {
    /// The interval index agrees with a brute-force linear scan — on
    /// random and nested prefixes, a default route and a /32, at random
    /// addresses and at every entry's edges — and stays exact when routes
    /// are inserted after it has been compiled.
    #[test]
    fn lookup_matches_linear_scan(
        loose in collection::vec(arb_prefix(), 0..20),
        families in collection::vec(arb_family(), 1..4),
        (with_default, host) in (any::<bool>(), any::<u32>()),
        lookups in collection::vec(any::<u32>(), 1..40),
        (late, dup) in (collection::vec(arb_prefix(), 1..6), any::<u32>()),
    ) {
        let mut prefixes = loose;
        prefixes.extend(families.into_iter().flatten());
        prefixes.push(Prefix::new(Addr(host), 32));
        if with_default {
            prefixes.push(Prefix::ALL);
        }
        let mut table = RouteTable::new();
        for (i, p) in prefixes.iter().enumerate() {
            table.insert(*p, route(i));
        }
        let distinct: std::collections::HashSet<Prefix> = prefixes.iter().copied().collect();
        prop_assert_eq!(table.len(), distinct.len());
        let check = |table: &RouteTable| {
            let addrs = lookups.iter().copied().map(Addr).chain(entry_edges(table));
            for a in addrs {
                prop_assert_eq!(table.lookup(a), table.lookup_linear(a), "lookup of {}", a);
            }
        };
        check(&table);

        // A duplicate prefix replaces the earlier entry in place.
        let installed = |table: &RouteTable| table.iter().map(|(p, _)| *p).collect::<Vec<_>>();
        let before = installed(&table);
        let dup = prefixes[dup as usize % prefixes.len()];
        let update = route(prefixes.len());
        table.insert(dup, update.clone());
        prop_assert_eq!(installed(&table), before);
        let group = table.iter().find(|(p, _)| *p == dup).map(|(_, g)| g);
        prop_assert_eq!(group, Some(&update));
        for (i, p) in late.iter().enumerate() {
            table.insert(*p, route(prefixes.len() + 1 + i));
        }
        check(&table);
    }

    /// IPv4 header encode/decode is the identity.
    #[test]
    fn ipv4_header_roundtrip(src in any::<u32>(), dst in any::<u32>(), ttl in any::<u8>(), ident in any::<u16>()) {
        let h = Ipv4Header { src: Addr(src), dst: Addr(dst), ttl, protocol: 1, ident };
        let mut buf = bytes::BytesMut::new();
        h.encode(&mut buf);
        let parsed = Ipv4Header::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    /// Any target checksum except 0xffff is exactly constructible — the
    /// Paris flow-label trick never misses.
    #[test]
    fn checksum_targeting(ident in any::<u16>(), seq in any::<u16>(), target in 0u16..0xffff) {
        let echo = IcmpEcho::with_checksum(ident, seq, target);
        prop_assert_eq!(echo.wire_checksum(ICMP_ECHO_REQUEST), target);
    }

    /// Corrupting any single byte of an encoded header is detected.
    #[test]
    fn corruption_detected(flip_at in 0usize..20, flip_bits in 1u8..=255) {
        let h = Ipv4Header {
            src: Addr(0x0A000001),
            dst: Addr(0xC0000201),
            ttl: 9,
            protocol: 1,
            ident: 7,
        };
        let mut buf = bytes::BytesMut::new();
        h.encode(&mut buf);
        buf[flip_at] ^= flip_bits;
        let r = Ipv4Header::decode(&mut buf.freeze());
        // Either rejected outright, or (if the flip hit the checksum's own
        // complement representation) never silently yields a different header.
        if let Ok(parsed) = r {
            prop_assert_eq!(parsed, h);
        }
    }
}

/// Sample budget for the hand-rolled sweeps below, derived from
/// [`proptest::cases`] so `PROPTEST_CASES` governs every test in this
/// file — the macro-generated ones and these — uniformly.
fn sweep_budget(divisor: usize, floor: usize) -> usize {
    proptest::cases().div_ceil(divisor).max(floor)
}

/// Forwarding invariants on a built scenario (fixed seed, sampled dests).
#[test]
fn echo_reachability_is_ttl_monotone() {
    let s = build(ScenarioConfig::tiny(5));
    let vantage = s.network.vantage_addr();
    let blocks = s.network.allocated_blocks();
    let samples = sweep_budget(4, 6);
    // Spread the samples across the whole allocation rather than probing a
    // contiguous run of blocks.
    let step = (blocks.len() / samples).max(1);
    let mut checked = 0;
    for b in blocks.iter().step_by(step).take(samples) {
        let profile = *s.network.block_profile(*b).unwrap();
        let actives = s
            .network
            .oracle()
            .active_in_block(*b, &profile, s.network.epoch());
        let Some(&dst) = actives.first() else {
            continue;
        };
        // Find the minimal TTL that gets an echo; all larger TTLs must too
        // (the scenario uses no per-packet balancing).
        let mut first_echo = None;
        for ttl in 1..=20u8 {
            let probe = encode_probe(vantage, dst, ttl, 1, ttl as u16, 0x1234, 0);
            let d = s.network.send(probe).unwrap();
            let echoed = d
                .response
                .as_ref()
                .map(|r| {
                    let mut buf = r.clone();
                    let h = Ipv4Header::decode(&mut buf).unwrap();
                    h.src == dst
                })
                .unwrap_or(false);
            match (first_echo, echoed) {
                (None, true) => first_echo = Some(ttl),
                (Some(_), false) => panic!("echo at lower TTL but not at {ttl} for {dst}"),
                _ => {}
            }
        }
        assert!(first_echo.is_some(), "{dst} unreachable at any TTL");
        checked += 1;
    }
    // Sparse blocks may skip; at least half the sample must have resolved.
    assert!(
        checked >= samples.div_ceil(2),
        "too few destinations checked: {checked}/{samples}"
    );
}

/// The same probe (all fields equal) always gets the same answer.
#[test]
fn probing_is_deterministic() {
    let s1 = build(ScenarioConfig::tiny(9));
    let s2 = build(ScenarioConfig::tiny(9));
    let vantage = s1.network.vantage_addr();
    for b in s1
        .network
        .allocated_blocks()
        .iter()
        .take(sweep_budget(1, 8))
    {
        let dst = b.addr(33);
        let p = encode_probe(vantage, dst, 12, 3, 1, 0xBEEF, 5);
        let d1 = s1.network.send(p.clone()).unwrap();
        let d2 = s2.network.send(p).unwrap();
        assert_eq!(d1.response, d2.response);
        assert_eq!(d1.rtt_us, d2.rtt_us);
    }
}
