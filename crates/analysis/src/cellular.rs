//! Cellular-block identification (paper Section 5.2, Figure 6; rDNS rule
//! extraction, Section 7.2).
//!
//! If the first ping to an address is much slower than later pings, the
//! device likely woke a cellular radio (Padmanabhan et al., IMC 2015). The
//! paper pings 200 sampled /24s of each big block (20 pings each) and
//! inspects the distribution of `firstRTT − max(restRTTs)`; Tele2, OCN and
//! Verizon Wireless blocks show >0.5s deltas for ~half their addresses,
//! SingTel and SoftBank sit at ~0 (datacenters).

use crate::stats::Ecdf;
use netsim::{Addr, Block24};
use probe::{ping_series, Prober};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use registry::RdnsDb;
use std::collections::HashMap;

/// Measure the Figure 6 statistic for a homogeneous block.
///
/// Samples up to `max_blocks` member /24s, pings every listed active
/// address `pings` times, and returns the per-address first-minus-max-rest
/// deltas in seconds.
pub fn block_ping_deltas(
    prober: &mut Prober<'_>,
    member_blocks: &[Block24],
    actives_of: &dyn Fn(Block24) -> Vec<Addr>,
    max_blocks: usize,
    max_addrs_per_block: usize,
    pings: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut blocks = member_blocks.to_vec();
    blocks.shuffle(&mut rng);
    blocks.truncate(max_blocks);
    let mut deltas = Vec::new();
    for b in blocks {
        for dst in actives_of(b).into_iter().take(max_addrs_per_block) {
            let series = ping_series(prober, dst, pings);
            if let Some(d) = series.first_minus_max_rest_secs() {
                deltas.push(d);
            }
        }
    }
    deltas
}

/// The paper's informal verdict, made explicit: a block is cellular when a
/// large share of its addresses pay a big first-probe penalty (Figure 6:
/// ~50% of deltas over 0.5s, ≥10% over 1s for the cellular blocks).
pub fn looks_cellular(deltas: &[f64]) -> bool {
    if deltas.is_empty() {
        return false;
    }
    let e = Ecdf::new(deltas.to_vec());
    let frac_over_quarter = 1.0 - e.eval(0.25);
    frac_over_quarter >= 0.5
}

/// The dominant rDNS pattern of a set of addresses, with its share
/// (Section 7.2 generalizes cluster-wide patterns into detection rules).
pub fn dominant_pattern(db: &RdnsDb<'_>, addrs: &[Addr]) -> Option<(String, f64)> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut resolved = 0usize;
    for &a in addrs {
        if let Some(r) = db.resolve(a) {
            if let Some(p) = r.pattern {
                *counts.entry(p).or_default() += 1;
                resolved += 1;
            }
        }
    }
    if resolved == 0 {
        return None;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(p, c)| (p, c as f64 / resolved as f64))
}

/// Validate a candidate cellular rDNS pattern against non-cellular name
/// sets (routers, known end hosts): the pattern must match none of them.
pub fn pattern_is_exclusive(pattern: &str, non_cellular_names: &[String]) -> bool {
    !non_cellular_names.iter().any(|n| n.contains(pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};
    use netsim::HostKind;

    #[test]
    fn looks_cellular_thresholds() {
        assert!(looks_cellular(&[0.6, 0.9, 1.2, 0.4, 0.02]));
        assert!(!looks_cellular(&[0.01, -0.02, 0.03, 0.0]));
        assert!(!looks_cellular(&[]));
        // Borderline: exactly half over threshold.
        assert!(looks_cellular(&[0.5, 0.0]));
    }

    #[test]
    fn cellular_big_site_detected_and_datacenter_not() {
        let mut cfg = ScenarioConfig::small(42);
        cfg.big_block_scale = 0.02; // keep sites small but present
        let s = build(cfg);
        let epoch = s.network.epoch();
        // Collect blocks of one cellular big site and one hosting site.
        let mut cell_blocks = Vec::new();
        let mut dc_blocks = Vec::new();
        for (&b, t) in &s.truth.blocks {
            if !t.homogeneous {
                continue;
            }
            let pop = &s.truth.pops[t.pop as usize];
            if !pop.big_site {
                continue;
            }
            if pop.cellular {
                cell_blocks.push(b);
            } else {
                dc_blocks.push(b);
            }
        }
        assert!(!cell_blocks.is_empty() && !dc_blocks.is_empty());
        let oracle = *s.network.oracle();
        let profiles: std::collections::HashMap<Block24, netsim::HostProfile> = s
            .network
            .allocated_blocks()
            .into_iter()
            .map(|b| (b, *s.network.block_profile(b).unwrap()))
            .collect();
        let actives = move |b: Block24| -> Vec<Addr> {
            profiles
                .get(&b)
                .map(|p| oracle.active_in_block(b, p, epoch))
                .unwrap_or_default()
        };
        let mut prober = Prober::new(&s.network, 0xCE);
        let cell = block_ping_deltas(&mut prober, &cell_blocks, &actives, 4, 5, 10, 7);
        let dc = block_ping_deltas(&mut prober, &dc_blocks, &actives, 4, 5, 10, 7);
        drop(prober);
        assert!(looks_cellular(&cell), "cellular deltas: {cell:?}");
        assert!(!looks_cellular(&dc), "datacenter deltas: {dc:?}");
        // Sanity: the cellular blocks really host cellular devices.
        let t = &s.truth.blocks[&cell_blocks[0]];
        assert!(s.truth.pops[t.pop as usize].cellular);
        let profile = s.network.block_profile(cell_blocks[0]).unwrap();
        assert_eq!(profile.kind, HostKind::Cellular);
    }

    #[test]
    fn dominant_pattern_finds_cellcust() {
        let s = build(ScenarioConfig::small(42));
        let db = RdnsDb::new(&s.truth, 42);
        // Tele2-style blocks.
        let blocks: Vec<Block24> = s
            .truth
            .blocks
            .iter()
            .filter(|(_, t)| {
                s.truth.as_list[t.as_idx as usize].rdns == netsim::roster::RdnsScheme::CellCust
            })
            .map(|(&b, _)| b)
            .take(3)
            .collect();
        assert!(!blocks.is_empty());
        let addrs: Vec<Addr> = blocks
            .iter()
            .flat_map(|b| [b.addr(3), b.addr(99)])
            .collect();
        let (pattern, share) = dominant_pattern(&db, &addrs).unwrap();
        assert_eq!(pattern, "m-cust");
        assert_eq!(share, 1.0);
    }

    #[test]
    fn pattern_exclusivity_check() {
        let routers = vec![
            "ae1-2.cr10-0-1.core.example.net".to_string(),
            "ae0-0.cr10-0-2.core.example.net".to_string(),
        ];
        assert!(pattern_is_exclusive("omed", &routers));
        assert!(!pattern_is_exclusive("core", &routers));
    }
}
