//! Cellular address census (paper Sections 5.2 and 7.2).
//!
//! Large homogeneous blocks behind few last-hop routers are often cellular
//! carriers aggregating whole countries behind a handful of ingress
//! gateways. This example finds the biggest aggregates, applies the
//! first-ping radio-wake-up test, and extracts reverse-DNS rules that
//! generalize to cellular address identification.
//!
//! ```text
//! cargo run --release --example cellular_census
//! ```

use aggregate::{aggregate_identical, HomogBlock};
use analysis::{block_ping_deltas, dominant_pattern, looks_cellular, pattern_is_exclusive};
use hobbit::{classify_block, select_block, ConfidenceTable, HobbitConfig};
use netsim::build::{build, ScenarioConfig};
use probe::{zmap, Prober};
use registry::Registry;

fn main() {
    let mut cfg = ScenarioConfig::small(11);
    cfg.big_block_scale = 0.05;
    let mut scenario = build(cfg);
    let snapshot = zmap::scan_all(&mut scenario.network, 1);

    // Classify everything and aggregate the homogeneous blocks.
    let table = ConfidenceTable::empty();
    let hcfg = HobbitConfig::default();
    let mut homog = Vec::new();
    {
        let mut prober = Prober::new(&scenario.network, 1);
        for block in snapshot.blocks() {
            let Ok(sel) = select_block(&snapshot, block) else {
                continue;
            };
            let m = classify_block(&mut prober, &sel, &table, &hcfg);
            if m.classification.is_homogeneous() && !m.lasthop_set.is_empty() {
                homog.push(HomogBlock::new(m.block, m.lasthop_set));
            }
        }
    }
    let aggs = aggregate_identical(&homog);

    // A fresh campaign: radios have gone idle since classification.
    let epoch = scenario.network.epoch() + 1;
    scenario.network.set_epoch(epoch);

    let registry = Registry::new(&scenario.truth, 11);
    let snapshot2 = snapshot.clone();
    let actives = move |b: netsim::Block24| snapshot2.active_in(b).to_vec();

    println!("top aggregates and their radio signatures:\n");
    println!("  org                    size  cellular?  dominant rDNS pattern");
    for agg in aggs.iter().take(10) {
        let org = registry
            .geo
            .lookup_block(agg.blocks[0])
            .map(|g| g.org.clone())
            .unwrap_or_else(|| "?".into());
        let mut prober = Prober::new(&scenario.network, 2);
        let deltas = block_ping_deltas(&mut prober, &agg.blocks, &actives, 8, 5, 12, 11);
        let cellular = looks_cellular(&deltas);

        let sample: Vec<netsim::Addr> = agg
            .blocks
            .iter()
            .take(5)
            .flat_map(|b| snapshot.active_in(*b).iter().take(10).copied())
            .collect();
        let pattern = dominant_pattern(&registry.rdns, &sample);
        let pattern_str = pattern
            .as_ref()
            .map(|(p, f)| format!("{p} ({:.0}% of names)", f * 100.0))
            .unwrap_or_else(|| "none".into());
        println!(
            "  {org:<22} {:>4}  {:<9} {pattern_str}",
            agg.size(),
            if cellular { "yes" } else { "no" },
        );

        // Generalize a detection rule: the pattern must match neither
        // router names nor known non-cellular end hosts (the paper checks
        // against traceroute-discovered routers and Bitcoin nodes).
        if cellular {
            if let Some((p, _)) = pattern {
                let mut negatives: Vec<String> = (1..200u32)
                    .map(|i| registry.rdns.router_name(netsim::Addr(0x0A00_0000 + i)))
                    .collect();
                negatives.extend(registry.rdns.non_cellular_names(400));
                if pattern_is_exclusive(&p, &negatives) {
                    println!("      -> rule: rDNS pattern {p:?} identifies cellular addresses");
                }
            }
        }
    }
}
