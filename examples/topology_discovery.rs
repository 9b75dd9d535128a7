//! Topology discovery planning with Hobbit blocks (paper Section 7.1).
//!
//! A mapping system like CAIDA's Ark probes one destination per routed /24.
//! Hobbit blocks make that budget go further: destinations chosen per
//! *homogeneous block* discover the same links with fewer probes, freeing
//! budget for the heterogeneous corners of the network.
//!
//! ```text
//! cargo run --release --example topology_discovery
//! ```

use aggregate::{aggregate_identical, HomogBlock};
use analysis::{coverage_curve, TraceDataset};
use hobbit::{classify_block, select_block, survey_block, ConfidenceTable, HobbitConfig};
use netsim::build::{build, ScenarioConfig};
use netsim::Block24;
use probe::{zmap, Prober};

fn main() {
    let mut scenario = build(ScenarioConfig::small(7));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);

    // Identify homogeneous blocks on a sample and aggregate them.
    let table = ConfidenceTable::empty();
    let cfg = HobbitConfig::default();
    let mut homog: Vec<HomogBlock> = Vec::new();
    {
        let mut prober = Prober::new(&scenario.network, 1);
        for block in snapshot.blocks().take(400) {
            let Ok(sel) = select_block(&snapshot, block) else {
                continue;
            };
            let m = classify_block(&mut prober, &sel, &table, &cfg);
            if m.classification.is_homogeneous() && !m.lasthop_set.is_empty() {
                homog.push(HomogBlock::new(m.block, m.lasthop_set));
            }
        }
        println!(
            "classified sample: {} homogeneous /24s ({} probes)",
            homog.len(),
            prober.probes_sent()
        );
    }
    let aggs = aggregate_identical(&homog);
    println!(
        "aggregated into {} Hobbit blocks (largest spans {} /24s)",
        aggs.len(),
        aggs.first().map(|a| a.size()).unwrap_or(0)
    );

    // Survey full traceroutes for the members of the biggest aggregates,
    // then compare destination-selection strategies at equal budget.
    let mut dataset = TraceDataset::default();
    let mut hobbit_groups: Vec<Vec<Block24>> = Vec::new();
    {
        let mut prober = Prober::new(&scenario.network, 2);
        for agg in aggs.iter().filter(|a| a.size() >= 1).take(12) {
            let mut group = Vec::new();
            for &block in agg.blocks.iter().take(6) {
                let Ok(sel) = select_block(&snapshot, block) else {
                    continue;
                };
                let s = survey_block(&mut prober, &sel, true);
                if !s.per_addr_paths.is_empty() {
                    dataset.per_block.insert(block, s.per_addr_paths);
                    group.push(block);
                }
            }
            if !group.is_empty() {
                hobbit_groups.push(group);
            }
        }
    }
    let per_24: Vec<Vec<Block24>> = dataset.per_block.keys().map(|&b| vec![b]).collect();
    println!(
        "trace dataset: {} /24s in {} Hobbit blocks, {} distinct links",
        per_24.len(),
        hobbit_groups.len(),
        dataset.all_links().len()
    );

    println!("\n  strategy          dests/24   link coverage");
    for &k in &[1usize, 2, 4, 8] {
        let base = &coverage_curve(&dataset, &per_24, &[k], 9)[0];
        let agg = &coverage_curve(&dataset, &hobbit_groups, &[k], 9)[0];
        println!(
            "  per-/24 k={k}        {:>5.2}      {:>5.1}%",
            base.avg_per_block24,
            base.ratio * 100.0
        );
        println!(
            "  per-Hobbit k={k}     {:>5.2}      {:>5.1}%",
            agg.avg_per_block24,
            agg.ratio * 100.0
        );
    }
}
