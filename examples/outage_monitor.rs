//! Outage monitoring with Hobbit blocks (the Trinocular use case from the
//! paper's introduction).
//!
//! Trinocular tracks outages per /24, which mis-fires when a /24 is not a
//! coherent unit. Hobbit blocks are coherent by construction: their /24s
//! share last-hop routers, so probing a few representatives per *block*
//! tracks availability with far fewer probes. This example watches several
//! epochs of the simulated internet and reports block-level outages.
//!
//! ```text
//! cargo run --release --example outage_monitor
//! ```

use aggregate::{aggregate_identical, HomogBlock};
use hobbit::{classify_block, select_block, ConfidenceTable, HobbitConfig};
use netsim::build::{build, ScenarioConfig};
use netsim::{Addr, Block24};
use probe::{zmap, ProbeReply, Prober};

/// Probes per /24 representative check.
const PROBES_PER_BLOCK: usize = 4;

/// Check whether a /24 answers at all right now.
fn block_alive(prober: &mut Prober<'_>, actives: &[Addr]) -> bool {
    for &dst in actives.iter().take(PROBES_PER_BLOCK) {
        if let ProbeReply::Echo { .. } = prober.probe(dst, 64, 0).reply {
            return true;
        }
    }
    false
}

fn main() {
    let mut scenario = build(ScenarioConfig::small(23));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);

    // Build the monitoring universe: Hobbit blocks over a classified sample.
    let table = ConfidenceTable::empty();
    let cfg = HobbitConfig::default();
    let mut homog = Vec::new();
    {
        let mut prober = Prober::new(&scenario.network, 1);
        for block in snapshot.blocks().take(500) {
            let Ok(sel) = select_block(&snapshot, block) else {
                continue;
            };
            let m = classify_block(&mut prober, &sel, &table, &cfg);
            if m.classification.is_homogeneous() && !m.lasthop_set.is_empty() {
                homog.push(HomogBlock::new(m.block, m.lasthop_set));
            }
        }
    }
    let aggs = aggregate_identical(&homog);
    let monitored: Vec<&aggregate::Aggregate> =
        aggs.iter().filter(|a| a.size() >= 2).take(20).collect();
    let total_24s: usize = monitored.iter().map(|a| a.size()).sum();
    println!(
        "monitoring {} Hobbit blocks covering {} /24s",
        monitored.len(),
        total_24s
    );

    // Watch several epochs. Per epoch we probe ONE representative /24 per
    // Hobbit block (plus confirmation on a second member when it looks
    // down) instead of every /24 — the efficiency the paper promises.
    for epoch in 2..6u32 {
        scenario.network.set_epoch(epoch);
        let mut down: Vec<(Block24, usize)> = Vec::new();
        let probes_spent;
        {
            let mut prober = Prober::new(&scenario.network, epoch as u16);
            for agg in &monitored {
                let rep = agg.blocks[0];
                let alive = block_alive(&mut prober, snapshot.active_in(rep));
                if !alive {
                    // Confirm on another member before declaring an outage.
                    let confirm = agg.blocks.get(1).copied().unwrap_or(rep);
                    if !block_alive(&mut prober, snapshot.active_in(confirm)) {
                        down.push((rep, agg.size()));
                    }
                }
            }
            probes_spent = prober.probes_sent();
        }
        let naive_cost = total_24s * PROBES_PER_BLOCK;
        println!(
            "epoch {epoch}: {} block outages (cost {} probes vs {} for per-/24 monitoring)",
            down.len(),
            probes_spent,
            naive_cost
        );
        for (rep, size) in down.iter().take(5) {
            println!("    outage: Hobbit block of {size} /24s (representative {rep})");
        }
    }
}
