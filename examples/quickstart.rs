//! Quickstart: build a simulated internet, take a ZMap snapshot, and run
//! Hobbit over a handful of /24 blocks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Two ways in, shown below:
//!
//! 1. the one-liner [`experiments::Pipeline::builder()`], which runs the
//!    paper's whole measurement sequence (scan → selection → calibration →
//!    concurrent classification), and
//! 2. the manual walkthrough over a borrowed `&Network`, the same
//!    thread-safe engine the pipeline's workers probe concurrently.

use hobbit::{classify_block, select_block, ConfidenceTable, HobbitConfig};
use netsim::build::{build, ScenarioConfig};
use probe::{zmap, Prober};

fn main() {
    // ── Route 1: the fluent pipeline builder ────────────────────────────
    let p = experiments::Pipeline::builder().seed(42).scale(0.01).run();
    println!(
        "pipeline: {} blocks selected, {} classified homogeneous, {} probes",
        p.selected.len(),
        p.homog_blocks().len(),
        p.classify_probes
    );
    for w in &p.worker_stats {
        println!(
            "  worker: {} blocks, {} probes, {} steals",
            w.blocks, w.probes, w.steals
        );
    }

    // ── Route 2: the manual walkthrough ─────────────────────────────────
    // A small deterministic internet: ~2k /24 blocks, full ground truth.
    let mut scenario = build(ScenarioConfig::small(42));
    println!(
        "simulated internet: {} routers, {} allocated /24 blocks",
        scenario.network.router_count(),
        scenario.truth.blocks.len()
    );

    // Step 1: the ZMap-style snapshot of responsive addresses.
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    println!(
        "zmap snapshot: {} active addresses in {} blocks ({} probes)",
        snapshot.total_active(),
        snapshot.active.len(),
        snapshot.probes
    );

    // Step 2: classify the first blocks that pass the selection criteria.
    // The prober borrows the network shared (`&Network` is `Send`), so
    // scoped threads can each probe through their own prober at once.
    let mut prober = Prober::new(&scenario.network, 0x42);
    let table = ConfidenceTable::empty(); // no calibration: probe all actives
    let cfg = HobbitConfig::default();
    let mut shown = 0;
    for block in snapshot.blocks() {
        let Ok(sel) = select_block(&snapshot, block) else {
            continue;
        };
        let m = classify_block(&mut prober, &sel, &table, &cfg);
        let truth = if scenario.truth.is_homogeneous(block) {
            "truly homogeneous"
        } else {
            "truly heterogeneous"
        };
        println!(
            "{block}  ->  {:<28} last-hops={:<2} probed={:<3} probes={:<5} [{truth}]",
            m.classification.label(),
            m.lasthop_set.len(),
            m.dests_probed,
            m.probes_used,
        );
        shown += 1;
        if shown == 15 {
            break;
        }
    }
    println!("total probes sent: {}", prober.probes_sent());
}
