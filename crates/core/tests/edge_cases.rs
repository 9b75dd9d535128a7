//! Edge cases of selection, scheduling, and classification: empty and
//! near-empty /24s, hand-degenerate selections, and reprobe exhaustion
//! when the network drops everything.

use hobbit::{
    classify_block, probing_order, reprobe_order, select_block, Classification, ConfidenceTable,
    HobbitConfig, SelectReject, SelectedBlock,
};
use netsim::build::{build, ScenarioConfig};
use netsim::{Addr, Block24, FaultConfig};
use probe::{zmap, Prober, ZmapSnapshot};
use std::collections::BTreeMap;

const B: Block24 = Block24(0x0A_0102);

fn snapshot_with(block: Block24, hosts: &[u8]) -> ZmapSnapshot {
    let mut active = BTreeMap::new();
    active.insert(block, hosts.iter().map(|&h| block.addr(h)).collect());
    ZmapSnapshot {
        active,
        epoch: 0,
        probes: 0,
    }
}

#[test]
fn select_rejects_empty_block() {
    // A /24 present in the snapshot with zero active addresses is the same
    // reject as one with too few — never a panic, never a selection.
    let snap = snapshot_with(B, &[]);
    assert_eq!(
        select_block(&snap, B).unwrap_err(),
        SelectReject::TooFewActive
    );
}

#[test]
fn select_rejects_single_responsive_address() {
    for host in [0u8, 1, 255] {
        let snap = snapshot_with(B, &[host]);
        assert_eq!(
            select_block(&snap, B).unwrap_err(),
            SelectReject::TooFewActive,
            "host {host}"
        );
    }
}

#[test]
fn select_boundary_hosts_land_in_outer_quarters() {
    // .0 and .255 are valid snapshot actives; they must map to quarters 0
    // and 3 so a block covered only at its rim still selects.
    let snap = snapshot_with(B, &[0, 70, 130, 255]);
    let sel = select_block(&snap, B).unwrap();
    assert_eq!(sel.quarters[0], vec![B.addr(0)]);
    assert_eq!(sel.quarters[3], vec![B.addr(255)]);
}

#[test]
fn probing_order_of_empty_selection_is_empty() {
    let sel = SelectedBlock {
        block: B,
        quarters: [vec![], vec![], vec![], vec![]],
    };
    assert!(probing_order(&sel, 7).is_empty());
}

#[test]
fn probing_order_single_address() {
    let sel = SelectedBlock {
        block: B,
        quarters: [vec![B.addr(9)], vec![], vec![], vec![]],
    };
    assert_eq!(probing_order(&sel, 7), vec![B.addr(9)]);
    // Seed changes cannot conjure or lose addresses.
    assert_eq!(probing_order(&sel, 8), vec![B.addr(9)]);
}

#[test]
fn reprobe_order_empty_and_duplicate_inputs() {
    assert!(reprobe_order(B, &[], 7).is_empty());
    // Duplicates collapse: the schedule is over the *set* of unresolved
    // destinations, however messily a worker collected them.
    let dups = [B.addr(5), B.addr(5), B.addr(9), B.addr(5), B.addr(9)];
    let order = reprobe_order(B, &dups, 7);
    assert_eq!(order.len(), 2);
    let mut sorted = order.clone();
    sorted.sort();
    assert_eq!(sorted, vec![B.addr(5), B.addr(9)]);
}

#[test]
fn classify_empty_selection_is_too_few_active() {
    // A degenerate selection (all quarters empty) must classify without
    // probing anything, not hang or panic.
    let scenario = build(ScenarioConfig::tiny(42));
    let sel = SelectedBlock {
        block: B,
        quarters: [vec![], vec![], vec![], vec![]],
    };
    let mut prober = Prober::new(&scenario.network, 0x0B17);
    let m = classify_block(
        &mut prober,
        &sel,
        &ConfidenceTable::empty(),
        &HobbitConfig::default(),
    );
    assert_eq!(m.classification, Classification::TooFewActive);
    assert_eq!(m.dests_probed, 0);
    assert_eq!(m.probes_used, 0);
    assert_eq!(m.reprobes, 0);
    assert!(m.lasthop_set.is_empty());
}

#[test]
fn classify_single_address_selection_is_too_few_active() {
    // One live destination can resolve a last hop but never support a
    // verdict (MIN_ACTIVE is 4).
    let mut scenario = build(ScenarioConfig::tiny(42));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    let (block, actives) = snapshot
        .active
        .iter()
        .find(|(_, a)| a.len() >= 4)
        .map(|(b, a)| (*b, a.clone()))
        .expect("some block has actives");
    let one = actives[0];
    let mut quarters: [Vec<Addr>; 4] = Default::default();
    quarters[one.quarter26() as usize].push(one);
    let sel = SelectedBlock { block, quarters };
    let mut prober = Prober::new(&scenario.network, 0x0B17);
    let m = classify_block(
        &mut prober,
        &sel,
        &ConfidenceTable::empty(),
        &HobbitConfig::default(),
    );
    assert_eq!(m.classification, Classification::TooFewActive);
    assert_eq!(m.dests_probed, 1);
    assert!(m.dests_resolved <= 1);
}

#[test]
fn total_loss_leaves_every_destination_unresolved() {
    // Under link loss 1.0 nothing ever answers: every destination stays
    // unresolved, the block gets no reprobe pass (no destination answered
    // the first one), and it degrades to TooFewActive with consistent
    // counters.
    let mut scenario = build(ScenarioConfig::tiny(42));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    scenario.network.set_faults(FaultConfig {
        link_loss: 1.0,
        ..FaultConfig::none()
    });
    let block = snapshot
        .blocks()
        .find(|&b| select_block(&snapshot, b).is_ok())
        .expect("some block selects");
    let sel = select_block(&snapshot, block).unwrap();
    let cfg = HobbitConfig {
        prober_retries: 0,
        ..HobbitConfig::default()
    };
    let mut prober = Prober::new(&scenario.network, 0x0B17);
    let m = classify_block(&mut prober, &sel, &ConfidenceTable::empty(), &cfg);
    let n = sel.active_count();
    assert_eq!(m.classification, Classification::TooFewActive);
    assert_eq!(m.dests_probed, n);
    assert_eq!(m.dests_unresolved, n, "no answer ever arrives");
    assert_eq!(m.dests_resolved, 0);
    assert_eq!(m.dests_anonymous, 0);
    assert!(m.lasthop_set.is_empty());
    assert_eq!(m.reprobes, 0, "a /24 that never answered is not reprobed");
}

#[test]
fn all_unresponsive_block_yields_unresponsive_lasthop() {
    // A block behind a last-hop router that never answers TTL-exceeded:
    // destinations echo fine, the last hop stays anonymous, and the
    // verdict is UnresponsiveLasthop — not TooFewActive (the hosts are
    // there) and certainly not a homogeneity claim.
    let mut scenario = build(ScenarioConfig::tiny(42));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    let block = snapshot
        .blocks()
        .find(|b| {
            let t = &scenario.truth.blocks[b];
            t.homogeneous
                && !scenario.truth.pops[t.pop as usize].responsive
                && select_block(&snapshot, *b).is_ok()
        })
        .expect("tiny scenario plants an unresponsive pop");
    let sel = select_block(&snapshot, block).unwrap();
    let mut prober = Prober::new(&scenario.network, 0x0B17);
    let m = classify_block(
        &mut prober,
        &sel,
        &ConfidenceTable::empty(),
        &HobbitConfig::default(),
    );
    assert_eq!(m.classification, Classification::UnresponsiveLasthop);
    assert!(m.dests_anonymous >= 4, "{m:?}");
    assert!(m.lasthop_set.is_empty());
}
