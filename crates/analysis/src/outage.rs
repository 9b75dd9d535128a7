//! Outage monitoring over Hobbit blocks — the Trinocular use case the
//! paper's introduction motivates.
//!
//! Trinocular tracks availability per /24; when the /24 is part of a
//! larger homogeneous block, that wastes probes (members fate-share their
//! last-hop routers), and when the /24 is secretly split, a half-block
//! outage is invisible. Monitoring per *Hobbit block* fixes the first
//! problem: probe a representative member, confirm suspicious silence on a
//! second member, and report one event per block.

use aggregate::HobbitDataset;
use netsim::{Addr, Block24};
use probe::{ProbeReply, Prober};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Availability state of one Hobbit block at one scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// A representative answered.
    Up,
    /// Representatives from ≥ 2 member /24s were silent.
    Down,
    /// Not enough probe-able addresses to decide.
    Unknown,
}

/// One scan's result for one block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockScan {
    /// Dataset block id.
    pub block_id: u32,
    /// Observed state.
    pub state: BlockState,
    /// Probes spent on this block.
    pub probes: u64,
}

/// A monitor over a Hobbit dataset.
pub struct OutageMonitor {
    dataset: HobbitDataset,
    /// Known-responsive addresses per member /24 (e.g. a ZMap snapshot).
    actives: BTreeMap<Block24, Vec<Addr>>,
    /// Probes per representative before declaring it silent.
    pub probes_per_rep: usize,
    /// Member /24s that must be silent before a block is declared down.
    pub confirmations: usize,
    /// Last observed state per block id.
    states: BTreeMap<u32, BlockState>,
}

/// A state transition observed between two scans.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageEvent {
    /// Dataset block id.
    pub block_id: u32,
    /// State before this scan.
    pub from: BlockState,
    /// State after this scan.
    pub to: BlockState,
}

impl OutageMonitor {
    /// Create a monitor; `actives` supplies probe targets per member /24.
    pub fn new(dataset: HobbitDataset, actives: BTreeMap<Block24, Vec<Addr>>) -> Self {
        OutageMonitor {
            dataset,
            actives,
            probes_per_rep: 3,
            confirmations: 2,
            states: BTreeMap::new(),
        }
    }

    /// The monitored dataset.
    pub fn dataset(&self) -> &HobbitDataset {
        &self.dataset
    }

    /// Scan every block once; returns per-block results plus the state
    /// transitions since the previous scan.
    pub fn scan(&mut self, prober: &mut Prober<'_>) -> (Vec<BlockScan>, Vec<OutageEvent>) {
        let mut scans = Vec::with_capacity(self.dataset.blocks.len());
        let mut events = Vec::new();
        for block in &self.dataset.blocks {
            let before = prober.probes_sent();
            let state = scan_block(
                prober,
                block.members(),
                &self.actives,
                self.probes_per_rep,
                self.confirmations,
            );
            scans.push(BlockScan {
                block_id: block.id,
                state,
                probes: prober.probes_sent() - before,
            });
            let prev = self.states.insert(block.id, state);
            if let Some(prev) = prev {
                if prev != state {
                    events.push(OutageEvent {
                        block_id: block.id,
                        from: prev,
                        to: state,
                    });
                }
            }
        }
        (scans, events)
    }
}

/// Probe one block's members until the verdict is clear.
fn scan_block(
    prober: &mut Prober<'_>,
    members: impl Iterator<Item = Block24>,
    actives: &BTreeMap<Block24, Vec<Addr>>,
    probes_per_rep: usize,
    confirmations: usize,
) -> BlockState {
    let mut silent_members = 0usize;
    let mut probed_members = 0usize;
    for member in members {
        let Some(targets) = actives.get(&member) else {
            continue;
        };
        if targets.is_empty() {
            continue;
        }
        probed_members += 1;
        let mut answered = false;
        for &dst in targets.iter().take(probes_per_rep) {
            if let ProbeReply::Echo { .. } = prober.probe(dst, 64, 0).reply {
                answered = true;
                break;
            }
        }
        if answered {
            // Any answering representative proves the block is reachable.
            return BlockState::Up;
        }
        silent_members += 1;
        if silent_members >= confirmations {
            return BlockState::Down;
        }
    }
    if probed_members == 0 {
        BlockState::Unknown
    } else if silent_members >= confirmations.min(probed_members) && probed_members > 0 {
        BlockState::Down
    } else {
        BlockState::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate::{aggregate_identical, HomogBlock};

    // Build a dataset straight from a scenario's ground truth.
    fn world() -> (
        netsim::Scenario,
        HobbitDataset,
        BTreeMap<Block24, Vec<Addr>>,
    ) {
        let mut s = netsim::build::build(netsim::build::ScenarioConfig::tiny(42));
        let snapshot = probe::zmap::scan_all(&mut s.network, 1);
        let homog: Vec<HomogBlock> = s
            .truth
            .blocks
            .iter()
            .filter(|(_, t)| t.homogeneous && s.truth.pops[t.pop as usize].responsive)
            .map(|(&b, t)| HomogBlock::new(b, s.truth.pops[t.pop as usize].lasthop_addrs.clone()))
            .collect();
        let aggs = aggregate_identical(&homog);
        let dataset = HobbitDataset::from_aggregates(42, &aggs, &|_| true);
        let actives: BTreeMap<Block24, Vec<Addr>> = snapshot
            .active
            .iter()
            .map(|(&b, v)| (b, v.clone()))
            .collect();
        (s, dataset, actives)
    }

    #[test]
    fn scan_reports_up_for_live_blocks_and_events_on_change() {
        let (mut s, dataset, actives) = world();
        let mut monitor = OutageMonitor::new(dataset, actives);
        let mut prober = Prober::new(&s.network, 0x0E);
        let (scans, events) = monitor.scan(&mut prober);
        assert!(!scans.is_empty());
        assert!(events.is_empty(), "first scan has no previous state");
        let up = scans.iter().filter(|b| b.state == BlockState::Up).count();
        assert!(
            up as f64 / scans.len() as f64 > 0.5,
            "most blocks should be up: {up}/{}",
            scans.len()
        );
        // A later epoch flips some blocks quiet; events must appear and be
        // consistent with the recorded states.
        drop(prober);
        s.network.set_epoch(7);
        let mut prober = Prober::new(&s.network, 0x0E);
        let (scans2, events2) = monitor.scan(&mut prober);
        for e in &events2 {
            let now = scans2.iter().find(|s| s.block_id == e.block_id).unwrap();
            assert_eq!(e.to, now.state);
            assert_ne!(e.from, e.to);
        }
    }

    #[test]
    fn monitoring_cost_scales_with_blocks_not_24s() {
        let (s, dataset, actives) = world();
        let total_24s = dataset.total_24s() as u64;
        let n_blocks = dataset.blocks.len() as u64;
        let mut monitor = OutageMonitor::new(dataset, actives);
        let mut prober = Prober::new(&s.network, 0x0F);
        let (scans, _) = monitor.scan(&mut prober);
        let cost: u64 = scans.iter().map(|b| b.probes).sum();
        // Up blocks usually cost ~1 probe; even with retries and down
        // confirmations the total should be far below per-/24 probing.
        assert!(
            cost < total_24s * 3,
            "cost {cost} should beat per-/24 probing ({total_24s} blocks)"
        );
        assert!(cost >= n_blocks, "at least one probe per block");
    }

    #[test]
    fn unknown_when_no_targets() {
        let (s, dataset, _) = world();
        let mut monitor = OutageMonitor::new(dataset, BTreeMap::new());
        let mut prober = Prober::new(&s.network, 0x10);
        let (scans, _) = monitor.scan(&mut prober);
        assert!(scans.iter().all(|b| b.state == BlockState::Unknown));
    }
}
