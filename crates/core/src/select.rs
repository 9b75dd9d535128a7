//! Destination selection (paper Section 3.3).
//!
//! Hobbit needs at least 4 active addresses per /24 (fewer can never be
//! non-hierarchical), and requires every /26 quarter of the /24 to contain
//! at least one active address so that the verdict represents the whole
//! /24 rather than a /25 or /26. Both criteria are evaluated against the
//! ZMap snapshot; actual availability at probe time may differ.

use crate::classify::MIN_ACTIVE;
use netsim::{Addr, Block24};
use probe::ZmapSnapshot;
use serde::{Deserialize, Serialize};

/// A /24 selected for measurement, with its snapshot-active addresses
/// grouped by /26 quarter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SelectedBlock {
    /// The /24 block.
    pub block: Block24,
    /// Snapshot-active addresses per /26 quarter (each non-empty).
    pub quarters: [Vec<Addr>; 4],
}

impl SelectedBlock {
    /// Total snapshot-active addresses.
    pub fn active_count(&self) -> usize {
        self.quarters.iter().map(Vec::len).sum()
    }

    /// All snapshot-active addresses in ascending order.
    pub fn actives(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.quarters.iter().flatten().copied().collect();
        v.sort();
        v
    }
}

/// Why a block was rejected by selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectReject {
    /// Fewer than [`MIN_ACTIVE`] snapshot-active addresses.
    TooFewActive,
    /// Some /26 quarter has no snapshot-active address.
    UncoveredQuarter,
}

/// Apply the Section 3.3 criteria to one block.
pub fn select_block(
    snapshot: &ZmapSnapshot,
    block: Block24,
) -> Result<SelectedBlock, SelectReject> {
    let actives = snapshot.active_in(block);
    if actives.len() < MIN_ACTIVE {
        return Err(SelectReject::TooFewActive);
    }
    let mut quarters: [Vec<Addr>; 4] = Default::default();
    for &a in actives {
        quarters[a.quarter26() as usize].push(a);
    }
    if quarters.iter().any(|q| q.is_empty()) {
        return Err(SelectReject::UncoveredQuarter);
    }
    Ok(SelectedBlock { block, quarters })
}

/// Select all qualifying blocks from a snapshot, in numeric order.
pub fn select_all(snapshot: &ZmapSnapshot) -> Vec<SelectedBlock> {
    snapshot
        .blocks()
        .filter_map(|b| select_block(snapshot, b).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snapshot_with(block: Block24, hosts: &[u8]) -> ZmapSnapshot {
        let mut active = BTreeMap::new();
        active.insert(block, hosts.iter().map(|&h| block.addr(h)).collect());
        ZmapSnapshot {
            active,
            epoch: 0,
            probes: 0,
        }
    }

    const B: Block24 = Block24(0x0A_0102);

    #[test]
    fn accepts_one_active_per_quarter() {
        let snap = snapshot_with(B, &[1, 70, 130, 200]);
        let sel = select_block(&snap, B).unwrap();
        assert_eq!(sel.active_count(), 4);
        assert_eq!(
            sel.quarters.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![1, 1, 1, 1]
        );
    }

    #[test]
    fn rejects_too_few() {
        let snap = snapshot_with(B, &[1, 70, 130]);
        assert_eq!(
            select_block(&snap, B).unwrap_err(),
            SelectReject::TooFewActive
        );
    }

    #[test]
    fn rejects_uncovered_quarter() {
        // Four actives but all in quarters 0-2; quarter 3 empty.
        let snap = snapshot_with(B, &[1, 2, 70, 130]);
        assert_eq!(
            select_block(&snap, B).unwrap_err(),
            SelectReject::UncoveredQuarter
        );
    }

    #[test]
    fn rejects_unknown_block() {
        let snap = snapshot_with(B, &[1, 70, 130, 200]);
        assert_eq!(
            select_block(&snap, Block24(0x0B_0000)).unwrap_err(),
            SelectReject::TooFewActive
        );
    }

    #[test]
    fn actives_are_sorted() {
        let snap = snapshot_with(B, &[200, 1, 130, 70]);
        let sel = select_block(&snap, B).unwrap();
        let a = sel.actives();
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn select_all_filters() {
        let mut snap = snapshot_with(B, &[1, 70, 130, 200]);
        let b2 = Block24(0x0A_0103);
        snap.active.insert(b2, vec![b2.addr(1), b2.addr(2)]);
        let sel = select_all(&snap);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].block, B);
    }
}
