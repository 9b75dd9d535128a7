//! Longitudinal homogeneity analysis — the paper's stated future work:
//! "perform a longitudinal analysis of the homogeneity of /24 blocks to
//! observe how IPv4 address exhaustion affects the address allocations."
//!
//! We re-run Hobbit at successive epochs and quantify: verdict stability,
//! last-hop-set stability (Jaccard), and aggregate persistence.

use hobbit::{classify_block, BlockMeasurement, Classification, ConfidenceTable, HobbitConfig};
use netsim::{Addr, Block24, Network};
use probe::Prober;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One epoch's classification snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// The measurement epoch.
    pub epoch: u32,
    /// Per-block verdicts and signatures.
    pub measurements: BTreeMap<Block24, (Classification, Vec<Addr>)>,
    /// Probes spent this epoch.
    pub probes: u64,
}

/// Stability metrics between two consecutive snapshots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Epoch pair compared.
    pub epochs: (u32, u32),
    /// Blocks measured in both epochs.
    pub common_blocks: usize,
    /// Fraction keeping the same Table-1 classification.
    pub verdict_stability: f64,
    /// Fraction of homogeneous-in-both blocks keeping the same verdict
    /// *category* (homogeneous stays homogeneous).
    pub homogeneity_stability: f64,
    /// Mean Jaccard similarity of last-hop sets across epochs (over blocks
    /// with non-empty sets in both).
    pub mean_lasthop_jaccard: f64,
}

/// Jaccard similarity of two sorted address sets.
pub fn jaccard(a: &[Addr], b: &[Addr]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::BTreeSet<_> = a.iter().collect();
    let sb: std::collections::BTreeSet<_> = b.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union.max(1) as f64
}

/// Classify the given selected blocks at one epoch.
pub fn snapshot_epoch(
    net: &mut Network,
    epoch: u32,
    selected: &[hobbit::SelectedBlock],
    table: &ConfidenceTable,
    cfg: &HobbitConfig,
) -> EpochSnapshot {
    net.set_epoch(epoch);
    let mut prober = Prober::new(net, 0x1000 + epoch as u16);
    let mut measurements = BTreeMap::new();
    for sel in selected {
        let m: BlockMeasurement = classify_block(&mut prober, sel, table, cfg);
        measurements.insert(m.block, (m.classification, m.lasthop_set));
    }
    EpochSnapshot {
        epoch,
        measurements,
        probes: prober.probes_sent(),
    }
}

/// Compare two snapshots.
pub fn stability(a: &EpochSnapshot, b: &EpochSnapshot) -> StabilityReport {
    let mut common = 0usize;
    let mut same_verdict = 0usize;
    let mut homog_both_eligible = 0usize;
    let mut homog_stable = 0usize;
    let mut jaccards = Vec::new();
    for (block, (cls_a, set_a)) in &a.measurements {
        let Some((cls_b, set_b)) = b.measurements.get(block) else {
            continue;
        };
        common += 1;
        if cls_a == cls_b {
            same_verdict += 1;
        }
        // Homogeneity stability only over blocks analyzable in both epochs.
        if cls_a.is_analyzable() && cls_b.is_analyzable() {
            homog_both_eligible += 1;
            if cls_a.is_homogeneous() == cls_b.is_homogeneous() {
                homog_stable += 1;
            }
        }
        if !set_a.is_empty() && !set_b.is_empty() {
            jaccards.push(jaccard(set_a, set_b));
        }
    }
    StabilityReport {
        epochs: (a.epoch, b.epoch),
        common_blocks: common,
        verdict_stability: same_verdict as f64 / common.max(1) as f64,
        homogeneity_stability: homog_stable as f64 / homog_both_eligible.max(1) as f64,
        mean_lasthop_jaccard: crate::stats::mean(&jaccards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobbit::select_all;
    use netsim::build::{build, ScenarioConfig};
    use probe::zmap;

    #[test]
    fn jaccard_basics() {
        let a = vec![Addr(1), Addr(2)];
        let b = vec![Addr(2), Addr(3)];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn homogeneity_is_stable_across_epochs() {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        let selected: Vec<_> = select_all(&snapshot).into_iter().take(60).collect();
        let table = ConfidenceTable::empty();
        let cfg = HobbitConfig::default();

        let e1 = snapshot_epoch(&mut s.network, 1, &selected, &table, &cfg);
        let e2 = snapshot_epoch(&mut s.network, 2, &selected, &table, &cfg);
        let report = stability(&e1, &e2);
        assert_eq!(report.common_blocks, selected.len());
        // Topology never changes in this scenario, so blocks analyzable in
        // both epochs must keep their homogeneity verdict almost always.
        assert!(
            report.homogeneity_stability > 0.9,
            "homogeneity stability {:.3}",
            report.homogeneity_stability
        );
        // Availability churn makes raw verdicts less stable (blocks drop to
        // TooFewActive and back), which is exactly what a longitudinal
        // study would observe.
        assert!(report.verdict_stability > 0.4);
        assert!(report.mean_lasthop_jaccard > 0.7);
    }

    #[test]
    fn snapshots_record_epoch_and_cost() {
        let mut s = build(ScenarioConfig::tiny(7));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        let selected: Vec<_> = select_all(&snapshot).into_iter().take(10).collect();
        let e = snapshot_epoch(
            &mut s.network,
            3,
            &selected,
            &ConfidenceTable::empty(),
            &HobbitConfig::default(),
        );
        assert_eq!(e.epoch, 3);
        assert_eq!(s.network.epoch(), 3);
        assert!(e.probes > 0);
        assert_eq!(e.measurements.len(), selected.len());
    }
}
