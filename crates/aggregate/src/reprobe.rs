//! Reprobing validation of MCL clusters (paper Section 6.5).
//!
//! MCL suggests that aggregates with similar last-hop sets are co-located;
//! reprobing verifies it. The modified strategy differs from the original
//! (Section 3.5) in two ways: probing does not stop when a non-hierarchical
//! relationship appears, and each destination's last-hop enumeration uses
//! the probe budget needed to enumerate *all* interfaces at 95% confidence.
//! A cluster is declared homogeneous when every sampled pair of /24s ends
//! up with identical last-hop sets.

use crate::identical::Aggregate;
use hobbit::select::SelectedBlock;
use hobbit::RouterInterner;
use netsim::Block24;
use obs::Recorder;
use probe::{probe_lasthop, LasthopOutcome, Prober, StoppingRule};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Reprobing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReprobeConfig {
    /// Pairs sampled per cluster (paper: 20,000; scale down for scenarios).
    pub max_pairs_per_cluster: usize,
    /// Stopping rule for interface enumeration (tighter than the original:
    /// aimed at enumerating all interfaces, not testing hierarchy).
    pub rule: StoppingRule,
    /// Seed for pair sampling.
    pub seed: u64,
}

impl Default for ReprobeConfig {
    fn default() -> Self {
        ReprobeConfig {
            max_pairs_per_cluster: 200,
            rule: StoppingRule::confidence95(),
            seed: 0x5EED,
        }
    }
}

/// Validation result for one cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterValidation {
    /// Pairs whose reprobed last-hop sets were identical.
    pub identical_pairs: usize,
    /// Pairs examined.
    pub total_pairs: usize,
    /// Probes spent.
    pub probes_used: u64,
}

impl ClusterValidation {
    /// The paper's criterion: homogeneous iff every examined pair matched.
    pub fn homogeneous(&self) -> bool {
        self.total_pairs > 0 && self.identical_pairs == self.total_pairs
    }

    /// Ratio of identical pairs (the Figure 9 statistic).
    pub fn identical_ratio(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        self.identical_pairs as f64 / self.total_pairs as f64
    }
}

/// Reprobe one /24 with the modified strategy: every snapshot-active
/// address, full interface enumeration, no early stop. Every observed
/// last-hop router is interned into `routers`, and the block's set comes
/// back as sorted, deduplicated ids — interning is a bijection, so id-set
/// equality is address-set equality, which is all validation compares.
pub fn reprobe_block(
    prober: &mut Prober<'_>,
    sel: &SelectedBlock,
    rule: StoppingRule,
    routers: &mut RouterInterner,
) -> Vec<u32> {
    let mut set: Vec<u32> = Vec::new();
    for dst in sel.actives() {
        if let LasthopOutcome::Found { lasthops, .. } = probe_lasthop(prober, dst, rule).outcome {
            set.extend(lasthops.iter().map(|&lh| routers.intern(lh)));
        }
    }
    set.sort_unstable();
    set.dedup();
    set
}

/// Validate one cluster of aggregates: sample up to `max_pairs_per_cluster`
/// /24 pairs, reprobe each involved block once, and compare sets.
///
/// `selector` maps a block to its selected (probe-able) form; blocks the
/// selector rejects are skipped.
pub fn validate_cluster<F>(
    prober: &mut Prober<'_>,
    aggs: &[Aggregate],
    members: &[u32],
    cfg: &ReprobeConfig,
    mut selector: F,
) -> ClusterValidation
where
    F: FnMut(Block24) -> Option<SelectedBlock>,
{
    let before = prober.probes_sent();
    let blocks: Vec<Block24> = members
        .iter()
        .flat_map(|&m| aggs[m as usize].blocks.iter().copied())
        .collect();
    // Enumerate pairs, sample if needed.
    let mut pairs: Vec<(Block24, Block24)> = Vec::new();
    for i in 0..blocks.len() {
        for j in 0..i {
            pairs.push((blocks[j], blocks[i]));
        }
    }
    if pairs.len() > cfg.max_pairs_per_cluster {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        pairs.shuffle(&mut rng);
        pairs.truncate(cfg.max_pairs_per_cluster);
    }
    // Reprobe each distinct block once, sharing one per-validation router
    // id space: per-block sets live in a sorted Vec (binary-searched, no
    // tree nodes) and pair comparison is dense id-vector equality.
    let mut routers = RouterInterner::new();
    let mut sets: Vec<(Block24, Option<Vec<u32>>)> = Vec::new();
    for &(a, b) in &pairs {
        for blk in [a, b] {
            if let Err(pos) = sets.binary_search_by_key(&blk, |&(b, _)| b) {
                let ids =
                    selector(blk).map(|sel| reprobe_block(prober, &sel, cfg.rule, &mut routers));
                sets.insert(pos, (blk, ids));
            }
        }
    }
    let set_of = |blk: Block24| -> &Option<Vec<u32>> {
        let pos = sets
            .binary_search_by_key(&blk, |&(b, _)| b)
            .expect("every paired block was reprobed");
        &sets[pos].1
    };
    let mut identical = 0usize;
    let mut total = 0usize;
    for &(a, b) in &pairs {
        let (Some(sa), Some(sb)) = (set_of(a), set_of(b)) else {
            continue;
        };
        // Pairs with an unobservable side (the block went quiet since the
        // snapshot) cannot be compared and are skipped, as a real
        // reprobing campaign would.
        if sa.is_empty() || sb.is_empty() {
            continue;
        }
        total += 1;
        if sa == sb {
            identical += 1;
        }
    }
    ClusterValidation {
        identical_pairs: identical,
        total_pairs: total,
        probes_used: prober.probes_sent() - before,
    }
}

/// [`validate_cluster`], reporting the outcome through `rec`:
/// `aggregate.validated_clusters`, `aggregate.reprobe_pairs`,
/// `aggregate.reprobe_identical_pairs`, `aggregate.reprobe_probes`
/// counters and an `aggregate.pairs_per_cluster` histogram.
pub fn validate_cluster_observed<F>(
    prober: &mut Prober<'_>,
    aggs: &[Aggregate],
    members: &[u32],
    cfg: &ReprobeConfig,
    selector: F,
    rec: &dyn Recorder,
) -> ClusterValidation
where
    F: FnMut(Block24) -> Option<SelectedBlock>,
{
    let v = validate_cluster(prober, aggs, members, cfg, selector);
    rec.counter("aggregate.validated_clusters").inc();
    rec.counter("aggregate.reprobe_pairs")
        .add(v.total_pairs as u64);
    rec.counter("aggregate.reprobe_identical_pairs")
        .add(v.identical_pairs as u64);
    rec.counter("aggregate.reprobe_probes").add(v.probes_used);
    rec.histogram("aggregate.pairs_per_cluster")
        .record(v.total_pairs as u64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobbit::select::select_block;
    use netsim::build::{build, ScenarioConfig};
    use probe::zmap;
    use std::collections::BTreeMap;

    #[test]
    fn reprobe_recovers_full_lasthop_set_of_multi_lh_pop() {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        // Pick a responsive multi-LH pop block with many actives so all
        // routers appear. The block must still answer at the probe-time
        // epoch — a block that went quiet since the snapshot reprobes to
        // the empty set by design.
        let epoch = s.network.epoch();
        let block = snapshot.blocks().find(|&b| {
            let t = &s.truth.blocks[&b];
            let pop = &s.truth.pops[t.pop as usize];
            let profile = *s.network.block_profile(b).unwrap();
            t.homogeneous
                && pop.responsive
                && pop.lasthop_addrs.len() >= 2
                && snapshot.active_in(b).len() >= 30
                && !s
                    .network
                    .oracle()
                    .active_in_block(b, &profile, epoch)
                    .is_empty()
        });
        let Some(block) = block else { return };
        let sel = select_block(&snapshot, block).unwrap();
        let pop_lhs = {
            let t = &s.truth.blocks[&block];
            let mut v = s.truth.pops[t.pop as usize].lasthop_addrs.clone();
            v.sort();
            v
        };
        let mut prober = Prober::new(&mut s.network, 0xAA);
        let mut routers = RouterInterner::new();
        let set = reprobe_block(
            &mut prober,
            &sel,
            StoppingRule::confidence95(),
            &mut routers,
        );
        assert!(!set.is_empty());
        for &id in &set {
            assert!(pop_lhs.contains(&routers.addr(id)));
        }
    }

    #[test]
    fn same_pop_blocks_validate_as_homogeneous() {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        // Find two dense blocks of the same per-flow pop (identical sets).
        let mut by_pop: BTreeMap<u32, Vec<Block24>> = BTreeMap::new();
        let epoch = s.network.epoch();
        for b in snapshot.blocks() {
            let t = &s.truth.blocks[&b];
            let profile = *s.network.block_profile(b).unwrap();
            // Require responsiveness at probe time too — a block that went
            // quiet since the snapshot yields an empty reprobe set and the
            // pair is (correctly) skipped rather than compared.
            if t.homogeneous
                && s.truth.pops[t.pop as usize].responsive
                && snapshot.active_in(b).len() >= 25
                && s.network.oracle().active_in_block(b, &profile, epoch).len() >= 15
            {
                by_pop.entry(t.pop).or_default().push(b);
            }
        }
        let Some((_, blocks)) = by_pop
            .into_iter()
            .find(|(p, v)| v.len() >= 2 && s.truth.pops[*p as usize].lasthop_addrs.len() == 1)
        else {
            return;
        };
        let aggs = vec![Aggregate {
            lasthops: vec![],
            blocks: blocks[..2].to_vec(),
        }];
        let cfg = ReprobeConfig {
            seed: 1,
            ..Default::default()
        };
        let snapshot2 = snapshot.clone();
        let mut prober = Prober::new(&mut s.network, 0xAB);
        let v = validate_cluster(&mut prober, &aggs, &[0], &cfg, |b| {
            select_block(&snapshot2, b).ok()
        });
        assert_eq!(v.total_pairs, 1);
        assert!(v.homogeneous(), "same-pop single-LH pair must match");
        assert!(v.probes_used > 0);
    }

    #[test]
    fn different_pop_blocks_fail_validation() {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        let mut picks: Vec<Block24> = Vec::new();
        // Sorted-id set, same shape as the production interner index.
        let mut seen_pops: Vec<u32> = Vec::new();
        let mut first_of_pop = |pop: u32| match seen_pops.binary_search(&pop) {
            Ok(_) => false,
            Err(pos) => {
                seen_pops.insert(pos, pop);
                true
            }
        };
        let epoch = s.network.epoch();
        for b in snapshot.blocks() {
            let t = &s.truth.blocks[&b];
            let profile = *s.network.block_profile(b).unwrap();
            if t.homogeneous
                && s.truth.pops[t.pop as usize].responsive
                && snapshot.active_in(b).len() >= 25
                && s.network.oracle().active_in_block(b, &profile, epoch).len() >= 15
                && first_of_pop(t.pop)
            {
                picks.push(b);
                if picks.len() == 2 {
                    break;
                }
            }
        }
        if picks.len() < 2 {
            return;
        }
        let aggs = vec![Aggregate {
            lasthops: vec![],
            blocks: picks,
        }];
        let cfg = ReprobeConfig {
            seed: 1,
            ..Default::default()
        };
        let snapshot2 = snapshot.clone();
        let mut prober = Prober::new(&mut s.network, 0xAC);
        let v = validate_cluster(&mut prober, &aggs, &[0], &cfg, |b| {
            select_block(&snapshot2, b).ok()
        });
        assert_eq!(v.total_pairs, 1);
        assert!(!v.homogeneous(), "cross-pop pair must differ");
    }
}
