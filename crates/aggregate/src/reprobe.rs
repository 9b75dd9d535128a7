//! Reprobing validation of MCL clusters (paper Section 6.5).
//!
//! MCL suggests that aggregates with similar last-hop sets are co-located;
//! reprobing verifies it. The modified strategy differs from the original
//! (Section 3.5) in two ways: probing does not stop when a non-hierarchical
//! relationship appears, and each destination's last-hop enumeration uses
//! the probe budget needed to enumerate *all* interfaces at 95% confidence.
//! A cluster is declared homogeneous when every sampled pair of /24s ends
//! up with identical last-hop sets.
//!
//! [`validate_clusters`] is the one engine, in three steps:
//!
//! 1. **Plan** (serial): sample every cluster's /24 pairs with a ChaCha8
//!    shuffle seeded by [`ReprobeConfig::seed`].
//! 2. **Reprobe** (parallel): every distinct /24 of a sampled pair is one
//!    task. Scoped workers claim tasks through an atomic counter and probe
//!    over one shared `&Network`, each /24 with a fresh prober of ident
//!    [`REPROBE_IDENT`].
//! 3. **Judge** (serial): compare each cluster's pairs, in cluster order.
//!
//! The outcome does not depend on the thread count. The network keys every
//! piece of per-stream state (ICMP token buckets, the dynamics virtual
//! clock) by `(ident, destination /24)`, and every other draw is a pure
//! function of the probe bytes. A /24 is probed by exactly one prober, and
//! its probes start at sequence 0, so each stream sees the same probes in
//! the same order at any thread count.

use crate::identical::Aggregate;
use hobbit::select::SelectedBlock;
use netsim::{Addr, Block24, Network};
use obs::Recorder;
use probe::{LasthopOutcome, LasthopWalker, MdaMode, ProbeObs, Prober};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// ICMP ident of the reprobing process. Every /24 gets its own prober with
/// this ident; the network tells the streams apart by destination /24.
pub const REPROBE_IDENT: u16 = 0xF9;

/// Reprobing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReprobeConfig {
    /// Pairs sampled per cluster (paper: 20,000; scale down for scenarios).
    pub max_pairs_per_cluster: usize,
    /// Seed for pair sampling.
    pub seed: u64,
}

impl Default for ReprobeConfig {
    fn default() -> Self {
        ReprobeConfig {
            max_pairs_per_cluster: 200,
            seed: 0x5EED,
        }
    }
}

/// Validation result for one cluster.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterValidation {
    /// Pairs whose reprobed last-hop sets were identical.
    pub identical_pairs: usize,
    /// Pairs examined.
    pub total_pairs: usize,
    /// Probes spent reprobing the cluster's sampled /24s.
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
/// address, full interface enumeration, no early stop. Returns the block's
/// last-hop set, sorted and deduplicated.
///
/// It walks the block with classification's [`LasthopWalker`]: once a
/// destination reveals its hop distance, later destinations start from it,
/// and in [`MdaMode::Lite`] one diamond spans the block.
pub fn reprobe_block(prober: &mut Prober<'_>, sel: &SelectedBlock, mode: MdaMode) -> Vec<Addr> {
    let mut set: Vec<Addr> = Vec::new();
    let mut walker = LasthopWalker::new(mode);
    for dst in sel.actives() {
        if let LasthopOutcome::Found { lasthops, .. } = walker.probe(prober, dst).outcome {
            set.extend(lasthops);
        }
    }
    walker.finish(prober);
    set.sort_unstable();
    set.dedup();
    set
}

/// Validate clusters of aggregates: for each cluster (a list of aggregate
/// indices), sample up to [`ReprobeConfig::max_pairs_per_cluster`] /24
/// pairs, reprobe every involved /24 once on `threads` workers (at least
/// one) over `net`, and compare sets. Returns one validation per cluster,
/// in order.
///
/// `selector` maps a block to its selected (probe-able) form; blocks the
/// selector rejects are not probed, and their pairs are skipped. `mode` is
/// the run's MDA mode. Each cluster
/// reports through `rec`: `aggregate.validated_clusters`,
/// `aggregate.reprobe_pairs`, `aggregate.reprobe_identical_pairs`,
/// `aggregate.reprobe_probes` counters and an `aggregate.pairs_per_cluster`
/// histogram; probes report through the standard `probe.*` metrics.
#[allow(clippy::too_many_arguments)] // the plan's inputs plus the probing run's
pub fn validate_clusters<F>(
    net: &Network,
    aggs: &[Aggregate],
    clusters: &[&[u32]],
    cfg: &ReprobeConfig,
    mode: MdaMode,
    mut selector: F,
    threads: usize,
    rec: &dyn Recorder,
) -> Vec<ClusterValidation>
where
    F: FnMut(Block24) -> Option<SelectedBlock>,
{
    // Plan: every cluster's pairs, and the distinct /24s they touch.
    let plans: Vec<Vec<(Block24, Block24)>> = clusters
        .iter()
        .map(|members| sample_pairs(aggs, members, cfg))
        .collect();
    let mut blocks: Vec<Block24> = plans.iter().flatten().flat_map(|&(a, b)| [a, b]).collect();
    blocks.sort_unstable();
    blocks.dedup();

    // Reprobe: each selectable /24 is one task (in block order).
    let tasks: Vec<SelectedBlock> = blocks.into_iter().filter_map(&mut selector).collect();
    let next = AtomicUsize::new(0);
    let probe_obs = ProbeObs::bind(rec);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out task indices; the results
            // travel back through the thread join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(sel) = tasks.get(i) else { break };
            let mut prober = Prober::new(net, REPROBE_IDENT);
            prober.set_obs(probe_obs.clone());
            let set = reprobe_block(&mut prober, sel, mode);
            done.push((i, set, prober.probes_sent()));
        }
        done
    };
    let workers = threads.clamp(1, tasks.len().max(1));
    let mut reprobed: Vec<(Vec<Addr>, u64)> = vec![(Vec::new(), 0); tasks.len()];
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut results = work();
        for h in helpers {
            results.extend(h.join().expect("reprobe worker panicked"));
        }
        for (i, set, probes) in results {
            reprobed[i] = (set, probes);
        }
    });

    // Judge, in cluster order. A rejected block has no reprobe.
    let reprobe_of = |blk: Block24| {
        tasks
            .binary_search_by_key(&blk, |t| t.block)
            .ok()
            .map(|i| &reprobed[i])
    };
    plans
        .iter()
        .map(|pairs| {
            let mut touched: Vec<Block24> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            touched.sort_unstable();
            touched.dedup();
            let probes_used = touched
                .into_iter()
                .filter_map(reprobe_of)
                .map(|&(_, probes)| probes)
                .sum();
            let mut identical = 0usize;
            let mut total = 0usize;
            for &(a, b) in pairs {
                // Pairs with an unobservable side (a rejected block, or one
                // that went quiet since the snapshot) cannot be compared
                // and are skipped, as a real reprobing campaign would.
                let (Some((sa, _)), Some((sb, _))) = (reprobe_of(a), reprobe_of(b)) else {
                    continue;
                };
                if sa.is_empty() || sb.is_empty() {
                    continue;
                }
                total += 1;
                if sa == sb {
                    identical += 1;
                }
            }
            let v = ClusterValidation {
                identical_pairs: identical,
                total_pairs: total,
                probes_used,
            };
            rec.counter("aggregate.validated_clusters").inc();
            rec.counter("aggregate.reprobe_pairs")
                .add(v.total_pairs as u64);
            rec.counter("aggregate.reprobe_identical_pairs")
                .add(v.identical_pairs as u64);
            rec.counter("aggregate.reprobe_probes").add(v.probes_used);
            rec.histogram("aggregate.pairs_per_cluster")
                .record(v.total_pairs as u64);
            v
        })
        .collect()
}

/// A cluster's /24 pairs: every pair of its members' blocks, shuffled and
/// truncated to the cap when there are more.
fn sample_pairs(
    aggs: &[Aggregate],
    members: &[u32],
    cfg: &ReprobeConfig,
) -> Vec<(Block24, Block24)> {
    let blocks: Vec<Block24> = members
        .iter()
        .flat_map(|&m| aggs[m as usize].blocks.iter().copied())
        .collect();
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
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hobbit::select::select_block;
    use netsim::build::{build, derive_dynamics, Scenario, ScenarioConfig};
    use netsim::{FaultConfig, NetworkStats};
    use obs::{NullRecorder, Registry};
    use probe::{zmap, ZmapSnapshot};
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
        let mut prober = Prober::new(&s.network, 0xAA);
        let set = reprobe_block(&mut prober, &sel, MdaMode::Classic);
        assert!(!set.is_empty());
        for lh in &set {
            assert!(pop_lhs.contains(lh));
        }
    }

    /// Validate `aggs` as clusters of aggregate indices on `threads`
    /// workers, classic MDA, no metrics.
    fn validate(
        s: &Scenario,
        snapshot: &ZmapSnapshot,
        aggs: &[Aggregate],
        clusters: &[&[u32]],
        cfg: &ReprobeConfig,
    ) -> Vec<ClusterValidation> {
        validate_clusters(
            &s.network,
            aggs,
            clusters,
            cfg,
            MdaMode::Classic,
            |b| select_block(snapshot, b).ok(),
            1,
            &NullRecorder,
        )
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
        let v = validate(&s, &snapshot, &aggs, &[&[0]], &cfg).remove(0);
        assert_eq!(v.total_pairs, 1);
        assert!(v.homogeneous(), "same-pop single-LH pair must match");
        assert!(v.probes_used > 0);
    }

    #[test]
    fn different_pop_blocks_fail_validation() {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        let mut picks: Vec<Block24> = Vec::new();
        // The PoPs seen so far, sorted.
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
        let v = validate(&s, &snapshot, &aggs, &[&[0]], &cfg).remove(0);
        assert_eq!(v.total_pairs, 1);
        assert!(!v.homogeneous(), "cross-pop pair must differ");
    }

    /// A fresh, scanned tiny(42) world moved on one epoch (reprobing is a
    /// later campaign), with one single-/24 aggregate per selectable block
    /// and one cluster per responsive PoP that serves several. `lossy` arms link loss,
    /// ICMP rate limits and world dynamics after the scan, as a run does.
    /// Reprobing leaves per-stream state behind in the network, so every
    /// comparison below starts from its own fresh world.
    fn clustered_world(lossy: bool) -> (Scenario, ZmapSnapshot, Vec<Aggregate>, Vec<Vec<u32>>) {
        let mut s = build(ScenarioConfig::tiny(42));
        let snapshot = zmap::scan_all(&mut s.network, 1);
        if lossy {
            s.network.set_faults(FaultConfig::lossy(0.05, 0.5));
            let dynamics = derive_dynamics(&s, 0.5, 64);
            s.network.set_dynamics(dynamics);
        }
        let epoch = s.network.epoch() + 1;
        s.network.set_epoch(epoch);
        let mut aggs = Vec::new();
        let mut by_pop: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for b in snapshot.blocks() {
            let pop = s.truth.blocks[&b].pop;
            if s.truth.pops[pop as usize].responsive && select_block(&snapshot, b).is_ok() {
                by_pop.entry(pop).or_default().push(aggs.len() as u32);
                aggs.push(Aggregate {
                    lasthops: vec![],
                    blocks: vec![b],
                });
            }
        }
        let clusters = by_pop.into_values().filter(|c| c.len() > 1).collect();
        (s, snapshot, aggs, clusters)
    }

    fn mode(lossy: bool) -> MdaMode {
        if lossy {
            MdaMode::Lite
        } else {
            MdaMode::Classic
        }
    }

    /// Validate every cluster of a fresh world on `threads` workers;
    /// returns the validations and the network's final counters.
    fn validate_world(lossy: bool, threads: usize) -> (Vec<ClusterValidation>, NetworkStats) {
        let (s, snapshot, aggs, clusters) = clustered_world(lossy);
        let clusters: Vec<&[u32]> = clusters.iter().map(Vec::as_slice).collect();
        let v = validate_clusters(
            &s.network,
            &aggs,
            &clusters,
            &ReprobeConfig::default(),
            mode(lossy),
            |b| select_block(&snapshot, b).ok(),
            threads,
            &NullRecorder,
        );
        (v, s.network.net_stats())
    }

    #[test]
    fn validations_do_not_depend_on_the_thread_count() {
        for lossy in [false, true] {
            let one = validate_world(lossy, 1);
            assert!(
                one.0.iter().filter(|v| v.total_pairs > 0).count() >= 3,
                "the world has clusters to judge: {:?}",
                one.0
            );
            if lossy {
                assert!(one.1.total_drops() > 0, "{:?}", one.1);
                assert!(one.1.total_dynamics() > 0, "{:?}", one.1);
            }
            for threads in [2, 4] {
                assert_eq!(
                    validate_world(lossy, threads),
                    one,
                    "lossy={lossy}: validations or network counters moved at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_cluster_validates_alike_alone_and_late_in_a_batch() {
        // Regression: one prober used to serve every cluster, and its
        // lifetime retry budget ran dry partway through a lossy batch, so
        // later clusters got single attempts. Each /24 now gets a fresh
        // prober — its own sequence numbers and retry budget — so the
        // earlier clusters' probes and retries leave a late cluster alone.
        // Validate every cluster of a fresh lossy world, or only cluster
        // `only`.
        let run = |only: Option<usize>| {
            let (s, snapshot, aggs, clusters) = clustered_world(true);
            let clusters: Vec<&[u32]> = match only {
                Some(i) => vec![&clusters[i]],
                None => clusters.iter().map(Vec::as_slice).collect(),
            };
            let reg = Registry::new();
            let v = validate_clusters(
                &s.network,
                &aggs,
                &clusters,
                &ReprobeConfig::default(),
                mode(true),
                |b| select_block(&snapshot, b).ok(),
                2,
                &reg,
            );
            (v, reg.counter_value("probe.retries").unwrap_or(0))
        };
        let (batch, batch_retries) = run(None);
        // The latest cluster with pairs to judge.
        let late = (0..batch.len())
            .rev()
            .find(|&i| batch[i].total_pairs > 0)
            .expect("some cluster has pairs");
        assert!(late > 0, "{batch:?}");
        let (alone, alone_retries) = run(Some(late));
        assert!(
            batch_retries > alone_retries,
            "the batch retries {batch_retries} times, the late cluster alone {alone_retries}"
        );
        assert_eq!(alone, [batch[late].clone()]);
    }
}
