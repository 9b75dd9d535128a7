//! Per-/24 classification: the Hobbit probing state machine
//! (paper Sections 2.3, 3.3–3.5, Table 1).
//!
//! Destinations are probed in round-robin /26 order; after each resolved
//! last-hop the grouping is re-tested. Probing terminates early when
//!
//! * a non-hierarchical relationship appears (homogeneous — load balancing
//!   is the only explanation), or
//! * six destinations have resolved to one common last-hop router
//!   (homogeneous at 95%, by the MDA single-interface rule), or
//! * the confidence table says enough destinations were probed for the
//!   observed cardinality.

use crate::confidence::ConfidenceTable;
use crate::hierarchy::Relationship;
use crate::layout::BlockTable;
use crate::schedule::{probing_order, reprobe_order};
use crate::select::SelectedBlock;
use netsim::{Addr, Block24};
use obs::{Counter, Histogram, Recorder};
use probe::{LasthopOutcome, LasthopWalker, MdaMode, Prober};
use serde::{Deserialize, Serialize};

/// Classification outcomes (the rows of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Classification {
    /// Not analyzable: fewer responsive addresses at probe time than the
    /// method requires (< 4, or fewer than the confidence table demands).
    TooFewActive,
    /// Not analyzable: destinations answer but no last-hop router does.
    UnresponsiveLasthop,
    /// Homogeneous: all destinations share one last-hop router.
    SameLasthop,
    /// Homogeneous: groups are non-hierarchical (load balancing).
    NonHierarchical,
    /// Different last-hop routers in a hierarchical arrangement — possibly
    /// heterogeneous (residual ≤ 1 − confidence level).
    Hierarchical,
}

impl Classification {
    /// Whether the block was classified homogeneous.
    pub fn is_homogeneous(self) -> bool {
        matches!(
            self,
            Classification::SameLasthop | Classification::NonHierarchical
        )
    }

    /// Whether the block could be analyzed at all.
    pub fn is_analyzable(self) -> bool {
        !matches!(
            self,
            Classification::TooFewActive | Classification::UnresponsiveLasthop
        )
    }

    /// Table 1 row label.
    pub fn label(self) -> &'static str {
        match self {
            Classification::TooFewActive => "Too few active",
            Classification::UnresponsiveLasthop => "Unresponsive last-hop",
            Classification::SameLasthop => "Same last-hop router",
            Classification::NonHierarchical => "Non-hierarchical",
            Classification::Hierarchical => "Different but hierarchical",
        }
    }

    /// Kebab-case slug used in metric names (`classify.verdict.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            Classification::TooFewActive => "too-few-active",
            Classification::UnresponsiveLasthop => "unresponsive-lasthop",
            Classification::SameLasthop => "same-lasthop",
            Classification::NonHierarchical => "non-hierarchical",
            Classification::Hierarchical => "hierarchical",
        }
    }

    /// Every classification outcome, in declaration order.
    pub const ALL: [Classification; 5] = [
        Classification::TooFewActive,
        Classification::UnresponsiveLasthop,
        Classification::SameLasthop,
        Classification::NonHierarchical,
        Classification::Hierarchical,
    ];
}

/// Minimum resolved destinations to call a single-group block "same
/// last-hop" (paper: 6, from the MDA `n(1)` rule).
pub const SAME_LASTHOP_MIN: usize = 6;

/// Minimum responsive destinations for any verdict, and minimum
/// snapshot-active addresses for selection (paper §3.3: 4).
pub const MIN_ACTIVE: usize = 4;

/// Per-probe retries when fault injection is on. Three retries bound the
/// residual per-call loss well below a percent at the sweep's loss rates,
/// and a token bucket refilling at rate `r` denies a stream at most
/// `ceil(1/r) - 1` times in a row — so rate ≥ 0.25 is always recovered.
pub const FAULTED_RETRIES: u32 = 3;

/// The per-probe retries a run classifies (and calibrates) with:
/// [`FAULTED_RETRIES`] on a faulted network, else the prober's default 1.
pub fn prober_retries(faulted: bool) -> u32 {
    if faulted {
        FAULTED_RETRIES
    } else {
        1
    }
}

/// What varies between classification runs.
#[derive(Clone, Copy, Debug)]
pub struct HobbitConfig {
    /// Seed for the probing order shuffle.
    pub seed: u64,
    /// Per-probe retries the block's prober uses ([`prober_retries`]).
    pub prober_retries: u32,
    /// MDA stopping discipline: `Classic` runs the full ladder at every
    /// destination; `Lite` confirms a block's last-hop diamond once and
    /// lets later destinations stop early (escalating on inconsistent
    /// evidence). The per-block diamond state spans the reprobe pass.
    pub mda_mode: MdaMode,
    /// Probes per virtual epoch when the world under measurement evolves
    /// (netsim dynamics). 0 — the default — means a static world: no epoch
    /// tagging, and measurements serialize byte-identically to historical
    /// records.
    pub dynamics_period: u64,
}

impl Default for HobbitConfig {
    fn default() -> Self {
        HobbitConfig {
            seed: 0x40BB17,
            prober_retries: prober_retries(false),
            mda_mode: MdaMode::Classic,
            dynamics_period: 0,
        }
    }
}

/// The measurement record for one /24.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockMeasurement {
    /// The measured block.
    pub block: Block24,
    /// Table 1 verdict.
    pub classification: Classification,
    /// Distinct last-hop routers observed (sorted) — the signature used by
    /// aggregation (Section 5).
    pub lasthop_set: Vec<Addr>,
    /// Per-destination observations: (destination, its last-hop routers).
    pub per_dest: Vec<(Addr, Vec<Addr>)>,
    /// Destinations probed (including unresponsive ones).
    pub dests_probed: usize,
    /// Destinations whose last-hop was resolved.
    pub dests_resolved: usize,
    /// Destinations that echoed but whose last-hop stayed anonymous.
    pub dests_anonymous: usize,
    /// Destinations probed that never answered (timed out even after the
    /// reprobe pass) — the gracefully-degraded remainder.
    pub dests_unresolved: usize,
    /// Targeted reprobe attempts spent on initially unresolved destinations.
    pub reprobes: usize,
    /// Probe packets spent on this block.
    pub probes_used: u64,
    /// Virtual epoch each `per_dest` entry resolved in (parallel to
    /// `per_dest`, derived from the block prober's own probe count against
    /// [`HobbitConfig::dynamics_period`]). Empty — and omitted from the
    /// serialized record — for static worlds.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub dest_epochs: Vec<u32>,
}

impl BlockMeasurement {
    /// Rebuild the dense last-hop table from the stored observations.
    pub fn table(&self) -> BlockTable {
        let mut t = BlockTable::new(self.block);
        for (a, l) in &self.per_dest {
            t.add(*a, l);
        }
        t
    }
}

/// Pre-interned classification metrics: per-block outcome counters and
/// size histograms, bumped once per classified block. All of these are
/// deterministic across thread counts (classification itself is
/// byte-identical at any worker count), so they live outside the metrics
/// document's `timing` key.
#[derive(Clone, Debug)]
pub struct ClassifyObs {
    blocks: Counter,
    dests_probed: Counter,
    dests_resolved: Counter,
    dests_anonymous: Counter,
    dests_unresolved: Counter,
    reprobes: Counter,
    reprobe_passes: Counter,
    verdicts: [Counter; 5],
    probes_per_block: Histogram,
    dests_per_block: Histogram,
    routers_per_block: Histogram,
    dense_slots: Counter,
}

impl ClassifyObs {
    /// Intern the standard `classify.*` metrics in `rec`. All verdict
    /// counters are interned up front so the document schema does not
    /// depend on which outcomes a particular run happens to produce.
    pub fn bind(rec: &dyn Recorder) -> Self {
        ClassifyObs {
            blocks: rec.counter("classify.blocks"),
            dests_probed: rec.counter("classify.dests_probed"),
            dests_resolved: rec.counter("classify.dests_resolved"),
            dests_anonymous: rec.counter("classify.dests_anonymous"),
            dests_unresolved: rec.counter("classify.dests_unresolved"),
            reprobes: rec.counter("classify.reprobes"),
            reprobe_passes: rec.counter("classify.reprobe_passes"),
            verdicts: Classification::ALL
                .map(|c| rec.counter(&format!("classify.verdict.{}", c.slug()))),
            probes_per_block: rec.histogram("classify.probes_per_block"),
            dests_per_block: rec.histogram("classify.dests_per_block"),
            routers_per_block: rec.histogram("layout.routers_per_block"),
            dense_slots: rec.counter("layout.dense_slots"),
        }
    }

    /// Record one finished block measurement.
    pub fn record(&self, m: &BlockMeasurement) {
        self.blocks.inc();
        self.dests_probed.add(m.dests_probed as u64);
        self.dests_resolved.add(m.dests_resolved as u64);
        self.dests_anonymous.add(m.dests_anonymous as u64);
        self.dests_unresolved.add(m.dests_unresolved as u64);
        self.reprobes.add(m.reprobes as u64);
        if m.reprobes > 0 {
            self.reprobe_passes.inc();
        }
        let idx = Classification::ALL
            .iter()
            .position(|&c| c == m.classification)
            .expect("ALL covers every classification");
        self.verdicts[idx].inc();
        self.probes_per_block.record(m.probes_used);
        self.dests_per_block.record(m.dests_probed as u64);
        // Dense-layout occupancy: distinct routers in the block's router
        // table and host slots set in its observation bitset. Both derive
        // from measurement content, so they stay thread-count-deterministic.
        self.routers_per_block.record(m.lasthop_set.len() as u64);
        self.dense_slots.add(m.dests_resolved as u64);
    }
}

/// Re-test the grouping after a new resolution; `Some` means probing can
/// stop early with this verdict (paper §3.3's termination conditions).
///
/// `table` is the incrementally maintained dense grouping and `resolved`
/// the number of destinations with a resolved last-hop — the classifier
/// updates both per resolution instead of rebuilding a map each time.
pub fn early_verdict(
    table: &BlockTable,
    resolved: usize,
    conf: &ConfidenceTable,
) -> Option<Classification> {
    match table.relationship() {
        Relationship::NonHierarchical => Some(Classification::NonHierarchical),
        Relationship::SingleGroup => {
            (resolved >= SAME_LASTHOP_MIN).then_some(Classification::SameLasthop)
        }
        // Without a table entry: probe all active addresses (paper §3.5).
        Relationship::Hierarchical => match conf.required_probes(table.cardinality()) {
            Some(required) if resolved >= required => Some(Classification::Hierarchical),
            _ => None,
        },
    }
}

/// The ICMP ident a block's classification prober uses. Derived from the
/// block address — never from the worker or shard id — so the probe stream
/// a block sees is independent of the thread count and of which worker
/// happens to classify it.
pub fn block_ident(block: Block24) -> u16 {
    0x4000 | (netsim::hash::mix2(block.0 as u64, 0x1DE7) as u16 & 0x3FFF)
}

/// What probing one destination did to a block's classification.
enum Resolved {
    /// The grouping now decides the block.
    Verdict(Classification),
    /// The destination resolved (or its last hop stayed anonymous) without
    /// deciding the block.
    Open,
    /// The destination did not answer.
    Silent,
}

/// Classify one selected /24 by probing.
pub fn classify_block(
    prober: &mut Prober<'_>,
    sel: &SelectedBlock,
    conf: &ConfidenceTable,
    cfg: &HobbitConfig,
) -> BlockMeasurement {
    prober.retries = cfg.prober_retries;
    let probes_before = prober.probes_sent();
    let order = probing_order(sel, cfg.seed);
    let mut per_dest: Vec<(Addr, Vec<Addr>)> = Vec::new();
    // Epoch tags, parallel to `per_dest`: the block prober owns its probe
    // stream, so its own probe count against `dynamics_period` is exactly
    // the virtual clock the evolving world ticks on. Static worlds
    // (period 0) record nothing.
    let mut dest_epochs: Vec<u32> = Vec::new();
    let epoch_now = |prober: &Prober<'_>| {
        (prober.probes_sent() - probes_before)
            .checked_div(cfg.dynamics_period)
            .unwrap_or(0) as u32
    };
    // The dense grouping, maintained incrementally: each resolution appends
    // to the block-local router table and flips host bits, so the per-
    // resolution re-test never rebuilds a map from scratch.
    let mut table = BlockTable::new(sel.block);
    let mut anonymous = 0usize;
    let mut probed = 0usize;
    let mut unresolved: Vec<Addr> = Vec::new();
    let mut verdict: Option<Classification> = None;
    // One walk for the block's first pass and reprobe pass: destinations
    // of one /24 sit at the same hop distance (the first resolved one seeds
    // the rest, saving the per-destination echo round, cf. paper §3.4) and
    // behind the same MDA-Lite diamond.
    let mut walker = LasthopWalker::new(cfg.mda_mode);
    // Probe one destination and fold its outcome into the grouping; a
    // resolution re-tests the grouping for an early verdict.
    let mut resolve = |prober: &mut Prober<'_>, dst: Addr| {
        match walker.probe(prober, dst).outcome {
            LasthopOutcome::Found { lasthops, .. } => {
                table.add(dst, &lasthops);
                if cfg.dynamics_period > 0 {
                    dest_epochs.push(epoch_now(prober));
                }
                per_dest.push((dst, lasthops));
                match early_verdict(&table, per_dest.len(), conf) {
                    Some(v) => Resolved::Verdict(v),
                    None => Resolved::Open,
                }
            }
            LasthopOutcome::AnonymousLasthop { .. } => {
                anonymous += 1;
                Resolved::Open
            }
            // A silent destination is not evidence about the block's routing:
            // it stays unresolved for the targeted reprobe pass instead of
            // shrinking a last-hop group.
            LasthopOutcome::Unresponsive => Resolved::Silent,
        }
    };

    for dst in order {
        // Cooperative cancellation (supervision watchdog): abandon the
        // block between destinations. The partial measurement is discarded
        // by the supervisor, so breaking early never changes a verdict.
        if prober.is_cancelled() {
            break;
        }
        probed += 1;
        match resolve(prober, dst) {
            Resolved::Verdict(v) => {
                verdict = Some(v);
                break;
            }
            Resolved::Open => {}
            Resolved::Silent => unresolved.push(dst),
        }
    }

    // Graceful degradation: probing ended without a verdict while some
    // destinations never answered — give exactly those one more chance
    // (a lost answer may be churn or transient loss, not absence).
    let mut reprobes = 0usize;
    if verdict.is_none() {
        for dst in reprobe_order(sel.block, &unresolved, cfg.seed) {
            if prober.is_cancelled() {
                break;
            }
            reprobes += 1;
            if let Resolved::Verdict(v) = resolve(prober, dst) {
                verdict = Some(v);
                break;
            }
        }
    }
    walker.finish(prober);

    let classification = verdict.unwrap_or_else(|| {
        // Probing exhausted the active list without an early verdict.
        if per_dest.len() < MIN_ACTIVE {
            if anonymous >= MIN_ACTIVE {
                Classification::UnresponsiveLasthop
            } else {
                Classification::TooFewActive
            }
        } else {
            match table.relationship() {
                Relationship::NonHierarchical => Classification::NonHierarchical,
                Relationship::SingleGroup => {
                    if per_dest.len() >= SAME_LASTHOP_MIN {
                        Classification::SameLasthop
                    } else {
                        Classification::TooFewActive
                    }
                }
                Relationship::Hierarchical => {
                    match conf.required_probes(table.cardinality()) {
                        // The confidence table says we'd have needed more
                        // destinations than this block could offer.
                        Some(required) if per_dest.len() < required => Classification::TooFewActive,
                        _ => Classification::Hierarchical,
                    }
                }
            }
        }
    });

    let lasthop_set = table.lasthop_set();

    BlockMeasurement {
        block: sel.block,
        classification,
        lasthop_set,
        dests_resolved: per_dest.len(),
        dests_anonymous: anonymous,
        dests_unresolved: probed - per_dest.len() - anonymous,
        reprobes,
        per_dest,
        dests_probed: probed,
        probes_used: prober.probes_sent() - probes_before,
        dest_epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_block;
    use netsim::build::{build, ScenarioConfig};
    use probe::zmap;

    #[test]
    fn static_measurements_serialize_without_epoch_tags() {
        // The dest_epochs field must vanish from static-world records so
        // historical reports stay byte-identical.
        let m = BlockMeasurement {
            block: Block24(0x0C_0000),
            classification: Classification::TooFewActive,
            lasthop_set: vec![],
            per_dest: vec![],
            dests_probed: 1,
            dests_resolved: 0,
            dests_anonymous: 0,
            dests_unresolved: 1,
            reprobes: 0,
            probes_used: 3,
            dest_epochs: vec![],
        };
        let json = serde_json::to_string(&m).unwrap();
        assert!(!json.contains("dest_epochs"), "{json}");
        let back: BlockMeasurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        // Tagged records carry — and round-trip — their epochs.
        let tagged = BlockMeasurement {
            dest_epochs: vec![0, 0, 1],
            ..m
        };
        let json = serde_json::to_string(&tagged).unwrap();
        assert!(json.contains("dest_epochs"));
        let back: BlockMeasurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dest_epochs, vec![0, 0, 1]);
    }

    struct World {
        scenario: netsim::Scenario,
        snapshot: probe::ZmapSnapshot,
    }

    impl World {
        fn new(seed: u64) -> Self {
            let mut scenario = build(ScenarioConfig::tiny(seed));
            let snapshot = zmap::scan_all(&mut scenario.network, 1);
            World { scenario, snapshot }
        }

        fn classify(&mut self, block: Block24) -> Option<BlockMeasurement> {
            let sel = select_block(&self.snapshot, block).ok()?;
            let mut prober = Prober::new(&self.scenario.network, 0x0B17);
            Some(classify_block(
                &mut prober,
                &sel,
                &ConfidenceTable::empty(),
                &HobbitConfig::default(),
            ))
        }
    }

    /// The retry evidence lives in the prober, and every attempt at a
    /// block gets a fresh one: a block classified right after a cancelled
    /// attempt at it on the same worker measures what a fresh
    /// classification does.
    #[test]
    fn a_block_after_a_cancelled_attempt_measures_as_fresh() {
        let w = World::new(42);
        let net = &w.scenario.network;
        let (table, cfg) = (ConfidenceTable::empty(), HobbitConfig::default());
        // Cellular radios stay warm after the cancelled attempt; any other
        // block's replies depend only on its own probe stream.
        let sel = w
            .snapshot
            .blocks()
            .filter(|&b| net.block_profile(b).unwrap().kind != netsim::HostKind::Cellular)
            .find_map(|b| select_block(&w.snapshot, b).ok())
            .expect("tiny scenario has a selectable non-cellular block");
        let classify = |net: &netsim::Network| {
            let mut prober = Prober::new(net, block_ident(sel.block));
            classify_block(&mut prober, &sel, &table, &cfg)
        };
        let fresh = classify(&net.clone());
        // The cancelled attempt walks half the block, then its token rises.
        let mut cancelled = Prober::new(net, block_ident(sel.block));
        cancelled.retries = cfg.prober_retries;
        let mut walker = LasthopWalker::new(cfg.mda_mode);
        for &dst in sel.quarters.iter().flatten().take(sel.active_count() / 2) {
            walker.probe(&mut cancelled, dst);
        }
        assert!(cancelled.probes_sent() > 0);
        let token = probe::CancelToken::new();
        cancelled.set_cancel_token(token.clone());
        token.cancel();
        let _discarded = classify_block(&mut cancelled, &sel, &table, &cfg);
        assert_eq!(classify(net), fresh);
    }

    #[test]
    fn homogeneous_blocks_mostly_classified_homogeneous() {
        let mut w = World::new(42);
        let blocks: Vec<Block24> = w
            .snapshot
            .blocks()
            .filter(|b| {
                let t = &w.scenario.truth.blocks[b];
                t.homogeneous && w.scenario.truth.pops[t.pop as usize].responsive
            })
            .collect();
        let mut homog = 0;
        let mut total = 0;
        for b in blocks {
            if let Some(m) = w.classify(b) {
                if m.classification.is_analyzable() {
                    total += 1;
                    if m.classification.is_homogeneous() {
                        homog += 1;
                    }
                }
            }
        }
        assert!(total >= 10, "need analyzable blocks, got {total}");
        let frac = homog as f64 / total as f64;
        assert!(frac > 0.75, "only {homog}/{total} homogeneous");
    }

    #[test]
    fn heterogeneous_blocks_classified_hierarchical() {
        let mut w = World::new(42);
        let blocks: Vec<Block24> = w
            .snapshot
            .blocks()
            .filter(|b| !w.scenario.truth.blocks[b].homogeneous)
            .collect();
        let mut hier = 0;
        let mut analyzable = 0;
        for b in blocks {
            if let Some(m) = w.classify(b) {
                if m.classification.is_analyzable() {
                    analyzable += 1;
                    if m.classification == Classification::Hierarchical {
                        hier += 1;
                    }
                }
            }
        }
        if analyzable > 0 {
            assert!(
                hier as f64 / analyzable as f64 > 0.6,
                "{hier}/{analyzable} hierarchical"
            );
        }
    }

    #[test]
    fn unresponsive_pop_blocks_flagged() {
        let mut w = World::new(42);
        let blocks: Vec<Block24> = w
            .snapshot
            .blocks()
            .filter(|b| {
                let t = &w.scenario.truth.blocks[b];
                t.homogeneous && !w.scenario.truth.pops[t.pop as usize].responsive
            })
            .collect();
        let mut unresp = 0;
        let mut total = 0;
        for b in blocks {
            if let Some(m) = w.classify(b) {
                total += 1;
                if m.classification == Classification::UnresponsiveLasthop {
                    unresp += 1;
                }
            }
        }
        if total > 0 {
            assert!(
                unresp as f64 / total as f64 > 0.6,
                "{unresp}/{total} flagged unresponsive-lasthop"
            );
        }
    }

    #[test]
    fn same_lasthop_early_exit_costs_six_destinations() {
        let mut w = World::new(42);
        // Find a single-LH pop block with plenty of actives.
        let block = w.snapshot.blocks().find(|b| {
            let t = &w.scenario.truth.blocks[b];
            t.homogeneous
                && w.scenario.truth.pops[t.pop as usize].responsive
                && w.scenario.truth.pops[t.pop as usize].lasthop_addrs.len() == 1
                && w.snapshot.active_in(*b).len() >= 12
        });
        let Some(block) = block else { return };
        let m = w.classify(block).unwrap();
        assert_eq!(m.classification, Classification::SameLasthop);
        assert!(
            m.dests_probed <= 10,
            "early exit should stop near 6 destinations, probed {}",
            m.dests_probed
        );
    }

    #[test]
    fn measurement_records_are_consistent() {
        let mut w = World::new(42);
        let block = w.snapshot.blocks().next().unwrap();
        if let Some(m) = w.classify(block) {
            assert!(m.dests_resolved <= m.dests_probed);
            assert_eq!(m.dests_resolved, m.per_dest.len());
            assert_eq!(
                m.dests_probed,
                m.dests_resolved + m.dests_anonymous + m.dests_unresolved,
                "every probed destination is resolved, anonymous, or unresolved"
            );
            let set: std::collections::BTreeSet<Addr> = m
                .per_dest
                .iter()
                .flat_map(|(_, l)| l.iter().copied())
                .collect();
            assert_eq!(m.lasthop_set, set.into_iter().collect::<Vec<_>>());
            assert!(m.probes_used > 0);
        }
    }

    /// Classify every snapshot block fault-free under the given MDA mode.
    fn classify_with_mode(seed: u64, mode: MdaMode) -> Vec<BlockMeasurement> {
        let w = World::new(seed);
        let cfg = HobbitConfig {
            mda_mode: mode,
            ..HobbitConfig::default()
        };
        let blocks: Vec<Block24> = w.snapshot.blocks().collect();
        let mut out = Vec::new();
        for b in blocks {
            let Ok(sel) = select_block(&w.snapshot, b) else {
                continue;
            };
            let mut prober = Prober::new(&w.scenario.network, 0x0B17);
            out.push(classify_block(
                &mut prober,
                &sel,
                &ConfidenceTable::empty(),
                &cfg,
            ));
        }
        out
    }

    #[test]
    fn mda_lite_cuts_probe_cost_without_changing_verdicts() {
        let classic = classify_with_mode(42, MdaMode::Classic);
        let lite = classify_with_mode(42, MdaMode::Lite);
        assert_eq!(classic.len(), lite.len());
        let mut drift = 0usize;
        for (c, l) in classic.iter().zip(&lite) {
            assert_eq!(c.block, l.block);
            if c.classification != l.classification {
                drift += 1;
            }
            assert!(
                l.probes_used <= c.probes_used,
                "block {:?}: lite {} > classic {}",
                c.block,
                l.probes_used,
                c.probes_used
            );
        }
        assert!(
            drift * 100 <= classic.len(),
            "verdict drift {drift}/{} exceeds 1%",
            classic.len()
        );
        let cp: u64 = classic.iter().map(|m| m.probes_used).sum();
        let lp: u64 = lite.iter().map(|m| m.probes_used).sum();
        assert!(lp < cp, "lite must be cheaper overall: {lp} vs {cp}");
    }

    /// Classify every snapshot block on a faulted network with the given
    /// config, returning the measurements.
    fn classify_all_with(
        seed: u64,
        faults: netsim::FaultConfig,
        cfg: &HobbitConfig,
    ) -> Vec<BlockMeasurement> {
        let mut w = World::new(seed);
        w.scenario.network.set_faults(faults);
        let blocks: Vec<Block24> = w.snapshot.blocks().collect();
        let mut out = Vec::new();
        for b in blocks {
            let Ok(sel) = select_block(&w.snapshot, b) else {
                continue;
            };
            let mut prober = Prober::new(&w.scenario.network, 0x0B17);
            out.push(classify_block(
                &mut prober,
                &sel,
                &ConfidenceTable::empty(),
                cfg,
            ));
        }
        out
    }

    #[test]
    fn lossy_network_triggers_targeted_reprobes() {
        // Heavy link loss and no per-probe retries: first-pass timeouts are
        // common, so the reprobe pass must engage — and win some answers
        // back (each reprobe is a fresh draw against the loss process).
        let cfg = HobbitConfig {
            prober_retries: 0,
            ..HobbitConfig::default()
        };
        let ms = classify_all_with(42, netsim::FaultConfig::lossy(0.10, 0.5), &cfg);
        let reprobes: usize = ms.iter().map(|m| m.reprobes).sum();
        assert!(reprobes > 0, "loss must leave unresolved dests to reprobe");
        for m in &ms {
            assert_eq!(
                m.dests_probed,
                m.dests_resolved + m.dests_anonymous + m.dests_unresolved
            );
        }
    }

    #[test]
    fn reprobing_recovers_unresolved_destinations() {
        let cfg = HobbitConfig {
            prober_retries: 0,
            ..HobbitConfig::default()
        };
        let ms = classify_all_with(42, netsim::FaultConfig::lossy(0.10, 0.5), &cfg);
        // A pass that ends without a verdict revisits every first-pass
        // silence once, and one that ends on a verdict won an answer back;
        // so without a recovery, each reprobed block would end with as many
        // unresolved destinations as it reprobed.
        let reprobed: Vec<&BlockMeasurement> = ms.iter().filter(|m| m.reprobes > 0).collect();
        let reprobes: usize = reprobed.iter().map(|m| m.reprobes).sum();
        let still: usize = reprobed.iter().map(|m| m.dests_unresolved).sum();
        assert!(
            still < reprobes,
            "reprobing should resolve some lost destinations ({still} of {reprobes} stay silent)"
        );
    }
}
