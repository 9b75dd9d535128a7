//! End-to-end integration: the full Hobbit pipeline against ground truth.
//!
//! The paper could only argue its inferences are plausible; the simulator
//! knows the answers, so these tests hold the whole pipeline to
//! quantitative accuracy bounds.

use aggregate::{sweep_inflation, validate_clusters, ReprobeConfig};
use hobbit::{
    block_ident, classify_block, select_all, select_block, Classification, ConfidenceTable,
    HobbitConfig,
};
use netsim::build::{build, derive_dynamics, ScenarioConfig};
use netsim::Block24;
use obs::NullRecorder;
use probe::{zmap, MdaMode, Prober};
use std::collections::BTreeMap;

fn pipeline() -> experiments::Pipeline {
    experiments::Pipeline::builder()
        .seed(42)
        .scale(0.02)
        .threads(4)
        .run()
}

#[test]
fn homogeneity_verdicts_are_precise() {
    let p = pipeline();
    let mut verdicts = 0usize;
    let mut correct = 0usize;
    for m in &p.measurements {
        if m.classification.is_homogeneous() {
            verdicts += 1;
            if p.scenario.truth.is_homogeneous(m.block) {
                correct += 1;
            }
        }
    }
    assert!(verdicts > 100, "need a real sample, got {verdicts}");
    let precision = correct as f64 / verdicts as f64;
    assert!(
        precision > 0.97,
        "homogeneous verdicts only {precision:.3} precise"
    );
}

#[test]
fn heterogeneous_flags_are_precise_and_compositions_match_truth() {
    let p = pipeline();
    let mut flagged = 0usize;
    let mut correct = 0usize;
    let mut comp_checked = 0usize;
    for m in &p.measurements {
        let Some(comp) = hobbit::very_likely_heterogeneous(m) else {
            continue;
        };
        flagged += 1;
        if !p.scenario.truth.is_homogeneous(m.block) {
            correct += 1;
            if comp.tiles_fully() {
                // The observed composition must equal the allocated one.
                let truth = p.scenario.truth.composition(m.block).unwrap();
                assert_eq!(comp.lens(), truth, "block {}", m.block);
                comp_checked += 1;
            }
        }
    }
    assert!(flagged >= 10, "too few flags: {flagged}");
    assert!(
        correct as f64 / flagged as f64 > 0.9,
        "hetero flag precision {correct}/{flagged}"
    );
    assert!(comp_checked >= 3, "no compositions verified");
}

#[test]
fn aggregates_are_pure_and_recall_pops() {
    let p = pipeline();
    let aggs = p.aggregates();
    // Purity: every aggregate's blocks come from one ground-truth PoP.
    let mut impure = 0usize;
    let mut multi = 0usize;
    for agg in &aggs {
        if agg.size() < 2 {
            continue;
        }
        multi += 1;
        let pops: std::collections::BTreeSet<u32> = agg
            .blocks
            .iter()
            .filter_map(|b| p.scenario.truth.blocks.get(b))
            .map(|t| t.pop)
            .collect();
        if pops.len() > 1 {
            impure += 1;
        }
    }
    assert!(multi >= 20, "need multi-block aggregates, got {multi}");
    assert!(
        (impure as f64) / (multi as f64) < 0.02,
        "{impure}/{multi} aggregates mix PoPs"
    );
}

#[test]
fn mcl_clusters_respect_pops_and_reprobing_confirms() {
    let p = pipeline();
    let aggs = p.aggregates();
    let (clustering, _) = sweep_inflation(&aggs, &[1.4, 2.0]);
    // Clusters of aggregates must not mix PoPs either (similarity edges
    // only exist between same-PoP observations in this world).
    let mut mixed = 0usize;
    let mut checked = 0usize;
    for cluster in clustering.non_trivial() {
        checked += 1;
        let pops: std::collections::BTreeSet<u32> = cluster
            .iter()
            .flat_map(|&m| aggs[m as usize].blocks.iter())
            .filter_map(|b| p.scenario.truth.blocks.get(b))
            .map(|t| t.pop)
            .collect();
        if pops.len() > 1 {
            mixed += 1;
        }
    }
    assert!(checked >= 5, "need clusters, got {checked}");
    assert!(mixed <= checked / 4, "{mixed}/{checked} clusters mix PoPs");

    // Reprobing a same-PoP cluster confirms homogeneity (mostly).
    let cfg = ReprobeConfig {
        max_pairs_per_cluster: 20,
        seed: 5,
    };
    let clusters: Vec<&[u32]> = clustering
        .non_trivial()
        .take(10)
        .map(Vec::as_slice)
        .collect();
    let validations = validate_clusters(
        &p.scenario.network,
        &aggs,
        &clusters,
        &cfg,
        p.hobbit_cfg.mda_mode,
        |b: Block24| select_block(&p.snapshot, b).ok(),
        p.threads,
        &NullRecorder,
    );
    let mut confirmed = 0usize;
    let mut validated = 0usize;
    for v in &validations {
        if v.total_pairs == 0 {
            continue;
        }
        validated += 1;
        if v.identical_ratio() > 0.5 {
            confirmed += 1;
        }
    }
    if validated > 0 {
        assert!(
            confirmed * 2 >= validated,
            "only {confirmed}/{validated} clusters look homogeneous on reprobe"
        );
    }
}

#[test]
fn table1_shape_tracks_the_paper() {
    let p = pipeline();
    let counts: BTreeMap<Classification, usize> = p.classification_counts().into_iter().collect();
    let total: usize = counts.values().sum();
    let pct = |c: Classification| 100.0 * counts[&c] as f64 / total as f64;

    // Shape constraints, loose versions of Table 1.
    assert!(
        pct(Classification::NonHierarchical) > pct(Classification::SameLasthop),
        "non-hierarchical should dominate same-lasthop"
    );
    assert!(
        pct(Classification::SameLasthop) > pct(Classification::Hierarchical),
        "same-lasthop should dominate hierarchical"
    );
    assert!(
        (10.0..45.0).contains(&pct(Classification::TooFewActive)),
        "too-few-active at {:.1}%",
        pct(Classification::TooFewActive)
    );
    assert!(
        (5.0..30.0).contains(&pct(Classification::UnresponsiveLasthop)),
        "unresponsive at {:.1}%",
        pct(Classification::UnresponsiveLasthop)
    );
    // The headline: ~90% of analyzable blocks are homogeneous.
    let analyzable = counts[&Classification::SameLasthop]
        + counts[&Classification::NonHierarchical]
        + counts[&Classification::Hierarchical];
    let homog = counts[&Classification::SameLasthop] + counts[&Classification::NonHierarchical];
    let share = homog as f64 / analyzable as f64;
    assert!(
        (0.80..=0.97).contains(&share),
        "homogeneous share {share:.3}"
    );
}

#[test]
fn probing_cost_is_modest() {
    // Hobbit's selling point: classification costs a handful of probes per
    // destination, far below full per-TTL traceroutes.
    let p = pipeline();
    let dests: usize = p.measurements.iter().map(|m| m.dests_probed).sum();
    let per_dest = p.classify_probes as f64 / dests.max(1) as f64;
    assert!(
        per_dest < 25.0,
        "classification used {per_dest:.1} probes per destination"
    );
}

/// The tiny world the probe budget is pinned over, with churn and quiet
/// periods off: a /24 gone dark since the snapshot costs the same liveness
/// checks in either MDA mode and would dilute the budget.
fn without_churn() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(0xB17);
    cfg.churn = 0.0;
    cfg.quiet_prob = 0.0;
    cfg
}

/// Classify every selected /24 of a fresh world built from `cfg` once,
/// each with its own prober and no confidence table, and return (blocks,
/// probes). `dynamics` arms `derive_dynamics(.., 0.5, 64)` after the scan.
fn probe_budget(cfg: ScenarioConfig, mode: MdaMode, dynamics: bool) -> (usize, u64) {
    let mut scenario = build(cfg);
    let selected = select_all(&zmap::scan_all(&mut scenario.network, 1));
    let mut probing = HobbitConfig {
        mda_mode: mode,
        ..HobbitConfig::default()
    };
    if dynamics {
        let schedule = derive_dynamics(&scenario, 0.5, 64);
        assert!(!schedule.events.is_empty(), "no dynamics events scheduled");
        scenario.network.set_dynamics(schedule);
        probing.dynamics_period = 64;
    }
    let conf = ConfidenceTable::empty();
    let probes = selected
        .iter()
        .map(|sel| {
            let mut prober = Prober::new(&scenario.network, block_ident(sel.block));
            classify_block(&mut prober, sel, &conf, &probing).probes_used
        })
        .sum();
    (selected.len(), probes)
}

/// The method's probe budget, pinned exactly: one probe more or fewer in
/// classic MDA, MDA-Lite or a time-evolving world fails here. A change
/// that is meant to move the budget re-pins these totals and says why.
/// MDA-Lite's saving over classic is checked with a floor in
/// `tests/mda_lite.rs` (`SAVINGS_FLOOR`).
#[test]
fn probe_budget_is_pinned() {
    let budget = |mode, dynamics| probe_budget(without_churn(), mode, dynamics);
    assert_eq!(budget(MdaMode::Classic, false), (203, 30_601));
    assert_eq!(budget(MdaMode::Lite, false), (203, 13_398));
    assert_eq!(budget(MdaMode::Classic, true), (203, 30_438));
}

/// The same world with churn and quiet /24s at the tiny world's defaults:
/// this budget includes what the silent destinations cost — their
/// liveness checks, their retries and the reprobe pass — which
/// [`probe_budget_is_pinned`] leaves out. Pinned exactly, in classic MDA.
#[test]
fn probe_budget_with_churn_is_pinned() {
    assert_eq!(
        probe_budget(ScenarioConfig::tiny(0xB17), MdaMode::Classic, false),
        (203, 25_943)
    );
}

/// FNV-1a over the `Debug` text of every part of a built world that the
/// builder decides: each router's address, responsiveness, ICMP loss,
/// alternate interface and route table, each allocated block's host
/// profile, the PoP and block truth, and the roster's AS names.
fn world_digest(cfg: ScenarioConfig) -> u64 {
    let s = build(cfg);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |text: String| {
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    };
    let net = &s.network;
    for id in 0..net.router_count() {
        let r = net.router(netsim::route::RouterId(id as u32));
        feed(format!(
            "{:?}{:?}{:?}{:?}",
            r.addr, r.responsive, r.icmp_loss, r.alt_addr
        ));
        for entry in r.table.iter() {
            feed(format!("{entry:?}"));
        }
    }
    for b in net.allocated_blocks() {
        feed(format!("{b:?}{:?}", net.block_profile(b)));
    }
    feed(format!("{:?}{:?}", s.truth.pops, s.truth.blocks));
    for spec in &s.truth.as_list {
        feed(spec.name.to_string());
    }
    h
}

/// The built world, pinned exactly: the probe-budget world and the
/// pipeline's seed-42, scale-0.02 world. A change to the builder's shape,
/// its constants or its random draws fails here; one that is meant to
/// move the world re-pins these digests and says why.
#[test]
fn world_is_pinned() {
    let args = experiments::ExpArgs {
        seed: 42,
        scale: 0.02,
        ..Default::default()
    };
    assert_eq!(
        world_digest(ScenarioConfig::tiny(0xB17)),
        12_625_285_193_736_789_663
    );
    assert_eq!(
        world_digest(experiments::pipeline::scenario_config(&args)),
        16_504_590_035_047_447_513
    );
}
