//! Section 3.1: why Hobbit tests hierarchy on *last-hop routers* rather
//! than entire traceroutes.
//!
//! On /24s that are likely homogeneous but have differing last-hop
//! routers, applying the hierarchy test to whole-traceroute groups finds
//! only **70%** homogeneous, while last-hop groups find **92%** — upstream
//! per-flow load balancers multiply traceroute cardinality, and high
//! cardinality inflates the chance of a false hierarchy.

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;
use hobbit::{select_block, survey_block, BlockTable, Relationship};
use netsim::Addr;
use obs::SpanTimer;
use probe::{Path, ProbeObs, Prober};
use std::collections::BTreeMap;

/// Surveyed blocks (full traceroutes are expensive).
const SAMPLE_BLOCKS: usize = 60;

/// Apply Hobbit's relationship test with *entire traceroutes* as the
/// grouping key: addresses "having common traceroutes" — whose observed
/// route sets intersect — group together (transitively), then the group
/// ranges are tested for hierarchy, exactly as with last-hop routers.
///
/// This inherits the metric's weakness faithfully: the route-set
/// cardinality is the product of every load balancer's fan-out, so with
/// realistic MDA budgets many addresses end up in small or singleton
/// groups, whose ranges easily look hierarchical (the paper's 70% vs 92%).
pub fn detects_by_paths(per_addr: &[(Addr, Vec<Path>)]) -> bool {
    let mut route_ids: BTreeMap<Vec<Option<Addr>>, u32> = BTreeMap::new();
    let mut obs: Vec<(Addr, Vec<Addr>)> = Vec::with_capacity(per_addr.len());
    for (addr, paths) in per_addr {
        let mut pseudo: Vec<Addr> = paths
            .iter()
            .map(|p| {
                let next = route_ids.len() as u32;
                let id = *route_ids.entry(p.hops.clone()).or_insert(next);
                // Pseudo "router" address in reserved space.
                Addr(0xF000_0000 + id)
            })
            .collect();
        pseudo.sort();
        pseudo.dedup();
        obs.push((*addr, pseudo));
    }
    let t = BlockTable::from_observations(obs.iter().map(|(a, l)| (*a, l.as_slice())));
    matches!(
        t.relationship(),
        Relationship::SingleGroup | Relationship::NonHierarchical
    )
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let p = pipeline::Pipeline::builder().args(args).run();
    let mut r = Report::new(
        "section31",
        "Hierarchy testing: last-hop routers vs entire traceroutes",
    );

    // Likely-homogeneous /24s with multiple last-hop routers: take blocks
    // the classifier called homogeneous with cardinality ≥ 2 (the paper's
    // "fair comparison" selection).
    let candidates: Vec<_> = p
        .measurements
        .iter()
        .filter(|m| m.classification.is_homogeneous() && m.lasthop_set.len() >= 2)
        .map(|m| m.block)
        .collect();
    let stride = (candidates.len() / SAMPLE_BLOCKS).max(1);

    let (mut by_lasthop, mut by_path, mut surveyed) = (0usize, 0usize, 0usize);
    let mut lasthop_cards = Vec::new();
    let mut path_cards = Vec::new();
    let survey_span = SpanTimer::start(p.recorder(), "survey");
    let mut prober = Prober::new(&p.scenario.network, 0x531);
    prober.set_obs(ProbeObs::bind(p.recorder(), "survey"));
    for &block in candidates.iter().step_by(stride).take(SAMPLE_BLOCKS) {
        let Ok(sel) = select_block(&p.snapshot, block) else {
            continue;
        };
        let survey = survey_block(&mut prober, &sel, true);
        if survey.per_addr_lasthops.len() < 4 || survey.per_addr_paths.len() < 4 {
            continue;
        }
        surveyed += 1;
        lasthop_cards.push(survey.lasthop_cardinality() as f64);
        path_cards.push(survey.path_cardinality() as f64);
        if hobbit::detects_homogeneous(&survey.per_addr_lasthops) {
            by_lasthop += 1;
        }
        if detects_by_paths(&survey.per_addr_paths) {
            by_path += 1;
        }
    }
    drop(survey_span);

    let pct = |n: usize| (1000.0 * n as f64 / surveyed.max(1) as f64).round() / 10.0;
    r.info("blocks surveyed (full traceroutes)", surveyed);
    r.row(
        "homogeneous via last-hop hierarchy (%)",
        92.0,
        pct(by_lasthop),
    );
    r.row(
        "homogeneous via entire-traceroute hierarchy (%)",
        70.0,
        pct(by_path),
    );
    r.row(
        "coverage improvement of last-hop metric (points)",
        22.0,
        pct(by_lasthop) - pct(by_path),
    );
    r.info(
        "mean last-hop cardinality",
        (analysis::mean(&lasthop_cards) * 100.0).round() / 100.0,
    );
    r.info(
        "mean entire-traceroute cardinality",
        (analysis::mean(&path_cards) * 100.0).round() / 100.0,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section31_runs() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
