//! Section 2 preliminaries: why naive route comparison fails.
//!
//! Paper numbers: comparing the MDA route sets of 4 addresses (one per
//! /26) calls **88%** of /24s heterogeneous (87% with unresponsive-hop
//! wildcards); **77%** of /31 sibling pairs have distinct route sets; and
//! **~30%** of /31 pairs differ even in their *last-hop routers* — all of
//! it load balancing, none of it heterogeneity.

use crate::args::ExpArgs;
use crate::pipeline::{effective_threads, scenario_config, RunError};
use crate::report::Report;
use hobbit::select_all;
use netsim::build::try_build;
use probe::{enumerate_paths, zmap, Path, Prober};

/// Blocks sampled for the straw-man comparison.
const SAMPLE_BLOCKS: usize = 250;

/// Strict route-set identity: some pair of paths is exactly equal.
fn share_exact(a: &[Path], b: &[Path]) -> bool {
    a.iter().any(|p| b.contains(p))
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let cfg = scenario_config(args);
    let mut scenario = try_build(cfg).unwrap_or_else(|e| RunError::from(e).exit());
    let snapshot = zmap::scan_all(
        &mut scenario.network,
        effective_threads(args.threads, usize::MAX),
    );
    let selected = select_all(&snapshot);
    let mut r = Report::new(
        "section2",
        "Straw-man route comparison and per-destination load balancing",
    );

    let stride = (selected.len() / SAMPLE_BLOCKS).max(1);
    let mut prober = Prober::new(&scenario.network, 0x5EC2);

    // --- Straw man: one address per /26, compare MDA route sets.
    let (mut hetero_strict, mut hetero_wild, mut compared) = (0usize, 0usize, 0usize);
    // --- /31 experiment: route sets and last-hops of sibling pairs.
    let (mut pairs, mut distinct_routes, mut distinct_lasthops) = (0usize, 0usize, 0usize);

    for sel in selected.iter().step_by(stride).take(SAMPLE_BLOCKS) {
        // One destination per /26 quarter (the paper's four probes).
        let dests: Vec<_> = sel.quarters.iter().map(|q| q[0]).collect();
        let mdas: Vec<_> = dests
            .iter()
            .map(|&d| enumerate_paths(&mut prober, d, 32))
            .collect();
        if mdas.iter().any(|m| m.paths.is_empty()) {
            continue;
        }
        compared += 1;
        let mut all_wild = true;
        let mut all_strict = true;
        for i in 0..mdas.len() {
            for j in 0..i {
                if !probe::route_sets_identical(&mdas[i].paths, &mdas[j].paths) {
                    all_wild = false;
                }
                if !share_exact(&mdas[i].paths, &mdas[j].paths) {
                    all_strict = false;
                }
            }
        }
        if !all_strict {
            hetero_strict += 1;
        }
        if !all_wild {
            hetero_wild += 1;
        }

        // A /31 sibling pair with both addresses active.
        let actives = sel.actives();
        let pair = actives
            .iter()
            .find(|a| actives.contains(&a.sibling31()) && a.0 % 2 == 0);
        if let Some(&a) = pair {
            let b = a.sibling31();
            let ma = enumerate_paths(&mut prober, a, 32);
            let mb = enumerate_paths(&mut prober, b, 32);
            if !ma.paths.is_empty() && !mb.paths.is_empty() {
                pairs += 1;
                if !probe::route_sets_identical(&ma.paths, &mb.paths) {
                    distinct_routes += 1;
                }
                if ma.lasthops() != mb.lasthops() {
                    distinct_lasthops += 1;
                }
            }
        }
    }

    let pct = |n: usize, d: usize| (1000.0 * n as f64 / d.max(1) as f64).round() / 10.0;
    r.info("/24 blocks compared", compared);
    r.row(
        "straw-man heterogeneous /24s, exact comparison (%)",
        88.0,
        pct(hetero_strict, compared),
    );
    r.row(
        "straw-man heterogeneous /24s, wildcard comparison (%)",
        87.0,
        pct(hetero_wild, compared),
    );
    r.info("/31 sibling pairs probed", pairs);
    r.row(
        "/31 pairs with distinct route sets (%)",
        77.0,
        pct(distinct_routes, pairs),
    );
    r.row(
        "/31 pairs with distinct last-hop routers (%)",
        30.0,
        pct(distinct_lasthops, pairs),
    );
    r.info("probes used", prober.probes_sent());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section2_shape_holds_at_small_scale() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 1,
            ..Default::default()
        };
        let r = run(&args);
        r.print(false);
    }
}
