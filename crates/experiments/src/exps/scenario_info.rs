//! Inspect a scenario's ground truth and fabric — what the experiments run
//! against, with no probing at all.

use crate::args::ExpArgs;
use crate::pipeline::{scenario_config, RunError};
use crate::report::Report;
use netsim::build::try_build;
use netsim::stats::{fabric_stats, truth_stats};
use serde_json::json;

/// Run the inspection.
pub fn run(args: &ExpArgs) -> Report {
    let scenario = try_build(scenario_config(args)).unwrap_or_else(|e| RunError::from(e).exit());
    let truth = truth_stats(&scenario.truth);
    let fabric = fabric_stats(&scenario);
    let mut r = Report::new("scenario_info", "Scenario ground truth and fabric");

    r.info("allocated /24 blocks", truth.blocks);
    r.info(
        "genuinely homogeneous / heterogeneous",
        format!("{} / {}", truth.homogeneous, truth.heterogeneous),
    );
    r.info("colocation sites (PoPs)", truth.pops);
    r.info("  with anonymous last-hop routers", truth.unresponsive_pops);
    r.info("  serving cellular devices", truth.cellular_pops);
    r.info("  Table-5 big sites", truth.big_sites);
    r.info(
        "mean /24s per PoP",
        (truth.mean_pop_size * 100.0).round() / 100.0,
    );
    let fanout: Vec<serde_json::Value> = truth
        .lh_fanout
        .iter()
        .map(|(&k, &n)| json!({"lasthop_routers": k, "pops": n}))
        .collect();
    r.series("last-hop fan-out distribution", fanout);

    let mut per_as: Vec<(&String, &usize)> = truth.blocks_per_as.iter().collect();
    per_as.sort_by_key(|&(_, n)| std::cmp::Reverse(*n));
    let top: Vec<serde_json::Value> = per_as
        .iter()
        .take(10)
        .map(|(name, n)| json!({"org": name, "blocks": n}))
        .collect();
    r.series("top-10 ASes by allocation", top);

    r.info("routers", fabric.routers);
    r.info("  anonymous", fabric.anonymous_routers);
    r.info("  rate-limited", fabric.rate_limited_routers);
    r.info("  alternating interfaces", fabric.alt_interface_routers);
    r.info("route entries installed", fabric.route_entries);
    r.info("vantage points", fabric.vantages);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_info_runs() {
        let args = ExpArgs {
            scale: 0.01,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
