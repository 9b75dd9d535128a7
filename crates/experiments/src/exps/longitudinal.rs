//! Longitudinal homogeneity (the paper's future work): re-run Hobbit at
//! several epochs and measure how stable the verdicts, last-hop sets, and
//! aggregates are under availability churn.

use crate::args::ExpArgs;
use crate::pipeline::{effective_threads, scenario_config, RunError};
use crate::report::Report;
use aggregate::{aggregate_identical, HomogBlock};
use analysis::longitudinal::{snapshot_epoch, stability, EpochSnapshot};
use hobbit::{select_all, ConfidenceTable, HobbitConfig};
use netsim::build::try_build;
use probe::zmap;
use serde_json::json;

/// Epochs measured.
const EPOCHS: [u32; 4] = [1, 2, 3, 4];

/// Blocks classified per epoch.
const SAMPLE_BLOCKS: usize = 400;

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let cfg = scenario_config(args);
    let mut scenario = try_build(cfg).unwrap_or_else(|e| RunError::from(e).exit());
    let snapshot = zmap::scan_all(
        &mut scenario.network,
        effective_threads(args.threads, usize::MAX),
    );
    let selected: Vec<_> = {
        let all = select_all(&snapshot);
        let stride = (all.len() / SAMPLE_BLOCKS).max(1);
        all.into_iter()
            .step_by(stride)
            .take(SAMPLE_BLOCKS)
            .collect()
    };
    let table = ConfidenceTable::empty();
    let hcfg = HobbitConfig::default();
    let mut r = Report::new("longitudinal", "Homogeneity stability across epochs");
    r.info("blocks tracked", selected.len());

    let snapshots: Vec<EpochSnapshot> = EPOCHS
        .iter()
        .map(|&e| snapshot_epoch(&mut scenario.network, e, &selected, &table, &hcfg))
        .collect();

    let mut series = Vec::new();
    for w in snapshots.windows(2) {
        let report = stability(&w[0], &w[1]);
        series.push(json!({
            "epochs": format!("{}→{}", report.epochs.0, report.epochs.1),
            "verdict_stability": (report.verdict_stability * 1000.0).round() / 1000.0,
            "homogeneity_stability": (report.homogeneity_stability * 1000.0).round() / 1000.0,
            "mean_lasthop_jaccard": (report.mean_lasthop_jaccard * 1000.0).round() / 1000.0,
        }));
    }
    r.series("epoch-to-epoch stability", &series);

    // Aggregate persistence: do the multi-/24 aggregates of epoch 1 still
    // exist (same member sets) at the last epoch?
    let aggregates_of = |snap: &EpochSnapshot| {
        let homog: Vec<HomogBlock> = snap
            .measurements
            .iter()
            .filter(|(_, (cls, set))| cls.is_homogeneous() && !set.is_empty())
            .map(|(&b, (_, set))| HomogBlock::new(b, set.clone()))
            .collect();
        aggregate_identical(&homog)
    };
    let first = aggregates_of(&snapshots[0]);
    let last = aggregates_of(snapshots.last().unwrap());
    let last_sets: std::collections::HashSet<Vec<netsim::Block24>> =
        last.iter().map(|a| a.blocks.clone()).collect();
    let multi: Vec<_> = first.iter().filter(|a| a.size() >= 2).collect();
    let persisted = multi
        .iter()
        .filter(|a| last_sets.contains(&a.blocks))
        .count();
    r.info("multi-/24 aggregates at epoch 1", multi.len());
    r.row(
        "aggregates persisting unchanged to the last epoch (%)",
        "high (topology is stable; churn only hides members)",
        (1000.0 * persisted as f64 / multi.len().max(1) as f64).round() / 10.0,
    );

    // Because the simulated topology never changes, homogeneity stability
    // bounds measurement noise; a real longitudinal study would subtract
    // this noise floor before attributing change to re-allocation.
    let avg_homog: f64 = series
        .iter()
        .map(|s| s["homogeneity_stability"].as_f64().unwrap_or(0.0))
        .sum::<f64>()
        / series.len().max(1) as f64;
    r.row(
        "mean homogeneity stability (noise floor)",
        ">0.9",
        (avg_homog * 1000.0).round() / 1000.0,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longitudinal_runs() {
        let args = ExpArgs {
            scale: 0.012,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
