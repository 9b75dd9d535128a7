//! Figure 10: how validated MCL clusters change the block-size
//! distribution.
//!
//! Paper: 8,931 clusters were confirmed homogeneous, merging 33,023
//! identical-set aggregates — small clusters vanish into mid-size ones and
//! the total falls from 532,850 to 508,758 (including one new 1,217-/24
//! Amazon Dublin block).

use crate::args::ExpArgs;
use crate::exps::figure9::{cluster_and_validate, merge_confirmed};
use crate::pipeline::Pipeline;
use crate::report::Report;
use aggregate::{size_histogram, Aggregate};
use serde_json::json;

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mut p = Pipeline::builder().args(args).run();
    let mut r = Report::new("figure10", "Cluster-size distribution change from MCL");
    let seed = p.seed;
    let (before, _clustering, outcomes) = cluster_and_validate(&mut p, seed, 80, 40);

    let (merged, mut after) = merge_confirmed(&before, &outcomes);
    let confirmed = merged.len();
    let merged_members: usize = outcomes
        .iter()
        .filter(|o| o.confirmed())
        .map(|o| o.members.len())
        .sum();
    after.extend(merged);

    r.info("aggregates before clustering", before.len());
    r.info("aggregates after validated merges", after.len());
    r.row(
        "clusters confirmed homogeneous merge several aggregates",
        "8,931 clusters from 33,023 aggregates",
        format!("{confirmed} clusters from {merged_members} aggregates"),
    );
    r.row(
        "total block count decreases",
        true,
        after.len() <= before.len(),
    );

    let hist_json = |aggs: &[Aggregate]| -> Vec<serde_json::Value> {
        size_histogram(aggs)
            .into_iter()
            .map(|(b, c)| json!({"size_2pow": b, "count": c}))
            .collect()
    };
    r.series("size histogram before", hist_json(&before));
    r.series("size histogram after", hist_json(&after));

    let max_before = before.iter().map(|a| a.size()).max().unwrap_or(0);
    let max_after = after.iter().map(|a| a.size()).max().unwrap_or(0);
    r.row(
        "largest block can grow via clustering",
        "new 1,217-/24 block appeared",
        format!("max {} → {}", max_before, max_after),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_runs() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
