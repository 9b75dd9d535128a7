//! Produce the Hobbit-blocks dataset — the paper's public release
//! (`http://www.cs.umd.edu/~ydlee/hobbit/`), regenerated from a full
//! pipeline run: classification → identical-set aggregation → MCL
//! clustering → reprobing validation → merge of confirmed clusters.
//!
//! The dataset is written next to the report (default `hobbit-blocks.txt`)
//! in the line format of `aggregate::dataset`, plus a JSON twin.

use crate::args::ExpArgs;
use crate::exps::figure9::{cluster_and_validate, merge_confirmed};
use crate::exps::loss_sweep::classify_cost_per_block;
use crate::pipeline::Pipeline;
use crate::report::Report;
use aggregate::{Aggregate, HobbitDataset};
use netsim::Block24;
use std::collections::HashSet;

/// Build the final dataset (shared with tests).
pub fn build_dataset(args: &ExpArgs) -> (HobbitDataset, Report) {
    let mut p = Pipeline::builder().args(args).run();
    let mut r = Report::new("hobbit_map", "The Hobbit homogeneous-blocks dataset");
    let seed = p.seed;
    let (aggs, _clustering, outcomes) = cluster_and_validate(&mut p, seed, 120, 40);

    // Merge aggregates of clusters confirmed homogeneous by reprobing.
    let (merged, rest) = merge_confirmed(&aggs, &outcomes);
    // `from_aggregates` reorders by size; flag the merged blocks by
    // membership.
    let validated_sets: HashSet<Vec<Block24>> = merged.iter().map(|a| a.blocks.clone()).collect();
    let finals: Vec<Aggregate> = merged.into_iter().chain(rest).collect();
    let mut dataset = HobbitDataset::from_aggregates(p.seed, &finals, &|_| false);
    for b in &mut dataset.blocks {
        let members: Vec<Block24> = b.members().collect();
        if validated_sets.contains(&members) {
            b.validated = true;
        }
    }

    r.info("homogeneous /24s measured", p.homog_blocks().len());
    r.info("identical-set aggregates", aggs.len());
    r.info("final Hobbit blocks", dataset.blocks.len());
    r.info(
        "reprobe-validated merged blocks",
        dataset.blocks.iter().filter(|b| b.validated).count(),
    );
    r.info("total /24 coverage", dataset.total_24s());
    r.info(
        "largest block (/24s)",
        dataset.blocks.first().map(|b| b.size()).unwrap_or(0),
    );
    if p.obs.is_some() {
        // What this process spent: a resumed run's journaled blocks are
        // not in it.
        r.info(
            "timing/classify per /24: probes / backoff wait (ms)",
            classify_cost_per_block(&p),
        );
    }
    (dataset, r)
}

/// Run, write the dataset to disk, and report.
pub fn run(args: &ExpArgs) -> Report {
    let (dataset, mut r) = build_dataset(args);
    let text_path = "hobbit-blocks.txt";
    let json_path = "hobbit-blocks.json";
    match std::fs::write(text_path, dataset.to_text()) {
        Ok(()) => r.info("dataset written", text_path),
        Err(e) => r.note(format!("could not write {text_path}: {e}")),
    }
    match serde_json::to_string_pretty(&dataset)
        .map_err(std::io::Error::other)
        .and_then(|j| std::fs::write(json_path, j))
    {
        Ok(()) => r.info("json written", json_path),
        Err(e) => r.note(format!("could not write {json_path}: {e}")),
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_builds_and_roundtrips() {
        let args = ExpArgs {
            scale: 0.012,
            threads: 2,
            ..Default::default()
        };
        let (dataset, _r) = build_dataset(&args);
        assert!(!dataset.blocks.is_empty());
        let text = dataset.to_text();
        let parsed = HobbitDataset::from_text(&text).unwrap();
        assert_eq!(parsed, dataset);
        // Blocks are disjoint: no /24 in two Hobbit blocks.
        let mut seen = std::collections::HashSet::new();
        for b in &dataset.blocks {
            for m in b.members() {
                assert!(seen.insert(m), "{m} appears in two blocks");
            }
        }
    }

    #[test]
    fn dataset_does_not_depend_on_the_thread_count() {
        let at = |threads| {
            let args = ExpArgs {
                scale: 0.012,
                threads,
                ..Default::default()
            };
            build_dataset(&args).0
        };
        let one = at(1);
        assert!(
            one.blocks.iter().any(|b| b.validated),
            "reprobing validates some merge"
        );
        assert_eq!(at(2), one);
    }
}
