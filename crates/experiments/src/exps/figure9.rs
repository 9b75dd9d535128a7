//! Figure 9: the similarity-distribution rule vs reprobing ground truth.
//!
//! MCL clusters are validated by reprobing sampled /24 pairs; a manual rule
//! over intra-cluster similarity scores predicts the outcome. Paper: ~90%
//! of rule-matching clusters have identical-pair ratios > 0.6 (57% exactly
//! 1.0), while ~60% of non-matching clusters have ratio 0.

use crate::args::ExpArgs;
use crate::pipeline::Pipeline;
use crate::report::Report;
use aggregate::{
    pairwise_scores, rule_matches, sweep_inflation_observed, validate_clusters, Aggregate,
    AggregateClustering, ClusterValidation, ReprobeConfig,
};
use analysis::Ecdf;
use hobbit::select_block;
use obs::{NullRecorder, Recorder};
use serde_json::json;

/// Per-cluster outcome shared by Figures 9 and 10.
///
/// Only clusters whose reprobes left a comparable pair have an outcome,
/// so summing `validation.probes_used` over outcomes under-counts the
/// reprobe spend; the run's `probe.reprobe.sent` counter is the spend.
pub struct ClusterOutcome {
    /// Index into the clustering's cluster list.
    pub cluster_idx: usize,
    /// Members (aggregate indices).
    pub members: Vec<u32>,
    /// Reprobing result.
    pub validation: ClusterValidation,
    /// Whether the similarity rule matches.
    pub rule_match: bool,
}

impl ClusterOutcome {
    /// Whether reprobing confirmed a cluster of several aggregates
    /// homogeneous, so they merge into one block.
    pub fn confirmed(&self) -> bool {
        self.validation.homogeneous() && self.members.len() >= 2
    }
}

/// Merge the aggregates of every confirmed cluster: union their blocks
/// and their last hops, each sorted (last hops deduplicated). Returns the
/// merged aggregates in outcome order and the aggregates no confirmed
/// cluster took, in index order.
pub fn merge_confirmed(
    aggs: &[Aggregate],
    outcomes: &[ClusterOutcome],
) -> (Vec<Aggregate>, Vec<Aggregate>) {
    let mut merged_away = vec![false; aggs.len()];
    let mut merged = Vec::new();
    for o in outcomes.iter().filter(|o| o.confirmed()) {
        let mut blocks = Vec::new();
        let mut lasthops = Vec::new();
        for &m in &o.members {
            merged_away[m as usize] = true;
            blocks.extend(aggs[m as usize].blocks.iter().copied());
            lasthops.extend(aggs[m as usize].lasthops.iter().copied());
        }
        blocks.sort();
        lasthops.sort();
        lasthops.dedup();
        merged.push(Aggregate { lasthops, blocks });
    }
    let rest = aggs
        .iter()
        .zip(merged_away)
        .filter(|&(_, away)| !away)
        .map(|(a, _)| a.clone())
        .collect();
    (merged, rest)
}

/// Inflation candidates for the Section 6.4 sweep.
pub const INFLATIONS: [f64; 4] = [1.4, 2.0, 2.8, 4.0];

/// Cluster the pipeline's aggregates (with the sweep) and validate each
/// non-trivial cluster by reprobing (bounded work).
///
/// A cluster whose reprobes left no comparable pair (`total_pairs == 0`)
/// gets no outcome, though its /24s were reprobed; Figure 9's counts of
/// validated clusters leave it out. The probes it cost are in
/// `probe.reprobe.sent`, not in any outcome's `validation.probes_used`.
pub fn cluster_and_validate(
    p: &mut Pipeline,
    seed: u64,
    max_clusters: usize,
    max_pairs: usize,
) -> (Vec<Aggregate>, AggregateClustering, Vec<ClusterOutcome>) {
    // Post-pipeline phases report into the run's registry (if any); the
    // Arc clone keeps the recorder independent of the &mut borrows below.
    let obs = p.obs.clone();
    let null = NullRecorder;
    let rec: &dyn Recorder = obs.as_deref().map(|r| r as &dyn Recorder).unwrap_or(&null);

    let aggs = p.aggregates();
    let (clustering, _) = {
        let _s = obs.as_ref().map(|r| r.span("cluster"));
        sweep_inflation_observed(&aggs, &INFLATIONS, rec)
    };
    let cfg = ReprobeConfig {
        max_pairs_per_cluster: max_pairs,
        seed,
    };
    // Reprobing is a later campaign: availability has drifted since the
    // original measurement, which is precisely why some clusters fail to
    // validate (the paper's Figure 9 non-matching population).
    let reprobe_epoch = p.scenario.network.epoch() + 1;
    p.scenario.network.set_epoch(reprobe_epoch);
    let candidates: Vec<(usize, &[u32])> = clustering
        .clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.len() > 1)
        .take(max_clusters)
        .map(|(idx, c)| (idx, c.as_slice()))
        .collect();
    let to_validate: Vec<&[u32]> = candidates.iter().map(|&(_, c)| c).collect();
    let validations = {
        let _s = obs.as_ref().map(|r| r.span("reprobe"));
        let snapshot = &p.snapshot;
        validate_clusters(
            &p.scenario.network,
            &aggs,
            &to_validate,
            &cfg,
            p.hobbit_cfg.mda_mode,
            |b| select_block(snapshot, b).ok(),
            p.threads,
            rec,
        )
    };
    let outcomes = candidates
        .into_iter()
        .zip(validations)
        .filter(|(_, v)| v.total_pairs > 0)
        .map(|((idx, members), validation)| ClusterOutcome {
            cluster_idx: idx,
            members: members.to_vec(),
            validation,
            rule_match: rule_matches(&pairwise_scores(&aggs, members)),
        })
        .collect();
    (aggs, clustering, outcomes)
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mut p = Pipeline::builder().args(args).run();
    let mut r = Report::new("figure9", "Identical-pair ratios: rule-matched vs rest");
    let seed = p.seed;
    let (_, clustering, outcomes) = cluster_and_validate(&mut p, seed, 60, 60);

    r.info("non-trivial MCL clusters", clustering.non_trivial().count());
    r.info("clusters validated by reprobing", outcomes.len());
    r.info("chosen inflation", clustering.inflation);

    let matched: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.rule_match)
        .map(|o| o.validation.identical_ratio())
        .collect();
    let unmatched: Vec<f64> = outcomes
        .iter()
        .filter(|o| !o.rule_match)
        .map(|o| o.validation.identical_ratio())
        .collect();
    let em = Ecdf::new(matched.clone());
    let eu = Ecdf::new(unmatched.clone());

    let frac_gt = |e: &Ecdf, x: f64| if e.is_empty() { 0.0 } else { 1.0 - e.eval(x) };
    let frac_eq1 =
        |v: &[f64]| v.iter().filter(|&&x| x >= 1.0).count() as f64 / v.len().max(1) as f64;
    let frac_eq0 =
        |v: &[f64]| v.iter().filter(|&&x| x <= 0.0).count() as f64 / v.len().max(1) as f64;
    r.row(
        "rule-matched clusters with ratio > 0.6 (%)",
        90.0,
        (1000.0 * frac_gt(&em, 0.6)).round() / 10.0,
    );
    r.row(
        "rule-matched clusters with ratio = 1 (%)",
        57.0,
        (1000.0 * frac_eq1(&matched)).round() / 10.0,
    );
    r.row(
        "non-matched clusters with ratio = 0 (%)",
        60.0,
        (1000.0 * frac_eq0(&unmatched)).round() / 10.0,
    );
    r.series(
        "matched-ratio quartiles",
        json!({"n": em.len(), "p25": em.quantile(0.25), "p50": em.quantile(0.5), "p75": em.quantile(0.75)}),
    );
    r.series(
        "unmatched-ratio quartiles",
        json!({"n": eu.len(), "p25": eu.quantile(0.25), "p50": eu.quantile(0.5), "p75": eu.quantile(0.75)}),
    );
    r.note("the paper's rule is unspecified; ours is the thresholds documented in aggregate::rule");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_runs() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
