//! One-page digest of a full pipeline run: every headline statistic the
//! paper reports, in one place. Useful as a first command after changes.

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;
use hobbit::very_likely_heterogeneous;

/// Run the digest.
pub fn run(args: &ExpArgs) -> Report {
    let p = pipeline::Pipeline::builder().args(args).run();
    let mut r = Report::new("summary", "Pipeline digest (all headline statistics)");

    let total = p.measurements.len();
    r.info("scenario blocks allocated", p.scenario.truth.blocks.len());
    r.info("zmap snapshot actives", p.snapshot.total_active());
    r.info("/24 blocks probed", total);
    r.info(
        "probes spent (calibration + classification)",
        p.calibration_probes + p.classify_probes,
    );
    r.info(
        "probes per probed /24",
        ((p.calibration_probes + p.classify_probes) as f64 / total.max(1) as f64).round(),
    );

    for (cls, count) in p.classification_counts() {
        r.info(
            &format!("  {}", cls.label()),
            format!(
                "{count} ({:.1}%)",
                100.0 * count as f64 / total.max(1) as f64
            ),
        );
    }

    let analyzable: usize = p
        .measurements
        .iter()
        .filter(|m| m.classification.is_analyzable())
        .count();
    let homog = p.homog_blocks();
    r.row(
        "homogeneous share of analyzable (%)",
        90.0,
        (1000.0 * homog.len() as f64 / analyzable.max(1) as f64).round() / 10.0,
    );

    let flagged = p
        .measurements
        .iter()
        .filter(|m| very_likely_heterogeneous(m).is_some())
        .count();
    r.info("very-likely-heterogeneous flags", flagged);

    let aggs = p.aggregates();
    r.info("identical-set aggregates", aggs.len());
    r.info(
        "largest aggregate (/24s)",
        aggs.first().map(|a| a.size()).unwrap_or(0),
    );

    // Ground-truth scoring.
    let homog_correct = p
        .measurements
        .iter()
        .filter(|m| m.classification.is_homogeneous() && p.scenario.truth.is_homogeneous(m.block))
        .count();
    r.info(
        "homogeneity precision vs ground truth (%)",
        (1000.0 * homog_correct as f64 / homog.len().max(1) as f64).round() / 10.0,
    );
    let hetero_correct = p
        .measurements
        .iter()
        .filter(|m| {
            very_likely_heterogeneous(m).is_some() && !p.scenario.truth.is_homogeneous(m.block)
        })
        .count();
    r.info(
        "heterogeneity-flag precision vs ground truth (%)",
        (1000.0 * hetero_correct as f64 / flagged.max(1) as f64).round() / 10.0,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_runs() {
        let args = ExpArgs {
            scale: 0.012,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
