//! Table 1: classification of the measured /24 blocks.
//!
//! Paper (3.37M probed blocks): Too few active 24.9%, Unresponsive
//! last-hop 16.8%, Same last-hop 18.2%, Non-hierarchical 34.2%,
//! Different-but-hierarchical 5.9% — so 90% of analyzable blocks are
//! homogeneous.

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;

/// Paper percentages per Table 1 row, in classification order.
pub const PAPER_PCTS: [(&str, f64); 5] = [
    ("Too few active", 24.9),
    ("Unresponsive last-hop", 16.8),
    ("Same last-hop router", 18.2),
    ("Non-hierarchical", 34.2),
    ("Different but hierarchical", 5.9),
];

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let p = pipeline::Pipeline::builder().args(args).run();
    let mut r = Report::new("table1", "Homogeneity classification of /24 blocks");
    let total = p.measurements.len().max(1);
    r.info("probed /24 blocks", total);
    r.info(
        "zmap-rejected blocks (not probed)",
        p.reject_too_few + p.reject_uncovered,
    );

    for ((cls, count), (label, paper_pct)) in p.classification_counts().into_iter().zip(PAPER_PCTS)
    {
        debug_assert_eq!(cls.label(), label);
        let pct = 100.0 * count as f64 / total as f64;
        r.row(
            &format!("{label} (%)"),
            paper_pct,
            (pct * 10.0).round() / 10.0,
        );
        r.info(&format!("{label} (count)"), count);
    }

    let homog: usize = p
        .measurements
        .iter()
        .filter(|m| m.classification.is_homogeneous())
        .count();
    let analyzable: usize = p
        .measurements
        .iter()
        .filter(|m| m.classification.is_analyzable())
        .count();
    r.row(
        "homogeneous share of analyzable blocks (%)",
        90.0,
        (1000.0 * homog as f64 / analyzable.max(1) as f64).round() / 10.0,
    );

    // Ground-truth scoring the paper could not do: precision of the
    // homogeneity verdicts.
    let mut correct = 0usize;
    for m in &p.measurements {
        if m.classification.is_homogeneous() && p.scenario.truth.is_homogeneous(m.block) {
            correct += 1;
        }
    }
    r.info(
        "ground-truth precision of homogeneous verdicts (%)",
        (1000.0 * correct as f64 / homog.max(1) as f64).round() / 10.0,
    );
    r.note(format!(
        "scale={} → {} probed blocks vs paper's 3.37M; shapes, not magnitudes, are comparable",
        p.scale, total
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_report_has_all_rows() {
        let args = ExpArgs {
            scale: 0.01,
            threads: 2,
            ..Default::default()
        };
        let r = run(&args);
        // Must not panic when printed either way.
        r.print(false);
        r.print(true);
    }
}
