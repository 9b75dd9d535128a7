//! Loss sweep: verdict stability under seeded packet loss and ICMP rate
//! limiting.
//!
//! The paper measures the live internet, where loss and rate limiting are
//! facts of life (Section 3.4 discusses rate-limited and anonymous
//! routers). This experiment quantifies how robust the classification
//! verdicts are to those conditions: the same scenario is classified once
//! loss-free and once per swept loss rate (with last-hop ICMP rate
//! limiting on), and each faulted run's homogeneous/heterogeneous verdicts
//! are compared block-for-block against the baseline. The snapshot phase
//! always runs loss-free, so every run probes the identical block set.

use crate::args::ExpArgs;
use crate::pipeline::Pipeline;
use crate::report::Report;

/// Per-link loss rates swept.
pub const LOSS_RATES: [f64; 4] = [0.005, 0.01, 0.02, 0.05];

/// ICMP token-bucket refill rate (tokens per arrival) for every faulted
/// run: each probe stream can be denied at most once in a row, which a
/// retrying prober always recovers from.
pub const ICMP_RATE: f64 = 0.5;

/// Fraction of blocks whose homogeneous/heterogeneous verdict matches
/// between two runs of the same scenario.
fn verdict_agreement(base: &Pipeline, faulted: &Pipeline) -> f64 {
    let mut same = 0usize;
    let mut total = 0usize;
    for (a, b) in base.measurements.iter().zip(&faulted.measurements) {
        assert_eq!(a.block, b.block, "identical snapshots → identical blocks");
        total += 1;
        if a.classification.is_homogeneous() == b.classification.is_homogeneous() {
            same += 1;
        }
    }
    same as f64 / total.max(1) as f64
}

/// Classification probes and simulated backoff wait (ms) per /24 this
/// process classified, as `probes / wait`. A resumed run's journaled
/// blocks are not among them.
pub(crate) fn classify_cost_per_block(p: &Pipeline) -> String {
    let blocks: usize = p.worker_stats.iter().map(|w| w.blocks).sum();
    let probes: u64 = p.worker_stats.iter().map(|w| w.probes).sum();
    let blocks = blocks.max(1) as f64;
    format!(
        "{:.2} / {:.1}",
        probes as f64 / blocks,
        p.total_backoff_us() as f64 / 1000.0 / blocks
    )
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mut r = Report::new(
        "loss_sweep",
        "Classification stability under packet loss + ICMP rate limiting",
    );
    let base = Pipeline::builder().args(args).no_faults().run();
    r.info("probed /24 blocks", base.measurements.len());
    r.info("baseline classify probes", base.classify_probes);
    r.info(
        "baseline per /24: probes / backoff wait (ms)",
        classify_cost_per_block(&base),
    );

    let mut series: Vec<(f64, f64)> = Vec::new();
    for loss in LOSS_RATES {
        let p = Pipeline::builder().args(args).faults(loss, ICMP_RATE).run();
        let agreement = verdict_agreement(&base, &p);
        series.push((loss, agreement));
        let pct = (1000.0 * agreement).round() / 10.0;
        r.info(&format!("verdict agreement at loss={loss} (%)"), pct);
        r.info(
            &format!("loss={loss}: probes / drops / retries"),
            format!(
                "{} / {} / {}",
                p.classify_probes,
                p.total_drops(),
                p.total_retries()
            ),
        );
        r.info(
            &format!("loss={loss}: network drops (link / rate-limit)"),
            format!(
                "{} / {}",
                p.net_stats.link_drops, p.net_stats.rate_limited_drops
            ),
        );
        r.info(
            &format!("loss={loss}: per /24: probes / backoff wait (ms)"),
            classify_cost_per_block(&p),
        );
    }
    r.series("agreement vs loss", &series);
    r.note(format!(
        "ICMP token-bucket refill rate {ICMP_RATE} on every responsive router; \
         retries raised to 3 for faulted runs; snapshot always loss-free"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_report_forms_and_agreement_stays_high() {
        let args = ExpArgs {
            scale: 0.01,
            threads: 2,
            ..Default::default()
        };
        let base = Pipeline::builder().args(&args).run();
        let p = Pipeline::builder()
            .args(&args)
            .faults(0.02, ICMP_RATE)
            .run();
        let agreement = verdict_agreement(&base, &p);
        assert!(
            agreement >= 0.95,
            "verdicts must survive 2% loss: agreement {agreement}"
        );
        assert!(p.total_drops() > 0, "faults must actually bite");
    }
}
