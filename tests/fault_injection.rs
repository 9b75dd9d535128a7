//! Workspace tests for fault injection and loss-resilient probing.
//!
//! The acceptance bar: with seeded 2% per-link loss plus ICMP rate
//! limiting on every responsive router (last-hops included), the
//! homogeneous/heterogeneous verdicts must match a loss-free run of the
//! same scenario on at least 95% of probed /24s, and the fault counters
//! must be exact (totals are per-worker sums, with nothing lost).

use experiments::Pipeline;

fn baseline() -> Pipeline {
    Pipeline::builder().seed(7).scale(0.01).threads(4).run()
}

fn faulted(loss: f64, rate: f64) -> Pipeline {
    Pipeline::builder()
        .seed(7)
        .scale(0.01)
        .threads(4)
        .faults(loss, rate)
        .run()
}

/// Blocks whose homogeneous/heterogeneous verdict matches between a
/// loss-free and a faulted run, and blocks compared.
fn agreement(clean: &Pipeline, lossy: &Pipeline) -> (usize, usize) {
    // Same snapshot, same selection: faults switch on after the scan.
    assert_eq!(clean.selected.len(), lossy.selected.len());
    assert_eq!(clean.measurements.len(), lossy.measurements.len());
    let mut agree = 0usize;
    for (a, b) in clean.measurements.iter().zip(&lossy.measurements) {
        assert_eq!(a.block, b.block);
        if a.classification.is_homogeneous() == b.classification.is_homogeneous() {
            agree += 1;
        }
    }
    (agree, clean.measurements.len())
}

#[test]
fn verdicts_survive_two_percent_loss_with_rate_limiting() {
    let clean = baseline();
    let lossy = faulted(0.02, 0.5);
    let (agree, total) = agreement(&clean, &lossy);
    let frac = agree as f64 / total.max(1) as f64;
    assert!(
        frac >= 0.95,
        "verdict agreement {agree}/{total} = {frac:.3} under 2% loss"
    );

    // The faults were real, not a no-op configuration.
    assert!(lossy.net_stats.link_drops > 0, "{:?}", lossy.net_stats);
    assert!(
        lossy.net_stats.rate_limited_drops > 0,
        "token buckets must throttle some ICMP errors: {:?}",
        lossy.net_stats
    );
    assert!(lossy.total_drops() > clean.total_drops());
}

/// Assert that at least `floor` of the 373 verdicts of a run at `loss`
/// link loss (ICMP refill 0.5) agree with the loss-free run.
fn assert_agreement_floor(loss: f64, floor: usize) {
    let (agree, total) = agreement(&baseline(), &faulted(loss, 0.5));
    assert_eq!(total, 373, "the world under test changed");
    assert!(
        agree >= floor,
        "verdict agreement {agree}/{total} under {loss} loss, floor {floor}"
    );
}

/// The loss-robustness floor at 5% loss: 370 of 373 verdicts agree with
/// the loss-free run (99.2%). A retry rule that spends fewer probes on
/// silences must not buy its saving with a verdict this floor holds.
#[test]
fn verdicts_survive_five_percent_loss_with_rate_limiting() {
    assert_agreement_floor(0.05, 370);
}

/// The floor at 1% loss: 371 of 373 verdicts agree (99.5%). A stream at
/// this loss seldom shows a recovered retry, so once a dead host has shown
/// churn, a later echo lost to the link is final; this floor keeps that
/// cost from growing.
#[test]
fn verdicts_survive_one_percent_loss_with_rate_limiting() {
    assert_agreement_floor(0.01, 371);
}

#[test]
fn fault_counters_sum_exactly_across_workers() {
    let p = faulted(0.02, 0.5);
    let drops: u64 = p.worker_stats.iter().map(|w| w.drops).sum();
    let retries: u64 = p.worker_stats.iter().map(|w| w.retries).sum();
    let backoff: u64 = p.worker_stats.iter().map(|w| w.backoff_us).sum();
    assert_eq!(p.total_drops(), drops);
    assert_eq!(p.total_retries(), retries);
    assert_eq!(p.total_backoff_us(), backoff);
    assert!(drops > 0 && retries > 0 && backoff > 0);
    // Every retry followed a drop, and probes outnumber retries.
    assert!(retries <= drops);
    assert!(p.classify_probes > retries);
}

#[test]
fn degradation_is_graceful_not_silent() {
    // Lost answers must surface as explicit unresolved counts (after the
    // reprobe pass), never vanish from the accounting.
    let p = faulted(0.05, 0.25);
    for m in &p.measurements {
        assert_eq!(
            m.dests_probed,
            m.dests_resolved + m.dests_anonymous + m.dests_unresolved,
            "block {}: probed dests must be fully accounted",
            m.block
        );
    }
    // At 5% loss some blocks exercise the targeted reprobe pass.
    let reprobes: usize = p.measurements.iter().map(|m| m.reprobes).sum();
    assert!(reprobes > 0, "reprobe pass should engage under heavy loss");
}
