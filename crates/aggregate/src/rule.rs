//! The similarity-distribution rule (paper Section 6.6).
//!
//! Reprobing every MCL cluster is expensive; the paper manually built a
//! rule over the distribution of intra-cluster similarity scores that
//! predicts which clusters are homogeneous. The exact rule is unspecified
//! ("we manually built the rule"), so ours is an explicit, documented
//! instance with the published quality profile as the target: ~90% of
//! rule-matching clusters have identical-pair ratios above 0.6 (57% exactly
//! 1.0), while ~60% of non-matching clusters have ratio 0 (Figure 9).

// The rule's thresholds. They were tuned on simulated scenarios and are
// deliberately conservative, as the paper's rule is ("we do not include
// the clusters that match the rule unless confirmed by reprobing").

/// Minimum fraction of pairwise scores at or above [`STRONG_SCORE`].
pub const STRONG_FRACTION: f64 = 0.8;
/// The score counted as "strong".
pub const STRONG_SCORE: f64 = 0.5;
/// Minimum mean pairwise score.
pub const MIN_MEAN: f64 = 0.6;
/// Minimum pairwise score allowed anywhere in the cluster.
pub const MIN_ANY: f64 = 0.25;

/// Evaluate the rule on a cluster's pairwise similarity scores.
pub fn rule_matches(scores: &[f64]) -> bool {
    if scores.is_empty() {
        return false;
    }
    let n = scores.len() as f64;
    let strong = scores.iter().filter(|&&s| s >= STRONG_SCORE).count() as f64;
    let mean: f64 = scores.iter().sum::<f64>() / n;
    let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
    strong / n >= STRONG_FRACTION && mean >= MIN_MEAN && min >= MIN_ANY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_cluster_matches() {
        let scores = vec![0.9, 0.8, 1.0, 0.75];
        assert!(rule_matches(&scores));
    }

    #[test]
    fn loose_cluster_rejected_by_mean() {
        let scores = vec![0.5, 0.5, 0.5, 0.5];
        // strong_fraction passes (all ≥ 0.5) but the mean is below 0.6.
        assert!(!rule_matches(&scores));
    }

    #[test]
    fn outlier_pair_rejects() {
        let scores = vec![0.9, 0.95, 1.0, 0.1];
        assert!(!rule_matches(&scores));
    }

    #[test]
    fn empty_scores_never_match() {
        assert!(!rule_matches(&[]));
    }

    /// Scores exactly at every threshold: 4 of 5 at or above
    /// `STRONG_SCORE`, one of them exactly at it; a mean of exactly
    /// `MIN_MEAN`; a minimum of exactly `MIN_ANY`. Every value and partial
    /// sum is dyadic, so the float arithmetic is exact.
    const AT: [f64; 5] = [0.25, 0.5, 0.5, 0.75, 1.0];
    /// A nudge of 2^-20: exact in binary, so the held sums stay exact.
    const D: f64 = 1.0 / 1_048_576.0;

    #[test]
    fn scores_exactly_at_every_threshold_match() {
        assert_eq!(
            (STRONG_FRACTION, STRONG_SCORE, MIN_MEAN, MIN_ANY),
            (0.8, 0.5, 0.6, 0.25),
            "AT sits on these thresholds"
        );
        assert!(rule_matches(&AT));
    }

    #[test]
    fn nudging_any_threshold_below_fails() {
        // A score just under STRONG_SCORE, the mean held: 3 of 5 strong.
        assert!(!rule_matches(&[0.25, 0.5 - D, 0.5, 0.75 + D, 1.0]));
        // One strong score fewer, mean and minimum held: 3/5 is under
        // STRONG_FRACTION.
        assert!(!rule_matches(&[0.25, 0.25, 0.5, 1.0, 1.0]));
        // The mean just under MIN_MEAN, 4 of 5 still strong.
        assert!(!rule_matches(&[0.25, 0.5, 0.5, 0.75 - D, 1.0]));
        // The minimum just under MIN_ANY, the mean held.
        assert!(!rule_matches(&[0.25 - D, 0.5, 0.5, 0.75 + D, 1.0]));
    }
}
