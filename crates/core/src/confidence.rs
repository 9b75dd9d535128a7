//! The empirical confidence table (paper Section 3.2, Figure 4).
//!
//! Hobbit can miss homogeneity when load-balancer hashing happens to
//! produce a hierarchical-looking grouping; the probability depends on the
//! block's cardinality and how many destinations were probed. The paper
//! estimates `P(detect | cardinality, #probed)` empirically: for /24s known
//! to be homogeneous (with full per-address data), it samples destination
//! subsets, replays Hobbit on each subset, and tabulates success rates.
//! The table then drives termination: probe until the success probability
//! at the observed cardinality reaches the confidence level.

use crate::hierarchy::Relationship;
use crate::layout::BlockTable;
use netsim::Addr;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Full last-hop data for one block, the input to table construction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockLasthopData {
    /// Per-address observed last-hop sets (every responsive address).
    pub per_addr: Vec<(Addr, Vec<Addr>)>,
}

impl BlockLasthopData {
    /// Distinct last-hop routers across all addresses.
    pub fn cardinality(&self) -> usize {
        let mut v: Vec<Addr> = self
            .per_addr
            .iter()
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v.len()
    }
}

/// Would Hobbit, given exactly these observations, recognize the block as
/// homogeneous? (Common last-hop or a non-hierarchical grouping.)
pub fn detects_homogeneous(per_addr: &[(Addr, Vec<Addr>)]) -> bool {
    detects(&BlockTable::from_observations(
        per_addr.iter().map(|(a, l)| (*a, l.as_slice())),
    ))
}

/// [`detects_homogeneous`] over an already grouped table.
fn detects(table: &BlockTable) -> bool {
    matches!(
        table.relationship(),
        Relationship::SingleGroup | Relationship::NonHierarchical
    )
}

/// The `<cardinality, #probed> → confidence` table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceTable {
    /// (cardinality, probed) → (successes, samples).
    cells: BTreeMap<(usize, usize), (u64, u64)>,
    /// Required confidence level (paper: 0.95).
    pub level: f64,
    /// Minimum samples before a cell is trusted.
    pub min_samples: u64,
}

impl ConfidenceTable {
    /// An empty table: every lookup misses, so classification probes all
    /// active addresses (the paper's fallback).
    pub fn empty() -> Self {
        ConfidenceTable {
            cells: BTreeMap::new(),
            level: 0.95,
            min_samples: 1,
        }
    }

    /// Build the table from homogeneous blocks with full last-hop data.
    ///
    /// For each block and subset size `n`, draws up to `samples_per_combo`
    /// random n-subsets of the block's addresses and replays the detection.
    /// (The paper draws enough samples for a 1% margin at 99% confidence —
    /// 16,588 per cell; pass that as `samples_per_combo * blocks` scale or a
    /// smaller number for quick runs.)
    ///
    /// `min_samples` is the trust threshold lookups enforce: cells with
    /// fewer samples answer `None`. It used to be hard-coded to 8 here
    /// while [`ConfidenceTable::empty`] used 1 — callers tuning
    /// `samples_per_combo` below 8 silently got a table that never
    /// answered.
    pub fn build(
        dataset: &[BlockLasthopData],
        max_probed: usize,
        samples_per_combo: usize,
        level: f64,
        min_samples: u64,
        seed: u64,
    ) -> Self {
        let mut cells: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for block in dataset {
            let c = block.cardinality();
            if c == 0 {
                continue;
            }
            let n_addrs = block.per_addr.len();
            let mut indices: Vec<usize> = (0..n_addrs).collect();
            for n in 4..=n_addrs.min(max_probed) {
                for _ in 0..samples_per_combo {
                    indices.shuffle(&mut rng);
                    // The subset's table borrows the block's observations:
                    // no per-sample copy of any last-hop list.
                    let table = BlockTable::from_observations(indices[..n].iter().map(|&i| {
                        let (dst, lasthops) = &block.per_addr[i];
                        (*dst, lasthops.as_slice())
                    }));
                    let cell = cells.entry((c, n)).or_insert((0, 0));
                    cell.1 += 1;
                    if detects(&table) {
                        cell.0 += 1;
                    }
                }
            }
        }
        ConfidenceTable {
            cells,
            level,
            min_samples,
        }
    }

    /// The success probability for a `<cardinality, probed>` pair, if the
    /// cell has enough samples.
    pub fn confidence(&self, cardinality: usize, probed: usize) -> Option<f64> {
        let &(succ, total) = self.cells.get(&(cardinality, probed))?;
        if total < self.min_samples {
            return None;
        }
        Some(succ as f64 / total as f64)
    }

    /// The smallest number of probed destinations reaching the confidence
    /// level at this cardinality, or `None` if the table has no qualifying
    /// cell (then Hobbit probes every active address).
    pub fn required_probes(&self, cardinality: usize) -> Option<usize> {
        self.cells
            .range((cardinality, 0)..(cardinality + 1, 0))
            .filter(|(_, &(_, total))| total >= self.min_samples)
            .find(|(&(_, n), &(succ, total))| {
                let conf = succ as f64 / total as f64;
                conf >= self.level && n >= 4
            })
            .map(|(&(_, n), _)| n)
    }

    /// Every cell as `((cardinality, probed), (successes, samples))`, in
    /// key order, untrusted cells included: with [`ConfidenceTable::level`]
    /// and [`ConfidenceTable::min_samples`], everything
    /// [`ConfidenceTable::from_cells`] needs to rebuild the table.
    pub fn cells(&self) -> impl Iterator<Item = ((usize, usize), (u64, u64))> + '_ {
        self.cells.iter().map(|(&k, &v)| (k, v))
    }

    /// Rebuild a table from its [`ConfidenceTable::cells`] (a persisted
    /// calibration).
    pub fn from_cells(
        cells: impl IntoIterator<Item = ((usize, usize), (u64, u64))>,
        level: f64,
        min_samples: u64,
    ) -> Self {
        ConfidenceTable {
            cells: cells.into_iter().collect(),
            level,
            min_samples,
        }
    }

    /// All populated cells as `(cardinality, probed, confidence)` rows —
    /// the data behind Figure 4.
    pub fn rows(&self) -> Vec<(usize, usize, f64)> {
        self.cells
            .iter()
            .filter(|(_, &(_, t))| t >= self.min_samples)
            .map(|(&(c, n), &(s, t))| (c, n, s as f64 / t as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lh(n: u32) -> Addr {
        Addr(0x0A00_0000 + n)
    }

    fn d(h: u8) -> Addr {
        Addr::new(192, 0, 2, h)
    }

    /// A homogeneous block whose addresses cycle across `k` last-hop
    /// routers (per-destination hashing). The full grouping interleaves, so
    /// full data detects, while small subsets can look hierarchical by
    /// chance — the miss probability Figure 4 characterizes. Detection
    /// confidence converges to 1 for k ≥ 3 but plateaus near 0.5 for k = 2
    /// (two random subsets nest with probability ~1/2).
    fn interleaved_block(n: usize, k: u32) -> BlockLasthopData {
        assert!(
            n.is_multiple_of(k as usize),
            "balanced groups keep extremes spread"
        );
        BlockLasthopData {
            per_addr: (0..n)
                .map(|i| {
                    let host = (i + 1) as u8;
                    (d(host), vec![lh(1 + (i as u32 % k))])
                })
                .collect(),
        }
    }

    /// A single-lasthop block.
    fn single_block(n: usize) -> BlockLasthopData {
        BlockLasthopData {
            per_addr: (1..=n).map(|i| (d(i as u8), vec![lh(1)])).collect(),
        }
    }

    #[test]
    fn cardinality_counts_distinct_lasthops() {
        assert_eq!(interleaved_block(20, 2).cardinality(), 2);
        assert_eq!(single_block(10).cardinality(), 1);
    }

    #[test]
    fn detection_on_full_data_succeeds() {
        assert!(detects_homogeneous(&interleaved_block(30, 2).per_addr));
        assert!(detects_homogeneous(&interleaved_block(30, 3).per_addr));
        assert!(detects_homogeneous(&single_block(10).per_addr));
    }

    #[test]
    fn confidence_increases_with_probes() {
        let data = vec![interleaved_block(60, 4)];
        let table = ConfidenceTable::build(&data, 32, 150, 0.95, 8, 7);
        let low = table.confidence(4, 5).expect("cell populated");
        let high = table.confidence(4, 24).expect("cell populated");
        assert!(high > low, "conf(24)={high} ≤ conf(5)={low}");
        assert!(high > 0.9, "with 24 of 60 addresses detection is near-sure");
    }

    #[test]
    fn required_probes_exists_for_cardinality_4() {
        let data = vec![interleaved_block(60, 4)];
        let table = ConfidenceTable::build(&data, 32, 150, 0.95, 8, 7);
        let req = table.required_probes(4).expect("reachable confidence");
        assert!((8..=32).contains(&req), "required {req}");
    }

    #[test]
    fn cardinality_2_confidence_plateaus_below_95() {
        // Two random per-destination groups nest with probability ~1/2, so
        // no number of probes reaches 95% — Hobbit must probe every active
        // address and accept the residual (these blocks feed the
        // "different but hierarchical" row of Table 1).
        let data = vec![interleaved_block(40, 2)];
        let table = ConfidenceTable::build(&data, 36, 150, 0.95, 8, 7);
        assert!(table.required_probes(2).is_none());
        let mid = table.confidence(2, 20).expect("cell populated");
        assert!((0.3..0.8).contains(&mid), "k=2 plateau, got {mid}");
    }

    #[test]
    fn empty_table_misses_everything() {
        let t = ConfidenceTable::empty();
        assert!(t.confidence(2, 10).is_none());
        assert!(t.required_probes(2).is_none());
        assert!(t.rows().is_empty());
    }

    #[test]
    fn single_lasthop_blocks_always_detect() {
        let data = vec![single_block(30)];
        let table = ConfidenceTable::build(&data, 16, 100, 0.95, 8, 7);
        for n in 4..=16 {
            assert_eq!(table.confidence(1, n), Some(1.0), "n={n}");
        }
        assert_eq!(table.required_probes(1), Some(4));
    }

    #[test]
    fn min_samples_is_honored_not_hardcoded() {
        // Regression: build() used to pin min_samples at 8 regardless of
        // how few samples the caller asked for, so quick tables (fewer
        // than 8 samples per cell) never answered a single lookup.
        let data = vec![single_block(20)];
        let sparse = ConfidenceTable::build(&data, 8, 4, 0.95, 8, 7);
        assert!(sparse.confidence(1, 4).is_none(), "4 < 8 samples: distrust");
        let trusted = ConfidenceTable::build(&data, 8, 4, 0.95, 4, 7);
        assert_eq!(trusted.min_samples, 4);
        assert_eq!(trusted.confidence(1, 4), Some(1.0));
        assert_eq!(trusted.required_probes(1), Some(4));
    }

    #[test]
    fn min_samples_zero_trusts_even_empty_cells_vacuously() {
        // min_samples = 0 means every *populated* cell answers; lookups
        // outside the sampled range still miss (there is no cell at all),
        // so the degenerate threshold cannot fabricate confidence.
        let data = vec![single_block(20)];
        let t = ConfidenceTable::build(&data, 8, 1, 0.95, 0, 7);
        assert_eq!(t.min_samples, 0);
        assert_eq!(t.confidence(1, 4), Some(1.0), "one sample is enough at 0");
        assert!(
            t.confidence(1, 100).is_none(),
            "unsampled cell still misses"
        );
        assert!(t.confidence(9, 4).is_none(), "unknown cardinality misses");
    }

    #[test]
    fn min_samples_one_accepts_single_sample_cells() {
        let data = vec![single_block(20)];
        let t = ConfidenceTable::build(&data, 8, 1, 0.95, 1, 7);
        for n in 4..=8 {
            assert_eq!(t.confidence(1, n), Some(1.0), "n={n}");
        }
        assert_eq!(t.required_probes(1), Some(4));
        // The same cells under a stricter threshold all distrust.
        let strict = ConfidenceTable::build(&data, 8, 1, 0.95, 2, 7);
        assert!(strict.confidence(1, 4).is_none());
        assert!(strict.required_probes(1).is_none());
    }

    #[test]
    fn required_probes_monotone_as_level_tightens() {
        // Tightening the confidence target can only demand more (or equally
        // many) probed destinations: required_probes is the first n whose
        // empirical confidence clears the level, and the cells themselves
        // do not depend on the level.
        let data = vec![interleaved_block(60, 4)];
        let levels = [0.50, 0.80, 0.90, 0.95];
        let required: Vec<usize> = levels
            .iter()
            .map(|&lvl| {
                ConfidenceTable::build(&data, 32, 150, lvl, 8, 7)
                    .required_probes(4)
                    .unwrap_or_else(|| panic!("level {lvl} unreachable"))
            })
            .collect();
        for pair in required.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "required probes must not shrink as the level tightens: {required:?}"
            );
        }
        assert!(
            required[0] < required[3],
            "0.50 vs 0.95 should genuinely differ on k=4 interleaving: {required:?}"
        );
    }

    #[test]
    fn table_is_deterministic_per_seed() {
        let data = vec![interleaved_block(30, 3)];
        let a = ConfidenceTable::build(&data, 12, 50, 0.95, 8, 1);
        let b = ConfidenceTable::build(&data, 12, 50, 0.95, 8, 1);
        assert_eq!(a.rows(), b.rows());
    }
}
