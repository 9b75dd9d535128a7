//! MCL clustering of the similarity graph, with the paper's parameter
//! sweep (Section 6.4).

use crate::identical::Aggregate;
use crate::similarity::similarity_edges;
use mcl::{mcl_by_components, Clustering};
use obs::Recorder;
use serde::{Deserialize, Serialize};

/// A clustering of aggregates plus its quality diagnostics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AggregateClustering {
    /// Clusters of aggregate indices (singletons = unclustered aggregates).
    pub clusters: Vec<Vec<u32>>,
    /// The inflation parameter used.
    pub inflation: f64,
    /// Fraction of intra-cluster edges whose weight falls below the global
    /// median edge weight — the sweep's objective (lower is better).
    pub weak_edge_fraction: f64,
}

impl AggregateClustering {
    /// Clusters with ≥ 2 members.
    pub fn non_trivial(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.clusters.iter().filter(|c| c.len() > 1)
    }

    /// Number of aggregates left unclustered (singletons).
    pub fn unclustered(&self) -> usize {
        self.clusters.iter().filter(|c| c.len() == 1).count()
    }
}

/// Median of a slice (copied and sorted).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The sweep objective: fraction of intra-cluster edges weaker than the
/// global median edge weight.
pub fn weak_edge_fraction(edges: &[(u32, u32, f64)], clustering: &Clustering, n: usize) -> f64 {
    let med = median(&edges.iter().map(|&(_, _, w)| w).collect::<Vec<_>>());
    let assignment = clustering.assignment(n);
    let mut intra = 0usize;
    let mut weak = 0usize;
    for &(a, b, w) in edges {
        if assignment[a as usize] == assignment[b as usize] {
            intra += 1;
            if w < med {
                weak += 1;
            }
        }
    }
    if intra == 0 {
        0.0
    } else {
        weak as f64 / intra as f64
    }
}

/// Cluster aggregates at one inflation value.
pub fn cluster_aggregates(aggs: &[Aggregate], inflation: f64) -> AggregateClustering {
    let edges = similarity_edges(aggs);
    let clustering = mcl_by_components(aggs.len(), &edges, inflation);
    let weak = weak_edge_fraction(&edges, &clustering, aggs.len());
    AggregateClustering {
        clusters: clustering.clusters,
        inflation,
        weak_edge_fraction: weak,
    }
}

/// The paper's parameter sweep: try each inflation candidate and keep the
/// clustering minimizing the weak-edge fraction (ties favor coarser, i.e.
/// smaller inflation). Returns the winner plus all diagnostics.
pub fn sweep_inflation(
    aggs: &[Aggregate],
    candidates: &[f64],
) -> (AggregateClustering, Vec<(f64, f64)>) {
    assert!(!candidates.is_empty());
    let mut best: Option<AggregateClustering> = None;
    let mut diagnostics = Vec::with_capacity(candidates.len());
    for &inf in candidates {
        let c = cluster_aggregates(aggs, inf);
        diagnostics.push((inf, c.weak_edge_fraction));
        let better = match &best {
            None => true,
            Some(b) => c.weak_edge_fraction < b.weak_edge_fraction - 1e-12,
        };
        if better {
            best = Some(c);
        }
    }
    (best.expect("at least one candidate"), diagnostics)
}

/// [`sweep_inflation`], reporting the winning clustering's shape through
/// `rec`: `aggregate.sweep_candidates`, `aggregate.clusters`,
/// `aggregate.unclustered` counters and an `aggregate.cluster_size`
/// histogram. MCL is deterministic, so these are safe outside the metrics
/// document's `timing` key.
pub fn sweep_inflation_observed(
    aggs: &[Aggregate],
    candidates: &[f64],
    rec: &dyn Recorder,
) -> (AggregateClustering, Vec<(f64, f64)>) {
    let (best, diagnostics) = sweep_inflation(aggs, candidates);
    rec.counter("aggregate.sweep_candidates")
        .add(candidates.len() as u64);
    rec.counter("aggregate.clusters")
        .add(best.clusters.len() as u64);
    rec.counter("aggregate.unclustered")
        .add(best.unclustered() as u64);
    let sizes = rec.histogram("aggregate.cluster_size");
    for c in &best.clusters {
        sizes.record(c.len() as u64);
    }
    (best, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Addr, Block24};

    fn lh(n: u32) -> Addr {
        Addr(0x0A00_0000 + n)
    }

    fn agg(id: u32, lhs: &[u32]) -> Aggregate {
        let mut set: Vec<Addr> = lhs.iter().map(|&n| lh(n)).collect();
        set.sort();
        Aggregate {
            lasthops: set,
            blocks: vec![Block24(id)],
        }
    }

    /// Two "PoPs" whose aggregates overlap strongly within and weakly
    /// across: {1,2,3} variants vs {8,9} variants sharing router 5 weakly.
    fn two_pop_world() -> Vec<Aggregate> {
        vec![
            agg(0, &[1, 2, 3]),
            agg(1, &[1, 2]),
            agg(2, &[2, 3]),
            agg(3, &[8, 9]),
            agg(4, &[8, 9, 5]),
            agg(5, &[9, 5]),
        ]
    }

    #[test]
    fn clusters_group_overlapping_aggregates() {
        let aggs = two_pop_world();
        let c = cluster_aggregates(&aggs, 2.0);
        let assignment: Vec<u32> = {
            let mut a = vec![u32::MAX; aggs.len()];
            for (ci, cl) in c.clusters.iter().enumerate() {
                for &v in cl {
                    a[v as usize] = ci as u32;
                }
            }
            a
        };
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_eq!(assignment[4], assignment[5]);
        assert_ne!(assignment[0], assignment[3], "pops must stay apart");
    }

    #[test]
    fn disjoint_aggregates_stay_singletons() {
        let aggs = vec![agg(0, &[1]), agg(1, &[2]), agg(2, &[3])];
        let c = cluster_aggregates(&aggs, 2.0);
        assert_eq!(c.clusters.len(), 3);
        assert_eq!(c.unclustered(), 3);
    }

    #[test]
    fn sweep_returns_best_and_diagnostics() {
        let aggs = two_pop_world();
        let (best, diags) = sweep_inflation(&aggs, &[1.4, 2.0, 3.0]);
        assert_eq!(diags.len(), 3);
        assert!(diags
            .iter()
            .any(|&(inf, frac)| inf == best.inflation
                && (frac - best.weak_edge_fraction).abs() < 1e-12));
    }

    #[test]
    fn weak_edge_fraction_zero_when_no_weak_intra_edges() {
        // One tight cluster with uniform weights: nothing below median.
        let aggs = vec![agg(0, &[1, 2]), agg(1, &[1, 2, 3])];
        let c = cluster_aggregates(&aggs, 2.0);
        assert_eq!(c.weak_edge_fraction, 0.0);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
