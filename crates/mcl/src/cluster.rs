//! The MCL iteration and cluster interpretation (van Dongen 2000).

use crate::matrix::SparseMatrix;
use serde::{Deserialize, Serialize};

/// Convergence threshold on the max entry change between rounds.
const EPSILON: f64 = 1e-6;

/// Iteration cap.
const MAX_ITERS: usize = 100;

/// The clustering result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Clustering {
    /// Clusters as sorted vertex lists; singletons included.
    pub clusters: Vec<Vec<u32>>,
    /// Iterations until convergence.
    pub iterations: usize,
}

impl Clustering {
    /// Cluster index of each vertex.
    pub fn assignment(&self, n: usize) -> Vec<u32> {
        let mut a = vec![u32::MAX; n];
        for (ci, cluster) in self.clusters.iter().enumerate() {
            for &v in cluster {
                a[v as usize] = ci as u32;
            }
        }
        a
    }

    /// Clusters with at least two vertices.
    pub fn non_trivial(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.clusters.iter().filter(|c| c.len() > 1)
    }
}

/// Run MCL on an undirected weighted graph given as an edge list.
///
/// Vertices are `0..n`. Isolated vertices become singleton clusters.
/// `inflation` is the exponent that sets the granularity: larger values
/// yield finer clusters. The paper sweeps it (Section 6.4); the typical
/// range is 1.2–5.0.
pub fn mcl(n: usize, edges: &[(u32, u32, f64)], inflation: f64) -> Clustering {
    if n == 0 {
        return Clustering {
            clusters: Vec::new(),
            iterations: 0,
        };
    }
    let mut m = SparseMatrix::from_edges(n, edges);
    m.normalize_columns();
    let mut iterations = 0;
    for _ in 0..MAX_ITERS {
        iterations += 1;
        let mut next = m.squared();
        next.inflate(inflation);
        let delta = next.max_abs_diff(&m);
        m = next;
        if delta < EPSILON {
            break;
        }
    }
    Clustering {
        clusters: interpret(&m),
        iterations,
    }
}

/// Interpret a converged MCL matrix: attractors are vertices with positive
/// diagonal mass; each attractor's row spans its cluster. Overlapping
/// attractor rows are unioned; vertices claimed by no attractor become
/// singletons.
fn interpret(m: &SparseMatrix) -> Vec<Vec<u32>> {
    let n = m.dim();
    // attractor_of[v] = representative attractor vertex reaching v.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut Vec<u32>, x: u32) -> u32 {
        if parent[x as usize] != x {
            let root = find(parent, parent[x as usize]);
            parent[x as usize] = root;
        }
        parent[x as usize]
    }
    // A vertex v belongs with attractor a if column v has mass on row a.
    // Union v with every row of its column that is an attractor; union
    // attractors that share a column.
    let attractor: Vec<bool> = (0..n as u32).map(|v| m.get(v, v) > 1e-9).collect();
    for v in 0..n as u32 {
        for &(r, w) in m.column(v) {
            if w > 1e-9 && attractor[r as usize] {
                let (rv, rr) = (find(&mut parent, v), find(&mut parent, r));
                if rv != rr {
                    parent[rv as usize] = rr;
                }
            }
        }
    }
    let mut clusters: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        clusters.entry(root).or_default().push(v);
    }
    clusters.into_values().collect()
}

/// Connected components of an undirected graph (pre-splitting, Section
/// 6.3: MCL never merges vertices across components, and cubic-time work
/// shrinks dramatically when each component runs separately).
pub fn connected_components(n: usize, edges: &[(u32, u32, f64)]) -> Vec<Vec<u32>> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut Vec<u32>, x: u32) -> u32 {
        if parent[x as usize] != x {
            let root = find(parent, parent[x as usize]);
            parent[x as usize] = root;
        }
        parent[x as usize]
    }
    for &(a, b, _) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
        }
    }
    let mut comps: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        comps.entry(root).or_default().push(v);
    }
    comps.into_values().collect()
}

/// Run MCL per connected component and merge the results. Equivalent to
/// whole-graph MCL but with far smaller matrices (and trivially parallel).
///
/// Relabeling is flat: two dense `Vec`s map vertices to components and
/// local indices, and one pass buckets the edge list by component — the
/// whole pre-split is O(n + edges) instead of re-filtering the full edge
/// list per component through a hash map.
pub fn mcl_by_components(n: usize, edges: &[(u32, u32, f64)], inflation: f64) -> Clustering {
    let comps = connected_components(n, edges);
    // Dense vertex → (component, local index) tables.
    let mut comp_of: Vec<u32> = vec![0; n];
    let mut local_of: Vec<u32> = vec![0; n];
    for (ci, comp) in comps.iter().enumerate() {
        for (i, &v) in comp.iter().enumerate() {
            comp_of[v as usize] = ci as u32;
            local_of[v as usize] = i as u32;
        }
    }
    // Bucket the edges by component in one pass. Both endpoints share a
    // component by construction of connected_components.
    let mut sub_edges: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); comps.len()];
    for &(a, b, w) in edges {
        sub_edges[comp_of[a as usize] as usize].push((
            local_of[a as usize],
            local_of[b as usize],
            w,
        ));
    }
    let mut clusters = Vec::new();
    let mut max_iters = 0;
    for (comp, sub_edges) in comps.into_iter().zip(sub_edges) {
        if comp.len() == 1 {
            clusters.push(comp);
            continue;
        }
        let sub = mcl(comp.len(), &sub_edges, inflation);
        max_iters = max_iters.max(sub.iterations);
        for cluster in sub.clusters {
            clusters.push(cluster.into_iter().map(|v| comp[v as usize]).collect());
        }
    }
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort();
    Clustering {
        clusters,
        iterations: max_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense triangles joined by one weak bridge.
    fn two_triangles() -> (usize, Vec<(u32, u32, f64)>) {
        let mut e = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),
            (2, 3, 0.1), // bridge
        ];
        e.shrink_to_fit();
        (6, e)
    }

    #[test]
    fn splits_two_communities() {
        let (n, edges) = two_triangles();
        let c = mcl(n, &edges, 2.0);
        let a = c.assignment(n);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
        assert_eq!(a[3], a[4]);
        assert_eq!(a[4], a[5]);
        assert_ne!(a[0], a[3], "bridge must not merge the triangles");
    }

    #[test]
    fn clusters_partition_vertices() {
        let (n, edges) = two_triangles();
        let c = mcl(n, &edges, 2.0);
        let mut seen = vec![false; n];
        for cluster in &c.clusters {
            for &v in cluster {
                assert!(!seen[v as usize], "vertex {v} in two clusters");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every vertex clustered");
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let c = mcl(4, &[(0, 1, 1.0)], 2.0);
        let a = c.assignment(4);
        assert_eq!(a[0], a[1]);
        assert_ne!(a[2], a[3]);
        assert_ne!(a[2], a[0]);
    }

    #[test]
    fn higher_inflation_gives_finer_clusters() {
        // A 6-cycle: low inflation keeps it together, high splits it.
        let edges: Vec<(u32, u32, f64)> = (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect();
        let coarse = mcl(6, &edges, 1.3);
        let fine = mcl(6, &edges, 4.0);
        assert!(
            fine.clusters.len() >= coarse.clusters.len(),
            "inflation {} clusters vs {}",
            fine.clusters.len(),
            coarse.clusters.len()
        );
    }

    #[test]
    fn empty_graph() {
        let c = mcl(0, &[], 2.0);
        assert!(c.clusters.is_empty());
    }

    #[test]
    fn connected_components_basics() {
        let comps = connected_components(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn component_split_matches_whole_graph() {
        // Two disjoint triangles: per-component MCL must equal whole-graph.
        let edges = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),
        ];
        let whole = mcl(6, &edges, 2.0);
        let split = mcl_by_components(6, &edges, 2.0);
        let mut wc = whole.clusters.clone();
        wc.sort();
        assert_eq!(wc, split.clusters);
    }

    #[test]
    fn converges_within_iteration_cap() {
        let (n, edges) = two_triangles();
        let c = mcl(n, &edges, 2.0);
        assert!(c.iterations < 100, "took {} iterations", c.iterations);
    }

    #[test]
    fn weights_matter() {
        // Two strongly-tied pairs joined by a weak bridge: MCL must keep
        // the pairs and cut the bridge.
        let edges = vec![(0, 1, 10.0), (2, 3, 10.0), (1, 2, 0.01)];
        let c = mcl(4, &edges, 2.0);
        let a = c.assignment(4);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[1], a[2]);
    }

    #[test]
    fn doubleton_with_fractional_similarity_clusters() {
        // Aggregation builds edges with similarity scores < 1; a pair of
        // blocks sharing half their last-hops must still cluster.
        let c = mcl(2, &[(0, 1, 0.5)], 2.0);
        assert_eq!(c.clusters, vec![vec![0, 1]]);
    }
}
