//! Full-block surveys: probe *every* active address of chosen /24s,
//! collecting complete last-hop and (optionally) full-route data.
//!
//! The paper builds such a dataset for the Section 3.1 metric comparison
//! (last-hop vs sub-path vs entire traceroute), the Figure 3 cardinality
//! CDFs, the Figure 4 confidence table, and the Figure 11 topology-
//! discovery experiment.

use crate::confidence::BlockLasthopData;
use crate::select::SelectedBlock;
use netsim::{Addr, Block24};
use probe::{enumerate_paths, LasthopOutcome, LasthopWalker, MdaMode, Path, Prober};
use serde::{Deserialize, Serialize};

/// Complete measurement data for one block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockSurvey {
    /// The surveyed block.
    pub block: Block24,
    /// Per-address last-hop router sets (responsive addresses only).
    pub per_addr_lasthops: Vec<(Addr, Vec<Addr>)>,
    /// Per-address full route sets from Paris-traceroute MDA (only when
    /// requested; empty otherwise).
    pub per_addr_paths: Vec<(Addr, Vec<Path>)>,
    /// Probe packets spent.
    pub probes_used: u64,
}

impl BlockSurvey {
    /// Distinct last-hop routers (last-hop cardinality, Figure 3b).
    pub fn lasthop_cardinality(&self) -> usize {
        let mut v: Vec<Addr> = self
            .per_addr_lasthops
            .iter()
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v.len()
    }

    /// Distinct entire routes across all addresses (Figure 3b).
    pub fn path_cardinality(&self) -> usize {
        let mut distinct: Vec<&Path> = Vec::new();
        for (_, paths) in &self.per_addr_paths {
            for p in paths {
                if !distinct.iter().any(|q| q.matches(p)) {
                    distinct.push(p);
                }
            }
        }
        distinct.len()
    }

    /// Distinct sub-paths: routes truncated after the deepest hop common to
    /// every observed route (the router "closest to the /24", Figure 3b).
    pub fn subpath_cardinality(&self) -> usize {
        let all: Vec<&Path> = self
            .per_addr_paths
            .iter()
            .flat_map(|(_, ps)| ps.iter())
            .collect();
        if all.is_empty() {
            return 0;
        }
        let common = deepest_common_hop(&all);
        let start = common.map(|i| i + 1).unwrap_or(0);
        let mut distinct: Vec<Vec<crate::Hop>> = Vec::new();
        for p in all {
            let tail: Vec<crate::Hop> = p.hops.iter().skip(start).copied().collect();
            let matches_existing = distinct.iter().any(|q| {
                q.len() == tail.len()
                    && q.iter().zip(&tail).all(|(a, b)| match (a, b) {
                        (Some(x), Some(y)) => x == y,
                        _ => true,
                    })
            });
            if !matches_existing {
                distinct.push(tail);
            }
        }
        distinct.len()
    }

    /// Convert to confidence-table input.
    pub fn lasthop_data(&self) -> BlockLasthopData {
        BlockLasthopData {
            per_addr: self.per_addr_lasthops.clone(),
        }
    }
}

/// Index of the deepest hop position at which every path agrees (wildcards
/// compatible), or `None` if even the first hop disagrees.
fn deepest_common_hop(paths: &[&Path]) -> Option<usize> {
    let min_len = paths.iter().map(|p| p.hops.len()).min()?;
    let mut deepest = None;
    for i in 0..min_len {
        let mut addr: Option<Addr> = None;
        let mut agree = true;
        for p in paths {
            if let Some(a) = p.hops[i] {
                match addr {
                    Some(b) if a != b => {
                        agree = false;
                        break;
                    }
                    _ => addr = Some(a),
                }
            }
        }
        if agree {
            deepest = Some(i);
        } else {
            break;
        }
    }
    deepest
}

/// Survey every active address of a selected block.
pub fn survey_block(prober: &mut Prober<'_>, sel: &SelectedBlock, with_paths: bool) -> BlockSurvey {
    let before = prober.probes_sent();
    let mut per_addr_lasthops = Vec::new();
    let mut per_addr_paths = Vec::new();
    for dst in sel.actives() {
        // A fresh walker per address: each is measured cold, with its own
        // echo inference and no hint from the block's other addresses.
        let lh = LasthopWalker::new(MdaMode::Classic).probe(prober, dst);
        if let LasthopOutcome::Found { lasthops, .. } = lh.outcome {
            per_addr_lasthops.push((dst, lasthops));
        } else if matches!(lh.outcome, LasthopOutcome::Unresponsive) {
            continue;
        }
        if with_paths {
            let mda = enumerate_paths(prober, dst, 48);
            if !mda.paths.is_empty() {
                per_addr_paths.push((dst, mda.paths));
            }
        }
    }
    BlockSurvey {
        block: sel.block,
        per_addr_lasthops,
        per_addr_paths,
        probes_used: prober.probes_sent() - before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_block;
    use netsim::build::{build, ScenarioConfig};
    use probe::zmap;

    fn surveyed(seed: u64, want_multi_lh: bool) -> Option<(netsim::Scenario, BlockSurvey)> {
        let mut scenario = build(ScenarioConfig::tiny(seed));
        let snapshot = zmap::scan_all(&mut scenario.network, 1);
        // Probe-time responsiveness matters too: a block can go quiet
        // between the snapshot epoch and the survey, and per-flow balanced
        // pops legitimately fan one address over every last-hop.
        let epoch = scenario.network.epoch();
        let block = snapshot.blocks().find(|&b| {
            let t = &scenario.truth.blocks[&b];
            let pop = &scenario.truth.pops[t.pop as usize];
            let profile = *scenario.network.block_profile(b).unwrap();
            t.homogeneous
                && pop.responsive
                && pop.lasthop_policy != netsim::LbPolicy::PerFlow
                && (pop.lasthop_addrs.len() > 1) == want_multi_lh
                && snapshot.active_in(b).len() >= 8
                && scenario
                    .network
                    .oracle()
                    .active_in_block(b, &profile, epoch)
                    .len()
                    >= 8
        })?;
        let sel = select_block(&snapshot, block).ok()?;
        let mut prober = Prober::new(&scenario.network, 0x50);
        let survey = survey_block(&mut prober, &sel, true);
        drop(prober);
        Some((scenario, survey))
    }

    #[test]
    fn cardinalities_ordered_lasthop_le_subpath_le_path() {
        let Some((_, s)) = surveyed(42, true) else {
            return;
        };
        let lh = s.lasthop_cardinality();
        let sp = s.subpath_cardinality();
        let ep = s.path_cardinality();
        assert!(lh >= 1);
        assert!(
            lh <= ep,
            "last-hop cardinality {lh} should not exceed path cardinality {ep}"
        );
        assert!(sp <= ep, "sub-path {sp} ≤ entire path {ep}");
    }

    #[test]
    fn multi_lh_pop_shows_multiple_lasthops() {
        let Some((scenario, s)) = surveyed(42, true) else {
            return;
        };
        let t = &scenario.truth.blocks[&s.block];
        let pop = &scenario.truth.pops[t.pop as usize];
        assert!(s.lasthop_cardinality() >= 2, "per-destination ECMP fan");
        assert!(s.lasthop_cardinality() <= pop.lasthop_addrs.len());
    }

    #[test]
    fn single_lh_pop_shows_one_lasthop() {
        let Some((_, s)) = surveyed(42, false) else {
            return;
        };
        assert_eq!(s.lasthop_cardinality(), 1);
    }

    #[test]
    fn deepest_common_hop_basics() {
        let p = |hops: Vec<Option<Addr>>| Path { hops };
        let a = Addr::new(1, 1, 1, 1);
        let b = Addr::new(2, 2, 2, 2);
        let c = Addr::new(3, 3, 3, 3);
        let paths = [
            p(vec![Some(a), Some(b), Some(c)]),
            p(vec![Some(a), None, Some(b)]),
        ];
        let refs: Vec<&Path> = paths.iter().collect();
        // Hop 0 agrees (a); hop 1 agrees via wildcard (b); hop 2 disagrees.
        assert_eq!(deepest_common_hop(&refs), Some(1));
    }

    #[test]
    fn survey_counts_probes() {
        let Some((_, s)) = surveyed(42, true) else {
            return;
        };
        assert!(s.probes_used > 0);
        assert!(!s.per_addr_lasthops.is_empty());
    }
}
