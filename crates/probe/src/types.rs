//! Common measurement types: hops, paths, wildcard-aware comparison.

use netsim::Addr;
use serde::{Deserialize, Serialize};

/// One traceroute hop: the responding router's address, or `None` for an
/// unresponsive (`*`) hop.
pub type Hop = Option<Addr>;

/// An IP-level route: the sequence of router interfaces between the vantage
/// and the destination's last-hop router (the destination itself excluded).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct Path {
    /// Hops in TTL order, starting at TTL 1.
    pub hops: Vec<Hop>,
}

impl Path {
    /// The last hop before the destination, if it responded.
    pub fn lasthop(&self) -> Hop {
        self.hops.last().copied().flatten()
    }

    /// Wildcard-aware equality (Section 2.1): unresponsive hops match any
    /// address, so `<A, *, C>` equals `<A, B, C>` and `<*, B, C>`.
    ///
    /// Lengths must still agree — a missing hop is not a shorter path.
    pub fn matches(&self, other: &Path) -> bool {
        self.hops.len() == other.hops.len()
            && self
                .hops
                .iter()
                .zip(&other.hops)
                .all(|(a, b)| match (a, b) {
                    (Some(x), Some(y)) => x == y,
                    _ => true,
                })
    }
}

/// Whether two route *sets* are "identical" in the paper's generous sense:
/// the sets share at least one (wildcard-compatible) route.
pub fn route_sets_identical(a: &[Path], b: &[Path]) -> bool {
    a.iter().any(|pa| b.iter().any(|pb| pa.matches(pb)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u32) -> Hop {
        Some(Addr(v))
    }

    fn path(hops: Vec<Hop>) -> Path {
        Path { hops }
    }

    #[test]
    fn wildcard_matches_any() {
        let p1 = path(vec![a(1), a(2), a(3)]);
        let p2 = path(vec![a(1), None, a(3)]);
        let p3 = path(vec![None, a(2), a(3)]);
        assert!(p1.matches(&p2));
        assert!(p1.matches(&p3));
        assert!(p2.matches(&p3));
    }

    #[test]
    fn wildcard_does_not_match_across_lengths() {
        let p1 = path(vec![a(1), a(2)]);
        let p2 = path(vec![a(1), a(2), a(3)]);
        assert!(!p1.matches(&p2));
    }

    #[test]
    fn mismatched_addresses_differ() {
        let p1 = path(vec![a(1), a(2), a(3)]);
        let p2 = path(vec![a(1), a(9), a(3)]);
        assert!(!p1.matches(&p2));
    }

    #[test]
    fn route_sets_identical_needs_one_shared() {
        let r1 = path(vec![a(1), a(2)]);
        let r2 = path(vec![a(1), a(3)]);
        let r3 = path(vec![a(4), a(5)]);
        assert!(route_sets_identical(
            &[r1.clone(), r2.clone()],
            &[r2.clone(), r3.clone()]
        ));
        assert!(!route_sets_identical(&[r1], &[r3]));
    }

    #[test]
    fn lasthop_skips_unresponsive() {
        assert_eq!(path(vec![a(1), a(2)]).lasthop(), Some(Addr(2)));
        assert_eq!(path(vec![a(1), None]).lasthop(), None);
        assert_eq!(path(vec![]).lasthop(), None);
    }
}
