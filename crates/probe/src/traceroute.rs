//! Paris traceroute: a TTL-sweeping route tracer that holds the flow
//! identifier constant so per-flow load balancers see one flow (Augustin et
//! al., IMC 2006).
//!
//! Classic traceroute varies the probe header per TTL, so consecutive hops
//! may belong to different load-balanced paths and the result is a chimera.
//! Paris fixes the header fields that per-flow balancers hash — for ICMP,
//! the checksum — so the traced hops belong to one real path.

use crate::prober::{ProbeReply, Prober};
use crate::types::Path;
use netsim::Addr;
use serde::{Deserialize, Serialize};

/// Outcome of one traceroute.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Traceroute {
    /// The probed destination.
    pub dst: Addr,
    /// The flow label the probes carried.
    pub flow_label: u16,
    /// Router hops (TTL 1..), excluding the destination.
    pub path: Path,
    /// Whether the destination itself answered at the end.
    pub reached: bool,
    /// Hop distance of the destination (TTL at which it echoed), if reached.
    pub dst_distance: Option<u8>,
}

/// Maximum TTL swept before giving up.
pub const MAX_TTL: u8 = 40;

/// Consecutive unresponsive hops after which the trace aborts (the
/// destination is presumed unreachable or silent).
pub const MAX_SILENT_RUN: usize = 6;

/// Trace the route to `dst` holding `flow_label` constant (Paris-style),
/// sweeping TTL from 1 upward.
pub fn paris_traceroute(prober: &mut Prober<'_>, dst: Addr, flow_label: u16) -> Traceroute {
    let mut hops = Vec::new();
    let mut silent_run = 0usize;
    for ttl in 1..=MAX_TTL {
        let r = prober.probe(dst, ttl, flow_label);
        match r.reply {
            ProbeReply::Echo { from, .. } if from == dst => {
                return Traceroute {
                    dst,
                    flow_label,
                    path: Path { hops },
                    reached: true,
                    dst_distance: Some(ttl),
                };
            }
            ProbeReply::TimeExceeded { from } => {
                hops.push(Some(from));
                silent_run = 0;
            }
            ProbeReply::Unreachable { from } => {
                // Route ends here; the destination is not reachable.
                hops.push(Some(from));
                return Traceroute {
                    dst,
                    flow_label,
                    path: Path { hops },
                    reached: false,
                    dst_distance: None,
                };
            }
            _ => {
                hops.push(None);
                silent_run += 1;
                if silent_run >= MAX_SILENT_RUN {
                    break;
                }
            }
        }
    }
    Traceroute {
        dst,
        flow_label,
        path: Path { hops },
        reached: false,
        dst_distance: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};

    fn try_active_dst(s: &netsim::Scenario) -> Result<Addr, crate::ProbeError> {
        for b in s.network.allocated_blocks() {
            let t = &s.truth.blocks[&b];
            if !t.homogeneous || !s.truth.pops[t.pop as usize].responsive {
                continue;
            }
            let p = *s.network.block_profile(b).unwrap();
            let act = s.network.oracle().active_in_block(b, &p, s.network.epoch());
            if let Some(&a) = act.first() {
                return Ok(a);
            }
        }
        Err(crate::ProbeError::NoActiveDestination)
    }

    fn active_dst(s: &netsim::Scenario) -> Addr {
        try_active_dst(s).expect("tiny scenario has an active destination")
    }

    #[test]
    fn trace_reaches_active_destination() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 9);
        let tr = paris_traceroute(&mut p, dst, 0x1234);
        assert!(tr.reached, "hops: {:?}", tr.path.hops);
        let d = tr.dst_distance.unwrap();
        assert_eq!(tr.path.hops.len() as u8, d - 1);
        // The topology is campus→gw→transit→backbone→border→intra→agg→LH.
        assert_eq!(d, 9, "expected 8 routers + host");
    }

    #[test]
    fn same_flow_label_gives_same_path() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 9);
        let t1 = paris_traceroute(&mut p, dst, 0x1234);
        let t2 = paris_traceroute(&mut p, dst, 0x1234);
        assert!(t1.path.matches(&t2.path), "Paris invariant violated");
    }

    #[test]
    fn different_flow_labels_can_diverge() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 9);
        let mut distinct = std::collections::HashSet::new();
        for label in 0..16u16 {
            let t = paris_traceroute(&mut p, dst, label);
            distinct.insert(t.path.hops.clone());
        }
        assert!(
            distinct.len() > 1,
            "per-flow ECMP should produce path diversity"
        );
    }

    #[test]
    fn unreachable_destination_stops_early() {
        let s = build(ScenarioConfig::tiny(42));
        let mut p = Prober::new(&s.network, 9);
        let tr = paris_traceroute(&mut p, Addr::new(225, 0, 0, 1), 7);
        assert!(!tr.reached);
        assert!(tr.path.hops.len() < MAX_TTL as usize);
    }
}
