//! RTT-series probing (the paper's Section 5.2 cellular test sends 20
//! pings per address and compares the first RTT against the rest).

use crate::prober::{ProbeReply, Prober};
use netsim::Addr;
use serde::{Deserialize, Serialize};

/// A ping series against one destination.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PingSeries {
    /// The probed address.
    pub dst: Addr,
    /// Per-ping RTT in microseconds; `None` for lost probes.
    pub rtts_us: Vec<Option<u64>>,
}

impl PingSeries {
    /// The Section 5.2 statistic: first RTT minus the maximum of the rest,
    /// in seconds. Positive values suggest a radio wake-up delay (cellular).
    ///
    /// Returns `None` when the first ping or all the rest were lost.
    pub fn first_minus_max_rest_secs(&self) -> Option<f64> {
        let first = (*self.rtts_us.first()?)?;
        let max_rest = self.rtts_us[1..].iter().flatten().copied().max()?;
        Some((first as f64 - max_rest as f64) / 1e6)
    }
}

/// Send `count` pings to `dst` and record per-probe RTTs.
pub fn ping_series(prober: &mut Prober<'_>, dst: Addr, count: usize) -> PingSeries {
    let mut rtts = Vec::with_capacity(count);
    for i in 0..count {
        let r = prober.probe_once(dst, 64, i as u16);
        rtts.push(match r.reply {
            ProbeReply::Echo { .. } => Some(r.rtt_us),
            _ => None,
        });
    }
    PingSeries { dst, rtts_us: rtts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};
    use netsim::HostKind;

    fn block_of_kind(s: &netsim::Scenario, kind: HostKind, min_density: f32) -> netsim::Block24 {
        let epoch = s.network.epoch();
        *s.network
            .allocated_blocks()
            .iter()
            .find(|b| {
                let p = s.network.block_profile(**b).unwrap();
                p.kind == kind
                    && p.density > min_density
                    && !s.network.oracle().active_in_block(**b, p, epoch).is_empty()
            })
            .unwrap_or_else(|| panic!("no {kind:?} block in scenario"))
    }

    #[test]
    fn cellular_first_ping_is_slow() {
        let s = build(ScenarioConfig::small(42));
        let blk = block_of_kind(&s, HostKind::Cellular, 0.2);
        let profile = *s.network.block_profile(blk).unwrap();
        let active = s
            .network
            .oracle()
            .active_in_block(blk, &profile, s.network.epoch());
        let dst = active[0];
        let mut p = Prober::new(&s.network, 7);
        let series = ping_series(&mut p, dst, 20);
        let delta = series.first_minus_max_rest_secs().expect("responsive host");
        assert!(delta > 0.1, "cellular wake-up delta {delta}s");
    }

    #[test]
    fn server_first_ping_is_not_slow() {
        let s = build(ScenarioConfig::small(42));
        let blk = block_of_kind(&s, HostKind::Server, 0.2);
        let profile = *s.network.block_profile(blk).unwrap();
        let active = s
            .network
            .oracle()
            .active_in_block(blk, &profile, s.network.epoch());
        let dst = active[0];
        let mut p = Prober::new(&s.network, 7);
        let series = ping_series(&mut p, dst, 20);
        let delta = series.first_minus_max_rest_secs().expect("responsive host");
        assert!(delta.abs() < 0.05, "server delta {delta}s should be ~0");
    }

    #[test]
    fn unresponsive_address_loses_everything() {
        let s = build(ScenarioConfig::tiny(42));
        let blk = s.network.allocated_blocks()[0];
        let mut p = Prober::new(&s.network, 7);
        let series = ping_series(&mut p, blk.addr(0), 5); // .0 hosts nobody
        assert!(series.rtts_us.iter().all(Option::is_none));
        assert!(series.first_minus_max_rest_secs().is_none());
    }
}
