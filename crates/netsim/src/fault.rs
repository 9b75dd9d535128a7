//! Deterministic fault injection: seeded per-link packet loss and per-router
//! ICMP token-bucket rate limiting.
//!
//! Real measurement campaigns never see a perfect network: forward paths
//! drop packets, and routers throttle the ICMP errors traceroute depends on
//! (Augustin et al. document how silently rate-limited ICMP corrupts
//! topology inference). A [`FaultConfig`] turns both phenomena on for a
//! [`Network`](crate::Network) — *deterministically*:
//!
//! * **Link loss** is a stateless Bernoulli draw keyed by the scenario seed,
//!   the link (current router and hop index), and the per-probe nonce that
//!   [`Network::send`](crate::Network::send) already derives from the wire
//!   bytes. The same probe bytes are lost (or not) on the same link no
//!   matter which thread sends them or when. Retries carry fresh sequence
//!   numbers and IP idents, so they are independent draws.
//! * **ICMP rate limiting** is a token bucket per *probe stream* — keyed by
//!   `(router, icmp ident, destination /24)` — rather than per router
//!   globally. A global bucket would make admission depend on how worker
//!   threads interleave; a per-stream bucket sees exactly the arrivals of
//!   one sequential prober, so admission is a pure function of the stream
//!   prefix and classification stays byte-identical at any thread count.
//!
//! With refill rate `r` per arrival and any starting level, a stream sees at
//! most `ceil(1/r) - 1` consecutive denials — so a prober with enough
//! retries *provably* recovers from rate limiting (the loss-resilience the
//! probe crate's backoff layer builds on).

use crate::hash::{mix2, MixMap};
use obs::{Counter, Recorder};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Token-bucket capacity (burst size): how many back-to-back ICMP replies
/// a router sends before throttling to the refill rate.
pub const ICMP_BURST: f32 = 4.0;

/// Fault-injection knobs for a network. Inactive by default: the pristine
/// substrate the rest of the pipeline was calibrated on.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that any one router-to-router (or router-to-host) link
    /// transition silently drops the probe. Compounds per hop.
    pub link_loss: f32,
    /// Token-bucket refill per arriving probe. `Some(r)` switches *every*
    /// responsive router (last-hop routers included) to token-bucket ICMP
    /// admission; routers the scenario already flags with `icmp_loss > 0`
    /// trade their Bernoulli suppression for the bucket. `None` keeps the
    /// legacy behavior: only flagged routers drop, via Bernoulli.
    pub icmp_rate: Option<f32>,
}

impl FaultConfig {
    /// No injected faults (the default).
    pub fn none() -> Self {
        FaultConfig {
            link_loss: 0.0,
            icmp_rate: None,
        }
    }

    /// A lossy network: `link_loss` per-link drop probability plus ICMP
    /// token buckets refilling at `icmp_rate` tokens per arrival.
    pub fn lossy(link_loss: f32, icmp_rate: f32) -> Self {
        FaultConfig {
            link_loss,
            icmp_rate: Some(icmp_rate),
        }
    }

    /// Whether any fault mechanism is switched on.
    pub fn is_active(&self) -> bool {
        self.link_loss > 0.0 || self.icmp_rate.is_some()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Number of lock shards; a power of two, mirroring
/// [`WarmedSet`](crate::concurrent::WarmedSet).
const SHARDS: usize = 64;

/// The identity of one rate-limited probe stream:
/// `(router, icmp ident, destination /24)`.
type StreamKey = (u32, u16, u32);

/// Sharded per-stream token buckets (see the module docs for why admission
/// is per stream, not per router).
pub(crate) struct TokenBuckets {
    shards: Vec<RwLock<MixMap<StreamKey, f32>>>,
}

impl TokenBuckets {
    pub(crate) fn new() -> Self {
        TokenBuckets {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(MixMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &StreamKey) -> &RwLock<MixMap<StreamKey, f32>> {
        let h = mix2(((key.0 as u64) << 32) | key.2 as u64, 0xB0C4 ^ key.1 as u64);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// One probe arrives on a stream: refill by `rate` (capped at `burst`),
    /// then admit — consuming a token — if a whole token is available.
    /// A fresh stream starts with a full bucket.
    pub(crate) fn admit(&self, key: StreamKey, rate: f32, burst: f32) -> bool {
        let mut map = self.shard(&key).write();
        let tokens = map.entry(key).or_insert(burst);
        *tokens = (*tokens + rate).min(burst);
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Forget all bucket state (epoch or fault-config change).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl Default for TokenBuckets {
    fn default() -> Self {
        TokenBuckets::new()
    }
}

impl Clone for TokenBuckets {
    fn clone(&self) -> Self {
        TokenBuckets {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(s.read().clone()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for TokenBuckets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenBuckets")
            .field("streams", &self.len())
            .finish()
    }
}

/// Thread-safe fault accounting (interior mutability, like the network's
/// carried-probe counter). The counters are [`obs::Counter`] handles so a
/// recorder can intern them by name; until one is attached they are
/// detached free-standing atomics.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    /// Probes dropped in flight by injected link loss.
    pub(crate) link_drops: Counter,
    /// ICMP errors suppressed by a token bucket.
    pub(crate) rate_limited_drops: Counter,
    /// ICMP errors suppressed by legacy Bernoulli `icmp_loss`.
    pub(crate) icmp_loss_drops: Counter,
    /// Probes that reached an anonymous router with no TTL left, or no
    /// route: it answers nothing.
    pub(crate) silent_anonymous: Counter,
    /// Probes delivered to an address with no host, or whose host is down
    /// at this epoch.
    pub(crate) silent_host: Counter,
    /// Probes that ran out of hops in a forwarding loop, or were sent with
    /// TTL 0.
    pub(crate) silent_hop_limit: Counter,
}

impl FaultCounters {
    /// Re-home the counters in `rec`'s registry (carrying current values
    /// over), so fault drops show up in the exported metrics document.
    pub(crate) fn attach(&mut self, rec: &dyn Recorder) {
        for (name, c) in [
            ("net.link_drops", &mut self.link_drops),
            ("net.rate_limited_drops", &mut self.rate_limited_drops),
            ("net.icmp_loss_drops", &mut self.icmp_loss_drops),
            ("net.silent.anonymous_router", &mut self.silent_anonymous),
            ("net.silent.no_host", &mut self.silent_host),
            ("net.silent.hop_limit", &mut self.silent_hop_limit),
        ] {
            let interned = rec.counter(name);
            interned.add(c.get());
            *c = interned;
        }
    }
}

impl Clone for FaultCounters {
    fn clone(&self) -> Self {
        FaultCounters {
            link_drops: self.link_drops.fork(),
            rate_limited_drops: self.rate_limited_drops.fork(),
            icmp_loss_drops: self.icmp_loss_drops.fork(),
            silent_anonymous: self.silent_anonymous.fork(),
            silent_host: self.silent_host.fork(),
            silent_hop_limit: self.silent_hop_limit.fork(),
        }
    }
}

/// A snapshot of the network's probe and fault accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Probe packets the network carried.
    pub probes_carried: u64,
    /// Probes dropped in flight by injected link loss.
    pub link_drops: u64,
    /// ICMP errors suppressed by token-bucket rate limiting.
    pub rate_limited_drops: u64,
    /// ICMP errors suppressed by legacy Bernoulli `icmp_loss`.
    pub icmp_loss_drops: u64,
    /// Probe-hops routed with a churned (re-salted) next-hop selection.
    #[serde(default)]
    pub dyn_rewrites: u64,
    /// Probe-hops whose ECMP group was clamped by a load-balancer resize.
    #[serde(default)]
    pub dyn_resizes: u64,
    /// Probes caught in a transient forwarding loop.
    #[serde(default)]
    pub dyn_loops: u64,
    /// ICMP errors sourced from a reused upstream address.
    #[serde(default)]
    pub dyn_addr_reuses: u64,
    /// ICMP errors sourced from a phantom false-diamond interface.
    #[serde(default)]
    pub dyn_false_diamonds: u64,
    /// Replies delayed by netem perturbation.
    #[serde(default)]
    pub netem_delays: u64,
    /// Replies arriving a full jitter window late ("reordered").
    #[serde(default)]
    pub netem_reorders: u64,
    /// Replies duplicated on the wire.
    #[serde(default)]
    pub netem_duplicates: u64,
}

/// Why probes got no answer, beyond the fault drops in [`NetworkStats`]:
/// the silences the simulated internet produces by construction. A retry
/// of any of these meets the same silence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SilenceStats {
    /// Probes whose Time Exceeded or Unreachable was due from an anonymous
    /// router.
    pub anonymous_router: u64,
    /// Probes delivered where no host answers: an unallocated address, or
    /// a host that is absent or down at this epoch.
    pub no_host: u64,
    /// Probes dropped at the hop limit (a forwarding loop) or sent with
    /// TTL 0.
    pub hop_limit: u64,
}

impl NetworkStats {
    /// Total probes lost to any fault mechanism.
    pub fn total_drops(&self) -> u64 {
        self.link_drops + self.rate_limited_drops + self.icmp_loss_drops
    }

    /// Total probe-level dynamics applications (netem excluded).
    pub fn total_dynamics(&self) -> u64 {
        self.dyn_rewrites
            + self.dyn_resizes
            + self.dyn_loops
            + self.dyn_addr_reuses
            + self.dyn_false_diamonds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!FaultConfig::none().is_active());
        assert!(!FaultConfig::default().is_active());
        assert!(FaultConfig::lossy(0.02, 0.5).is_active());
        assert!(FaultConfig {
            link_loss: 0.01,
            ..FaultConfig::none()
        }
        .is_active());
    }

    #[test]
    fn bucket_admits_burst_then_throttles() {
        let b = TokenBuckets::new();
        let key = (7, 0x4001, 0x0A0101);
        // Full bucket: the first `burst` arrivals all pass.
        for i in 0..4 {
            assert!(b.admit(key, 0.0, 4.0), "burst arrival {i}");
        }
        // Empty bucket, zero refill: everything else is denied.
        assert!(!b.admit(key, 0.0, 4.0));
        assert!(!b.admit(key, 0.0, 4.0));
    }

    #[test]
    fn bucket_bounds_consecutive_denials() {
        // With refill 0.5 a stream can never see 3 denials in a row: two
        // denied arrivals refill a whole token.
        let b = TokenBuckets::new();
        let key = (1, 2, 3);
        let mut consecutive = 0;
        let mut worst = 0;
        for _ in 0..1000 {
            if b.admit(key, 0.5, 4.0) {
                consecutive = 0;
            } else {
                consecutive += 1;
                worst = worst.max(consecutive);
            }
        }
        assert!(worst <= 2, "saw {worst} consecutive denials");
    }

    #[test]
    fn streams_are_independent() {
        let b = TokenBuckets::new();
        let a = (1, 10, 100);
        for _ in 0..8 {
            b.admit(a, 0.0, 4.0);
        }
        assert!(!b.admit(a, 0.0, 4.0), "stream a exhausted");
        // A different ident (or router, or block) is a fresh bucket.
        assert!(b.admit((1, 11, 100), 0.0, 4.0));
        assert!(b.admit((2, 10, 100), 0.0, 4.0));
        assert!(b.admit((1, 10, 101), 0.0, 4.0));
    }

    #[test]
    fn clear_refills_every_bucket() {
        let b = TokenBuckets::new();
        let key = (9, 9, 9);
        for _ in 0..8 {
            b.admit(key, 0.0, 2.0);
        }
        assert!(!b.admit(key, 0.0, 2.0));
        b.clear();
        assert!(b.admit(key, 0.0, 2.0));
    }

    #[test]
    fn stats_sum_drops() {
        let s = NetworkStats {
            probes_carried: 100,
            link_drops: 3,
            rate_limited_drops: 2,
            icmp_loss_drops: 1,
            dyn_loops: 4,
            ..NetworkStats::default()
        };
        assert_eq!(s.total_drops(), 6);
        assert_eq!(s.total_dynamics(), 4);
    }
}
