//! Shared concurrent access to a [`Network`](crate::Network).
//!
//! The forwarding engine is almost entirely read-only: route tables, host
//! profiles, RTT and host oracles are pure functions of the scenario seed.
//! Only two pieces of state mutate per probe — the carried-probe counter
//! and the cellular radio warm-up set — so those live behind interior
//! mutability (a striped [`obs::Counter`], whose threads each write their
//! own cache line, and the sharded [`WarmedSet`]), which makes
//! [`Network::exchange`](crate::Network::exchange) take `&self` and the whole network `Sync`.
//!
//! Share one network across worker threads by passing `&Network` into
//! scoped threads ([`std::thread::scope`]): zero setup cost, and the
//! borrow ends with the scope, so `&mut` control-plane operations (epoch
//! changes, topology edits) resume right after. A `probe::Prober` holds
//! exactly such a borrow, so the snapshot scan, classification and reprobe
//! validation each build one prober per worker (or per block) over the
//! one network.
//!
//! ```
//! use netsim::build::{build, ScenarioConfig};
//!
//! let scenario = build(ScenarioConfig::tiny(42));
//! let net = &scenario.network;
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| net.vantage_addr());
//!     }
//! });
//! ```

use crate::addr::Addr;
use crate::hash::MixSet;
use parking_lot::RwLock;

/// Number of lock shards in a [`WarmedSet`]. A power of two so the shard
/// index is a mask; 64 shards keep contention negligible at any realistic
/// worker count.
const SHARDS: usize = 64;

/// A concurrent set of addresses whose cellular radios have been woken by a
/// probe, sharded across `SHARDS` `parking_lot` locks keyed by address
/// hash so parallel workers probing different /24s never contend.
pub struct WarmedSet {
    shards: Vec<RwLock<MixSet<Addr>>>,
}

impl WarmedSet {
    /// An empty set.
    pub fn new() -> Self {
        WarmedSet {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(MixSet::default()))
                .collect(),
        }
    }

    fn shard(&self, addr: Addr) -> &RwLock<MixSet<Addr>> {
        // Mix the bits so consecutive addresses of one /24 spread over
        // shards (a worker hammering one block still uses several locks).
        let h = crate::hash::mix2(addr.0 as u64, 0x57A8);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Whether `addr` has been warmed.
    pub fn contains(&self, addr: Addr) -> bool {
        self.shard(addr).read().contains(&addr)
    }

    /// Warm `addr` and report whether it was cold, as one atomic step (the
    /// first probe of a cellular address sees the wake-up delay exactly
    /// once even under concurrent probing).
    pub fn warm(&self, addr: Addr) -> bool {
        self.shard(addr).write().insert(addr)
    }

    /// Forget all warmed addresses (epoch change: radios cool down).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Number of warmed addresses.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no address is warmed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

impl Default for WarmedSet {
    fn default() -> Self {
        WarmedSet::new()
    }
}

impl Clone for WarmedSet {
    fn clone(&self) -> Self {
        WarmedSet {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(s.read().clone()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for WarmedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmedSet")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, ScenarioConfig};
    use crate::forward::encode_probe;
    use crate::topology::Network;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn network_and_handle_are_send_sync() {
        assert_send_sync::<Network>();
        assert_send_sync::<WarmedSet>();
    }

    #[test]
    fn warmed_set_basics() {
        let set = WarmedSet::new();
        let a = Addr::new(10, 0, 0, 1);
        assert!(set.is_empty());
        assert!(!set.contains(a));
        assert!(set.warm(a), "first warm reports cold");
        assert!(!set.warm(a), "second warm reports already-warm");
        assert!(set.contains(a));
        assert_eq!(set.len(), 1);
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn warmed_set_clone_is_deep() {
        let set = WarmedSet::new();
        set.warm(Addr::new(10, 0, 0, 1));
        let copy = set.clone();
        copy.warm(Addr::new(10, 0, 0, 2));
        assert_eq!(set.len(), 1, "clone must not alias the original");
        assert_eq!(copy.len(), 2);
    }

    #[test]
    fn concurrent_probe_accounting_is_exact() {
        let scenario = build(ScenarioConfig::tiny(42));
        let net = &scenario.network;
        let vantage = net.vantage_addr();
        let blocks = net.allocated_blocks();
        let per_thread = 50usize;
        let threads = 8usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let blocks = &blocks;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let dst = blocks[(t * per_thread + i) % blocks.len()].addr(9);
                        let probe =
                            encode_probe(vantage, dst, 64, t as u16, i as u16, 0xAAAA, i as u16);
                        net.send(probe).unwrap();
                    }
                });
            }
        });
        assert_eq!(net.probes_carried(), (threads * per_thread) as u64);
    }
}
