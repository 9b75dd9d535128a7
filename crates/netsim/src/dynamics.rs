//! Time-evolving network dynamics: a seeded, deterministic event schedule
//! driven by a *virtual probe-count clock*.
//!
//! Frozen worlds miss a whole class of real measurement hazards: routes
//! churn mid-campaign, load balancers are reconfigured between probing
//! rounds, and traceroute's own artifacts (transient loops, address-reuse
//! cycles, misattributed-hop false diamonds) inject phantom structure into
//! exactly the last-hop evidence Hobbit classifies on. This module makes the
//! simulated internet evolve *while a campaign probes it* — without giving
//! up any of the determinism contracts the rest of the repo is built on.
//!
//! ## The virtual clock
//!
//! Wall-clock time would make the world depend on scheduling, so dynamics
//! advance on **probe counts**. A global count would still depend on how
//! worker threads interleave, so the clock is sharded per *probe stream* —
//! keyed `(icmp ident, destination /24)`, the same stream identity the ICMP
//! token buckets use. Every classification prober owns one ident and probes
//! one block, so a stream's tick count is exactly that prober's local probe
//! count: a pure function of the stream prefix, byte-identical at any thread
//! count, across kill→resume (the journal pins the schedule and completed
//! blocks are never re-probed), and across shard counts.
//!
//! Ticks are grouped into **epochs** of `period` probes. An event fires "at
//! epoch E": rewrites and resizes stay in force from E onward (the latest
//! applicable event of a kind wins), while transient loops are active only
//! *during* their epoch — they heal, like the real thing.
//!
//! ## The artifact taxonomy
//!
//! * [`DynamicsEvent::NextHopRewrite`] — route churn: the router's ECMP
//!   selection is re-salted from the epoch on, so flows that mapped to one
//!   next hop remap to another over existing links (no topology surgery).
//! * [`DynamicsEvent::LbResize`] — load-balancer reconfiguration: selection
//!   is clamped to the group's first `width` next hops. Narrow, collapse to
//!   one, or widen back with a later event.
//! * [`DynamicsEvent::TransientLoop`] — for one epoch the router forwards
//!   back toward where the probe came from; probes bounce until TTL exhausts,
//!   yielding the alternating-address ladders traceroute folklore knows well.
//! * [`DynamicsEvent::AddressReuse`] — the router's ICMP errors are sourced
//!   from an address that already appears earlier on the path: an apparent
//!   routing cycle that is purely an addressing artifact.
//! * [`DynamicsEvent::FalseDiamond`] — the router alternates its reply
//!   source address per probe, fabricating a per-packet "diamond" that no
//!   forwarding divergence backs.
//!
//! On top of the event schedule, a [`NetemSpec`] perturbs delivered RTTs
//! netem-style (deterministic base delay + per-probe jitter draw, with
//! reorder/duplication modeled as tail-latency inflation and accounting —
//! a request/response simulator cannot literally reorder two in-flight
//! packets, so the observable effect is a late or repeated-cost reply).

use crate::addr::Addr;
use crate::hash::{mix2, MixMap};
use crate::route::RouterId;
use obs::{Counter, Recorder};
use parking_lot::RwLock;

/// Netem-style link perturbation applied to delivered replies.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetemSpec {
    /// Fixed extra one-way delay added to every reply, in microseconds.
    pub delay_us: u32,
    /// Uniform per-probe jitter bound, in microseconds.
    pub jitter_us: u32,
    /// Probability a reply is "reordered" — modeled as arriving a full
    /// jitter-window late (tail latency), since a request/response
    /// simulator has no second packet to swap it with.
    pub reorder_prob: f32,
    /// Probability the reply is duplicated on the wire. The duplicate is
    /// counted (and costs nothing else): the prober's request/response
    /// matching would discard it anyway.
    pub duplicate_prob: f32,
}

impl NetemSpec {
    /// Whether any perturbation knob is non-zero.
    pub fn is_active(&self) -> bool {
        self.delay_us > 0
            || self.jitter_us > 0
            || self.reorder_prob > 0.0
            || self.duplicate_prob > 0.0
    }
}

/// One scheduled change to the world, pinned to a virtual-clock epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DynamicsEvent {
    /// Route churn: re-salt `router`'s ECMP selection from `at_epoch` on.
    NextHopRewrite {
        /// The router whose next-hop selection is rewritten.
        router: RouterId,
        /// First epoch the rewrite is in force.
        at_epoch: u32,
    },
    /// Load-balancer reconfiguration: from `at_epoch` on, `router` selects
    /// among only its first `width` next hops. A later resize replaces it.
    LbResize {
        /// The router whose ECMP group is resized.
        router: RouterId,
        /// First epoch the resize is in force.
        at_epoch: u32,
        /// New effective fan width (clamped to the group's actual size).
        width: u8,
    },
    /// Transient forwarding loop: *during* `at_epoch` only, `router` sends
    /// probes back toward the previous hop instead of forward.
    TransientLoop {
        /// The looping router.
        router: RouterId,
        /// The single epoch the loop exists.
        at_epoch: u32,
    },
    /// Address-reuse cycle: from `at_epoch` on, `router` sources its ICMP
    /// errors from `alias` — an address already seen earlier on the path.
    AddressReuse {
        /// The router whose reply source is rewritten.
        router: RouterId,
        /// First epoch the reuse is in force.
        at_epoch: u32,
        /// The reused (upstream) address.
        alias: Addr,
    },
    /// Misattributed-hop false diamond: from `at_epoch` on, `router`
    /// alternates its reply source between its own address and `alias`
    /// per probe, fabricating a phantom per-packet interface pair.
    FalseDiamond {
        /// The router whose replies alternate.
        router: RouterId,
        /// First epoch the alternation is in force.
        at_epoch: u32,
        /// The phantom second interface address.
        alias: Addr,
    },
}

impl DynamicsEvent {
    /// The router the event applies to.
    pub fn router(&self) -> RouterId {
        match *self {
            DynamicsEvent::NextHopRewrite { router, .. }
            | DynamicsEvent::LbResize { router, .. }
            | DynamicsEvent::TransientLoop { router, .. }
            | DynamicsEvent::AddressReuse { router, .. }
            | DynamicsEvent::FalseDiamond { router, .. } => router,
        }
    }

    /// The epoch the event fires at.
    pub fn at_epoch(&self) -> u32 {
        match *self {
            DynamicsEvent::NextHopRewrite { at_epoch, .. }
            | DynamicsEvent::LbResize { at_epoch, .. }
            | DynamicsEvent::TransientLoop { at_epoch, .. }
            | DynamicsEvent::AddressReuse { at_epoch, .. }
            | DynamicsEvent::FalseDiamond { at_epoch, .. } => at_epoch,
        }
    }
}

/// The compiled dynamics for one network: an epoch length, an event
/// schedule, and optional netem perturbation. Inactive by default.
///
/// The schedule is data, not state: it is a pure function of the scenario
/// (derived from spec or seed before probing starts), so replaying it —
/// after a crash, on another shard, at another thread count — reproduces
/// the same world evolution exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicsConfig {
    /// Virtual-clock probes per epoch, per stream. `0` disables the event
    /// schedule entirely (the clock never ticks).
    pub period: u64,
    /// The event schedule. Order is irrelevant; effective behavior is
    /// "latest applicable event of a kind per router wins".
    pub events: Vec<DynamicsEvent>,
    /// Netem-style RTT perturbation, applied independently of the epoch.
    pub netem: Option<NetemSpec>,
}

impl DynamicsConfig {
    /// No dynamics (the default): the frozen world every earlier PR pinned.
    pub fn none() -> Self {
        DynamicsConfig::default()
    }

    /// Whether the event schedule is live (period set and events present).
    pub fn events_active(&self) -> bool {
        self.period > 0 && !self.events.is_empty()
    }

    /// Whether anything at all is switched on.
    pub fn is_active(&self) -> bool {
        self.events_active() || self.netem.map(|n| n.is_active()).unwrap_or(false)
    }

    /// The epoch a stream at virtual tick `tick` is in.
    pub fn epoch_of(&self, tick: u64) -> u32 {
        tick.checked_div(self.period)
            .map_or(0, |e| e.min(u32::MAX as u64) as u32)
    }
}

/// Number of lock shards; a power of two, mirroring
/// [`TokenBuckets`](crate::fault::TokenBuckets).
const SHARDS: usize = 64;

/// The identity of one virtual-clock stream: `(icmp ident, destination /24)`.
/// Classification probers own one ident and probe one block, so this is
/// exactly "one prober's sequential sends" — see the module docs.
type ClockKey = (u16, u32);

/// Sharded per-stream virtual clocks. A stream's tick count advances by one
/// per probe the network carries for it, independent of every other stream.
pub(crate) struct VirtualClock {
    shards: Vec<RwLock<MixMap<ClockKey, u64>>>,
}

impl VirtualClock {
    pub(crate) fn new() -> Self {
        VirtualClock {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(MixMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &ClockKey) -> &RwLock<MixMap<ClockKey, u64>> {
        let h = mix2(key.1 as u64, 0xC10C ^ key.0 as u64);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Advance the stream's clock by one probe; returns the tick the probe
    /// occupies (0-based: the first probe on a stream is tick 0).
    pub(crate) fn tick(&self, key: ClockKey) -> u64 {
        let mut map = self.shard(&key).write();
        let t = map.entry(key).or_insert(0);
        let now = *t;
        *t += 1;
        now
    }

    /// Forget all clock state (dynamics reconfiguration).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clone for VirtualClock {
    fn clone(&self) -> Self {
        VirtualClock {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(s.read().clone()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualClock")
            .field("streams", &self.len())
            .finish()
    }
}

/// Thread-safe dynamics accounting, mirroring
/// [`FaultCounters`](crate::fault::FaultCounters): detached atomics until a
/// recorder interns them by name.
#[derive(Debug, Default)]
pub(crate) struct DynamicsCounters {
    /// Probe-hops whose next-hop selection used a rewritten salt.
    pub(crate) rewrites: Counter,
    /// Probe-hops whose ECMP group was clamped by a resize.
    pub(crate) resizes: Counter,
    /// Probes caught in a transient loop.
    pub(crate) loops: Counter,
    /// ICMP errors sourced from a reused upstream address.
    pub(crate) addr_reuses: Counter,
    /// ICMP errors sourced from a phantom false-diamond interface.
    pub(crate) false_diamonds: Counter,
    /// Replies delayed by netem (fixed delay and/or jitter).
    pub(crate) netem_delays: Counter,
    /// Replies arriving a full jitter window late ("reordered").
    pub(crate) netem_reorders: Counter,
    /// Replies duplicated on the wire.
    pub(crate) netem_duplicates: Counter,
}

impl DynamicsCounters {
    /// Re-home the counters in `rec`'s registry (carrying current values
    /// over), so dynamics activity shows up in the exported metrics.
    pub(crate) fn attach(&mut self, rec: &dyn Recorder) {
        for (name, c) in [
            ("net.dyn.rewrites", &mut self.rewrites),
            ("net.dyn.resizes", &mut self.resizes),
            ("net.dyn.loops", &mut self.loops),
            ("net.dyn.addr_reuses", &mut self.addr_reuses),
            ("net.dyn.false_diamonds", &mut self.false_diamonds),
            ("net.dyn.netem_delays", &mut self.netem_delays),
            ("net.dyn.netem_reorders", &mut self.netem_reorders),
            ("net.dyn.netem_duplicates", &mut self.netem_duplicates),
        ] {
            let interned = rec.counter(name);
            interned.add(c.get());
            *c = interned;
        }
    }
}

impl Clone for DynamicsCounters {
    fn clone(&self) -> Self {
        DynamicsCounters {
            rewrites: self.rewrites.fork(),
            resizes: self.resizes.fork(),
            loops: self.loops.fork(),
            addr_reuses: self.addr_reuses.fork(),
            false_diamonds: self.false_diamonds.fork(),
            netem_delays: self.netem_delays.fork(),
            netem_reorders: self.netem_reorders.fork(),
            netem_duplicates: self.netem_duplicates.fork(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        let d = DynamicsConfig::none();
        assert!(!d.is_active());
        assert!(!d.events_active());
        assert_eq!(d.epoch_of(10_000), 0);
    }

    #[test]
    fn epoch_boundaries() {
        let d = DynamicsConfig {
            period: 16,
            ..DynamicsConfig::none()
        };
        assert_eq!(d.epoch_of(0), 0);
        assert_eq!(d.epoch_of(15), 0);
        assert_eq!(d.epoch_of(16), 1);
        assert_eq!(d.epoch_of(47), 2);
    }

    #[test]
    fn events_need_a_period() {
        let d = DynamicsConfig {
            period: 0,
            events: vec![DynamicsEvent::TransientLoop {
                router: RouterId(3),
                at_epoch: 1,
            }],
            netem: None,
        };
        assert!(!d.events_active());
        let d = DynamicsConfig { period: 8, ..d };
        assert!(d.events_active() && d.is_active());
    }

    #[test]
    fn netem_alone_is_active() {
        let d = DynamicsConfig {
            netem: Some(NetemSpec {
                delay_us: 500,
                ..NetemSpec::default()
            }),
            ..DynamicsConfig::none()
        };
        assert!(d.is_active());
        assert!(!d.events_active());
        assert!(!NetemSpec::default().is_active());
    }

    #[test]
    fn clock_streams_are_independent() {
        let c = VirtualClock::new();
        let a = (0x4001u16, 0x0C0000u32);
        let b = (0x4002u16, 0x0C0000u32);
        assert_eq!(c.tick(a), 0);
        assert_eq!(c.tick(a), 1);
        assert_eq!(c.tick(b), 0);
        assert_eq!(c.tick(a), 2);
        // Same ident, different block: also a fresh stream.
        assert_eq!(c.tick((0x4001, 0x0C0001)), 0);
        c.clear();
        assert_eq!(c.tick(a), 0);
    }

    #[test]
    fn clock_clone_snapshots_state() {
        let c = VirtualClock::new();
        let key = (1u16, 2u32);
        c.tick(key);
        c.tick(key);
        let snap = c.clone();
        assert_eq!(c.tick(key), 2);
        assert_eq!(snap.tick(key), 2, "clone diverges independently");
    }

    #[test]
    fn event_accessors() {
        let e = DynamicsEvent::AddressReuse {
            router: RouterId(9),
            at_epoch: 3,
            alias: Addr::new(10, 100, 0, 1),
        };
        assert_eq!(e.router(), RouterId(9));
        assert_eq!(e.at_epoch(), 3);
    }
}
