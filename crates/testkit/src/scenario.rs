//! The scenario grammar: a small, serializable description of a synthetic
//! internet with *known ground-truth labels*, plus a seeded generator and
//! the builder that turns a spec into a netsim [`Network`].
//!
//! A [`ScenarioSpec`] plants each phenomenon the classifier must handle:
//! homogeneous /24s served by one PoP (fanned out per-destination,
//! per-flow, or per-source/destination), genuinely heterogeneous /24s split
//! into /25–/27 sub-blocks with distinct route entries, anonymous last-hop
//! routers, alternating reply interfaces, sparse host populations, and
//! injected faults. Specs are plain data — the shrinker edits them and the
//! corpus serializes them.

use netsim::host::TtlMix;
use netsim::route::{NextHop, NextHopGroup};
use netsim::{
    Addr, Block24, DynamicsConfig, DynamicsEvent, FaultConfig, HostKind, HostProfile, LbPolicy,
    NetemSpec, Network, Prefix,
};
use probe::MdaMode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// First planted /24: `12.0.0.0/24`; block `i` is `12.0.i.0/24`.
pub const BLOCK_BASE: u32 = 0x0C_0000;

/// Sub-block tilings of a /24 the generator may plant (prefix lengths in
/// base-address order; each tiling covers the /24 exactly).
pub const TILINGS: [&[u8]; 5] = [
    &[25, 25],
    &[25, 26, 26],
    &[26, 26, 26, 26],
    &[25, 26, 27, 27],
    &[27, 27, 26, 25],
];

/// Load-balancing policy of a PoP's fan-out (serializable mirror of the
/// netsim [`LbPolicy`] subset the scenarios use).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Hash the destination address only.
    PerDestination,
    /// Hash the flow identifier (Paris probes stick to one path).
    PerFlow,
    /// Hash source and destination addresses.
    PerSrcDest,
}

impl PolicySpec {
    /// The netsim policy this spec names.
    pub fn to_policy(self) -> LbPolicy {
        match self {
            PolicySpec::PerDestination => LbPolicy::PerDestination,
            PolicySpec::PerFlow => LbPolicy::PerFlow,
            PolicySpec::PerSrcDest => LbPolicy::PerSrcDest,
        }
    }
}

/// A diamond (divergence → parallel branches → convergence) planted
/// *upstream* of a PoP's aggregation router. Diamonds never touch the
/// last-hop truth — they only add mid-path ECMP diversity, which is what
/// MDA-Lite's diamond-aware stopping rules key on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiamondSpec {
    /// No mid-path diamond (the historical topology).
    #[default]
    None,
    /// One divergence router fanning per-flow over `width` parallel mid
    /// routers that reconverge one hop later.
    Wide {
        /// Parallel branches (2..=4).
        width: u8,
    },
    /// Two chained fans: an outer per-flow fan whose branches each fan
    /// again over `inner` routers before reconverging — nested diamonds.
    Nested {
        /// Outer branches (2..=3).
        outer: u8,
        /// Inner branches per outer branch (2..=3).
        inner: u8,
    },
    /// Parallel branches of unequal length: `long` of the `width` branches
    /// carry an extra in-series router, so the branches reconverge at
    /// different TTLs (the alignment-hostile diamond shape).
    Asymmetric {
        /// Parallel branches (2..=4).
        width: u8,
        /// Branches with the extra hop (1..=width).
        long: u8,
    },
}

/// One point of presence: an aggregation router fanning out over `fan`
/// last-hop routers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PopSpec {
    /// Number of last-hop routers (1 = no balancing at the last stage).
    pub fan: u8,
    /// How the aggregation router spreads destinations over the fan.
    pub policy: PolicySpec,
    /// Whether the last-hop routers answer TTL-exceeded at all; `false`
    /// plants anonymous last hops (the paper's "unresponsive last-hop" row).
    pub responsive: bool,
    /// Whether last-hop routers alternate between two reply interfaces
    /// (a classic traceroute artifact; must not change any verdict).
    pub alt_addr: bool,
    /// Mid-path diamond upstream of the aggregation router. Defaults to
    /// [`DiamondSpec::None`] so pre-diamond corpus entries stay readable.
    #[serde(default)]
    pub diamond: DiamondSpec,
}

/// What one planted /24 contains.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum BlockKind {
    /// The whole /24 behind one PoP: homogeneous ground truth.
    Homog {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
    },
    /// The /24 split into sub-blocks with distinct route entries, each
    /// behind its own last-hop router: heterogeneous ground truth.
    Split {
        /// Tiling prefix lengths in base-address order (25..=27, covering
        /// the /24 exactly — see [`TILINGS`]).
        lens: Vec<u8>,
    },
}

/// One planted /24.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// What the block contains.
    pub kind: BlockKind,
    /// Host density in percent (1..=100) — low densities plant the
    /// too-few-active / uncovered-quarter selection outcomes.
    pub density_pct: u8,
    /// Host availability churn between the snapshot and probing, in percent
    /// (0..=50). Defaults to 0 so pre-dynamics corpus entries stay readable
    /// and byte-stable.
    #[serde(default)]
    pub churn_pct: u8,
    /// Probability (percent, 0..=50) of a correlated whole-block quiet
    /// period at probe time. Defaults to 0.
    #[serde(default)]
    pub quiet_pct: u8,
}

/// One scheduled world mutation, named at the *spec* level: events target a
/// PoP index and fire at a virtual epoch. [`build_world`] compiles them to
/// concrete netsim routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventSpec {
    /// Re-salt the PoP aggregation router's next-hop selection from
    /// `at_epoch` on: flows that used to pin to one last-hop may remap
    /// (route churn on an existing link set).
    RouteChurn {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
        /// First epoch (1-based; epoch 0 is the frozen snapshot world).
        at_epoch: u32,
    },
    /// Reconfigure the PoP's load balancer to spread over only the first
    /// `width` last-hop routers from `at_epoch` on (`width == 1` collapses
    /// the fan entirely).
    LbResize {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
        /// First epoch the narrowed fan applies.
        at_epoch: u32,
        /// Surviving fan width (1..=fan).
        width: u8,
    },
    /// A transient forwarding loop at the PoP aggregation router, active
    /// only *during* `at_epoch`: probes bounce back one hop once, then the
    /// loop heals in the next epoch.
    TransientLoop {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
        /// The single epoch the loop is live.
        at_epoch: u32,
    },
    /// From `at_epoch` on, the PoP's first last-hop router sources its ICMP
    /// errors from the aggregation router's address — the classic
    /// address-reuse cycle that makes two hops look like one interface.
    AddressReuse {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
        /// First epoch the reused address appears.
        at_epoch: u32,
    },
    /// From `at_epoch` on, the PoP's first last-hop router answers half its
    /// probes (by flow nonce) from a phantom interface address — a false
    /// diamond: traceroute sees a fan that does not exist.
    FalseDiamond {
        /// Index into [`ScenarioSpec::pops`].
        pop: u8,
        /// First epoch the phantom interface appears.
        at_epoch: u32,
    },
}

impl EventSpec {
    /// The PoP index this event targets.
    pub fn pop(&self) -> u8 {
        match *self {
            EventSpec::RouteChurn { pop, .. }
            | EventSpec::LbResize { pop, .. }
            | EventSpec::TransientLoop { pop, .. }
            | EventSpec::AddressReuse { pop, .. }
            | EventSpec::FalseDiamond { pop, .. } => pop,
        }
    }

    /// The epoch the event fires at.
    pub fn at_epoch(&self) -> u32 {
        match *self {
            EventSpec::RouteChurn { at_epoch, .. }
            | EventSpec::LbResize { at_epoch, .. }
            | EventSpec::TransientLoop { at_epoch, .. }
            | EventSpec::AddressReuse { at_epoch, .. }
            | EventSpec::FalseDiamond { at_epoch, .. } => at_epoch,
        }
    }
}

/// Netem-style link perturbation knobs (delay/jitter/reorder/duplication),
/// spec-level mirror of netsim's [`NetemSpec`]. All-zero (the default) is
/// off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetemKnobs {
    /// Fixed extra delay per reply, microseconds.
    #[serde(default)]
    pub delay_us: u32,
    /// Additional per-reply jitter bound, microseconds.
    #[serde(default)]
    pub jitter_us: u32,
    /// Percent of replies arriving a full jitter window late (0..=100).
    #[serde(default)]
    pub reorder_pct: u8,
    /// Percent of replies duplicated on the wire (0..=100).
    #[serde(default)]
    pub duplicate_pct: u8,
}

impl NetemKnobs {
    /// Whether any perturbation knob is non-zero.
    pub fn is_active(&self) -> bool {
        self.delay_us > 0 || self.jitter_us > 0 || self.reorder_pct > 0 || self.duplicate_pct > 0
    }

    /// The netsim perturbation this spec names.
    pub fn to_netem(self) -> NetemSpec {
        NetemSpec {
            delay_us: self.delay_us,
            jitter_us: self.jitter_us,
            reorder_prob: self.reorder_pct as f32 / 100.0,
            duplicate_prob: self.duplicate_pct as f32 / 100.0,
        }
    }
}

/// A time-evolving world: a virtual-clock period plus the event schedule
/// that fires against it, and optional netem link perturbation. The default
/// (period 0, no events, no netem) is the static world — byte-identical to
/// a spec that never mentions dynamics at all.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DynamicsSpec {
    /// Probes per virtual epoch on each probe stream (0 with no events;
    /// >= 8 when events are scheduled).
    #[serde(default)]
    pub period: u64,
    /// The scheduled world mutations.
    #[serde(default)]
    pub events: Vec<EventSpec>,
    /// Link perturbation applied to delivered replies.
    #[serde(default)]
    pub netem: NetemKnobs,
}

impl DynamicsSpec {
    /// Whether this spec leaves the world completely static.
    pub fn is_static(&self) -> bool {
        self.events.is_empty() && !self.netem.is_active()
    }
}

/// A complete scenario description. Plain data: serializable, editable by
/// the shrinker, buildable into a [`Network`] via [`build_world`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Seed for the network's deterministic hashing (ECMP, hosts, RTT).
    pub seed: u64,
    /// Insert a per-flow balanced transit pair between the gateway and the
    /// PoPs (path diversity upstream of the last hop).
    pub transit: bool,
    /// The points of presence homogeneous blocks attach to.
    pub pops: Vec<PopSpec>,
    /// The planted /24s; block `i` is `12.0.i.0/24`.
    pub blocks: Vec<BlockSpec>,
    /// Per-link loss probability injected after the snapshot (0 = off).
    pub link_loss: f32,
    /// ICMP token-bucket refill rate injected after the snapshot (0 = off).
    pub icmp_rate: f32,
    /// Which MDA stopping discipline the conformance runner classifies
    /// with. Defaults to classic so pre-mode corpus entries stay readable.
    #[serde(default)]
    pub mda_mode: MdaMode,
    /// The time-evolving world schedule. Defaults to static so pre-dynamics
    /// corpus entries stay readable and byte-stable.
    #[serde(default)]
    pub dynamics: DynamicsSpec,
}

impl ScenarioSpec {
    /// The fault configuration the runner applies after the snapshot.
    pub fn faults(&self) -> FaultConfig {
        if self.icmp_rate > 0.0 {
            FaultConfig::lossy(self.link_loss, self.icmp_rate)
        } else {
            FaultConfig {
                link_loss: self.link_loss,
                ..FaultConfig::none()
            }
        }
    }

    /// A copy with the given fault knobs (the sweep's axis).
    pub fn with_faults(&self, link_loss: f32, icmp_rate: f32) -> Self {
        ScenarioSpec {
            link_loss,
            icmp_rate,
            ..self.clone()
        }
    }

    /// A copy with the given netem link-perturbation knobs.
    pub fn with_netem(&self, netem: NetemKnobs) -> Self {
        let mut c = self.clone();
        c.dynamics.netem = netem;
        c
    }

    /// The planted /24 of block index `i`.
    pub fn block24(i: usize) -> Block24 {
        Block24(BLOCK_BASE + i as u32)
    }

    /// Check the spec is buildable: PoP references in range, fans positive,
    /// densities in 1..=100, tilings aligned and covering exactly one /24.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("no blocks".into());
        }
        if self.blocks.len() > 64 || self.pops.len() > 32 {
            return Err("spec too large for the address plan".into());
        }
        for (i, pop) in self.pops.iter().enumerate() {
            if pop.fan == 0 || pop.fan > 8 {
                return Err(format!("pop {i}: fan {} out of range 1..=8", pop.fan));
            }
            match pop.diamond {
                DiamondSpec::None => {}
                DiamondSpec::Wide { width } => {
                    if !(2..=4).contains(&width) {
                        return Err(format!("pop {i}: diamond width {width} out of range 2..=4"));
                    }
                }
                DiamondSpec::Nested { outer, inner } => {
                    if !(2..=3).contains(&outer) || !(2..=3).contains(&inner) {
                        return Err(format!(
                            "pop {i}: nested diamond {outer}x{inner} out of range 2..=3"
                        ));
                    }
                }
                DiamondSpec::Asymmetric { width, long } => {
                    if !(2..=4).contains(&width) {
                        return Err(format!("pop {i}: diamond width {width} out of range 2..=4"));
                    }
                    if long == 0 || long > width {
                        return Err(format!(
                            "pop {i}: {long} long branches out of range 1..={width}"
                        ));
                    }
                }
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.density_pct == 0 || b.density_pct > 100 {
                return Err(format!("block {i}: density {}%", b.density_pct));
            }
            match &b.kind {
                BlockKind::Homog { pop } => {
                    if *pop as usize >= self.pops.len() {
                        return Err(format!("block {i}: pop {pop} out of range"));
                    }
                }
                BlockKind::Split { lens } => {
                    let mut offset: u32 = 0;
                    for &len in lens {
                        if !(25..=27).contains(&len) {
                            return Err(format!("block {i}: sub-prefix /{len}"));
                        }
                        let size = 1u32 << (32 - len);
                        if !offset.is_multiple_of(size) {
                            return Err(format!("block {i}: /{len} misaligned at +{offset}"));
                        }
                        offset += size;
                    }
                    if offset != 256 {
                        return Err(format!("block {i}: tiling covers {offset}/256"));
                    }
                }
            }
            if b.churn_pct > 50 {
                return Err(format!("block {i}: churn {}% above 50", b.churn_pct));
            }
            if b.quiet_pct > 50 {
                return Err(format!("block {i}: quiet {}% above 50", b.quiet_pct));
            }
        }
        if !self.dynamics.events.is_empty() && self.dynamics.period < 8 {
            return Err(format!(
                "dynamics period {} too short for a scheduled world (need >= 8)",
                self.dynamics.period
            ));
        }
        for (i, ev) in self.dynamics.events.iter().enumerate() {
            let pop = ev.pop() as usize;
            if pop >= self.pops.len() {
                return Err(format!("dynamics event {i}: pop {pop} out of range"));
            }
            if ev.at_epoch() == 0 || ev.at_epoch() > 16 {
                return Err(format!(
                    "dynamics event {i}: epoch {} out of range 1..=16",
                    ev.at_epoch()
                ));
            }
            if let EventSpec::LbResize { width, .. } = ev {
                if *width == 0 || *width > self.pops[pop].fan {
                    return Err(format!(
                        "dynamics event {i}: resize width {} out of range 1..={}",
                        width, self.pops[pop].fan
                    ));
                }
            }
        }
        let n = &self.dynamics.netem;
        if n.reorder_pct > 100 || n.duplicate_pct > 100 {
            return Err("netem percentages out of range 0..=100".into());
        }
        Ok(())
    }
}

/// Ground truth for one planted /24.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TruthLabel {
    /// One PoP serves the whole /24 — homogeneous.
    Homogeneous {
        /// Index into the spec's PoP list.
        pop: usize,
    },
    /// Distinct route entries split the /24 — heterogeneous. A correct
    /// classifier may fail to *prove* heterogeneity, but it must never call
    /// such a block non-hierarchical (the paper's soundness direction).
    Heterogeneous {
        /// The planted sub-block prefixes.
        subs: Vec<Prefix>,
    },
}

/// A built scenario: the network plus the planted truth.
pub struct World {
    /// The simulated internet.
    pub network: Network,
    /// Ground-truth label per planted /24.
    pub truth: BTreeMap<Block24, TruthLabel>,
    /// Primary last-hop interface addresses per PoP (sorted).
    pub pop_lasthops: Vec<Vec<Addr>>,
    /// The compiled event schedule. *Not* installed on the network here:
    /// the runner installs it after the ZMap snapshot (like faults), so
    /// epoch 0 always scans the frozen world.
    pub dynamics: DynamicsConfig,
}

/// Build a spec into a network with ground truth.
///
/// # Panics
/// Panics if the spec fails [`ScenarioSpec::validate`] — generator- and
/// corpus-produced specs always pass; hand-edited specs should be
/// validated first.
pub fn build_world(spec: &ScenarioSpec) -> World {
    spec.validate().expect("buildable spec");
    let mut net = Network::new(spec.seed, Addr::new(128, 8, 128, 10));
    let campus = net.add_router(Addr::new(10, 90, 0, 1));
    let gw = net.add_router(Addr::new(10, 90, 0, 2));
    let transit = spec.transit.then(|| {
        (
            net.add_router(Addr::new(10, 91, 0, 1)),
            net.add_router(Addr::new(10, 91, 0, 2)),
        )
    });

    // PoPs: one aggregation router fanning out over the last-hop routers,
    // optionally behind a mid-path diamond (divergence → parallel branches
    // → convergence → aggregation). The diamond layer carries every prefix
    // routed to the PoP, so its routes are installed per block below
    // (`pop_entries` is what the vantage chain targets, `pop_mid_routes`
    // the per-prefix route templates of the diamond routers).
    let mut pop_aggs = Vec::new();
    let mut pop_lhs = Vec::new();
    let mut pop_lasthops = Vec::new();
    let mut pop_entries = Vec::new();
    let mut pop_mid_routes: Vec<Vec<(netsim::RouterId, NextHopGroup)>> = Vec::new();
    for (i, pop) in spec.pops.iter().enumerate() {
        let agg = net.add_router(Addr::new(10, 100, i as u8, 1));
        let mut lhs = Vec::new();
        let mut addrs = Vec::new();
        for j in 0..pop.fan {
            let addr = Addr::new(10, 100, i as u8, 10 + j);
            let id = net.add_router(addr);
            net.router_mut(id).responsive = pop.responsive;
            if pop.alt_addr {
                net.router_mut(id).alt_addr = Some(Addr::new(10, 100, i as u8, 100 + j));
            }
            lhs.push(id);
            addrs.push(addr);
        }
        addrs.sort();
        let (entry, mid_routes) = build_diamond(&mut net, i as u8, pop.diamond, agg);
        pop_aggs.push(agg);
        pop_lhs.push(lhs);
        pop_lasthops.push(addrs);
        pop_entries.push(entry);
        pop_mid_routes.push(mid_routes);
    }

    // Route a prefix from the vantage chain down to an entry router.
    let chain = |net: &mut Network, prefix: Prefix, entry| {
        net.install_route(campus, prefix, NextHopGroup::single(NextHop::Router(gw)));
        match transit {
            Some((t1, t2)) => {
                net.install_route(
                    gw,
                    prefix,
                    NextHopGroup::ecmp(
                        vec![NextHop::Router(t1), NextHop::Router(t2)],
                        LbPolicy::PerFlow,
                    ),
                );
                net.install_route(t1, prefix, NextHopGroup::single(NextHop::Router(entry)));
                net.install_route(t2, prefix, NextHopGroup::single(NextHop::Router(entry)));
            }
            None => {
                net.install_route(gw, prefix, NextHopGroup::single(NextHop::Router(entry)));
            }
        }
    };

    let mut truth = BTreeMap::new();
    for (b, block_spec) in spec.blocks.iter().enumerate() {
        let block = ScenarioSpec::block24(b);
        let p24 = block.prefix();
        match &block_spec.kind {
            BlockKind::Homog { pop } => {
                let i = *pop as usize;
                chain(&mut net, p24, pop_entries[i]);
                for (router, group) in &pop_mid_routes[i] {
                    net.install_route(*router, p24, group.clone());
                }
                let hops: Vec<NextHop> = pop_lhs[i].iter().map(|&id| NextHop::Router(id)).collect();
                let group = if hops.len() == 1 {
                    NextHopGroup::single(hops[0])
                } else {
                    NextHopGroup::ecmp(hops, spec.pops[i].policy.to_policy())
                };
                net.install_route(pop_aggs[i], p24, group);
                for &lh in &pop_lhs[i] {
                    net.install_route(lh, p24, NextHopGroup::single(NextHop::Deliver));
                }
                truth.insert(block, TruthLabel::Homogeneous { pop: i });
            }
            BlockKind::Split { lens } => {
                // A hub router holds one route entry per sub-block, each
                // pointing at a dedicated last-hop router.
                let hub = net.add_router(Addr::new(10, 120, b as u8, 1));
                chain(&mut net, p24, hub);
                let mut subs = Vec::new();
                let mut offset: u32 = 0;
                for (j, &len) in lens.iter().enumerate() {
                    let sub = Prefix::new(Addr(block.first().0 + offset), len);
                    offset += 1u32 << (32 - len);
                    let lh = net.add_router(Addr::new(10, 120, b as u8, 10 + j as u8));
                    net.install_route(hub, sub, NextHopGroup::single(NextHop::Router(lh)));
                    net.install_route(lh, sub, NextHopGroup::single(NextHop::Deliver));
                    subs.push(sub);
                }
                truth.insert(block, TruthLabel::Heterogeneous { subs });
            }
        }
        net.set_block_profile(
            block,
            HostProfile {
                density: block_spec.density_pct as f32 / 100.0,
                churn: block_spec.churn_pct as f32 / 100.0,
                ttl_mix: TtlMix::Mixed,
                kind: HostKind::Residential,
                base_rtt_us: 15_000,
                quiet_prob: block_spec.quiet_pct as f32 / 100.0,
            },
        );
    }

    // Compile the spec-level event schedule down to concrete routers.
    // Artifact events need aliases: address reuse borrows the aggregation
    // router's address (10.100.<pop>.1 — genuinely upstream); false
    // diamonds invent a phantom interface in the unused 200-range of the
    // PoP's subnet.
    let mut events = Vec::new();
    for ev in &spec.dynamics.events {
        let i = ev.pop() as usize;
        let at_epoch = ev.at_epoch();
        events.push(match *ev {
            EventSpec::RouteChurn { .. } => DynamicsEvent::NextHopRewrite {
                router: pop_aggs[i],
                at_epoch,
            },
            EventSpec::LbResize { width, .. } => DynamicsEvent::LbResize {
                router: pop_aggs[i],
                at_epoch,
                width,
            },
            EventSpec::TransientLoop { .. } => DynamicsEvent::TransientLoop {
                router: pop_aggs[i],
                at_epoch,
            },
            EventSpec::AddressReuse { .. } => DynamicsEvent::AddressReuse {
                router: pop_lhs[i][0],
                at_epoch,
                alias: Addr::new(10, 100, i as u8, 1),
            },
            EventSpec::FalseDiamond { .. } => DynamicsEvent::FalseDiamond {
                router: pop_lhs[i][0],
                at_epoch,
                alias: Addr::new(10, 100, i as u8, 200),
            },
        });
    }
    let dynamics = DynamicsConfig {
        period: spec.dynamics.period,
        events,
        netem: spec
            .dynamics
            .netem
            .is_active()
            .then(|| spec.dynamics.netem.to_netem()),
    };

    World {
        network: net,
        truth,
        pop_lasthops,
        dynamics,
    }
}

/// Build one PoP's mid-path diamond routers (addresses under
/// `10.101.<pop>.*`). Returns the router the vantage chain should target
/// and the `(router, next-hop group)` route templates to install for every
/// prefix routed through the PoP. [`DiamondSpec::None`] collapses to the
/// aggregation router itself with no extra routes.
fn build_diamond(
    net: &mut Network,
    pop: u8,
    diamond: DiamondSpec,
    agg: netsim::RouterId,
) -> (netsim::RouterId, Vec<(netsim::RouterId, NextHopGroup)>) {
    let ecmp_over = |ids: &[netsim::RouterId]| {
        NextHopGroup::ecmp(
            ids.iter().map(|&id| NextHop::Router(id)).collect(),
            LbPolicy::PerFlow,
        )
    };
    match diamond {
        DiamondSpec::None => (agg, Vec::new()),
        DiamondSpec::Wide { width } => {
            let div = net.add_router(Addr::new(10, 101, pop, 1));
            let conv = net.add_router(Addr::new(10, 101, pop, 2));
            let mids: Vec<_> = (0..width)
                .map(|m| net.add_router(Addr::new(10, 101, pop, 10 + m)))
                .collect();
            let mut routes = vec![(div, ecmp_over(&mids))];
            for &m in &mids {
                routes.push((m, NextHopGroup::single(NextHop::Router(conv))));
            }
            routes.push((conv, NextHopGroup::single(NextHop::Router(agg))));
            (div, routes)
        }
        DiamondSpec::Nested { outer, inner } => {
            let div = net.add_router(Addr::new(10, 101, pop, 1));
            let conv = net.add_router(Addr::new(10, 101, pop, 2));
            let mut routes = Vec::new();
            let mut outer_mids = Vec::new();
            for o in 0..outer {
                let mid = net.add_router(Addr::new(10, 101, pop, 10 + o));
                let subs: Vec<_> = (0..inner)
                    .map(|s| net.add_router(Addr::new(10, 101, pop, 100 + o * 8 + s)))
                    .collect();
                routes.push((mid, ecmp_over(&subs)));
                for &s in &subs {
                    routes.push((s, NextHopGroup::single(NextHop::Router(conv))));
                }
                outer_mids.push(mid);
            }
            routes.insert(0, (div, ecmp_over(&outer_mids)));
            routes.push((conv, NextHopGroup::single(NextHop::Router(agg))));
            (div, routes)
        }
        DiamondSpec::Asymmetric { width, long } => {
            let div = net.add_router(Addr::new(10, 101, pop, 1));
            let conv = net.add_router(Addr::new(10, 101, pop, 2));
            let mut routes = Vec::new();
            let mut mids = Vec::new();
            for m in 0..width {
                let mid = net.add_router(Addr::new(10, 101, pop, 10 + m));
                if m < long {
                    let ext = net.add_router(Addr::new(10, 101, pop, 100 + m));
                    routes.push((mid, NextHopGroup::single(NextHop::Router(ext))));
                    routes.push((ext, NextHopGroup::single(NextHop::Router(conv))));
                } else {
                    routes.push((mid, NextHopGroup::single(NextHop::Router(conv))));
                }
                mids.push(mid);
            }
            routes.insert(0, (div, ecmp_over(&mids)));
            routes.push((conv, NextHopGroup::single(NextHop::Router(agg))));
            (div, routes)
        }
    }
}

/// Deterministic generator helpers over the scenario seed.
fn roll(seed: u64, tag: u64, n: usize) -> usize {
    netsim::hash::pick(netsim::hash::mix2(seed, tag), n)
}

fn chance(seed: u64, tag: u64, p: f64) -> bool {
    netsim::hash::unit_f64(netsim::hash::mix2(seed, tag)) < p
}

/// Generate a scenario from a seed. Small on purpose (2–5 blocks, 1–3
/// PoPs): the conformance sweep runs hundreds of these, and the shrinker
/// prefers starting near minimal.
///
/// Faults are left off — the sweep turns them on per run via
/// [`ScenarioSpec::with_faults`].
pub fn gen_spec(seed: u64) -> ScenarioSpec {
    let n_pops = 1 + roll(seed, 0x01, 3);
    let pops = (0..n_pops)
        .map(|i| {
            let tag = 0x10 + i as u64;
            let policy = match roll(seed, tag, 10) {
                0..=3 => PolicySpec::PerDestination,
                4..=7 => PolicySpec::PerFlow,
                _ => PolicySpec::PerSrcDest,
            };
            // ~25% of PoPs sit behind a mid-path diamond, split across the
            // three shapes (MDA-Lite's diamond-aware stopping rules).
            let diamond = match roll(seed, tag ^ 0xD1A, 12) {
                0 => DiamondSpec::Wide {
                    width: 2 + roll(seed, tag ^ 0xD1B, 3) as u8,
                },
                1 => DiamondSpec::Nested {
                    outer: 2 + roll(seed, tag ^ 0xD1C, 2) as u8,
                    inner: 2 + roll(seed, tag ^ 0xD1D, 2) as u8,
                },
                2 => {
                    let width = 2 + roll(seed, tag ^ 0xD1E, 3) as u8;
                    DiamondSpec::Asymmetric {
                        width,
                        long: 1 + roll(seed, tag ^ 0xD1F, width as usize) as u8,
                    }
                }
                _ => DiamondSpec::None,
            };
            PopSpec {
                fan: 1 + roll(seed, tag ^ 0xFA0, 3) as u8,
                policy,
                responsive: !chance(seed, tag ^ 0x0FF, 0.15),
                alt_addr: chance(seed, tag ^ 0xA17, 0.15),
                diamond,
            }
        })
        .collect::<Vec<_>>();
    let n_blocks = 2 + roll(seed, 0x02, 4);
    let blocks = (0..n_blocks)
        .map(|b| {
            let tag = 0x100 + b as u64;
            let kind = if chance(seed, tag, 0.3) {
                BlockKind::Split {
                    lens: TILINGS[roll(seed, tag ^ 0x71E, TILINGS.len())].to_vec(),
                }
            } else {
                BlockKind::Homog {
                    pop: roll(seed, tag ^ 0xB0, n_pops) as u8,
                }
            };
            // Mostly dense blocks; a sparse minority plants the selection
            // rejects (too few active / uncovered quarter).
            let density_pct = if chance(seed, tag ^ 0xDE, 0.15) {
                1 + roll(seed, tag ^ 0x5BA, 3) as u8
            } else {
                40 + roll(seed, tag ^ 0xDE2, 61) as u8
            };
            // A small minority of blocks churns or goes quiet between the
            // snapshot and probing (the paper's host-availability drift).
            let churn_pct = if chance(seed, tag ^ 0xC4A, 0.1) {
                1 + roll(seed, tag ^ 0xC4B, 10) as u8
            } else {
                0
            };
            let quiet_pct = if chance(seed, tag ^ 0x41E, 0.05) {
                1 + roll(seed, tag ^ 0x41F, 5) as u8
            } else {
                0
            };
            BlockSpec {
                kind,
                density_pct,
                churn_pct,
                quiet_pct,
            }
        })
        .collect::<Vec<_>>();
    // ~20% of specs evolve mid-campaign: 1-3 scheduled events against a
    // virtual clock, occasionally with netem link perturbation on top.
    let dynamics = if chance(seed, 0x04, 0.2) {
        let period = 16u64 << roll(seed, 0x05, 3);
        let n_events = 1 + roll(seed, 0x06, 3);
        let events = (0..n_events)
            .map(|e| {
                let tag = 0x200 + e as u64;
                let pop = roll(seed, tag ^ 0xE0, n_pops) as u8;
                let at_epoch = 1 + roll(seed, tag ^ 0xE1, 4) as u32;
                match roll(seed, tag ^ 0xE2, 5) {
                    0 => EventSpec::RouteChurn { pop, at_epoch },
                    1 => EventSpec::LbResize {
                        pop,
                        at_epoch,
                        width: 1 + roll(seed, tag ^ 0xE3, pops[pop as usize].fan as usize) as u8,
                    },
                    2 => EventSpec::TransientLoop { pop, at_epoch },
                    3 => EventSpec::AddressReuse { pop, at_epoch },
                    _ => EventSpec::FalseDiamond { pop, at_epoch },
                }
            })
            .collect();
        let netem = if chance(seed, 0x07, 0.3) {
            NetemKnobs {
                delay_us: 200 + 100 * roll(seed, 0x08, 8) as u32,
                jitter_us: 100 * roll(seed, 0x09, 4) as u32,
                reorder_pct: roll(seed, 0x0A, 10) as u8,
                duplicate_pct: roll(seed, 0x0B, 5) as u8,
            }
        } else {
            NetemKnobs::default()
        };
        DynamicsSpec {
            period,
            events,
            netem,
        }
    } else {
        DynamicsSpec::default()
    };
    ScenarioSpec {
        seed,
        transit: chance(seed, 0x03, 0.3),
        pops,
        blocks,
        link_loss: 0.0,
        icmp_rate: 0.0,
        mda_mode: MdaMode::Classic,
        dynamics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pop_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 7,
            transit: false,
            pops: vec![PopSpec {
                fan: 2,
                policy: PolicySpec::PerDestination,
                responsive: true,
                alt_addr: false,
                diamond: DiamondSpec::None,
            }],
            blocks: vec![
                BlockSpec {
                    kind: BlockKind::Homog { pop: 0 },
                    density_pct: 90,
                    churn_pct: 0,
                    quiet_pct: 0,
                },
                BlockSpec {
                    kind: BlockKind::Split { lens: vec![25, 25] },
                    density_pct: 90,
                    churn_pct: 0,
                    quiet_pct: 0,
                },
            ],
            link_loss: 0.0,
            icmp_rate: 0.0,
            mda_mode: MdaMode::Classic,
            dynamics: DynamicsSpec::default(),
        }
    }

    #[test]
    fn built_world_matches_planted_truth() {
        let spec = single_pop_spec();
        let world = build_world(&spec);
        // Homogeneous block: every address's true last-hop set is the PoP's
        // full fan (per-destination balancing spreads over both).
        let b0 = ScenarioSpec::block24(0);
        for host in [1u8, 100, 200] {
            let addrs = world.network.true_lasthop_addrs(b0.addr(host));
            assert_eq!(addrs, world.pop_lasthops[0]);
        }
        // Split block: sub-blocks reach distinct single last-hops.
        let b1 = ScenarioSpec::block24(1);
        let low = world.network.true_lasthop_addrs(b1.addr(10));
        let high = world.network.true_lasthop_addrs(b1.addr(200));
        assert_eq!(low.len(), 1);
        assert_eq!(high.len(), 1);
        assert_ne!(low, high);
        match &world.truth[&b1] {
            TruthLabel::Heterogeneous { subs } => {
                assert_eq!(subs.len(), 2);
                assert!(subs[0].contains(b1.addr(10)));
                assert!(subs[1].contains(b1.addr(200)));
            }
            other => panic!("expected heterogeneous truth, got {other:?}"),
        }
    }

    #[test]
    fn generated_specs_validate() {
        for seed in 0..200u64 {
            let spec = gen_spec(seed);
            spec.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generator_covers_the_taxonomy() {
        let specs: Vec<ScenarioSpec> = (0..300).map(gen_spec).collect();
        assert!(specs.iter().any(|s| s.transit));
        assert!(specs.iter().any(|s| s
            .blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::Split { .. }))));
        assert!(specs.iter().any(|s| s.pops.iter().any(|p| !p.responsive)));
        assert!(specs.iter().any(|s| s.pops.iter().any(|p| p.alt_addr)));
        assert!(specs.iter().any(|s| s
            .pops
            .iter()
            .any(|p| p.policy == PolicySpec::PerFlow && p.fan > 1)));
        assert!(specs
            .iter()
            .any(|s| s.blocks.iter().any(|b| b.density_pct <= 3)));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = gen_spec(99).with_faults(0.02, 0.5);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn pre_diamond_spec_json_still_parses() {
        // A corpus entry serialized before the diamond / mda_mode /
        // dynamics / churn fields existed must deserialize to the defaults
        // (classic, no diamond, static world, zero churn).
        let json = r#"{"seed":7,"transit":false,
            "pops":[{"fan":2,"policy":"PerDestination","responsive":true,"alt_addr":false}],
            "blocks":[{"kind":{"Homog":{"pop":0}},"density_pct":90}],
            "link_loss":0.0,"icmp_rate":0.0}"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.mda_mode, MdaMode::Classic);
        assert_eq!(spec.pops[0].diamond, DiamondSpec::None);
        assert!(spec.dynamics.is_static());
        assert_eq!(spec.dynamics, DynamicsSpec::default());
        assert_eq!(spec.blocks[0].churn_pct, 0);
        assert_eq!(spec.blocks[0].quiet_pct, 0);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn dynamic_spec_compiles_to_pop_routers() {
        let mut spec = single_pop_spec();
        spec.dynamics = DynamicsSpec {
            period: 16,
            events: vec![
                EventSpec::RouteChurn {
                    pop: 0,
                    at_epoch: 1,
                },
                EventSpec::LbResize {
                    pop: 0,
                    at_epoch: 2,
                    width: 1,
                },
                EventSpec::AddressReuse {
                    pop: 0,
                    at_epoch: 1,
                },
                EventSpec::FalseDiamond {
                    pop: 0,
                    at_epoch: 3,
                },
            ],
            netem: NetemKnobs::default(),
        };
        spec.validate().unwrap();
        let world = build_world(&spec);
        assert_eq!(world.dynamics.period, 16);
        assert_eq!(world.dynamics.events.len(), 4);
        assert!(world.dynamics.events_active());
        assert!(world.dynamics.netem.is_none());
        // Address reuse borrows the aggregation router's address; the false
        // diamond invents a phantom one outside every planted range.
        match world.dynamics.events[2] {
            DynamicsEvent::AddressReuse { alias, .. } => {
                assert_eq!(alias, Addr::new(10, 100, 0, 1));
            }
            other => panic!("expected AddressReuse, got {other:?}"),
        }
        match world.dynamics.events[3] {
            DynamicsEvent::FalseDiamond { alias, .. } => {
                assert_eq!(alias, Addr::new(10, 100, 0, 200));
            }
            other => panic!("expected FalseDiamond, got {other:?}"),
        }
        // The schedule is compiled but NOT installed: the runner installs
        // it post-snapshot.
        assert!(!world.network.dynamics().is_active());
    }

    #[test]
    fn static_dynamics_spec_is_inactive() {
        let world = build_world(&single_pop_spec());
        assert!(!world.dynamics.is_active());
        assert!(world.dynamics.events.is_empty());
        // Netem alone (no events) needs no period to be live.
        let mut spec = single_pop_spec();
        spec.dynamics.netem.delay_us = 500;
        spec.validate().unwrap();
        let world = build_world(&spec);
        assert!(world.dynamics.is_active());
        assert!(!world.dynamics.events_active());
    }

    #[test]
    fn churny_blocks_build_with_the_planted_profile() {
        let mut spec = single_pop_spec();
        spec.blocks[0].churn_pct = 10;
        spec.blocks[0].quiet_pct = 5;
        spec.validate().unwrap();
        // The profile drives host availability; the world still builds and
        // keeps its truth labels.
        let world = build_world(&spec);
        assert!(matches!(
            world.truth[&ScenarioSpec::block24(0)],
            TruthLabel::Homogeneous { pop: 0 }
        ));
    }

    #[test]
    fn generator_rolls_dynamics_and_churn() {
        let specs: Vec<ScenarioSpec> = (0..300).map(gen_spec).collect();
        let dynamic = specs.iter().filter(|s| !s.dynamics.is_static()).count();
        assert!(dynamic > 0, "no dynamic specs in 300 seeds");
        // Static worlds stay the majority: the corpus bulk is historical.
        assert!(dynamic < 150, "{dynamic}/300 dynamic");
        assert!(specs
            .iter()
            .any(|s| s.dynamics.events.len() > 1 && s.dynamics.period >= 16));
        assert!(specs.iter().any(|s| s.dynamics.netem.is_active()));
        assert!(specs
            .iter()
            .any(|s| s.blocks.iter().any(|b| b.churn_pct > 0)));
        assert!(specs
            .iter()
            .any(|s| s.blocks.iter().any(|b| b.quiet_pct > 0)));
        // Every event class appears somewhere in the fuzzed population.
        let events: Vec<&EventSpec> = specs
            .iter()
            .flat_map(|s| s.dynamics.events.iter())
            .collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, EventSpec::RouteChurn { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, EventSpec::LbResize { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, EventSpec::TransientLoop { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, EventSpec::AddressReuse { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, EventSpec::FalseDiamond { .. })));
    }

    #[test]
    fn validate_rejects_bad_dynamics() {
        let base = single_pop_spec();
        // Events without a workable period.
        let mut spec = base.clone();
        spec.dynamics.period = 4;
        spec.dynamics.events = vec![EventSpec::RouteChurn {
            pop: 0,
            at_epoch: 1,
        }];
        assert!(spec.validate().is_err());
        // Out-of-range pop.
        let mut spec = base.clone();
        spec.dynamics.period = 16;
        spec.dynamics.events = vec![EventSpec::TransientLoop {
            pop: 9,
            at_epoch: 1,
        }];
        assert!(spec.validate().is_err());
        // Epoch 0 is the frozen snapshot world.
        let mut spec = base.clone();
        spec.dynamics.period = 16;
        spec.dynamics.events = vec![EventSpec::RouteChurn {
            pop: 0,
            at_epoch: 0,
        }];
        assert!(spec.validate().is_err());
        // Resize width beyond the fan.
        let mut spec = base.clone();
        spec.dynamics.period = 16;
        spec.dynamics.events = vec![EventSpec::LbResize {
            pop: 0,
            at_epoch: 1,
            width: 5,
        }];
        assert!(spec.validate().is_err());
        // Churn beyond the planted ceiling.
        let mut spec = base.clone();
        spec.blocks[0].churn_pct = 80;
        assert!(spec.validate().is_err());
        let mut spec = base;
        spec.blocks[0].quiet_pct = 70;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn diamond_worlds_keep_the_lasthop_truth() {
        // Diamonds add mid-path diversity but must never disturb the
        // planted last-hop ground truth or the delivered path length's
        // reachability.
        let plain = build_world(&single_pop_spec());
        for diamond in [
            DiamondSpec::Wide { width: 3 },
            DiamondSpec::Nested { outer: 2, inner: 2 },
            DiamondSpec::Asymmetric { width: 3, long: 1 },
        ] {
            let mut spec = single_pop_spec();
            spec.pops[0].diamond = diamond;
            spec.validate().unwrap();
            let world = build_world(&spec);
            assert_eq!(
                world.pop_lasthops, plain.pop_lasthops,
                "{diamond:?} changed the last-hop plan"
            );
            let b0 = ScenarioSpec::block24(0);
            for host in [1u8, 100, 200] {
                assert_eq!(
                    world.network.true_lasthop_addrs(b0.addr(host)),
                    plain.network.true_lasthop_addrs(b0.addr(host)),
                    "{diamond:?} changed the truth for host {host}"
                );
            }
        }
    }

    #[test]
    fn diamond_worlds_add_midpath_ecmp_diversity() {
        use probe::{enumerate_paths, Prober};
        let mut spec = single_pop_spec();
        spec.pops[0].diamond = DiamondSpec::Wide { width: 3 };
        let world = build_world(&spec);
        let dst = ScenarioSpec::block24(0).addr(77);
        let mut prober = Prober::new(&world.network, 0xD1A);
        let paths = enumerate_paths(&mut prober, dst, 64);
        // The per-flow fan shows up as >1 distinct interface at the
        // diamond's TTL on some hop.
        let max_width = (0..40u8)
            .map(|t| {
                let set: std::collections::BTreeSet<_> = paths
                    .paths
                    .iter()
                    .filter_map(|p| p.hops.get(t as usize).copied().flatten())
                    .collect();
                set.len()
            })
            .max()
            .unwrap();
        assert!(max_width >= 3, "diamond fan not visible: width {max_width}");
    }

    #[test]
    fn generator_rolls_every_diamond_shape() {
        let specs: Vec<ScenarioSpec> = (0..300).map(gen_spec).collect();
        let pops = specs.iter().flat_map(|s| s.pops.iter());
        let mut wide = 0;
        let (mut nested, mut asym, mut none) = (0, 0, 0);
        for p in pops {
            match p.diamond {
                DiamondSpec::Wide { .. } => wide += 1,
                DiamondSpec::Nested { .. } => nested += 1,
                DiamondSpec::Asymmetric { .. } => asym += 1,
                DiamondSpec::None => none += 1,
            }
        }
        assert!(wide > 0 && nested > 0 && asym > 0, "{wide}/{nested}/{asym}");
        // Diamonds stay the minority: the bulk of the corpus keeps the
        // historical topology.
        assert!(none > wide + nested + asym);
    }

    #[test]
    fn validate_rejects_bad_diamonds() {
        for diamond in [
            DiamondSpec::Wide { width: 1 },
            DiamondSpec::Wide { width: 9 },
            DiamondSpec::Nested { outer: 1, inner: 2 },
            DiamondSpec::Nested { outer: 2, inner: 4 },
            DiamondSpec::Asymmetric { width: 3, long: 0 },
            DiamondSpec::Asymmetric { width: 2, long: 3 },
        ] {
            let mut spec = single_pop_spec();
            spec.pops[0].diamond = diamond;
            assert!(spec.validate().is_err(), "{diamond:?} should be rejected");
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut spec = single_pop_spec();
        spec.blocks[0].kind = BlockKind::Homog { pop: 9 };
        assert!(spec.validate().is_err());
        let mut spec = single_pop_spec();
        spec.blocks[1].kind = BlockKind::Split {
            lens: vec![25, 26], // covers 192/256
        };
        assert!(spec.validate().is_err());
        let mut spec = single_pop_spec();
        spec.blocks[1].kind = BlockKind::Split {
            lens: vec![26, 25, 26], // /25 misaligned at +64
        };
        assert!(spec.validate().is_err());
        let mut spec = single_pop_spec();
        spec.blocks[0].density_pct = 0;
        assert!(spec.validate().is_err());
    }
}
