//! The compiled forwarding plane: one route program per destination /24.
//!
//! A probe's path depends on its destination only through the routers'
//! longest matches, and a route table resolves all 256 addresses of a /24
//! alike unless it holds a longer prefix inside it. So the plane resolves
//! each allocated /24 once per network. Its **route program** is the graph
//! of routers reachable from every vantage's entry router toward that /24.
//! Each node holds the router's id, its ECMP salt and the group its table
//! resolves for the /24; next hops are node indices. The walk in
//! [`Network::exchange`](crate::Network::exchange) then indexes nodes
//! instead of searching a route table at every hop.
//!
//! * A node whose router splits the /24 with a longer prefix (/25–/32)
//!   holds one *arm* per run of low octets that resolve alike; every
//!   other node holds exactly one arm, inline.
//! * Identical programs are stored once: every /24 behind the same routes
//!   shares one program in the plane's flat arena. The dedup index lives
//!   only while the plane compiles.
//! * Route tables stay the source of truth. The plane is compiled from
//!   them on the first exchange and reset by every `&mut` mutator of the
//!   network that can change forwarding (see [`crate::topology`]).
//! * Everything that varies per probe or per epoch (link loss, dynamics
//!   events, rate limits) stays keyed by router id in the walk, so the
//!   plane is a pure function of the tables, the vantages and the set of
//!   allocated /24s.
//! * Each node carries its **delivery depth**: the most hops a probe
//!   entering there can take before some router delivers it, over every
//!   arm and every next hop. It is unknown when a router with no route is
//!   reachable, when the program has a cycle, or when the depth would pass
//!   [`MAX_HOPS`]. A probe whose TTL exceeds its entry node's depth is
//!   delivered on every path a static world can take, which is what lets
//!   the walk skip silent hosts (see [`crate::forward`]).

use crate::addr::Block24;
use crate::forward::MAX_HOPS;
use crate::hash::{mix2, MixMap};
use crate::route::{LbPolicy, NextHop, NextHopGroup, RouterId};
use crate::topology::Network;

/// Next-hop value meaning "deliver to the destination host".
pub(crate) const DELIVER: u32 = u32::MAX;

/// Placeholder for "no node / no program yet".
const NONE: u32 = u32::MAX;

/// A node's delivery depth when it is unknown.
const UNKNOWN_DEPTH: u8 = 0;

/// The group one router resolves for a run of low octets of the /24.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Arm {
    /// The first low octet the arm covers. A node's arms are sorted and
    /// the first starts at 0.
    from: u8,
    /// How the group spreads traffic over its next hops.
    pub(crate) policy: LbPolicy,
    /// Number of next hops; 0 means the router has no route.
    pub(crate) len: u16,
    /// The first next hop in [`Plane::hops`].
    at: u32,
}

impl Arm {
    /// The arm of a router with no route for these octets.
    const NO_ROUTE: Arm = Arm {
        from: 0,
        policy: LbPolicy::PerFlow,
        len: 0,
        at: 0,
    };
}

/// One router of a route program.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// The router's ECMP salt.
    pub(crate) salt: u64,
    /// The router: what link loss, dynamics, rate limits and replies key on.
    pub(crate) router: RouterId,
    /// Number of arms. With one, `arm` is it; with more, `arm.at` indexes
    /// the first of them in [`Plane::arms`].
    arms: u16,
    /// The delivery depth, or [`UNKNOWN_DEPTH`].
    depth: u8,
    arm: Arm,
}

impl Node {
    /// The most hops, counting this node as hop 1, a probe entering here
    /// takes before it is delivered, on any path; `None` if a path may end
    /// without delivery or exceed [`MAX_HOPS`].
    #[inline]
    pub(crate) fn delivery_depth(&self) -> Option<u32> {
        (self.depth != UNKNOWN_DEPTH).then_some(self.depth as u32)
    }
}

/// Deduplicated route programs for every allocated /24, in one arena.
#[derive(Clone, Debug, Default)]
pub(crate) struct Plane {
    nodes: Vec<Node>,
    /// Arms of the nodes that split their /24.
    arms: Vec<Arm>,
    /// Next hops: node indices into `nodes`, or [`DELIVER`].
    hops: Vec<u32>,
    /// Per program, the node each vantage enters at, in vantage order.
    entries: Vec<u32>,
    /// Number of vantages, the stride of `entries`.
    vantages: usize,
    /// Destination /24 → program.
    programs: MixMap<u32, u32>,
}

impl Plane {
    /// Compile a program for every allocated /24 of `net`.
    pub(crate) fn compile(net: &Network) -> Plane {
        let mut blocks: Vec<u32> = net.blocks.keys().map(|b| b.0).collect();
        blocks.sort_unstable();
        let mut compiler = Compiler::new(net);
        let mut plane = Plane {
            vantages: compiler.entry_routers.len(),
            ..Plane::default()
        };
        plane.programs.reserve(blocks.len());
        for block in blocks {
            let program = compiler.add(&mut plane, Block24(block));
            plane.programs.insert(block, program);
        }
        plane.nodes.shrink_to_fit();
        plane.arms.shrink_to_fit();
        plane.hops.shrink_to_fit();
        plane.entries.shrink_to_fit();
        plane
    }

    /// A plane holding only `block`'s program (program 0), for a
    /// destination whose /24 has no program.
    pub(crate) fn compile_one(net: &Network, block: Block24) -> Plane {
        let mut compiler = Compiler::new(net);
        let mut plane = Plane {
            vantages: compiler.entry_routers.len(),
            ..Plane::default()
        };
        compiler.add(&mut plane, block);
        plane
    }

    /// The program of `block`, if it is allocated.
    #[inline]
    pub(crate) fn program(&self, block: Block24) -> Option<u32> {
        self.programs.get(&block.0).copied()
    }

    /// The node probes from vantage number `vantage` enter `program` at.
    #[inline]
    pub(crate) fn entry(&self, program: u32, vantage: usize) -> u32 {
        self.entries[program as usize * self.vantages + vantage]
    }

    /// Node number `i`.
    #[inline]
    pub(crate) fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    /// The arm `node` resolves for destinations with low octet `octet`.
    #[inline]
    pub(crate) fn arm(&self, node: &Node, octet: u8) -> Arm {
        if node.arms == 1 {
            return node.arm;
        }
        let arms = &self.arms[node.arm.at as usize..][..node.arms as usize];
        // The first arm starts at 0, so the partition point is at least 1.
        arms[arms.partition_point(|a| a.from <= octet) - 1]
    }

    /// Next hop number `i` of `arm`: a node index or [`DELIVER`].
    #[inline]
    pub(crate) fn hop(&self, arm: Arm, i: usize) -> u32 {
        self.hops[arm.at as usize + i]
    }

    /// The arms of `node`.
    fn arms_of<'a>(&'a self, node: &'a Node) -> &'a [Arm] {
        if node.arms == 1 {
            std::slice::from_ref(&node.arm)
        } else {
            &self.arms[node.arm.at as usize..][..node.arms as usize]
        }
    }

    /// The next hops of `arm`.
    fn hops_of(&self, arm: &Arm) -> &[u32] {
        &self.hops[arm.at as usize..][..arm.len as usize]
    }

    /// `node`'s delivery depth if every next hop of its arms delivers or
    /// has a known depth, and the result stays within [`MAX_HOPS`].
    fn settled_depth(&self, node: &Node) -> Option<u8> {
        let mut deepest = 0;
        for arm in self.arms_of(node) {
            if arm.len == 0 {
                return None;
            }
            for &hop in self.hops_of(arm) {
                if hop != DELIVER {
                    deepest = deepest.max(self.node(hop).delivery_depth()?);
                }
            }
        }
        (deepest < MAX_HOPS).then_some(deepest as u8 + 1)
    }

    /// Heap bytes the plane holds (its arena and its /24 index).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Node>()
            + self.arms.capacity() * size_of::<Arm>()
            + (self.hops.capacity() + self.entries.capacity()) * size_of::<u32>()
            + self.programs.capacity() * (2 * size_of::<u32>() + 1)
    }

    /// Number of distinct programs.
    #[cfg(test)]
    pub(crate) fn program_count(&self) -> usize {
        self.entries.len() / self.vantages.max(1)
    }

    /// Number of nodes over all distinct programs.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Compiles programs one /24 at a time into a [`Plane`], deduplicating
/// them as it goes.
struct Compiler<'n> {
    net: &'n Network,
    /// Each vantage's entry router, in vantage order.
    entry_routers: Vec<RouterId>,
    /// Per router: its node in the program being compiled, or [`NONE`].
    slot: Vec<u32>,
    /// Routers of the program being compiled, in node order.
    order: Vec<RouterId>,
    /// The program being compiled, its node indices local to it.
    scratch: Plane,
    /// Content hash → the newest program with that hash.
    by_hash: MixMap<u64, u32>,
    /// Per program: the previous program with the same hash, or [`NONE`].
    chain: Vec<u32>,
    /// Per program: its first node in the arena.
    first_node: Vec<u32>,
}

impl<'n> Compiler<'n> {
    fn new(net: &'n Network) -> Self {
        let mut entry_routers = vec![net.vantage_router];
        entry_routers.extend(net.extra_vantages.iter().map(|&(_, r)| r));
        Compiler {
            net,
            entry_routers,
            slot: vec![NONE; net.routers.len()],
            order: Vec::new(),
            scratch: Plane::default(),
            by_hash: MixMap::default(),
            chain: Vec::new(),
            first_node: Vec::new(),
        }
    }

    /// Add `block`'s program to `plane` unless an identical one is there
    /// already; either way, return its number.
    fn add(&mut self, plane: &mut Plane, block: Block24) -> u32 {
        self.compile(block);
        let hash = self.scratch_hash();
        let mut candidate = self.by_hash.get(&hash).copied().unwrap_or(NONE);
        while candidate != NONE {
            if self.scratch_equals(plane, candidate) {
                return candidate;
            }
            candidate = self.chain[candidate as usize];
        }
        let program = self.first_node.len() as u32;
        self.chain
            .push(self.by_hash.insert(hash, program).unwrap_or(NONE));
        self.first_node.push(plane.nodes.len() as u32);
        self.settle_depths();
        self.append(plane);
        program
    }

    /// Give every node of the program in `scratch` its delivery depth. A
    /// node settles once every next hop of every arm delivers or is a
    /// settled node, at one more hop than the deepest of them. Each pass
    /// settles at least the next level up, so the passes stop after the
    /// longest path; nodes on a cycle or above a no-route arm never settle.
    fn settle_depths(&mut self) {
        let s = &mut self.scratch;
        loop {
            let mut progress = false;
            for i in 0..s.nodes.len() {
                if s.nodes[i].depth == UNKNOWN_DEPTH {
                    if let Some(depth) = s.settled_depth(&s.nodes[i]) {
                        s.nodes[i].depth = depth;
                        progress = true;
                    }
                }
            }
            if !progress {
                return;
            }
        }
    }

    /// The node of `router` in the program being compiled, queueing the
    /// router the first time the program reaches it.
    fn slot_of(&mut self, router: RouterId) -> u32 {
        let slot = &mut self.slot[router.0 as usize];
        if *slot == NONE {
            *slot = self.order.len() as u32;
            self.order.push(router);
        }
        *slot
    }

    /// Compile `block`'s program into `scratch`: a breadth-first walk from
    /// the entry routers over every next hop any address of the /24 takes.
    fn compile(&mut self, block: Block24) {
        let s = &mut self.scratch;
        s.nodes.clear();
        s.arms.clear();
        s.hops.clear();
        s.entries.clear();
        for i in 0..self.entry_routers.len() {
            let node = self.slot_of(self.entry_routers[i]);
            self.scratch.entries.push(node);
        }
        let net = self.net;
        let mut next = 0;
        while next < self.order.len() {
            let router = net.router(self.order[next]);
            let first_arm = self.scratch.arms.len();
            for (start, group) in router.table.resolve_range(block.first(), block.last()) {
                self.push_arm(first_arm, start.0 as u8, group);
            }
            let s = &mut self.scratch;
            let arms = s.arms.len() - first_arm;
            let arm = if arms == 1 {
                s.arms.pop().expect("one arm")
            } else {
                Arm {
                    at: first_arm as u32,
                    ..Arm::NO_ROUTE
                }
            };
            s.nodes.push(Node {
                salt: router.salt,
                router: router.id,
                arms: u16::try_from(arms).expect("at most 256 arms per /24"),
                depth: UNKNOWN_DEPTH,
                arm,
            });
            next += 1;
        }
        for &router in &self.order {
            self.slot[router.0 as usize] = NONE;
        }
        self.order.clear();
    }

    /// Append the arm resolving octets `from..` to `group`, unless it
    /// resolves exactly like the node's previous arm.
    fn push_arm(&mut self, first_arm: usize, from: u8, group: Option<&NextHopGroup>) {
        let at = self.scratch.hops.len();
        let arm = match group {
            None => Arm {
                from,
                at: at as u32,
                ..Arm::NO_ROUTE
            },
            Some(group) => {
                for &hop in group.hops() {
                    let next = match hop {
                        NextHop::Deliver => DELIVER,
                        NextHop::Router(r) => self.slot_of(r),
                    };
                    self.scratch.hops.push(next);
                }
                Arm {
                    from,
                    policy: group.policy(),
                    len: u16::try_from(group.hops().len()).expect("ECMP group under 64k hops"),
                    at: at as u32,
                }
            }
        };
        let s = &mut self.scratch;
        if let Some(prev) = s.arms[first_arm..].last() {
            if prev.policy == arm.policy && s.hops_of(prev) == s.hops_of(&arm) {
                s.hops.truncate(at);
                return;
            }
        }
        s.arms.push(arm);
    }

    /// A hash of the program in `scratch`.
    fn scratch_hash(&self) -> u64 {
        let s = &self.scratch;
        let mut h = s.entries.iter().fold(0, |h, &e| mix2(h, e as u64));
        for node in &s.nodes {
            h = mix2(h, ((node.router.0 as u64) << 32) | node.arms as u64);
            for arm in s.arms_of(node) {
                h = mix2(
                    h,
                    ((arm.from as u64) << 24) | ((arm.policy as u64) << 16) | arm.len as u64,
                );
                h = s.hops_of(arm).iter().fold(h, |h, &n| mix2(h, n as u64));
            }
        }
        h
    }

    /// Whether `plane`'s `program` is the program in `scratch`.
    fn scratch_equals(&self, plane: &Plane, program: u32) -> bool {
        let s = &self.scratch;
        let base = self.first_node[program as usize];
        let end = self
            .first_node
            .get(program as usize + 1)
            .map_or(plane.nodes.len(), |&n| n as usize);
        let relocate = |n: u32| if n == DELIVER { DELIVER } else { base + n };
        let entries = &plane.entries[program as usize * plane.vantages..][..plane.vantages];
        end - base as usize == s.nodes.len()
            && entries.iter().zip(&s.entries).all(|(&e, &l)| e == base + l)
            && plane.nodes[base as usize..end]
                .iter()
                .zip(&s.nodes)
                .all(|(stored, local)| {
                    stored.router == local.router
                        && stored.arms == local.arms
                        && plane
                            .arms_of(stored)
                            .iter()
                            .zip(s.arms_of(local))
                            .all(|(a, b)| {
                                (a.from, a.policy, a.len) == (b.from, b.policy, b.len)
                                    && plane
                                        .hops_of(a)
                                        .iter()
                                        .zip(s.hops_of(b))
                                        .all(|(&x, &y)| x == relocate(y))
                            })
                })
    }

    /// Append the program in `scratch` to `plane`, relocating its node
    /// indices to the arena.
    fn append(&self, plane: &mut Plane) {
        let s = &self.scratch;
        let base = plane.nodes.len() as u32;
        let relocated = |plane: &mut Plane, arm: &Arm| {
            let at = plane.hops.len() as u32;
            plane.hops.extend(s.hops_of(arm).iter().map(|&n| {
                if n == DELIVER {
                    DELIVER
                } else {
                    base + n
                }
            }));
            Arm { at, ..*arm }
        };
        for node in &s.nodes {
            let arm = if node.arms == 1 {
                relocated(plane, &node.arm)
            } else {
                let first = plane.arms.len() as u32;
                for arm in s.arms_of(node) {
                    let arm = relocated(plane, arm);
                    plane.arms.push(arm);
                }
                Arm {
                    at: first,
                    ..Arm::NO_ROUTE
                }
            };
            plane.nodes.push(Node { arm, ..*node });
        }
        plane.entries.extend(s.entries.iter().map(|&e| base + e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Prefix};
    use crate::dynamics::{DynamicsConfig, DynamicsEvent, NetemSpec};
    use crate::fault::FaultConfig;
    use crate::forward::{probe_packet, Flow, Outcome, Steer, MAX_HOPS};
    use crate::host::{HostKind, HostProfile};
    use crate::route::NextHopGroup;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-hop table walk the plane replaced, kept as the reference
    /// the compiled walk must match: a linear-scan longest match at every
    /// hop, no plane.
    fn reference_walk(net: &Network, flow: &Flow) -> Outcome {
        let mut ttl = flow.ttl as u32;
        let mut cur = match net
            .vantage_index(flow.key.src)
            .expect("sent from a vantage")
        {
            0 => net.vantage_router,
            v => net.extra_vantages[v - 1].1,
        };
        let mut prev: Option<RouterId> = None;
        let mut hops = 0u32;
        let mut loop_counted = false;
        loop {
            hops += 1;
            if hops > MAX_HOPS || ttl == 0 {
                return Outcome::HopLimit;
            }
            if net.lost_on_link(hops, cur, flow.nonce) {
                return Outcome::Lost;
            }
            ttl -= 1;
            if ttl == 0 {
                return Outcome::Expired { at: cur, hops };
            }
            let router = net.router(cur);
            let Some((_, group)) = router.table.lookup_linear(flow.key.dst) else {
                return Outcome::NoRoute { at: cur, hops };
            };
            let (salt, width) = if net.dyn_events.is_empty() {
                (router.salt, usize::MAX)
            } else {
                match net.steer(
                    cur,
                    router.salt,
                    flow.epoch,
                    prev.is_some(),
                    &mut loop_counted,
                ) {
                    Steer::Back => {
                        cur = prev.replace(cur).unwrap();
                        continue;
                    }
                    Steer::Select { salt, width } => (salt, width),
                }
            };
            match group.select_among(&flow.key, salt, width) {
                NextHop::Deliver => return Outcome::Delivered { hops },
                NextHop::Router(next) => {
                    prev = Some(cur);
                    cur = next;
                }
            }
        }
    }

    const POLICIES: [LbPolicy; 4] = [
        LbPolicy::PerFlow,
        LbPolicy::PerDestination,
        LbPolicy::PerSrcDest,
        LbPolicy::PerPacket,
    ];

    /// The /24s a random world routes: 10.0.0.0/24 through 10.0.7.0/24.
    const BLOCKS: u32 = 8;

    fn block(i: u32) -> Block24 {
        Addr::new(10, 0, i as u8, 0).block24()
    }

    /// A random world, a pure function of `seed`. Routers forward mostly
    /// downstream (higher ids), sometimes back up (loops), and the last
    /// ones deliver. Every world has all four ECMP policies, nested
    /// prefixes down to /32 that split some /24s at some routers, two
    /// extra vantages, every dynamics event kind, link loss and either
    /// token buckets or Bernoulli ICMP loss. Blocks 6 and 7 are routed
    /// but unallocated.
    fn random_world(seed: u64) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Network::new(seed, Addr::new(192, 0, 2, 1));
        let n = rng.gen_range(6..20u32);
        for i in 0..n {
            let r = net.add_router(Addr::new(10, 255, (i / 200) as u8, (i % 200 + 1) as u8));
            let router = net.router_mut(r);
            router.responsive = rng.gen_bool(0.85);
            router.icmp_loss = if rng.gen_bool(0.2) { 0.3 } else { 0.0 };
            if rng.gen_bool(0.2) {
                router.alt_addr = Some(Addr::new(10, 254, 0, i as u8));
            }
        }
        let mut groups = 0usize;
        let mut group = |rng: &mut ChaCha8Rng, at: u32| {
            let fan = rng.gen_range(1..5usize);
            let hops = (0..fan)
                .map(|_| {
                    let last = at + 3 >= n;
                    if last && rng.gen_bool(0.7) || rng.gen_bool(0.1) {
                        NextHop::Deliver
                    } else if rng.gen_bool(0.1) {
                        NextHop::Router(RouterId(rng.gen_range(0..n)))
                    } else {
                        NextHop::Router(RouterId(rng.gen_range(at.min(n - 1)..n)))
                    }
                })
                .collect();
            // Round-robin first so every world has every policy.
            let policy = POLICIES[groups % 4];
            groups += 1;
            NextHopGroup::ecmp(
                hops,
                if groups > 4 {
                    POLICIES[rng.gen_range(0..4)]
                } else {
                    policy
                },
            )
        };
        for at in 0..n {
            let r = RouterId(at);
            if rng.gen_bool(0.6) {
                let g = group(&mut rng, at + 1);
                net.install_route(r, "10.0.0.0/16".parse().unwrap(), g);
            }
            for b in 0..BLOCKS {
                if rng.gen_bool(0.4) {
                    let g = group(&mut rng, at + 1);
                    net.install_route(r, block(b).prefix(), g);
                }
                // Longer prefixes that split the /24 at this router.
                if rng.gen_bool(0.15) {
                    for _ in 0..rng.gen_range(1..4) {
                        let len = rng.gen_range(25..=32u8);
                        let host = rng.gen_range(0..=255u8);
                        let g = group(&mut rng, at + 1);
                        net.install_route(r, Prefix::new(block(b).addr(host), len), g);
                    }
                }
            }
        }
        // Two extra vantages; the second enters mid-network.
        net.add_vantage(Addr::new(192, 0, 2, 2), RouterId(0));
        net.add_vantage(Addr::new(198, 51, 100, 1), RouterId(rng.gen_range(0..n)));
        for b in 0..BLOCKS - 2 {
            let kind =
                [HostKind::Residential, HostKind::Server, HostKind::Cellular][b as usize % 3];
            net.set_block_profile(
                block(b),
                HostProfile {
                    density: rng.gen_range(0.2..1.0),
                    churn: rng.gen_range(0.0..0.2),
                    kind,
                    ..HostProfile::default()
                },
            );
        }
        net.set_faults(FaultConfig {
            link_loss: rng.gen_range(0.0..0.08),
            icmp_rate: rng.gen_bool(0.7).then(|| rng.gen_range(0.2..1.0)),
        });
        let mut events = Vec::new();
        for kind in 0..5 + rng.gen_range(0..6) {
            let router = RouterId(rng.gen_range(0..n));
            let at_epoch = rng.gen_range(0..4u32);
            let alias = Addr::new(10, 253, 0, rng.gen_range(1..250));
            events.push(match kind % 5 {
                0 => DynamicsEvent::NextHopRewrite { router, at_epoch },
                1 => DynamicsEvent::LbResize {
                    router,
                    at_epoch,
                    width: rng.gen_range(0..4),
                },
                2 => DynamicsEvent::TransientLoop { router, at_epoch },
                3 => DynamicsEvent::AddressReuse {
                    router,
                    at_epoch,
                    alias,
                },
                _ => DynamicsEvent::FalseDiamond {
                    router,
                    at_epoch,
                    alias,
                },
            });
        }
        net.set_dynamics(DynamicsConfig {
            period: rng.gen_range(8..24),
            events,
            netem: rng.gen_bool(0.5).then_some(NetemSpec {
                delay_us: 200,
                jitter_us: 100,
                reorder_prob: 0.1,
                duplicate_prob: 0.1,
            }),
        });
        net
    }

    /// [`random_world`], static (no faults, no dynamics) when `pristine`:
    /// the world where the walk may skip silent hosts.
    fn world(seed: u64, pristine: bool) -> Network {
        let mut net = random_world(seed);
        if pristine {
            net.set_faults(FaultConfig::none());
            net.set_dynamics(DynamicsConfig::none());
        }
        net
    }

    /// Probes from every vantage into every allocated /24 with an entry of
    /// known delivery depth `d`, at TTL `d - 1`, `d` and `d + 1` (both sides
    /// of the depth), to a few random hosts, silent or answering.
    fn depth_probes(net: &Network, seed: u64) -> Vec<[u8; crate::forward::PROBE_LEN]> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDE97);
        let plane = net.plane();
        let mut probes = Vec::new();
        for (v, src) in net.vantages().into_iter().enumerate() {
            for b in 0..BLOCKS {
                let Some(program) = plane.program(block(b)) else {
                    continue;
                };
                let Some(depth) = plane.node(plane.entry(program, v)).delivery_depth() else {
                    continue;
                };
                for ttl in depth - 1..=depth + 1 {
                    for _ in 0..4 {
                        let dst = block(b).addr(rng.gen());
                        let seq = probes.len() as u16;
                        probes.push(probe_packet(src, dst, ttl as u8, 5, seq, rng.gen(), seq));
                    }
                }
            }
        }
        probes
    }

    /// Random probes: from every vantage, to allocated, routed-but-
    /// unallocated and unrouted space, at every TTL from 0 up.
    fn random_probes(seed: u64, count: usize) -> Vec<[u8; crate::forward::PROBE_LEN]> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E0B);
        let vantages = [
            Addr::new(192, 0, 2, 1),
            Addr::new(192, 0, 2, 2),
            Addr::new(198, 51, 100, 1),
        ];
        (0..count)
            .map(|seq| {
                let dst = if rng.gen_bool(0.9) {
                    block(rng.gen_range(0..BLOCKS)).addr(rng.gen())
                } else {
                    Addr::new(11, 0, rng.gen(), rng.gen())
                };
                let ttl = if rng.gen_bool(0.8) {
                    rng.gen_range(0..12)
                } else {
                    64
                };
                probe_packet(
                    vantages[rng.gen_range(0..3)],
                    dst,
                    ttl,
                    rng.gen_range(1..4),
                    seq as u16,
                    rng.gen_range(0..0xffff),
                    seq as u16,
                )
            })
            .collect()
    }

    type Observed = (
        Vec<(Option<Vec<u8>>, u64)>,
        crate::NetworkStats,
        crate::SilenceStats,
    );

    /// How [`run`] sends its probes.
    #[derive(Clone, Copy)]
    enum Send {
        /// One [`Network::exchange`] per probe.
        Each,
        /// All of them as one [`Network::exchange_block`].
        Block,
        /// One exchange per probe over the per-hop table walk.
        Reference,
    }

    fn run(net: &Network, probes: &[[u8; crate::forward::PROBE_LEN]], send: Send) -> Observed {
        let replies: Vec<crate::Reply> = match send {
            Send::Each => probes.iter().map(|p| net.exchange(p).unwrap()).collect(),
            Send::Block => {
                let mut replies = Vec::new();
                net.exchange_block(probes, &mut replies).unwrap();
                replies
            }
            Send::Reference => probes
                .iter()
                .map(|p| net.exchange_with(p, Some(reference_walk)).unwrap())
                .collect(),
        };
        let replies = replies
            .into_iter()
            .map(|reply| (reply.response.map(|r| r.as_bytes().to_vec()), reply.rtt_us))
            .collect();
        (replies, net.net_stats(), net.silence_stats())
    }

    /// [`random_probes`] plus [`depth_probes`] for `world(seed, pristine)`.
    fn probes_for(seed: u64, pristine: bool) -> Vec<[u8; crate::forward::PROBE_LEN]> {
        let mut probes = random_probes(seed, 400);
        probes.extend(depth_probes(&world(seed, pristine), seed));
        probes
    }

    proptest! {
        /// Random probes over random worlds get the same reply bytes, RTTs
        /// and final counters from the compiled walk as from the per-hop
        /// table walk, probe by probe and as one batch. A static world lets
        /// the compiled walk skip silent hosts; the table walk never does.
        #[test]
        fn compiled_walk_matches_the_table_walk(seed in any::<u64>(), pristine in any::<bool>()) {
            let probes = probes_for(seed, pristine);
            let reference = run(&world(seed, pristine), &probes, Send::Reference);
            // One batch re-resolves its target whenever the vantage or the
            // /24 changes from one probe to the next, as random probes do.
            for send in [Send::Each, Send::Block] {
                let compiled = run(&world(seed, pristine), &probes, send);
                prop_assert_eq!(&compiled.0, &reference.0, "seed {}", seed);
                prop_assert_eq!(compiled.1, reference.1, "seed {}", seed);
                prop_assert_eq!(compiled.2, reference.2, "seed {}", seed);
            }
        }
    }

    #[test]
    fn random_worlds_exercise_every_walk_feature() {
        let (mut split, mut totals) = (false, crate::NetworkStats::default());
        let mut silence = crate::SilenceStats::default();
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..16 {
            let net = random_world(seed);
            let (replies, stats, silent) = run(&net, &random_probes(seed, 400), Send::Each);
            split |= !net.plane().arms.is_empty();
            kinds.extend(replies.iter().map(|(r, _)| r.as_ref().map(|b| b[20])));
            totals.link_drops += stats.link_drops;
            totals.rate_limited_drops += stats.rate_limited_drops;
            totals.icmp_loss_drops += stats.icmp_loss_drops;
            totals.dyn_loops += stats.dyn_loops;
            totals.dyn_resizes += stats.dyn_resizes;
            totals.dyn_rewrites += stats.dyn_rewrites;
            silence.anonymous_router += silent.anonymous_router;
            silence.no_host += silent.no_host;
            silence.hop_limit += silent.hop_limit;
        }
        assert!(split, "some router splits a /24");
        // Echo reply, time exceeded, unreachable, silence.
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        assert!(totals.link_drops > 0 && totals.rate_limited_drops > 0);
        assert!(totals.icmp_loss_drops > 0);
        assert!(totals.dyn_loops > 0 && totals.dyn_resizes > 0 && totals.dyn_rewrites > 0);
        assert!(silence.anonymous_router > 0 && silence.no_host > 0 && silence.hop_limit > 0);
    }

    /// Why the compiled walk skipped a probe's walk, or why it did not.
    #[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
    enum Skip {
        /// Delivered on every path to a silent host: skipped.
        Fired,
        /// Delivered on every path, but the host answers.
        HostAnswers,
        /// The TTL does not exceed the entry's delivery depth.
        TtlWithinDepth,
        /// The entry's depth is unknown: a no-route arm or a loop.
        DepthUnknown,
        /// The world has link loss or dynamics events, or no program.
        NotStatic,
    }

    /// How the compiled walk treats `probe` on `net`, by the predicate the
    /// exchange itself uses.
    fn skip_of(net: &Network, probe: &[u8]) -> Skip {
        let ip = crate::wire::Ipv4Header::parse(probe).unwrap();
        let is_static = net.faults.link_loss == 0.0 && net.dyn_events.is_empty();
        let target = net.target(ip.src, ip.dst.block24(), is_static).unwrap();
        let plane = net.plane();
        let program = plane.program(ip.dst.block24());
        if target.always_delivers(ip.ttl) {
            match net.answering(ip.dst, &target) {
                None => Skip::Fired,
                Some(_) => Skip::HostAnswers,
            }
        } else if !is_static || program.is_none() {
            Skip::NotStatic
        } else {
            let vantage = net.vantage_index(ip.src).unwrap();
            match plane
                .node(plane.entry(program.unwrap(), vantage))
                .delivery_depth()
            {
                None => Skip::DepthUnknown,
                Some(_) => Skip::TtlWithinDepth,
            }
        }
    }

    /// Whether a walk from `entry` can reach an arm with no route.
    fn reaches_no_route(plane: &Plane, entry: u32) -> bool {
        let mut seen = vec![entry];
        let mut next = 0;
        while next < seen.len() {
            for arm in plane.arms_of(plane.node(seen[next])) {
                if arm.len == 0 {
                    return true;
                }
                for &hop in plane.hops_of(arm) {
                    if hop != DELIVER && !seen.contains(&hop) {
                        seen.push(hop);
                    }
                }
            }
            next += 1;
        }
        false
    }

    #[test]
    fn static_worlds_skip_silent_hosts_and_decline_the_rest() {
        let mut skips = std::collections::HashMap::new();
        let (mut no_route_split, mut looping) = (false, false);
        for seed in 0..16 {
            for pristine in [false, true] {
                let net = world(seed, pristine);
                for probe in probes_for(seed, pristine) {
                    let skip = skip_of(&net, &probe);
                    assert!(pristine || skip == Skip::NotStatic, "seed {seed}: {skip:?}");
                    *skips.entry(skip).or_insert(0) += 1;
                }
                let plane = net.plane();
                for node in &plane.nodes {
                    let arms = plane.arms_of(node);
                    no_route_split |= arms.len() > 1 && arms.iter().any(|a| a.len == 0);
                }
                for entry in plane.entries.iter().copied() {
                    looping |= plane.node(entry).delivery_depth().is_none()
                        && !reaches_no_route(plane, entry);
                }
            }
        }
        for skip in [
            Skip::Fired,
            Skip::HostAnswers,
            Skip::TtlWithinDepth,
            Skip::DepthUnknown,
            Skip::NotStatic,
        ] {
            assert!(
                skips.get(&skip).copied().unwrap_or(0) > 0,
                "{skip:?}: {skips:?}"
            );
        }
        assert!(
            no_route_split,
            "some router splits a /24 with a no-route arm"
        );
        assert!(looping, "some program has a cycle");
    }

    #[test]
    fn delivery_depth_is_the_longest_path_to_delivery() {
        // vantage -> r0 -(ecmp)-> {r1 -> r2, r2} -> deliver: the longest
        // path delivers at r2 on hop 3.
        let mut net = Network::new(1, Addr::new(192, 0, 2, 1));
        let r: Vec<RouterId> = (1..=4)
            .map(|i| net.add_router(Addr::new(10, 255, 0, i)))
            .collect();
        let to = |hop| NextHopGroup::single(hop);
        let fan = NextHopGroup::ecmp(
            vec![NextHop::Router(r[1]), NextHop::Router(r[2])],
            LbPolicy::PerFlow,
        );
        let (deep, split, looped) = (block(0), block(1), block(2));
        net.install_route(r[0], "10.0.0.0/16".parse().unwrap(), fan);
        net.install_route(r[1], deep.prefix(), to(NextHop::Router(r[2])));
        net.install_route(r[2], deep.prefix(), to(NextHop::Deliver));
        // `split`: r1 delivers the /24, r2 only its lower /25.
        net.install_route(r[1], split.prefix(), to(NextHop::Deliver));
        net.install_route(r[2], Prefix::new(split.addr(0), 25), to(NextHop::Deliver));
        // `looped`: r1 and r2 send it to each other.
        net.install_route(r[1], looped.prefix(), to(NextHop::Router(r[2])));
        net.install_route(r[2], looped.prefix(), to(NextHop::Router(r[1])));
        for b in [deep, split, looped] {
            net.set_block_profile(b, HostProfile::default());
        }
        let plane = Plane::compile(&net);
        let depth = |b: Block24| {
            let entry = plane.entry(plane.program(b).unwrap(), 0);
            plane.node(entry).delivery_depth()
        };
        assert_eq!(depth(deep), Some(3));
        assert_eq!(depth(split), None, "a reachable no-route arm");
        assert_eq!(depth(looped), None, "a cycle");
    }

    /// A static world (no faults, no dynamics, no cellular radios): its
    /// replies depend on nothing but the tables and the probe.
    fn static_world() -> Network {
        let mut net = random_world(7);
        net.set_faults(FaultConfig::none());
        net.set_dynamics(DynamicsConfig::none());
        for b in 0..BLOCKS - 2 {
            let profile = HostProfile {
                kind: HostKind::Server,
                ..*net.block_profile(block(b)).unwrap()
            };
            net.set_block_profile(block(b), profile);
        }
        net
    }

    /// Replies to a fixed sweep from every vantage the network knows.
    fn sweep(net: &Network) -> Vec<Option<Vec<u8>>> {
        let mut out = Vec::new();
        for src in net.vantages() {
            for b in 0..BLOCKS {
                for host in [0u8, 1, 77, 128, 200, 255] {
                    for ttl in [1u8, 2, 3, 5, 8, 64] {
                        let p =
                            probe_packet(src, block(b).addr(host), ttl, 9, host as u16, 0x4242, 0);
                        out.push(
                            net.exchange(&p)
                                .unwrap()
                                .response
                                .map(|r| r.as_bytes().to_vec()),
                        );
                    }
                }
            }
        }
        out
    }

    #[test]
    fn mutators_reset_the_plane_so_probes_match_a_fresh_network() {
        type Mutation = fn(&mut Network);
        let mutations: [Mutation; 4] = [
            |net| {
                let g = NextHopGroup::single(NextHop::Deliver);
                net.install_route(RouterId(0), "10.0.3.0/25".parse().unwrap(), g);
            },
            |net| {
                let g = NextHopGroup::ecmp(
                    vec![NextHop::Router(RouterId(1)), NextHop::Deliver],
                    LbPolicy::PerDestination,
                );
                net.router_mut(RouterId(0))
                    .table
                    .insert("10.0.5.0/24".parse().unwrap(), g);
            },
            |net| {
                net.add_vantage(Addr::new(203, 0, 113, 9), RouterId(2));
            },
            |net| net.set_block_profile(block(6), HostProfile::default()),
        ];
        let mut net = static_world();
        for (i, mutate) in mutations.iter().enumerate() {
            let before = sweep(&net);
            assert!(net.plane.get().is_some(), "the sweep compiled the plane");
            mutate(&mut net);
            assert!(net.plane.get().is_none(), "mutation {i} resets the plane");
            let mut fresh = static_world();
            for m in &mutations[..=i] {
                m(&mut fresh);
            }
            let after = sweep(&net);
            assert_eq!(after, sweep(&fresh), "mutation {i}");
            if i != 2 {
                assert_ne!(before, after, "mutation {i} changes forwarding");
            }
        }
    }

    #[test]
    fn racing_first_exchanges_compile_one_plane_and_agree() {
        let expected = sweep(&static_world());
        let net = static_world();
        assert!(net.plane.get().is_none(), "no exchange has compiled it yet");
        let workers = 4;
        let barrier = std::sync::Barrier::new(workers);
        let seen: Vec<(usize, Vec<Option<Vec<u8>>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let replies = sweep(&net);
                        (net.plane() as *const Plane as usize, replies)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (plane, replies) in &seen {
            assert_eq!(*plane, seen[0].0, "every thread probes one plane");
            assert_eq!(replies, &expected);
        }
    }

    /// `program` as the graph it encodes, independent of where the arena
    /// put it: per node reached from the entries (breadth first), its
    /// router, salt and arms, with next hops as routers (`None`: deliver).
    type Described = Vec<(RouterId, u64, Vec<(u8, LbPolicy, Vec<Option<RouterId>>)>)>;

    fn describe(plane: &Plane, program: u32) -> Described {
        let mut order: Vec<u32> = (0..plane.vantages)
            .map(|v| plane.entry(program, v))
            .collect();
        let mut out = Vec::new();
        let mut next = 0;
        while next < order.len() {
            let node = plane.node(order[next]);
            let mut arms = Vec::new();
            for arm in plane.arms_of(node) {
                let hops = plane.hops_of(arm).iter().map(|&h| {
                    (h != DELIVER).then(|| {
                        if !order.contains(&h) {
                            order.push(h);
                        }
                        plane.node(h).router
                    })
                });
                arms.push((arm.from, arm.policy, hops.collect()));
            }
            out.push((node.router, node.salt, arms));
            next += 1;
        }
        out
    }

    #[test]
    fn programs_are_deduplicated_and_cover_every_allocated_block() {
        let s = crate::build::build(crate::build::ScenarioConfig::tiny(3));
        let plane = Plane::compile(&s.network);
        let blocks = s.network.allocated_blocks();
        for &b in &blocks {
            let program = plane.program(b).expect("every allocated /24 has a program");
            let alone = Plane::compile_one(&s.network, b);
            assert_eq!(describe(&plane, program), describe(&alone, 0), "{b:?}");
        }
        assert!(
            plane.program_count() < blocks.len() / 2,
            "{} programs",
            plane.program_count()
        );
        assert!(plane.node_count() >= plane.program_count());
        assert!(plane.heap_bytes() > 0);
        // Two /24s whose programs reach the same routers in the same order
        // with the same group shapes, and differ only in where r1 and r2
        // send them: they must not share a program.
        let mut net = Network::new(1, Addr::new(192, 0, 2, 1));
        let r: Vec<RouterId> = (1..=4)
            .map(|i| net.add_router(Addr::new(10, 255, 0, i)))
            .collect();
        let fan = NextHopGroup::ecmp(
            vec![NextHop::Router(r[1]), NextHop::Router(r[2])],
            LbPolicy::PerFlow,
        );
        let to = |hop| NextHopGroup::single(hop);
        let (x, y) = (block(0), block(1));
        for (b, via, direct) in [(x, r[1], r[2]), (y, r[2], r[1])] {
            net.install_route(r[0], b.prefix(), fan.clone());
            net.install_route(via, b.prefix(), to(NextHop::Router(r[3])));
            net.install_route(direct, b.prefix(), to(NextHop::Deliver));
            net.install_route(r[3], b.prefix(), to(NextHop::Deliver));
            net.set_block_profile(b, HostProfile::default());
        }
        let plane = Plane::compile(&net);
        assert_eq!(plane.program_count(), 2);
        for b in [x, y] {
            let alone = Plane::compile_one(&net, b);
            assert_eq!(
                describe(&plane, plane.program(b).unwrap()),
                describe(&alone, 0)
            );
        }
        // Unallocated space has no program; the walk compiles one on the spot.
        let outside = Addr::new(225, 1, 2, 3).block24();
        assert!(plane.program(outside).is_none());
        assert_eq!(Plane::compile_one(&s.network, outside).program_count(), 1);
    }
}
