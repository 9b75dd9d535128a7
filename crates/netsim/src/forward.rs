//! The forwarding engine: what happens to a probe injected at the vantage.
//!
//! The only interface measurement tools get is [`Network::exchange`]: probe
//! bytes in, optional reply bytes out, plus a measured RTT — exactly the
//! information a real prober gets from a raw socket. Everything Hobbit
//! infers must come through this bottleneck.
//!
//! The exchange is allocation-free: it parses the probe from a slice and
//! builds the reply in place as a [`Packet`], a stack array. The prober
//! encodes into a stack array too ([`probe_packet`]), so a probe costs no
//! heap traffic on either side, yet every probe is still encoded,
//! checksummed and decoded by both. [`Network::send`] and [`encode_probe`]
//! are thin `Bytes` wrappers over that core for callers that hold `bytes`
//! buffers.
//!
//! There is one exchange engine, and it takes a batch:
//! [`Network::exchange_block`] carries a slice of probes, and
//! [`Network::exchange`] is a batch of one. A run of probes from one
//! vantage to one /24 — a scan of the /24 — resolves the vantage, the /24's
//! program, delivery depth and host profile once, and adds to the
//! carried-probe and silent-host counters once; each probe is still parsed
//! and checksum-verified on its own.
//!
//! The walk searches no route table. It follows the destination /24's
//! route program in the network's compiled forwarding plane (the `plane`
//! module): at each hop it indexes the next node, picks among the node's
//! next hops with the shared ECMP hash ([`LbPolicy`](crate::LbPolicy)), and
//! keys link loss, dynamics events, rate limits and replies on the node's
//! router id exactly as a table walk would. The tables stay the source of
//! truth; a test-only per-hop table walk checks the compiled one reply for
//! reply.
//!
//! Silence is decided here, so it is counted here, by reason, beside the
//! fault-drop counters: an anonymous router, no host answering, or the hop
//! limit (see [`Network::silence_stats`]).
//!
//! Most probes of a scan go to addresses with no host, and the walk is
//! skipped for them when that changes nothing. A probe skips it, straight
//! to the timeout and the `no_host` count its delivery would give, when
//! all of these hold:
//!
//! * link loss is 0 and no dynamics events are armed, so the walk draws
//!   nothing and counts nothing on the way (netem only touches replies);
//! * the destination /24 has a program, and the probe's TTL exceeds the
//!   delivery depth of the node its vantage enters at, so every path
//!   delivers it (see the `plane` module);
//! * the host oracle says the destination is silent at the current epoch.
//!
//! These are properties of the network, checked per exchange, so every
//! caller in a static world gets the skip; no option turns it on or off.

use crate::addr::{Addr, Block24};
use crate::dynamics::{DynamicsEvent, NetemSpec};
use crate::fault::ICMP_BURST;
use crate::hash::{mix3, unit_f64};
use crate::host::{HostKind, HostProfile};
use crate::plane::{Plane, DELIVER};
use crate::route::{FlowKey, RouterId};
use crate::topology::Network;
use crate::wire::{
    IcmpEcho, IcmpError, Ipv4Header, WireError, ICMP_DEST_UNREACH, ICMP_ECHO_LEN, ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST, ICMP_ERROR_LEN, ICMP_TIME_EXCEEDED, IPV4_HEADER_LEN,
};
use bytes::Bytes;
use std::cell::OnceCell;

/// Timeout reported when no response arrives, in microseconds.
pub const TIMEOUT_US: u64 = 2_000_000;

/// Bytes of an echo request or reply: IPv4 header, echo header, the two
/// payload bytes that carry the checksum tweak.
pub const PROBE_LEN: usize = IPV4_HEADER_LEN + ICMP_ECHO_LEN;

/// Bytes of the largest packet the network sends back: an ICMP error.
pub(crate) const MAX_PACKET_LEN: usize = IPV4_HEADER_LEN + ICMP_ERROR_LEN;

/// A reply packet held on the stack: an IPv4 header and one ICMP message,
/// at most 56 bytes (the size of an ICMP error quoting the probe).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    buf: [u8; MAX_PACKET_LEN],
    len: u8,
}

impl Packet {
    /// `header` followed by `message`.
    fn new(header: &Ipv4Header, message: &[u8]) -> Packet {
        let mut buf = [0u8; MAX_PACKET_LEN];
        let len = IPV4_HEADER_LEN + message.len();
        buf[..IPV4_HEADER_LEN].copy_from_slice(&header.to_wire());
        buf[IPV4_HEADER_LEN..len].copy_from_slice(message);
        Packet {
            buf,
            len: len as u8,
        }
    }

    /// The packet's wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Packet").field(&self.as_bytes()).finish()
    }
}

/// The observable outcome of one [`Network::exchange`].
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// The response packet, if any (echo reply or ICMP error).
    pub response: Option<Packet>,
    /// Measured round-trip (or the timeout value when `response` is None).
    pub rtt_us: u64,
}

/// Maximum number of routers a probe may traverse before the network
/// declares a forwarding loop and drops it.
pub const MAX_HOPS: u32 = 64;

/// The observable outcome of one [`Network::send`]: a [`Reply`] with the
/// response copied into `Bytes`.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The response packet, if any (echo reply or ICMP error).
    pub response: Option<Bytes>,
    /// Measured round-trip (or the timeout value when `response` is None).
    pub rtt_us: u64,
}

/// Why `Network::send` rejected a probe outright (malformed input is a
/// caller bug, not a network condition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The packet failed to parse.
    Wire(WireError),
    /// The source address is not the vantage address.
    NotFromVantage(Addr),
    /// Only ICMP echo requests can be injected.
    NotEchoRequest(u8),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Wire(e) => write!(f, "malformed probe: {e}"),
            SendError::NotFromVantage(a) => write!(f, "probe source {a} is not the vantage"),
            SendError::NotEchoRequest(t) => write!(f, "probe is not an echo request (type {t})"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<WireError> for SendError {
    fn from(e: WireError) -> Self {
        SendError::Wire(e)
    }
}

/// Internal result of walking the forwarding path.
pub(crate) enum Outcome {
    /// The TTL ran out at router `at`, hop number `hops`.
    Expired { at: RouterId, hops: u32 },
    /// The last-hop router delivered the probe after `hops` hops.
    Delivered { hops: u32 },
    /// Router `at` had no route for the destination.
    NoRoute { at: RouterId, hops: u32 },
    /// Injected link loss dropped the probe.
    Lost,
    /// The probe ran out of hops in a loop, or was sent with TTL 0.
    HopLimit,
}

/// What one probe brings to the forwarding walk.
pub(crate) struct Flow {
    /// The fields load balancers hash.
    pub(crate) key: FlowKey,
    /// The probe's IP TTL.
    pub(crate) ttl: u8,
    /// The per-probe draw every seeded decision keys on.
    pub(crate) nonce: u64,
    /// The dynamics epoch the probe lands in.
    pub(crate) epoch: u32,
}

/// What the dynamics schedule makes one router do with a probe.
pub(crate) enum Steer {
    /// A transient loop: send the probe back to the previous hop.
    Back,
    /// Select a next hop with this salt among at most `width` hops.
    Select { salt: u64, width: usize },
}

/// What a run of probes from one vantage to one /24 resolves once: where
/// the vantage enters the /24's program and how deep, and the /24's host
/// profile. A batch resolves it again only when the source or the /24
/// changes.
pub(crate) struct Target<'p> {
    src: Addr,
    block: Block24,
    /// The /24's host profile (`None` if it is unallocated), looked up on
    /// first use: a probe that is never delivered does not need it.
    profile: OnceCell<Option<HostProfile>>,
    /// The network's plane, which holds the /24's program.
    plane: &'p Plane,
    /// A plane holding only the /24's program, compiled on the spot when
    /// the network's has none (the /24 is unallocated).
    spot: Option<Box<Plane>>,
    /// The node the vantage enters the program at.
    entry: u32,
    /// Set when a probe whose TTL exceeds this depth is delivered on every
    /// path, so a silent host's probe may skip the walk: the world is
    /// static and the /24 has a program whose entry has a known depth.
    skip_depth: Option<u32>,
}

impl Target<'_> {
    /// Whether a probe with this TTL may skip the walk when its host is
    /// silent: it is delivered on every path.
    #[inline]
    pub(crate) fn always_delivers(&self, ttl: u8) -> bool {
        self.skip_depth.is_some_and(|depth| depth < ttl as u32)
    }
}

/// A forwarding walk a test passes in to replace the compiled one: it
/// never skips a silent host's walk.
pub(crate) type ReferenceWalk = fn(&Network, &Flow) -> Outcome;

/// Counter adds a batch makes once, at its end.
#[derive(Default)]
struct Tally {
    /// Probes carried.
    carried: u64,
    /// Probes delivered to no answering host.
    silent: u64,
}

impl Network {
    /// Inject an ICMP echo request at the vantage point.
    ///
    /// Returns the response bytes (echo reply, Time Exceeded, or Destination
    /// Unreachable) and the measured RTT, or `response: None` on timeout —
    /// which can mean an unresponsive destination, an anonymous or
    /// rate-limited router, a forwarding loop, or an unrouted destination.
    ///
    /// A `Bytes` wrapper over [`Network::exchange`]: the response is
    /// copied out of its stack [`Packet`] into a fresh buffer.
    pub fn send(&self, probe: Bytes) -> Result<Delivery, SendError> {
        let reply = self.exchange(&probe)?;
        Ok(Delivery {
            response: reply.response.map(|p| Bytes::from(p.as_bytes().to_vec())),
            rtt_us: reply.rtt_us,
        })
    }

    /// Inject the ICMP echo request in `probe` at the vantage point, as
    /// [`Network::send`] does, without touching the heap: the probe is
    /// parsed from the slice and the reply built in a stack [`Packet`].
    /// It is a batch of one through [`Network::exchange_block`]'s engine.
    ///
    /// Takes `&self`: the per-probe state (probe accounting, cellular
    /// warm-up) lives behind interior mutability, so any number of threads
    /// may probe one shared network (see [`crate::concurrent`]).
    pub fn exchange(&self, probe: &[u8]) -> Result<Reply, SendError> {
        self.exchange_with(probe, None)
    }

    /// Inject each probe of `probes` in order, pushing one reply per probe
    /// onto `replies`: exactly the replies, RTTs and counters that many
    /// [`Network::exchange`] calls give. Every probe is still parsed and
    /// checksum-verified, but a run of probes from one vantage to one /24
    /// (a scan of the /24) resolves the vantage, the /24's program, depth
    /// and profile once, and the batch adds to the carried-probe and
    /// silent-host counters once.
    ///
    /// On a malformed probe, returns its error after pushing the replies of
    /// the probes before it.
    pub fn exchange_block(
        &self,
        probes: &[[u8; PROBE_LEN]],
        replies: &mut Vec<Reply>,
    ) -> Result<(), SendError> {
        replies.reserve(probes.len());
        self.exchange_each(probes, None, |r| replies.push(r))
    }

    /// [`Network::exchange`], over `reference` in place of the compiled
    /// walk if given, so a test can compare the replies byte for byte.
    pub(crate) fn exchange_with(
        &self,
        probe: &[u8],
        reference: Option<ReferenceWalk>,
    ) -> Result<Reply, SendError> {
        let mut reply = None;
        self.exchange_each(&[probe], reference, |r| reply = Some(r))?;
        Ok(reply.expect("one probe, one reply"))
    }

    /// The one exchange engine: carry every probe, hand its reply to
    /// `sink`, then make the batch's counter adds (also on an error).
    fn exchange_each<P: AsRef<[u8]>>(
        &self,
        probes: &[P],
        reference: Option<ReferenceWalk>,
        sink: impl FnMut(Reply),
    ) -> Result<(), SendError> {
        let mut tally = Tally::default();
        let result = self.carry_each(probes, reference, &mut tally, sink);
        self.probes_carried.add(tally.carried);
        if tally.silent > 0 {
            self.fault_counters.silent_host.add(tally.silent);
        }
        result
    }

    // `carry_each`, `target` and `carry` are inlined into each exchange:
    // left as calls, a batch of one (every `exchange`) paid about 40 ns
    // more per probe than one inlined body.
    #[inline(always)]
    fn carry_each<P: AsRef<[u8]>>(
        &self,
        probes: &[P],
        reference: Option<ReferenceWalk>,
        tally: &mut Tally,
        mut sink: impl FnMut(Reply),
    ) -> Result<(), SendError> {
        // Link loss and dynamics events are the only per-probe draws of
        // the walk; without them a probe's path is fixed by the tables.
        let static_world = self.faults.link_loss == 0.0 && self.dyn_events.is_empty();
        let skip = static_world && reference.is_none();
        let mut target: Option<Target> = None;
        for probe in probes {
            let probe = probe.as_ref();
            let ip = Ipv4Header::parse(probe)?;
            let block = ip.dst.block24();
            let target = match &mut target {
                Some(t) if t.src == ip.src && t.block == block => t,
                slot => slot.insert(self.target(ip.src, block, skip)?),
            };
            let (icmp_type, echo) = IcmpEcho::parse(&probe[IPV4_HEADER_LEN..])?;
            if icmp_type != ICMP_ECHO_REQUEST {
                return Err(SendError::NotEchoRequest(icmp_type));
            }
            tally.carried += 1;
            sink(self.carry(&ip, &echo, target, reference, tally));
        }
        Ok(())
    }

    /// Resolve the [`Target`] of probes from `src` to `block`; `skip` says
    /// whether the world is static and the walk compiled.
    #[inline(always)]
    pub(crate) fn target(
        &self,
        src: Addr,
        block: Block24,
        skip: bool,
    ) -> Result<Target<'_>, SendError> {
        let Some(vantage) = self.vantage_index(src) else {
            return Err(SendError::NotFromVantage(src));
        };
        let plane = self.plane();
        let (spot, entry, skip_depth) = match plane.program(block) {
            Some(program) => {
                let entry = plane.entry(program, vantage);
                let depth = plane.node(entry).delivery_depth();
                (None, entry, depth.filter(|_| skip))
            }
            None => {
                let spot = Plane::compile_one(self, block);
                let entry = spot.entry(0, vantage);
                (Some(Box::new(spot)), entry, None)
            }
        };
        Ok(Target {
            src,
            block,
            profile: OnceCell::new(),
            plane,
            spot,
            entry,
            skip_depth,
        })
    }

    /// The profile of `dst`'s /24 if a host answers at `dst` now.
    pub(crate) fn answering(&self, dst: Addr, target: &Target) -> Option<HostProfile> {
        let profile = target
            .profile
            .get_or_init(|| self.blocks.get(&target.block).copied());
        profile.filter(|profile| self.oracle.responsive(dst, profile, self.epoch))
    }

    /// Carry one parsed probe to its reply.
    ///
    /// In a static world, a probe that is delivered on every path (its TTL
    /// exceeds the entry's delivery depth) to a host the oracle says is
    /// silent skips the walk: the walk could only end in that delivery,
    /// and delivery to a silent host is the timeout and the `no_host`
    /// count returned here, with nothing drawn or counted on the way.
    #[inline(always)]
    fn carry(
        &self,
        ip: &Ipv4Header,
        echo: &IcmpEcho,
        target: &Target,
        reference: Option<ReferenceWalk>,
        tally: &mut Tally,
    ) -> Reply {
        let answering = || self.answering(ip.dst, target);
        let mut host = None;
        if target.always_delivers(ip.ttl) {
            let answers = answering();
            if answers.is_none() {
                tally.silent += 1;
                return timeout();
            }
            host = Some(answers);
        }

        let key = FlowKey {
            src: ip.src,
            dst: ip.dst,
            protocol: ip.protocol,
            flow_label: echo.wire_checksum(ICMP_ECHO_REQUEST),
            ip_ident: ip.ident,
        };
        let nonce = mix3(
            ip.dst.0 as u64,
            ((ip.ident as u64) << 32) | ((echo.ident as u64) << 16) | echo.seq as u64,
            key.flow_label as u64,
        );

        // The dynamics epoch this probe lands in. The virtual clock is per
        // probe *stream* — `(icmp ident, destination /24)`, the same stream
        // identity the ICMP token buckets key on — so a stream's tick count
        // is exactly its prober's local sequential probe count: a pure
        // function of the stream prefix, independent of worker-thread
        // interleaving, resume, and shard layout. With no live event
        // schedule the clock never ticks and the epoch is always 0.
        let epoch = if self.dynamics.events_active() {
            let tick = self.vclock.tick((echo.ident, target.block.0));
            self.dynamics.epoch_of(tick)
        } else {
            0
        };

        let flow = Flow {
            key,
            ttl: ip.ttl,
            nonce,
            epoch,
        };
        let outcome = match reference {
            None => {
                let plane = target.spot.as_deref().unwrap_or(target.plane);
                self.walk_program(plane, target.entry, &flow)
            }
            Some(walk) => walk(self, &flow),
        };
        let mut reply = match outcome {
            Outcome::Expired { at, hops } => {
                self.router_error(at, hops, ICMP_TIME_EXCEEDED, ip, echo, nonce, epoch)
            }
            Outcome::NoRoute { at, hops } => {
                self.router_error(at, hops, ICMP_DEST_UNREACH, ip, echo, nonce, epoch)
            }
            Outcome::Lost => {
                // Lost on the wire: no Time Exceeded, no delivery — the
                // prober just sees silence.
                self.fault_counters.link_drops.inc();
                timeout()
            }
            Outcome::HopLimit => {
                self.fault_counters.silent_hop_limit.inc();
                timeout()
            }
            Outcome::Delivered { hops } => match host.unwrap_or_else(answering) {
                Some(profile) => self.host_reply(ip, echo, hops, nonce, &profile),
                None => {
                    tally.silent += 1;
                    timeout()
                }
            },
        };
        if let Some(netem) = self.dynamics.netem {
            self.apply_netem(&mut reply, ip.dst, nonce, netem);
        }
        reply
    }

    /// The walk itself, from node `entry` of `plane`: no route-table
    /// search per hop, only node indexing.
    ///
    /// When fault injection is on, each hop transition is a seeded
    /// per-link loss draw (see [`Network::lost_on_link`]); the dynamics
    /// schedule perturbs the choice at each router (see [`Network::steer`]).
    fn walk_program(&self, plane: &Plane, entry: u32, flow: &Flow) -> Outcome {
        let octet = flow.key.dst.0 as u8;
        let mut ttl = flow.ttl as u32;
        let mut cur = entry;
        let mut prev: Option<u32> = None;
        let mut hops = 0u32;
        let mut loop_counted = false;
        loop {
            hops += 1;
            // Over the hop limit, or never had budget to reach the first
            // router.
            if hops > MAX_HOPS || ttl == 0 {
                return Outcome::HopLimit;
            }
            let node = plane.node(cur);
            if self.lost_on_link(hops, node.router, flow.nonce) {
                return Outcome::Lost;
            }
            ttl -= 1;
            if ttl == 0 {
                return Outcome::Expired {
                    at: node.router,
                    hops,
                };
            }
            let arm = plane.arm(node, octet);
            if arm.len == 0 {
                return Outcome::NoRoute {
                    at: node.router,
                    hops,
                };
            }
            let (salt, width) = if self.dyn_events.is_empty() {
                (node.salt, usize::MAX)
            } else {
                match self.steer(
                    node.router,
                    node.salt,
                    flow.epoch,
                    prev.is_some(),
                    &mut loop_counted,
                ) {
                    Steer::Back => {
                        let back = prev.replace(cur).expect("a loop needs a previous hop");
                        cur = back;
                        continue;
                    }
                    Steer::Select { salt, width } => (salt, width),
                }
            };
            let n = (arm.len as usize).min(width).max(1);
            match plane.hop(arm, arm.policy.pick(&flow.key, salt, n)) {
                DELIVER => return Outcome::Delivered { hops },
                next => {
                    prev = Some(cur);
                    cur = next;
                }
            }
        }
    }

    /// Whether injected link loss drops the probe on the wire into router
    /// `at`, its hop number `hops`: a draw keyed by the link and the probe
    /// nonce, so a given probe's fate is a pure function of its wire bytes
    /// — identical at any thread count — while retries (fresh seq/ident,
    /// fresh nonce) are independent draws.
    #[inline]
    pub(crate) fn lost_on_link(&self, hops: u32, at: RouterId, nonce: u64) -> bool {
        let link_loss = self.faults.link_loss;
        link_loss > 0.0
            && unit_f64(mix3(
                self.seed ^ 0x11AC,
                ((hops as u64) << 32) | at.0 as u64,
                nonce,
            )) < link_loss as f64
    }

    /// What the dynamics schedule makes router `at` (ECMP salt `salt`) do
    /// with a probe at `epoch`. It perturbs selection, never the route
    /// table: all evolution is a pure function of (schedule, epoch, flow).
    /// `can_loop` says whether the probe has a previous hop to bounce back
    /// to; `loop_counted` makes one probe count one loop at most.
    pub(crate) fn steer(
        &self,
        at: RouterId,
        salt: u64,
        epoch: u32,
        can_loop: bool,
        loop_counted: &mut bool,
    ) -> Steer {
        let Some(evs) = self.dyn_events.get(&at.0) else {
            return Steer::Select {
                salt,
                width: usize::MAX,
            };
        };
        // Transient loop: *during* its epoch only, the router forwards back
        // toward the previous hop. The probe bounces between the pair,
        // burning TTL, and expires inside the loop — the alternating-address
        // ladder traceroute folklore knows. The loop heals itself when the
        // epoch rolls over.
        let looping = evs.iter().any(
            |e| matches!(e, DynamicsEvent::TransientLoop { at_epoch, .. } if *at_epoch == epoch),
        );
        if can_loop && looping {
            if !std::mem::replace(loop_counted, true) {
                self.dyn_counters.loops.inc();
            }
            return Steer::Back;
        }
        // Route churn: the latest applicable rewrite re-salts ECMP
        // selection, remapping flows over existing links.
        let rewrite = evs
            .iter()
            .filter_map(|e| match e {
                DynamicsEvent::NextHopRewrite { at_epoch, .. } if *at_epoch <= epoch => {
                    Some(*at_epoch)
                }
                _ => None,
            })
            .max();
        let mut salt = salt;
        if let Some(at) = rewrite {
            salt = mix3(salt, 0xD1CE, at as u64);
            self.dyn_counters.rewrites.inc();
        }
        // Load-balancer resize: the latest applicable width clamps
        // selection to the group's first `width` hops.
        let resize = evs
            .iter()
            .filter_map(|e| match e {
                DynamicsEvent::LbResize {
                    at_epoch, width, ..
                } if *at_epoch <= epoch => Some((*at_epoch, *width)),
                _ => None,
            })
            .max_by_key(|&(at, _)| at);
        let mut width = usize::MAX;
        if let Some((_, w)) = resize {
            width = w as usize;
            self.dyn_counters.resizes.inc();
        }
        Steer::Select { salt, width }
    }

    /// Build a router-sourced ICMP error, subject to responsiveness and
    /// rate limiting.
    #[allow(clippy::too_many_arguments)]
    fn router_error(
        &self,
        at: RouterId,
        hops: u32,
        icmp_type: u8,
        probe_ip: &Ipv4Header,
        probe_echo: &IcmpEcho,
        nonce: u64,
        epoch: u32,
    ) -> Reply {
        let router = self.router(at);
        if !router.responsive {
            self.fault_counters.silent_anonymous.inc();
            return timeout();
        }
        match self.faults.icmp_rate {
            // Token-bucket rate limiting at every responsive router; the
            // bucket is per probe stream (router, prober ident, target /24)
            // so admission never depends on worker-thread interleaving.
            Some(rate) => {
                let stream = (at.0, probe_echo.ident, probe_ip.dst.block24().0);
                if !self.buckets.admit(stream, rate, ICMP_BURST) {
                    self.fault_counters.rate_limited_drops.inc();
                    return timeout();
                }
            }
            // Legacy behavior: scenario-flagged routers suppress replies
            // with a stateless Bernoulli draw.
            None if router.icmp_loss > 0.0 => {
                let drop = unit_f64(mix3(self.seed ^ 0x5A, at.0 as u64, nonce));
                if drop < router.icmp_loss as f64 {
                    self.fault_counters.icmp_loss_drops.inc();
                    return timeout();
                }
            }
            None => {}
        }
        let err = IcmpError {
            icmp_type,
            quoted: Ipv4Header {
                ttl: 1,
                ..*probe_ip
            },
            quoted_echo: *probe_echo,
            quoted_type: ICMP_ECHO_REQUEST,
        };
        // Routers with two interfaces answer from a destination-dependent
        // one (the reply egress depends on the internal per-destination
        // route toward the probe source) — a classic traceroute artifact
        // that inflates entire-route cardinality without changing last-hop
        // identity. This is what makes whole-traceroute comparison so much
        // weaker than last-hop comparison (paper §3.1).
        let mut src = match router.alt_addr {
            Some(alt) if mix3(self.seed ^ 0x41F, at.0 as u64, probe_ip.dst.0 as u64) & 1 == 1 => {
                alt
            }
            _ => router.addr,
        };
        // Dynamics artifacts that corrupt the reply *source address* — the
        // only field last-hop classification reads:
        if !self.dyn_events.is_empty() {
            if let Some(evs) = self.dyn_events.get(&at.0) {
                // Address reuse: errors sourced from an address already on
                // the path upstream — an apparent cycle with no routing
                // loop behind it.
                let reuse = evs
                    .iter()
                    .filter_map(|e| match e {
                        DynamicsEvent::AddressReuse {
                            at_epoch, alias, ..
                        } if *at_epoch <= epoch => Some((*at_epoch, *alias)),
                        _ => None,
                    })
                    .max_by_key(|&(a, _)| a);
                if let Some((_, alias)) = reuse {
                    src = alias;
                    self.dyn_counters.addr_reuses.inc();
                }
                // False diamond: the reply source alternates per probe,
                // fabricating a phantom per-packet interface pair.
                let diamond = evs
                    .iter()
                    .filter_map(|e| match e {
                        DynamicsEvent::FalseDiamond {
                            at_epoch, alias, ..
                        } if *at_epoch <= epoch => Some((*at_epoch, *alias)),
                        _ => None,
                    })
                    .max_by_key(|&(a, _)| a);
                if let Some((_, alias)) = diamond {
                    if nonce & 1 == 1 {
                        src = alias;
                        self.dyn_counters.false_diamonds.inc();
                    }
                }
            }
        }
        let outer = Ipv4Header {
            src,
            dst: probe_ip.src,
            ttl: 255u8.saturating_sub(hops as u8),
            protocol: 1,
            ident: (nonce & 0xffff) as u16,
        };
        let rtt = self
            .rtt
            .rtt_us(router.addr, hops, 0, HostKind::Server, false, nonce);
        Reply {
            response: Some(Packet::new(&outer, &err.to_wire())),
            rtt_us: rtt,
        }
    }

    /// Build the echo reply of the destination host, which answers at the
    /// current epoch and has block profile `profile`.
    fn host_reply(
        &self,
        probe_ip: &Ipv4Header,
        probe_echo: &IcmpEcho,
        hops: u32,
        nonce: u64,
        profile: &HostProfile,
    ) -> Reply {
        let dst = probe_ip.dst;
        // Note: churn can bring up hosts absent from the snapshot population
        // (paper footnote 2), so derive properties directly rather than
        // requiring snapshot existence.
        let default_ttl = self.oracle.default_ttl(dst, profile);
        // Reverse-path hop count: forward hops plus a small per-block
        // asymmetry, so TTL-based hop inference is realistic, not exact.
        let asym_draw = unit_f64(mix3(self.seed ^ 0x51, dst.block24().0 as u64, 0));
        let asym = if asym_draw < 0.6 {
            0
        } else if asym_draw < 0.9 {
            1
        } else {
            2
        };
        let reverse_hops = hops + asym;
        let remaining = default_ttl.saturating_sub(reverse_hops as u8).max(1);

        // One atomic check-and-warm: of any number of concurrent first
        // probes to a cold radio, exactly one pays the wake-up delay.
        let cold = profile.kind == HostKind::Cellular && self.warmed.warm(dst);
        let rtt = self
            .rtt
            .rtt_us(dst, hops, profile.base_rtt_us, profile.kind, cold, nonce);

        let outer = Ipv4Header {
            src: dst,
            dst: probe_ip.src,
            ttl: remaining,
            protocol: 1,
            ident: (nonce >> 16 & 0xffff) as u16,
        };
        Reply {
            response: Some(Packet::new(&outer, &probe_echo.to_wire(ICMP_ECHO_REPLY))),
            rtt_us: rtt,
        }
    }

    /// Apply netem-style perturbation to a delivered reply: fixed delay, a
    /// per-probe jitter draw, "reordering" modeled as a full extra jitter
    /// window of tail latency (a request/response simulator has no second
    /// in-flight packet to swap with), and duplication as pure accounting
    /// (a prober's request/response matching discards the copy anyway).
    /// All draws are pure functions of the probe nonce, so perturbation is
    /// byte-identical at any thread count.
    fn apply_netem(&self, d: &mut Reply, dst: Addr, nonce: u64, n: NetemSpec) {
        if d.response.is_none() {
            return;
        }
        let mut extra = n.delay_us as u64;
        if n.jitter_us > 0 {
            let draw = unit_f64(mix3(self.seed ^ 0x7E77, dst.0 as u64, nonce));
            extra += (draw * n.jitter_us as f64) as u64;
        }
        if n.reorder_prob > 0.0
            && unit_f64(mix3(self.seed ^ 0x7E78, dst.0 as u64, nonce)) < n.reorder_prob as f64
        {
            extra += n.jitter_us.max(n.delay_us) as u64;
            self.dyn_counters.netem_reorders.inc();
        }
        if n.duplicate_prob > 0.0
            && unit_f64(mix3(self.seed ^ 0x7E79, dst.0 as u64, nonce)) < n.duplicate_prob as f64
        {
            self.dyn_counters.netem_duplicates.inc();
        }
        if extra > 0 {
            d.rtt_us += extra;
            self.dyn_counters.netem_delays.inc();
        }
    }
}

fn timeout() -> Reply {
    Reply {
        response: None,
        rtt_us: TIMEOUT_US,
    }
}

/// Encode an echo-request probe as wire bytes in a stack array.
///
/// `flow_label` is the ICMP checksum the probe will carry (the Paris flow
/// identifier); the payload tweak is solved to hit it exactly.
pub fn probe_packet(
    src: Addr,
    dst: Addr,
    ttl: u8,
    ident: u16,
    seq: u16,
    flow_label: u16,
    ip_ident: u16,
) -> [u8; PROBE_LEN] {
    let ip = Ipv4Header {
        src,
        dst,
        ttl,
        protocol: 1,
        ident: ip_ident,
    };
    let echo = IcmpEcho::with_checksum(ident, seq, flow_label);
    let mut buf = [0u8; PROBE_LEN];
    buf[..IPV4_HEADER_LEN].copy_from_slice(&ip.to_wire());
    buf[IPV4_HEADER_LEN..].copy_from_slice(&echo.to_wire(ICMP_ECHO_REQUEST));
    buf
}

/// [`probe_packet`] copied into `Bytes`, for [`Network::send`].
pub fn encode_probe(
    src: Addr,
    dst: Addr,
    ttl: u8,
    ident: u16,
    seq: u16,
    flow_label: u16,
    ip_ident: u16,
) -> Bytes {
    Bytes::from(probe_packet(src, dst, ttl, ident, seq, flow_label, ip_ident).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::host::HostProfile;
    use crate::route::{LbPolicy, NextHop, NextHopGroup};
    use crate::wire::ICMP_ECHO_REPLY;

    /// vantage -> r0 -> r1 -> r2(deliver 10.0.0.0/24)
    fn chain() -> Network {
        let mut net = Network::new(99, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let r2 = net.add_router(Addr::new(10, 255, 0, 3));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(r0, p, NextHopGroup::single(NextHop::Router(r1)));
        net.install_route(r1, p, NextHopGroup::single(NextHop::Router(r2)));
        net.install_route(r2, p, NextHopGroup::single(NextHop::Deliver));
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        net
    }

    fn probe(net: &Network, dst: Addr, ttl: u8) -> Bytes {
        encode_probe(net.vantage_addr(), dst, ttl, 7, 1, 0xAAAA, 0)
    }

    fn parse_response(d: &Delivery) -> (Ipv4Header, u8) {
        let mut b = d.response.clone().expect("expected a response");
        let ip = Ipv4Header::decode(&mut b).unwrap();
        let t = b[0];
        (ip, t)
    }

    #[test]
    fn echo_reaches_host_with_enough_ttl() {
        let net = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY);
        assert_eq!(ip.src, dst);
        // Host default TTL minus ~3-5 reverse hops.
        assert!(ip.ttl >= 50, "reply ttl {}", ip.ttl);
    }

    #[test]
    fn ttl_expiry_walks_the_chain() {
        let net = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let mut hops = Vec::new();
        for ttl in 1..=3u8 {
            let d = net.send(probe(&net, dst, ttl)).unwrap();
            let (ip, t) = parse_response(&d);
            assert_eq!(t, ICMP_TIME_EXCEEDED, "ttl {ttl}");
            hops.push(ip.src);
        }
        assert_eq!(
            hops,
            vec![
                Addr::new(10, 255, 0, 1),
                Addr::new(10, 255, 0, 2),
                Addr::new(10, 255, 0, 3),
            ]
        );
        // TTL 4 delivers.
        let d = net.send(probe(&net, dst, 4)).unwrap();
        let (_, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY);
    }

    #[test]
    fn anonymous_router_times_out() {
        let mut net = chain();
        net.router_mut(RouterId(1)).responsive = false;
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 2)).unwrap();
        assert!(d.response.is_none());
        assert_eq!(d.rtt_us, TIMEOUT_US);
    }

    #[test]
    fn rate_limited_router_drops_some() {
        let mut net = chain();
        net.router_mut(RouterId(1)).icmp_loss = 0.5;
        let dst = Addr::new(10, 0, 0, 5);
        let mut answered = 0;
        for seq in 0..100u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            if net.send(p).unwrap().response.is_some() {
                answered += 1;
            }
        }
        assert!((25..75).contains(&answered), "answered {answered}/100");
    }

    #[test]
    fn unrouted_destination_gets_unreachable() {
        let net = chain();
        let d = net.send(probe(&net, Addr::new(11, 0, 0, 1), 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_DEST_UNREACH);
        assert_eq!(ip.src, Addr::new(10, 255, 0, 1));
    }

    #[test]
    fn unresponsive_host_times_out() {
        let mut net = chain();
        // Density 0 block: routed but nobody home.
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 0.0,
                ..HostProfile::default()
            },
        );
        let d = net.send(probe(&net, Addr::new(10, 0, 0, 5), 64)).unwrap();
        assert!(d.response.is_none());
    }

    #[test]
    fn concurrent_first_probes_wake_a_cellular_radio_once() {
        let mut net = chain();
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                kind: HostKind::Cellular,
                ..HostProfile::default()
            },
        );
        const THREADS: u16 = 8;
        let wake_min = net.rtt.cell_wake_min_us as u64;
        let dests: Vec<Addr> = (1..=254u8).map(|h| Addr::new(10, 0, 0, h)).collect();
        let probe = |t: u16, dst: Addr| encode_probe(net.vantage_addr(), dst, 64, 7, t, 0xAAAA, t);
        // Every thread sweeps the same cold addresses in the same order, so
        // first probes to one address keep colliding across threads. Each
        // round cools every radio first.
        for _round in 0..16 {
            net.warmed().clear();
            let barrier = std::sync::Barrier::new(THREADS as usize);
            let first: Vec<Vec<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (net, barrier, dests, probe) = (&net, &barrier, &dests, &probe);
                        s.spawn(move || {
                            barrier.wait();
                            dests
                                .iter()
                                .map(|&dst| net.exchange(&probe(t, dst)).unwrap().rtt_us)
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, &dst) in dests.iter().enumerate() {
                // The same bytes again, now that the radio is awake.
                let woken = (0..THREADS)
                    .filter(|&t| {
                        let warm = net.exchange(&probe(t, dst)).unwrap().rtt_us;
                        first[t as usize][i] >= warm + wake_min
                    })
                    .count();
                assert_eq!(woken, 1, "{dst}: exactly one first probe pays the wake-up");
            }
        }
    }

    #[test]
    fn rejects_probe_not_from_vantage() {
        let net = chain();
        let p = encode_probe(
            Addr::new(9, 9, 9, 9),
            Addr::new(10, 0, 0, 5),
            64,
            1,
            1,
            0,
            0,
        );
        assert!(matches!(net.send(p), Err(SendError::NotFromVantage(_))));
    }

    #[test]
    fn rejects_garbage_bytes() {
        let net = chain();
        assert!(matches!(
            net.send(Bytes::from_static(&[1, 2, 3])),
            Err(SendError::Wire(_))
        ));
    }

    #[test]
    fn forwarding_loop_is_dropped() {
        let mut net = Network::new(1, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(r0, p, NextHopGroup::single(NextHop::Router(r1)));
        net.install_route(r1, p, NextHopGroup::single(NextHop::Router(r0)));
        let probe = encode_probe(net.vantage_addr(), Addr::new(10, 0, 0, 1), 255, 1, 1, 0, 0);
        let d = net.send(probe).unwrap();
        assert!(d.response.is_none());
    }

    #[test]
    fn probe_count_is_tracked() {
        let net = chain();
        assert_eq!(net.probes_carried(), 0);
        let _ = net.send(probe(&net, Addr::new(10, 0, 0, 5), 64));
        let _ = net.send(probe(&net, Addr::new(10, 0, 0, 6), 64));
        assert_eq!(net.probes_carried(), 2);
    }

    #[test]
    fn link_loss_drops_some_probes_deterministically() {
        use crate::fault::FaultConfig;
        let mut net = chain();
        net.set_faults(FaultConfig {
            link_loss: 0.2,
            ..FaultConfig::none()
        });
        let dst = Addr::new(10, 0, 0, 5);
        let outcomes: Vec<bool> = (0..100u16)
            .map(|seq| {
                let p = encode_probe(net.vantage_addr(), dst, 64, 7, seq, 0xAAAA, seq);
                net.send(p).unwrap().response.is_some()
            })
            .collect();
        let answered = outcomes.iter().filter(|&&a| a).count();
        // 4 hops at 20% per-link loss ≈ 41% end-to-end survival per probe.
        assert!((20..75).contains(&answered), "answered {answered}/100");
        assert!(net.net_stats().link_drops > 0);
        // Byte-identical probes meet byte-identical fates on a fresh clone.
        let replayed = chain();
        let mut net2 = replayed;
        net2.set_faults(FaultConfig {
            link_loss: 0.2,
            ..FaultConfig::none()
        });
        let again: Vec<bool> = (0..100u16)
            .map(|seq| {
                let p = encode_probe(net2.vantage_addr(), dst, 64, 7, seq, 0xAAAA, seq);
                net2.send(p).unwrap().response.is_some()
            })
            .collect();
        assert_eq!(outcomes, again);
    }

    #[test]
    fn token_bucket_rate_limits_icmp_errors() {
        let mut net = chain();
        net.set_faults(crate::fault::FaultConfig::lossy(0.0, 0.25));
        let dst = Addr::new(10, 0, 0, 5);
        let mut answered = 0;
        let mut worst_run = 0;
        let mut run = 0;
        for seq in 0..100u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            if net.send(p).unwrap().response.is_some() {
                answered += 1;
                run = 0;
            } else {
                run += 1;
                worst_run = worst_run.max(run);
            }
        }
        // Burst of 4 passes, then throttled to ~1 in 4.
        assert!((20..50).contains(&answered), "answered {answered}/100");
        // Refill 0.25 bounds consecutive denials at 3 — the guarantee the
        // prober's retry budget leans on.
        assert!(worst_run <= 3, "saw {worst_run} consecutive denials");
        assert!(net.net_stats().rate_limited_drops > 0);
        // A different prober ident is a separate stream with a fresh burst.
        let p = encode_probe(net.vantage_addr(), dst, 2, 8, 0, 0xAAAA, 0);
        assert!(net.send(p).unwrap().response.is_some());
    }

    #[test]
    fn legacy_bernoulli_drops_are_counted() {
        let mut net = chain();
        net.router_mut(RouterId(1)).icmp_loss = 0.5;
        let dst = Addr::new(10, 0, 0, 5);
        for seq in 0..50u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            let _ = net.send(p);
        }
        let stats = net.net_stats();
        assert!(stats.icmp_loss_drops > 0);
        assert_eq!(stats.rate_limited_drops, 0);
        assert_eq!(stats.link_drops, 0);
        assert_eq!(stats.probes_carried, 50);
    }

    #[test]
    fn per_destination_ecmp_changes_lasthop_between_addresses() {
        // vantage -> r0 -(per-dest ecmp)-> {r1, r2} -> deliver
        let mut net = Network::new(5, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let r2 = net.add_router(Addr::new(10, 255, 0, 3));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(
            r0,
            p,
            NextHopGroup::ecmp(
                vec![NextHop::Router(r1), NextHop::Router(r2)],
                LbPolicy::PerDestination,
            ),
        );
        net.install_route(r1, p, NextHopGroup::single(NextHop::Deliver));
        net.install_route(r2, p, NextHopGroup::single(NextHop::Deliver));
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        // The last-hop router (ttl=2 expiry) should differ across addresses
        // but be stable for one address across flow labels.
        let mut lasthops = std::collections::HashSet::new();
        for host in 1..32u8 {
            let dst = Addr::new(10, 0, 0, host);
            let mut per_dst = std::collections::HashSet::new();
            for flow in [0x1111u16, 0x2222, 0x3333] {
                let pr = encode_probe(net.vantage_addr(), dst, 2, 1, 1, flow, 0);
                let d = net.send(pr).unwrap();
                let (ip, t) = parse_response(&d);
                assert_eq!(t, ICMP_TIME_EXCEEDED);
                per_dst.insert(ip.src);
            }
            assert_eq!(per_dst.len(), 1, "per-destination must be flow-stable");
            lasthops.extend(per_dst);
        }
        assert_eq!(lasthops.len(), 2, "both parallel last-hops should appear");
    }

    use crate::dynamics::{DynamicsConfig, DynamicsEvent};

    #[test]
    fn transient_loop_bounces_then_heals() {
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 8,
            events: vec![DynamicsEvent::TransientLoop {
                router: RouterId(1),
                at_epoch: 0,
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        // Epoch 0 (ticks 0..8): r1 bounces probes back to r0, so a ttl-3
        // probe expires at r0 (static world: at r2), and even a ttl-64
        // probe never reaches the host.
        let d = net.send(probe(&net, dst, 3)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        assert_eq!(ip.src, Addr::new(10, 255, 0, 1), "expiry inside the loop");
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (_, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED, "loop blocks delivery");
        assert!(net.net_stats().dyn_loops > 0);
        // Burn the rest of epoch 0 on this stream; at epoch 1 the loop has
        // healed and the same probe bytes deliver again.
        for _ in 0..6 {
            let _ = net.send(probe(&net, dst, 64));
        }
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY, "loop heals after its epoch");
        assert_eq!(ip.src, dst);
    }

    /// vantage -> r0 -(per-dest ecmp)-> {r1, r2} -> deliver, as a fixture.
    fn fan2() -> Network {
        let mut net = Network::new(5, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let r2 = net.add_router(Addr::new(10, 255, 0, 3));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(
            r0,
            p,
            NextHopGroup::ecmp(
                vec![NextHop::Router(r1), NextHop::Router(r2)],
                LbPolicy::PerDestination,
            ),
        );
        net.install_route(r1, p, NextHopGroup::single(NextHop::Deliver));
        net.install_route(r2, p, NextHopGroup::single(NextHop::Deliver));
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        net
    }

    fn lasthop_of(net: &Network, dst: Addr) -> Addr {
        let d = net.send(probe(net, dst, 2)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        ip.src
    }

    #[test]
    fn lb_resize_collapses_the_fan() {
        let mut net = fan2();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::LbResize {
                router: RouterId(0),
                at_epoch: 0,
                width: 1,
            }],
            netem: None,
        });
        for host in 1..32u8 {
            assert_eq!(
                lasthop_of(&net, Addr::new(10, 0, 0, host)),
                Addr::new(10, 255, 0, 2),
                "width-1 clamp pins every destination to the first hop"
            );
        }
        assert!(net.net_stats().dyn_resizes > 0);
    }

    #[test]
    fn next_hop_rewrite_remaps_some_flows() {
        let base = fan2();
        let before: Vec<Addr> = (1..32u8)
            .map(|h| lasthop_of(&base, Addr::new(10, 0, 0, h)))
            .collect();
        let mut net = fan2();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::NextHopRewrite {
                router: RouterId(0),
                at_epoch: 0,
            }],
            netem: None,
        });
        let after: Vec<Addr> = (1..32u8)
            .map(|h| lasthop_of(&net, Addr::new(10, 0, 0, h)))
            .collect();
        assert_ne!(before, after, "churn must remap at least one flow");
        assert!(net.net_stats().dyn_rewrites > 0);
    }

    #[test]
    fn address_reuse_sources_errors_upstream() {
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::AddressReuse {
                router: RouterId(2),
                at_epoch: 0,
                alias: Addr::new(10, 255, 0, 1),
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 3)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        assert_eq!(
            ip.src,
            Addr::new(10, 255, 0, 1),
            "error reuses the upstream address: an apparent cycle"
        );
        assert!(net.net_stats().dyn_addr_reuses > 0);
    }

    #[test]
    fn false_diamond_alternates_reply_sources() {
        let mut net = chain();
        let alias = Addr::new(10, 255, 0, 9);
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::FalseDiamond {
                router: RouterId(2),
                at_epoch: 0,
                alias,
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        let mut seen = std::collections::HashSet::new();
        for seq in 0..32u16 {
            let p = encode_probe(net.vantage_addr(), dst, 3, 7, seq, 0xAAAA, seq);
            let d = net.send(p).unwrap();
            let (ip, t) = parse_response(&d);
            assert_eq!(t, ICMP_TIME_EXCEEDED);
            seen.insert(ip.src);
        }
        assert!(seen.contains(&alias), "phantom interface appears");
        assert!(seen.contains(&Addr::new(10, 255, 0, 3)), "real one too");
        assert!(net.net_stats().dyn_false_diamonds > 0);
    }

    #[test]
    fn netem_delays_are_deterministic_and_additive() {
        let base = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let undisturbed = base.send(probe(&base, dst, 64)).unwrap().rtt_us;
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 0,
            events: Vec::new(),
            netem: Some(crate::dynamics::NetemSpec {
                delay_us: 500,
                jitter_us: 100,
                reorder_prob: 0.0,
                duplicate_prob: 0.0,
            }),
        });
        let a = net.send(probe(&net, dst, 64)).unwrap().rtt_us;
        let b = net.send(probe(&net, dst, 64)).unwrap().rtt_us;
        assert_eq!(a, b, "same probe bytes, same perturbed rtt");
        assert!(a >= undisturbed + 500, "rtt {a} vs base {undisturbed}");
        assert!(a <= undisturbed + 600, "jitter bounded by the knob");
        assert!(net.net_stats().netem_delays > 0);
    }

    #[test]
    fn empty_schedule_is_byte_identical_to_static_world() {
        let baseline = chain();
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 8,
            events: Vec::new(),
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        for seq in 0..64u16 {
            for ttl in [2u8, 3, 64] {
                let p = encode_probe(baseline.vantage_addr(), dst, ttl, 7, seq, 0xAAAA, seq);
                let want = baseline.send(p.clone()).unwrap();
                let got = net.send(p).unwrap();
                assert_eq!(want.response, got.response);
                assert_eq!(want.rtt_us, got.rtt_us);
            }
        }
        assert_eq!(net.net_stats().total_dynamics(), 0);
    }
}
