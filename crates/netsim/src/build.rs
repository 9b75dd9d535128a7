//! Scenario construction: a synthetic internet with known ground truth.
//!
//! The builder lays out a vantage point, a small transit core with per-flow
//! *and* per-destination ECMP stages, and one subtree per AS from the
//! roster. Address allocations, load-balancer fan-outs, host densities and
//! churn are tuned so the *observable* phenomena match what the paper
//! measured from UMD: ~77% of /31 sibling pairs taking distinct routes,
//! ~30% with distinct last-hop routers, a quarter of blocks too sparse to
//! analyze, and one /24 in six served by anonymous last-hop routers.
//!
//! Unlike the real internet, the builder also returns [`GroundTruth`]:
//! which blocks are genuinely homogeneous, which PoP (colocation site)
//! serves them, and how heterogeneous blocks are split. Tests use it to
//! score Hobbit's inferences — something the paper itself could not do.

use crate::addr::{Addr, Block24, Prefix};
use crate::dynamics::{DynamicsConfig, DynamicsEvent};
use crate::hash::{mix2, mix3, pick, unit_f64};
use crate::host::{HostKind, HostProfile, TtlMix};
use crate::roster::{paper_roster, AsSpec, OrgType};
use crate::route::{LbPolicy, NextHop, NextHopGroup, RouterId};
use crate::topology::Network;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// The world's shape, calibrated once against the paper's Table 1 and
// Figure 3 (DESIGN §6b).

/// Fraction of blocks in hetero-capable ASes that get split into sub-/24
/// customer allocations.
pub const HETERO_FRAC: f64 = 0.17;
/// Fraction of ordinary PoPs whose last-hop routers never answer (drives
/// Table 1's "Unresponsive last-hop" row, paper: 16.8%).
pub const UNRESPONSIVE_POP_FRAC: f64 = 0.34;
/// Fraction of core/border routers with ICMP rate limiting.
pub const RATE_LIMIT_FRAC: f64 = 0.15;
/// Fraction of transit/intra routers answering from two alternating
/// interface addresses (inflates traceroute cardinality).
pub const ALT_INTERFACE_FRAC: f64 = 0.9;
/// Fraction of ASes whose border balances per *packet* (rare in the wild —
/// Augustin et al. saw ~2% of pairs — but it breaks even the Paris
/// invariant, so the tools must tolerate it).
pub const PER_PACKET_FRAC: f64 = 0.03;
/// Number of parallel transit routers (per-flow ECMP width).
pub const TRANSIT_FAN: usize = 3;
/// Number of parallel backbone routers (per-destination ECMP width).
pub const BACKBONE_FAN: usize = 2;
/// Per-AS parallel intra routers (per-flow ECMP width).
pub const INTRA_FAN: usize = 2;
/// Weights for PoPs having 1, 2, 3 or 4 last-hop routers.
pub const LH_FAN_WEIGHTS: [f64; 4] = [0.20, 0.07, 0.38, 0.35];

/// What varies between the scenarios of a run: the seed, the size, extra
/// vantages and host churn. The world's shape is fixed by the constants
/// above and the AS roster is [`paper_roster`]; every scenario starts
/// unfaulted ([`Network::set_faults`] arms faults).
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed; every random draw derives from it.
    pub seed: u64,
    /// Approximate number of ordinary (non-big-site) /24 blocks.
    pub target_blocks: usize,
    /// Scale factor applied to the Table-5 big-site sizes (1.0 = literal
    /// 1251-/24 sites).
    pub big_block_scale: f64,
    /// Host availability churn between the ZMap snapshot and probing.
    pub churn: f32,
    /// Probability of a correlated whole-block quiet period at probe time.
    pub quiet_prob: f32,
    /// Extra vantage points besides the primary (paper §6.1: probing from
    /// several sources reveals paths chosen by source-hashing balancers).
    pub extra_vantages: usize,
}

impl ScenarioConfig {
    /// Paper-scale scenario (tens of thousands of /24s). Big sites are kept
    /// at their literal Table-5 sizes so the aggregation tables reproduce.
    pub fn paper(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            target_blocks: 32_768,
            big_block_scale: 1.0,
            churn: 0.07,
            quiet_prob: 0.30,
            extra_vantages: 0,
        }
    }

    /// A mid-size scenario for integration tests and quick experiments.
    pub fn small(seed: u64) -> Self {
        ScenarioConfig {
            target_blocks: 2_048,
            big_block_scale: 0.05,
            ..Self::paper(seed)
        }
    }

    /// A tiny scenario for unit tests.
    pub fn tiny(seed: u64) -> Self {
        ScenarioConfig {
            target_blocks: 192,
            big_block_scale: 0.004,
            ..Self::paper(seed)
        }
    }
}

/// Ground truth about one /24 block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockTruth {
    /// Index into the roster of the owning AS.
    pub as_idx: u16,
    /// Whether all addresses are served by one colocation site.
    pub homogeneous: bool,
    /// The serving PoP for homogeneous blocks (first sub-PoP otherwise).
    pub pop: u32,
    /// For heterogeneous blocks: the customer sub-allocations
    /// (prefix, serving PoP id); empty for homogeneous blocks.
    pub sub_blocks: Vec<(Prefix, u32)>,
}

/// Ground truth about one colocation site (PoP).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopTruth {
    /// Dense PoP identifier.
    pub id: u32,
    /// Index into the roster of the owning AS.
    pub as_idx: u16,
    /// Region / city tag (drives geolocation and rDNS).
    pub region: String,
    /// Interface addresses of the PoP's last-hop routers — the colocation
    /// signature Hobbit tries to recover.
    pub lasthop_addrs: Vec<Addr>,
    /// Whether the PoP's last-hop routers answer TTL-exceeded.
    pub responsive: bool,
    /// Whether hosts behind this PoP are cellular devices.
    pub cellular: bool,
    /// Whether this is one of the named Table-5 big sites.
    pub big_site: bool,
    /// Whether this PoP is a per-customer sub-/24 allocation.
    pub sub_allocation: bool,
    /// How the aggregation router balances across the last-hop routers.
    /// Single-last-hop PoPs pin trivially and report `PerDestination`.
    /// Under `PerFlow`, one address legitimately sees *all* last-hops.
    pub lasthop_policy: LbPolicy,
}

/// Everything the builder knows that a measurer would not.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// The roster, in `as_idx` order.
    pub as_list: Vec<AsSpec>,
    /// All PoPs, indexed by id.
    pub pops: Vec<PopTruth>,
    /// Per-block truth, in numeric block order.
    pub blocks: BTreeMap<Block24, BlockTruth>,
}

impl GroundTruth {
    /// Whether a block is genuinely homogeneous.
    pub fn is_homogeneous(&self, b: Block24) -> bool {
        self.blocks.get(&b).map(|t| t.homogeneous).unwrap_or(false)
    }

    /// Blocks served by the same PoP as `b` (the true aggregate).
    pub fn colocated_with(&self, b: Block24) -> Vec<Block24> {
        let Some(t) = self.blocks.get(&b) else {
            return Vec::new();
        };
        if !t.homogeneous {
            return vec![b];
        }
        self.blocks
            .iter()
            .filter(|(_, bt)| bt.homogeneous && bt.pop == t.pop)
            .map(|(&blk, _)| blk)
            .collect()
    }

    /// The heterogeneous sub-block composition as sorted prefix lengths
    /// (e.g. `[25, 26, 26]`), or `None` for homogeneous blocks.
    pub fn composition(&self, b: Block24) -> Option<Vec<u8>> {
        let t = self.blocks.get(&b)?;
        if t.homogeneous {
            return None;
        }
        let mut lens: Vec<u8> = t.sub_blocks.iter().map(|(p, _)| p.len()).collect();
        lens.sort_unstable();
        Some(lens)
    }
}

/// A built scenario: the network plus its ground truth.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The simulated internet.
    pub network: Network,
    /// What the builder knows.
    pub truth: GroundTruth,
    /// The configuration used.
    pub config: ScenarioConfig,
    /// PoP id → (aggregation router, last-hop routers). Sorted so that
    /// schedule derivation ([`derive_dynamics`]) iterates deterministically.
    pub pop_routers: BTreeMap<u32, (RouterId, Vec<RouterId>)>,
}

/// Table 2 sub-block compositions and their observed shares.
/// Each composition tiles a /24 exactly.
pub const HETERO_COMPOSITIONS: &[(&[u8], f64)] = &[
    (&[25, 25], 0.5048),
    (&[25, 26, 26], 0.2065),
    (&[26, 26, 26, 26], 0.1579),
    (&[25, 26, 27, 27], 0.0592),
    (&[26, 26, 26, 27, 27], 0.0463),
    (&[26, 26, 27, 27, 27, 27], 0.0113),
    (&[25, 26, 27, 28, 28], 0.0081),
    (&[25, 27, 27, 27, 27], 0.0058),
];

/// Tile a /24 with sub-prefixes of the given lengths (longest blocks first,
/// first-fit at aligned offsets). The composition must sum to a full /24.
pub fn tile_composition(block: Block24, lens: &[u8]) -> Vec<Prefix> {
    let mut lens: Vec<u8> = lens.to_vec();
    lens.sort_unstable(); // shortest prefix = largest block first
    let mut used = [false; 256];
    let mut out = Vec::with_capacity(lens.len());
    for len in lens {
        let size = (1usize << (32 - len as u32)).min(256);
        // Find the first aligned free offset.
        let mut placed = false;
        let mut off = 0usize;
        while off < 256 {
            if used[off..off + size].iter().all(|&u| !u) {
                used[off..off + size].iter_mut().for_each(|u| *u = true);
                out.push(Prefix::new(block.addr(off as u8), len));
                placed = true;
                break;
            }
            off += size;
        }
        assert!(placed, "composition does not tile a /24");
    }
    out
}

/// Decompose a run of consecutive /24 blocks `[start, start+len)` into the
/// minimal set of aligned CIDR prefixes covering exactly that range.
pub fn run_to_prefixes(start: Block24, len: u32) -> Vec<Prefix> {
    let mut out = Vec::new();
    let mut cur = start.0;
    let mut remaining = len;
    while remaining > 0 {
        let align = if cur == 0 {
            24
        } else {
            cur.trailing_zeros().min(24)
        };
        let mut size = 1u32 << align;
        while size > remaining {
            size >>= 1;
        }
        let plen = 24 - size.trailing_zeros() as u8;
        out.push(Prefix::new(Addr(cur << 8), plen));
        cur += size;
        remaining -= size;
    }
    out
}

/// Base access latency by country, microseconds (from a US-east vantage).
fn country_base_rtt_us(country: &str) -> u32 {
    match country {
        "US" => 35_000,
        "Canada" => 40_000,
        "UK" => 80_000,
        "France" => 90_000,
        "Germany" => 95_000,
        "Spain" => 100_000,
        "Denmark" => 100_000,
        "Switzerland" => 95_000,
        "Estonia" => 110_000,
        "Sweden" => 105_000,
        "Georgia" => 140_000,
        "Egypt" => 130_000,
        "Brazil" => 120_000,
        "Chile" => 130_000,
        "India" => 200_000,
        "Malaysia" => 230_000,
        "Singapore" => 220_000,
        "Japan" => 160_000,
        "Korea" => 180_000,
        "Australia" => 210_000,
        _ => 100_000,
    }
}

/// /14 slab allocator over the usable unicast space.
struct SlabAllocator {
    slabs: Vec<u32>, // block24 index of each /14 base
    next: usize,
}

impl SlabAllocator {
    fn new(rng: &mut ChaCha8Rng) -> Self {
        let mut slabs = Vec::new();
        let mut base = 0x04_0000u32; // 4.0.0.0
        while base < 0xDF_0000 {
            let first_octet = base >> 16;
            // Skip loopback-ish, RFC1918 10/8 (router infrastructure), and
            // the vantage's own 128.8/16 region.
            let vantage_slab = (0x80_0000..0x80_0400).contains(&base); // 128.0-128.15
            if first_octet != 10 && first_octet != 127 && !vantage_slab {
                slabs.push(base);
            }
            base += 0x400; // /14 = 1024 /24s
        }
        slabs.shuffle(rng);
        SlabAllocator { slabs, next: 0 }
    }

    /// The next free slab, or `None` once every slab is taken.
    fn take(&mut self) -> Option<u32> {
        let s = self.slabs.get(self.next).copied()?;
        self.next += 1;
        Some(s)
    }
}

/// Why a world could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// Every /14 slab of the usable address space is taken, and the AS
    /// that needs room for another run of /24s holds no slab with room.
    AddressSpaceExhausted {
        /// /14 slabs in the usable unicast space.
        slabs: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::AddressSpaceExhausted { slabs } => write!(
                f,
                "all {slabs} /14 slabs of the IPv4 unicast space are taken and an AS \
                 has none with room for its next run of /24s"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Per-AS allocation cursor over its slabs.
struct AsAlloc {
    /// (slab base block24, cursor offset within slab).
    slabs: Vec<(u32, u32)>,
    /// Prefixes announced to the backbone (one per slab).
    announced: Vec<Prefix>,
}

impl AsAlloc {
    fn new() -> Self {
        AsAlloc {
            slabs: Vec::new(),
            announced: Vec::new(),
        }
    }

    /// Allocate `len` consecutive /24s, optionally in a fresh slab, skipping
    /// `gap` blocks first (creates the discontiguity of Figure 7/8). Once
    /// every slab is taken, a run that wanted a fresh one goes to the first
    /// slab this AS holds with room; with none, the world cannot be built.
    fn alloc_run(
        &mut self,
        len: u32,
        gap: u32,
        force_new_slab: bool,
        slabs: &mut SlabAllocator,
    ) -> Result<(Block24, Vec<Prefix>), BuildError> {
        const SLAB_BLOCKS: u32 = 1024;
        let need = len + gap;
        let with_room = |held: &[(u32, u32)]| {
            held.iter()
                .position(|&(_, cursor)| cursor + need <= SLAB_BLOCKS)
        };
        let idx = if !force_new_slab {
            with_room(&self.slabs)
        } else {
            None
        };
        let idx = match idx {
            Some(i) => i,
            None => match slabs.take() {
                Some(base) => {
                    self.slabs.push((base, 0));
                    self.announced.push(Prefix::new(Addr(base << 8), 14));
                    self.slabs.len() - 1
                }
                None => with_room(&self.slabs).ok_or(BuildError::AddressSpaceExhausted {
                    slabs: slabs.slabs.len(),
                })?,
            },
        };
        let (base, cursor) = self.slabs[idx];
        // If even a fresh slab cannot hold the run (len > 1024), chain slabs:
        // the caller splits runs at 512 blocks, so this cannot happen.
        assert!(cursor + need <= SLAB_BLOCKS, "run too large for a slab");
        let start = Block24(base + cursor + gap);
        self.slabs[idx].1 = cursor + need;
        let prefixes = run_to_prefixes(start, len);
        Ok((start, prefixes))
    }
}

/// Builder state.
struct Builder {
    net: Network,
    truth: GroundTruth,
    cfg: ScenarioConfig,
    rng: ChaCha8Rng,
    slabs: SlabAllocator,
    infra_counter: u32,
    backbones: Vec<RouterId>,
    /// PoP id → (agg router, last-hop routers).
    pop_lhs: HashMap<u32, (RouterId, Vec<RouterId>)>,
    /// Allocation cursor per AS.
    as_allocs: HashMap<u16, AsAlloc>,
}

impl Builder {
    fn infra_addr(&mut self) -> Addr {
        self.infra_counter += 1;
        assert!(
            self.infra_counter < 0x00FF_FFFF,
            "infrastructure space full"
        );
        Addr(0x0A00_0000 + self.infra_counter) // 10.x.y.z
    }

    fn add_infra_router(&mut self) -> RouterId {
        let a = self.infra_addr();
        self.net.add_router(a)
    }

    /// Build the vantage-side core:
    /// campus → gw → (per-dest × plane) → (per-flow × transit).
    ///
    /// The per-destination choice sits at the *plane* level so it covers
    /// every path to a destination: two addresses hashed to different
    /// planes share no route at all — which is why the paper finds 77% of
    /// /31 sibling pairs with entirely distinct route sets.
    fn build_core(&mut self) {
        let campus = self.add_infra_router(); // RouterId(0) = vantage router
        let gw = self.add_infra_router();
        debug_assert_eq!(campus, RouterId(0));

        let mut planes = Vec::with_capacity(BACKBONE_FAN);
        let mut transits = Vec::new();
        for p in 0..BACKBONE_FAN {
            let plane_gw = self.add_infra_router();
            if unit_f64(mix2(self.cfg.seed ^ 0xB1A, p as u64)) < ALT_INTERFACE_FRAC {
                let alt = self.infra_addr();
                self.net.router_mut(plane_gw).alt_addr = Some(alt);
            }
            planes.push(plane_gw);
            let plane_transits: Vec<RouterId> =
                (0..TRANSIT_FAN).map(|_| self.add_infra_router()).collect();
            self.net.install_route(
                plane_gw,
                Prefix::ALL,
                NextHopGroup::ecmp(
                    plane_transits.iter().map(|&t| NextHop::Router(t)).collect(),
                    LbPolicy::PerFlow,
                ),
            );
            for (i, &t) in plane_transits.iter().enumerate() {
                let h = mix2(self.cfg.seed ^ 0x77, (p * 16 + i) as u64);
                let loss = if unit_f64(h) < RATE_LIMIT_FRAC {
                    0.2
                } else {
                    0.0
                };
                self.net.router_mut(t).icmp_loss = loss;
                if unit_f64(mix2(h, 3)) < ALT_INTERFACE_FRAC {
                    let alt = self.infra_addr();
                    self.net.router_mut(t).alt_addr = Some(alt);
                }
            }
            transits.extend(plane_transits);
        }
        self.backbones = transits;

        self.net.install_route(
            campus,
            Prefix::ALL,
            NextHopGroup::single(NextHop::Router(gw)),
        );
        self.net.install_route(
            gw,
            Prefix::ALL,
            NextHopGroup::ecmp(
                planes.iter().map(|&t| NextHop::Router(t)).collect(),
                LbPolicy::PerDestination,
            ),
        );
        // Extra vantage points: each gets its own campus router feeding the
        // shared gateway, with a distinct source address so source-hashing
        // balancers (PerSrcDest) resolve differently per vantage.
        for v in 0..self.cfg.extra_vantages {
            let campus_v = self.add_infra_router();
            self.net.install_route(
                campus_v,
                Prefix::ALL,
                NextHopGroup::single(NextHop::Router(gw)),
            );
            let src = Addr::new(198, 18, v as u8, 10);
            self.net.add_vantage(src, campus_v);
        }
    }

    /// Announce a slab prefix: install routes at every transit router.
    fn announce(&mut self, prefix: Prefix, border: RouterId) {
        for &b in &self.backbones.clone() {
            self.net
                .install_route(b, prefix, NextHopGroup::single(NextHop::Router(border)));
        }
    }

    /// Draw the number of last-hop routers for an ordinary PoP.
    fn draw_lh_fan(&mut self) -> usize {
        let w = &LH_FAN_WEIGHTS;
        let total: f64 = w.iter().sum();
        let mut u = self.rng.gen::<f64>() * total;
        for (i, &wi) in w.iter().enumerate() {
            if u < wi {
                return i + 1;
            }
            u -= wi;
        }
        w.len()
    }

    /// Create a PoP: an aggregation router plus `fan` last-hop routers, and
    /// record the truth entry. Returns (pop id, agg router).
    #[allow(clippy::too_many_arguments)]
    fn create_pop(
        &mut self,
        as_idx: u16,
        region: String,
        fan: usize,
        cellular: bool,
        big_site: bool,
        sub_allocation: bool,
        responsive: bool,
    ) -> (u32, RouterId) {
        let agg = self.add_infra_router();
        let mut lhs = Vec::with_capacity(fan);
        let mut lh_addrs = Vec::with_capacity(fan);
        for _ in 0..fan {
            let lh = self.add_infra_router();
            self.net.router_mut(lh).responsive = responsive;
            lh_addrs.push(self.net.router(lh).addr);
            lhs.push(lh);
        }
        let id = self.truth.pops.len() as u32;
        self.truth.pops.push(PopTruth {
            id,
            as_idx,
            region,
            lasthop_addrs: lh_addrs,
            responsive,
            cellular,
            big_site,
            sub_allocation,
            lasthop_policy: self.lasthop_policy(id, fan),
        });
        // Stash the LH ids in the agg router's table when prefixes arrive;
        // the caller wires prefixes via `serve_prefix`.
        self.pop_lhs.insert(id, (agg, lhs));
        (id, agg)
    }

    /// Route `prefix` into a PoP: at the agg router, ECMP over the PoP's
    /// last-hop routers; each last-hop delivers.
    ///
    /// Multi-router PoPs come in two real-world styles, chosen per PoP:
    /// *per-destination* balancing (each address pinned to one last-hop —
    /// the confounder Hobbit exists to handle) and *per-flow* balancing
    /// (every address sees all last-hops; groups overlap trivially).
    fn serve_prefix(&mut self, pop: u32, prefix: Prefix) {
        let (agg, lhs) = self.pop_lhs.get(&pop).cloned().expect("pop exists");
        if lhs.len() == 1 {
            self.net
                .install_route(agg, prefix, NextHopGroup::single(NextHop::Router(lhs[0])));
        } else {
            let policy = self.lasthop_policy(pop, lhs.len());
            self.net.install_route(
                agg,
                prefix,
                NextHopGroup::ecmp(lhs.iter().map(|&l| NextHop::Router(l)).collect(), policy),
            );
        }
        for &lh in &lhs {
            self.net
                .install_route(lh, prefix, NextHopGroup::single(NextHop::Deliver));
        }
    }

    /// The agg→last-hop balancing style of a PoP (deterministic in the
    /// scenario seed and PoP id; recorded in [`PopTruth::lasthop_policy`]).
    fn lasthop_policy(&self, pop: u32, fan: usize) -> LbPolicy {
        if fan <= 1 {
            return LbPolicy::PerDestination;
        }
        let style = unit_f64(mix2(self.cfg.seed ^ 0x90F, pop as u64));
        if style < 0.19 {
            LbPolicy::PerFlow
        } else if style < 0.60 {
            LbPolicy::PerSrcDest
        } else {
            LbPolicy::PerDestination
        }
    }
}

use std::collections::HashMap;

impl Builder {
    fn new(cfg: ScenarioConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let slabs = SlabAllocator::new(&mut rng);
        let vantage = Addr::new(128, 8, 128, 10);
        Builder {
            net: Network::new(cfg.seed, vantage),
            truth: GroundTruth {
                as_list: paper_roster(),
                ..Default::default()
            },
            cfg,
            rng,
            slabs,
            infra_counter: 0,
            backbones: Vec::new(),
            pop_lhs: HashMap::new(),
            as_allocs: HashMap::new(),
        }
    }
}

/// Build a scenario from a configuration.
///
/// # Panics
///
/// If the world does not fit the address space; [`try_build`] returns the
/// [`BuildError`] instead.
pub fn build(cfg: ScenarioConfig) -> Scenario {
    try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Build a scenario from a configuration, or say why the world cannot be
/// built.
pub fn try_build(cfg: ScenarioConfig) -> Result<Scenario, BuildError> {
    let mut b = Builder::new(cfg);
    b.build_core();

    let roster = b.truth.as_list.clone();
    let total_hetero = (b.cfg.target_blocks as f64
        * HETERO_FRAC
        * roster.iter().map(|a| a.hetero_share).sum::<f64>())
    .round() as usize;

    for (as_idx, spec) in roster.iter().enumerate() {
        b.build_as(as_idx as u16, spec, total_hetero)?;
    }

    let pop_routers = b.pop_lhs.into_iter().collect();
    Ok(Scenario {
        network: b.net,
        truth: b.truth,
        config: b.cfg,
        pop_routers,
    })
}

/// Derive a deterministic dynamics schedule for a built scenario: each
/// ordinary (non-sub-allocation) PoP independently draws whether it is
/// perturbed — with probability `rate` — and if so which event class hits
/// it and at which epoch. The result is a pure function of
/// `(scenario seed, rate, period)`: the same scenario always evolves the
/// same way, which is what lets a resumed or sharded run replay the
/// schedule exactly from journal metadata.
///
/// Artifact aliases need no fresh address space: an address-reuse cycle
/// reuses the PoP's aggregation-router address (genuinely upstream on the
/// path), and a false diamond misattributes to a sibling last-hop — or,
/// for single-last-hop PoPs, to the aggregation router.
pub fn derive_dynamics(scenario: &Scenario, rate: f64, period: u64) -> DynamicsConfig {
    let seed = scenario.config.seed;
    let mut events = Vec::new();
    if rate > 0.0 && period > 0 {
        for (&pop, (agg, lhs)) in &scenario.pop_routers {
            let truth = &scenario.truth.pops[pop as usize];
            if truth.sub_allocation || lhs.is_empty() {
                continue;
            }
            if unit_f64(mix3(seed ^ 0xD7A0, pop as u64, 0)) >= rate {
                continue;
            }
            let kind = pick(mix3(seed ^ 0xD7A1, pop as u64, 1), 5);
            let at_epoch = 1 + pick(mix3(seed ^ 0xD7A2, pop as u64, 2), 4) as u32;
            let agg_addr = scenario.network.router(*agg).addr;
            events.push(match kind {
                0 => DynamicsEvent::NextHopRewrite {
                    router: *agg,
                    at_epoch,
                },
                1 => DynamicsEvent::LbResize {
                    router: *agg,
                    at_epoch,
                    width: 1 + pick(mix3(seed ^ 0xD7A3, pop as u64, 3), lhs.len()) as u8,
                },
                2 => DynamicsEvent::TransientLoop {
                    router: *agg,
                    at_epoch,
                },
                3 => DynamicsEvent::AddressReuse {
                    router: lhs[0],
                    at_epoch,
                    alias: agg_addr,
                },
                _ => DynamicsEvent::FalseDiamond {
                    router: lhs[0],
                    at_epoch,
                    alias: if lhs.len() > 1 {
                        scenario.network.router(lhs[1]).addr
                    } else {
                        agg_addr
                    },
                },
            });
        }
    }
    DynamicsConfig {
        period,
        events,
        netem: None,
    }
}

impl Builder {
    /// Build one AS subtree: border, intra routers, PoPs, allocations.
    fn build_as(
        &mut self,
        as_idx: u16,
        spec: &AsSpec,
        total_hetero_budget: usize,
    ) -> Result<(), BuildError> {
        let border = self.add_infra_router();
        if unit_f64(mix2(self.cfg.seed ^ 0xB0D, border.0 as u64)) < ALT_INTERFACE_FRAC {
            let alt = self.infra_addr();
            self.net.router_mut(border).alt_addr = Some(alt);
        }
        let intra: Vec<RouterId> = (0..INTRA_FAN).map(|_| self.add_infra_router()).collect();
        for &r in &intra {
            if unit_f64(mix2(self.cfg.seed ^ 0xA17, r.0 as u64)) < ALT_INTERFACE_FRAC {
                let alt = self.infra_addr();
                self.net.router_mut(r).alt_addr = Some(alt);
            }
        }
        if self.rng.gen::<f64>() < RATE_LIMIT_FRAC {
            self.net.router_mut(border).icmp_loss = 0.15;
        }

        let n_blocks = ((self.cfg.target_blocks as f64) * spec.block_share)
            .round()
            .max(0.0) as usize;
        // Hetero budget for this AS, from its Table-3 share.
        let n_hetero = ((total_hetero_budget as f64) * spec.hetero_share
            / self
                .truth
                .as_list
                .iter()
                .map(|a| a.hetero_share)
                .sum::<f64>()
                .max(1e-9))
        .round() as usize;
        let n_hetero = n_hetero.min(n_blocks / 2);

        // --- Big sites first (Table 5). ---
        for site in &spec.big_sites {
            let size = ((site.size_24s as f64) * self.cfg.big_block_scale).round() as usize;
            let size = size.max(2);
            let fan = 2 + (self.rng.gen::<f64>() * 2.0) as usize; // 2..=3
            let (pop, agg) = self.create_pop(
                as_idx,
                site.region.to_string(),
                fan,
                site.cellular,
                true,
                false,
                true, // big sites have responsive infrastructure
            );
            self.wire_pop_upstream(
                border,
                &intra,
                agg,
                pop,
                size as u32,
                spec,
                site.cellular,
                true,
            )?;
        }

        // --- Ordinary PoPs. ---
        let mut remaining = n_blocks;
        let mut hetero_left = n_hetero;
        let mut city_counter = 0u32;
        while remaining > 0 {
            let pop_size = self.draw_pop_size(spec).min(remaining as u32);
            let fan = self.draw_lh_fan();
            let unresponsive = self.rng.gen::<f64>() < UNRESPONSIVE_POP_FRAC;
            city_counter += 1;
            let region = format!("{}-{}", spec.country.to_lowercase(), city_counter);
            let (pop, agg) = self.create_pop(
                as_idx,
                region.clone(),
                fan,
                spec.cellular,
                false,
                false,
                !unresponsive,
            );
            let blocks = self.wire_pop_upstream(
                border,
                &intra,
                agg,
                pop,
                pop_size,
                spec,
                spec.cellular,
                false,
            )?;
            remaining = remaining.saturating_sub(pop_size as usize);

            // Split some of this PoP's blocks into heterogeneous customers.
            if hetero_left > 0 && spec.hetero_share > 0.0 {
                let split_here = ((pop_size as usize).min(hetero_left) as f64
                    * self.rng.gen_range(0.3..0.9)) as usize;
                let candidates: Vec<Block24> = blocks.iter().copied().take(split_here).collect();
                for blk in candidates {
                    self.make_heterogeneous(as_idx, spec, border, &intra, blk, &region);
                    hetero_left -= 1;
                    if hetero_left == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Draw an ordinary PoP's size in /24s (zipf-ish, mostly small).
    fn draw_pop_size(&mut self, spec: &AsSpec) -> u32 {
        let u = self.rng.gen::<f64>();
        let max = match spec.org_type {
            OrgType::Hosting | OrgType::HostingCloud => 64.0,
            // Cable/fixed ISPs concentrate whole metros behind one
            // head-end: a few giant PoPs among many small ones.
            OrgType::FixedIsp => 48.0,
            OrgType::Broadband => 16.0,
            OrgType::MobileIsp => 32.0,
            OrgType::Enterprise => 8.0,
        };
        // Inverse-power draw: most PoPs are 1-4 blocks, a few are large.
        let size = (1.0 / (1.0 - u * 0.97)).powf(1.4);
        (size.min(max) as u32).max(1)
    }

    /// Allocate a PoP's blocks as 1-4 runs, wire routes through the AS, set
    /// host profiles, and record truth. Returns the allocated blocks.
    #[allow(clippy::too_many_arguments)]
    fn wire_pop_upstream(
        &mut self,
        border: RouterId,
        intra: &[RouterId],
        agg: RouterId,
        pop: u32,
        size: u32,
        spec: &AsSpec,
        cellular: bool,
        big_site: bool,
    ) -> Result<Vec<Block24>, BuildError> {
        let as_idx = self.truth.pops[pop as usize].as_idx;
        // Choose run layout: big sites split into many runs (and may span
        // slabs); ordinary pops use 1-2 runs.
        let mut run_sizes: Vec<u32> = Vec::new();
        let mut left = size;
        while left > 0 {
            // Allocations accrete over time from whatever pool has space,
            // so even small PoPs hold several runs.
            let r = if big_site {
                self.rng.gen_range(48..=384u32).min(left)
            } else if left > 2 {
                self.rng.gen_range(1..=left.min(8))
            } else {
                left
            };
            run_sizes.push(r);
            left -= r;
        }

        let mut as_alloc = self.as_allocs.remove(&as_idx).unwrap_or_else(AsAlloc::new);
        let mut blocks = Vec::with_capacity(size as usize);
        let before = as_alloc.announced.len();
        let mut run_prefixes: Vec<Prefix> = Vec::new();
        for (i, &rs) in run_sizes.iter().enumerate() {
            let gap = self.rng.gen_range(1..12);
            // Operators allocate from several distant supernets: runs after
            // the first often land in a fresh slab, producing the far-apart
            // contiguous segments of Figures 7b/8 (~40% of aggregates span
            // nearly unrelated prefixes).
            let force_new = i > 0 && self.rng.gen_bool(if big_site { 0.6 } else { 0.5 });
            let (start, prefixes) = as_alloc.alloc_run(rs, gap, force_new, &mut self.slabs)?;
            for off in 0..rs {
                blocks.push(Block24(start.0 + off));
            }
            run_prefixes.extend(prefixes);
        }
        let new_announcements: Vec<Prefix> = as_alloc.announced[before..].to_vec();
        self.as_allocs.insert(as_idx, as_alloc);

        // Announce any new slabs to the backbone.
        for p in new_announcements {
            self.announce(p, border);
        }
        // Wire each covering prefix: border → per-flow intra → agg → pop.
        for p in run_prefixes {
            // Second per-destination stage: some border routers hash the
            // source too (Cisco CEF, paper §6.1); a rare few spray per
            // packet.
            let as_h = mix2(self.cfg.seed ^ 0xBAD, as_idx as u64);
            let policy = if unit_f64(as_h) < PER_PACKET_FRAC {
                LbPolicy::PerPacket
            } else if pop.is_multiple_of(2) {
                LbPolicy::PerDestination
            } else {
                LbPolicy::PerSrcDest
            };
            self.net.install_route(
                border,
                p,
                NextHopGroup::ecmp(intra.iter().map(|&r| NextHop::Router(r)).collect(), policy),
            );
            for &r in intra {
                self.net
                    .install_route(r, p, NextHopGroup::single(NextHop::Router(agg)));
            }
            self.serve_prefix(pop, p);
        }

        // Host profiles + block truth.
        let base_rtt =
            (country_base_rtt_us(spec.country) as f64 * self.rng.gen_range(0.7..1.3)) as u32;
        for &blk in &blocks {
            let profile = self.draw_profile(spec, cellular, big_site, base_rtt);
            self.net.set_block_profile(blk, profile);
            self.truth.blocks.insert(
                blk,
                BlockTruth {
                    as_idx,
                    homogeneous: true,
                    pop,
                    sub_blocks: Vec::new(),
                },
            );
        }
        Ok(blocks)
    }

    /// Draw a /24 host profile.
    fn draw_profile(
        &mut self,
        spec: &AsSpec,
        cellular: bool,
        big_site: bool,
        base_rtt: u32,
    ) -> HostProfile {
        let kind = if cellular {
            HostKind::Cellular
        } else {
            match spec.org_type {
                OrgType::Hosting | OrgType::HostingCloud => HostKind::Server,
                OrgType::Enterprise => HostKind::Enterprise,
                _ => HostKind::Residential,
            }
        };
        // Density classes; weights differ by org type. Sparse blocks drive
        // the paper's 24.9% "too few active" row.
        let (w_dead, w_sparse, w_med) = match spec.org_type {
            OrgType::Hosting | OrgType::HostingCloud => (0.04, 0.22, 0.34),
            OrgType::Enterprise => (0.12, 0.42, 0.26),
            _ => (0.08, 0.40, 0.32),
        };
        let u = self.rng.gen::<f64>();
        let quiet_prob = if big_site {
            self.cfg.quiet_prob * 0.7
        } else {
            self.cfg.quiet_prob
        };
        // Densities are calibrated to the paper's reality: 54.05M responsive
        // of 64.45M probed destinations over 3.37M blocks ≈ 16 active
        // addresses per /24 on average. Sparse blocks are the norm.
        let density = if big_site {
            self.rng.gen_range(0.08..0.35)
        } else if u < w_dead {
            self.rng.gen_range(0.004..0.015)
        } else if u < w_dead + w_sparse {
            // Marginal blocks: enough actives to pass ZMap selection but
            // fragile to churn and to the confidence table's demands —
            // the paper's 24.9% "too few active" row.
            self.rng.gen_range(0.014..0.048)
        } else if u < w_dead + w_sparse + w_med {
            self.rng.gen_range(0.05..0.16)
        } else {
            self.rng.gen_range(0.16..0.45)
        };
        let ttl_mix = match spec.org_type {
            OrgType::Hosting | OrgType::HostingCloud => {
                if self.rng.gen_bool(0.5) {
                    TtlMix::Unix
                } else {
                    TtlMix::Mixed
                }
            }
            _ => {
                if self.rng.gen_bool(0.1) {
                    TtlMix::MixedWithCustom
                } else {
                    TtlMix::Mixed
                }
            }
        };
        HostProfile {
            density: density as f32,
            churn: self.cfg.churn,
            ttl_mix,
            kind,
            base_rtt_us: base_rtt,
            quiet_prob,
        }
    }

    /// Split an already-allocated homogeneous block into Table-2 style
    /// customer sub-allocations, each behind its own last-hop router.
    fn make_heterogeneous(
        &mut self,
        as_idx: u16,
        spec: &AsSpec,
        _border: RouterId,
        _intra: &[RouterId],
        blk: Block24,
        region: &str,
    ) {
        // Draw a composition from the Table 2 distribution.
        let u = self.rng.gen::<f64>();
        let mut acc = 0.0;
        let mut comp: &[u8] = HETERO_COMPOSITIONS[0].0;
        for &(lens, share) in HETERO_COMPOSITIONS {
            acc += share;
            if u < acc {
                comp = lens;
                break;
            }
        }
        let subs = tile_composition(blk, comp);

        // Upstream routing (border → intra → agg) already covers the /24;
        // we refine at the serving PoP's agg router with longer prefixes.
        let parent_pop = self.truth.blocks[&blk].pop;
        let (agg, _) = self.pop_lhs[&parent_pop].clone();

        let mut sub_entries = Vec::with_capacity(subs.len());
        for (i, &sub) in subs.iter().enumerate() {
            // Dedicated customer last-hop router (single: route entries for
            // distinct customers are not load balanced together).
            let lh = self.add_infra_router();
            let lh_addr = self.net.router(lh).addr;
            let sub_pop = self.truth.pops.len() as u32;
            self.truth.pops.push(PopTruth {
                id: sub_pop,
                as_idx,
                region: format!("{region}-cust{i}"),
                lasthop_addrs: vec![lh_addr],
                responsive: true,
                cellular: false,
                big_site: false,
                sub_allocation: true,
                lasthop_policy: LbPolicy::PerDestination,
            });
            self.pop_lhs.insert(sub_pop, (agg, vec![lh]));
            self.net
                .install_route(agg, sub, NextHopGroup::single(NextHop::Router(lh)));
            self.net
                .install_route(lh, sub, NextHopGroup::single(NextHop::Deliver));
            sub_entries.push((sub, sub_pop));
        }

        // Customers are distinct organizations: denser, varied profiles.
        let base_rtt =
            (country_base_rtt_us(spec.country) as f64 * self.rng.gen_range(0.7..1.3)) as u32;
        self.net.set_block_profile(
            blk,
            HostProfile {
                density: self.rng.gen_range(0.08..0.35),
                churn: self.cfg.churn,
                ttl_mix: TtlMix::Mixed,
                kind: HostKind::Enterprise,
                base_rtt_us: base_rtt,
                quiet_prob: self.cfg.quiet_prob * 0.5,
            },
        );

        let entry = self.truth.blocks.get_mut(&blk).expect("block allocated");
        entry.homogeneous = false;
        entry.sub_blocks = sub_entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_dynamics_is_a_pure_function_of_seed_rate_period() {
        let s = build(ScenarioConfig::tiny(77));
        let a = derive_dynamics(&s, 0.5, 32);
        let b = derive_dynamics(&s, 0.5, 32);
        assert_eq!(a, b, "same inputs, same schedule");
        assert_eq!(a.period, 32);
        assert!(!a.events.is_empty(), "rate 0.5 over many pops hits some");
        let c = derive_dynamics(&s, 0.1, 32);
        assert_ne!(a.events, c.events, "rate changes the draw outcome");
    }

    #[test]
    fn derived_dynamics_rate_zero_is_empty() {
        let s = build(ScenarioConfig::tiny(78));
        let d = derive_dynamics(&s, 0.0, 32);
        assert!(d.events.is_empty());
        assert!(!d.events_active());
        // Zero period likewise disables the schedule outright.
        assert!(derive_dynamics(&s, 1.0, 0).events.is_empty());
    }

    #[test]
    fn derived_events_target_pop_routers_at_future_epochs() {
        let s = build(ScenarioConfig::tiny(79));
        let d = derive_dynamics(&s, 1.0, 16);
        assert!(!d.events.is_empty());
        for ev in &d.events {
            assert!(ev.at_epoch() >= 1, "epoch 0 is the frozen snapshot");
            assert!(ev.at_epoch() <= 4);
            let r = ev.router();
            let in_some_pop = s
                .pop_routers
                .values()
                .any(|(agg, lhs)| *agg == r || lhs.contains(&r));
            assert!(in_some_pop, "event router {r:?} is not a PoP router");
        }
        // At rate 1.0 every ordinary PoP is perturbed exactly once.
        let ordinary = s
            .pop_routers
            .keys()
            .filter(|&&p| !s.truth.pops[p as usize].sub_allocation)
            .count();
        assert_eq!(d.events.len(), ordinary);
    }

    #[test]
    fn run_to_prefixes_covers_exactly() {
        for (start, len) in [
            (0x040001u32, 5u32),
            (0x040000, 16),
            (0x05FFFF, 3),
            (0x040400, 1),
        ] {
            let prefixes = run_to_prefixes(Block24(start), len);
            let mut covered: Vec<u32> = prefixes
                .iter()
                .flat_map(|p| p.blocks24().map(|b| b.0))
                .collect();
            covered.sort_unstable();
            let expect: Vec<u32> = (start..start + len).collect();
            assert_eq!(covered, expect, "start={start:#x} len={len}");
        }
    }

    #[test]
    fn tile_composition_tiles_exactly() {
        let blk = Block24(0x040000);
        for &(lens, _) in HETERO_COMPOSITIONS {
            let subs = tile_composition(blk, lens);
            assert_eq!(subs.len(), lens.len());
            let total: u32 = subs.iter().map(|p| p.size()).sum();
            assert_eq!(total, 256, "composition {lens:?}");
            // No overlaps.
            for i in 0..subs.len() {
                for j in 0..i {
                    assert!(
                        !subs[i].overlaps(subs[j]),
                        "{lens:?}: {} vs {}",
                        subs[i],
                        subs[j]
                    );
                }
            }
        }
    }

    #[test]
    fn drained_slabs_fall_back_to_held_room_or_refuse() {
        let mut slabs = SlabAllocator {
            slabs: vec![0x10_0000, 0x20_0000],
            next: 0,
        };
        let (mut a, mut b) = (AsAlloc::new(), AsAlloc::new());
        let (first, _) = a.alloc_run(10, 1, false, &mut slabs).unwrap();
        assert_eq!(first, Block24(0x10_0001));
        b.alloc_run(10, 1, false, &mut slabs).unwrap();
        // No fresh slab is left: a run that wanted one goes to the first
        // slab the AS holds with room, right after its last run, and
        // announces nothing new.
        let (start, _) = a.alloc_run(20, 2, true, &mut slabs).unwrap();
        assert_eq!(start, Block24(0x10_0000 + 11 + 2));
        assert_eq!(a.slabs, vec![(0x10_0000, 33)]);
        assert_eq!(a.announced.len(), 1);
        // An AS holding no slab with room is refused, never indexed past
        // the slab list.
        let refused = Err(BuildError::AddressSpaceExhausted { slabs: 2 });
        assert_eq!(AsAlloc::new().alloc_run(1, 1, false, &mut slabs), refused);
        assert_eq!(a.alloc_run(1000, 1, true, &mut slabs), refused);
        assert_eq!(a.alloc_run(1000, 1, false, &mut slabs), refused);
    }

    #[test]
    fn tiny_scenario_builds() {
        let s = build(ScenarioConfig::tiny(42));
        assert!(!s.truth.blocks.is_empty());
        assert!(s.network.router_count() > 10);
        // Every allocated block has both a profile and a truth entry.
        for b in s.network.allocated_blocks() {
            assert!(s.truth.blocks.contains_key(&b), "{b} missing truth");
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = build(ScenarioConfig::tiny(7));
        let b = build(ScenarioConfig::tiny(7));
        assert_eq!(a.network.router_count(), b.network.router_count());
        assert_eq!(
            a.truth.blocks.keys().collect::<Vec<_>>(),
            b.truth.blocks.keys().collect::<Vec<_>>()
        );
        let c = build(ScenarioConfig::tiny(8));
        assert_ne!(
            a.truth.blocks.keys().collect::<Vec<_>>(),
            c.truth.blocks.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn heterogeneous_blocks_have_valid_compositions() {
        let s = build(ScenarioConfig::small(42));
        let mut n_hetero = 0;
        for (&blk, t) in &s.truth.blocks {
            if t.homogeneous {
                continue;
            }
            n_hetero += 1;
            let total: u32 = t.sub_blocks.iter().map(|(p, _)| p.size()).sum();
            assert_eq!(total, 256, "sub-blocks of {blk} must tile");
            // Every sub-block's pop must be a sub-allocation with one LH.
            for &(_, pop) in &t.sub_blocks {
                let pt = &s.truth.pops[pop as usize];
                assert!(pt.sub_allocation);
                assert_eq!(pt.lasthop_addrs.len(), 1);
            }
        }
        assert!(n_hetero > 0, "scenario should contain heterogeneous blocks");
    }

    #[test]
    fn ground_truth_lasthops_match_forwarding() {
        // The router set the forwarding engine can reach must equal the
        // PoP's recorded last-hop set.
        let s = build(ScenarioConfig::tiny(42));
        let mut checked = 0;
        for (&blk, t) in s.truth.blocks.iter().take(40) {
            if !t.homogeneous {
                continue;
            }
            let pop = &s.truth.pops[t.pop as usize];
            let dst = blk.addr(10);
            let lasthops = s.network.true_lasthop_set(dst);
            let addrs: Vec<Addr> = lasthops
                .iter()
                .map(|&id| s.network.router(id).addr)
                .collect();
            let mut expect = pop.lasthop_addrs.clone();
            expect.sort();
            let mut got = addrs;
            got.sort();
            assert_eq!(got, expect, "block {blk}");
            checked += 1;
        }
        assert!(checked > 5);
    }

    #[test]
    fn big_sites_present_at_scale() {
        let mut cfg = ScenarioConfig::small(42);
        cfg.big_block_scale = 0.1;
        let s = build(cfg);
        let big_pops: Vec<&PopTruth> = s.truth.pops.iter().filter(|p| p.big_site).collect();
        assert_eq!(big_pops.len(), 15, "fifteen Table 5 sites");
        for p in big_pops {
            let n = s
                .truth
                .blocks
                .values()
                .filter(|b| b.homogeneous && b.pop == p.id)
                .count();
            assert!(n >= 2, "site {} has {n} blocks", p.region);
        }
    }

    #[test]
    fn extra_vantages_are_probe_able_and_see_different_srcdest_paths() {
        let mut cfg = ScenarioConfig::tiny(42);
        cfg.extra_vantages = 1;
        let s = build(cfg);
        let vantages = s.network.vantages();
        assert_eq!(vantages.len(), 2);
        let net = s.network.clone();
        // A PerSrcDest PoP resolves to different last-hops per vantage for
        // at least some destinations; per-destination PoPs agree.
        let mut diff = 0;
        let mut total = 0;
        for (&blk, t) in s.truth.blocks.iter() {
            if !t.homogeneous {
                continue;
            }
            let pop = &s.truth.pops[t.pop as usize];
            if pop.lasthop_addrs.len() < 2 || !pop.responsive {
                continue;
            }
            for host in [10u8, 77, 200] {
                let dst = blk.addr(host);
                let mut last = Vec::new();
                for &src in &vantages {
                    // TTL that expires at the last-hop layer (depth 8; the
                    // extra vantage has the same depth by construction).
                    let p = crate::forward::encode_probe(src, dst, 8, 2, host as u16, 7, 0);
                    let d = net.send(p).unwrap();
                    if let Some(resp) = d.response {
                        let mut buf = resp;
                        let h = crate::wire::Ipv4Header::decode(&mut buf).unwrap();
                        last.push(h.src);
                    }
                }
                if last.len() == 2 {
                    total += 1;
                    if last[0] != last[1] {
                        diff += 1;
                    }
                }
            }
            if total > 150 {
                break;
            }
        }
        assert!(total > 30, "need comparable probes, got {total}");
        assert!(
            diff > 0,
            "source-hashing balancers should differ per vantage"
        );
        assert!(diff < total, "per-destination balancers should agree");
    }

    #[test]
    fn colocated_with_returns_whole_pop() {
        let s = build(ScenarioConfig::tiny(42));
        let (&blk, t) = s.truth.blocks.iter().find(|(_, t)| t.homogeneous).unwrap();
        let group = s.truth.colocated_with(blk);
        assert!(group.contains(&blk));
        for g in &group {
            assert_eq!(s.truth.blocks[g].pop, t.pop);
        }
    }
}
