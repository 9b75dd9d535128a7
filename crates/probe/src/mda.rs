//! Paris-traceroute MDA: the Multipath Detection Algorithm (Augustin,
//! Friedman, Teixeira, E2EMON 2007).
//!
//! MDA enumerates the per-flow load-balanced paths between the vantage and
//! one destination by varying the flow identifier, with a hypothesis-test
//! stopping rule: after observing `k` distinct outcomes, keep probing until
//! enough additional probes have been sent to reject "there is a (k+1)-th
//! outcome" at 95% confidence ([`StoppingRule::CONFIDENCE95`]).
//!
//! The paper leans on the rule's best-known instance: *"a router has a
//! single nexthop interface at the probability of 95% if 6 probes are
//! responded by a single nexthop interface"* — our table reproduces
//! `n(1) = 6` exactly (see [`StoppingRule::probes_needed`]).

use crate::prober::{ProbeReply, Prober};
use crate::traceroute::{paris_traceroute, Traceroute};
use crate::types::Path;
use netsim::Addr;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The MDA hypothesis-test stopping rule.
///
/// To conclude that exactly `k` outcomes exist, the prober must send
/// `probes_needed(k)` probes and observe only those `k`. The failure budget
/// `alpha` is spread over the successive hypotheses (Bonferroni-style) as
/// `alpha_k = alpha / (k * (k + 1))`, which yields the classic `n(1) = 6`
/// at `alpha = 0.05`.
/// ```
/// use probe::StoppingRule;
/// // The figure the paper quotes: 6 probes answered by a single next-hop
/// // interface rule out a second one at 95% confidence.
/// assert_eq!(StoppingRule::CONFIDENCE95.probes_needed(1), 6);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StoppingRule {
    /// Overall failure probability budget (0.05 for 95% confidence).
    pub alpha: f64,
}

impl StoppingRule {
    /// The paper's 95%-confidence rule, the one every MDA loop here stops
    /// by.
    pub const CONFIDENCE95: StoppingRule = StoppingRule { alpha: 0.05 };

    /// Number of probes that must all land on the observed `k` outcomes to
    /// reject the existence of a (k+1)-th equally likely outcome.
    ///
    /// `k = 0` means nothing has been observed yet: a single probe settles
    /// the degenerate hypothesis (there is no "k+1-th outcome" to rule out
    /// before the first observation), so the answer is 1 rather than the
    /// full ladder — previously this case panicked.
    pub fn probes_needed(&self, k: usize) -> usize {
        if k == 0 {
            return 1;
        }
        let alpha_k = self.alpha / (k as f64 * (k + 1) as f64);
        // P(n probes all miss outcome k+1 | k+1 uniform outcomes) =
        // (k/(k+1))^n  ≤ alpha_k
        let n = alpha_k.ln() / ((k as f64) / (k as f64 + 1.0)).ln();
        n.ceil() as usize
    }
}

/// Which MDA stopping discipline the prober runs.
///
/// `Classic` is the full Augustin et al. hypothesis-test ladder at every
/// hop. `Lite` is the MDA-Lite discipline (Vermeulen et al., *Multilevel
/// MDA-Lite Paris Traceroute*): once a block's last-hop diamond has been
/// resolved by one full ladder, later destinations stop as soon as their
/// replies re-identify known diamond members, escalating back to the
/// classic ladder whenever flow-label evidence is inconsistent with the
/// diamond.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MdaMode {
    /// Full hypothesis-test ladder at every hop (the default).
    #[default]
    Classic,
    /// Diamond-aware early stopping with classic fallback.
    Lite,
}

impl MdaMode {
    /// Short lowercase name (`classic` / `mda_lite`), used in bench entry
    /// names and CLI output.
    pub fn slug(self) -> &'static str {
        match self {
            MdaMode::Classic => "classic",
            MdaMode::Lite => "mda_lite",
        }
    }
}

/// Per-block MDA-Lite memory: the diamond of last-hop interfaces confirmed
/// so far, plus the probe-budget accounting the `probe.mda_lite.*` counters
/// report.
///
/// One state instance covers one /24: all its destinations sit behind the
/// same last-hop fan, so a diamond confirmed by a full classic ladder on
/// the first destination lets every later destination stop early.
#[derive(Clone, Debug, Default)]
pub struct MdaLiteState {
    /// Confirmed last-hop interfaces (sorted) — the block's diamond.
    diamond: Vec<Addr>,
    /// A fully-laddered destination showed more than one interface, i.e.
    /// the fan balances per flow: later destinations re-identify the
    /// diamond from two distinct members instead of pinning one.
    multi: bool,
    /// Whether any destination has completed the full classic ladder.
    confirmed: bool,
    /// A full ladder at the last hop drew pure silence: the block's last
    /// hop is anonymous, and later destinations re-identify silence from
    /// two consecutive timeouts instead of paying the ladder again.
    anonymous: bool,
    /// Hop distance the block's resolved destinations have agreed on, with
    /// the number of agreeing observations. The confirm-probe skip only
    /// arms after two agreements (one observation can be a fluke of
    /// per-flow path-length jitter).
    stable_distance: Option<(u8, u32)>,
    /// Distance disagreement or per-flow path-length jitter (a destination
    /// echo at the confirmed hop) was observed — permanently disables the
    /// confirm-probe skip for this block.
    unstable: bool,
    /// Probes the lite stopping rules skipped relative to what the classic
    /// ladder would still have required (a lower bound).
    pub probes_saved: u64,
    /// Diamonds confirmed (first completed ladder per block).
    pub diamonds_detected: u64,
    /// Escalations back to the classic ladder on inconsistent evidence.
    pub escalations: u64,
}

impl MdaLiteState {
    /// Fresh state for one block.
    pub fn new() -> Self {
        MdaLiteState::default()
    }

    /// The confirmed diamond membership (sorted).
    pub fn diamond(&self) -> &[Addr] {
        &self.diamond
    }

    /// Whether a full ladder has confirmed the diamond yet.
    pub fn is_confirmed(&self) -> bool {
        self.confirmed
    }

    /// Record one confirmed hop observation: the destination's distance
    /// and whether the destination itself echoed during the enumeration
    /// (per-flow path-length jitter). Drives [`Self::can_skip_confirm`].
    pub(crate) fn observe_lasthop(&mut self, dst_distance: u8, echoed: bool) {
        if echoed {
            self.unstable = true;
        }
        match &mut self.stable_distance {
            None => self.stable_distance = Some((dst_distance, 1)),
            Some((d, n)) if *d == dst_distance => *n += 1,
            Some(_) => self.unstable = true,
        }
    }

    /// Whether the last-hop walk may skip its dedicated confirm probe at
    /// candidate distance `dst_distance`: the diamond (or its anonymity)
    /// is confirmed, at least two destinations agreed on exactly this
    /// distance, and no jitter evidence has ever surfaced. When it holds,
    /// the enumeration's own probes double as the overestimate check.
    pub(crate) fn can_skip_confirm(&self, dst_distance: u8) -> bool {
        (self.confirmed || self.anonymous)
            && !self.unstable
            && matches!(self.stable_distance, Some((d, n)) if d == dst_distance && n >= 2)
    }

    /// Account one probe the confirm-skip avoided sending.
    pub(crate) fn note_skip_saved(&mut self) {
        self.probes_saved += 1;
    }

    /// Merge a hop enumeration into the diamond. `full_ladder` marks a
    /// classic-completion (first confirmation or an escalation): only those
    /// may flip the diamond to confirmed or learn per-flow membership.
    fn absorb(&mut self, interfaces: &[Addr], full_ladder: bool) {
        for &a in interfaces {
            if let Err(i) = self.diamond.binary_search(&a) {
                self.diamond.insert(i, a);
            }
        }
        if full_ladder {
            if !self.confirmed && !self.diamond.is_empty() {
                self.confirmed = true;
                self.diamonds_detected += 1;
            }
            if interfaces.len() > 1 {
                self.multi = true;
            }
        }
    }
}

/// Result of enumerating the per-flow paths to one destination.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MdaPaths {
    /// The destination probed.
    pub dst: Addr,
    /// Distinct per-flow routes discovered (wildcard hops preserved).
    pub paths: Vec<Path>,
    /// Whether any flow reached the destination.
    pub reached: bool,
    /// Destination hop distance (minimum over flows), if reached.
    pub dst_distance: Option<u8>,
    /// Traceroutes underlying the enumeration (one per flow label used).
    pub traces: Vec<Traceroute>,
}

impl MdaPaths {
    /// The set of last-hop router addresses observed across flows.
    /// (For per-flow balancing that converges before the destination this
    /// is a singleton.)
    pub fn lasthops(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.paths.iter().filter_map(|p| p.lasthop()).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Deterministic, well-spread flow label sequence.
///
/// Avoids `0xffff` (not a representable ICMP checksum).
pub fn flow_label(i: usize) -> u16 {
    ((i as u32).wrapping_mul(2654435761) % 0xffff) as u16
}

/// Enumerate the distinct per-flow routes to `dst` by tracing one flow at a
/// time until [`StoppingRule::CONFIDENCE95`] is satisfied for the number of
/// distinct *paths* observed.
///
/// `max_flows` bounds the work for pathological cardinalities.
pub fn enumerate_paths(prober: &mut Prober<'_>, dst: Addr, max_flows: usize) -> MdaPaths {
    let mut distinct: Vec<Path> = Vec::new();
    let mut traces = Vec::new();
    let mut reached = false;
    let mut dst_distance: Option<u8> = None;
    let mut flows_since_discovery = 0usize;
    let mut i = 0usize;
    while i < max_flows {
        let label = flow_label(i);
        i += 1;
        let tr = paris_traceroute(prober, dst, label);
        if tr.reached {
            reached = true;
            dst_distance = Some(match dst_distance {
                Some(d) => d.min(tr.dst_distance.unwrap()),
                None => tr.dst_distance.unwrap(),
            });
        }
        let is_new = !distinct.iter().any(|p| p.matches(&tr.path));
        if is_new {
            distinct.push(tr.path.clone());
            flows_since_discovery = 0;
        } else {
            flows_since_discovery += 1;
        }
        traces.push(tr);
        let k = distinct.len().max(1);
        // After the last discovery we need `probes_needed(k)` *total* flows
        // landing in the known set; count flows since the last new path.
        if flows_since_discovery + 1 >= StoppingRule::CONFIDENCE95.probes_needed(k) {
            break;
        }
    }
    MdaPaths {
        dst,
        paths: distinct,
        reached,
        dst_distance,
        traces,
    }
}

/// Enumerate the interfaces answering at one TTL (node-level MDA), used by
/// the last-hop prober. Returns the distinct responding addresses, plus
/// whether any probe at this TTL was answered by the destination itself
/// (meaning the TTL overshoots the router path).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HopInterfaces {
    /// Distinct router interfaces seen at this TTL.
    pub interfaces: Vec<Addr>,
    /// Number of probes that timed out.
    pub timeouts: usize,
    /// Whether the destination echoed at this TTL (overshoot).
    pub echoed: bool,
    /// Probes used.
    pub probes: usize,
}

/// Probe one TTL with varying flow labels under
/// [`StoppingRule::CONFIDENCE95`]: the one node-level MDA loop, classic and
/// MDA-Lite alike.
///
/// With `lite` `None`, or a block state whose diamond (or anonymous last
/// hop) no full ladder has confirmed yet, this is the classic ladder. A
/// state still learns from that ladder: the interfaces it found become the
/// block's diamond, and pure silence — no interface, no destination echo —
/// confirms an *anonymous* last hop instead.
///
/// Once the state is confirmed, MDA-Lite (Vermeulen et al.) only changes
/// when the loop stops. Replies re-identify the diamond; timeouts and
/// destination echoes never confirm membership:
///
/// * singleton diamond — one reply on the member suffices;
/// * per-flow diamond (`multi`) — two distinct members re-identify the
///   whole fan, which is then reported in full;
/// * per-destination fan — two consecutive replies agreeing on one member
///   pin that destination's router;
/// * anonymous last hop — two consecutive timeouts re-identify the silence.
///
/// Any reply outside the diamond, or a second distinct member on a fan
/// believed per-destination, *escalates*: the shortcut is abandoned, the
/// loop continues to the classic stopping rule, and the completed ladder
/// extends the diamond. Escalation only ever removes the early exit, so a
/// lite call never sends more probes than the classic one would.
///
/// While the state's confirm skip is armed at this hop's destination
/// distance `ttl + 1` (`MdaLiteState::can_skip_confirm`), the last-hop
/// walk sent no probe to check that `ttl` does not overshoot. A
/// destination echo before any interface answers then ends the call after
/// that probe (empty, `echoed`), so the walk can fall back to that check
/// instead of burning a ladder on overshoot.
pub fn enumerate_hop(
    prober: &mut Prober<'_>,
    dst: Addr,
    ttl: u8,
    max_probes: usize,
    mut lite: Option<&mut MdaLiteState>,
) -> HopInterfaces {
    let rule = StoppingRule::CONFIDENCE95;
    let shortcuts = lite.as_deref().is_some_and(|s| s.confirmed || s.anonymous);
    let abort_on_early_echo = lite.as_deref().is_some_and(|s| s.can_skip_confirm(ttl + 1));
    let mut seen: HashMap<Addr, usize> = HashMap::new();
    let mut timeouts = 0usize;
    let mut echoed = false;
    let mut probes = 0usize;
    let mut since_new = 0usize;
    let mut i = 0usize;
    let mut escalated = false;
    let mut stopped_early = false;
    // Consecutive replies agreeing on one diamond member.
    let mut agree_run = 0usize;
    let mut last_member: Option<Addr> = None;
    // Consecutive pure timeouts (any reply resets the run).
    let mut timeout_run = 0usize;
    while probes < max_probes {
        let label = flow_label(i);
        i += 1;
        probes += 1;
        match prober.probe(dst, ttl, label).reply {
            ProbeReply::TimeExceeded { from } | ProbeReply::Unreachable { from } => {
                timeout_run = 0;
                if seen.insert(from, probes).is_none() {
                    since_new = 0;
                } else {
                    since_new += 1;
                }
                if let Some(state) = lite.as_deref_mut().filter(|_| shortcuts) {
                    let member = state.diamond.binary_search(&from).is_ok();
                    if member {
                        if last_member == Some(from) {
                            agree_run += 1;
                        } else {
                            last_member = Some(from);
                            agree_run = 1;
                        }
                    }
                    // Evidence outside the diamond (the topology changed
                    // under us, or the diamond was incomplete), or one
                    // destination answering from two members of a fan
                    // believed per-destination: relearn classically.
                    if (!member || (!state.multi && seen.len() > 1)) && !escalated {
                        escalated = true;
                        state.escalations += 1;
                    }
                }
            }
            ProbeReply::Echo { from, .. } if from == dst => {
                timeout_run = 0;
                echoed = true;
                since_new += 1;
                if abort_on_early_echo && seen.is_empty() && !escalated {
                    break;
                }
            }
            _ => {
                timeouts += 1;
                since_new += 1;
                timeout_run += 1;
            }
        }
        let k = seen.len().max(1);
        if let Some(state) = lite.as_deref_mut().filter(|_| shortcuts && !escalated) {
            let stop = match state.diamond.len() {
                0 => state.anonymous && !echoed && seen.is_empty() && timeout_run >= 2,
                1 => agree_run >= 1,
                _ if state.multi => seen.len() >= 2,
                _ => agree_run >= 2,
            };
            if stop {
                state.probes_saved += rule.probes_needed(k).saturating_sub(since_new + 1) as u64;
                stopped_early = true;
                break;
            }
        }
        if since_new + 1 >= rule.probes_needed(k) {
            break;
        }
    }
    let mut interfaces: Vec<Addr> = seen.into_keys().collect();
    interfaces.sort();
    if let Some(state) = lite {
        if !shortcuts && interfaces.is_empty() && !echoed && timeouts == probes {
            state.anonymous = true;
        }
        if stopped_early && state.multi && interfaces.len() > 1 {
            // Two members re-identified the known per-flow fan: report the
            // whole membership, as the classic enumeration would have.
            interfaces = state.diamond.clone();
        }
        state.absorb(&interfaces, !stopped_early);
    }
    HopInterfaces {
        interfaces,
        timeouts,
        echoed,
        probes,
    }
}

/// One load-balanced diamond in a per-flow path set: flows share a common
/// hop at TTL `divergence`, fan out across `width` interfaces, and share a
/// hop again at TTL `convergence` (the destination's distance when the fan
/// only re-converges at the destination itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diamond {
    /// TTL of the last single-interface hop before the fan (0 when the fan
    /// starts at the first hop, i.e. diverges at the vantage).
    pub divergence: u8,
    /// TTL of the first single-interface hop after the fan.
    pub convergence: u8,
    /// Maximum number of distinct interfaces at any TTL inside the fan.
    pub width: usize,
}

/// Detect the diamonds in an enumerated path set: per-TTL interface sets
/// are built across all discovered paths, and every maximal run of TTLs
/// with more than one distinct interface is one diamond.
///
/// The result depends only on the *set* of hop interfaces per TTL, so it
/// is invariant under reordering of `mda.paths` (equivalently: under
/// permutation of the flow labels that discovered them).
pub fn detect_diamonds(mda: &MdaPaths) -> Vec<Diamond> {
    let maxlen = mda.paths.iter().map(|p| p.hops.len()).max().unwrap_or(0);
    let mut widths: Vec<usize> = Vec::with_capacity(maxlen);
    for t in 0..maxlen {
        let mut set: Vec<Addr> = mda
            .paths
            .iter()
            .filter_map(|p| p.hops.get(t).copied().flatten())
            .collect();
        set.sort();
        set.dedup();
        widths.push(set.len());
    }
    let mut out = Vec::new();
    let mut t = 0usize;
    while t < maxlen {
        if widths[t] > 1 {
            let start = t;
            let mut width = widths[t];
            while t < maxlen && widths[t] > 1 {
                width = width.max(widths[t]);
                t += 1;
            }
            // hops[start] answers at TTL start+1, so the last common hop
            // sits at TTL start; the first common hop after the fan at
            // TTL t+1 (the destination's distance when the fan runs to
            // the end of the paths).
            out.push(Diamond {
                divergence: start as u8,
                convergence: (t + 1) as u8,
                width,
            });
        } else {
            t += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};

    #[test]
    fn stopping_rule_reproduces_the_classic_table() {
        let rule = StoppingRule::CONFIDENCE95;
        // n(1) = 6 is the number the paper quotes from Augustin et al.
        assert_eq!(rule.probes_needed(1), 6);
        // The table must be monotone and grow roughly linearly.
        let mut prev = 0;
        for k in 1..=16 {
            let n = rule.probes_needed(k);
            assert!(n > prev, "n({k}) = {n} not increasing");
            prev = n;
        }
        assert!(rule.probes_needed(2) >= 10);
        assert!(rule.probes_needed(2) <= 13);
    }

    #[test]
    fn lower_alpha_needs_more_probes() {
        let strict = StoppingRule { alpha: 0.01 };
        let lax = StoppingRule { alpha: 0.10 };
        for k in 1..=8 {
            assert!(strict.probes_needed(k) > lax.probes_needed(k));
        }
    }

    #[test]
    fn flow_labels_are_distinct_and_legal() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let l = flow_label(i);
            assert_ne!(l, 0xffff);
            seen.insert(l);
        }
        assert!(seen.len() > 900, "labels should rarely collide");
    }

    fn try_active_dst(s: &netsim::Scenario) -> Result<Addr, crate::ProbeError> {
        for b in s.network.allocated_blocks() {
            let t = &s.truth.blocks[&b];
            let pop = &s.truth.pops[t.pop as usize];
            // Per-flow last-hop balancing lets one address legitimately see
            // several last-hops; these tests assert the pinned-LH behavior,
            // so pick a destination behind a per-destination-style PoP.
            if !t.homogeneous || !pop.responsive || pop.lasthop_policy == netsim::LbPolicy::PerFlow
            {
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
        try_active_dst(s).expect("tiny scenario has a pinned-LH active destination")
    }

    #[test]
    fn enumerate_paths_finds_per_flow_diversity() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mda = enumerate_paths(&mut p, dst, 64);
        assert!(mda.reached);
        // Topology has 3-way per-flow ECMP at the gateway and 2-way in the
        // AS, so several distinct per-flow paths must exist.
        assert!(
            mda.paths.len() >= 2,
            "found {} paths: {:?}",
            mda.paths.len(),
            mda.paths
        );
        // All flows to one destination share the same last-hop router
        // (the agg→LH stage balances per destination, not per flow).
        assert_eq!(mda.lasthops().len(), 1);
    }

    #[test]
    fn enumerate_paths_is_superset_of_single_trace() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let single = paris_traceroute(&mut p, dst, flow_label(0));
        let mda = enumerate_paths(&mut p, dst, 64);
        assert!(
            mda.paths.iter().any(|q| q.matches(&single.path)),
            "MDA must rediscover the single-flow path"
        );
    }

    #[test]
    fn enumerate_hop_sees_gateway_fan() {
        // TTL 3 is the plane gateway (per-destination: one interface per
        // destination); TTL 4 is the plane's transit layer (3-way per-flow
        // ECMP, so flow variation reveals all three).
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let plane = enumerate_hop(&mut p, dst, 3, 64, None);
        assert_eq!(
            plane.interfaces.len(),
            1,
            "per-dest plane is flow-stable: {plane:?}"
        );
        let transit = enumerate_hop(&mut p, dst, 4, 64, None);
        assert_eq!(transit.interfaces.len(), 3, "transit fan is 3: {transit:?}");
        assert!(!transit.echoed);
    }

    #[test]
    fn enumerate_hop_detects_overshoot() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let hop = enumerate_hop(&mut p, dst, 30, 32, None);
        assert!(hop.echoed, "TTL 30 overshoots an 9-hop destination");
        assert!(hop.interfaces.is_empty());
    }

    #[test]
    fn enumerate_hop_single_interface_uses_six_probes() {
        // The campus router (TTL 1) is a single interface: the rule should
        // stop after exactly n(1) = 6 probes.
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let hop = enumerate_hop(&mut p, dst, 1, 64, None);
        assert_eq!(hop.interfaces.len(), 1);
        assert_eq!(hop.probes, 6);
    }

    #[test]
    fn probes_needed_zero_short_circuits_to_one() {
        // Regression: k = 0 used to panic on the assert. Before anything is
        // observed there is no (k+1)-th-outcome hypothesis to reject, so a
        // single probe settles it — and the table stays monotone from 0.
        let rule = StoppingRule::CONFIDENCE95;
        assert_eq!(rule.probes_needed(0), 1);
        assert!(rule.probes_needed(0) < rule.probes_needed(1));
        let strict = StoppingRule { alpha: 0.001 };
        assert_eq!(strict.probes_needed(0), 1, "alpha-independent at k = 0");
    }

    #[test]
    fn lite_singleton_diamond_stops_after_one_reply() {
        // TTL 1 is the single campus router. The first lite call pays the
        // full classic ladder to confirm the diamond; the second call on a
        // sibling destination stops after one confirming reply.
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mut state = MdaLiteState::new();
        let first = enumerate_hop(&mut p, dst, 1, 64, Some(&mut state));
        assert_eq!(first.probes, 6, "first destination pays the full ladder");
        assert!(state.is_confirmed());
        assert_eq!(state.diamonds_detected, 1);
        let second = enumerate_hop(&mut p, dst, 1, 64, Some(&mut state));
        assert_eq!(second.interfaces, first.interfaces);
        assert_eq!(second.probes, 1, "singleton diamond needs one reply");
        assert_eq!(state.probes_saved, 5);
        assert_eq!(state.escalations, 0);
    }

    #[test]
    fn lite_per_flow_diamond_reports_full_membership() {
        // TTL 4 is the 3-way per-flow transit fan. Once a full ladder has
        // confirmed all three members, a later destination re-identifies
        // the diamond from two distinct members and reports the whole fan.
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mut state = MdaLiteState::new();
        let first = enumerate_hop(&mut p, dst, 4, 64, Some(&mut state));
        assert_eq!(first.interfaces.len(), 3);
        let second = enumerate_hop(&mut p, dst, 4, 64, Some(&mut state));
        assert_eq!(second.interfaces, first.interfaces, "full fan reported");
        assert!(
            second.probes < first.probes,
            "lite re-identification must be cheaper: {} vs {}",
            second.probes,
            first.probes
        );
        assert!(state.probes_saved > 0);
    }

    #[test]
    fn lite_escalates_on_evidence_outside_the_diamond() {
        // Confirm a singleton diamond at TTL 1, then probe the TTL-4 fan
        // with the same state: every reply is outside the diamond, so the
        // call must escalate, run the classic ladder, and extend the
        // diamond — never report a stale membership.
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mut state = MdaLiteState::new();
        let campus = enumerate_hop(&mut p, dst, 1, 64, Some(&mut state));
        assert_eq!(campus.interfaces.len(), 1);
        let lite = enumerate_hop(&mut p, dst, 4, 64, Some(&mut state));
        drop(p);
        let mut q = Prober::new(&s.network, 4);
        let classic = enumerate_hop(&mut q, dst, 4, 64, None);
        assert_eq!(lite.interfaces, classic.interfaces, "escalation = classic");
        assert_eq!(state.escalations, 1);
        for a in &classic.interfaces {
            assert!(state.diamond().contains(a), "diamond extends on escalation");
        }
    }

    #[test]
    fn lite_hop_never_probes_more_than_classic() {
        // Escalation only removes the early exit, so per hop call lite is
        // structurally ≤ classic. Check it empirically across TTLs.
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        for ttl in 1..=8u8 {
            let mut state = MdaLiteState::new();
            let mut p = Prober::new(&s.network, 3);
            let _confirm = enumerate_hop(&mut p, dst, ttl, 64, Some(&mut state));
            let lite = enumerate_hop(&mut p, dst, ttl, 64, Some(&mut state));
            drop(p);
            let mut q = Prober::new(&s.network, 3);
            let _warm = enumerate_hop(&mut q, dst, ttl, 64, None);
            let classic = enumerate_hop(&mut q, dst, ttl, 64, None);
            assert!(
                lite.probes <= classic.probes,
                "ttl {ttl}: lite {} > classic {}",
                lite.probes,
                classic.probes
            );
        }
    }

    #[test]
    fn unconfirmed_lite_state_runs_the_classic_ladder() {
        // Until a full ladder confirms a diamond, a lite call is the
        // classic one: same probes on the wire, same result. Two copies of
        // the world (pristine and lossy) keep the two probe streams apart.
        for faults in [None, Some(netsim::FaultConfig::lossy(0.05, 0.5))] {
            let world = || {
                let mut s = build(ScenarioConfig::tiny(42));
                if let Some(f) = faults {
                    s.network.set_faults(f);
                }
                s
            };
            let (a, b) = (world(), world());
            let dst = active_dst(&a);
            let mut classic = Prober::new(&a.network, 3);
            let mut lite = Prober::new(&b.network, 3);
            for ttl in (1..=10u8).chain([30]) {
                let mut state = MdaLiteState::new();
                let c = enumerate_hop(&mut classic, dst, ttl, 64, None);
                let l = enumerate_hop(&mut lite, dst, ttl, 64, Some(&mut state));
                assert_eq!(l.probes, c.probes, "ttl {ttl}");
                assert_eq!(l.interfaces, c.interfaces, "ttl {ttl}");
                assert_eq!(l.timeouts, c.timeouts, "ttl {ttl}");
                assert_eq!(l.echoed, c.echoed, "ttl {ttl}");
                assert_eq!(state.escalations, 0, "ttl {ttl}");
                assert_eq!(state.probes_saved, 0, "ttl {ttl}");
                // Sequence numbers and IP idents advance once per attempt,
                // so equal attempt counts mean equal wire sequences.
                assert_eq!(lite.probes_sent(), classic.probes_sent(), "ttl {ttl}");
                assert_eq!(lite.rtt_total_us(), classic.rtt_total_us(), "ttl {ttl}");
                assert_eq!(b.network.net_stats(), a.network.net_stats(), "ttl {ttl}");
            }
        }
    }

    #[test]
    fn detect_diamonds_finds_the_transit_fan() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mda = enumerate_paths(&mut p, dst, 64);
        let diamonds = detect_diamonds(&mda);
        assert!(!diamonds.is_empty(), "per-flow ECMP must form a diamond");
        for d in &diamonds {
            assert!(d.width >= 2);
            assert!(d.divergence < d.convergence);
        }
        // The tiny topology fans 3-way at the transit layer (TTL 4).
        assert!(
            diamonds
                .iter()
                .any(|d| d.divergence < 4 && 4 < d.convergence),
            "no diamond spans the TTL-4 transit fan: {diamonds:?}"
        );
    }

    #[test]
    fn detect_diamonds_is_invariant_under_path_permutation() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = active_dst(&s);
        let mut p = Prober::new(&s.network, 3);
        let mut mda = enumerate_paths(&mut p, dst, 64);
        let base = detect_diamonds(&mda);
        mda.paths.reverse();
        assert_eq!(detect_diamonds(&mda), base);
        // Rotate as a second, non-reversal permutation.
        if mda.paths.len() > 1 {
            let head = mda.paths.remove(0);
            mda.paths.push(head);
            assert_eq!(detect_diamonds(&mda), base);
        }
    }
}
