//! The efficient last-hop prober (paper Section 3.4).
//!
//! Hobbit only needs each destination's *last-hop router*, not the whole
//! route, so probing every TTL would be wasteful. Instead:
//!
//! 1. send one echo and read the reply's remaining TTL;
//! 2. infer the host's OS default TTL by binning (<64 → 64, <128 → 128,
//!    <192 → 192, else 255) and estimate the hop count;
//! 3. probe at the estimated last-hop TTL. If the destination itself
//!    echoes, the estimate was too high — halve it and retry (custom
//!    default TTLs and asymmetric reverse paths cause this). If a router
//!    answers, walk forward until the destination echoes;
//! 4. run node-level MDA ([`enumerate_hop`]) at the confirmed last-hop TTL
//!    to enumerate the interfaces with 95% confidence.
//!
//! A [`LasthopWalker`] runs these steps for the destinations of one /24,
//! in turn. Destinations of a /24 sit at one hop distance, so the first
//! resolved distance replaces steps 1–2 for the rest of the block; under
//! [`MdaMode::Lite`] the walker also carries the block's MDA-Lite diamond.

use crate::mda::{enumerate_hop, HopInterfaces, MdaLiteState, MdaMode};
use crate::prober::{ProbeReply, Prober};
use netsim::Addr;
use serde::{Deserialize, Serialize};

/// Infer an OS default TTL from a reply's remaining TTL (paper §3.4).
pub fn infer_default_ttl(ttl_res: u8) -> u8 {
    if ttl_res < 64 {
        64
    } else if ttl_res < 128 {
        128
    } else if ttl_res < 192 {
        192
    } else {
        255
    }
}

/// What the last-hop prober learned about one destination.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LasthopOutcome {
    /// The destination's last-hop router interfaces (node-level MDA set).
    Found {
        /// Distinct last-hop interfaces, sorted.
        lasthops: Vec<Addr>,
        /// Hop distance of the destination.
        dst_distance: u8,
    },
    /// The destination echoes but its last-hop router never answers.
    AnonymousLasthop {
        /// Hop distance of the destination.
        dst_distance: u8,
    },
    /// The destination did not answer echo probes.
    Unresponsive,
}

/// A last-hop measurement plus its cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LasthopProbe {
    /// The destination probed.
    pub dst: Addr,
    /// The measurement outcome.
    pub outcome: LasthopOutcome,
    /// Probe packets spent on this destination.
    pub probes_used: u64,
}

/// Upper bound on adjustment iterations (halvings + forward steps).
const MAX_STEPS: usize = 48;

/// The last-hop walk over the destinations of one /24: the hop-distance
/// hint the block's resolved destinations leave, and under
/// [`MdaMode::Lite`] the block's [`MdaLiteState`].
///
/// A fresh walker sends the per-destination echo (steps 1–2); once a
/// destination resolves, its distance seeds the next one instead. The TTL
/// adjustment loop corrects a stale hint, so the hint only saves the echo
/// round-trip. Under MDA-Lite the enumeration at the confirmed last-hop
/// TTL stops on the block's diamond, and once the block's distance is
/// stable the walk skips its confirm probe. Call [`LasthopWalker::finish`]
/// after the block's last destination to report the MDA-Lite accounting.
#[derive(Debug)]
pub struct LasthopWalker {
    hint: Option<u8>,
    lite: Option<MdaLiteState>,
}

impl LasthopWalker {
    /// A walker for one /24, before any of its destinations is probed.
    pub fn new(mode: MdaMode) -> Self {
        let lite = match mode {
            MdaMode::Lite => Some(MdaLiteState::new()),
            MdaMode::Classic => None,
        };
        LasthopWalker { hint: None, lite }
    }

    /// Measure the last-hop router set of `dst`. A destination whose
    /// distance resolves seeds the hint for the next one.
    pub fn probe(&mut self, prober: &mut Prober<'_>, dst: Addr) -> LasthopProbe {
        let before = prober.probes_sent();
        let outcome = self.walk(prober, dst);
        if let LasthopOutcome::Found { dst_distance, .. }
        | LasthopOutcome::AnonymousLasthop { dst_distance } = &outcome
        {
            self.hint = Some(dst_distance.saturating_sub(1).max(1));
        }
        LasthopProbe {
            dst,
            outcome,
            probes_used: prober.probes_sent() - before,
        }
    }

    /// Report the block's MDA-Lite accounting through `prober`'s metrics
    /// (nothing under the classic ladder).
    pub fn finish(self, prober: &Prober<'_>) {
        if let Some(state) = &self.lite {
            prober.note_mda_lite(
                state.probes_saved,
                state.diamonds_detected,
                state.escalations,
            );
        }
    }

    fn walk(&mut self, prober: &mut Prober<'_>, dst: Addr) -> LasthopOutcome {
        let mut est = match self.hint {
            Some(d) => d.clamp(1, 38),
            None => {
                // Step 1-2: hop-count inference from one echo.
                let first = prober.probe(dst, 64, 0);
                let ProbeReply::Echo { ttl: ttl_res, .. } = first.reply else {
                    return LasthopOutcome::Unresponsive;
                };
                let default = infer_default_ttl(ttl_res);
                default.saturating_sub(ttl_res).clamp(1, 38)
            }
        };

        // Step 3: adjust the estimate. Invariant sought: TimeExceeded (or
        // silence from an anonymous router) at `est`, echo at `est + 1`.
        let mut steps = 0usize;
        let mut echo_checked = self.hint.is_none();
        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return LasthopOutcome::Unresponsive;
            }
            let above = prober.probe(dst, est + 1, 1);
            match above.reply {
                ProbeReply::Echo { from, .. } if from == dst => {
                    // MDA-Lite confirm skip: once the block's diamond (or
                    // its anonymity) is confirmed at a stable distance with
                    // no path-length jitter, the enumeration's own probes
                    // double as the overestimate check — the dedicated
                    // at-TTL confirm probe below is redundant and is
                    // skipped. An inconclusive result (the destination
                    // echoed before any interface answered) falls back to
                    // the classic confirm walk and latches the block
                    // unstable, so the skip never re-arms on evidence it
                    // cannot explain.
                    if self
                        .lite
                        .as_ref()
                        .is_some_and(|s| s.can_skip_confirm(est + 1))
                    {
                        let hop = self.enumerate(prober, dst, est);
                        if !(hop.echoed && hop.interfaces.is_empty()) {
                            if let Some(state) = &mut self.lite {
                                state.note_skip_saved();
                            }
                            return settled(hop, est + 1);
                        }
                    }
                    // Destination answers at est+1; check it does NOT
                    // answer at est, otherwise the estimate is too high.
                    let at = prober.probe(dst, est, 2);
                    match at.reply {
                        ProbeReply::Echo { from, .. } if from == dst => {
                            // Overestimate: halve, per the paper.
                            if est <= 1 {
                                // The destination appears adjacent to the
                                // vantage; there is no observable last hop.
                                return LasthopOutcome::AnonymousLasthop { dst_distance: 1 };
                            }
                            est /= 2;
                            est = est.max(1);
                        }
                        // Confirmed: dst at est+1; enumerate hop `est`.
                        _ => return settled(self.enumerate(prober, dst, est), est + 1),
                    }
                }
                ProbeReply::TimeExceeded { .. } | ProbeReply::Unreachable { .. } => {
                    // Underestimate: the router path continues past est+1.
                    if est >= 38 {
                        return LasthopOutcome::Unresponsive;
                    }
                    est += 1;
                }
                _ => {
                    // Silence at est+1: could be an anonymous hop below the
                    // destination, churn — or, when running from a stale
                    // hint, an unresponsive destination we never
                    // echo-tested. Check responsiveness once before walking
                    // the whole TTL range.
                    if !echo_checked {
                        echo_checked = true;
                        let echo = prober.probe(dst, 64, 3);
                        if !matches!(echo.reply, ProbeReply::Echo { from, .. } if from == dst) {
                            return LasthopOutcome::Unresponsive;
                        }
                    }
                    if est >= 38 {
                        return LasthopOutcome::Unresponsive;
                    }
                    est += 1;
                }
            }
        }
    }

    /// Node-level MDA at the last-hop TTL `ttl`; under MDA-Lite the block's
    /// diamond also learns the destination's distance.
    fn enumerate(&mut self, prober: &mut Prober<'_>, dst: Addr, ttl: u8) -> HopInterfaces {
        let hop = enumerate_hop(prober, dst, ttl, 64, self.lite.as_mut());
        if let Some(state) = &mut self.lite {
            state.observe_lasthop(ttl + 1, hop.echoed);
        }
        hop
    }
}

/// The outcome of an enumeration at the hop before a destination `dst_distance` away.
fn settled(hop: HopInterfaces, dst_distance: u8) -> LasthopOutcome {
    if hop.interfaces.is_empty() {
        LasthopOutcome::AnonymousLasthop { dst_distance }
    } else {
        LasthopOutcome::Found {
            lasthops: hop.interfaces,
            dst_distance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};
    use netsim::Block24;

    #[test]
    fn default_ttl_bins_match_the_paper() {
        assert_eq!(infer_default_ttl(55), 64);
        assert_eq!(infer_default_ttl(63), 64);
        assert_eq!(infer_default_ttl(64), 128);
        assert_eq!(infer_default_ttl(120), 128);
        assert_eq!(infer_default_ttl(128), 192);
        assert_eq!(infer_default_ttl(191), 192);
        assert_eq!(infer_default_ttl(192), 255);
        assert_eq!(infer_default_ttl(250), 255);
    }

    struct Fixture {
        scenario: netsim::Scenario,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                scenario: build(ScenarioConfig::tiny(42)),
            }
        }

        fn responsive_block(&self) -> Block24 {
            let epoch = self.scenario.network.epoch();
            *self
                .scenario
                .network
                .allocated_blocks()
                .iter()
                .find(|b| {
                    let t = &self.scenario.truth.blocks[b];
                    let pop = &self.scenario.truth.pops[t.pop as usize];
                    let profile = *self.scenario.network.block_profile(**b).unwrap();
                    t.homogeneous
                        && pop.responsive
                        // These tests assume the one-LH-per-destination
                        // pinning; per-flow PoPs fan out and cost more.
                        && pop.lasthop_policy != netsim::LbPolicy::PerFlow
                        && profile.density > 0.3
                        // Block outages can empty a /24 at probe epochs;
                        // these tests need live destinations.
                        && self
                            .scenario
                            .network
                            .oracle()
                            .active_in_block(**b, &profile, epoch)
                            .len()
                            >= 2
                })
                .expect("responsive dense block")
        }

        fn unresponsive_block(&self) -> Option<Block24> {
            let epoch = self.scenario.network.epoch();
            self.scenario
                .network
                .allocated_blocks()
                .iter()
                .copied()
                .find(|b| {
                    let t = &self.scenario.truth.blocks[b];
                    let profile = *self.scenario.network.block_profile(*b).unwrap();
                    t.homogeneous
                        && !self.scenario.truth.pops[t.pop as usize].responsive
                        && !self
                            .scenario
                            .network
                            .oracle()
                            .active_in_block(*b, &profile, epoch)
                            .is_empty()
                })
        }

        fn actives(&self, b: Block24) -> Vec<Addr> {
            let p = *self.scenario.network.block_profile(b).unwrap();
            self.scenario
                .network
                .oracle()
                .active_in_block(b, &p, self.scenario.network.epoch())
        }
    }

    #[test]
    fn finds_true_lasthop() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let dst = f.actives(blk)[0];
        let truth = &f.scenario.truth;
        let pop = &truth.pops[truth.blocks[&blk].pop as usize];
        let expected = pop.lasthop_addrs.clone();
        let mut p = Prober::new(&f.scenario.network, 11);
        let r = LasthopWalker::new(MdaMode::Classic).probe(&mut p, dst);
        match r.outcome {
            LasthopOutcome::Found {
                lasthops,
                dst_distance,
            } => {
                assert_eq!(dst_distance, 9);
                // Per-destination balancing pins one LH per destination;
                // the observed set must be a subset of the PoP's routers.
                assert!(!lasthops.is_empty());
                for lh in &lasthops {
                    assert!(expected.contains(lh), "{lh} not in PoP {expected:?}");
                }
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn distance_hint_saves_probes_without_changing_the_outcome() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let actives = f.actives(blk);
        assert!(actives.len() >= 2);
        // Resolve the first destination cold, then its neighbor with and
        // without the distance hint.
        let mut p = Prober::new(&f.scenario.network, 0x21);
        let mut block = LasthopWalker::new(MdaMode::Classic);
        let first = block.probe(&mut p, actives[0]);
        let LasthopOutcome::Found { dst_distance, .. } = first.outcome else {
            panic!("first destination should resolve");
        };
        let cold = LasthopWalker::new(MdaMode::Classic).probe(&mut p, actives[1]);
        assert_eq!(block.hint, Some(dst_distance - 1));
        let hinted = block.probe(&mut p, actives[1]);
        assert_eq!(cold.outcome, hinted.outcome, "hint must not change results");
        assert!(
            hinted.probes_used < cold.probes_used,
            "hint should save probes: {} vs {}",
            hinted.probes_used,
            cold.probes_used
        );
    }

    #[test]
    fn lite_mode_agrees_with_classic_and_saves_probes() {
        // Same destinations, same hints: the lite sweep must produce the
        // same outcomes while spending strictly fewer probes from the
        // second destination on (the first pays the diamond-confirming
        // classic ladder in both modes).
        let mut f = Fixture::new();
        let blk = f.responsive_block();
        let actives = f.actives(blk);
        assert!(actives.len() >= 2);
        let sweep = |net: &mut netsim::Network, mode: MdaMode| {
            let mut p = Prober::new(net, 0x23);
            let mut walker = LasthopWalker::new(mode);
            let mut outcomes = Vec::new();
            let mut probes = 0u64;
            for &dst in actives.iter().take(4) {
                let r = walker.probe(&mut p, dst);
                probes += r.probes_used;
                outcomes.push(r.outcome);
            }
            (outcomes, probes, walker.lite.map_or(0, |s| s.probes_saved))
        };
        let (classic, classic_probes, _) = sweep(&mut f.scenario.network, MdaMode::Classic);
        let (lite, lite_probes, saved) = sweep(&mut f.scenario.network, MdaMode::Lite);
        assert_eq!(lite, classic, "lite must not change lasthop outcomes");
        assert!(
            lite_probes < classic_probes,
            "lite should save probes: {lite_probes} vs {classic_probes}"
        );
        assert!(saved > 0, "savings must be accounted");
    }

    #[test]
    fn hinted_probe_detects_unresponsive_destination_cheaply() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let mut p = Prober::new(&f.scenario.network, 0x22);
        // .0 hosts nobody; a stale hint must not trigger a full TTL walk.
        let mut walker = LasthopWalker {
            hint: Some(8),
            lite: None,
        };
        let r = walker.probe(&mut p, blk.addr(0));
        assert_eq!(r.outcome, LasthopOutcome::Unresponsive);
        assert!(r.probes_used <= 8, "used {} probes", r.probes_used);
    }

    #[test]
    fn lasthop_probing_is_cheaper_than_full_traceroute() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let dst = f.actives(blk)[0];
        let mut p = Prober::new(&f.scenario.network, 11);
        let r = LasthopWalker::new(MdaMode::Classic).probe(&mut p, dst);
        assert!(matches!(r.outcome, LasthopOutcome::Found { .. }));
        // Full path is 9 hops; node MDA over every hop would need ≥ 9×6
        // probes. The shortcut should use far fewer.
        assert!(
            r.probes_used < 30,
            "last-hop probing used {} probes",
            r.probes_used
        );
    }

    #[test]
    fn anonymous_pop_reports_anonymous_lasthop() {
        let f = Fixture::new();
        let Some(blk) = f.unresponsive_block() else {
            // Tiny scenarios may not draw an unresponsive PoP; skip.
            return;
        };
        let dst = f.actives(blk)[0];
        let mut p = Prober::new(&f.scenario.network, 11);
        let r = LasthopWalker::new(MdaMode::Classic).probe(&mut p, dst);
        assert!(
            matches!(r.outcome, LasthopOutcome::AnonymousLasthop { .. }),
            "got {:?}",
            r.outcome
        );
    }

    #[test]
    fn dead_address_is_unresponsive() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let mut p = Prober::new(&f.scenario.network, 11);
        let r = LasthopWalker::new(MdaMode::Classic).probe(&mut p, blk.addr(0));
        assert_eq!(r.outcome, LasthopOutcome::Unresponsive);
    }

    #[test]
    fn handles_custom_default_ttls() {
        // Probe many addresses across blocks with MixedWithCustom TTLs;
        // every responsive destination must still resolve.
        let s = build(ScenarioConfig::tiny(7));
        let blocks: Vec<Block24> = s
            .network
            .allocated_blocks()
            .into_iter()
            .filter(|b| {
                let t = &s.truth.blocks[b];
                t.homogeneous && s.truth.pops[t.pop as usize].responsive
            })
            .take(6)
            .collect();
        let epoch = s.network.epoch();
        let mut targets = Vec::new();
        for b in blocks {
            let p = *s.network.block_profile(b).unwrap();
            targets.extend(
                s.network
                    .oracle()
                    .active_in_block(b, &p, epoch)
                    .into_iter()
                    .take(3),
            );
        }
        let mut p = Prober::new(&s.network, 11);
        for dst in targets {
            let r = LasthopWalker::new(MdaMode::Classic).probe(&mut p, dst);
            assert!(
                matches!(
                    r.outcome,
                    LasthopOutcome::Found { .. } | LasthopOutcome::AnonymousLasthop { .. }
                ),
                "dst {dst}: {:?}",
                r.outcome
            );
        }
    }
}
