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
//! 4. run node-level MDA at the confirmed last-hop TTL to enumerate the
//!    interfaces with 95% confidence.

use crate::mda::{
    enumerate_hop, enumerate_hop_lite, enumerate_hop_lite_core, MdaLiteState, StoppingRule,
};
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

/// Measure the last-hop router set of `dst`.
pub fn probe_lasthop(prober: &mut Prober<'_>, dst: Addr, rule: StoppingRule) -> LasthopProbe {
    probe_lasthop_in_mode(prober, dst, rule, None, None)
}

/// Like [`probe_lasthop`], with an optional last-hop-TTL `hint` and an
/// optional per-block MDA-Lite state.
///
/// A `hint` replaces the per-destination echo inference: addresses of one
/// /24 sit at the same hop distance, so after the first destination
/// resolves, its distance seeds the rest of the block — the adjustment loop
/// corrects a stale hint, so correctness is unaffected and the
/// per-destination echo round-trip is saved.
///
/// When `lite` is `Some`, the node-level enumeration at the confirmed
/// last-hop TTL runs under the MDA-Lite stopping discipline
/// ([`enumerate_hop_lite`]) against the block's diamond; `None` is the
/// classic ladder. The TTL adjustment walk is identical in both modes —
/// only the interface enumeration changes.
pub fn probe_lasthop_in_mode(
    prober: &mut Prober<'_>,
    dst: Addr,
    rule: StoppingRule,
    hint: Option<u8>,
    lite: Option<&mut MdaLiteState>,
) -> LasthopProbe {
    let before = prober.probes_sent();
    let outcome = probe_lasthop_inner(prober, dst, rule, hint, lite);
    LasthopProbe {
        dst,
        outcome,
        probes_used: prober.probes_sent() - before,
    }
}

fn probe_lasthop_inner(
    prober: &mut Prober<'_>,
    dst: Addr,
    rule: StoppingRule,
    hint: Option<u8>,
    mut lite: Option<&mut MdaLiteState>,
) -> LasthopOutcome {
    let mut est = match hint {
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
    let mut echo_checked = hint.is_none();
    loop {
        steps += 1;
        if steps > MAX_STEPS {
            return LasthopOutcome::Unresponsive;
        }
        let above = prober.probe(dst, est + 1, 1);
        match above.reply {
            ProbeReply::Echo { from, .. } if from == dst => {
                // MDA-Lite confirm skip: once the block's diamond (or its
                // anonymity) is confirmed at a stable distance with no
                // path-length jitter, the enumeration's own probes double
                // as the overestimate check — the dedicated at-TTL confirm
                // probe below is redundant and is skipped. An inconclusive
                // result (the destination echoed before any interface
                // answered) falls back to the classic confirm walk and
                // latches the block unstable, so the skip never re-arms on
                // evidence it cannot explain.
                if let Some(state) = lite.as_deref_mut() {
                    if state.can_skip_confirm(est + 1) {
                        let hop = enumerate_hop_lite_core(prober, dst, est, rule, 64, state, true);
                        state.observe_lasthop(est + 1, hop.echoed);
                        if !(hop.echoed && hop.interfaces.is_empty()) {
                            state.note_skip_saved();
                            return if hop.interfaces.is_empty() {
                                LasthopOutcome::AnonymousLasthop {
                                    dst_distance: est + 1,
                                }
                            } else {
                                LasthopOutcome::Found {
                                    lasthops: hop.interfaces,
                                    dst_distance: est + 1,
                                }
                            };
                        }
                    }
                }
                // Destination answers at est+1; check it does NOT answer at
                // est, otherwise the estimate is too high.
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
                    _ => {
                        // Confirmed: dst at est+1; enumerate hop `est`.
                        let hop = match lite.as_deref_mut() {
                            Some(state) => {
                                let h = enumerate_hop_lite(prober, dst, est, rule, 64, state);
                                state.observe_lasthop(est + 1, h.echoed);
                                h
                            }
                            None => enumerate_hop(prober, dst, est, rule, 64),
                        };
                        return if hop.interfaces.is_empty() {
                            LasthopOutcome::AnonymousLasthop {
                                dst_distance: est + 1,
                            }
                        } else {
                            LasthopOutcome::Found {
                                lasthops: hop.interfaces,
                                dst_distance: est + 1,
                            }
                        };
                    }
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
                // destination, churn — or, when running from a stale hint,
                // an unresponsive destination we never echo-tested. Check
                // responsiveness once before walking the whole TTL range.
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
        let r = probe_lasthop(&mut p, dst, StoppingRule::confidence95());
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
        let rule = StoppingRule::confidence95();
        // Resolve the first destination cold, then its neighbor with and
        // without the distance hint.
        let mut p = Prober::new(&f.scenario.network, 0x21);
        let first = probe_lasthop(&mut p, actives[0], rule);
        let LasthopOutcome::Found { dst_distance, .. } = first.outcome else {
            panic!("first destination should resolve");
        };
        let cold = probe_lasthop(&mut p, actives[1], rule);
        let hinted = probe_lasthop_in_mode(&mut p, actives[1], rule, Some(dst_distance - 1), None);
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
        let rule = StoppingRule::confidence95();
        let sweep = |net: &mut netsim::Network, lite: bool| {
            let mut p = Prober::new(net, 0x23);
            let mut state = MdaLiteState::new();
            let mut hint = None;
            let mut outcomes = Vec::new();
            let mut probes = 0u64;
            for &dst in actives.iter().take(4) {
                let r = probe_lasthop_in_mode(
                    &mut p,
                    dst,
                    rule,
                    hint,
                    if lite { Some(&mut state) } else { None },
                );
                if let LasthopOutcome::Found { dst_distance, .. } = &r.outcome {
                    hint = Some(dst_distance - 1);
                }
                probes += r.probes_used;
                outcomes.push(r.outcome);
            }
            (outcomes, probes, state.probes_saved)
        };
        let (classic, classic_probes, _) = sweep(&mut f.scenario.network, false);
        let (lite, lite_probes, saved) = sweep(&mut f.scenario.network, true);
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
        let r = probe_lasthop_in_mode(
            &mut p,
            blk.addr(0),
            StoppingRule::confidence95(),
            Some(8),
            None,
        );
        assert_eq!(r.outcome, LasthopOutcome::Unresponsive);
        assert!(r.probes_used <= 8, "used {} probes", r.probes_used);
    }

    #[test]
    fn lasthop_probing_is_cheaper_than_full_traceroute() {
        let f = Fixture::new();
        let blk = f.responsive_block();
        let dst = f.actives(blk)[0];
        let mut p = Prober::new(&f.scenario.network, 11);
        let r = probe_lasthop(&mut p, dst, StoppingRule::confidence95());
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
        let r = probe_lasthop(&mut p, dst, StoppingRule::confidence95());
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
        let r = probe_lasthop(&mut p, blk.addr(0), StoppingRule::confidence95());
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
            let r = probe_lasthop(&mut p, dst, StoppingRule::confidence95());
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
