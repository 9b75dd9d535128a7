//! Low-level prober: sends single probes through the simulated network and
//! parses responses, with retry handling.
//!
//! All higher-level tools (ZMap scan, ping, traceroute, MDA) are built on
//! [`Prober::probe`]. A prober borrows the network shared (`&Network`;
//! [`Network::exchange`] takes `&self`), so the scan, classification and
//! reprobe workers each hold one inside their scoped threads. Each probe is
//! encoded into a stack array and its reply parsed from the network's stack
//! [`Packet`], so the probe path does no heap allocation.

use crate::cancel::CancelToken;
use crate::lasthop::infer_default_ttl;
use netsim::forward::probe_packet;
use netsim::wire::{
    IcmpEcho, IcmpError, Ipv4Header, ICMP_ECHO_REPLY, ICMP_TIME_EXCEEDED, IPV4_HEADER_LEN,
};
use netsim::{Addr, Block24, Network, Packet, Reply, PROBE_LEN};
use obs::{Counter, Histogram, Recorder};

/// Parsed outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeReply {
    /// The destination answered with an echo reply carrying this IP TTL.
    Echo {
        /// Responding address (should be the probed destination).
        from: Addr,
        /// The remaining TTL in the reply's IP header (for hop inference).
        ttl: u8,
    },
    /// A router reported TTL exceeded.
    TimeExceeded {
        /// The router interface that sourced the error.
        from: Addr,
    },
    /// A router reported the destination unreachable.
    Unreachable {
        /// The router interface that sourced the error.
        from: Addr,
    },
    /// No response within the timeout.
    Timeout,
}

impl ProbeReply {
    /// Whether this is any response at all.
    pub fn responded(&self) -> bool {
        !matches!(self, ProbeReply::Timeout)
    }
}

/// Result of one probe: the parsed reply plus the measured RTT.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResult {
    /// What came back.
    pub reply: ProbeReply,
    /// Round-trip time (or the timeout budget), microseconds.
    pub rtt_us: u64,
}

/// Pre-interned observability handles for a prober — one bump of the
/// calling thread's stripe per event, no registry lookups in the probe
/// path. Several probers (e.g. all classification workers) may share one
/// set of handles: the counters then aggregate across them, which is
/// exactly what the metrics document wants, while each prober's own
/// `probes_sent()`-style accessors stay per-prober.
#[derive(Clone, Debug)]
pub struct ProbeObs {
    /// `probe.sent` — probe packets sent (including retries).
    pub probes_sent: Counter,
    /// `probe.drops` — attempts that got no answer.
    pub drops: Counter,
    /// `probe.retries` — retries spent.
    pub retries: Counter,
    /// `probe.rtt_us` — per-probe round-trip time, microseconds.
    pub rtt_us: Histogram,
    /// `probe.mda_lite.probes_saved` — probes the MDA-Lite stopping rules
    /// skipped relative to the classic ladder (lower bound).
    pub mda_lite_saved: Counter,
    /// `probe.mda_lite.diamonds` — last-hop diamonds confirmed.
    pub mda_lite_diamonds: Counter,
    /// `probe.mda_lite.escalations` — escalations back to classic MDA on
    /// inconsistent flow-label evidence.
    pub mda_lite_escalations: Counter,
    /// The ledger of the phase these probers work for.
    pub ledger: ProbeLedger,
}

impl ProbeObs {
    /// Intern the standard probe metrics in `rec`, with the ledger of
    /// `phase` (see [`ProbeLedger::bind`]).
    pub fn bind(rec: &dyn Recorder, phase: &str) -> Self {
        ProbeObs {
            probes_sent: rec.counter("probe.sent"),
            drops: rec.counter("probe.drops"),
            retries: rec.counter("probe.retries"),
            rtt_us: rec.histogram("probe.rtt_us"),
            mda_lite_saved: rec.counter("probe.mda_lite.probes_saved"),
            mda_lite_diamonds: rec.counter("probe.mda_lite.diamonds"),
            mda_lite_escalations: rec.counter("probe.mda_lite.escalations"),
            ledger: ProbeLedger::bind(rec, phase),
        }
    }
}

/// One phase's probe spend, `probe.<phase>.*`: what it sent, what came
/// back, and what its retries bought. Every probe belongs to exactly one
/// phase, so over a run the phases' `sent` sum to the probes the network
/// carried, and in each phase `sent = answered + silent`.
#[derive(Clone, Debug)]
pub struct ProbeLedger {
    /// `probe.<phase>.sent` — probe packets sent (including retries).
    pub sent: Counter,
    /// `probe.<phase>.answered` — attempts that got any answer.
    pub answered: Counter,
    /// `probe.<phase>.silent` — attempts that got none.
    pub silent: Counter,
    /// `probe.<phase>.retry_recovered` — retries that got an answer.
    pub retry_recovered: Counter,
    /// `probe.<phase>.retry_wasted` — retries that timed out too.
    pub retry_wasted: Counter,
    /// `probe.<phase>.retry_withheld` — silences that would have been
    /// retried but for what the stream has shown (see [`Prober::probe`]).
    pub retry_withheld: Counter,
    /// `probe.<phase>.backoff_us` — simulated wait before the phase's
    /// retries, microseconds.
    pub backoff_us: Counter,
}

impl ProbeLedger {
    /// Intern the ledger of `phase` — `scan`, `calibrate`, `classify` or
    /// `reprobe` in a pipeline run — in `rec`.
    pub fn bind(rec: &dyn Recorder, phase: &str) -> Self {
        let counter = |name: &str| rec.counter(&format!("probe.{phase}.{name}"));
        ProbeLedger {
            sent: counter("sent"),
            answered: counter("answered"),
            silent: counter("silent"),
            retry_recovered: counter("retry_recovered"),
            retry_wasted: counter("retry_wasted"),
            retry_withheld: counter("retry_withheld"),
            backoff_us: counter("backoff_us"),
        }
    }
}

/// A measurement process bound to a network.
///
/// Tracks the probes it sends (the paper reports measurement loads; Figure
/// 11 is a probing-cost comparison) and allocates sequence numbers and
/// IP idents so retries are distinguishable on the wire.
pub struct Prober<'n> {
    net: &'n Network,
    icmp_ident: u16,
    seq: u16,
    ip_ident: u16,
    probes_sent: u64,
    rtt_sum_us: u64,
    /// Source address probes are sent from (a registered vantage).
    source: Addr,
    /// Retries after a timeout before giving up on a probe.
    pub retries: u32,
    /// Retries this prober may still spend: starts at
    /// [`DEFAULT_RETRY_BUDGET`], and at zero probes get a single attempt
    /// regardless of [`Prober::retries`].
    retry_budget: u64,
    /// Attempts that got no answer (each timed-out attempt, incl. retries).
    drops: u64,
    /// Retries actually spent.
    retries_used: u64,
    /// Retries that got an answer; the rest of `retries_used` timed out.
    retries_recovered: u64,
    /// Total simulated backoff wait, microseconds.
    backoff_us: u64,
    /// What the current stream has shown of itself; decides which
    /// silences are retried.
    evidence: Evidence,
    /// Shared metric handles mirroring the per-prober accounting.
    obs: Option<ProbeObs>,
    /// Cooperative cancellation: once raised, retries stop immediately and
    /// new probe calls return [`ProbeReply::Timeout`] without touching the
    /// wire, so a supervised measurement unwinds in bounded time.
    cancel: CancelToken,
}

/// The TTL of a plain echo. The method sends one only to destinations the
/// snapshot saw answer, so a silent one is echo-class by itself.
const ECHO_TTL: u8 = 64;

/// Lifetime retry budget of every prober: generous for ordinary runs,
/// finite so a pathological loss regime cannot balloon probe counts
/// unboundedly.
pub const DEFAULT_RETRY_BUDGET: u64 = 1 << 16;
/// First-retry backoff (100 ms, the classic ping interval).
pub const DEFAULT_BACKOFF_BASE_US: u64 = 100_000;
/// Backoff ceiling (1.6 s = base doubled four times).
pub const DEFAULT_BACKOFF_CAP_US: u64 = 1_600_000;

/// Wait before retry number `retry_index` (1-based):
/// [`DEFAULT_BACKOFF_BASE_US`] doubled per retry, capped at
/// [`DEFAULT_BACKOFF_CAP_US`]. Public because the storage retry machinery
/// in the experiments crate deliberately reuses the prober's backoff.
pub fn backoff_delay(retry_index: u32) -> u64 {
    let shift = retry_index.saturating_sub(1).min(16);
    DEFAULT_BACKOFF_BASE_US
        .saturating_mul(1u64 << shift)
        .min(DEFAULT_BACKOFF_CAP_US)
}

impl<'n> Prober<'n> {
    /// Create a prober over a network, sourcing probes from its primary
    /// vantage. `icmp_ident` distinguishes concurrent measurement
    /// processes.
    pub fn new(net: &'n Network, icmp_ident: u16) -> Self {
        Prober::from_vantage(net, icmp_ident, net.vantage_addr())
    }

    /// Create a prober bound to a non-primary vantage point (which must be
    /// registered on the network, see [`Network::add_vantage`]).
    ///
    /// [`Network::add_vantage`]: netsim::Network::add_vantage
    pub fn from_vantage(net: &'n Network, icmp_ident: u16, source: Addr) -> Self {
        Prober {
            net,
            icmp_ident,
            seq: 0,
            ip_ident: 0,
            probes_sent: 0,
            rtt_sum_us: 0,
            source,
            retries: 1,
            retry_budget: DEFAULT_RETRY_BUDGET,
            drops: 0,
            retries_used: 0,
            retries_recovered: 0,
            backoff_us: 0,
            evidence: Evidence::default(),
            obs: None,
            cancel: CancelToken::default(),
        }
    }

    /// The source address this prober stamps on probes.
    pub fn source(&self) -> Addr {
        self.source
    }

    /// Mirror this prober's accounting into pre-interned metric handles
    /// from now on. Workers share one [`ProbeObs`] so their counters
    /// aggregate without registry lookups per probe; the per-prober
    /// accessors ([`Prober::probes_sent`] etc.) keep their own totals
    /// either way.
    pub fn set_obs(&mut self, obs: ProbeObs) {
        self.obs = Some(obs);
    }

    /// Position the per-probe sequence number and IP ident as if `sent`
    /// probes had gone out since this prober was created: the next probe
    /// carries exactly the wire bytes probe number `sent + 1` of a fresh
    /// prober would. Workers that split one logical probe stream by index
    /// use this to reproduce the stream's bytes. Accounting is untouched.
    pub(crate) fn set_sequence(&mut self, sent: u64) {
        self.seq = sent as u16;
        self.ip_ident = sent as u16;
    }

    /// Total probe packets sent (including retries).
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Cumulative measured RTT over every probe sent, microseconds
    /// (timeouts contribute the timeout budget). Together with
    /// [`Prober::probes_sent`] this gives per-worker latency accounting.
    pub fn rtt_total_us(&self) -> u64 {
        self.rtt_sum_us
    }

    /// Attempts that got no answer (every timed-out attempt, including
    /// retries that also timed out).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Retries actually spent (attempts beyond the first per probe call).
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// Retries that got an answer: the loss they recovered from was real.
    pub fn retries_recovered(&self) -> u64 {
        self.retries_recovered
    }

    /// Retries that timed out too: spent on a silence that did not lift.
    pub fn retries_wasted(&self) -> u64 {
        self.retries_used - self.retries_recovered
    }

    /// Total simulated backoff wait accumulated before retries,
    /// microseconds.
    pub fn backoff_total_us(&self) -> u64 {
        self.backoff_us
    }

    /// Report one block's finished MDA-Lite accounting (from
    /// [`crate::MdaLiteState`]) into this prober's metric handles, if any.
    /// The per-prober totals are kept by the state itself; this only
    /// mirrors them into the shared `probe.mda_lite.*` counters.
    pub fn note_mda_lite(&self, probes_saved: u64, diamonds: u64, escalations: u64) {
        if let Some(o) = &self.obs {
            o.mda_lite_saved.add(probes_saved);
            o.mda_lite_diamonds.add(diamonds);
            o.mda_lite_escalations.add(escalations);
        }
    }

    /// Attach a cancellation token. Once the token is raised, in-flight
    /// retries stop (no further backoff is simulated) and subsequent probe
    /// calls return [`ProbeReply::Timeout`] without touching the wire —
    /// the cancelled block's partial work is discarded by the supervisor,
    /// so the short-circuit never leaks into a recorded measurement.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Whether this prober's cancel token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Send one probe (with retries on timeout) and parse the response.
    ///
    /// `flow_label` is the Paris flow identifier (the ICMP checksum the
    /// probe carries); keep it constant to stay on one per-flow path, vary
    /// it to explore siblings. `0xffff` is not a representable internet
    /// checksum, so that label is remapped to `0xfffe` — a dedicated
    /// overflow slot rather than `0`, which would collide with the real
    /// label 0 and silently merge two distinct flows.
    ///
    /// Whether a silence is retried depends on what the probe's *stream*
    /// — this prober's ICMP ident and the destination's /24, the key the
    /// network's token buckets and virtual clocks use — has shown:
    ///
    /// * a silence at a TTL where a router of the stream answered an
    ///   earlier probe is retried (a token bucket starts full, so a
    ///   rate-limited router has always answered first);
    /// * an *echo-class* silence — a TTL-64 echo, or a probe at or above
    ///   the stream's echo distance (the lowest TTL the /24 echoed at, or
    ///   the distance `infer_default_ttl(r) - r + 1` an echo's remaining
    ///   TTL `r` puts it at, if lower) — is retried until the stream shows
    ///   churn: an earlier call spent all its retries at a TTL where no
    ///   router had answered and still got no answer. From then on it is
    ///   retried only if the stream has also shown loss, a retry that
    ///   recovered an answer;
    /// * any other silence — an anonymous hop, a TTL no flow of the
    ///   stream has ever got an answer at — returns at once.
    ///
    /// The evidence depends only on the stream's own earlier replies and
    /// starts empty whenever the destination /24 changes, so a prober that
    /// walks several /24s in turn judges each one afresh.
    ///
    /// A retried silence gets up to [`Prober::retries`] retries, waiting a
    /// capped exponentially growing backoff before each one (accumulated
    /// in [`Prober::backoff_total_us`]); retries also draw on the lifetime
    /// [`DEFAULT_RETRY_BUDGET`]. A cancelled prober answers at once with a
    /// timeout, without touching the wire or the accounting.
    pub fn probe(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        if self.cancel.is_cancelled() {
            // Cooperative cancellation: the enclosing measurement drains in
            // microseconds and its result can be discarded.
            return CANCELLED;
        }
        let flow_label = wire_label(flow_label);
        self.evidence.enter(dst.block24());
        let mut attempt: u32 = 0;
        loop {
            let wire = self.next_probe(dst, ttl, flow_label);
            let reply = self
                .net
                .exchange(&wire)
                .expect("prober always emits well-formed probes");
            let result = self.account(parse(&reply, self.icmp_ident));
            if attempt > 0 {
                self.note_retry_outcome(result.reply.responded());
            }
            if result.reply.responded() {
                self.evidence.note_answer(ttl, result.reply, attempt > 0);
                return result;
            }
            if attempt > 0 && attempt == self.retries {
                self.evidence.note_outlasted(ttl);
            }
            if attempt >= self.retries || self.retry_budget == 0 || self.cancel.is_cancelled() {
                return result;
            }
            if !self.evidence.worth_retry(ttl) {
                if let Some(o) = &self.obs {
                    o.ledger.retry_withheld.inc();
                }
                return result;
            }
            attempt += 1;
            self.retry_budget -= 1;
            self.retries_used += 1;
            let wait = backoff_delay(attempt);
            self.backoff_us += wait;
            if let Some(o) = &self.obs {
                o.retries.inc();
                o.ledger.backoff_us.add(wait);
            }
        }
    }

    /// Echo every host address of `block` (`.1` to `.254`, in order) once,
    /// at TTL 64 with flow label 0 and without retries, and put the results
    /// in `results` (cleared first), one per address: exactly what one
    /// [`Prober::probe`] per address with [`Prober::retries`] at 0 gives,
    /// on the wire, in the network's counters and in this prober's
    /// accounting and metrics.
    ///
    /// The 254 probes go to the network as one batch (see
    /// [`Network::exchange_block`]). A cancelled prober answers every
    /// address with an instant timeout, as [`Prober::probe`] does. A batch
    /// never retries, so it leaves the stream evidence alone.
    pub fn probe_block_once(&mut self, block: Block24, results: &mut Vec<ProbeResult>) {
        results.clear();
        if self.cancel.is_cancelled() {
            results.resize(254, CANCELLED);
            return;
        }
        let mut wire = [[0u8; PROBE_LEN]; 254];
        for (probe, host) in wire.iter_mut().zip(1..=254u8) {
            *probe = self.next_probe(block.addr(host), ECHO_TTL, 0);
        }
        let mut replies = Vec::with_capacity(wire.len());
        self.net
            .exchange_block(&wire, &mut replies)
            .expect("prober always emits well-formed probes");
        for reply in &replies {
            results.push(self.account(parse(reply, self.icmp_ident)));
        }
    }

    /// The wire bytes of the next attempt: a fresh sequence number and IP
    /// ident, so retries are distinguishable on the wire.
    fn next_probe(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> [u8; PROBE_LEN] {
        self.seq = self.seq.wrapping_add(1);
        self.ip_ident = self.ip_ident.wrapping_add(1);
        probe_packet(
            self.source,
            dst,
            ttl,
            self.icmp_ident,
            self.seq,
            flow_label,
            self.ip_ident,
        )
    }

    /// Count one attempt's result: sent, RTT and, if it timed out, a drop.
    fn account(&mut self, result: ProbeResult) -> ProbeResult {
        self.probes_sent += 1;
        self.rtt_sum_us += result.rtt_us;
        let dropped = !result.reply.responded();
        self.drops += dropped as u64;
        if let Some(o) = &self.obs {
            o.probes_sent.inc();
            o.ledger.sent.inc();
            o.rtt_us.record(result.rtt_us);
            if dropped {
                o.drops.inc();
                o.ledger.silent.inc();
            } else {
                o.ledger.answered.inc();
            }
        }
        result
    }

    /// Count a retry's outcome: recovered if it got an answer, wasted if
    /// it timed out.
    fn note_retry_outcome(&mut self, answered: bool) {
        if answered {
            self.retries_recovered += 1;
        }
        if let Some(o) = &self.obs {
            if answered {
                o.ledger.retry_recovered.inc();
            } else {
                o.ledger.retry_wasted.inc();
            }
        }
    }

    /// Send one probe *without* retries (for RTT series where each probe's
    /// timing matters, e.g. the Figure 6 cellular test).
    pub fn probe_once(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        let saved = self.retries;
        self.retries = 0;
        let r = self.probe(dst, ttl, flow_label);
        self.retries = saved;
        r
    }
}

/// What one probe stream — the prober's ident and one destination /24 —
/// has shown of itself, for the retry rule of [`Prober::probe`].
#[derive(Clone, Copy, Debug, Default)]
struct Evidence {
    /// The /24 the evidence is about.
    block: Option<Block24>,
    /// Bit `t`: a router answered a probe at TTL `t` (`t < ECHO_TTL`).
    router_ttls: u64,
    /// The /24's echo distance: the lowest of the TTLs it echoed at and
    /// the distances its echoes' remaining TTLs put it at.
    echo_distance: Option<u8>,
    /// A call spent all its retries at a TTL where no router had answered
    /// and still got no answer: a host of the /24 has gone away.
    churn: bool,
    /// A retry recovered an answer: the stream loses probes.
    loss: bool,
}

impl Evidence {
    /// Move to `block`'s stream, forgetting what another /24 showed.
    fn enter(&mut self, block: Block24) {
        if self.block != Some(block) {
            *self = Evidence {
                block: Some(block),
                ..Evidence::default()
            };
        }
    }

    /// Learn from an answer to a probe at `ttl`; `retried` says it came
    /// back to a retry.
    fn note_answer(&mut self, ttl: u8, reply: ProbeReply, retried: bool) {
        self.loss |= retried;
        match reply {
            ProbeReply::Echo { ttl: remaining, .. } => {
                // A host whose default TTL is `infer_default_ttl(r)` sent
                // the echo `default - r` hops back (paper §3.4).
                let distance = (infer_default_ttl(remaining) - remaining + 1).min(ttl);
                self.echo_distance = Some(self.echo_distance.map_or(distance, |e| e.min(distance)));
            }
            ProbeReply::TimeExceeded { .. } | ProbeReply::Unreachable { .. } if ttl < ECHO_TTL => {
                self.router_ttls |= 1 << ttl;
            }
            _ => {}
        }
    }

    /// Learn from a call at `ttl` that spent all its retries unanswered.
    fn note_outlasted(&mut self, ttl: u8) {
        self.churn |= !self.router_answered(ttl);
    }

    /// Whether a router of the stream answered a probe at `ttl`.
    fn router_answered(&self, ttl: u8) -> bool {
        ttl < ECHO_TTL && (self.router_ttls >> ttl) & 1 == 1
    }

    /// Whether a silence at `ttl` is worth a retry. At a TTL where a router
    /// answered, it always is. An echo-class silence — a TTL-64 echo, or a
    /// probe at or above the echo distance — is, until the stream shows
    /// churn; from then on only if it has shown loss too. No other
    /// silence is.
    fn worth_retry(&self, ttl: u8) -> bool {
        let echo_class = ttl >= ECHO_TTL || self.echo_distance.is_some_and(|d| ttl >= d);
        self.router_answered(ttl) || (echo_class && (!self.churn || self.loss))
    }
}

/// What a cancelled prober answers, without touching the wire.
const CANCELLED: ProbeResult = ProbeResult {
    reply: ProbeReply::Timeout,
    rtt_us: 0,
};

/// The flow label a probe carries on the wire: `0xffff` is not a
/// representable checksum, so it is remapped to `0xfffe`.
fn wire_label(flow_label: u16) -> u16 {
    if flow_label == 0xffff {
        0xfffe
    } else {
        flow_label
    }
}

/// The result of one attempt, from the network's reply.
fn parse(reply: &Reply, expect_ident: u16) -> ProbeResult {
    ProbeResult {
        reply: parse_reply(reply.response.as_ref(), expect_ident),
        rtt_us: reply.rtt_us,
    }
}

/// Parse a response packet into a [`ProbeReply`].
fn parse_reply(response: Option<&Packet>, expect_ident: u16) -> ProbeReply {
    let Some(packet) = response else {
        return ProbeReply::Timeout;
    };
    let bytes = packet.as_bytes();
    let Ok(outer) = Ipv4Header::parse(bytes) else {
        return ProbeReply::Timeout;
    };
    let message = &bytes[IPV4_HEADER_LEN..];
    // Try echo reply first.
    if let Ok((t, echo)) = IcmpEcho::parse(message) {
        if t == ICMP_ECHO_REPLY {
            if echo.ident != expect_ident {
                return ProbeReply::Timeout; // someone else's reply
            }
            return ProbeReply::Echo {
                from: outer.src,
                ttl: outer.ttl,
            };
        }
    }
    if let Ok(err) = IcmpError::parse(message) {
        if err.quoted_echo.ident != expect_ident {
            return ProbeReply::Timeout;
        }
        return if err.icmp_type == ICMP_TIME_EXCEEDED {
            ProbeReply::TimeExceeded { from: outer.src }
        } else {
            ProbeReply::Unreachable { from: outer.src }
        };
    }
    ProbeReply::Timeout
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};
    use netsim::forward::encode_probe;

    fn scenario() -> netsim::Scenario {
        build(ScenarioConfig::tiny(42))
    }

    /// Find a block with decent density and live hosts for tests (block
    /// outages can silence an entire /24 at probe epochs, so density alone
    /// does not guarantee anyone answers).
    fn dense_block(s: &netsim::Scenario) -> netsim::Block24 {
        *s.network
            .allocated_blocks()
            .iter()
            .find(|b| {
                let profile = *s.network.block_profile(**b).unwrap();
                profile.density > 0.3
                    && s.truth.blocks[b].homogeneous
                    && s.truth.pops[s.truth.blocks[b].pop as usize].responsive
                    && !s
                        .network
                        .oracle()
                        .active_in_block(**b, &profile, s.network.epoch())
                        .is_empty()
            })
            .expect("tiny scenario has a dense homogeneous block")
    }

    #[test]
    fn echo_probe_gets_reply_from_active_host() {
        let s = scenario();
        let blk = dense_block(&s);
        let profile = *s.network.block_profile(blk).unwrap();
        let active = s
            .network
            .oracle()
            .active_in_block(blk, &profile, s.network.epoch());
        assert!(!active.is_empty());
        let mut p = Prober::new(&s.network, 77);
        let r = p.probe(active[0], 64, 0x1000);
        match r.reply {
            ProbeReply::Echo { from, ttl } => {
                assert_eq!(from, active[0]);
                assert!(ttl > 0);
            }
            other => panic!("expected echo, got {other:?}"),
        }
        assert!(p.probes_sent() >= 1);
    }

    #[test]
    fn low_ttl_gets_time_exceeded() {
        let s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&s.network, 77);
        let r = p.probe(blk.addr(10), 1, 0x1000);
        assert!(matches!(r.reply, ProbeReply::TimeExceeded { .. }));
    }

    #[test]
    fn unrouted_space_is_unreachable() {
        let s = scenario();
        let mut p = Prober::new(&s.network, 77);
        // 224.0.0.0 region is never allocated by the slab allocator.
        let r = p.probe(Addr::new(225, 1, 2, 3), 64, 0);
        assert!(matches!(r.reply, ProbeReply::Unreachable { .. }));
    }

    /// A prober whose metrics go to a fresh registry, with `retries`.
    fn observed<'n>(net: &'n Network, ident: u16, retries: u32) -> (Prober<'n>, obs::Registry) {
        let reg = obs::Registry::new();
        let mut p = Prober::new(net, ident);
        p.retries = retries;
        p.set_obs(ProbeObs::bind(&reg, "classify"));
        (p, reg)
    }

    /// The `probe.classify.*` ledger of `reg`: sent, answered, silent,
    /// retries recovered, wasted and withheld.
    fn ledger(reg: &obs::Registry) -> [u64; 6] {
        let l = ProbeLedger::bind(reg, "classify");
        [
            l.sent.get(),
            l.answered.get(),
            l.silent.get(),
            l.retry_recovered.get(),
            l.retry_wasted.get(),
            l.retry_withheld.get(),
        ]
    }

    #[test]
    fn a_silent_echo_is_retried_without_other_evidence() {
        let s = scenario();
        let blk = dense_block(&s);
        let (mut p, reg) = observed(&s.network, 77, 3);
        let _ = p.probe(blk.addr(0), 64, 0); // .0 never hosts anyone
        assert_eq!(p.probes_sent(), 4, "1 try + 3 retries");
        assert_eq!(ledger(&reg), [4, 0, 4, 0, 3, 0]);
    }

    #[test]
    fn a_silence_at_a_ttl_the_stream_never_got_an_answer_at_is_not_retried() {
        // Walk a destination behind an unresponsive PoP one TTL at a time,
        // up to its echo: every TTL is probed once, so no silence on the
        // way (the anonymous last hop among them) has evidence of loss.
        let s = scenario();
        let dst = s
            .network
            .allocated_blocks()
            .into_iter()
            .filter(|b| !s.truth.pops[s.truth.blocks[b].pop as usize].responsive)
            .find_map(|b| {
                let profile = *s.network.block_profile(b).unwrap();
                let active = s
                    .network
                    .oracle()
                    .active_in_block(b, &profile, s.network.epoch());
                active.first().copied()
            })
            .expect("tiny scenario has an active host behind an unresponsive PoP");
        let (mut p, reg) = observed(&s.network, 77, 3);
        let mut silences = 0;
        for ttl in 1..ECHO_TTL {
            let before = p.probes_sent();
            match p.probe(dst, ttl, 0x1000).reply {
                ProbeReply::Echo { .. } => break,
                ProbeReply::Timeout => {
                    silences += 1;
                    assert_eq!(
                        p.probes_sent() - before,
                        1,
                        "silence at TTL {ttl} was retried"
                    );
                }
                _ => assert_eq!(p.probes_sent() - before, 1),
            }
        }
        assert!(silences > 0, "the walk met an anonymous hop");
        let [sent, answered, silent, recovered, wasted, withheld] = ledger(&reg);
        assert_eq!((sent, answered + silent), (p.probes_sent(), sent));
        assert_eq!(
            (silent, recovered, wasted, withheld),
            (silences, 0, 0, silences)
        );
        assert_eq!(p.retries_used(), 0);
    }

    /// `calls` probes at TTL 1 towards `dst` with one flow label, on a
    /// network whose routers rate-limit at 0.25 tokens per arrival: the
    /// first-hop router's bucket for the stream answers 5 probes, then
    /// denies 3 in every 4.
    fn rate_limited_calls(p: &mut Prober, dst: Addr, calls: usize) {
        for _ in 0..calls {
            let _ = p.probe(dst, 1, 0);
        }
    }

    #[test]
    fn a_silence_at_an_answered_ttl_gets_its_retries() {
        let mut s = scenario();
        let blk = dense_block(&s);
        s.network.set_faults(netsim::FaultConfig::lossy(0.0, 0.25));
        let (mut p, reg) = observed(&s.network, 77, 3);
        // Calls 1–5 are answered at once; calls 6–8 each meet three
        // denials, so each spends its 3 retries: 2 wasted, 1 recovered.
        rate_limited_calls(&mut p, blk.addr(10), 8);
        assert_eq!(p.probes_sent(), 5 + 3 * 4);
        assert_eq!(p.retries_used(), 9);
        assert_eq!(p.retries_recovered(), 3);
        assert_eq!(p.retries_wasted(), 6);
        assert_eq!(ledger(&reg), [17, 8, 9, 3, 6, 0]);
    }

    #[test]
    fn a_new_block_starts_with_no_evidence() {
        // Calibration walks its /24s on one prober, in turn: a /24 it
        // comes back to is judged on what it shows from then on.
        let mut s = scenario();
        let a = dense_block(&s);
        let b = *s
            .network
            .allocated_blocks()
            .iter()
            .find(|&&b| b != a)
            .unwrap();
        s.network.set_faults(netsim::FaultConfig::lossy(0.0, 0.25));
        let net = &s.network;
        // Alone, the sixth call at TTL 1 is denied and retried (on a copy
        // of the network, so the buckets start alike).
        let alone = net.clone();
        let (mut p, _) = observed(&alone, 77, 3);
        rate_limited_calls(&mut p, a.addr(10), 6);
        assert_eq!(p.probes_sent(), 5 + 4);
        // With a probe to another /24 in between, the sixth call is the
        // first of a new stream's evidence: its silence is withheld.
        let (mut p, reg) = observed(net, 77, 3);
        rate_limited_calls(&mut p, a.addr(10), 5);
        let _ = p.probe(b.addr(10), 1, 0);
        rate_limited_calls(&mut p, a.addr(10), 1);
        assert_eq!(p.probes_sent(), 5 + 1 + 1);
        let [sent, _, silent, _, _, withheld] = ledger(&reg);
        assert_eq!((sent, silent, withheld), (7, 1, 1));
    }

    #[test]
    fn echo_silences_stop_being_retried_after_a_wasted_call() {
        let s = scenario();
        let blk = dense_block(&s);
        let (mut p, reg) = observed(&s.network, 77, 3);
        // `.0` never answers: its first echo spends all 3 retries, and
        // the /24 has shown churn.
        let _ = p.probe(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 4);
        // Another silent echo of the /24 gets one attempt.
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!(p.probes_sent(), 5);
        assert_eq!(ledger(&reg), [5, 0, 5, 0, 3, 1]);
    }

    #[test]
    fn a_recovered_retry_re_arms_echo_retries() {
        let mut s = scenario();
        let blk = dense_block(&s);
        s.network.set_faults(netsim::FaultConfig::lossy(0.0, 0.25));
        let (mut p, _) = observed(&s.network, 77, 3);
        // Churn first: a wasted echo, then a withheld one.
        let _ = p.probe(blk.addr(0), 64, 0);
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!((p.probes_sent(), p.retries_used()), (5, 3));
        // Then loss: the rate-limited first hop denies the sixth call at
        // TTL 1, and a retry recovers its answer.
        rate_limited_calls(&mut p, blk.addr(10), 6);
        assert!(p.retries_recovered() > 0, "a retry recovered an answer");
        // Echo silences get their retries again.
        let before = p.probes_sent();
        let _ = p.probe(blk.addr(0), 64, 2);
        assert_eq!(p.probes_sent() - before, 4, "1 try + 3 retries");
    }

    #[test]
    fn a_lost_first_probe_at_the_echo_distance_is_retried() {
        // The echo's remaining TTL gives the destination's distance `d`;
        // the first probe the stream sends at `d` is echo-class, so losing
        // it costs a retry, not an answer.
        let mut s = scenario();
        let blk = dense_block(&s);
        let profile = *s.network.block_profile(blk).unwrap();
        let dst = s
            .network
            .oracle()
            .active_in_block(blk, &profile, s.network.epoch())[0];
        s.network.set_faults(netsim::FaultConfig::lossy(0.05, 1.0));
        let net = &s.network;
        // Streams differ by ICMP ident and so draw their losses apart:
        // find one whose echo is answered at once and whose first probe at
        // `d` is lost.
        let lost_at_d = (0x100..0x200u16).find_map(|ident| {
            let (mut p, _) = observed(net, ident, 3);
            let ProbeReply::Echo { ttl: remaining, .. } = p.probe(dst, 64, 0).reply else {
                return None;
            };
            if p.probes_sent() > 1 {
                return None;
            }
            let d = infer_default_ttl(remaining) - remaining + 1;
            let r = p.probe(dst, d, 1);
            (p.drops() > 0).then_some((d, p.probes_sent() - 1, r.reply))
        });
        let (d, sent_at_d, reply) = lost_at_d.expect("some stream loses its first probe at d");
        assert!(d < ECHO_TTL);
        assert!(sent_at_d > 1, "the lost probe at TTL {d} was not retried");
        assert!(
            matches!(reply, ProbeReply::Echo { from, .. } if from == dst),
            "a retry recovered the echo at TTL {d}: {reply:?}"
        );
    }

    #[test]
    fn flow_label_0xffff_remaps_to_0xfffe_not_0() {
        // Regression: 0xffff used to fold onto 0, silently merging two
        // distinct Paris flows. A probe's ICMP checksum is its wire label.
        let s = scenario();
        let dst = dense_block(&s).addr(10);
        let mut p = Prober::new(&s.network, 77);
        let mut on_wire = |label: u16| {
            let bytes = p.next_probe(dst, 64, wire_label(label));
            let (_, echo) = IcmpEcho::parse(&bytes[IPV4_HEADER_LEN..]).unwrap();
            echo.wire_checksum(netsim::wire::ICMP_ECHO_REQUEST)
        };
        assert_eq!(on_wire(0xffff), 0xfffe, "0xffff lands on 0xfffe");
        assert_eq!(on_wire(0), 0, "label 0 keeps its own flow");
        assert_eq!(on_wire(0xfffe), 0xfffe);
        // `probe` sends the remapped label: the overflow label is just an
        // alias for the 0xfffe flow, reply and RTT alike.
        let send = |label: u16| {
            let net = s.network.clone();
            let r = Prober::new(&net, 77).probe(dst, 64, label);
            (r.reply, r.rtt_us)
        };
        assert_eq!(send(0xffff), send(0xfffe));
    }

    #[test]
    fn backoff_accumulates_exponentially_with_cap() {
        let s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&s.network, 77);
        p.retries = 3;
        let _ = p.probe(blk.addr(0), 64, 0); // .0 never answers
        assert_eq!(p.drops(), 4, "every timed-out attempt is a drop");
        assert_eq!(p.retries_used(), 3);
        // 100 ms, doubling per retry.
        assert_eq!(p.backoff_total_us(), 100_000 + 200_000 + 400_000);

        // Past the fourth doubling, delays clamp at 1.6 s. The first call
        // showed churn, so a fresh prober makes the second.
        let mut p = Prober::new(&s.network, 77);
        p.retries = 6;
        let before = p.backoff_total_us();
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!(
            p.backoff_total_us() - before,
            100_000 + 200_000 + 400_000 + 800_000 + 1_600_000 + 1_600_000
        );
    }

    #[test]
    fn retries_split_into_recovered_and_wasted() {
        use obs::Recorder;
        let mut s = scenario();
        let blk = dense_block(&s);
        // Refill 0.25 denies up to 3 errors in a row once the burst is
        // spent, so some retries of a ttl-2 probe recover and some do not.
        s.network.set_faults(netsim::FaultConfig::lossy(0.0, 0.25));
        let reg = obs::Registry::new();
        let mut p = Prober::new(&s.network, 77);
        p.retries = 1;
        p.set_obs(ProbeObs::bind(&reg, "classify"));
        for label in 0..40 {
            let _ = p.probe(blk.addr(10), 2, label);
        }
        // `.0` never answers: both of its retries are wasted.
        p.retries = 2;
        let _ = p.probe(blk.addr(0), 64, 0);
        assert!(
            p.retries_recovered() > 0,
            "a retry recovered from rate limiting"
        );
        assert!(
            p.retries_wasted() >= 2,
            "the silent host wasted its retries"
        );
        assert_eq!(p.retries_recovered() + p.retries_wasted(), p.retries_used());
        assert_eq!(
            reg.counter("probe.classify.retry_recovered").get(),
            p.retries_recovered()
        );
        assert_eq!(
            reg.counter("probe.classify.retry_wasted").get(),
            p.retries_wasted()
        );
    }

    #[test]
    fn retry_budget_caps_lifetime_retries() {
        let s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&s.network, 77);
        p.retries = 3;
        p.retry_budget = 1;
        let _ = p.probe(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 2, "budget allows exactly one retry");
        assert_eq!(p.retries_used(), 1);
        assert_eq!(p.retry_budget, 0);
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!(p.probes_sent(), 3, "exhausted budget means single attempts");
    }

    #[test]
    fn cancelled_prober_short_circuits_without_accounting() {
        let s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&s.network, 77);
        p.retries = 3;
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        token.cancel();
        let r = p.probe(blk.addr(10), 64, 0x1000);
        assert_eq!(r.reply, ProbeReply::Timeout);
        assert_eq!(r.rtt_us, 0);
        assert_eq!(p.probes_sent(), 0, "cancelled probes never hit the wire");
        assert_eq!(p.drops(), 0);
        assert_eq!(p.retries_used(), 0);
        assert!(p.is_cancelled());
        let mut results = Vec::new();
        p.probe_block_once(blk, &mut results);
        assert_eq!(results.len(), 254);
        assert!(results
            .iter()
            .all(|r| r.reply == ProbeReply::Timeout && r.rtt_us == 0));
        assert_eq!(p.probes_sent(), 0, "a cancelled batch never hits the wire");
    }

    #[test]
    fn cancellation_mid_call_stops_retries() {
        // The token is raised before the call; an uncancelled prober with
        // the same settings spends retries on the silent .0 address, so the
        // cancelled one must send strictly fewer packets.
        let s = scenario();
        let blk = dense_block(&s);
        let mut clean = Prober::new(&s.network, 77);
        clean.retries = 3;
        let _ = clean.probe(blk.addr(0), 64, 0);
        assert_eq!(clean.probes_sent(), 4);
        drop(clean);

        let mut p = Prober::new(&s.network, 78);
        p.retries = 3;
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        token.cancel();
        let _ = p.probe(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 0);
        assert_eq!(p.backoff_total_us(), 0, "no backoff is simulated");
    }

    /// FNV-1a, folded over every byte a sweep observes.
    struct Digest(u64);

    impl Digest {
        fn feed(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }

        fn feed_u64(&mut self, v: u64) {
            self.feed(&v.to_be_bytes());
        }
    }

    /// One fixed probe sweep over `net`: every allocated block × 3 hosts ×
    /// TTL {1, 2, 3, 4, 64} × 2 flow labels, plus one unrouted address,
    /// first through a [`Prober`] and then as raw packets through
    /// [`Network::send`]. Returns the sweep's digest and which reply kinds
    /// it saw (echo, time exceeded, unreachable, timeout).
    fn wire_sweep(net: &Network) -> (u64, [bool; 4]) {
        let mut d = Digest(0xCBF2_9CE4_8422_2325);
        let mut seen = [false; 4];
        let mut dests: Vec<Addr> = net
            .allocated_blocks()
            .iter()
            .flat_map(|b| [b.addr(0), b.addr(10), b.addr(77)])
            .collect();
        dests.push(Addr::new(225, 1, 2, 3));
        let sweep = || {
            dests.iter().flat_map(|&dst| {
                [1u8, 2, 3, 4, 64]
                    .into_iter()
                    .flat_map(move |ttl| [0x1111u16, 0xBEEF].map(|label| (dst, ttl, label)))
            })
        };
        let mut p = Prober::new(net, 0x6D61);
        for (dst, ttl, label) in sweep() {
            let r = p.probe(dst, ttl, label);
            let (kind, from, reply_ttl) = match r.reply {
                ProbeReply::Echo { from, ttl } => (0, from, ttl),
                ProbeReply::TimeExceeded { from } => (1, from, 0),
                ProbeReply::Unreachable { from } => (2, from, 0),
                ProbeReply::Timeout => (3, Addr(0), 0),
            };
            seen[kind] = true;
            d.feed(&[kind as u8, reply_ttl]);
            d.feed_u64(from.0 as u64);
            d.feed_u64(r.rtt_us);
        }
        d.feed_u64(p.probes_sent());
        let vantage = net.vantage_addr();
        for (i, (dst, ttl, label)) in sweep().enumerate() {
            let probe = encode_probe(vantage, dst, ttl, 0x6D62, i as u16, label, i as u16);
            d.feed(&probe);
            let delivery = net.send(probe).expect("well-formed probe");
            match &delivery.response {
                Some(bytes) => d.feed(bytes),
                None => d.feed(b"timeout"),
            }
            d.feed_u64(delivery.rtt_us);
        }
        // The stats fields the digest was pinned with, rendered by name
        // (in the derived `Debug` form), so new counters leave it alone.
        let s = net.net_stats();
        let fields = [
            ("probes_carried", s.probes_carried),
            ("link_drops", s.link_drops),
            ("rate_limited_drops", s.rate_limited_drops),
            ("icmp_loss_drops", s.icmp_loss_drops),
            ("dyn_rewrites", s.dyn_rewrites),
            ("dyn_resizes", s.dyn_resizes),
            ("dyn_loops", s.dyn_loops),
            ("dyn_addr_reuses", s.dyn_addr_reuses),
            ("dyn_false_diamonds", s.dyn_false_diamonds),
            ("netem_delays", s.netem_delays),
            ("netem_reorders", s.netem_reorders),
            ("netem_duplicates", s.netem_duplicates),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        d.feed(format!("NetworkStats {{ {} }}", body.join(", ")).as_bytes());
        (d.0, seen)
    }

    /// The wire contract, pinned: request bytes, response bytes, RTTs and
    /// the network's final accounting over a fixed sweep of a pristine, a
    /// lossy and an evolving world. Any change to encoding, forwarding,
    /// reply construction or counting moves a digest.
    #[test]
    fn wire_digest_is_pinned() {
        let pristine = scenario();
        let mut lossy = scenario();
        lossy
            .network
            .set_faults(netsim::FaultConfig::lossy(0.05, 0.5));
        let mut evolving = scenario();
        let mut dynamics = netsim::build::derive_dynamics(&evolving, 0.5, 16);
        dynamics.netem = Some(netsim::NetemSpec {
            delay_us: 300,
            jitter_us: 200,
            reorder_prob: 0.1,
            duplicate_prob: 0.1,
        });
        evolving.network.set_dynamics(dynamics);
        let digests: Vec<u64> = [&pristine, &lossy, &evolving]
            .iter()
            .map(|s| {
                let (digest, seen) = wire_sweep(&s.network);
                assert_eq!(seen, [true; 4], "the sweep covers every reply kind");
                digest
            })
            .collect();
        assert!(lossy.network.net_stats().total_drops() > 0);
        assert!(evolving.network.net_stats().total_dynamics() > 0);
        assert!(evolving.network.net_stats().netem_delays > 0);
        assert_eq!(
            digests,
            vec![
                7_176_241_855_040_296_849,
                16_894_921_660_722_690_448,
                5_585_021_670_688_433_990
            ]
        );
    }

    #[test]
    fn probe_once_leaves_loss_counters_consistent() {
        let s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&s.network, 77);
        let _ = p.probe_once(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 1);
        assert_eq!(p.drops(), 1);
        assert_eq!(p.retries_used(), 0);
        assert_eq!(p.backoff_total_us(), 0);
    }
}
