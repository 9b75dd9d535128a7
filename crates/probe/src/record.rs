//! Probe recording and replay — the "collect once, analyze many" workflow
//! of real measurement archives (CAIDA's warts files, the paper's own
//! traceroute datasets).
//!
//! A [`ProbeLog`] captures every [`Prober::probe`](crate::Prober::probe)
//! *call* a prober makes, keyed by `(dst, ttl, flow_label)`. Each call is
//! stored as its full attempt sequence (first try plus any retries), so
//! replay consumes exactly one recorded call per `probe()` — regardless of
//! how the replaying prober's own retry settings are configured. Storing
//! bare attempts instead (the original design) desynchronized the FIFO the
//! moment recording and replay disagreed about retry counts: a replayed
//! retry would pop the *next call's* first attempt.

use crate::prober::ProbeReply;
use netsim::Addr;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// A serializable probe reply (mirror of [`ProbeReply`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordedReply {
    /// Echo reply with its remaining IP TTL.
    Echo {
        /// Responder.
        from: Addr,
        /// Remaining TTL in the reply header.
        ttl: u8,
    },
    /// TTL exceeded from a router.
    TimeExceeded {
        /// Reporting interface.
        from: Addr,
    },
    /// Destination unreachable from a router.
    Unreachable {
        /// Reporting interface.
        from: Addr,
    },
    /// No answer.
    Timeout,
}

impl From<ProbeReply> for RecordedReply {
    fn from(r: ProbeReply) -> Self {
        match r {
            ProbeReply::Echo { from, ttl } => RecordedReply::Echo { from, ttl },
            ProbeReply::TimeExceeded { from } => RecordedReply::TimeExceeded { from },
            ProbeReply::Unreachable { from } => RecordedReply::Unreachable { from },
            ProbeReply::Timeout => RecordedReply::Timeout,
        }
    }
}

impl From<RecordedReply> for ProbeReply {
    fn from(r: RecordedReply) -> Self {
        match r {
            RecordedReply::Echo { from, ttl } => ProbeReply::Echo { from, ttl },
            RecordedReply::TimeExceeded { from } => ProbeReply::TimeExceeded { from },
            RecordedReply::Unreachable { from } => ProbeReply::Unreachable { from },
            RecordedReply::Timeout => ProbeReply::Timeout,
        }
    }
}

/// The key a probe call is filed under.
pub type ProbeKey = (Addr, u8, u16);

/// One `probe()` call's attempt sequence: the first try plus any retries,
/// each with its reply and measured RTT.
pub type RecordedCall = Vec<(RecordedReply, u64)>;

/// An archive of probe calls.
///
/// Calls with the same key are stored in order; replay consumes them FIFO,
/// one whole call (with its full attempt sequence) per `probe()`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProbeLog {
    /// Stored as a pair list because JSON map keys must be strings.
    #[serde(with = "entries_serde")]
    entries: HashMap<ProbeKey, VecDeque<RecordedCall>>,
    /// Total attempts recorded (over all calls).
    pub count: u64,
    /// Total `probe()` calls recorded.
    pub calls: u64,
}

mod entries_serde {
    use super::*;

    type Pairs = Vec<(ProbeKey, Vec<RecordedCall>)>;
    type Entries = HashMap<ProbeKey, VecDeque<RecordedCall>>;

    pub fn serialize(map: &Entries) -> serde::Value {
        let mut pairs: Pairs = map
            .iter()
            .map(|(&k, v)| (k, v.iter().cloned().collect()))
            .collect();
        pairs.sort_by_key(|&(k, _)| k);
        serde::Serialize::to_value(&pairs)
    }

    pub fn deserialize(v: &serde::Value) -> Result<Entries, serde::Error> {
        let pairs: Pairs = serde::Deserialize::from_value(v)?;
        Ok(pairs
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect())
    }
}

impl ProbeLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one complete `probe()` call (its whole attempt sequence).
    /// Empty calls are ignored.
    pub fn push_call(&mut self, dst: Addr, ttl: u8, flow_label: u16, attempts: RecordedCall) {
        if attempts.is_empty() {
            return;
        }
        self.count += attempts.len() as u64;
        self.calls += 1;
        self.entries
            .entry((dst, ttl, flow_label))
            .or_default()
            .push_back(attempts);
    }

    /// Record a single-attempt call (convenience for hand-built logs).
    pub fn push(&mut self, dst: Addr, ttl: u8, flow_label: u16, reply: RecordedReply, rtt_us: u64) {
        self.push_call(dst, ttl, flow_label, vec![(reply, rtt_us)]);
    }

    /// Consume the next recorded call for a key, if any.
    pub fn pop_call(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> Option<RecordedCall> {
        self.entries.get_mut(&(dst, ttl, flow_label))?.pop_front()
    }

    /// Unconsumed calls remaining for one key (0 when absent).
    pub fn calls_for(&self, dst: Addr, ttl: u8, flow_label: u16) -> usize {
        self.entries
            .get(&(dst, ttl, flow_label))
            .map(VecDeque::len)
            .unwrap_or(0)
    }

    /// Remaining (unconsumed) attempts over all calls.
    pub fn remaining(&self) -> usize {
        self.entries
            .values()
            .flat_map(|calls| calls.iter())
            .map(Vec::len)
            .sum()
    }

    /// Distinct destinations in the log.
    pub fn destinations(&self) -> usize {
        let mut dsts: Vec<Addr> = self.entries.keys().map(|&(d, _, _)| d).collect();
        dsts.sort();
        dsts.dedup();
        dsts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::Prober;
    use crate::{probe_lasthop, StoppingRule};
    use netsim::build::{build, ScenarioConfig};

    #[test]
    fn reply_conversion_roundtrips() {
        for r in [
            ProbeReply::Echo {
                from: Addr(1),
                ttl: 9,
            },
            ProbeReply::TimeExceeded { from: Addr(2) },
            ProbeReply::Unreachable { from: Addr(3) },
            ProbeReply::Timeout,
        ] {
            let rec: RecordedReply = r.into();
            let back: ProbeReply = rec.into();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn log_is_fifo_per_key() {
        let mut log = ProbeLog::new();
        let d = Addr(7);
        log.push(d, 4, 1, RecordedReply::Timeout, 100);
        log.push_call(
            d,
            4,
            1,
            vec![
                (RecordedReply::Timeout, 100),
                (RecordedReply::Echo { from: d, ttl: 55 }, 200),
            ],
        );
        assert_eq!(log.count, 3);
        assert_eq!(log.calls, 2);
        assert_eq!(log.calls_for(d, 4, 1), 2);
        assert_eq!(
            log.pop_call(d, 4, 1),
            Some(vec![(RecordedReply::Timeout, 100)])
        );
        assert_eq!(
            log.pop_call(d, 4, 1),
            Some(vec![
                (RecordedReply::Timeout, 100),
                (RecordedReply::Echo { from: d, ttl: 55 }, 200),
            ])
        );
        assert_eq!(log.pop_call(d, 4, 1), None);
        assert_eq!(log.pop_call(d, 5, 1), None);
    }

    #[test]
    fn empty_calls_are_not_recorded() {
        let mut log = ProbeLog::new();
        log.push_call(Addr(1), 1, 1, Vec::new());
        assert_eq!(log.calls, 0);
        assert_eq!(log.remaining(), 0);
    }

    #[test]
    fn record_then_replay_reproduces_a_measurement() {
        let s = build(ScenarioConfig::tiny(42));
        let dst = s
            .truth
            .blocks
            .iter()
            .find(|(_, t)| t.homogeneous && s.truth.pops[t.pop as usize].responsive)
            .map(|(&b, _)| b.addr(10))
            .unwrap();
        // Live run, recording.
        let live = {
            let mut p = Prober::new(&s.network, 5);
            p.start_recording();
            let r = probe_lasthop(&mut p, dst, StoppingRule::confidence95());
            (r, p.take_log().expect("recording was on"))
        };
        let (live_result, log) = live;
        assert!(log.count > 0);
        assert_eq!(log.destinations(), 1);

        // Replay without any network.
        let mut rp = Prober::replayer(log, 5, s.network.vantage_addr());
        let replayed = probe_lasthop(&mut rp, dst, StoppingRule::confidence95());
        assert_eq!(replayed.outcome, live_result.outcome);
        assert_eq!(replayed.probes_used, live_result.probes_used);
        assert_eq!(rp.replay_misses(), 0, "replay must not miss");
    }

    #[test]
    fn replay_is_immune_to_retry_config_mismatch() {
        // The original per-attempt FIFO desynchronized here: a replayed
        // retry popped the next call's first attempt. Record two calls to
        // one key with retries=0, then replay with retries=3 — each
        // `probe()` must consume exactly one recorded call.
        let d = Addr(9);
        let mut log = ProbeLog::new();
        log.push_call(d, 64, 1, vec![(RecordedReply::Timeout, 100)]);
        log.push_call(
            d,
            64,
            1,
            vec![(RecordedReply::Echo { from: d, ttl: 60 }, 200)],
        );

        let mut rp = Prober::replayer(log, 5, Addr(0));
        rp.retries = 3; // more retries than were recorded
        let first = rp.probe(d, 64, 1);
        assert_eq!(first.reply, ProbeReply::Timeout);
        let second = rp.probe(d, 64, 1);
        assert_eq!(second.reply, ProbeReply::Echo { from: d, ttl: 60 });
        assert_eq!(rp.replay_misses(), 0, "no call may bleed into the next");
        assert_eq!(rp.probes_sent(), 2);
    }

    #[test]
    fn replay_roundtrips_a_retried_call() {
        // A live call that timed out twice then answered replays as one
        // call with identical accounting.
        let d = Addr(11);
        let attempts = vec![
            (RecordedReply::Timeout, netsim::TIMEOUT_US),
            (RecordedReply::Timeout, netsim::TIMEOUT_US),
            (RecordedReply::Echo { from: d, ttl: 50 }, 42_000),
        ];
        let mut log = ProbeLog::new();
        log.push_call(d, 64, 0, attempts);

        let mut rp = Prober::replayer(log, 5, Addr(0));
        let r = rp.probe(d, 64, 0);
        assert_eq!(r.reply, ProbeReply::Echo { from: d, ttl: 50 });
        assert_eq!(rp.probes_sent(), 3, "all recorded attempts replay");
        assert_eq!(rp.drops(), 2);
        assert_eq!(rp.retries_used(), 2);
        assert!(rp.backoff_total_us() > 0);
        assert_eq!(rp.replay_misses(), 0);
    }

    #[test]
    fn replay_miss_is_a_timeout() {
        let log = ProbeLog::new();
        let mut rp = Prober::replayer(log, 5, Addr(0));
        rp.retries = 0;
        let r = rp.probe(Addr(9), 9, 9);
        assert_eq!(r.reply, ProbeReply::Timeout);
        assert_eq!(rp.replay_misses(), 1);
    }

    #[test]
    fn log_serializes() {
        let mut log = ProbeLog::new();
        log.push_call(
            Addr(1),
            2,
            3,
            vec![
                (RecordedReply::Timeout, 9),
                (
                    RecordedReply::Echo {
                        from: Addr(1),
                        ttl: 60,
                    },
                    5,
                ),
            ],
        );
        let json = serde_json::to_string(&log).unwrap();
        let back: ProbeLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count, 2);
        assert_eq!(back.calls, 1);
        assert_eq!(back.remaining(), 2);
        assert_eq!(back.calls_for(Addr(1), 2, 3), 1);
    }
}
