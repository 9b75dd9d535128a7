//! Internet-wide ICMP echo scan, modeled on the ZMap dataset the paper
//! bootstraps from (scans.io "FULL IPv4 ICMP Echo Request").
//!
//! The scan enumerates every address of every allocated /24 at the snapshot
//! epoch and records which answered. Hobbit later probes at a *different*
//! epoch, so some snapshot-active addresses will have gone quiet (paper
//! footnote 2) — the scan result is a dataset, not an oracle.
//!
//! There is one scan engine, and it runs on the shared network. The blocks
//! are cut into chunks of 64 /24s; scoped workers claim chunks through an
//! atomic counter and probe them over one `&Network` (sending takes
//! `&self`). One thread is the same code with a single worker. A worker
//! probes one /24 at a time with [`Prober::probe_block_once`], which sends
//! the /24's 254 probes to the network as one batch
//! ([`Network::exchange_block`]): the same wire bytes, replies and
//! accounting as one probe per address, with the per-/24 lookups made once.
//! The scan runs in a static world, so the network skips the forwarding
//! walk of every probe to an address with no host (see
//! [`netsim::forward`]). The snapshot, and every probe's wire bytes, do not
//! depend on the thread count:
//!
//! * Each chunk's prober starts at the sequence number and IP ident a
//!   single worker would have reached there (chunk start × 254, wrapping),
//!   so every probe carries the same bytes at any thread count — and with
//!   them the same nonce and per-packet load-balancer hash.
//! * The scan runs at epoch 0, before faults and dynamics are armed, so no
//!   probe's fate depends on another's (no token buckets, no virtual clock).
//! * Each address is probed exactly once, so the cellular warm-up set ends
//!   with the same members in any order, and the network's counters only
//!   add.
//!
//! A snapshot is also a stored dataset: a resumed run loads the one its
//! first incarnation persisted instead of scanning again. [`restore`] then
//! leaves the network in the state [`scan`] would have left it in,
//! without sending a probe. The scan changes exactly two things a later
//! probe can observe: it switches to the snapshot epoch and back, and it
//! wakes the radio of every cellular host that answered, which is every
//! snapshot-active address of a cellular block. `restore` makes the same
//! epoch switches around the same warm-ups. Only the network's accounting
//! differs, because nothing was sent: the scan adds every probe to the
//! carried-probe counter and every unanswered one to `net.silent.no_host`,
//! and `restore` adds to no counter at all.

use crate::prober::{ProbeLedger, ProbeReply, ProbeResult, Prober};
use netsim::{Addr, Block24, HostKind, Network};
use obs::NullRecorder;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks a scan worker claims at a time.
const SCAN_CHUNK: usize = 64;

/// Probes the scan sends per /24: one per host address.
const PROBES_PER_BLOCK: u64 = 254;

/// ICMP ident of the scanning process.
const SCAN_IDENT: u16 = 0x5CA0;

/// The snapshot of responsive addresses, grouped by /24.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZmapSnapshot {
    /// Per-block sorted lists of addresses that replied.
    pub active: BTreeMap<Block24, Vec<Addr>>,
    /// Epoch the scan ran at.
    pub epoch: u32,
    /// Probes this process's scan sent: 0 for a snapshot loaded from a
    /// run dir, whose probes a previous incarnation paid for.
    pub probes: u64,
}

impl ZmapSnapshot {
    /// Addresses recorded active within `block` (empty slice if none).
    pub fn active_in(&self, block: Block24) -> &[Addr] {
        self.active.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of active addresses across all blocks.
    pub fn total_active(&self) -> usize {
        self.active.values().map(Vec::len).sum()
    }

    /// Blocks with at least one active address, in numeric order.
    pub fn blocks(&self) -> impl Iterator<Item = Block24> + '_ {
        self.active.keys().copied()
    }
}

/// Scan every address of the given blocks at the snapshot epoch (0) on
/// `threads` workers (at least one), restoring the network's current epoch
/// afterwards.
///
/// Uses a single probe per address (ZMap is one-shot), TTL 64. The result
/// is the same at any thread count (see the module docs). The probes and
/// their answers are counted into `ledger` once the workers are done.
pub fn scan(
    net: &mut Network,
    blocks: &[Block24],
    threads: usize,
    ledger: &ProbeLedger,
) -> ZmapSnapshot {
    let saved_epoch = net.epoch();
    net.set_epoch(0);
    let shared: &Network = net;
    let next_chunk = AtomicUsize::new(0);
    let workers = threads.clamp(1, blocks.len().div_ceil(SCAN_CHUNK).max(1));
    let parts = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| s.spawn(|| scan_chunks(shared, blocks, &next_chunk)))
            .collect();
        let mut parts = vec![scan_chunks(shared, blocks, &next_chunk)];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked")),
        );
        parts
    });
    net.set_epoch(saved_epoch);
    let mut snapshot = ZmapSnapshot::default();
    let mut answered = 0;
    for (active, probes, answers) in parts {
        snapshot.active.extend(active);
        snapshot.probes += probes;
        answered += answers;
    }
    ledger.sent.add(snapshot.probes);
    ledger.answered.add(answered);
    ledger.silent.add(snapshot.probes - answered);
    snapshot
}

/// Leave `net` as [`scan`] would have left it after producing `snapshot`,
/// without probing: switch to the snapshot epoch, warm every
/// snapshot-active address of a cellular block, and switch back (which
/// clears the warm-ups again unless the network was already at the
/// snapshot epoch, exactly as after a scan).
pub fn restore(net: &mut Network, snapshot: &ZmapSnapshot) {
    let saved_epoch = net.epoch();
    net.set_epoch(snapshot.epoch);
    for (&block, active) in &snapshot.active {
        if net
            .block_profile(block)
            .is_some_and(|p| p.kind == HostKind::Cellular)
        {
            for &addr in active {
                net.warmed().warm(addr);
            }
        }
    }
    net.set_epoch(saved_epoch);
}

/// One worker: claim chunks until none are left. Returns the responsive
/// blocks it found, the probes it sent and how many got any answer.
fn scan_chunks(
    net: &Network,
    blocks: &[Block24],
    next_chunk: &AtomicUsize,
) -> (Vec<(Block24, Vec<Addr>)>, u64, u64) {
    let mut prober = Prober::new(net, SCAN_IDENT);
    let mut results = Vec::new();
    let mut active = Vec::new();
    let mut answered = 0;
    loop {
        // Relaxed: the counter only hands out chunk indices; the results
        // travel back through the thread join.
        let start = next_chunk.fetch_add(1, Ordering::Relaxed) * SCAN_CHUNK;
        if start >= blocks.len() {
            break;
        }
        let chunk = &blocks[start..blocks.len().min(start + SCAN_CHUNK)];
        prober.set_sequence(start as u64 * PROBES_PER_BLOCK);
        for &block in chunk {
            let hits = scan_block(&mut prober, block, &mut results);
            answered += results.iter().filter(|r| r.reply.responded()).count() as u64;
            if !hits.is_empty() {
                active.push((block, hits));
            }
        }
    }
    (active, prober.probes_sent(), answered)
}

/// Probe every host address of `block` once (TTL 64) and return those
/// that answered with an echo from themselves. `results` is scratch space.
fn scan_block(prober: &mut Prober, block: Block24, results: &mut Vec<ProbeResult>) -> Vec<Addr> {
    prober.probe_block_once(block, 64, 0, results);
    (1u8..=254)
        .zip(results.iter())
        .filter_map(|(host, result)| match result.reply {
            ProbeReply::Echo { from, .. } if from == block.addr(host) => Some(from),
            _ => None,
        })
        .collect()
}

/// Scan all allocated blocks of the network on `threads` workers.
pub fn scan_all(net: &mut Network, threads: usize) -> ZmapSnapshot {
    let blocks = net.allocated_blocks();
    scan(
        net,
        &blocks,
        threads,
        &ProbeLedger::bind(&NullRecorder, "scan"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::ProbeObs;
    use netsim::build::{build, ScenarioConfig};
    use netsim::{DynamicsConfig, NetemSpec, NetworkStats, SilenceStats};
    use obs::Recorder;

    fn scan_unobserved(net: &mut Network, blocks: &[Block24], threads: usize) -> ZmapSnapshot {
        scan(
            net,
            blocks,
            threads,
            &ProbeLedger::bind(&NullRecorder, "scan"),
        )
    }

    /// The `probe.scan.{sent, answered, silent}` counters in `reg`.
    fn scan_ledger(reg: &obs::Registry) -> (u64, u64, u64) {
        let ledger = ProbeLedger::bind(reg, "scan");
        (
            ledger.sent.get(),
            ledger.answered.get(),
            ledger.silent.get(),
        )
    }

    #[test]
    fn scan_matches_oracle_at_snapshot_epoch() {
        let mut s = build(ScenarioConfig::tiny(42));
        let blocks: Vec<Block24> = s.network.allocated_blocks().into_iter().take(10).collect();
        let snap = scan_unobserved(&mut s.network, &blocks, 1);
        for &b in &blocks {
            let profile = *s.network.block_profile(b).unwrap();
            let expect = s.network.oracle().active_in_block(b, &profile, 0);
            assert_eq!(snap.active_in(b), expect.as_slice(), "block {b}");
        }
        assert_eq!(snap.probes, blocks.len() as u64 * 254);
    }

    #[test]
    fn scan_restores_epoch() {
        let mut s = build(ScenarioConfig::tiny(42));
        s.network.set_epoch(3);
        let blocks = vec![s.network.allocated_blocks()[0]];
        let _ = scan_unobserved(&mut s.network, &blocks, 2);
        assert_eq!(s.network.epoch(), 3);
    }

    #[test]
    fn total_active_sums_blocks() {
        let mut s = build(ScenarioConfig::tiny(42));
        let blocks: Vec<Block24> = s.network.allocated_blocks().into_iter().take(5).collect();
        let snap = scan_unobserved(&mut s.network, &blocks, 1);
        let sum: usize = blocks.iter().map(|b| snap.active_in(*b).len()).sum();
        assert_eq!(snap.total_active(), sum);
    }

    /// What one serial scan leaves behind: the snapshot, every address's
    /// `(dst, reply, rtt_us)` in send order, the prober's accounting (sent,
    /// RTT sum, drops) and its `probe.sent`, `probe.drops` and
    /// `probe.rtt_us` metrics, and its scan ledger.
    #[derive(Debug, PartialEq)]
    struct SerialScan {
        snapshot: ZmapSnapshot,
        replies: Vec<(Addr, ProbeReply, u64)>,
        accounting: (u64, u64, u64),
        metrics: (u64, u64, u64, u64, Vec<(usize, u64)>),
        ledger: (u64, u64, u64),
    }

    /// A one-thread scan at epoch 0 through an observed prober:
    /// one [`Prober::probe`] per address (with retries off) when
    /// `per_probe`, the per-/24 batch the scan workers make otherwise. The
    /// per-probe scan is the reference the batched scan must match.
    fn serial_scan(net: &mut Network, blocks: &[Block24], per_probe: bool) -> SerialScan {
        let saved_epoch = net.epoch();
        net.set_epoch(0);
        let reg = obs::Registry::new();
        let mut prober = Prober::new(net, SCAN_IDENT);
        prober.retries = 0;
        prober.set_obs(ProbeObs::bind(&reg, "scan"));
        let mut snapshot = ZmapSnapshot::default();
        let mut replies = Vec::new();
        let mut results = Vec::new();
        for &block in blocks {
            let hosts = (1u8..=254).map(|host| block.addr(host));
            let hits: Vec<Addr> = if per_probe {
                results.clear();
                results.extend(hosts.clone().map(|dst| prober.probe(dst, 64, 0)));
                hosts
                    .clone()
                    .zip(&results)
                    .filter(
                        |&(dst, r)| matches!(r.reply, ProbeReply::Echo { from, .. } if from == dst),
                    )
                    .map(|(dst, _)| dst)
                    .collect()
            } else {
                scan_block(&mut prober, block, &mut results)
            };
            replies.extend(hosts.zip(&results).map(|(dst, r)| (dst, r.reply, r.rtt_us)));
            if !hits.is_empty() {
                snapshot.active.insert(block, hits);
            }
        }
        snapshot.probes = prober.probes_sent();
        let accounting = (prober.probes_sent(), prober.rtt_total_us(), prober.drops());
        drop(prober);
        net.set_epoch(saved_epoch);
        let rtt = reg.histogram("probe.rtt_us");
        SerialScan {
            snapshot,
            replies,
            accounting,
            metrics: (
                reg.counter("probe.sent").get(),
                reg.counter("probe.drops").get(),
                rtt.count(),
                rtt.sum(),
                rtt.bucket_counts(),
            ),
            ledger: scan_ledger(&reg),
        }
    }

    #[test]
    fn scan_is_identical_at_any_thread_count() {
        let mut world = build(ScenarioConfig::tiny(42));
        // Netem draws hash each reply's probe nonce, and with it the probe's
        // sequence number and IP ident: equal draw counts show that every
        // probe carried the same bytes at every thread count.
        world.network.set_dynamics(DynamicsConfig {
            netem: Some(NetemSpec {
                delay_us: 0,
                jitter_us: 0,
                reorder_prob: 0.5,
                duplicate_prob: 0.5,
            }),
            ..DynamicsConfig::none()
        });
        let blocks = world.network.allocated_blocks();
        assert!(
            blocks.len() > 2 * SCAN_CHUNK && !blocks.len().is_multiple_of(SCAN_CHUNK),
            "the world must end in a partial chunk ({} blocks)",
            blocks.len()
        );
        // Run at epoch 0 so restoring the epoch keeps the warm-up set, which
        // then shows that every responsive address was woken exactly as by
        // the per-probe reference.
        let reference = |epoch: u32| {
            let mut net = world.network.clone();
            net.set_epoch(epoch);
            let scan = serial_scan(&mut net, &blocks, true);
            (scan, net)
        };
        let (per_probe, per_probe_net) = reference(0);
        assert_eq!(per_probe.snapshot.probes, blocks.len() as u64 * 254);
        assert!(per_probe.snapshot.total_active() > 0);
        assert!(
            !per_probe_net.warmed().is_empty(),
            "the world has cellular hosts"
        );
        assert!(per_probe_net.net_stats().netem_reorders > 0);
        assert!(per_probe_net.silence_stats().no_host > 0);
        // The batched per-/24 call matches the per-probe calls address by
        // address and on the prober too: replies, accounting and metrics.
        let mut net = world.network.clone();
        net.set_epoch(0);
        assert_eq!(serial_scan(&mut net, &blocks, false), per_probe);
        let same_network = |net: &Network, reference: &Network, what: &str| {
            assert_eq!(net.epoch(), reference.epoch(), "{what}");
            assert_eq!(net.net_stats(), reference.net_stats(), "{what}");
            assert_eq!(net.silence_stats(), reference.silence_stats(), "{what}");
            assert_eq!(net.warmed().len(), reference.warmed().len(), "{what}");
            for addr in per_probe.snapshot.active.values().flatten() {
                assert_eq!(
                    net.warmed().contains(*addr),
                    reference.warmed().contains(*addr),
                    "{what}: {addr}"
                );
            }
        };
        same_network(&net, &per_probe_net, "batched serial scan");
        for threads in [1, 2, 3, 8] {
            let mut net = world.network.clone();
            net.set_epoch(0);
            let reg = obs::Registry::new();
            let snap = scan(&mut net, &blocks, threads, &ProbeLedger::bind(&reg, "scan"));
            assert_eq!(snap, per_probe.snapshot, "snapshot at {threads} threads");
            assert_eq!(
                scan_ledger(&reg),
                per_probe.ledger,
                "ledger at {threads} threads"
            );
            same_network(&net, &per_probe_net, &format!("{threads} threads"));
        }
        // From a later epoch the scan restores it, at any thread count.
        let (later, later_net) = reference(5);
        assert_eq!(later.snapshot, per_probe.snapshot);
        let mut net = world.network.clone();
        net.set_epoch(5);
        assert_eq!(scan_unobserved(&mut net, &blocks, 3), per_probe.snapshot);
        same_network(&net, &later_net, "from epoch 5");
    }

    #[test]
    fn restore_leaves_the_network_as_scan_does() {
        // From the built world's own epoch (the pipeline's case: the
        // warm-ups are cleared again) and from the snapshot epoch (they
        // stay, and cold-versus-warm RTTs show it).
        for start_epoch in [None, Some(0)] {
            let fresh = || {
                let mut net = build(ScenarioConfig::tiny(42)).network;
                if let Some(e) = start_epoch {
                    net.set_epoch(e);
                }
                net
            };
            let mut scanned = fresh();
            let snap = scan_all(&mut scanned, 2);
            let mut restored = fresh();
            restore(&mut restored, &snap);
            // Restoring sends nothing, so it counts nothing: the scan's
            // carried probes and its silences (every address with no
            // answering host) are the only accounting that differs.
            assert_eq!(restored.net_stats(), NetworkStats::default());
            assert_eq!(restored.silence_stats(), SilenceStats::default());
            assert_eq!(
                scanned.net_stats(),
                NetworkStats {
                    probes_carried: snap.probes,
                    ..NetworkStats::default()
                }
            );
            let silences = scanned.silence_stats();
            assert_eq!(silences.no_host, snap.probes - snap.total_active() as u64);
            assert_eq!(
                silences,
                SilenceStats {
                    no_host: silences.no_host,
                    ..SilenceStats::default()
                }
            );
            assert_eq!(restored.epoch(), scanned.epoch());
            assert_eq!(restored.warmed().len(), scanned.warmed().len());
            let active: Vec<Addr> = snap.active.values().flatten().copied().collect();
            for &addr in &active {
                assert_eq!(
                    restored.warmed().contains(addr),
                    scanned.warmed().contains(addr)
                );
            }
            let cellular = active
                .iter()
                .filter(|a| restored.block_profile(a.block24()).unwrap().kind == HostKind::Cellular)
                .count();
            assert!(cellular > 0, "the world must have cellular hosts");
            if start_epoch == Some(0) {
                assert_eq!(scanned.warmed().len(), cellular);
            }
            for (i, &dst) in active.iter().enumerate() {
                let probe = |net: &Network| {
                    let bytes = netsim::encode_probe(
                        net.vantage_addr(),
                        dst,
                        64,
                        0x7E57,
                        i as u16,
                        0,
                        i as u16,
                    );
                    let d = net.send(bytes).unwrap();
                    (d.response, d.rtt_us)
                };
                assert_eq!(probe(&restored), probe(&scanned), "probe to {dst}");
            }
        }
    }
}
