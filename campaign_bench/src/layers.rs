//! The per-layer breakdown of one traced campaign.
//!
//! Pipeline phases come from the spans and counters the program already
//! records in `Pipeline::obs`. Post-pipeline phases come from the
//! benchmark's own timers: `run/cluster` and `run/reprobe` are recorded
//! under `run` although they execute after it closes, and
//! `run/classify/block` sums per-block time across workers, so it is busy
//! time, not wall time. The simulator layers are timed on the campaign's
//! own world after the campaign, with the outputs already captured.

use crate::campaign::{Campaign, Leg, Workload};
use crate::stats::median;
use experiments::exps::figure9::INFLATIONS;
use netsim::forward::encode_probe;
use netsim::route::RouterId;
use netsim::wire::{IcmpEcho, Ipv4Header};
use netsim::{Addr, Network};
use obs::NullRecorder;
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric.
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Destinations the simulator-layer loops cycle through, sampled evenly
/// from the campaign's snapshot.
const LAYER_DESTS: usize = 1 << 15;
/// Passes over the destinations per timed repetition.
const LAYER_PASSES: usize = 2;
/// Timed repetitions per layer loop; the median is reported.
const LAYER_REPEATS: usize = 5;
/// TTL of the TTL-expiry probes: a few hops in, so the probe expires
/// inside the simulated core the way traceroute probes do.
const EXPIRY_TTL: u8 = 4;

/// Everything the traced run reports, in `BENCHMARK.json` order.
/// `untraced_campaign_s` is the median of the same run's untraced
/// campaigns; `cpu_s` the process CPU time the traced campaign used.
pub fn collect(
    w: &Workload,
    c: &Campaign,
    untraced_campaign_s: f64,
    cpu_s: f64,
    nproc: usize,
) -> Vec<Metric> {
    let span_s = |path: &str| -> f64 {
        c.legs
            .iter()
            .filter_map(|l| l.registry.as_deref())
            .flat_map(|r| r.span_rows())
            .filter(|(p, _)| p == path)
            .map(|(_, s)| s.total_us as f64 / 1e6)
            .sum()
    };
    let counter = |name: &str| -> u64 {
        c.legs
            .iter()
            .filter_map(|l| l.registry.as_deref())
            .filter_map(|r| r.counter_value(name))
            .sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let legs_sum = |f: &dyn Fn(&Leg) -> u64| -> u64 { c.legs.iter().map(f).sum() };

    let p = c
        .pipeline
        .as_ref()
        .expect("a traced campaign keeps its final pipeline");
    let net = &p.scenario.network;
    let dests = sample_dests(p.snapshot.active.values().flatten().copied());
    let (encode_ns, decode_ns) = wire_ns(net, &dests);
    let lpm_ns = lpm_ns(net, &dests);
    let echo_ns = send_ns(net, &dests, 64);
    let ttl_expiry_ns = send_ns(net, &dests, EXPIRY_TTL);

    let identical_s = time_median(|| p.aggregates());
    let mcl_s = time_median(|| {
        aggregate::sweep_inflation_observed(&c.aggregates, &INFLATIONS, &NullRecorder)
    });
    let reprobe_s = (c.cluster_and_validate_s - identical_s - mcl_s).max(0.0);

    let snapshot_s = span_s("run/snapshot");
    let snapshot_probes = legs_sum(&|l| l.snapshot_probes);
    let select_s = span_s("run/select");
    let calibrate_s = span_s("run/calibrate");
    let classify_s = span_s("run/classify");
    let busy_s = span_s("run/classify/block");
    let classify_probes = legs_sum(&|l| l.workers.iter().map(|s| s.probes).sum());
    let sent = counter("probe.sent") as f64;
    let replay_s = c.replay_s.unwrap_or(0.0);
    let phases_s = snapshot_s
        + select_s
        + calibrate_s
        + classify_s
        + replay_s
        + c.cluster_and_validate_s
        + c.dataset_s;
    let leg_s = |i: usize| {
        if w.resume {
            c.legs[i].wall_s
        } else {
            0.0
        }
    };
    let journal_bytes = c.run_dir.as_ref().map_or(0, |vfs| vfs.bytes_appended());

    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("netsim.wire.encode_ns", "ns", encode_ns),
        m("netsim.wire.decode_ns", "ns", decode_ns),
        m("netsim.route.lpm_ns", "ns", lpm_ns),
        m("netsim.forward.echo_ns", "ns", echo_ns),
        m("netsim.forward.ttl_expiry_ns", "ns", ttl_expiry_ns),
        m(
            "netsim.forward.probes_carried",
            "count",
            legs_sum(&|l| l.probes_carried) as f64,
        ),
        m(
            "netsim.fault.link_drops",
            "count",
            legs_sum(&|l| l.net.link_drops) as f64,
        ),
        m(
            "netsim.fault.rate_limited_drops",
            "count",
            legs_sum(&|l| l.net.rate_limited_drops) as f64,
        ),
        m(
            "netsim.dynamics.events",
            "count",
            legs_sum(&|l| l.dynamics_events) as f64,
        ),
        m(
            "netsim.dynamics.perturbed_hops",
            "count",
            legs_sum(&|l| {
                l.net.dyn_rewrites
                    + l.net.dyn_resizes
                    + l.net.dyn_loops
                    + l.net.dyn_addr_reuses
                    + l.net.dyn_false_diamonds
            }) as f64,
        ),
        m("probe.zmap.scan_s", "s", snapshot_s),
        m(
            "probe.zmap.ns_per_probe",
            "ns",
            ratio(snapshot_s * 1e9, snapshot_probes as f64),
        ),
        m("probe.prober.sent", "count", sent),
        m(
            "probe.prober.retry_share",
            "share",
            ratio(counter("probe.retries") as f64, sent),
        ),
        m(
            "probe.prober.drop_share",
            "share",
            ratio(counter("probe.drops") as f64, sent),
        ),
        m(
            "probe.mda_lite.probes_saved",
            "count",
            counter("probe.mda_lite.probes_saved") as f64,
        ),
        m(
            "probe.mda_lite.escalations",
            "count",
            counter("probe.mda_lite.escalations") as f64,
        ),
        m("hobbit.select.s", "s", select_s),
        m("hobbit.calibrate.s", "s", calibrate_s),
        m(
            "hobbit.calibrate.probes",
            "count",
            counter("calibrate.probes") as f64,
        ),
        m("hobbit.classify.s", "s", classify_s),
        m("hobbit.classify.busy_s", "s", busy_s),
        m(
            "hobbit.classify.parallel_eff",
            "share",
            ratio(busy_s, classify_s * w.threads as f64),
        ),
        m(
            "hobbit.classify.ns_per_probe",
            "ns",
            ratio(busy_s * 1e9, classify_probes as f64),
        ),
        m("hobbit.classify.probes", "count", classify_probes as f64),
        m(
            "hobbit.classify.reprobes",
            "count",
            counter("classify.reprobes") as f64,
        ),
        m(
            "hobbit.classify.dests_unresolved_share",
            "share",
            ratio(
                counter("classify.dests_unresolved") as f64,
                counter("classify.dests_probed") as f64,
            ),
        ),
        m("experiments.resume.leg1_s", "s", leg_s(0)),
        m("experiments.resume.leg2_s", "s", leg_s(1)),
        m(
            "experiments.journal.appends",
            "count",
            counter("journal.appends") as f64,
        ),
        m(
            "experiments.journal.fsyncs",
            "count",
            counter("journal.fsyncs") as f64,
        ),
        m("experiments.journal.bytes", "bytes", journal_bytes as f64),
        m("experiments.journal.replay_s", "s", replay_s),
        m(
            "experiments.supervise.steals",
            "count",
            legs_sum(&|l| l.workers.iter().map(|s| s.steals).sum()) as f64,
        ),
        m(
            "experiments.supervise.quarantined",
            "count",
            legs_sum(&|l| l.quarantined as u64) as f64,
        ),
        m(
            "experiments.supervise.resumed_blocks",
            "count",
            legs_sum(&|l| l.resumed_blocks) as f64,
        ),
        m("aggregate.identical.s", "s", identical_s),
        m("mcl.sweep.s", "s", mcl_s),
        m("aggregate.reprobe.s", "s", reprobe_s),
        m(
            "aggregate.reprobe.probes",
            "count",
            counter("aggregate.reprobe_probes") as f64,
        ),
        m("aggregate.dataset.s", "s", c.dataset_s),
        m(
            "aggregate.dataset.hobbit_blocks",
            "count",
            c.dataset.blocks.len() as f64,
        ),
        m(
            "aggregate.dataset.validated_blocks",
            "count",
            c.dataset.blocks.iter().filter(|b| b.validated).count() as f64,
        ),
        m("proc.cpu_s", "s", cpu_s),
        m(
            "proc.cpu_util",
            "share",
            ratio(cpu_s, c.campaign_s * nproc as f64),
        ),
        m(
            "trace.overhead_share",
            "share",
            c.campaign_s / untraced_campaign_s - 1.0,
        ),
        m(
            "trace.phase_coverage",
            "share",
            ratio(phases_s, c.campaign_s),
        ),
    ]
}

/// Up to [`LAYER_DESTS`] addresses, evenly strided over `all`.
fn sample_dests(all: impl Iterator<Item = Addr> + Clone) -> Vec<Addr> {
    let n = all.clone().count();
    let stride = n.div_ceil(LAYER_DESTS).max(1);
    all.step_by(stride).collect()
}

/// Median over [`LAYER_REPEATS`] of the wall time of `f`, seconds.
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per call of `op` over `n` inputs, [`LAYER_PASSES`] passes
/// per repetition, median of [`LAYER_REPEATS`].
fn ns_per_op<T>(n: usize, mut op: impl FnMut(usize) -> T) -> f64 {
    let ops = (n * LAYER_PASSES) as f64;
    time_median(|| {
        for _ in 0..LAYER_PASSES {
            for i in 0..n {
                black_box(op(i));
            }
        }
    }) * 1e9
        / ops
}

/// IPv4/ICMP encode and decode cost per probe.
fn wire_ns(net: &Network, dests: &[Addr]) -> (f64, f64) {
    let vantage = net.vantage_addr();
    let encode = ns_per_op(dests.len(), |i| {
        encode_probe(vantage, dests[i], 64, 0x4242, i as u16, 0x1111, i as u16)
    });
    let packets: Vec<_> = (0..dests.len())
        .map(|i| encode_probe(vantage, dests[i], 64, 0x4242, i as u16, 0x1111, i as u16))
        .collect();
    let decode = ns_per_op(packets.len(), |i| {
        let mut buf = packets[i].clone();
        let ip = Ipv4Header::decode(&mut buf).expect("a probe the encoder built decodes");
        let echo = IcmpEcho::decode(&mut buf).expect("a probe the encoder built decodes");
        (ip, echo)
    });
    (encode, decode)
}

/// Longest-prefix match over the world's own forwarding tables: each
/// destination is looked up in the next non-empty router table in turn.
fn lpm_ns(net: &Network, dests: &[Addr]) -> f64 {
    let tables: Vec<_> = (0..net.router_count())
        .map(|i| &net.router(RouterId(i as u32)).table)
        .filter(|t| !t.is_empty())
        .collect();
    ns_per_op(dests.len(), |i| tables[i % tables.len()].lookup(dests[i]))
}

/// `Network::send` cost per probe at `ttl`, over prebuilt packets.
fn send_ns(net: &Network, dests: &[Addr], ttl: u8) -> f64 {
    let vantage = net.vantage_addr();
    let packets: Vec<_> = (0..dests.len())
        .map(|i| encode_probe(vantage, dests[i], ttl, 0x4242, i as u16, 0x1111, i as u16))
        .collect();
    ns_per_op(packets.len(), |i| net.send(packets[i].clone()))
}
