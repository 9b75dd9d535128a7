//! Workspace tests for the shared concurrent network engine.
//!
//! Two properties the redesign promises:
//!
//! 1. **Thread-count independence** — the pipeline's output is a function of
//!    the seed alone. Every per-block probe sequence derives its identity
//!    from the block address, never from which worker or shard ran it, so
//!    `threads(1)` and `threads(8)` must produce byte-identical results.
//! 2. **Engine safety under contention** — many workers hammering one
//!    borrowed `&Network` observe exactly the replies a sequential prober
//!    would, and the engine's probe accounting stays exact.
//! 3. **Whole-run probe conservation** — every probe the network carried
//!    in a pipeline run was sent by the scan, calibration or
//!    classification, at any thread count, with faults or dynamics on.

use netsim::build::{build, ScenarioConfig};
use netsim::Block24;
use obs::{Recorder, Registry};
use probe::{ProbeObs, ProbeReply, Prober};

/// `threads(1)` and `threads(8)` runs of the same seed must agree on every
/// byte of output: selection, measurements, probe totals, aggregates.
#[test]
fn pipeline_is_byte_identical_across_thread_counts() {
    let single = experiments::Pipeline::builder()
        .seed(7)
        .scale(0.01)
        .threads(1)
        .run();
    let eight = experiments::Pipeline::builder()
        .seed(7)
        .scale(0.01)
        .threads(8)
        .run();

    // The snapshot scan runs on the same thread count as classification;
    // its output, and with it everything downstream, must not depend on it.
    assert_eq!(single.snapshot, eight.snapshot, "snapshot differs");
    assert_eq!(
        single.net_stats.probes_carried,
        eight.net_stats.probes_carried
    );
    assert_eq!(
        single.canonical_report(),
        eight.canonical_report(),
        "canonical report differs between threads=1 and threads=8"
    );
    assert_eq!(single.selected.len(), eight.selected.len());
    // Byte-identical: the full Debug rendering of every measurement —
    // classification, last-hop set, probe counts, per-destination detail —
    // must match, not just the headline labels.
    assert_eq!(
        format!("{:?}", single.measurements),
        format!("{:?}", eight.measurements),
        "measurements differ between threads=1 and threads=8"
    );
    assert_eq!(single.classify_probes, eight.classify_probes);
    assert_eq!(single.calibration_probes, eight.calibration_probes);
    assert_eq!(
        format!("{:?}", single.classification_counts()),
        format!("{:?}", eight.classification_counts())
    );
    assert_eq!(
        format!("{:?}", single.aggregates()),
        format!("{:?}", eight.aggregates())
    );

    // Worker accounting partitions the same work either way.
    let blocks: usize = eight.worker_stats.iter().map(|w| w.blocks).sum();
    assert_eq!(blocks, eight.selected.len());
    let probes: u64 = eight.worker_stats.iter().map(|w| w.probes).sum();
    assert_eq!(probes, eight.classify_probes);
}

/// Thread-count independence must also hold with fault injection on: loss
/// draws hash the probe nonce (never wall-clock or arrival order) and rate
/// limiting buckets per probe stream, so which worker classifies a block
/// cannot change what that block observes.
#[test]
fn faulted_pipeline_is_byte_identical_across_thread_counts() {
    let run = |threads| {
        experiments::Pipeline::builder()
            .seed(7)
            .scale(0.01)
            .threads(threads)
            .faults(0.02, 0.5)
            .run()
    };
    let single = run(1);
    let eight = run(8);

    assert_eq!(
        format!("{:?}", single.measurements),
        format!("{:?}", eight.measurements),
        "faulted measurements differ between threads=1 and threads=8"
    );
    assert_eq!(single.classify_probes, eight.classify_probes);
    // Fault accounting is deterministic too: the workers collectively see
    // the same drops/retries/backoff, and the network the same drop mix.
    assert_eq!(single.total_drops(), eight.total_drops());
    assert_eq!(single.total_retries(), eight.total_retries());
    assert_eq!(single.total_backoff_us(), eight.total_backoff_us());
    assert_eq!(single.net_stats, eight.net_stats);
    assert!(single.net_stats.link_drops > 0, "faults were live");
}

/// Eight threads hammer one shared engine. Each must see exactly the replies
/// a sequential prober sees on a pristine copy of the same network, and the
/// engine's carried-probe counter must equal the sum of all senders.
#[test]
fn shared_engine_is_consistent_under_contention() {
    const THREADS: usize = 8;

    let scenario = build(ScenarioConfig::small(99));
    // Targets: a spread of addresses across the allocated space, responsive
    // and unresponsive alike (timeouts exercise the retry path).
    let dsts: Vec<_> = scenario
        .truth
        .blocks
        .keys()
        .take(12)
        .flat_map(|b: &Block24| (1..=5u8).map(|h| b.addr(h)))
        .collect();

    // Sequential baseline on a pristine clone.
    let baseline_net = scenario.network.clone();
    let mut baseline = Prober::new(&baseline_net, 0x7000);
    let expected: Vec<ProbeReply> = dsts
        .iter()
        .map(|&dst| baseline.probe(dst, 64, 0).reply)
        .collect();
    let probes_per_run = baseline.probes_sent();
    drop(baseline);
    assert_eq!(baseline_net.probes_carried(), probes_per_run);

    // Concurrent: every thread probes the full target list through its own
    // prober over the one borrowed network. All probers report into
    // one shared set of metric handles, and the network into the same
    // registry, so every worker bumps the same counters.
    let reg = Registry::new();
    let obs = ProbeObs::bind(&reg);
    let mut network = scenario.network;
    network.set_recorder(&reg);
    let net = &network;
    let (sent, rtt_total) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let dsts = &dsts;
                let expected = &expected;
                let obs = obs.clone();
                s.spawn(move || {
                    let mut prober = Prober::new(net, 0x7100 + t as u16);
                    prober.set_obs(obs);
                    for (&dst, want) in dsts.iter().zip(expected) {
                        let got = prober.probe(dst, 64, 0).reply;
                        assert_eq!(
                            &got, want,
                            "thread {t} saw a different reply for {dst} than \
                             the sequential baseline"
                        );
                    }
                    (prober.probes_sent(), prober.rtt_total_us())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(n, us), (dn, dus)| (n + dn, us + dus))
    });

    assert_eq!(sent, probes_per_run * THREADS as u64);
    assert_eq!(
        network.probes_carried(),
        sent,
        "engine accounting lost or double-counted probes under contention"
    );
    // The shared handles' totals are exact sums of the per-prober ones.
    assert_eq!(reg.counter_value("probe.sent"), Some(sent));
    assert_eq!(reg.counter_value("net.probes_carried"), Some(sent));
    let rtt = reg.histogram("probe.rtt_us");
    assert_eq!(rtt.count(), sent);
    assert_eq!(rtt.sum(), rtt_total);
    assert_eq!(
        rtt.bucket_counts().iter().map(|&(_, n)| n).sum::<u64>(),
        sent
    );
}

/// Every probe a fresh run puts on the wire is accounted for by exactly
/// one phase: the network's carried count is the scan's probes plus the
/// calibration and classification probes, and the observed `probe.sent`
/// counter (the scan's prober is not observed) is the latter two.
/// `exchange` counts each parsed probe before any drop, and a cancelled
/// probe touches neither counter, so the identity holds pristine, lossy
/// and evolving, at any thread count.
#[test]
fn whole_run_probe_conservation() {
    type Mode = fn(experiments::PipelineBuilder) -> experiments::PipelineBuilder;
    let modes: [(&str, Mode); 3] = [
        ("pristine", |b| b),
        ("faults", |b| b.faults(0.02, 0.5)),
        ("dynamics", |b| b.dynamics(0.5, 64)),
    ];
    for (name, mode) in modes {
        for threads in [1, 4] {
            let builder = experiments::Pipeline::builder()
                .seed(7)
                .scale(0.01)
                .threads(threads)
                .observe();
            let p = mode(builder).run();
            let sent = p.calibration_probes + p.classify_probes;
            assert_eq!(
                p.net_stats.probes_carried,
                p.snapshot.probes + sent,
                "{name} at {threads} threads: carried probes are not \
                 scan + calibration + classification"
            );
            let obs = p.obs.as_ref().expect("observed run keeps its registry");
            assert_eq!(
                obs.counter_value("probe.sent"),
                Some(sent),
                "{name} at {threads} threads: probe.sent is not \
                 calibration + classification"
            );
        }
    }
}
