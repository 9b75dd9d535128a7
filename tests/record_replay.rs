//! The archive workflow end-to-end: record a live Hobbit classification,
//! then reproduce it from the log alone — no network.

use hobbit::{classify_block, select_all, ConfidenceTable, HobbitConfig};
use netsim::build::{build, ScenarioConfig};
use probe::{zmap, Prober};

#[test]
fn classification_reproduces_from_a_probe_archive() {
    let mut scenario = build(ScenarioConfig::tiny(42));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    let selected: Vec<_> = select_all(&snapshot).into_iter().take(25).collect();
    let table = ConfidenceTable::empty();
    let cfg = HobbitConfig::default();
    let vantage = scenario.network.vantage_addr();

    // Live run with recording on.
    let (live_results, log) = {
        let mut prober = Prober::new(&scenario.network, 0xA2);
        prober.start_recording();
        let results: Vec<_> = selected
            .iter()
            .map(|sel| classify_block(&mut prober, sel, &table, &cfg))
            .collect();
        (results, prober.take_log().expect("recording on"))
    };
    assert!(
        log.count > 1000,
        "a real archive, got {} attempts",
        log.count
    );

    // Replay from the archive: the network is gone.
    drop(scenario);
    let mut replayer = Prober::replayer(log, 0xA2, vantage);
    let replayed: Vec<_> = selected
        .iter()
        .map(|sel| classify_block(&mut replayer, sel, &table, &cfg))
        .collect();

    assert_eq!(replayer.replay_misses(), 0, "faithful replay never misses");
    assert_eq!(live_results.len(), replayed.len());
    for (live, replay) in live_results.iter().zip(&replayed) {
        assert_eq!(live.block, replay.block);
        assert_eq!(live.classification, replay.classification, "{}", live.block);
        assert_eq!(live.lasthop_set, replay.lasthop_set);
        assert_eq!(live.per_dest, replay.per_dest);
        assert_eq!(live.dests_probed, replay.dests_probed);
        assert_eq!(live.probes_used, replay.probes_used);
    }
}

#[test]
fn archive_survives_json_serialization() {
    let mut scenario = build(ScenarioConfig::tiny(7));
    let snapshot = zmap::scan_all(&mut scenario.network, 1);
    let selected: Vec<_> = select_all(&snapshot).into_iter().take(3).collect();
    let table = ConfidenceTable::empty();
    let cfg = HobbitConfig::default();
    let vantage = scenario.network.vantage_addr();

    let (live, log) = {
        let mut prober = Prober::new(&scenario.network, 0xA3);
        prober.start_recording();
        let results: Vec<_> = selected
            .iter()
            .map(|sel| classify_block(&mut prober, sel, &table, &cfg))
            .collect();
        (results, prober.take_log().unwrap())
    };

    // Round-trip the archive through JSON (as a file on disk would).
    let json = serde_json::to_string(&log).expect("serializable");
    let restored: probe::ProbeLog = serde_json::from_str(&json).expect("parseable");
    assert_eq!(restored.count, log.count);

    let mut replayer = Prober::replayer(restored, 0xA3, vantage);
    for (sel, want) in selected.iter().zip(&live) {
        let got = classify_block(&mut replayer, sel, &table, &cfg);
        assert_eq!(got.classification, want.classification);
    }
    assert_eq!(replayer.replay_misses(), 0);
}
