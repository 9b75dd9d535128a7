//! Self-test at small scale: the benchmark measures the program it claims
//! to, and its outputs repeat. Run with
//! `cargo test --release --offline --manifest-path campaign_bench/Cargo.toml`.

use crate::campaign::{self, build_dataset, first_shared_member, Campaign, Workload};
use crate::layers;
use experiments::exps::hobbit_map;
use experiments::{ExpArgs, Pipeline};

/// About 700 selected /24s: seconds per campaign, every layer exercised.
const SCALE: f64 = 0.02;
const SEED: u64 = 42;

fn workload(name: &str) -> &'static Workload {
    campaign::workload(name).expect("a benchmark workload")
}

fn run(w: &Workload, traced: bool) -> Campaign {
    let (worlds, _) = w.build_worlds(SEED, SCALE);
    let c = campaign::run(w, worlds, SCALE, traced).expect("campaign finishes");
    assert!(c.problems.is_empty(), "{}: {:?}", w.name, c.problems);
    assert_eq!(c.failed, 0, "{}: failed operations", w.name);
    c
}

/// Per-layer metrics counted in `count` units, minus work stealing, which
/// the scheduler decides.
fn counts(w: &Workload, c: &Campaign) -> Vec<(&'static str, f64)> {
    layers::collect(w, c, c.campaign_s, 0.0, 1)
        .into_iter()
        .filter(|m| m.unit == "count" && m.name != "experiments.supervise.steals")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn traced_and_untraced_campaigns_measure_the_same_program() {
    for w in &campaign::WORKLOADS {
        let plain = run(w, false);
        let traced = run(w, true);
        assert_eq!(plain.report, traced.report, "{}: canonical report", w.name);
        // `resume` re-measures whatever was in flight at the kill, which
        // the scheduler picks, so its probe count may differ run to run.
        if !w.resume {
            assert_eq!(
                plain.probes_per_block(),
                traced.probes_per_block(),
                "{}: probes_per_block",
                w.name
            );
        }
        // The untraced probe count (network carry minus the snapshot) is
        // the program's own `probe.sent`.
        let sent = layers::collect(w, &traced, traced.campaign_s, 0.0, 1)
            .into_iter()
            .find(|m| m.name == "probe.prober.sent")
            .expect("probe.prober.sent is reported")
            .value;
        assert_eq!(sent, traced.method_probes as f64, "{}: probe.sent", w.name);
    }
}

#[test]
fn resume_report_is_the_survey_report() {
    let survey = run(workload("survey"), false);
    let resume = run(workload("resume"), false);
    assert_eq!(survey.report, resume.report);
    assert!(resume.legs[1].resumed_blocks > 0, "leg 2 resumed nothing");
    assert!(
        resume.legs[1].resumed_blocks < resume.selected as u64,
        "leg 1 journaled every block before its kill"
    );
}

#[test]
fn survey_and_lossy_repeat_every_count() {
    for name in ["survey", "lossy-churn-lite"] {
        let w = workload(name);
        let (a, b) = (run(w, true), run(w, true));
        assert_eq!(a.selected, b.selected, "{name}: selected");
        assert_eq!(a.method_probes, b.method_probes, "{name}: method probes");
        assert_eq!(a.analyzable, b.analyzable, "{name}: analyzable");
        assert_eq!(a.dataset, b.dataset, "{name}: dataset");
        assert_eq!(counts(w, &a), counts(w, &b), "{name}: per-layer counts");
    }
}

#[test]
fn dataset_build_matches_hobbit_map() {
    let survey = run(workload("survey"), false);
    let (expected, _) = hobbit_map::build_dataset(&ExpArgs {
        seed: SEED,
        scale: SCALE,
        threads: workload("survey").threads,
        ..Default::default()
    });
    assert_eq!(survey.dataset, expected);
}

#[test]
fn output_checks_catch_broken_outputs() {
    let mut p = Pipeline::builder().seed(SEED).scale(SCALE).threads(1).run();
    assert!(campaign::failed_blocks(&p).is_empty());
    let dup = p.measurements[0].clone();
    p.measurements.push(dup.clone());
    assert_eq!(
        campaign::failed_blocks(&p).into_iter().collect::<Vec<_>>(),
        vec![dup.block],
        "a /24 measured twice fails"
    );

    let seed = p.seed;
    let mut aggs = p.aggregates();
    assert!(first_shared_member(&build_dataset(seed, &aggs, &[])).is_none());
    let mut overlap = aggs[0].clone();
    overlap.lasthops.clear();
    aggs.push(overlap);
    assert_eq!(
        first_shared_member(&build_dataset(seed, &aggs, &[])),
        Some(aggs[0].blocks[0]),
        "a /24 in two Hobbit blocks fails"
    );
}
