//! Time-evolving world conformance and accuracy: a dynamic scenario must
//! stay oracle-clean and thread-invariant, a schedule with nothing in it
//! must leave the measurement bytes untouched, the ground-truth accuracy
//! harness must report identical drift rates at every thread count across
//! a churn-intensity sweep, and a dynamics-dependent failure must shrink
//! to a minimal reproducer that keeps exactly the offending event.

use experiments::classify_blocks;
use obs::Registry;
use std::path::{Path, PathBuf};
use testkit::corpus::load_dir;
use testkit::diff::run_spec;
use testkit::scenario::{gen_spec, DynamicsSpec, EventSpec, NetemKnobs, ScenarioSpec};
use testkit::shrink::shrink;
use testkit::{dynamics_accuracy, AccuracyObs, AccuracyReport};

/// Thread counts every dynamic scenario must agree across.
const THREADS: &[usize] = &[1, 8];

/// Virtual-clock period of the planted sweeps, probes per epoch.
const PERIOD: u64 = 16;

/// Fuzzed-scenario count: `HOBBIT_DYN_CASES` or 25.
fn cases() -> usize {
    std::env::var("HOBBIT_DYN_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

/// Where shrunk reproducers of failing dynamic specs land:
/// `HOBBIT_DYN_DIR` (the CI `dynamics-conformance` job points it at its
/// artifact dir) or `target/dynamics-failures/` locally.
fn fail_dir() -> PathBuf {
    std::env::var("HOBBIT_DYN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("target/dynamics-failures"))
}

/// Delta-debug `spec` down to a minimal scenario still failing `fails`
/// and persist it as a seed file, returning the path for the message.
fn dump_shrunk(name: &str, spec: &ScenarioSpec, fails: &dyn Fn(&ScenarioSpec) -> bool) -> PathBuf {
    let min = shrink(spec, fails);
    let dir = fail_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{}.json", name.replace(' ', "_")));
    let json = serde_json::to_string_pretty(&min).expect("spec serializes");
    std::fs::write(&path, json).expect("reproducer writes");
    path
}

/// The churn-intensity axis of the accuracy sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Churn {
    /// No schedule at all — the frozen baseline.
    Zero,
    /// One route-churn event on one PoP.
    Low,
    /// One event of every class, spread over the PoPs, plus netem noise.
    High,
}

/// Plant a schedule of the given intensity onto a generated spec. Events
/// only target PoPs the spec actually has, and epochs stay in the
/// validated `1..=16` range.
fn with_churn(seed: u64, level: Churn) -> ScenarioSpec {
    let mut spec = gen_spec(seed);
    spec.dynamics = DynamicsSpec::default();
    if level == Churn::Zero {
        return spec;
    }
    spec.dynamics.period = PERIOD;
    let pops = spec.pops.len() as u8;
    let pop = |i: u8| i % pops;
    spec.dynamics.events = match level {
        Churn::Zero => unreachable!(),
        Churn::Low => vec![EventSpec::RouteChurn {
            pop: 0,
            at_epoch: 1,
        }],
        Churn::High => vec![
            EventSpec::RouteChurn {
                pop: pop(0),
                at_epoch: 1,
            },
            EventSpec::TransientLoop {
                pop: pop(1),
                at_epoch: 1,
            },
            EventSpec::AddressReuse {
                pop: pop(2),
                at_epoch: 2,
            },
            EventSpec::FalseDiamond {
                pop: pop(3),
                at_epoch: 2,
            },
            EventSpec::LbResize {
                pop: pop(4),
                at_epoch: 3,
                width: 1,
            },
        ],
    };
    if level == Churn::High {
        // Late signature changes on every PoP: blocks that resolve early
        // (small blocks finish around epoch 3-10) describe a world these
        // events have since rewritten — the staleness the harness detects.
        for p in 0..pops {
            spec.dynamics.events.push(EventSpec::AddressReuse {
                pop: p,
                at_epoch: 14,
            });
        }
    }
    if level == Churn::High {
        spec.dynamics.netem = NetemKnobs {
            delay_us: 400,
            jitter_us: 200,
            reorder_pct: 2,
            duplicate_pct: 1,
        };
    }
    spec.validate().expect("planted schedule validates");
    spec
}

#[test]
fn dynamic_corpus_entries_are_conformant_across_threads() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("golden corpus loads");
    let dynamic: Vec<_> = entries
        .iter()
        .filter(|e| !e.spec.dynamics.is_static())
        .collect();
    assert!(
        dynamic.len() >= 8,
        "dynamic corpus shrank to {} entries",
        dynamic.len()
    );
    for entry in dynamic {
        let r = run_spec(&entry.spec, THREADS, &classify_blocks, None);
        assert!(r.clean(), "{}: {:?}", entry.name, r.mismatches);
        let issues = entry.check(&r);
        assert!(issues.is_empty(), "{issues:?}");
        // Live schedules must actually tag evidence with epochs.
        assert!(
            r.measurements.iter().any(|m| !m.dest_epochs.is_empty()),
            "{}: no measurement carries epoch tags",
            entry.name
        );
    }
}

#[test]
fn fuzzed_dynamic_scenarios_are_conformant() {
    let n = cases();
    for i in 0..n {
        let spec = with_churn(11_000 + i as u64, Churn::High);
        let name = format!("fuzzed-dynamic-{}", spec.seed);
        let r = run_spec(&spec, THREADS, &classify_blocks, None);
        if !r.clean() {
            let fails = |s: &ScenarioSpec| !run_spec(s, &[1], &classify_blocks, None).clean();
            let at = dump_shrunk(&name, &spec, &fails);
            panic!(
                "{name}: {:?} — shrunk reproducer at {}",
                r.mismatches,
                at.display()
            );
        }
    }
}

#[test]
fn empty_schedule_is_byte_identical_to_a_static_world() {
    for seed in [3001u64, 3002, 3003] {
        let mut spec = gen_spec(seed);
        spec.dynamics = DynamicsSpec::default();
        let frozen = run_spec(&spec, &[1], &classify_blocks, None);
        // A period with no events (and inactive netem) must never tick the
        // clock, tag an epoch, or perturb a single byte of evidence.
        let mut armed = spec.clone();
        armed.dynamics.period = PERIOD;
        let idle = run_spec(&armed, &[1], &classify_blocks, None);
        assert_eq!(
            serde_json::to_string(&frozen.measurements).unwrap(),
            serde_json::to_string(&idle.measurements).unwrap(),
            "seed {seed}: an empty schedule changed the measurement bytes"
        );
    }
}

/// One accuracy cell of the sweep, checked for thread invariance.
fn accuracy_cell(seed: u64, level: Churn, obs: Option<&AccuracyObs>) -> AccuracyReport {
    let spec = with_churn(seed, level);
    let mut per_thread: Vec<AccuracyReport> = THREADS
        .iter()
        .map(|&t| dynamics_accuracy(&spec, t, &classify_blocks, obs))
        .collect();
    let first = per_thread.remove(0);
    for (t, r) in THREADS[1..].iter().zip(per_thread) {
        assert_eq!(
            first, r,
            "seed {seed} {level:?}: accuracy differs between 1 and {t} threads"
        );
    }
    first
}

#[test]
fn accuracy_sweep_reports_thread_invariant_rates_across_churn_levels() {
    let reg = Registry::new();
    let obs = AccuracyObs::bind(&reg);
    let mut totals: Vec<(Churn, usize, usize, usize)> = Vec::new();
    for level in [Churn::Zero, Churn::Low, Churn::High] {
        let (mut blocks, mut flips, mut stale) = (0usize, 0usize, 0usize);
        for seed in [5001u64, 5002, 5003] {
            let r = accuracy_cell(seed, level, Some(&obs));
            assert!(r.blocks_compared > 0, "seed {seed} {level:?}: empty world");
            if level == Churn::Zero {
                assert_eq!(r.verdict_flips, 0, "a frozen world cannot drift");
                assert_eq!(r.stale_aggregates, 0);
            }
            blocks += r.blocks_compared;
            flips += r.verdict_flips;
            stale += r.stale_aggregates;
        }
        totals.push((level, blocks, flips, stale));
    }
    for (level, blocks, flips, stale) in &totals {
        eprintln!(
            "dynamics accuracy {level:?}: blocks={blocks} flips={flips} \
             ({:.4}) stale={stale} ({:.4})",
            *flips as f64 / *blocks as f64,
            *stale as f64 / *blocks as f64,
        );
    }
    // The harness reported through the registry (three levels × three
    // seeds × both thread counts).
    assert!(reg.counter_value("accuracy.blocks_compared").unwrap() > 0);
    // High churn plants signature-changing events at future epochs, so the
    // staleness detector must fire somewhere in the sweep.
    let high = totals.iter().find(|(l, ..)| *l == Churn::High).unwrap();
    assert!(
        high.3 > 0,
        "high churn produced no stale aggregates: {totals:?}"
    );
}

#[test]
fn dynamics_dependent_failure_shrinks_to_one_event() {
    // The predicate holds iff a live schedule epoch-tagged some evidence —
    // a stand-in for any dynamics-triggered regression.
    let fails = |s: &ScenarioSpec| {
        run_spec(s, &[1], &classify_blocks, None)
            .measurements
            .iter()
            .any(|m| !m.dest_epochs.is_empty())
    };
    let spec = with_churn(6001, Churn::High);
    assert!(fails(&spec), "the planted schedule must tag evidence");
    let minimal = shrink(&spec, &fails);
    assert!(fails(&minimal));
    // Everything incidental is gone: one block, a single surviving event,
    // no netem noise, no per-block churn. (The surviving event may pin one
    // extra PoP alive — pruning that PoP would drop the event with it.)
    assert_eq!(minimal.blocks.len(), 1, "{minimal:?}");
    assert!(minimal.pops.len() <= 2, "{minimal:?}");
    assert_eq!(minimal.dynamics.events.len(), 1, "{minimal:?}");
    assert!(!minimal.dynamics.netem.is_active(), "{minimal:?}");
    assert!(
        minimal
            .blocks
            .iter()
            .all(|b| b.churn_pct == 0 && b.quiet_pct == 0),
        "{minimal:?}"
    );
}
