//! Differential conformance sweep: the production work-stealing engine
//! must agree with the `testkit` reference oracle — byte-identically
//! across thread counts {1, 8} and under injected faults {0, 0.02} — on
//! the golden corpus and on hundreds of fresh generated scenarios, and an
//! injected divergence must shrink to a minimal persisted seed file.

use experiments::classify_blocks;
use hobbit::{Classification, ConfidenceTable, HobbitConfig, SelectedBlock};
use netsim::Network;
use std::path::Path;
use testkit::corpus::load_dir;
use testkit::diff::{run_spec, ConformObs};
use testkit::scenario::{gen_spec, ScenarioSpec};
use testkit::shrink::shrink;

/// Thread counts every scenario must agree across.
const THREADS: &[usize] = &[1, 8];

/// The loss axis of the sweep.
const FAULT_LOSSES: &[f32] = &[0.0, 0.02];

/// Fresh-scenario count.
const CASES: usize = 200;

#[test]
fn golden_corpus_is_conformant_across_threads_and_faults() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("golden corpus loads");
    assert!(
        entries.len() >= 20,
        "golden corpus shrank to {} entries",
        entries.len()
    );
    for entry in &entries {
        // The entry's own fault knobs (checked against the pins), plus the
        // sweep's loss axis.
        let r = run_spec(&entry.spec, THREADS, &classify_blocks, None);
        assert!(r.clean(), "{}: {:?}", entry.name, r.mismatches);
        let issues = entry.check(&r);
        assert!(issues.is_empty(), "{issues:?}");
        for &loss in FAULT_LOSSES {
            let spec = entry.spec.with_faults(loss, 0.0);
            if spec == entry.spec {
                continue;
            }
            let r = run_spec(&spec, THREADS, &classify_blocks, None);
            assert!(
                r.clean(),
                "{} at loss {loss}: {:?}",
                entry.name,
                r.mismatches
            );
        }
    }
}

#[test]
fn fresh_scenarios_are_conformant() {
    let reg = obs::Registry::new();
    let conform_obs = ConformObs::bind(&reg);
    let n = CASES;
    for i in 0..n {
        let mut spec = gen_spec(7000 + i as u64);
        // Alternate the loss axis so both fault levels get half the sweep.
        if i % 2 == 1 {
            spec = spec.with_faults(FAULT_LOSSES[1], 0.0);
        }
        let r = run_spec(&spec, THREADS, &classify_blocks, Some(&conform_obs));
        assert!(r.clean(), "seed {}: {:?}", spec.seed, r.mismatches);
    }
    assert_eq!(reg.counter_value("conform.scenarios"), Some(n as u64));
    assert_eq!(reg.counter_value("conform.mismatches"), Some(0));
    assert!(reg.counter_value("conform.blocks").unwrap() > 0);
}

#[test]
fn injected_mismatch_shrinks_to_minimal_seed_file() {
    // A broken engine that misreports single-last-hop blocks.
    let broken = |net: &Network,
                  sel: &[SelectedBlock],
                  table: &ConfidenceTable,
                  cfg: &HobbitConfig,
                  t: usize| {
        let mut ms = classify_blocks(net, sel, table, cfg, t);
        for m in &mut ms {
            if m.classification == Classification::SameLasthop {
                m.classification = Classification::Hierarchical;
            }
        }
        ms
    };
    let fails = |s: &ScenarioSpec| !run_spec(s, &[1], &broken, None).clean();
    // Find a generated scenario the broken engine diverges on.
    let spec = (0..50u64)
        .map(|s| gen_spec(9000 + s).with_faults(0.02, 0.0))
        .find(|s| fails(s))
        .expect("some generated scenario has a SameLasthop block");
    let minimal = shrink(&spec, &fails);
    // Minimal reproducer: everything incidental is gone.
    assert!(fails(&minimal));
    assert_eq!(minimal.blocks.len(), 1, "{minimal:?}");
    assert!(minimal.pops.len() <= 1, "{minimal:?}");
    assert!(!minimal.transit, "{minimal:?}");
    assert_eq!(minimal.link_loss, 0.0, "{minimal:?}");
    assert_eq!(minimal.blocks[0].density_pct, 100, "{minimal:?}");
    // The seed file round-trips and still reproduces.
    let dir = std::env::temp_dir().join(format!("conform-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("minimal.json");
    std::fs::write(&path, serde_json::to_string_pretty(&minimal).unwrap()).unwrap();
    let back: ScenarioSpec =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(back, minimal);
    assert!(fails(&back));
    std::fs::remove_dir_all(&dir).unwrap();
}
