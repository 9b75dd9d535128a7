//! Property tests for the MDA machinery behind both probing modes: the
//! stopping-rule ladder is monotone in the hypothesis count, diamond
//! detection is a function of the per-TTL interface *sets* (invariant
//! under any reordering of the discovered paths), and MDA-Lite never
//! spends more probes than classic MDA on any fault-free block.

use experiments::classify_blocks;
use hobbit::{select_all, BlockMeasurement, ConfidenceTable, HobbitConfig};
use netsim::Addr;
use probe::{detect_diamonds, zmap, MdaMode, MdaPaths, Path, StoppingRule};
use proptest::prelude::*;
use testkit::scenario::{build_world, gen_spec};

/// A small per-flow path set over a 12-interface universe: short paths so
/// random sets actually overlap per TTL, with the top value of the raw
/// range standing in for a wildcard (`None`) hop.
fn arb_paths() -> impl Strategy<Value = Vec<Path>> {
    collection::vec(collection::vec(0u32..13, 1..10), 1..8).prop_map(|paths| {
        paths
            .into_iter()
            .map(|hops| Path {
                hops: hops
                    .into_iter()
                    .map(|n| (n < 12).then(|| Addr(0x0A00_0000 + n)))
                    .collect(),
            })
            .collect()
    })
}

fn paths_to_mda(paths: Vec<Path>) -> MdaPaths {
    MdaPaths {
        dst: Addr::new(198, 51, 100, 7),
        paths,
        reached: false,
        dst_distance: None,
        traces: Vec::new(),
    }
}

/// Classify one generated world end to end in a forced mode, single
/// threaded, faults off.
fn classify_in_mode(seed: u64, mode: MdaMode) -> Vec<BlockMeasurement> {
    let spec = gen_spec(seed).with_faults(0.0, 0.0);
    let mut world = build_world(&spec);
    let snapshot = zmap::scan_all(&mut world.network, 1);
    let selected = select_all(&snapshot);
    let cfg = HobbitConfig {
        mda_mode: mode,
        ..HobbitConfig::default()
    };
    let table = ConfidenceTable::empty();
    classify_blocks(&world.network, &selected, &table, &cfg, 1)
}

/// Fixed anchor from the paper: at 95% confidence the rule sends 6 probes
/// to reject a second next-hop after seeing one.
#[test]
fn confidence95_anchor_is_six_probes_for_one_hypothesis() {
    assert_eq!(StoppingRule::CONFIDENCE95.probes_needed(1), 6);
}

proptest! {
    /// `probes_needed` is 1 at k = 0 (the liveness probe) and monotone
    /// nondecreasing in the hypothesis count for any sane alpha — ruling
    /// out a ladder where widening a diamond could *lower* the budget and
    /// stop enumeration early.
    #[test]
    fn probes_needed_is_monotone_in_hypotheses(
        alpha in 0.001f64..0.5,
        kmax in 1usize..64,
    ) {
        let rule = StoppingRule { alpha };
        prop_assert_eq!(rule.probes_needed(0), 1);
        let mut prev = rule.probes_needed(0);
        for k in 1..=kmax {
            let n = rule.probes_needed(k);
            prop_assert!(
                n >= prev,
                "probes_needed({k}) = {n} < probes_needed({}) = {prev} at alpha {alpha}",
                k - 1
            );
            prev = n;
        }
    }

    /// Diamond detection sees per-TTL interface sets, not path order: any
    /// permutation of the discovered paths (equivalently, of the flow
    /// labels that found them) yields the identical diamond list.
    #[test]
    fn diamond_detection_is_invariant_under_path_permutation(
        paths in arb_paths(),
        rotate in 0usize..8,
        reverse in any::<bool>(),
    ) {
        let base = detect_diamonds(&paths_to_mda(paths.clone()));
        let mut permuted = paths;
        let r = rotate % permuted.len().max(1);
        permuted.rotate_left(r);
        if reverse {
            permuted.reverse();
        }
        let shuffled = detect_diamonds(&paths_to_mda(permuted));
        prop_assert_eq!(base, shuffled);
    }

    /// On a fault-free world MDA-Lite is a pure shortcut: block for block
    /// it never spends more probes than classic MDA. (Each case is a full
    /// build/classify cycle in both modes, on top of the 40-seed
    /// differential sweep in tests/mda_lite.rs — the case count is the
    /// crate-wide deterministic default.)
    #[test]
    fn lite_never_probes_more_than_classic(seed in 0u64..5_000) {
        let classic = classify_in_mode(seed, MdaMode::Classic);
        let lite = classify_in_mode(seed, MdaMode::Lite);
        prop_assert_eq!(classic.len(), lite.len());
        for (c, l) in classic.iter().zip(&lite) {
            prop_assert_eq!(c.block, l.block);
            prop_assert!(
                l.probes_used <= c.probes_used,
                "seed {seed} block {:?}: lite spent {} probes, classic {}",
                c.block,
                l.probes_used,
                c.probes_used
            );
        }
    }
}
