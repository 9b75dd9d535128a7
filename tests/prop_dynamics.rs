//! Property tests for the time-evolving dynamics layer: the derived
//! schedule is a pure function of `(seed, rate, period)` and monotone in
//! the rate, a dynamic world classifies thread-invariantly in both MDA
//! modes, partitioning a dynamic run over shards never changes a
//! measurement byte (the virtual clock is per-stream, not global), and an
//! armed-but-empty schedule is byte-invisible.

use experiments::classify_blocks;
use experiments::lease::shard_of;
use hobbit::{select_all, BlockMeasurement, ConfidenceTable, SelectedBlock};
use netsim::build::{build, derive_dynamics, ScenarioConfig};
use probe::{zmap, MdaMode};
use proptest::prelude::*;
use testkit::diff::{conform_config, run_spec};
use testkit::scenario::{build_world, gen_spec, DynamicsSpec, EventSpec, NetemKnobs, ScenarioSpec};

/// A generated spec with a live schedule planted on it: one route churn at
/// epoch 1, one address-reuse at epoch 2, and (on odd seeds) mild netem
/// noise — enough evolution to exercise every clock path without
/// hand-picking a scenario shape.
fn dynamic_spec(seed: u64) -> ScenarioSpec {
    let mut spec = gen_spec(seed);
    spec.dynamics = DynamicsSpec::default();
    spec.dynamics.period = 16;
    let last = (spec.pops.len() - 1) as u8;
    spec.dynamics.events = vec![
        EventSpec::RouteChurn {
            pop: 0,
            at_epoch: 1,
        },
        EventSpec::AddressReuse {
            pop: last,
            at_epoch: 2,
        },
    ];
    if seed % 2 == 1 {
        spec.dynamics.netem = NetemKnobs {
            delay_us: 300,
            jitter_us: 150,
            reorder_pct: 1,
            duplicate_pct: 1,
        };
    }
    spec.validate().expect("planted schedule validates");
    spec
}

/// Build, snapshot, arm faults + dynamics, classify `subset` — the same
/// sequence a shard worker runs, with a fresh world per call so no probing
/// state leaks between partitions.
fn classify_subset(
    spec: &ScenarioSpec,
    subset: &[SelectedBlock],
    threads: usize,
) -> Vec<BlockMeasurement> {
    let mut world = build_world(spec);
    let _snapshot = zmap::scan_all(&mut world.network, 1);
    world.network.set_faults(spec.faults());
    if world.dynamics.is_active() {
        world.network.set_dynamics(world.dynamics.clone());
    }
    let (table, cfg) = (ConfidenceTable::empty(), conform_config(spec));
    classify_blocks(&world.network, subset, &table, &cfg, threads)
}

/// The selection a full run and every shard agree on (selection reads the
/// epoch-0 snapshot, before the schedule arms).
fn selection_of(spec: &ScenarioSpec) -> Vec<SelectedBlock> {
    let mut world = build_world(spec);
    let snapshot = zmap::scan_all(&mut world.network, 1);
    select_all(&snapshot)
}

proptest! {
    /// `derive_dynamics` is a pure function of `(seed, rate, period)`:
    /// re-building the scenario and re-deriving yields the identical
    /// schedule (this is what lets `--resume` and every shard replay the
    /// world evolution from three numbers in the journal). The per-PoP
    /// draws are rate-monotone — a higher rate perturbs a superset of the
    /// PoPs with the same events — and a zero rate or period derives
    /// nothing at all.
    #[test]
    fn derived_schedule_is_pure_and_rate_monotone(
        seed in 0u64..100_000,
        r1 in 0.05f64..1.0,
        r2 in 0.05f64..1.0,
        pexp in 3u32..8,
    ) {
        let period = 1u64 << pexp;
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let a = derive_dynamics(&build(ScenarioConfig::tiny(seed)), hi, period);
        let b = derive_dynamics(&build(ScenarioConfig::tiny(seed)), hi, period);
        prop_assert_eq!(&a, &b, "seed {} rate {} period {}", seed, hi, period);
        prop_assert_eq!(a.period, period);
        for e in &a.events {
            let epoch = e.at_epoch();
            prop_assert!(
                (1..=4).contains(&epoch),
                "seed {seed}: derived event at epoch {epoch}"
            );
        }
        let sparse = derive_dynamics(&build(ScenarioConfig::tiny(seed)), lo, period);
        for e in &sparse.events {
            prop_assert!(
                a.events.contains(e),
                "seed {seed}: rate {lo} scheduled {e:?} but rate {hi} did not"
            );
        }
        let zero_rate = derive_dynamics(&build(ScenarioConfig::tiny(seed)), 0.0, period);
        prop_assert!(zero_rate.events.is_empty());
        let zero_period = derive_dynamics(&build(ScenarioConfig::tiny(seed)), hi, 0);
        prop_assert!(zero_period.events.is_empty());
    }

    /// A dynamic world stays oracle-clean and byte-identical across thread
    /// counts under *both* probing modes — MDA-Lite's shortcut paths pull
    /// the same per-stream virtual clock, so forcing the mode must never
    /// introduce a thread-ordering dependence, and the live schedule must
    /// tag evidence with epochs either way.
    #[test]
    fn dynamic_worlds_are_thread_invariant_in_both_mda_modes(seed in 0u64..50_000) {
        for mode in [MdaMode::Classic, MdaMode::Lite] {
            let mut spec = dynamic_spec(seed);
            spec.mda_mode = mode;
            let r = run_spec(&spec, &[1, 8], &classify_blocks, None);
            prop_assert!(
                r.clean(),
                "seed {} {:?}: {:?}",
                seed,
                mode,
                r.mismatches
            );
            // Epoch tags ride on resolved destinations; a world where no
            // last hop resolves legitimately records none.
            if r.measurements.iter().any(|m| m.dests_resolved > 0) {
                prop_assert!(
                    r.measurements.iter().any(|m| !m.dest_epochs.is_empty()),
                    "seed {seed} {mode:?}: live schedule tagged no evidence"
                );
            }
        }
    }

    /// Partitioning a dynamic run over shards is invisible in the
    /// measurement bytes: the virtual clock ticks per probe stream (ICMP
    /// ident × destination block), so which worker probes a block — and
    /// alongside which other blocks — cannot move any block's epochs.
    #[test]
    fn shard_partition_never_changes_dynamic_measurement_bytes(
        seed in 0u64..50_000,
        shards in 2usize..5,
    ) {
        let spec = dynamic_spec(seed);
        let selected = selection_of(&spec);
        if selected.is_empty() {
            // All planted blocks below the selection bar — nothing to shard.
            continue;
        }
        let full = classify_subset(&spec, &selected, 1);
        let mut slots: Vec<Option<BlockMeasurement>> =
            (0..selected.len()).map(|_| None).collect();
        for s in 0..shards {
            let idx: Vec<usize> = (0..selected.len())
                .filter(|&i| shard_of(i, shards) == s)
                .collect();
            let subset: Vec<SelectedBlock> =
                idx.iter().map(|&i| selected[i].clone()).collect();
            let ms = classify_subset(&spec, &subset, 2);
            prop_assert_eq!(ms.len(), idx.len());
            for (i, m) in idx.into_iter().zip(ms) {
                slots[i] = Some(m);
            }
        }
        let merged: Vec<BlockMeasurement> =
            slots.into_iter().map(|m| m.expect("every slot classified")).collect();
        prop_assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&merged).unwrap(),
            "seed {} over {} shards", seed, shards
        );
    }

    /// Arming the clock without scheduling anything is byte-invisible: a
    /// period with no events (and inactive netem) never ticks, never tags
    /// an epoch, and never perturbs a measurement — the guarantee that
    /// keeps every pre-dynamics report reproducible to the byte.
    #[test]
    fn an_armed_but_empty_schedule_is_byte_invisible(
        seed in 0u64..100_000,
        pexp in 3u32..8,
    ) {
        let mut spec = gen_spec(seed);
        spec.dynamics = DynamicsSpec::default();
        let frozen = run_spec(&spec, &[1], &classify_blocks, None);
        let mut armed = spec.clone();
        armed.dynamics.period = 1u64 << pexp;
        let idle = run_spec(&armed, &[1], &classify_blocks, None);
        prop_assert_eq!(
            serde_json::to_string(&frozen.measurements).unwrap(),
            serde_json::to_string(&idle.measurements).unwrap(),
            "seed {}: an empty schedule changed the measurement bytes", seed
        );
    }
}
