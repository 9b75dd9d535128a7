//! `hobbit-bench` — kernel throughput measurement emitting versioned
//! `hobbit-bench/v1` snapshots (see `bench::snapshot`).
//!
//! The vendored criterion stub prints wall-clock samples but persists
//! nothing, so this binary does its own timing: it generates seeded
//! synthetic workloads at 10k/100k/1M simulated /24s and times the
//! classify, identical-aggregation, similarity and MCL kernels, under
//! either the flat dense-layout path (`--label flat`) or the preserved
//! pre-flat `BTreeMap`/`HashMap` kernels from `testkit::baseline`
//! (`--label baseline`). Both labels consume byte-identical workloads, so
//! the committed `BENCH_baseline.json` vs `BENCH_flat.json` pair is a
//! real before/after measurement.
//!
//! ```text
//! hobbit-bench --label flat [--quick] [--seed N] [--out FILE]
//!              [--compare FILE [--max-regress 0.10]]
//! ```
//!
//! `--quick` runs the 10k scale only (the CI gate sweep); `--compare`
//! gates the fresh measurement against a committed snapshot over the
//! entry-name intersection and exits non-zero on regression.

use aggregate::{aggregate_identical, similarity_edges, HomogBlock};
use bench::{compare, BenchSnapshot};
use experiments::pipeline::block_ident;
use hobbit::{
    classify_block, early_verdict, select_all, BlockTable, Classification, ConfidenceTable,
    HobbitConfig,
};
use mcl::mcl_by_components;
use netsim::build::{build, derive_dynamics, ScenarioConfig};
use netsim::{Addr, Block24};
use obs::{Recorder, Registry};
use probe::{zmap, MdaMode, Prober};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use testkit::{baseline_aggregate_identical, baseline_early_verdict, baseline_similarity_edges};

/// Distinct per-/24 measurement streams; blocks cycle through these, so
/// the 1M scale costs kernel time, not workload memory.
const TEMPLATES: usize = 512;

struct Args {
    label: String,
    quick: bool,
    seed: u64,
    reps: Option<usize>,
    out: Option<String>,
    compare: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        label: String::new(),
        quick: false,
        seed: 0xB17,
        reps: None,
        out: None,
        compare: None,
        max_regress: 0.10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--label" => args.label = value("--label")?,
            "--quick" => args.quick = true,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--reps" => args.reps = Some(value("--reps")?.parse().map_err(|e| format!("{e}"))?),
            "--out" => args.out = Some(value("--out")?),
            "--compare" => args.compare = Some(value("--compare")?),
            "--max-regress" => {
                args.max_regress = value("--max-regress")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match args.label.as_str() {
        "flat" | "baseline" => Ok(args),
        "" => Err("--label flat|baseline is required".into()),
        other => Err(format!("unknown label {other:?} (want flat|baseline)")),
    }
}

/// Time `f`, repeating until at least `min_reps` runs, and return the
/// fastest per-run seconds (min-of-reps rejects scheduler noise).
fn time_secs(min_reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..min_reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Seeded per-/24 measurement streams mixing the classifier's verdict
/// shapes: contiguous groups (hierarchical), interleaved groups
/// (non-hierarchical), and single-router blocks (same last-hop), with
/// occasional multihomed destinations driving the group-merge path.
fn classify_streams(seed: u64) -> Vec<Vec<(Addr, Vec<Addr>)>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..TEMPLATES)
        .map(|t| {
            let block = Block24(0x0A_0000 + t as u32);
            let n = rng.gen_range(8..=28usize);
            let k = rng.gen_range(1..=6usize);
            let interleaved = rng.gen_bool(0.4);
            let mut hosts: Vec<u8> = (1..=254u8).collect();
            hosts.shuffle(&mut rng);
            hosts.truncate(n);
            hosts.sort_unstable();
            let mut stream: Vec<(Addr, Vec<Addr>)> = hosts
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    let group = if interleaved { i % k } else { i * k / n };
                    let router = |g: usize| Addr(0x0B00_0000 + (t * 8 + g) as u32);
                    let mut lasthops = vec![router(group)];
                    if k > 1 && rng.gen_bool(0.15) {
                        lasthops.push(router((group + 1) % k));
                    }
                    (block.addr(h), lasthops)
                })
                .collect();
            stream.shuffle(&mut rng);
            stream
        })
        .collect()
}

/// Replay the early-termination loop over `n_blocks` streams with the
/// flat incremental [`BlockTable`]; returns (verdicts, resolutions).
fn classify_flat(
    streams: &[Vec<(Addr, Vec<Addr>)>],
    n_blocks: usize,
    conf: &ConfidenceTable,
) -> (u64, u64) {
    let (mut verdicts, mut resolutions) = (0u64, 0u64);
    for b in 0..n_blocks {
        let stream = &streams[b % streams.len()];
        let mut table = BlockTable::new(stream[0].0.block24());
        let mut verdict: Option<Classification> = None;
        for (i, (dst, lasthops)) in stream.iter().enumerate() {
            table.add(*dst, lasthops);
            resolutions += 1;
            verdict = early_verdict(&table, i + 1, conf);
            if verdict.is_some() {
                break;
            }
        }
        verdicts += u64::from(black_box(verdict).is_some());
    }
    (verdicts, resolutions)
}

/// The same loop with the pre-flat kernels: rebuild the `BTreeMap`
/// grouping from scratch on every resolution, as the classifier used to.
fn classify_baseline(
    streams: &[Vec<(Addr, Vec<Addr>)>],
    n_blocks: usize,
    conf: &ConfidenceTable,
) -> (u64, u64) {
    let (mut verdicts, mut resolutions) = (0u64, 0u64);
    for b in 0..n_blocks {
        let stream = &streams[b % streams.len()];
        let mut per_dest: Vec<(Addr, Vec<Addr>)> = Vec::new();
        let mut verdict: Option<Classification> = None;
        for (dst, lasthops) in stream {
            per_dest.push((*dst, lasthops.clone()));
            resolutions += 1;
            verdict = baseline_early_verdict(&per_dest, conf);
            if verdict.is_some() {
                break;
            }
        }
        verdicts += u64::from(black_box(verdict).is_some());
    }
    (verdicts, resolutions)
}

/// Homogeneous-block world for the aggregation kernels (same shape as the
/// criterion `aggregation` bench: PoPs with subset-sampled router sets).
fn synthetic_world(n_blocks: usize, pops: usize, seed: u64) -> Vec<HomogBlock> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n_blocks)
        .map(|i| {
            let pop = i % pops;
            let routers: Vec<Addr> = (0..4u32)
                .filter(|_| rng.gen_bool(0.7))
                .map(|r| Addr(0x0A00_0000 + (pop as u32) * 8 + r))
                .collect();
            let routers = if routers.is_empty() {
                vec![Addr(0x0A00_0000 + (pop as u32) * 8)]
            } else {
                routers
            };
            HomogBlock::new(Block24(i as u32), routers)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hobbit-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let flat = args.label == "flat";
    let scales: &[usize] = if args.quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let registry = Registry::new();
    let blocks_counter = registry.counter("bench.blocks_processed");
    let probes_counter = registry.counter("bench.probes_simulated");
    let entries_counter = registry.counter("bench.entries");

    let mut snap = BenchSnapshot::new(&args.label, args.seed);
    let streams = classify_streams(args.seed);
    let conf = ConfidenceTable::empty();

    // Untimed layout statistics over the distinct stream templates: how
    // many dense tables the flat path builds and how many last-hop router
    // groups they hold — workload-shape context for reading a snapshot.
    let tables_counter = registry.counter("layout.tables_built");
    let groups_counter = registry.counter("layout.router_groups");
    for stream in &streams {
        let mut table = BlockTable::new(stream[0].0.block24());
        for (dst, lasthops) in stream {
            table.add(*dst, lasthops);
        }
        tables_counter.inc();
        groups_counter.add(table.cardinality() as u64);
    }

    for &n in scales {
        let reps = args.reps.unwrap_or(if n >= 1_000_000 { 1 } else { 3 });
        eprintln!("[{}] classify @{n}", args.label);

        // Classify: group maintenance + verdict re-test per resolution.
        let mut resolutions = 0u64;
        let secs = time_secs(reps, || {
            let (v, r) = if flat {
                classify_flat(&streams, n, &conf)
            } else {
                classify_baseline(&streams, n, &conf)
            };
            black_box(v);
            resolutions = r;
        });
        snap.push(
            format!("classify.group_verdicts.blocks_per_sec@{n}"),
            n as f64 / secs,
            "blocks_per_sec",
            true,
        );
        snap.push(
            format!("classify.group_verdicts.probes_per_sec@{n}"),
            resolutions as f64 / secs,
            "probes_per_sec",
            true,
        );
        blocks_counter.add(n as u64);
        probes_counter.add(resolutions);
        entries_counter.add(2);

        // Aggregation: identical-set grouping over n homogeneous /24s.
        // PoP count gives the paper's ~3-4x block-to-aggregate reduction.
        eprintln!("[{}] aggregate @{n}", args.label);
        let world = synthetic_world(n, (n / 64).max(1), args.seed);
        let pairs: Vec<(Block24, Vec<Addr>)> = world
            .iter()
            .map(|b| (b.block, b.lasthops.clone()))
            .collect();
        let secs = time_secs(reps, || {
            if flat {
                black_box(aggregate_identical(&world).len());
            } else {
                black_box(baseline_aggregate_identical(&pairs).len());
            }
        });
        snap.push(
            format!("aggregate.identical.blocks_per_sec@{n}"),
            n as f64 / secs,
            "blocks_per_sec",
            true,
        );

        // Similarity edges over the aggregates of the same world.
        let aggs = aggregate_identical(&world);
        let sets: Vec<Vec<Addr>> = aggs.iter().map(|a| a.lasthops.clone()).collect();
        let secs = time_secs(reps, || {
            if flat {
                black_box(similarity_edges(&aggs).len());
            } else {
                black_box(baseline_similarity_edges(&sets).len());
            }
        });
        snap.push(
            format!("aggregate.similarity.blocks_per_sec@{n}"),
            n as f64 / secs,
            "blocks_per_sec",
            true,
        );
        blocks_counter.add(2 * n as u64);
        entries_counter.add(2);

        // Probe budget: real last-hop probing over a seeded netsim world
        // under both MDA stopping disciplines. The world's selected blocks
        // cycle to `n` classifications (the same template-cycling idiom as
        // the kernel workloads above), so each entry is a deterministic
        // probe count per classified block, not a timing — the committed
        // snapshots pin the probe-budget trajectory alongside wall time.
        eprintln!("[{}] probe @{n}", args.label);
        if n >= 1_000_000 {
            eprintln!(
                "[{}] probe @{n}: skipped — cycling the same blocks adds no \
                 information at 1M; the trajectory is pinned at 10k/100k",
                args.label
            );
        } else {
            for mode in [MdaMode::Classic, MdaMode::Lite] {
                // A fresh world per mode: probing warms caches and drains
                // ICMP token buckets, so reuse would leak one mode's state
                // into the other's measurement. Churn and quiet periods are
                // pinned off — a block that went dark between snapshot and
                // probing costs only liveness checks, identical in either
                // MDA mode, and would dilute the probe-budget signal these
                // entries exist to track.
                let mut probe_cfg_world = ScenarioConfig::tiny(args.seed);
                probe_cfg_world.churn = 0.0;
                probe_cfg_world.quiet_prob = 0.0;
                let mut scenario = build(probe_cfg_world);
                let zmap_snapshot = zmap::scan_all(&mut scenario.network, 1);
                let selected = select_all(&zmap_snapshot);
                assert!(!selected.is_empty(), "tiny world selects no blocks");
                let probe_cfg = HobbitConfig {
                    mda_mode: mode,
                    ..HobbitConfig::default()
                };
                let mut probes = 0u64;
                for j in 0..n {
                    let sel = &selected[j % selected.len()];
                    let mut prober = Prober::new(&scenario.network, block_ident(sel.block));
                    let m = classify_block(&mut prober, sel, &conf, &probe_cfg);
                    probes += m.probes_used;
                }
                snap.push(
                    format!("probe.classify.probes_per_block.{}@{n}", mode.slug()),
                    probes as f64 / n as f64,
                    "probes_per_block",
                    false,
                );
                probes_counter.add(probes);
                entries_counter.inc();
            }

            // Dynamics overhead: the same tiny world re-probed with a
            // seeded event schedule armed. The entry pins the per-block
            // probe cost of a live virtual clock — schedule lookups plus
            // artifact-induced reprobes — next to the static trajectory
            // above, so a hot-path regression in the clock shows up as
            // probe-budget drift rather than a wall-time blur.
            let mut dyn_world_cfg = ScenarioConfig::tiny(args.seed);
            dyn_world_cfg.churn = 0.0;
            dyn_world_cfg.quiet_prob = 0.0;
            let mut scenario = build(dyn_world_cfg);
            let zmap_snapshot = zmap::scan_all(&mut scenario.network, 1);
            let selected = select_all(&zmap_snapshot);
            let schedule = derive_dynamics(&scenario, 0.5, 64);
            let events = schedule.events.len() as u64;
            scenario.network.set_dynamics(schedule);
            let probe_cfg = HobbitConfig {
                dynamics_period: if events > 0 { 64 } else { 0 },
                ..HobbitConfig::default()
            };
            let mut probes = 0u64;
            for j in 0..n {
                let sel = &selected[j % selected.len()];
                let mut prober = Prober::new(&scenario.network, block_ident(sel.block));
                let m = classify_block(&mut prober, sel, &conf, &probe_cfg);
                probes += m.probes_used;
            }
            snap.push(
                format!("probe.classify.probes_per_block.dynamic@{n}"),
                probes as f64 / n as f64,
                "probes_per_block",
                false,
            );
            probes_counter.add(probes);
            entries_counter.inc();
        }

        // MCL wall time on the similarity graph (shared kernel: the flat
        // layout feeds it, so the entry tracks end-of-pipeline latency).
        eprintln!("[{}] mcl @{n}", args.label);
        let edges = similarity_edges(&aggs);
        let secs = time_secs(reps, || {
            black_box(mcl_by_components(aggs.len(), &edges, 2.0).clusters.len());
        });
        snap.push(format!("mcl.wall_ms@{n}"), secs * 1e3, "ms", false);
        entries_counter.inc();
    }

    for name in [
        "bench.blocks_processed",
        "bench.probes_simulated",
        "bench.entries",
        "layout.tables_built",
        "layout.router_groups",
    ] {
        if let Some(v) = registry.counter_value(name) {
            snap.counters.insert(name.to_string(), v);
        }
    }

    let json = snap.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("hobbit-bench: writing {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("[{}] wrote {path}", args.label);
        }
        None => print!("{json}"),
    }

    if let Some(reference_path) = &args.compare {
        let reference = match std::fs::read_to_string(reference_path)
            .map_err(|e| e.to_string())
            .and_then(|s| BenchSnapshot::from_json(&s))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hobbit-bench: loading {reference_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match compare(&reference, &snap, args.max_regress) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hobbit-bench: gate against {reference_path}: {e}");
                return ExitCode::from(2);
            }
        };
        eprintln!(
            "gate: {} entries compared against {reference_path} (max regress {:.0}%)",
            report.compared.len(),
            args.max_regress * 100.0
        );
        for r in &report.regressions {
            eprintln!(
                "  REGRESSED {}: {:.1} -> {:.1} ({:.1}% of reference)",
                r.name,
                r.reference,
                r.measured,
                r.ratio * 100.0
            );
        }
        if !report.pass() {
            return ExitCode::FAILURE;
        }
        eprintln!("gate: pass");
    }
    ExitCode::SUCCESS
}
