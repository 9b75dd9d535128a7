//! The workloads and one end-to-end campaign: the world in hand, the
//! pipeline, and the same post-pipeline calls `hobbit_map` makes, ending
//! at the in-memory Hobbit dataset.

use crate::ramvfs::RamVfs;
use aggregate::{Aggregate, HobbitDataset};
use experiments::exps::figure9::{cluster_and_validate, ClusterOutcome};
use experiments::journal::{read_journal_via, JOURNAL_FILE};
use experiments::pipeline::scenario_config;
use experiments::vfs::Storage;
use experiments::{CrashPoint, ExpArgs, Pipeline, PipelineBuilder, WorkerStats};
use netsim::build::{build, Scenario};
use netsim::{Block24, NetworkStats};
use obs::Registry;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload: the campaign configuration it runs.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Classification worker threads.
    pub threads: usize,
    /// Injected `(link loss, ICMP token-bucket rate)`.
    pub faults: Option<(f64, f64)>,
    /// World dynamics `(rate, period)`.
    pub dynamics: Option<(f64, u64)>,
    /// Probe in MDA-Lite mode.
    pub mda_lite: bool,
    /// Kill the campaign halfway and resume it from its journal.
    pub resume: bool,
}

/// The workloads, in `BENCHMARK.json` order. README.md says why each
/// exists and what it should and should not move.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "survey",
        threads: 2,
        faults: None,
        dynamics: None,
        mda_lite: false,
        resume: false,
    },
    Workload {
        name: "lossy-churn-lite",
        threads: 1,
        faults: Some((0.02, 0.5)),
        dynamics: Some((0.1, experiments::args::DEFAULT_DYNAMICS_PERIOD)),
        mda_lite: true,
        resume: false,
    },
    Workload {
        name: "resume",
        threads: 2,
        faults: None,
        dynamics: None,
        mda_lite: false,
        resume: true,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run-dir path of the `resume` workload inside its [`RamVfs`].
const RUN_DIR: &str = "ram/run";

/// The leg-1 kill fires after this share of the world's allocated /24s is
/// journaled, which is about half of the selected /24s.
const CRASH_SHARE_OF_ALLOCATED: f64 = 0.42;

/// Standalone journal replays a traced `resume` campaign times.
const REPLAY_REPEATS: usize = 5;

impl Workload {
    /// Build the worlds one campaign consumes; returns them with the build
    /// wall time. The resumed leg of `resume` needs a fresh world, exactly
    /// like a restarted process.
    pub fn build_worlds(&self, seed: u64, scale: f64) -> (Vec<Scenario>, f64) {
        let cfg = scenario_config(&ExpArgs {
            seed,
            scale,
            ..Default::default()
        });
        let legs = if self.resume { 2 } else { 1 };
        let t = Instant::now();
        let worlds = (0..legs).map(|_| build(cfg.clone())).collect();
        (worlds, t.elapsed().as_secs_f64())
    }

    fn builder(&self, world: Scenario, scale: f64, traced: bool) -> PipelineBuilder {
        let mut b = Pipeline::builder()
            .seed(world.config.seed)
            .scale(scale)
            .threads(self.threads)
            .mda_lite(self.mda_lite)
            .scenario(world);
        if let Some((loss, rate)) = self.faults {
            b = b.faults(loss, rate);
        }
        if let Some((rate, period)) = self.dynamics {
            b = b.dynamics(rate, period);
        }
        if traced {
            b = b.observe();
        }
        b
    }
}

/// What one pipeline leg left behind, kept after its [`Pipeline`] is
/// dropped.
pub struct Leg {
    /// Wall time of `try_run` (for leg 1 of `resume`, until its pipeline
    /// is dropped, as a killed process gives its memory back).
    pub wall_s: f64,
    /// The leg's metrics registry (traced campaigns only).
    pub registry: Option<Arc<Registry>>,
    /// Probes the snapshot scan sent.
    pub snapshot_probes: u64,
    /// Probes the network carried, snapshot included, at the end of the leg
    /// (for the final leg: after reprobing).
    pub probes_carried: u64,
    /// Network-side counters at the end of the leg.
    pub net: NetworkStats,
    /// Per-worker classification accounting.
    pub workers: Vec<WorkerStats>,
    /// Events in the derived dynamics schedule.
    pub dynamics_events: u64,
    /// Blocks recovered from the journal.
    pub resumed_blocks: u64,
    /// Blocks supervision quarantined.
    pub quarantined: usize,
}

impl Leg {
    fn of(p: &Pipeline) -> Leg {
        Leg {
            wall_s: 0.0,
            registry: p.obs.clone(),
            snapshot_probes: p.snapshot.probes,
            probes_carried: p.scenario.network.probes_carried(),
            net: p.net_stats,
            workers: p.worker_stats.clone(),
            dynamics_events: p.dynamics_events,
            resumed_blocks: p.supervision.resumed_blocks,
            quarantined: p.supervision.quarantined.len(),
        }
    }
}

/// One finished campaign.
pub struct Campaign {
    /// Selected /24s: the campaign's operations.
    pub selected: usize,
    /// World in hand to in-memory dataset, both legs for `resume`.
    pub campaign_s: f64,
    /// Probes the method sent: calibration, classification and reprobing,
    /// all legs; the snapshot scan is excluded.
    pub method_probes: u64,
    /// Blocks with an analyzable verdict.
    pub analyzable: usize,
    /// Operations that failed: quarantined, or not measured exactly once.
    pub failed: usize,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// `Pipeline::canonical_report()` of the final leg.
    pub report: String,
    /// The pipeline legs, in order.
    pub legs: Vec<Leg>,
    /// Wall time of `cluster_and_validate` (aggregation, MCL, reprobing).
    pub cluster_and_validate_s: f64,
    /// Wall time of the dataset build.
    pub dataset_s: f64,
    /// Aggregates the campaign clustered.
    pub aggregates: Vec<Aggregate>,
    /// The final dataset.
    pub dataset: HobbitDataset,
    /// The final leg's pipeline (traced campaigns only), for the layer
    /// micro-measurements on the campaign's own world.
    pub pipeline: Option<Pipeline>,
    /// The `resume` workload's RAM-backed run directory.
    pub run_dir: Option<Arc<RamVfs>>,
    /// Standalone replay time of the leg-1 journal (traced `resume`).
    pub replay_s: Option<f64>,
}

impl Campaign {
    /// Method probes per selected /24.
    pub fn probes_per_block(&self) -> f64 {
        self.method_probes as f64 / self.selected as f64
    }

    /// Share of selected /24s with an analyzable verdict.
    pub fn analyzable_share(&self) -> f64 {
        self.analyzable as f64 / self.selected as f64
    }
}

/// Run one campaign over the worlds [`Workload::build_worlds`] built at
/// `scale`. The clock runs from the worlds in hand to the
/// in-memory dataset; output checks run after it stops. A traced `resume`
/// campaign also times a standalone replay of the leg-1 journal between
/// the legs, with the clock stopped.
pub fn run(
    w: &Workload,
    worlds: Vec<Scenario>,
    scale: f64,
    traced: bool,
) -> Result<Campaign, String> {
    let mut worlds = worlds.into_iter();
    let mut next_world = || worlds.next().expect("one world per leg");
    let mut legs = Vec::new();
    let mut run_dir = None;
    let mut replay_s = None;
    let mut p = if w.resume {
        let vfs = Arc::new(RamVfs::default());
        let storage = Storage::with_vfs(vfs.clone());
        let world = next_world();
        let crash = CrashPoint {
            after_block_appends: crash_after(&world),
            torn: false,
        };
        let t = Instant::now();
        let leg1 = w
            .builder(world, scale, traced)
            .run_dir(RUN_DIR)
            .storage(storage.clone())
            .crash_point(crash)
            .try_run()
            .map_err(|e| format!("leg 1: {e}"))?;
        let mut leg = Leg::of(&leg1);
        let interrupted = leg1.supervision.interrupted;
        drop(leg1);
        leg.wall_s = t.elapsed().as_secs_f64();
        legs.push(leg);
        if !interrupted {
            return Err("leg 1 finished without its simulated kill firing".into());
        }
        if traced {
            replay_s = Some(time_replay(&storage)?);
        }
        let t = Instant::now();
        let leg2 = w
            .builder(next_world(), scale, traced)
            .resume_from(RUN_DIR)
            .storage(storage)
            .try_run()
            .map_err(|e| format!("leg 2: {e}"))?;
        let mut leg = Leg::of(&leg2);
        leg.wall_s = t.elapsed().as_secs_f64();
        legs.push(leg);
        run_dir = Some(vfs);
        leg2
    } else {
        let t = Instant::now();
        let p = w
            .builder(next_world(), scale, traced)
            .try_run()
            .map_err(|e| format!("pipeline: {e}"))?;
        let mut leg = Leg::of(&p);
        leg.wall_s = t.elapsed().as_secs_f64();
        legs.push(leg);
        p
    };

    let t = Instant::now();
    let seed = p.seed;
    let (aggregates, _clustering, outcomes) = cluster_and_validate(&mut p, seed, 120, 40);
    let cluster_and_validate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dataset = build_dataset(seed, &aggregates, &outcomes);
    let dataset_s = t.elapsed().as_secs_f64();
    let campaign_s =
        legs.iter().map(|l| l.wall_s).sum::<f64>() + cluster_and_validate_s + dataset_s;

    // Reprobing sends probes on the final leg's network after `try_run`.
    let last = legs.last_mut().expect("at least one leg");
    last.probes_carried = p.scenario.network.probes_carried();
    last.net = p.scenario.network.net_stats();
    let method_probes = legs
        .iter()
        .map(|l| l.probes_carried - l.snapshot_probes)
        .sum();

    let mut problems = p.verify_conformance();
    let failed_blocks = failed_blocks(&p);
    if !failed_blocks.is_empty() {
        problems.push(format!(
            "{} selected /24s quarantined or not measured exactly once",
            failed_blocks.len()
        ));
    }
    if let Some(dup) = first_shared_member(&dataset) {
        problems.push(format!("{dup} belongs to two Hobbit blocks"));
    }
    if w.resume && p.supervision.resumed_blocks == 0 {
        problems.push("the resumed leg recovered no blocks from the journal".into());
    }

    Ok(Campaign {
        selected: p.selected.len(),
        campaign_s,
        method_probes,
        analyzable: p
            .measurements
            .iter()
            .filter(|m| m.classification.is_analyzable())
            .count(),
        failed: failed_blocks.len(),
        problems,
        report: p.canonical_report(),
        legs,
        cluster_and_validate_s,
        dataset_s,
        aggregates,
        dataset,
        pipeline: traced.then_some(p),
        run_dir,
        replay_s,
    })
}

/// Median wall time of reading back the journal in `storage`'s run dir,
/// the read a resume starts with.
fn time_replay(storage: &Storage) -> Result<f64, String> {
    let path = Path::new(RUN_DIR).join(JOURNAL_FILE);
    let mut samples = Vec::new();
    for _ in 0..REPLAY_REPEATS {
        let t = Instant::now();
        let replay = read_journal_via(storage, &path).map_err(|e| format!("replay: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box(replay);
    }
    Ok(crate::stats::median(&samples))
}

/// Block appends after which leg 1 of `resume` is killed.
fn crash_after(world: &Scenario) -> u64 {
    (world.network.allocated_blocks().len() as f64 * CRASH_SHARE_OF_ALLOCATED) as u64
}

/// Selected /24s that supervision quarantined or that do not have exactly
/// one measurement.
pub(crate) fn failed_blocks(p: &Pipeline) -> HashSet<Block24> {
    let mut count: HashMap<Block24, usize> = p.selected.iter().map(|s| (s.block, 0)).collect();
    let mut failed: HashSet<Block24> = HashSet::new();
    for m in &p.measurements {
        match count.get_mut(&m.block) {
            Some(n) => *n += 1,
            None => {
                failed.insert(m.block);
            }
        }
    }
    failed.extend(count.into_iter().filter(|&(_, n)| n != 1).map(|(b, _)| b));
    failed.extend(p.supervision.quarantined.iter().map(|q| q.block));
    failed
}

/// A /24 that two dataset blocks share, if any.
pub(crate) fn first_shared_member(dataset: &HobbitDataset) -> Option<Block24> {
    let mut seen = HashSet::new();
    dataset
        .blocks
        .iter()
        .flat_map(|b| b.members())
        .find(|&m| !seen.insert(m))
}

/// The dataset build of `experiments::exps::hobbit_map::build_dataset`,
/// which takes CLI arguments and runs its own pipeline, so the benchmark
/// cannot hand it a prebuilt one: merge the aggregates of clusters that
/// reprobing confirmed, keep the rest, and flag the merged blocks. The
/// self-test checks the two agree byte for byte.
pub fn build_dataset(seed: u64, aggs: &[Aggregate], outcomes: &[ClusterOutcome]) -> HobbitDataset {
    let mut merged_away: HashSet<u32> = HashSet::new();
    let mut finals: Vec<Aggregate> = Vec::new();
    let mut validated_sets: HashSet<Vec<Block24>> = HashSet::new();
    for o in outcomes {
        if !o.validation.homogeneous() || o.members.len() < 2 {
            continue;
        }
        let mut blocks = Vec::new();
        let mut lasthops = Vec::new();
        for &m in &o.members {
            merged_away.insert(m);
            blocks.extend(aggs[m as usize].blocks.iter().copied());
            lasthops.extend(aggs[m as usize].lasthops.iter().copied());
        }
        blocks.sort();
        lasthops.sort();
        lasthops.dedup();
        validated_sets.insert(blocks.clone());
        finals.push(Aggregate { lasthops, blocks });
    }
    for (i, a) in aggs.iter().enumerate() {
        if !merged_away.contains(&(i as u32)) {
            finals.push(a.clone());
        }
    }
    let mut dataset = HobbitDataset::from_aggregates(seed, &finals, &|_| false);
    for b in &mut dataset.blocks {
        let members: Vec<Block24> = b.members().collect();
        if validated_sets.contains(&members) {
            b.validated = true;
        }
    }
    dataset
}
