//! The shared measurement pipeline every experiment builds on.
//!
//! # Phases
//!
//! [`PipelineBuilder::try_run`] runs one private function per step over
//! one run state: open or resume the journal, build the world, take the
//! snapshot (or load the persisted prefix), install faults and dynamics,
//! select, calibrate, persist the prefix and shard totals, classify, and
//! seal the journal. Each opens its own `run/<phase>` span inside `run`.
//!
//! # Concurrency
//!
//! Classification runs over **one** borrowed `&Network`: the selected
//! blocks go into the supervised work-stealing engine
//! ([`classify_blocks_supervised`]), whose scoped worker threads pull
//! blocks and probe them — no per-worker `Network::clone()`. Every block
//! gets a *fresh* prober whose ICMP ident is derived from the block
//! address (not the worker id), so the probe stream a block sees — and
//! therefore every classification — is byte-identical no matter how many
//! threads run or which worker steals which block.
//!
//! # Entry points
//!
//! Use the fluent builder:
//!
//! ```no_run
//! use experiments::Pipeline;
//! let p = Pipeline::builder().seed(42).scale(0.01).threads(8).run();
//! assert_eq!(p.measurements.len(), p.selected.len());
//! ```
//!
//! The classification engine is also available standalone via
//! [`classify_blocks`], which takes a `&Network` directly.

#![deny(clippy::unwrap_used)]

use crate::args::{bad_deadline, ExpArgs};
use crate::coordinator::{EXIT_REFUSED, EXIT_STORAGE};
use crate::journal::{
    CrashPoint, Entry, JournalReplay, JournalWriter, Mismatch, RunMeta, ShardInfo,
};
use crate::lease::shard_of;
use crate::prefix::{self, RunPrefix};
use crate::supervise::{
    classify_blocks_supervised, FaultInjector, ShutdownSignal, SuperviseHooks, SuperviseObs,
    SuperviseReport, SupervisedOutcome, DEFAULT_DEADLINE,
};
use crate::vfs::{Storage, StorageError};
use aggregate::{aggregate_identical, Aggregate, HomogBlock};
use hobbit::{
    detects_homogeneous, prober_retries, select_block, survey_block, BlockLasthopData,
    BlockMeasurement, ConfidenceTable, HobbitConfig, SelectReject, SelectedBlock,
};
use netsim::build::{derive_dynamics, try_build, BuildError, Scenario, ScenarioConfig};
use netsim::{Block24, FaultConfig, Network, NetworkStats};
use obs::{NullRecorder, Recorder, Registry, SpanTimer};
use parking_lot::Mutex;
use probe::{zmap, MdaMode, ProbeLedger, ProbeObs, Prober, ZmapSnapshot};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use hobbit::block_ident;

/// The recorder unobserved runs report into (retains nothing).
static NULL_RECORDER: NullRecorder = NullRecorder;

/// The run's registry as a recorder, or the null recorder when the run is
/// unobserved.
fn recorder(obs: Option<&Registry>) -> &dyn Recorder {
    obs.map_or(&NULL_RECORDER, |r| r as &dyn Recorder)
}

/// Derive the scenario configuration from the common arguments.
pub fn scenario_config(args: &ExpArgs) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(args.seed);
    cfg.target_blocks = ((cfg.target_blocks as f64) * args.scale).round().max(256.0) as usize;
    cfg.big_block_scale = args.scale.min(1.0);
    cfg
}

/// Everything the pipeline produced.
pub struct Pipeline {
    /// The simulated internet and its ground truth.
    pub scenario: Scenario,
    /// The ZMap snapshot (epoch 0), scanned or loaded from the run dir.
    pub snapshot: ZmapSnapshot,
    /// Blocks passing the Section 3.3 selection.
    pub selected: Vec<SelectedBlock>,
    /// Blocks rejected for < 4 snapshot-active addresses.
    pub reject_too_few: usize,
    /// Blocks rejected for an uncovered /26 quarter.
    pub reject_uncovered: usize,
    /// The calibrated confidence table (Figure 4).
    pub confidence: ConfidenceTable,
    /// The classifier configuration the run used (needed to replay
    /// verdicts, e.g. by [`Pipeline::verify_conformance`]).
    pub hobbit_cfg: HobbitConfig,
    /// Per-block classification results, in block order.
    pub measurements: Vec<BlockMeasurement>,
    /// Probe packets spent on classification (sum over workers).
    pub classify_probes: u64,
    /// Probe packets spent on calibration surveys, by this process or (for
    /// a loaded prefix) by the run's first incarnation.
    pub calibration_probes: u64,
    /// Per-worker accounting from the classification phase.
    pub worker_stats: Vec<WorkerStats>,
    /// Network-side carry/drop counters at the end of the run (all zeros
    /// unless fault injection was enabled).
    pub net_stats: NetworkStats,
    /// The metrics registry the run reported into, when observability was
    /// enabled ([`PipelineBuilder::observe`], `--metrics`, `--trace-spans`).
    /// Post-pipeline phases (aggregation, reprobing) keep reporting into it
    /// via [`Pipeline::recorder`].
    pub obs: Option<Arc<Registry>>,
    /// What supervision observed: quarantined blocks, requeues, caught
    /// panics, watchdog cancellations, resumed-block count, and whether the
    /// run was interrupted (simulated crash) or drained by a shutdown.
    pub supervision: SuperviseReport,
    /// The seed the run actually used. On `--resume` this comes from the
    /// journal's meta record, which overrides the command line — report
    /// text must quote this, not the caller's flags.
    pub seed: u64,
    /// The scale the run actually used (journal meta wins on resume, like
    /// [`Pipeline::seed`]).
    pub scale: f64,
    /// The dynamics knobs `(rate, period)` the run used (`None` ⇒ the
    /// world stayed frozen after the snapshot).
    pub dynamics: Option<(f64, u64)>,
    /// Events in the derived dynamics schedule (0 for a static world, or
    /// when the draw at the configured rate scheduled nothing).
    pub dynamics_events: u64,
    /// The effective classification worker count: `--threads` resolved
    /// (0 = all cores) and capped at the selected-block count. Reprobing
    /// runs on as many workers.
    pub threads: usize,
}

/// Number of blocks surveyed to calibrate the confidence table.
pub const CALIBRATION_BLOCKS: usize = 120;

/// Fluent configuration for a pipeline run.
///
/// ```no_run
/// use experiments::Pipeline;
/// let p = Pipeline::builder().seed(7).scale(0.02).threads(4).run();
/// # let _ = p;
/// ```
#[derive(Clone, Default)]
pub struct PipelineBuilder {
    /// Every run setting the command line can give.
    args: ExpArgs,
    scenario: Option<Scenario>,
    observe: bool,
    injector: Option<FaultInjector>,
    crash: Option<CrashPoint>,
    shutdown: Option<ShutdownSignal>,
    shard: Option<(usize, usize)>,
    storage: Storage,
    /// Set by [`PipelineBuilder::args`]: this run belongs to a CLI
    /// process, so a storage failure should exit with a named error
    /// rather than unwind with a library panic.
    cli: bool,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("args", &self.args)
            .field("scenario", &self.scenario.is_some())
            .field("observe", &self.observe)
            .field("injector", &self.injector.is_some())
            .field("crash", &self.crash)
            .field("shutdown", &self.shutdown)
            .field("shard", &self.shard)
            .field("storage", &self.storage)
            .finish()
    }
}

impl PipelineBuilder {
    /// Scenario seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.args.seed = seed;
        self
    }

    /// Scenario scale, 1.0 = paper-size (default 0.12).
    pub fn scale(mut self, scale: f64) -> Self {
        self.args.scale = scale;
        self
    }

    /// Probing worker threads for the snapshot scan and classification;
    /// 0 = all cores (default 0).
    pub fn threads(mut self, threads: usize) -> Self {
        self.args.threads = threads;
        self
    }

    /// Inject faults into the probing phases: per-link loss probability
    /// `loss` and ICMP token-bucket refill rate `rate`. The ZMap snapshot
    /// is taken before faults switch on, so selection matches a loss-free
    /// run, and classification probers get extra retries to compensate.
    pub fn faults(mut self, loss: f64, rate: f64) -> Self {
        self.args.faults = Some((loss, rate));
        self
    }

    /// Keep the network ideal (the default; undoes [`PipelineBuilder::faults`]).
    pub fn no_faults(mut self) -> Self {
        self.args.faults = None;
        self
    }

    /// Probe in MDA-Lite mode (`--mda-lite`) when `on`: diamond-aware
    /// stopping rules replace the full MDA ladder at hops whose diamond is
    /// already resolved, with escalation back to classic MDA when
    /// flow-label evidence is inconsistent. The mode is recorded in the
    /// run's journal meta, and `--resume` refuses a mode mismatch.
    pub fn mda_lite(mut self, on: bool) -> Self {
        self.args.mda_lite = on;
        self
    }

    /// Evolve the world mid-campaign (`--dynamics`): after the snapshot, a
    /// seeded event schedule perturbs each ordinary PoP with probability
    /// `rate` — route churn, LB resizes, transient loops, address reuse,
    /// false diamonds — on a virtual clock of `period` probes per epoch.
    /// The schedule is a pure function of `(seed, rate, period)` and is
    /// recorded in the run's journal meta; `--resume` refuses a mismatch.
    pub fn dynamics(mut self, rate: f64, period: u64) -> Self {
        self.args.dynamics = Some((rate, period));
        self
    }

    /// Take every run setting from parsed CLI arguments, replacing any set
    /// before; `--storage-chaos` sets the storage handle here, once. Also
    /// marks the run as CLI-owned: a failure in [`PipelineBuilder::run`]
    /// prints the typed error on one line and exits with
    /// [`RunError::exit_code`] instead of panicking.
    pub fn args(mut self, args: &ExpArgs) -> Self {
        if let Some((seed, rate)) = args.storage_chaos {
            self.storage = Storage::chaos(seed, rate);
        }
        self.args = args.clone();
        self.cli = true;
        self
    }

    /// Collect metrics and span timings into a [`Registry`] kept on
    /// [`Pipeline::obs`], even without `--metrics`/`--trace-spans` (either
    /// of those flags enables observation automatically).
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Run over a prebuilt scenario instead of building one from the seed
    /// and scale (reusing one world across pipeline runs).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Checkpoint the run into a journal under `dir` (`--run-dir`): every
    /// finished block classification is appended as it completes, so a
    /// killed run can be picked up with [`PipelineBuilder::resume_from`].
    pub fn run_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.args.run_dir = Some(dir.into());
        self
    }

    /// Resume a crashed or shut-down run from its `--run-dir` journal
    /// (`--resume`). Seed, scale, and fault settings come from the
    /// journal's meta record (overriding any builder values), and a
    /// different probe mode or dynamics schedule is refused
    /// ([`RunMeta::adopt`]); the snapshot
    /// and calibration come from the run dir's [`crate::prefix`] file
    /// (recomputed and rewritten when it is missing or does not match);
    /// blocks already checkpointed are recovered instead of re-measured,
    /// and the final report is byte-identical to an uninterrupted run.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.args.run_dir = Some(dir.into());
        self.args.resume = true;
        self
    }

    /// Per-block watchdog deadline in seconds (`--deadline`, default
    /// [`DEFAULT_DEADLINE`]): past it a block is cancelled cooperatively,
    /// requeued, and eventually quarantined. A deadline that is not a
    /// positive, representable number of seconds is a [`RunError::Config`].
    pub fn deadline(mut self, secs: f64) -> Self {
        self.args.deadline = Some(secs);
        self
    }

    /// Sabotage classification attempts (testkit crash harness): the
    /// injector decides per `(worker, task, attempt)` whether to panic or
    /// stall. See [`crate::supervise::FaultInjector`].
    pub fn inject(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Arm a simulated kill on the run's journal (requires a run dir):
    /// after the configured number of block appends the journal drops its
    /// unsynced tail — optionally leaving a torn record — and the run
    /// reports itself interrupted. See [`CrashPoint`].
    pub fn crash_point(mut self, cp: CrashPoint) -> Self {
        self.crash = Some(cp);
        self
    }

    /// Classify only the blocks shard `shard` of `shards` owns
    /// (round-robin over the deterministic selection order; see
    /// [`crate::lease::shard_of`]). Every worker derives the whole
    /// deterministic prefix — snapshot, selection, calibration — so every
    /// worker holds the identical confidence table (a respawned worker
    /// loads its run dir's [`crate::prefix`] file instead of recomputing),
    /// but non-owned blocks are never probed.
    /// Requires a run dir: a shard's only output is its journal, which the
    /// coordinator's merge folds into the run report. The run checks the
    /// pair when it starts ([`RunError::Config`]).
    pub fn shard(mut self, shard: usize, shards: usize) -> Self {
        self.shard = Some((shard, shards));
        self
    }

    /// Attach a graceful-shutdown signal: when requested, workers drain
    /// their in-flight blocks, the journal gets a final checkpoint, and
    /// the run returns early with [`SuperviseReport::shutdown`] set.
    pub fn shutdown_signal(mut self, signal: ShutdownSignal) -> Self {
        self.shutdown = Some(signal);
        self
    }

    /// Route every run-dir filesystem operation (journal create/resume,
    /// appends, fsyncs) through an explicit [`Storage`] handle — a
    /// [`crate::vfs::ChaosVfs`]-backed one injects disk faults, the
    /// default is faithful. `--storage-chaos` builds one from the CLI.
    pub fn storage(mut self, storage: Storage) -> Self {
        self.storage = storage;
        self
    }

    /// Execute the pipeline, panicking on a [`RunError`] unless the run is
    /// CLI-owned ([`PipelineBuilder::args`]). Fine for the common
    /// faithful-disk case (a run that cannot open or flush its own journal
    /// has no useful continuation); anything running under
    /// `--storage-chaos` — or wanting a typed error to drive degraded
    /// modes — uses [`PipelineBuilder::try_run`].
    pub fn run(self) -> Pipeline {
        let cli = self.cli;
        self.try_run().unwrap_or_else(|e| {
            if cli {
                e.exit();
            }
            panic!("pipeline run failed: {e}")
        })
    }

    /// Execute the pipeline, returning a typed [`RunError`] when a run-dir
    /// filesystem failure survives the bounded retries or the run dir
    /// refuses this run's settings. No report may be published then; the
    /// journal on disk stays a valid prefix.
    pub fn try_run(mut self) -> Result<Pipeline, RunError> {
        let prebuilt = self.scenario.take();
        let (mut run, replayed) = Run::open(self)?;
        let registry = run.obs.clone();
        let run_span = registry.as_ref().map(|r| r.span("run"));
        let mut scenario = run.build_world(prebuilt)?;
        if !run.cfg.args.resume {
            run.open_journal()?;
        }
        let blocks = scenario.network.allocated_blocks();
        let world = prefix::world_fingerprint(&blocks);
        let (snapshot, loaded) = run.snapshot(&mut scenario.network, &blocks, world);
        let dynamics_events = run.install(&mut scenario);
        let sel = run.select(&snapshot);
        let hobbit_cfg = run.hobbit_config(dynamics_events);
        let prefix_loaded = loaded.is_some();
        let (confidence, calibration_probes) =
            run.calibrate(&scenario.network, &sel, &hobbit_cfg, loaded);
        let prefix = RunPrefix {
            snapshot,
            confidence,
            calibration_probes,
        };
        run.persist(&prefix, prefix_loaded, world, &sel, dynamics_events)?;
        let outcome = run.classify(
            &scenario.network,
            &sel,
            &prefix.confidence,
            &hobbit_cfg,
            replayed,
        );
        let mut supervision = outcome.report;
        run.seal(&mut supervision)?;

        // Probe spend is summed over measurements (each block's fresh
        // prober makes `probes_used` exactly its probes sent), so the total
        // is the same whether a block was measured now or recovered from
        // the journal.
        let classify_probes = outcome.measurements.iter().map(|m| m.probes_used).sum();
        let net_stats = scenario.network.net_stats();
        drop(run_span);
        let (args, obs) = (run.cfg.args, registry);
        let pipeline = Pipeline {
            scenario,
            snapshot: prefix.snapshot,
            threads: effective_threads(args.threads, sel.selected.len()),
            selected: sel.selected,
            reject_too_few: sel.reject_too_few,
            reject_uncovered: sel.reject_uncovered,
            confidence: prefix.confidence,
            hobbit_cfg,
            measurements: outcome.measurements,
            classify_probes,
            calibration_probes,
            worker_stats: outcome.worker_stats,
            net_stats,
            obs,
            supervision,
            seed: args.seed,
            scale: args.scale,
            dynamics: args.dynamics,
            dynamics_events,
        };
        pipeline.emit_observability(&args);
        Ok(pipeline)
    }
}

/// Why [`PipelineBuilder::try_run`] published no report.
#[derive(Debug)]
pub enum RunError {
    /// A run-dir filesystem failure survived the bounded retries.
    Storage(StorageError),
    /// The run dir records another probe mode, dynamics schedule, shard or
    /// set of shard totals than this run; the journal gets no new record.
    Refused(Mismatch),
    /// The builder's settings cannot make a run: a shard out of range, a
    /// shard or crash point without a run dir, a bad deadline, or a world
    /// too large for the address space. A fresh run writes nothing then.
    Config(String),
}

impl RunError {
    /// The process exit code a CLI run or a shard worker ends with:
    /// [`EXIT_REFUSED`] for a refusal, [`EXIT_STORAGE`] for storage, and
    /// 2, the CLI's usage-error code, for a configuration error.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Storage(_) => EXIT_STORAGE,
            RunError::Refused(_) => EXIT_REFUSED,
            RunError::Config(_) => 2,
        }
    }

    /// End a CLI run: print the error on one line and exit with its code.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(self.exit_code())
    }
}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Config(format!(
            "cannot build the world (try a smaller --scale): {e}"
        ))
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Storage(e) => write!(f, "{e}"),
            RunError::Refused(m) => write!(f, "{m}"),
            RunError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RunError {}

impl From<StorageError> for RunError {
    fn from(e: StorageError) -> Self {
        RunError::Storage(e)
    }
}

impl From<Mismatch> for RunError {
    fn from(m: Mismatch) -> Self {
        RunError::Refused(m)
    }
}

/// One run's state, passed from phase to phase of [`PipelineBuilder::try_run`]:
/// the builder (with the journal's seed, scale and faults on resume), the
/// registry and the journal.
struct Run {
    cfg: PipelineBuilder,
    obs: Option<Arc<Registry>>,
    journal: Option<Journal>,
}

/// An open run-dir journal.
struct Journal {
    dir: PathBuf,
    meta: RunMeta,
    /// Shared with the classification workers. The lock cannot be
    /// poisoned: a worker that panics holding it takes the whole run down
    /// (the engine re-raises on join) before any later phase locks it.
    writer: Mutex<JournalWriter>,
    /// What resuming found, less the blocks (those go to `classify`).
    replay: JournalReplay,
}

/// The §3.3 selection: the passing blocks and the rejection counts.
#[derive(Default)]
struct Selection {
    selected: Vec<SelectedBlock>,
    reject_too_few: usize,
    reject_uncovered: usize,
}

impl Run {
    /// Bind the registry and the storage handle (before the journal's
    /// first byte), then resume the journal if asked, since its settings
    /// build the world; a fresh run opens its journal once the world has
    /// built, so a world the build refuses leaves the run dir untouched.
    /// Returns the block measurements a resumed journal holds. Settings no
    /// run can honour are refused first, before anything is written.
    fn open(mut cfg: PipelineBuilder) -> Result<(Run, Vec<BlockMeasurement>), RunError> {
        let no_dir = cfg.args.run_dir.is_none();
        let misuse = match cfg.shard {
            Some((_, 0)) => Some("a sharded run needs at least one shard".into()),
            Some((shard, shards)) if shard >= shards => Some(format!(
                "shard index {shard} out of range for {shards} shards"
            )),
            Some(_) if no_dir => Some(
                "a sharded worker must journal into a run dir: its journal is \
                 the only output the coordinator's merge can read"
                    .into(),
            ),
            _ if cfg.crash.is_some() && no_dir => {
                Some("a crash point needs a run dir to crash".into())
            }
            _ if cfg.args.deadline.is_some_and(bad_deadline) => {
                Some("a deadline must be a positive, representable number of seconds".into())
            }
            _ => None,
        };
        if let Some(msg) = misuse {
            return Err(RunError::Config(msg));
        }
        let observing = cfg.observe || cfg.args.metrics.is_some() || cfg.args.trace_spans;
        let obs = observing.then(|| Arc::new(Registry::new()));
        cfg.storage.observe(recorder(obs.as_deref()));
        let mut run = Run {
            cfg,
            obs,
            journal: None,
        };
        let replayed = if run.cfg.args.resume {
            run.open_journal()?
        } else {
            Vec::new()
        };
        Ok((run, replayed))
    }

    /// Create or resume the journal under the run dir, if there is one: a
    /// resume goes by [`RunMeta::adopt`], and a shard worker also refuses
    /// another shard's journal. Returns the block measurements a resumed
    /// journal holds.
    fn open_journal(&mut self) -> Result<Vec<BlockMeasurement>, RunError> {
        let cfg = &mut self.cfg;
        let Some(dir) = cfg.args.run_dir.clone() else {
            return Ok(Vec::new());
        };
        let (mut writer, meta, mut replay) = if cfg.args.resume {
            let (writer, meta, replay) = JournalWriter::resume_via(cfg.storage.clone(), &dir)?;
            meta.adopt(&mut cfg.args)?;
            if let (Some((s, n)), Some(info)) = (cfg.shard, &replay.shard_info) {
                let shard = (s as u64, n as u64);
                let show = |(s, n): &(u64, u64)| format!("{s}/{n}");
                Mismatch::check("shard", (info.shard, info.shards), shard, show)?;
            }
            (writer, meta, replay)
        } else {
            let meta = RunMeta::of(&cfg.args);
            let writer = JournalWriter::create_via(cfg.storage.clone(), &dir, &meta)?;
            (writer, meta, JournalReplay::default())
        };
        if let Some(cp) = cfg.crash {
            writer.set_crash_point(cp);
        }
        let replayed = std::mem::take(&mut replay.blocks);
        self.journal = Some(Journal {
            dir,
            meta,
            writer: Mutex::new(writer),
            replay,
        });
        Ok(replayed)
    }

    fn rec(&self) -> &dyn Recorder {
        recorder(self.obs.as_deref())
    }

    fn span(&self, path: &str) -> Option<SpanTimer<'_>> {
        self.obs.as_ref().map(|r| r.span(path))
    }

    /// Build the world (or take the prebuilt one), and attach the recorder
    /// before the first probe so the network counters carry the whole run.
    /// A world the address space cannot hold is a [`RunError::Config`].
    fn build_world(&self, prebuilt: Option<Scenario>) -> Result<Scenario, RunError> {
        let mut scenario = {
            let _s = self.span("run/build");
            match prebuilt {
                Some(scenario) => scenario,
                None => try_build(scenario_config(&self.cfg.args))?,
            }
        };
        if let Some(reg) = self.obs.as_deref() {
            scenario.network.set_recorder(reg);
        }
        Ok(scenario)
    }

    /// Take the ZMap snapshot, or on resume load the persisted prefix
    /// (when intact and bound to this journal and world), calibration
    /// included.
    fn snapshot(&self, net: &mut Network, blocks: &[Block24], world: u64) -> Snapshot {
        let _s = self.span("run/snapshot");
        let ledger = ProbeLedger::bind(self.rec(), "scan");
        let loaded = match &self.journal {
            Some(j) if self.cfg.args.resume => {
                prefix::load(&self.cfg.storage, &j.dir, &j.meta, world)
            }
            _ => None,
        };
        if let Some(p) = loaded {
            zmap::restore(net, &p.snapshot);
            return (p.snapshot, Some((p.confidence, p.calibration_probes)));
        }
        let threads = effective_threads(self.cfg.args.threads, blocks.len());
        (zmap::scan(net, blocks, threads, &ledger), None)
    }

    /// Switch on faults and dynamics after the snapshot, so selection sees
    /// the loss-free frozen world (epoch 0). Returns the schedule's events.
    fn install(&self, scenario: &mut Scenario) -> u64 {
        if let Some((loss, rate)) = self.cfg.args.faults {
            let faults = FaultConfig::lossy(loss as f32, rate as f32);
            scenario.network.set_faults(faults);
        }
        let Some((rate, period)) = self.cfg.args.dynamics else {
            return 0;
        };
        let schedule = derive_dynamics(scenario, rate, period);
        let events = schedule.events.len() as u64;
        scenario.network.set_dynamics(schedule);
        events
    }

    fn select(&self, snapshot: &ZmapSnapshot) -> Selection {
        let _s = self.span("run/select");
        let mut sel = Selection::default();
        for block in snapshot.blocks() {
            match select_block(snapshot, block) {
                Ok(s) => sel.selected.push(s),
                Err(SelectReject::TooFewActive) => sel.reject_too_few += 1,
                Err(SelectReject::UncoveredQuarter) => sel.reject_uncovered += 1,
            }
        }
        let rec = self.rec();
        rec.counter("select.selected")
            .add(sel.selected.len() as u64);
        rec.counter("select.reject_too_few")
            .add(sel.reject_too_few as u64);
        rec.counter("select.reject_uncovered")
            .add(sel.reject_uncovered as u64);
        sel
    }

    /// The classifier configuration; calibration uses its retries too.
    fn hobbit_config(&self, dynamics_events: u64) -> HobbitConfig {
        let args = &self.cfg.args;
        HobbitConfig {
            seed: args.seed ^ 0x0B17,
            prober_retries: prober_retries(args.faults.is_some()),
            mda_mode: if args.mda_lite {
                MdaMode::Lite
            } else {
                MdaMode::Classic
            },
            // Epoch-tag evidence only when a live schedule exists: an
            // empty schedule never ticks the clock, and tagging would
            // change the measurement bytes of a world that never moves.
            dynamics_period: match args.dynamics {
                Some((_, period)) if dynamics_events > 0 => period,
                _ => 0,
            },
        }
    }

    /// Calibrate the confidence table (§3.2) unless it was loaded: survey a
    /// spread-out sample of the selected blocks with full last-hop data and
    /// build the table from the homogeneous ones. Returns the table and the
    /// run's calibration probes (`calibrate.probes` counts this process's).
    fn calibrate(
        &self,
        net: &Network,
        sel: &Selection,
        cfg: &HobbitConfig,
        loaded: Calibration,
    ) -> (ConfidenceTable, u64) {
        let _s = self.span("run/calibrate");
        let rec = self.rec();
        let dataset_blocks = rec.counter("calibrate.dataset_blocks");
        let probes = rec.counter("calibrate.probes");
        let probe_obs = ProbeObs::bind(rec, "calibrate");
        if let Some(loaded) = loaded {
            return loaded;
        }
        let stride = (sel.selected.len() / CALIBRATION_BLOCKS).max(1);
        let mut dataset: Vec<BlockLasthopData> = Vec::new();
        let mut prober = Prober::new(net, 0xCA11);
        prober.set_obs(probe_obs);
        prober.retries = cfg.prober_retries;
        for s in sel.selected.iter().step_by(stride).take(CALIBRATION_BLOCKS) {
            let survey = survey_block(&mut prober, s, false);
            let lasthops = &survey.per_addr_lasthops;
            if lasthops.len() >= 8 && detects_homogeneous(lasthops) {
                dataset.push(survey.lasthop_data());
            }
        }
        dataset_blocks.add(dataset.len() as u64);
        probes.add(prober.probes_sent());
        let table = ConfidenceTable::build(&dataset, 50, 24, 0.95, 8, self.cfg.args.seed ^ 0xF16);
        (table, prober.probes_sent())
    }

    /// Persist a computed prefix before the first block record, so a later
    /// incarnation of the run dir can load it; then a shard worker's global
    /// totals, from which the coordinator's merge rebuilds the report. On
    /// resume the totals must re-derive identically.
    fn persist(
        &self,
        prefix: &RunPrefix,
        loaded: bool,
        world: u64,
        sel: &Selection,
        dynamics_events: u64,
    ) -> Result<(), RunError> {
        let Some(j) = &self.journal else {
            return Ok(());
        };
        let rec = self.rec();
        rec.counter("prefix.loaded").add(loaded as u64);
        rec.counter("prefix.rebuilt")
            .add((self.cfg.args.resume && !loaded) as u64);
        if !loaded {
            prefix::store(&self.cfg.storage, &j.dir, prefix, &j.meta, world)?;
        }
        let Some((shard, shards)) = self.cfg.shard else {
            return Ok(());
        };
        let info = ShardInfo {
            shard: shard as u64,
            shards: shards as u64,
            selected: sel.selected.len() as u64,
            reject_too_few: sel.reject_too_few as u64,
            reject_uncovered: sel.reject_uncovered as u64,
            calibration_probes: prefix.calibration_probes,
            dynamics_events,
        };
        if let Some(prev) = j.replay.shard_info {
            let show = |i: &ShardInfo| format!("{i:?}");
            return Ok(Mismatch::check("shard totals", prev, info, show)?);
        }
        let mut w = j.writer.lock();
        w.append(&Entry::ShardInfo(info))?;
        Ok(w.flush()?)
    }

    /// Classify the owned blocks over ONE shared network under supervision.
    /// Blocks the journal holds are prefilled, not re-measured: a block's
    /// probe stream depends only on (block, seed), so the rest measure
    /// what they would have anyway. Measurements come back in block order.
    fn classify(
        &self,
        net: &Network,
        sel: &Selection,
        table: &ConfidenceTable,
        cfg: &HobbitConfig,
        replayed: Vec<BlockMeasurement>,
    ) -> SupervisedOutcome {
        let _s = self.span("run/classify");
        let sup_obs = SuperviseObs::bind(self.rec());
        // A shard worker skips (and never prefills) other shards' blocks.
        let mut skip: Vec<bool> = (0..sel.selected.len())
            .map(|i| self.cfg.shard.is_some_and(|(s, n)| shard_of(i, n) != s))
            .collect();
        let index_of: HashMap<Block24, usize> = sel
            .selected
            .iter()
            .enumerate()
            .map(|(i, s)| (s.block, i))
            .collect();
        let mut prefilled: Vec<BlockMeasurement> = Vec::new();
        for m in replayed {
            match index_of.get(&m.block) {
                Some(&i) if !skip[i] => {
                    skip[i] = true;
                    prefilled.push(m);
                }
                _ => {} // duplicate record or stale selection — remeasure
            }
        }
        let resumed_blocks = prefilled.len() as u64;
        sup_obs.resumed.add(resumed_blocks);
        if self.journal.as_ref().is_some_and(|j| j.replay.truncated) {
            sup_obs.journal_truncated.inc();
        }
        let hooks = SuperviseHooks {
            injector: self.cfg.injector.clone(),
            shutdown: self.cfg.shutdown.clone(),
            journal: self.journal.as_ref().map(|j| &j.writer),
            skip: Some(&skip),
        };
        let mut outcome = classify_blocks_supervised(
            net,
            &sel.selected,
            table,
            cfg,
            self.cfg.args.threads,
            self.rec(),
            self.cfg
                .args
                .deadline
                .map_or(DEFAULT_DEADLINE, Duration::from_secs_f64),
            &hooks,
        );
        outcome.measurements.extend(prefilled);
        outcome.measurements.sort_by_key(|m| m.block);
        outcome.report.resumed_blocks = resumed_blocks;
        outcome
    }

    /// Seal the journal. A crashed journal means the "process" died, so
    /// nothing more is written. A sealed one (a storage fault past the
    /// retries) returns its typed error: the on-disk prefix stays
    /// resumable, but no report may be published over it.
    fn seal(&self, supervision: &mut SuperviseReport) -> Result<(), StorageError> {
        let Some(j) = &self.journal else {
            return Ok(());
        };
        let mut w = j.writer.lock();
        if w.crashed() {
            supervision.interrupted = true;
        } else if let Some(e) = supervision.storage_error.take() {
            return Err(e);
        } else {
            if supervision.shutdown {
                w.append(&Entry::Shutdown)?;
            }
            w.flush()?;
        }
        let sup_obs = SuperviseObs::bind(self.rec());
        sup_obs.journal_appends.add(w.appends());
        sup_obs.journal_fsyncs.add(w.fsyncs());
        Ok(())
    }
}

/// A snapshot, with the calibration a loaded prefix brought along.
type Snapshot = (ZmapSnapshot, Calibration);

/// A loaded confidence table and its run's calibration probes.
type Calibration = Option<(ConfidenceTable, u64)>;

/// Resolve a thread-count argument (0 = all cores) against the work size.
pub(crate) fn effective_threads(requested: usize, tasks: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        requested
    };
    n.clamp(1, tasks.max(1))
}

/// Per-worker accounting from the classification phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Blocks this worker classified.
    pub blocks: usize,
    /// Probe packets this worker sent.
    pub probes: u64,
    /// Cumulative measured RTT over this worker's probes, microseconds.
    pub rtt_us: u64,
    /// Blocks this worker stole from another worker's queue.
    pub steals: u64,
    /// Probe attempts that got no answer.
    pub drops: u64,
    /// Retries this worker's probers spent.
    pub retries: u64,
    /// Simulated backoff wait accumulated before retries, microseconds.
    pub backoff_us: u64,
}

/// Work-stealing task queues: one deque per worker. A worker pops from the
/// front of its own queue and, when empty, steals from the *back* of the
/// fullest other queue — classic locality-preserving stealing, small
/// enough to not need a lock-free library. The locks cannot be poisoned.
pub(crate) struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Split a task-id list into `workers` contiguous chunks (the engine
    /// passes only the tasks not already recovered from a journal).
    pub(crate) fn from_tasks(tasks: &[usize], workers: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        let chunk = tasks.len().div_ceil(workers.max(1));
        for (pos, &t) in tasks.iter().enumerate() {
            queues[(pos / chunk.max(1)).min(workers - 1)].push_back(t);
        }
        StealQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Put a failed task back on `worker`'s own queue (bounded-requeue
    /// supervision). Goes to the back, so fresh work runs first and a
    /// repeatedly failing task cannot starve its queue.
    pub(crate) fn requeue(&self, worker: usize, task: usize) {
        self.queues[worker].lock().push_back(task);
    }

    /// Next task for `worker`: own queue first, then steal. Returns the
    /// task id and whether it was stolen; `None` when all queues are dry.
    pub(crate) fn next(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(t) = self.queues[worker].lock().pop_front() {
            return Some((t, false));
        }
        // Steal from the victim with the most remaining work.
        let victim = (0..self.queues.len())
            .filter(|&v| v != worker)
            .max_by_key(|&v| self.queues[v].lock().len())?;
        self.queues[victim].lock().pop_back().map(|t| (t, true))
    }
}

/// Classify `selected` blocks over one network with `threads` workers:
/// the supervised engine with no recorder, default supervision and no
/// hooks. Returns the measurements in block order.
///
/// # Panics
///
/// If supervision quarantined a block: every selected block must come
/// back measured, or a caller comparing the result would silently lose it.
pub fn classify_blocks(
    net: &Network,
    selected: &[SelectedBlock],
    confidence: &ConfidenceTable,
    cfg: &HobbitConfig,
    threads: usize,
) -> Vec<BlockMeasurement> {
    every_block_measured(classify_blocks_supervised(
        net,
        selected,
        confidence,
        cfg,
        threads,
        &NULL_RECORDER,
        DEFAULT_DEADLINE,
        &SuperviseHooks::default(),
    ))
}

/// The measurements of an outcome that quarantined nothing; panics naming
/// the first quarantined block and its reason otherwise.
fn every_block_measured(outcome: SupervisedOutcome) -> Vec<BlockMeasurement> {
    if let Some(q) = outcome.report.quarantined.first() {
        panic!(
            "block {} quarantined after {} attempts ({}: {})",
            q.block,
            q.attempts,
            q.reason.label(),
            q.detail
        );
    }
    outcome.measurements
}

/// The deterministic outcome of a run, serialized by
/// [`Pipeline::canonical_report`]. Everything scheduling- or
/// provenance-dependent — per-worker shares, steal counts, network carry
/// totals, how many blocks came from a journal — is deliberately absent,
/// which is what makes the rendering byte-identical across thread counts
/// and across kill/resume cycles.
#[derive(Serialize)]
struct CanonicalReport {
    schema: String,
    seed: u64,
    selected: u64,
    reject_too_few: u64,
    reject_uncovered: u64,
    calibration_probes: u64,
    classify_probes: u64,
    classifications: Vec<(String, u64)>,
    /// Schedule facts of a dynamic run: knobs and derived event count,
    /// all pure functions of `(seed, rate, period)` — never anything the
    /// scheduler or a resume could perturb. Absent (not `null`) for a
    /// static run, so pre-dynamics report bytes are unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    dynamics: Option<DynamicsSummary>,
    measurements: Vec<BlockMeasurement>,
    /// `(index, block, attempts, reason)` — no panic detail, which names
    /// the (scheduling-dependent) worker that caught it.
    quarantined: Vec<(u64, Block24, u32, String)>,
}

/// The dynamics facts the canonical report carries.
#[derive(Serialize)]
struct DynamicsSummary {
    /// Per-PoP perturbation probability the schedule was derived at.
    rate: f64,
    /// Virtual-clock period, probes per epoch.
    period: u64,
    /// Events in the derived schedule.
    events: u64,
}

/// Version tag of the canonical report document.
pub const REPORT_SCHEMA: &str = "hobbit-report/v1";

/// Classification counts over a measurement list, in the fixed label
/// order the canonical report uses.
pub(crate) fn classification_counts_of(
    measurements: &[BlockMeasurement],
) -> Vec<(hobbit::Classification, usize)> {
    use hobbit::Classification::*;
    [
        TooFewActive,
        UnresponsiveLasthop,
        SameLasthop,
        NonHierarchical,
        Hierarchical,
    ]
    .into_iter()
    .map(|c| {
        (
            c,
            measurements
                .iter()
                .filter(|m| m.classification == c)
                .count(),
        )
    })
    .collect()
}

/// Render the canonical report document from its deterministic inputs.
/// [`Pipeline::canonical_report`] and the coordinator's shard-merge both
/// funnel through here — one serializer, one byte layout — which is what
/// makes a merged sharded run byte-identical to a single-process run.
#[allow(clippy::too_many_arguments)] // one positional slot per report field
pub(crate) fn render_canonical_report(
    seed: u64,
    selected: u64,
    reject_too_few: u64,
    reject_uncovered: u64,
    calibration_probes: u64,
    dynamics: Option<(f64, u64, u64)>,
    measurements: &[BlockMeasurement],
    quarantined: &[(u64, Block24, u32, String)],
) -> String {
    let report = CanonicalReport {
        schema: REPORT_SCHEMA.to_string(),
        seed,
        selected,
        reject_too_few,
        reject_uncovered,
        calibration_probes,
        classify_probes: measurements.iter().map(|m| m.probes_used).sum(),
        classifications: classification_counts_of(measurements)
            .into_iter()
            .map(|(c, n)| (c.label().to_string(), n as u64))
            .collect(),
        dynamics: dynamics.map(|(rate, period, events)| DynamicsSummary {
            rate,
            period,
            events,
        }),
        measurements: measurements.to_vec(),
        quarantined: quarantined.to_vec(),
    };
    serde_json::to_string(&report).expect("canonical report serializes")
}

impl Pipeline {
    /// Start configuring a pipeline run.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Render the run's deterministic outcome as one JSON document. For a
    /// fixed seed/scale/fault configuration the bytes are identical across
    /// thread counts and across any kill→resume sequence (the acceptance
    /// contract of the checkpoint subsystem); tests compare these strings
    /// directly.
    pub fn canonical_report(&self) -> String {
        let quarantined: Vec<(u64, Block24, u32, String)> = self
            .supervision
            .quarantined
            .iter()
            .map(|q| {
                (
                    q.index as u64,
                    q.block,
                    q.attempts,
                    q.reason.label().to_string(),
                )
            })
            .collect();
        render_canonical_report(
            self.scenario.config.seed,
            self.selected.len() as u64,
            self.reject_too_few as u64,
            self.reject_uncovered as u64,
            self.calibration_probes,
            self.dynamics
                .map(|(rate, period)| (rate, period, self.dynamics_events)),
            &self.measurements,
            &quarantined,
        )
    }

    /// The recorder post-pipeline phases should report through: the run's
    /// registry when observability is on, a [`NullRecorder`] otherwise.
    pub fn recorder(&self) -> &dyn Recorder {
        recorder(self.obs.as_deref())
    }

    /// Write the outputs selected by `args`: the span tree to stderr
    /// (`--trace-spans`) and the versioned metrics document (`--metrics`).
    /// `run` calls this once. Experiments with post-pipeline phases
    /// (aggregation, reprobing) run the pipeline with `trace_spans` and
    /// `metrics` off and call this after their last phase, so each output
    /// is written once. No-op when the pipeline ran unobserved.
    pub fn emit_observability(&self, args: &ExpArgs) {
        self.emit_observability_to(args, &mut std::io::stderr());
    }

    /// [`Pipeline::emit_observability`], writing the span tree to `trace`.
    pub(crate) fn emit_observability_to(&self, args: &ExpArgs, trace: &mut dyn std::io::Write) {
        let Some(reg) = self.obs.as_deref() else {
            return;
        };
        if args.trace_spans {
            if let Err(e) = trace.write_all(reg.render_span_tree().as_bytes()) {
                eprintln!("warning: could not write the span tree: {e}");
            }
        }
        if let Some(path) = &args.metrics {
            if let Err(e) = std::fs::write(path, reg.export_pretty()) {
                eprintln!("warning: could not write metrics to {path}: {e}");
            }
        }
    }

    /// Replay every measurement through the `testkit` reference oracle —
    /// same recorded evidence, same confidence table, same classifier
    /// config — and report through the run's recorder as `conform.checked`
    /// / `conform.mismatches`. Returns one human-readable line per
    /// divergence; empty means the optimized engine and the naive oracle
    /// agree block-for-block (verdict, stopping point, and last-hop set).
    pub fn verify_conformance(&self) -> Vec<String> {
        let rec = self.recorder();
        let checked = rec.counter("conform.checked");
        let mismatched = rec.counter("conform.mismatches");
        let mut out = Vec::new();
        for m in &self.measurements {
            checked.inc();
            let oracle = testkit::replay_verdict(m, &self.confidence);
            if let Some((at, v)) = oracle.premature {
                mismatched.inc();
                out.push(format!(
                    "block {}: verdict {v:?} already fired after {at}/{} resolutions",
                    m.block,
                    m.per_dest.len()
                ));
            }
            if oracle.classification != m.classification {
                mismatched.inc();
                out.push(format!(
                    "block {}: production {:?}, oracle {:?}",
                    m.block, m.classification, oracle.classification
                ));
            }
            let naive = testkit::naive_lasthop_set(&m.per_dest);
            if naive != m.lasthop_set {
                mismatched.inc();
                out.push(format!(
                    "block {}: recorded last-hop set {:?}, oracle recomputes {naive:?}",
                    m.block, m.lasthop_set
                ));
            }
        }
        out
    }

    /// Measurements classified homogeneous, as aggregation inputs.
    pub fn homog_blocks(&self) -> Vec<HomogBlock> {
        self.measurements
            .iter()
            .filter(|m| m.classification.is_homogeneous())
            .map(|m| HomogBlock::new(m.block, m.lasthop_set.clone()))
            .collect()
    }

    /// Identical-set aggregates of the homogeneous blocks (Section 5).
    pub fn aggregates(&self) -> Vec<Aggregate> {
        aggregate_identical(&self.homog_blocks())
    }

    /// Classification-phase probe attempts that got no answer (sum over
    /// workers).
    pub fn total_drops(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.drops).sum()
    }

    /// Classification-phase retries spent (sum over workers).
    pub fn total_retries(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.retries).sum()
    }

    /// Classification-phase simulated backoff wait, microseconds (sum over
    /// workers).
    pub fn total_backoff_us(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.backoff_us).sum()
    }

    /// Count measurements per classification.
    pub fn classification_counts(&self) -> Vec<(hobbit::Classification, usize)> {
        classification_counts_of(&self.measurements)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_FILE;
    use netsim::build::build;
    use netsim::Addr;
    use std::path::Path;

    fn tiny() -> PipelineBuilder {
        // ~328 ordinary blocks at scale 0.01.
        Pipeline::builder().seed(42).scale(0.01).threads(2)
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let p = tiny().run();
        assert!(!p.selected.is_empty());
        assert_eq!(p.measurements.len(), p.selected.len());
        assert!(p.classify_probes > 0);
        assert!(p.calibration_probes > 0);
        let counts = p.classification_counts();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, p.measurements.len());
        // The dominant analyzable outcome must be homogeneity (paper: 90%).
        let homog: usize = p
            .measurements
            .iter()
            .filter(|m| m.classification.is_homogeneous())
            .count();
        let analyzable: usize = p
            .measurements
            .iter()
            .filter(|m| m.classification.is_analyzable())
            .count();
        assert!(analyzable > 0);
        assert!(
            homog as f64 / analyzable as f64 > 0.7,
            "{homog}/{analyzable} homogeneous"
        );
        // Worker accounting covers the whole phase.
        assert_eq!(
            p.worker_stats.iter().map(|w| w.blocks).sum::<usize>(),
            p.selected.len()
        );
        assert_eq!(
            p.worker_stats.iter().map(|w| w.probes).sum::<u64>(),
            p.classify_probes
        );
        assert!(p.worker_stats.iter().all(|w| w.probes == 0 || w.rtt_us > 0));
    }

    #[test]
    fn pipeline_is_deterministic_single_thread() {
        let a = tiny().threads(1).run();
        let b = tiny().threads(1).run();
        assert_eq!(a.measurements.len(), b.measurements.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.classification, y.classification);
            assert_eq!(x.lasthop_set, y.lasthop_set);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The shard-id bug this guards against: probe idents derived from
        // the worker id made classifications depend on `threads`.
        let a = tiny().threads(1).run();
        let b = tiny().threads(8).run();
        assert_eq!(a.measurements.len(), b.measurements.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.classification, y.classification, "block {}", x.block);
            assert_eq!(x.lasthop_set, y.lasthop_set, "block {}", x.block);
        }
        assert_eq!(a.classify_probes, b.classify_probes);
    }

    #[test]
    fn builder_accepts_prebuilt_scenario() {
        let args = ExpArgs {
            seed: 42,
            scale: 0.01,
            json: false,
            threads: 2,
            faults: None,
            ..Default::default()
        };
        let scenario = build(scenario_config(&args));
        let a = tiny().scenario(scenario).run();
        let b = tiny().run();
        assert_eq!(a.measurements.len(), b.measurements.len());
    }

    #[test]
    fn calibration_table_is_pinned() {
        // A digest of every cell of the tiny(42) calibration table. Any
        // change to the calibration probes, the sampling draw order or the
        // detection replay moves it.
        let p = Pipeline::builder()
            .seed(42)
            .threads(1)
            .scenario(build(ScenarioConfig::tiny(42)))
            .run();
        let mut cells = 0usize;
        let digest = p.confidence.cells().fold(0u64, |h, ((c, n), (s, t))| {
            cells += 1;
            [c as u64, n as u64, s, t]
                .into_iter()
                .fold(h, netsim::hash::mix2)
        });
        assert_eq!((cells, digest), (188, 8_122_460_662_490_539_500));
    }

    #[test]
    fn fault_free_run_reports_zero_injected_drops() {
        // Without --faults the injected mechanisms stay silent. The
        // scenario's own Bernoulli rate-limited routers may still eat some
        // ICMP errors (icmp_loss_drops) — that is baseline realism, not
        // injection — and probers still time out on genuinely silent hosts.
        let p = tiny().run();
        assert_eq!(p.net_stats.link_drops, 0, "{:?}", p.net_stats);
        assert_eq!(p.net_stats.rate_limited_drops, 0, "{:?}", p.net_stats);
        assert!(p.net_stats.probes_carried > 0);
        assert_eq!(
            p.total_drops(),
            p.worker_stats.iter().map(|w| w.drops).sum()
        );
    }

    #[test]
    fn faulted_run_reports_drops_retries_and_backoff() {
        let p = tiny().faults(0.02, 0.5).run();
        // The network saw injected faults...
        assert!(p.net_stats.link_drops > 0, "{:?}", p.net_stats);
        assert!(p.net_stats.probes_carried > 0);
        // ...and the probers accounted for the lost answers.
        assert!(p.total_drops() > 0);
        assert!(p.total_retries() > 0);
        assert!(p.total_backoff_us() > 0);
        // Totals are exactly the per-worker sums (the report contract).
        assert_eq!(
            p.total_drops(),
            p.worker_stats.iter().map(|w| w.drops).sum()
        );
        assert_eq!(
            p.total_retries(),
            p.worker_stats.iter().map(|w| w.retries).sum()
        );
        assert_eq!(
            p.total_backoff_us(),
            p.worker_stats.iter().map(|w| w.backoff_us).sum()
        );
        // Faults must not disturb the snapshot phase.
        let clean = tiny().run();
        assert_eq!(
            p.snapshot.total_active(),
            clean.snapshot.total_active(),
            "snapshot is taken before faults switch on"
        );
    }

    #[test]
    fn steal_queues_drain_exactly_once() {
        let q = StealQueues::from_tasks(&(0..10).collect::<Vec<_>>(), 3);
        let mut seen = vec![0u32; 10];
        // Worker 2's own queue drains first; it then steals.
        for w in [2, 2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 0, 1] {
            if let Some((t, _)) = q.next(w) {
                seen[t] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        assert!(q.next(0).is_none());
    }

    #[test]
    #[should_panic(expected = "block 10.1.2.0/24 quarantined after 3 attempts (panic: boom)")]
    fn classify_blocks_refuses_to_drop_a_quarantined_block() {
        every_block_measured(SupervisedOutcome {
            measurements: Vec::new(),
            worker_stats: Vec::new(),
            report: SuperviseReport {
                quarantined: vec![crate::supervise::QuarantinedBlock {
                    index: 0,
                    block: Addr::new(10, 1, 2, 0).block24(),
                    attempts: 3,
                    reason: crate::supervise::QuarantineReason::Panic,
                    detail: "boom".into(),
                }],
                ..Default::default()
            },
        });
    }

    #[test]
    fn pipeline_conforms_to_oracle() {
        let p = tiny().observe().run();
        let issues = p.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
        let reg = p.obs.as_deref().unwrap();
        assert_eq!(
            reg.counter_value("conform.checked"),
            Some(p.measurements.len() as u64)
        );
        assert_eq!(reg.counter_value("conform.mismatches"), Some(0));
        // Faults change the evidence, never the verdict-evidence contract.
        let f = tiny().faults(0.02, 0.5).run();
        let issues = f.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn mda_lite_pipeline_spends_fewer_probes_same_verdicts() {
        let classic = tiny().threads(1).run();
        let lite = tiny().threads(1).mda_lite(true).observe().run();
        assert_eq!(lite.hobbit_cfg.mda_mode, MdaMode::Lite);
        assert_eq!(classic.measurements.len(), lite.measurements.len());
        let mut drift = 0usize;
        for (c, l) in classic.measurements.iter().zip(&lite.measurements) {
            assert_eq!(c.block, l.block);
            assert!(
                l.probes_used <= c.probes_used,
                "block {}: lite spent {} > classic {}",
                c.block,
                l.probes_used,
                c.probes_used
            );
            drift += (c.classification != l.classification) as usize;
        }
        assert!(lite.classify_probes < classic.classify_probes);
        assert!(
            drift as f64 / classic.measurements.len() as f64 <= 0.01,
            "{drift}/{} verdicts drifted",
            classic.measurements.len()
        );
        // The saved-probe counter is live and matches the direction of the
        // spend difference.
        let reg = lite.obs.as_deref().unwrap();
        assert!(reg.counter_value("probe.mda_lite.probes_saved").unwrap() > 0);
        // Lite measurements still satisfy the evidence oracle.
        let issues = lite.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn dynamic_run_is_thread_invariant_and_reported() {
        let a = tiny().threads(1).dynamics(0.5, 64).run();
        let b = tiny().threads(8).dynamics(0.5, 64).run();
        assert!(a.dynamics_events > 0, "rate 0.5 must schedule something");
        assert_eq!(a.dynamics_events, b.dynamics_events);
        assert_eq!(a.hobbit_cfg.dynamics_period, 64);
        let (ra, rb) = (a.canonical_report(), b.canonical_report());
        assert_eq!(ra, rb, "dynamic reports must not depend on threads");
        assert!(ra.contains("\"dynamics\":{"), "schedule facts are reported");
        // The network actually moved: some dynamic rewrite/artifact fired.
        assert!(a.net_stats.total_dynamics() > 0, "{:?}", a.net_stats);
        // A static run reports no dynamics key and no epoch tags at all.
        let s = tiny().threads(1).run();
        let rs = s.canonical_report();
        assert!(!rs.contains("\"dynamics\""), "static bytes are unchanged");
        assert!(!rs.contains("\"dest_epochs\""));
    }

    /// A run dir holding only the journal meta of a run under `args`, plus
    /// a shard worker's totals when given.
    fn recorded_run_dir(tag: &str, args: &ExpArgs, info: Option<ShardInfo>) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hobbit-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = RunMeta::of(args);
        let mut w = JournalWriter::create_via(Storage::real(), &dir, &meta).unwrap();
        if let Some(info) = info {
            w.append(&Entry::ShardInfo(info)).unwrap();
            w.flush().unwrap();
        }
        dir
    }

    /// Resuming `dir` with `builder` is refused with `want`, and the
    /// journal keeps its bytes.
    fn assert_refused(builder: PipelineBuilder, dir: &Path, want: Mismatch) {
        let journal = dir.join(JOURNAL_FILE);
        let before = std::fs::read(&journal).unwrap();
        match builder.resume_from(dir).try_run() {
            Err(RunError::Refused(m)) => assert_eq!(m, want),
            Err(e) => panic!("expected the refusal {want}, got {e}"),
            Ok(_) => panic!("expected the refusal {want}, got a report"),
        }
        assert_eq!(std::fs::read(&journal).unwrap(), before);
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn tiny_args() -> ExpArgs {
        ExpArgs {
            seed: 42,
            scale: 0.01,
            ..Default::default()
        }
    }

    fn mismatch(field: &'static str, recorded: &str, requested: &str) -> Mismatch {
        Mismatch {
            field,
            recorded: recorded.into(),
            requested: requested.into(),
        }
    }

    #[test]
    fn resume_refuses_dynamics_mismatch() {
        let evolving = ExpArgs {
            dynamics: Some((0.5, 64)),
            ..tiny_args()
        };
        let dir = recorded_run_dir("dyn-mismatch", &evolving, None);
        let want = mismatch("dynamics", "0.5,64", "static");
        assert_refused(tiny().threads(1), &dir, want);
    }

    #[test]
    fn resume_refuses_mda_mode_mismatch() {
        let dir = recorded_run_dir("mode-mismatch", &tiny_args(), None);
        let want = mismatch("mda mode", "classic", "lite");
        assert_refused(tiny().threads(1).mda_lite(true), &dir, want);
    }

    #[test]
    fn resume_refuses_another_shards_journal_and_diverged_totals() {
        let info = ShardInfo {
            shard: 1,
            shards: 2,
            selected: 1,
            reject_too_few: 0,
            reject_uncovered: 0,
            calibration_probes: 1,
            dynamics_events: 0,
        };
        let dir = recorded_run_dir("other-shard", &tiny_args(), Some(info));
        let want = mismatch("shard", "1/2", "0/2");
        assert_refused(tiny().threads(1).shard(0, 2), &dir, want.clone());
        // The right shard, but totals this run does not re-derive.
        let dir = recorded_run_dir("other-totals", &tiny_args(), Some(info));
        match tiny().threads(1).shard(1, 2).resume_from(&dir).try_run() {
            Err(RunError::Refused(m)) => {
                assert_eq!(m.field, "shard totals");
                assert_eq!(m.recorded, format!("{info:?}"));
                assert!(m.requested.contains("shard: 1, shards: 2"), "{m}");
            }
            Err(e) => panic!("expected the shard-totals refusal, got {e}"),
            Ok(_) => panic!("expected the shard-totals refusal, got a report"),
        }
        assert_eq!(RunError::Refused(want).exit_code(), EXIT_REFUSED);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn args_and_builder_methods_configure_the_same_run() {
        // One run configured two ways: through the CLI arguments, and
        // through the builder methods that set the same settings. A
        // killed leg and its resumed leg must leave byte-identical reports
        // and run dirs either way; `--deadline` and `.deadline(..)` reach
        // the run as one setting.
        let base =
            std::env::temp_dir().join(format!("hobbit-pipeline-two-ways-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let deadline = 20.0;
        let crash = CrashPoint {
            after_block_appends: 40,
            torn: true,
        };
        let via_args = |dir: PathBuf, resume: bool| {
            let b = Pipeline::builder().args(&ExpArgs {
                seed: 42,
                scale: 0.01,
                threads: 1,
                run_dir: Some(dir),
                resume,
                deadline: Some(deadline),
                ..Default::default()
            });
            if resume {
                b
            } else {
                b.crash_point(crash)
            }
        };
        let via_methods = |dir: PathBuf, resume: bool| {
            let b = tiny().threads(1).deadline(deadline);
            if resume {
                b.resume_from(dir)
            } else {
                b.run_dir(dir).crash_point(crash)
            }
        };
        let run_dir_bytes = |dir: &Path| {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path.strip_prefix(dir).unwrap().to_path_buf(), bytes)
                })
                .collect();
            files.sort();
            files
        };
        let (args_dir, methods_dir) = (base.join("args"), base.join("methods"));
        for resume in [false, true] {
            let (a, m) = (
                via_args(args_dir.clone(), resume),
                via_methods(methods_dir.clone(), resume),
            );
            assert_eq!(a.args.deadline, Some(deadline));
            assert_eq!(a.args.deadline, m.args.deadline);
            let (a, m) = (a.run(), m.run());
            assert_eq!(a.supervision.interrupted, !resume, "the kill fired");
            assert_eq!(m.supervision.interrupted, !resume);
            // The resumed leg really resumed, both ways.
            assert_eq!(a.supervision.resumed_blocks > 0, resume);
            assert_eq!(a.supervision.resumed_blocks, m.supervision.resumed_blocks);
            assert_eq!(
                a.canonical_report(),
                m.canonical_report(),
                "resume={resume}"
            );
            let files = run_dir_bytes(&args_dir);
            assert!(files.iter().any(|(f, _)| f == Path::new(JOURNAL_FILE)));
            assert_eq!(files, run_dir_bytes(&methods_dir), "resume={resume}");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_refused_world_leaves_a_fresh_run_dir_untouched() {
        // Scale 5 is more /24s than the address space's /14 slabs can
        // place: the world build refuses it before any probe.
        let dir =
            std::env::temp_dir().join(format!("hobbit-pipeline-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        match Pipeline::builder().scale(5.0).run_dir(&dir).try_run() {
            Err(RunError::Config(msg)) => assert!(msg.contains("cannot build the world"), "{msg}"),
            Err(e) => panic!("expected a configuration error, got {e}"),
            Ok(_) => panic!("expected a configuration error, got a report"),
        }
        assert!(
            !dir.exists(),
            "the refused run wrote under {}",
            dir.display()
        );
    }

    #[test]
    fn a_bad_deadline_is_refused_before_anything_is_written() {
        let dir =
            std::env::temp_dir().join(format!("hobbit-pipeline-deadline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for secs in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match tiny().deadline(secs).run_dir(&dir).try_run() {
                Err(RunError::Config(msg)) => assert!(msg.contains("deadline"), "{msg}"),
                Err(e) => panic!("deadline {secs}: expected a configuration error, got {e}"),
                Ok(_) => panic!("deadline {secs}: expected a configuration error, got a report"),
            }
            assert!(!dir.exists());
        }
    }

    #[test]
    fn aggregates_form() {
        let p = tiny().run();
        let aggs = p.aggregates();
        assert!(!aggs.is_empty());
        // At least one aggregate should span multiple /24s (PoPs hold
        // several blocks).
        assert!(
            aggs.iter().any(|a| a.size() > 1),
            "no multi-block aggregate"
        );
    }
}
