//! The classification engine: work-stealing workers over one borrowed
//! `&Network`, under supervision — panic isolation, stall detection,
//! bounded requeueing, quarantine, graceful shutdown, and journal
//! checkpointing.
//!
//! # Supervision state machine
//!
//! Every selected block moves through
//!
//! ```text
//! queued ──pull──▶ in-flight ──ok──▶ journaled + done
//!    ▲                 │
//!    │   panic/stall   │ attempts < ATTEMPT_BUDGET
//!    └─────────────────┤
//!                      │ attempts = ATTEMPT_BUDGET
//!                      ▼
//!                 quarantined (journaled, surfaced in the report)
//! ```
//!
//! A worker wraps each block in `catch_unwind`, so a panicking block
//! poisons only itself: the worker records the failure, requeues the block
//! onto its own queue while the attempt budget lasts, and keeps pulling.
//! A watchdog thread scans every worker's in-flight slot and, when a block
//! exceeds its deadline budget, trips the block's [`CancelToken`] — the
//! prober observes the token inside its retry/backoff loop and the
//! classifier between destinations, so the worker comes back without
//! finishing the block (the partial measurement is discarded, never
//! journaled).
//!
//! Injected faults ([`InjectedFault`]) fire *before* the block's prober
//! sends anything, so a failed attempt leaves the shared network untouched
//! and the retry measures exactly what an uninjected run would.

#![deny(clippy::unwrap_used)]

use crate::journal::{Entry, JournalWriter};
use crate::pipeline::{block_ident, StealQueues, WorkerStats};
use crate::vfs::StorageError;
use hobbit::{
    classify_block, BlockMeasurement, ClassifyObs, ConfidenceTable, HobbitConfig, SelectedBlock,
};
use netsim::{Block24, Network};
use obs::{Counter, Recorder, SpanTimer};
use parking_lot::Mutex;
use probe::{CancelToken, ProbeObs, Prober};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default per-block wall-clock budget (`--deadline`). Generous: a
/// simulated block classifies in milliseconds, so only a genuinely wedged
/// block (or an injected stall) ever reaches the deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Attempts per block (first try + requeues) before quarantine.
pub const ATTEMPT_BUDGET: u32 = 3;

/// Watchdog scan interval.
const WATCHDOG_POLL: Duration = Duration::from_millis(2);

/// A fault the testkit injects into a worker, applied before the block's
/// prober touches the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the worker's classify closure.
    Panic,
    /// Hold the block (cooperatively sleeping) until the watchdog cancels.
    Stall,
}

/// Decides whether `(worker, task index, attempt)` is sabotaged. Attempt 0
/// is the first try, so `attempt == 0` faults exercise the requeue path and
/// always-faulting tasks exercise quarantine.
pub type FaultInjector = Arc<dyn Fn(usize, usize, u32) -> Option<InjectedFault> + Send + Sync>;

/// Why a block was quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// Every attempt panicked.
    Panic,
    /// Every attempt blew its deadline and was cancelled.
    Stalled,
}

impl QuarantineReason {
    /// Stable label used in reports and journal records.
    pub fn label(self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::Stalled => "stalled",
        }
    }
}

/// A block the supervisor gave up on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuarantinedBlock {
    /// Position in the selection order.
    pub index: usize,
    /// The block.
    pub block: Block24,
    /// Attempts spent (equals [`ATTEMPT_BUDGET`]).
    pub attempts: u32,
    /// Failure mode of the final attempt.
    pub reason: QuarantineReason,
    /// Panic message of the final attempt, when there was one.
    pub detail: String,
}

/// What supervision observed over one classification phase.
#[derive(Clone, Debug, Default)]
pub struct SuperviseReport {
    /// Blocks given up on, sorted by block address.
    pub quarantined: Vec<QuarantinedBlock>,
    /// Failed attempts put back on a queue.
    pub requeues: u64,
    /// Worker panics caught and contained.
    pub panics_caught: u64,
    /// Blocks cancelled by the watchdog for blowing their deadline.
    pub stalls_cancelled: u64,
    /// Blocks recovered from the journal instead of re-measured (resume).
    pub resumed_blocks: u64,
    /// Whether a (simulated) crash killed the run mid-phase; in-memory
    /// results past the crash are meaningless — only the journal survives.
    pub interrupted: bool,
    /// Whether a graceful shutdown drained the phase early.
    pub shutdown: bool,
    /// The storage failure that sealed the journal mid-phase, when one
    /// did: workers stop pulling blocks the moment an append fails past
    /// the retry budget, and the pipeline propagates this error instead
    /// of publishing a report over an incomplete journal.
    pub storage_error: Option<StorageError>,
}

/// Cooperative shutdown request shared between the caller and the
/// classification workers: workers stop pulling new blocks, finish (and
/// journal) what is in flight, and the phase flushes a final checkpoint.
#[derive(Clone, Debug, Default)]
pub struct ShutdownSignal(Arc<AtomicBool>);

impl ShutdownSignal {
    /// A fresh, unrequested signal.
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    /// Request shutdown (idempotent; visible to all clones).
    pub fn request(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Pre-interned `supervise.*` / `journal.*` handles. Bound once per phase —
/// all counters are interned up front so the metrics document's schema
/// does not depend on whether a run happened to panic, stall, or resume.
#[derive(Clone)]
pub struct SuperviseObs {
    /// `supervise.panics_caught`
    pub panics: Counter,
    /// `supervise.stalls_cancelled`
    pub stalls: Counter,
    /// `supervise.requeues`
    pub requeues: Counter,
    /// `supervise.quarantined`
    pub quarantined: Counter,
    /// `supervise.resumed_blocks`
    pub resumed: Counter,
    /// `journal.appends`
    pub journal_appends: Counter,
    /// `journal.fsyncs`
    pub journal_fsyncs: Counter,
    /// `journal.truncated_tail` — torn tails dropped on resume.
    pub journal_truncated: Counter,
}

impl SuperviseObs {
    /// Intern every supervision metric in `rec`.
    pub fn bind(rec: &dyn Recorder) -> Self {
        SuperviseObs {
            panics: rec.counter("supervise.panics_caught"),
            stalls: rec.counter("supervise.stalls_cancelled"),
            requeues: rec.counter("supervise.requeues"),
            quarantined: rec.counter("supervise.quarantined"),
            resumed: rec.counter("supervise.resumed_blocks"),
            journal_appends: rec.counter("journal.appends"),
            journal_fsyncs: rec.counter("journal.fsyncs"),
            journal_truncated: rec.counter("journal.truncated_tail"),
        }
    }
}

/// Everything beyond the plain classify arguments that the supervised
/// engine consumes. All fields default to "off".
#[derive(Default)]
pub struct SuperviseHooks<'a> {
    /// Fault injector (testkit crash harness).
    pub injector: Option<FaultInjector>,
    /// Graceful-shutdown signal.
    pub shutdown: Option<ShutdownSignal>,
    /// Checkpoint journal; completed blocks are appended as they finish.
    pub journal: Option<&'a Mutex<JournalWriter>>,
    /// `skip[i]` ⇒ task `i` was recovered from the journal — don't re-run.
    pub skip: Option<&'a [bool]>,
}

/// Outcome of a supervised classification phase.
pub struct SupervisedOutcome {
    /// Measurements completed *this run* (excluding skipped/quarantined
    /// blocks), sorted by block address.
    pub measurements: Vec<BlockMeasurement>,
    /// Per-worker accounting, worker order.
    pub worker_stats: Vec<WorkerStats>,
    /// Supervision tallies (resumed/interrupted flags are filled by the
    /// pipeline, which owns the journal lifecycle).
    pub report: SuperviseReport,
}

struct InFlight {
    started: Instant,
    cancel: CancelToken,
}

/// One worker's verdict on one attempt.
enum AttemptOutcome {
    Done(BlockMeasurement, WorkerStats),
    /// Injected stall released by the watchdog (or its safety cap).
    Stalled,
}

/// Classify `selected` blocks over one shared network with `threads`
/// work-stealing workers, under supervision: panic isolation, a stall
/// watchdog, bounded requeue, quarantine, shutdown draining, and journal
/// checkpointing. Supervision only adds containment, never probes.
///
/// Each block is classified by a fresh [`Prober`] whose ident derives from
/// the block address ([`block_ident`]), so every measurement is identical
/// for any thread count. Every worker's prober shares one set of
/// pre-interned `probe.*` handles and every verdict bumps the
/// `classify.*` metrics in `rec` (all deterministic across thread counts);
/// each block is timed as a `run/classify/block` span, and the
/// scheduling-dependent shape of the run — thread count, steals,
/// per-worker shares — goes under the metrics document's `timing` key.
#[allow(clippy::too_many_arguments)] // the classify inputs + recorder + deadline + hooks
pub fn classify_blocks_supervised(
    net: &Network,
    selected: &[SelectedBlock],
    confidence: &ConfidenceTable,
    cfg: &HobbitConfig,
    threads: usize,
    rec: &dyn Recorder,
    deadline: Duration,
    hooks: &SuperviseHooks<'_>,
) -> SupervisedOutcome {
    let tasks: Vec<usize> = (0..selected.len())
        .filter(|&i| hooks.skip.map(|s| !s[i]).unwrap_or(true))
        .collect();
    let threads = crate::pipeline::effective_threads(threads, tasks.len());
    let obs = SuperviseObs::bind(rec);
    if tasks.is_empty() {
        return SupervisedOutcome {
            measurements: Vec::new(),
            worker_stats: vec![WorkerStats::default(); threads],
            report: SuperviseReport::default(),
        };
    }
    let probe_obs = ProbeObs::bind(rec, "classify");
    let classify_obs = ClassifyObs::bind(rec);
    let queues = StealQueues::from_tasks(&tasks, threads);
    let attempts: Vec<AtomicU32> = selected.iter().map(|_| AtomicU32::new(0)).collect();
    let inflight: Vec<Mutex<Option<InFlight>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let engine_live = AtomicBool::new(true);
    let quarantined: Mutex<Vec<QuarantinedBlock>> = Mutex::new(Vec::new());
    let requeues = AtomicU64::new(0);
    let panics = AtomicU64::new(0);
    let stalls = AtomicU64::new(0);
    let mut slots: Vec<Option<BlockMeasurement>> = (0..selected.len()).map(|_| None).collect();
    let mut worker_stats = Vec::with_capacity(threads);

    // The journal is already dead if a prior phase crashed it (simulated
    // kill) or sealed it (a storage fault that survived the retries).
    let storage_err: Mutex<Option<StorageError>> = Mutex::new(None);
    let journal_dead = || {
        hooks.journal.is_some_and(|j| {
            let j = j.lock();
            j.crashed() || j.sealed().is_some()
        }) || storage_err.lock().is_some()
    };

    std::thread::scope(|scope| {
        let watchdog = scope.spawn(|| {
            while engine_live.load(Ordering::Acquire) {
                std::thread::sleep(WATCHDOG_POLL);
                for slot in &inflight {
                    let guard = slot.lock();
                    if let Some(inf) = &*guard {
                        if inf.started.elapsed() >= deadline && !inf.cancel.is_cancelled() {
                            inf.cancel.cancel();
                            stalls.fetch_add(1, Ordering::Relaxed);
                            obs.stalls.inc();
                        }
                    }
                }
            }
        });
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let queues = &queues;
                let probe_obs = probe_obs.clone();
                let classify_obs = classify_obs.clone();
                let obs = obs.clone();
                let (attempts, inflight) = (&attempts, &inflight);
                let (quarantined, requeues, panics) = (&quarantined, &requeues, &panics);
                let storage_err = &storage_err;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        if hooks.shutdown.as_ref().is_some_and(|s| s.is_requested()) {
                            break; // drain: stop pulling, keep what finished
                        }
                        if journal_dead() {
                            break; // the "process" or its disk died; stop now
                        }
                        let Some((idx, stolen)) = queues.next(w) else {
                            break;
                        };
                        let _block_span = SpanTimer::start(rec, "run/classify/block");
                        let attempt = attempts[idx].fetch_add(1, Ordering::Relaxed);
                        let sel = &selected[idx];
                        let cancel = CancelToken::new();
                        *inflight[w].lock() = Some(InFlight {
                            started: Instant::now(),
                            cancel: cancel.clone(),
                        });
                        let injected = hooks.injector.as_ref().and_then(|f| f(w, idx, attempt));
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            match injected {
                                Some(InjectedFault::Panic) => {
                                    panic!(
                                        "injected fault: worker {w} panics on block {}",
                                        sel.block
                                    );
                                }
                                Some(InjectedFault::Stall) => {
                                    // Hold the block without probing until the
                                    // watchdog cancels (the cap only guards a
                                    // disabled watchdog).
                                    let t0 = Instant::now();
                                    while !cancel.is_cancelled()
                                        && t0.elapsed() < deadline.saturating_mul(20)
                                    {
                                        std::thread::sleep(Duration::from_millis(1));
                                    }
                                    AttemptOutcome::Stalled
                                }
                                None => {
                                    let mut prober = Prober::new(net, block_ident(sel.block));
                                    prober.set_obs(probe_obs.clone());
                                    prober.set_cancel_token(cancel.clone());
                                    let m = classify_block(&mut prober, sel, confidence, cfg);
                                    classify_obs.record(&m);
                                    let d = WorkerStats {
                                        probes: prober.probes_sent(),
                                        rtt_us: prober.rtt_total_us(),
                                        drops: prober.drops(),
                                        retries: prober.retries_used(),
                                        backoff_us: prober.backoff_total_us(),
                                        ..Default::default()
                                    };
                                    AttemptOutcome::Done(m, d)
                                }
                            }
                        }));
                        *inflight[w].lock() = None;
                        let failure = match result {
                            Ok(AttemptOutcome::Done(m, d)) if !cancel.is_cancelled() => {
                                stats.blocks += 1;
                                stats.probes += d.probes;
                                stats.rtt_us += d.rtt_us;
                                stats.steals += stolen as u64;
                                stats.drops += d.drops;
                                stats.retries += d.retries;
                                stats.backoff_us += d.backoff_us;
                                if let Some(j) = hooks.journal {
                                    let mut j = j.lock();
                                    if let Err(e) = j.append(&Entry::Block {
                                        index: idx as u64,
                                        measurement: m.clone(),
                                    }) {
                                        // The journal sealed under a storage
                                        // fault: the measurement was never
                                        // acknowledged, so it is discarded —
                                        // a resume re-measures it — and the
                                        // phase stops with the typed error.
                                        storage_err.lock().get_or_insert(e);
                                        break;
                                    }
                                    if j.crashed() {
                                        // The process died inside the append;
                                        // the in-memory result dies with it.
                                        break;
                                    }
                                }
                                out.push((idx, m));
                                None
                            }
                            // Cancelled mid-measurement or an injected stall:
                            // the partial evidence is discarded wholesale.
                            Ok(_) => Some((QuarantineReason::Stalled, String::new())),
                            Err(payload) => {
                                panics.fetch_add(1, Ordering::Relaxed);
                                obs.panics.inc();
                                Some((QuarantineReason::Panic, panic_message(payload)))
                            }
                        };
                        if let Some((reason, detail)) = failure {
                            if attempt + 1 < ATTEMPT_BUDGET {
                                queues.requeue(w, idx);
                                requeues.fetch_add(1, Ordering::Relaxed);
                                obs.requeues.inc();
                            } else {
                                let q = QuarantinedBlock {
                                    index: idx,
                                    block: sel.block,
                                    attempts: attempt + 1,
                                    reason,
                                    detail,
                                };
                                if let Some(j) = hooks.journal {
                                    if let Err(e) = j.lock().append(&Entry::Quarantine {
                                        index: idx as u64,
                                        block: q.block,
                                        attempts: q.attempts,
                                        reason: format!("{}: {}", reason.label(), q.detail),
                                    }) {
                                        storage_err.lock().get_or_insert(e);
                                        break;
                                    }
                                }
                                quarantined.lock().push(q);
                                obs.quarantined.inc();
                            }
                        }
                    }
                    (out, stats)
                })
            })
            .collect();
        for h in handles {
            // Workers contain their own panics; a panic escaping here is an
            // engine bug, not a block failure.
            let (results, stats) = h.join().expect("supervised worker harness panicked");
            for (idx, m) in results {
                slots[idx] = Some(m);
            }
            worker_stats.push(stats);
        }
        engine_live.store(false, Ordering::Release);
        watchdog.join().expect("watchdog panicked");
    });

    let mut quarantined = quarantined.into_inner();
    quarantined.sort_by_key(|q| q.block);
    let mut measurements: Vec<BlockMeasurement> = slots.into_iter().flatten().collect();
    measurements.sort_by_key(|m| m.block);
    rec.timing_value("scheduling/threads", threads as u64);
    rec.timing_value(
        "scheduling/steals",
        worker_stats.iter().map(|s| s.steals).sum(),
    );
    for (i, s) in worker_stats.iter().enumerate() {
        rec.timing_value(&format!("scheduling/worker{i:02}/blocks"), s.blocks as u64);
        rec.timing_value(&format!("scheduling/worker{i:02}/probes"), s.probes);
        rec.timing_value(&format!("scheduling/worker{i:02}/steals"), s.steals);
    }
    SupervisedOutcome {
        measurements,
        worker_stats,
        report: SuperviseReport {
            quarantined,
            requeues: requeues.into_inner(),
            panics_caught: panics.into_inner(),
            stalls_cancelled: stalls.into_inner(),
            resumed_blocks: 0,
            interrupted: false,
            shutdown: hooks.shutdown.as_ref().is_some_and(|s| s.is_requested()),
            storage_error: storage_err.into_inner(),
        },
    }
}

/// Best-effort panic payload → message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_signal_is_shared_across_clones() {
        let s = ShutdownSignal::new();
        let c = s.clone();
        assert!(!c.is_requested());
        s.request();
        assert!(c.is_requested());
    }

    #[test]
    fn quarantine_reason_labels_are_stable() {
        assert_eq!(QuarantineReason::Panic.label(), "panic");
        assert_eq!(QuarantineReason::Stalled.label(), "stalled");
    }

    #[test]
    fn supervise_obs_pre_interns_all_counters() {
        let reg = obs::Registry::new();
        let _o = SuperviseObs::bind(&reg);
        for name in [
            "supervise.panics_caught",
            "supervise.stalls_cancelled",
            "supervise.requeues",
            "supervise.quarantined",
            "supervise.resumed_blocks",
            "journal.appends",
            "journal.fsyncs",
            "journal.truncated_tail",
        ] {
            assert_eq!(reg.counter_value(name), Some(0), "{name} not interned");
        }
    }
}
