//! Kill/resume conformance sweep: a checkpointed pipeline run killed at an
//! arbitrary journal point and resumed must produce a final report
//! byte-identical to an uninterrupted run — at every tested thread count
//! and fault level — and every resumed run must stay conform-clean against
//! the reference oracle. Worker sabotage (panics, stalls) must quarantine
//! or recover exactly the targeted block and nothing else.

use experiments::journal::{
    read_journal_via, CrashPoint, Entry, JournalWriter, RunMeta, JOURNAL_FILE,
};
use experiments::pipeline::scenario_config;
use experiments::prefix::{self, PREFIX_FILE};
use experiments::supervise::{InjectedFault, ATTEMPT_BUDGET};
use experiments::{
    ExpArgs, Pipeline, PipelineBuilder, RunError, ShutdownSignal, Storage, StorageErrorKind,
};
use hobbit::Classification;
use netsim::build::build;
use netsim::{Addr, Block24};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use testkit::{first_divergence, kill_points};

/// Thread counts every kill/resume cycle must agree across.
const THREADS: &[usize] = &[1, 8];

const SEED: u64 = 4242;
const SCALE: f64 = 0.01;

/// The loss level of the faulted half of the sweep (rate 0.5, as in the
/// conformance sweep).
const FAULT_LOSS: f64 = 0.02;

fn base(loss: f64) -> PipelineBuilder {
    let b = Pipeline::builder().seed(SEED).scale(SCALE);
    if loss > 0.0 {
        b.faults(loss, 0.5)
    } else {
        b
    }
}

/// What the sweep needs from an uninterrupted run, computed once per loss
/// level and shared across tests (the box may be single-core; baselines
/// are the expensive part).
struct Baseline {
    report: String,
    selected: Vec<Block24>,
    measurements: Vec<(Block24, Classification, Vec<Addr>)>,
}

fn baseline(loss: f64) -> &'static Baseline {
    static CLEAN: OnceLock<Baseline> = OnceLock::new();
    static FAULTED: OnceLock<Baseline> = OnceLock::new();
    let cell = if loss == 0.0 { &CLEAN } else { &FAULTED };
    cell.get_or_init(|| {
        let p = base(loss).threads(2).run();
        let issues = p.verify_conformance();
        assert!(issues.is_empty(), "baseline not conform-clean: {issues:?}");
        assert!(
            p.selected.len() > 50,
            "scenario too small to sweep ({} blocks)",
            p.selected.len()
        );
        Baseline {
            report: p.canonical_report(),
            selected: p.selected.iter().map(|s| s.block).collect(),
            measurements: p
                .measurements
                .iter()
                .map(|m| (m.block, m.classification, m.lasthop_set.clone()))
                .collect(),
        }
    })
}

/// Run dirs live under `HOBBIT_RESUME_DIR` (CI points this at a workspace
/// path so diverging run-dirs survive as artifacts) or the system temp
/// dir. Passing tests remove their dirs; a failing test leaves its
/// journal behind for post-mortem.
fn run_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("HOBBIT_RESUME_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let d = base.join(format!("hobbit-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_identical(expect: &str, got: &str, what: &str) {
    if let Some((pos, ctx)) = first_divergence(expect, got) {
        panic!("{what}: reports diverge at {pos}: {ctx}");
    }
}

/// One kill→resume cycle checked for byte-identity and oracle conformance.
fn kill_resume_cycle(loss: f64, kp: u64, torn: bool, threads: usize) {
    let bl = baseline(loss);
    let total = bl.selected.len() as u64;
    let tag = format!("sweep-l{}-k{kp}-t{threads}", (loss * 100.0) as u32);
    let dir = run_dir(&tag);
    let crashed = base(loss)
        .threads(threads)
        .run_dir(&dir)
        .crash_point(CrashPoint {
            after_block_appends: kp,
            torn,
        })
        .run();
    assert!(
        crashed.supervision.interrupted,
        "{tag}: kill at {kp}/{total} never fired"
    );
    let resumed = base(loss)
        .threads(threads)
        .resume_from(&dir)
        .observe()
        .run();
    assert!(!resumed.supervision.interrupted);
    assert_eq!(
        resumed.measurements.len(),
        resumed.selected.len(),
        "{tag}: resume left blocks unclassified"
    );
    assert_eq!(
        prefix_counts(&resumed),
        (1, 0),
        "{tag}: the resumed leg must load the persisted prefix"
    );
    assert_identical(&bl.report, &resumed.canonical_report(), &tag);
    let issues = resumed.verify_conformance();
    assert!(issues.is_empty(), "{tag}: {issues:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `(prefix.loaded, prefix.rebuilt)` of an observed run with a run dir.
fn prefix_counts(p: &Pipeline) -> (u64, u64) {
    let reg = p.obs.as_deref().expect("an observed run");
    let count = |name| reg.counter_value(name).expect("registered on run-dir runs");
    (count("prefix.loaded"), count("prefix.rebuilt"))
}

fn sweep(loss: f64) {
    let total = baseline(loss).selected.len() as u64;
    for (i, &kp) in kill_points(total).iter().enumerate() {
        // Alternate torn (mid-append) kills along the sweep.
        let torn = i % 2 == 1;
        for &threads in THREADS {
            kill_resume_cycle(loss, kp, torn, threads);
        }
    }
}

#[test]
fn kill_resume_sweep_is_byte_identical_lossless() {
    sweep(0.0);
}

#[test]
fn kill_resume_sweep_is_byte_identical_under_loss() {
    sweep(FAULT_LOSS);
}

#[test]
fn dynamic_world_kill_resume_is_byte_identical() {
    // A time-evolving run: the schedule derives from the seed, so a resumed
    // incarnation must replay the exact world evolution from the journal's
    // three dynamics numbers and land on the same report bytes.
    let uninterrupted = base(0.0).threads(2).dynamics(0.5, 64).run();
    assert!(
        uninterrupted.dynamics_events > 0,
        "seed {SEED} derived an empty schedule — the test would be vacuous"
    );
    let report = uninterrupted.canonical_report();
    assert!(
        report.contains("\"dynamics\":{"),
        "dynamic report missing its dynamics summary"
    );
    let total = uninterrupted.selected.len() as u64;
    let dir = run_dir("dynamic");
    let crashed = base(0.0)
        .threads(4)
        .dynamics(0.5, 64)
        .run_dir(&dir)
        .crash_point(CrashPoint {
            after_block_appends: total / 3,
            torn: true,
        })
        .run();
    assert!(crashed.supervision.interrupted);
    let resumed = base(0.0)
        .threads(8)
        .dynamics(0.5, 64)
        .resume_from(&dir)
        .run();
    assert!(!resumed.supervision.interrupted);
    assert!(resumed.supervision.resumed_blocks > 0);
    assert_eq!(resumed.dynamics_events, uninterrupted.dynamics_events);
    assert_identical(&report, &resumed.canonical_report(), "dynamic kill/resume");
    let issues = resumed.verify_conformance();
    assert!(issues.is_empty(), "{issues:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_kill_then_resume_completes_identically() {
    let bl = baseline(0.0);
    let total = bl.selected.len() as u64;
    let dir = run_dir("double-kill");
    let first = base(0.0)
        .threads(4)
        .run_dir(&dir)
        .crash_point(CrashPoint {
            after_block_appends: total / 4,
            torn: false,
        })
        .run();
    assert!(first.supervision.interrupted);
    // The second incarnation resumes — and dies again, torn, further in.
    let second = base(0.0)
        .threads(1)
        .resume_from(&dir)
        .crash_point(CrashPoint {
            after_block_appends: total / 4,
            torn: true,
        })
        .run();
    assert!(second.supervision.interrupted);
    assert!(second.supervision.resumed_blocks > 0);
    let third = base(0.0).threads(8).resume_from(&dir).run();
    assert!(!third.supervision.interrupted);
    assert!(second.supervision.resumed_blocks < third.supervision.resumed_blocks);
    assert_identical(&bl.report, &third.canonical_report(), "double-kill");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uninterrupted_checkpointed_run_matches_plain_run() {
    let bl = baseline(0.0);
    let dir = run_dir("clean");
    let journaled = base(0.0).threads(2).run_dir(&dir).run();
    assert!(!journaled.supervision.interrupted);
    assert_identical(
        &bl.report,
        &journaled.canonical_report(),
        "checkpointing a run must not change its outcome",
    );
    // The sealed journal replays to the full measurement set.
    let replay = read_journal_via(&Storage::real(), &dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(replay.blocks.len(), journaled.measurements.len());
    assert!(!replay.truncated);
    // Resuming a *complete* journal re-measures nothing.
    let resumed = Pipeline::builder().threads(1).resume_from(&dir).run();
    assert_eq!(
        resumed.supervision.resumed_blocks,
        resumed.selected.len() as u64
    );
    assert_identical(
        &bl.report,
        &resumed.canonical_report(),
        "complete-journal resume",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal written under a foreign schema version is refused with a
/// typed corruption error naming the journal — never a panic.
#[test]
fn foreign_schema_journal_is_refused_with_a_typed_error() {
    let dir = run_dir("foreign-schema");
    let mut meta = RunMeta::of(&ExpArgs {
        seed: SEED,
        scale: SCALE,
        ..Default::default()
    });
    meta.schema = "hobbit-journal/v0".to_string();
    JournalWriter::create_via(Storage::real(), &dir, &meta).unwrap();
    let Err(RunError::Storage(err)) = Pipeline::builder().resume_from(&dir).try_run() else {
        panic!("resuming a foreign-schema journal must be refused");
    };
    assert_eq!(err.kind, StorageErrorKind::Corruption);
    assert_eq!(err.op, "resume");
    assert_eq!(err.path, dir.join(JOURNAL_FILE));
    assert!(err.detail.contains("hobbit-journal/v0"), "{err}");
    // No resume of this journal can succeed, so its message must not
    // promise one.
    let rendered = err.to_string();
    assert!(!rendered.contains("resumable"), "{rendered}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--resume` on a run dir that holds no journal is refused as "nothing
/// was checkpointed", not with the full-disk advice of a storage fault,
/// and leaves the run dir as it found it.
#[test]
fn resume_without_a_journal_is_refused_as_nothing_checkpointed() {
    for (tag, make) in [("no-journal", false), ("empty-journal", true)] {
        let dir = run_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        if make {
            std::fs::write(dir.join(JOURNAL_FILE), b"").unwrap();
        }
        let Err(RunError::Storage(err)) = Pipeline::builder().resume_from(&dir).try_run() else {
            panic!("{tag}: resuming with nothing checkpointed must be refused");
        };
        assert_eq!(err.kind, StorageErrorKind::Corruption, "{tag}: {err}");
        assert_eq!(err.op, "resume");
        assert_eq!(err.path, dir.join(JOURNAL_FILE));
        assert!(err.detail.contains("nothing was checkpointed"), "{err}");
        assert!(err.detail.contains("without --resume"), "{err}");
        let rendered = err.to_string();
        assert!(!rendered.contains("free the disk"), "{tag}: {rendered}");
        assert_eq!(dir.join(JOURNAL_FILE).exists(), make, "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A minimal but real measurement for journal-format tests (the sweep
/// below never runs the pipeline — it attacks the WAL framing directly).
fn tiny_measurement(block: u32) -> hobbit::BlockMeasurement {
    let block = Block24(block);
    let lh = Addr::new(10, 0, 0, 1);
    hobbit::BlockMeasurement {
        block,
        classification: Classification::SameLasthop,
        lasthop_set: vec![lh],
        per_dest: (0..4).map(|i| (block.addr(i + 1), vec![lh])).collect(),
        dests_probed: 4,
        dests_resolved: 4,
        dests_anonymous: 0,
        dests_unresolved: 0,
        reprobes: 0,
        probes_used: 12,
        dest_epochs: vec![],
    }
}

/// Satellite of the torn-tail contract: a kill can land at *any* byte of
/// the final record — including inside the 8-byte len+CRC frame header,
/// which the batch-boundary crash simulator never produces. For every
/// truncation offset, replay must recover exactly the preceding records,
/// flag the tail, and resume must truncate physically and then append
/// cleanly.
#[test]
fn torn_tail_truncation_sweep_over_every_offset_of_the_final_record() {
    let dir = run_dir("truncation-sweep");
    let meta = RunMeta::of(&ExpArgs {
        seed: 7,
        scale: 0.01,
        ..Default::default()
    });
    let blocks = 3u64;
    {
        let mut w = JournalWriter::create_via(Storage::real(), &dir, &meta).unwrap();
        for i in 0..blocks {
            w.append(&Entry::Block {
                index: i,
                measurement: tiny_measurement(0x0A_0100 + i as u32),
            })
            .unwrap();
        }
        w.flush().unwrap();
    }
    let path = dir.join(JOURNAL_FILE);
    let whole = std::fs::read(&path).unwrap();
    let intact = read_journal_via(&Storage::real(), &path).unwrap();
    assert_eq!(intact.blocks.len(), blocks as usize);
    assert!(!intact.truncated);

    // The final record spans [last_start, whole.len()).
    let last_frame = {
        let frame_len =
            |at: usize| 8 + u32::from_le_bytes(whole[at..at + 4].try_into().unwrap()) as usize;
        let mut at = 0;
        while at + frame_len(at) < whole.len() {
            at += frame_len(at);
        }
        assert_eq!(
            at + frame_len(at),
            whole.len(),
            "frame walk must land on EOF"
        );
        at
    };

    for cut in last_frame..whole.len() {
        std::fs::write(&path, &whole[..cut]).unwrap();
        let r = read_journal_via(&Storage::real(), &path).unwrap();
        assert_eq!(
            r.blocks.len(),
            blocks as usize - 1,
            "cut at byte {cut} (record starts at {last_frame}): wrong prefix"
        );
        assert_eq!(r.meta.as_ref(), Some(&meta), "cut at byte {cut}: meta lost");
        assert_eq!(
            r.truncated,
            cut != last_frame,
            "cut at byte {cut}: truncation flag wrong ({} partial bytes)",
            cut - last_frame
        );
        assert_eq!(r.valid_len, last_frame as u64, "cut at byte {cut}");

        // Resume drops the partial bytes from disk and appends cleanly.
        let (mut w, _, replay) = JournalWriter::resume_via(Storage::real(), &dir).unwrap();
        assert_eq!(replay.blocks.len(), blocks as usize - 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            last_frame as u64,
            "cut at byte {cut}: resume left partial bytes on disk"
        );
        w.append(&Entry::Block {
            index: blocks - 1,
            measurement: tiny_measurement(0x0A_0100 + blocks as u32 - 1),
        })
        .unwrap();
        w.flush().unwrap();
        let healed = read_journal_via(&Storage::real(), &path).unwrap();
        assert_eq!(healed.blocks.len(), blocks as usize, "cut at byte {cut}");
        assert!(!healed.truncated, "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_panic_quarantines_only_that_block() {
    let bl = baseline(0.0);
    let victim = bl.selected.len() / 2;
    let victim_block = bl.selected[victim];
    let p = base(0.0)
        .threads(2)
        .inject(Arc::new(move |_w, task, _attempt| {
            (task == victim).then_some(InjectedFault::Panic)
        }))
        .run();
    // The poisoned block is quarantined after its full attempt budget;
    // every other block classifies normally.
    assert_eq!(p.measurements.len(), p.selected.len() - 1);
    assert!(p.measurements.iter().all(|m| m.block != victim_block));
    assert_eq!(p.supervision.quarantined.len(), 1);
    let q = &p.supervision.quarantined[0];
    assert_eq!(q.block, victim_block);
    assert_eq!(q.attempts, ATTEMPT_BUDGET);
    assert!(q.detail.contains("injected fault"), "{:?}", q.detail);
    assert_eq!(p.supervision.panics_caught, ATTEMPT_BUDGET as u64);
    assert!(p.supervision.requeues >= 1);
    // The surviving measurements are untouched by the sabotage.
    let surviving: Vec<_> = bl
        .measurements
        .iter()
        .filter(|(b, _, _)| *b != victim_block)
        .collect();
    assert_eq!(surviving.len(), p.measurements.len());
    for ((block, class, lasthops), m) in surviving.iter().zip(&p.measurements) {
        assert_eq!(*block, m.block);
        assert_eq!(*class, m.classification);
        assert_eq!(*lasthops, m.lasthop_set);
    }
    let issues = p.verify_conformance();
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn transient_panic_is_requeued_and_invisible_in_the_report() {
    let bl = baseline(0.0);
    let victim = 3.min(bl.selected.len() - 1);
    let p = base(0.0)
        .threads(2)
        .inject(Arc::new(move |_w, task, attempt| {
            (task == victim && attempt == 0).then_some(InjectedFault::Panic)
        }))
        .run();
    // One panic, one requeue, and the retry measures exactly what an
    // unsabotaged run measures (the failed attempt never probed).
    assert_eq!(p.supervision.panics_caught, 1);
    assert_eq!(p.supervision.requeues, 1);
    assert!(p.supervision.quarantined.is_empty());
    assert_identical(
        &bl.report,
        &p.canonical_report(),
        "a recovered transient panic",
    );
}

#[test]
fn stalled_block_is_cancelled_by_the_watchdog_and_recovered() {
    let bl = baseline(0.0);
    let victim = 1.min(bl.selected.len() - 1);
    let p = base(0.0)
        .threads(2)
        .deadline(0.4)
        .inject(Arc::new(move |_w, task, attempt| {
            (task == victim && attempt == 0).then_some(InjectedFault::Stall)
        }))
        .run();
    assert!(p.supervision.stalls_cancelled >= 1);
    assert!(p.supervision.requeues >= 1);
    assert!(p.supervision.quarantined.is_empty());
    assert_identical(
        &bl.report,
        &p.canonical_report(),
        "a watchdog-recovered stall",
    );
}

#[test]
fn graceful_shutdown_drains_seals_and_resumes() {
    let bl = baseline(0.0);
    let dir = run_dir("shutdown");
    let signal = ShutdownSignal::new();
    let trigger = signal.clone();
    let mid = bl.selected.len() / 2;
    // Request shutdown from inside the phase (the injector runs as a worker
    // picks up a block), so the request always lands mid-classification.
    let p = base(0.0)
        .threads(2)
        .run_dir(&dir)
        .shutdown_signal(signal)
        .inject(Arc::new(move |_w, task, _attempt| {
            if task == mid {
                trigger.request();
            }
            None
        }))
        .run();
    assert!(p.supervision.shutdown);
    assert!(!p.supervision.interrupted);
    assert!(
        p.measurements.len() < p.selected.len(),
        "shutdown should leave queued work undone"
    );
    // The journal is sealed: a shutdown marker, no torn tail, and every
    // in-flight block drained into a checkpoint.
    let replay = read_journal_via(&Storage::real(), &dir.join(JOURNAL_FILE)).unwrap();
    assert!(replay.shutdown, "journal missing the shutdown marker");
    assert!(!replay.truncated);
    assert_eq!(replay.blocks.len(), p.measurements.len());
    let resumed = base(0.0).threads(8).resume_from(&dir).run();
    assert_identical(&bl.report, &resumed.canonical_report(), "shutdown+resume");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn supervision_metrics_are_exported_and_outcome_independent() {
    let dir = run_dir("metrics");
    let p = base(0.0).threads(2).run_dir(&dir).observe().run();
    let reg = p.obs.as_deref().unwrap();
    // Pre-interned schema: every supervision counter exists even though
    // nothing went wrong in this run.
    assert_eq!(reg.counter_value("supervise.panics_caught"), Some(0));
    assert_eq!(reg.counter_value("supervise.stalls_cancelled"), Some(0));
    assert_eq!(reg.counter_value("supervise.requeues"), Some(0));
    assert_eq!(reg.counter_value("supervise.quarantined"), Some(0));
    assert_eq!(reg.counter_value("supervise.resumed_blocks"), Some(0));
    assert_eq!(reg.counter_value("journal.truncated_tail"), Some(0));
    // Meta + one record per block, sealed with batched fsyncs.
    assert_eq!(
        reg.counter_value("journal.appends"),
        Some(1 + p.measurements.len() as u64)
    );
    assert!(reg.counter_value("journal.fsyncs").unwrap() > 0);

    // A resumed run reports what it recovered, and a torn tail is counted.
    let killed_dir = run_dir("metrics-kill");
    let _ = base(0.0)
        .threads(2)
        .run_dir(&killed_dir)
        .crash_point(CrashPoint {
            after_block_appends: 40,
            torn: true,
        })
        .run();
    let resumed = base(0.0)
        .threads(2)
        .resume_from(&killed_dir)
        .observe()
        .run();
    let reg = resumed.obs.as_deref().unwrap();
    assert_eq!(
        reg.counter_value("supervise.resumed_blocks"),
        Some(resumed.supervision.resumed_blocks)
    );
    assert!(resumed.supervision.resumed_blocks > 0);
    assert_eq!(reg.counter_value("journal.truncated_tail"), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&killed_dir).unwrap();
}

/// The `prefix.bin` a complete checkpointed run of `builder` leaves behind.
fn prefix_bytes_of(builder: PipelineBuilder, tag: &str) -> Vec<u8> {
    let dir = run_dir(tag);
    let p = builder.threads(2).run_dir(&dir).observe().run();
    assert_eq!(
        prefix_counts(&p),
        (0, 0),
        "{tag}: a fresh run neither loads nor rebuilds"
    );
    let bytes = std::fs::read(dir.join(PREFIX_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// A prefix file that is missing, corrupt, or bound to another run or
/// world is never trusted: the resumed run rebuilds it, lands on the
/// uninterrupted bytes, and rewrites the file for the next incarnation.
#[test]
fn untrusted_prefix_is_rebuilt_and_resume_stays_byte_identical() {
    let bl = baseline(0.0);
    let total = bl.selected.len() as u64;
    let other_seed = prefix_bytes_of(base(0.0).seed(SEED + 1), "prefix-other-seed");
    // This run's seed and scale, so the same journal meta, but the world
    // of another seed: only the world fingerprint tells the files apart.
    let other_world = build(scenario_config(&ExpArgs {
        seed: SEED + 1,
        scale: SCALE,
        ..Default::default()
    }));
    let other_world_fp = prefix::world_fingerprint(&other_world.network.allocated_blocks());
    let foreign_world = prefix_bytes_of(base(0.0).scenario(other_world), "prefix-other-world");
    let meta = RunMeta::of(&ExpArgs {
        seed: SEED,
        scale: SCALE,
        ..Default::default()
    });
    assert!(prefix::decode(&foreign_world, &meta, other_world_fp).is_ok());

    for tag in ["deleted", "flipped", "other-seed", "other-world"] {
        let dir = run_dir(&format!("prefix-{tag}"));
        let crashed = base(0.0)
            .threads(2)
            .run_dir(&dir)
            .crash_point(CrashPoint {
                after_block_appends: total / 3,
                torn: false,
            })
            .run();
        assert!(crashed.supervision.interrupted, "{tag}");
        let path = dir.join(PREFIX_FILE);
        let intact = std::fs::read(&path).unwrap();
        match tag {
            "deleted" => std::fs::remove_file(&path).unwrap(),
            "flipped" => {
                let mut bytes = intact.clone();
                bytes[intact.len() / 2] ^= 0x10;
                std::fs::write(&path, bytes).unwrap();
            }
            "other-seed" => std::fs::write(&path, &other_seed).unwrap(),
            _ => std::fs::write(&path, &foreign_world).unwrap(),
        }
        let resumed = base(0.0).threads(2).resume_from(&dir).observe().run();
        assert_eq!(prefix_counts(&resumed), (0, 1), "{tag}");
        assert!(resumed.snapshot.probes > 0, "{tag}: the rebuild rescans");
        assert_identical(&bl.report, &resumed.canonical_report(), tag);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "{tag}: rewritten");
        let again = base(0.0).threads(1).resume_from(&dir).observe().run();
        assert_eq!(prefix_counts(&again), (1, 0), "{tag}: the rewrite loads");
        assert_eq!(again.snapshot.probes, 0, "{tag}");
        assert_identical(&bl.report, &again.canonical_report(), tag);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
