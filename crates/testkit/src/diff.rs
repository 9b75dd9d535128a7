//! The differential runner: production classification versus the oracle
//! over one generated scenario, across thread counts.
//!
//! The production engine (`experiments::classify_blocks`) cannot be a
//! dependency of this crate — `experiments` depends on `testkit` for the
//! `hobbit conform` command — so the caller injects it: pass
//! `&experiments::classify_blocks` as the [`ClassifyRef`]. Each
//! run rebuilds the world from the spec (probing mutates warm-up and
//! token-bucket state, so reuse would let one thread count's run leak into
//! the next), takes the ZMap snapshot, switches faults on, classifies, and
//! then holds every measurement against the oracle.

use crate::oracle::{naive_aggregate, naive_disjoint_aligned, naive_lasthop_set, replay_verdict};
use crate::scenario::{build_world, ScenarioSpec, TruthLabel};
use hobbit::{
    prober_retries, select_all, BlockMeasurement, Classification, ConfidenceTable, HobbitConfig,
    SelectedBlock,
};
use netsim::{Addr, Block24, Network};
use obs::{Counter, Recorder};
use probe::zmap;

/// The injected production classification engine: network, selected
/// blocks, confidence table, config, thread count → measurements in block
/// order. `&experiments::classify_blocks` has exactly this shape.
pub type ClassifyRef<'a> = &'a dyn Fn(
    &Network,
    &[SelectedBlock],
    &ConfidenceTable,
    &HobbitConfig,
    usize,
) -> Vec<BlockMeasurement>;

/// One production/oracle divergence. Every variant is a bug in either the
/// production pipeline or the oracle; none is expected to survive review.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Mismatch {
    /// Two thread counts produced byte-different measurement sets.
    ThreadDivergence {
        /// The diverging thread counts.
        threads: (usize, usize),
    },
    /// Production verdict differs from the oracle's replay.
    Verdict {
        /// The block.
        block: Block24,
        /// What production recorded.
        production: Classification,
        /// What the oracle's replay concludes.
        oracle: Classification,
    },
    /// The early-termination test already fired strictly before the end of
    /// the recorded evidence: production kept probing past its own verdict.
    PrematureStop {
        /// The block.
        block: Block24,
        /// Evidence prefix length at which the verdict fired.
        at: usize,
        /// The verdict that fired there.
        verdict: Classification,
    },
    /// Recorded last-hop set differs from the naive recomputation.
    LasthopSet {
        /// The block.
        block: Block24,
        /// What production recorded.
        production: Vec<Addr>,
        /// The oracle's recomputation.
        oracle: Vec<Addr>,
    },
    /// The measurement's own counters are inconsistent.
    Counts {
        /// The block.
        block: Block24,
        /// Human-readable description of the violated identity.
        detail: String,
    },
    /// Strict-disjoint subnet detection disagrees on the same evidence.
    Alignment {
        /// The block.
        block: Block24,
    },
    /// Production aggregation differs from the naive O(n²) aggregation.
    Aggregation {
        /// Human-readable diff summary.
        detail: String,
    },
    /// A planted-heterogeneous block was classified non-hierarchical —
    /// impossible under the paper's invariant (missing evidence can only
    /// make a truly hierarchical grouping *look* hierarchical, never
    /// interleave its ranges).
    Soundness {
        /// The block.
        block: Block24,
        /// The production verdict that violates the invariant.
        production: Classification,
    },
}

/// Outcome of one differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The scenario's seed (for reporting).
    pub seed: u64,
    /// Blocks that passed selection and were classified.
    pub blocks_checked: usize,
    /// The measurements of the first thread count's run (pinning input for
    /// the golden corpus).
    pub measurements: Vec<BlockMeasurement>,
    /// Every divergence found.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Whether production and oracle agreed everywhere.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Pre-interned `conform.*` counters (bind once, pass to every
/// [`run_spec`] call of a campaign).
#[derive(Clone, Debug)]
pub struct ConformObs {
    scenarios: Counter,
    blocks: Counter,
    mismatches: Counter,
    verdict_mismatches: Counter,
    soundness_violations: Counter,
    thread_divergences: Counter,
}

impl ConformObs {
    /// Intern the conformance counters in `rec`.
    pub fn bind(rec: &dyn Recorder) -> Self {
        ConformObs {
            scenarios: rec.counter("conform.scenarios"),
            blocks: rec.counter("conform.blocks"),
            mismatches: rec.counter("conform.mismatches"),
            verdict_mismatches: rec.counter("conform.verdict_mismatches"),
            soundness_violations: rec.counter("conform.soundness_violations"),
            thread_divergences: rec.counter("conform.thread_divergences"),
        }
    }

    fn record(&self, report: &DiffReport) {
        self.scenarios.inc();
        self.blocks.add(report.blocks_checked as u64);
        self.mismatches.add(report.mismatches.len() as u64);
        for m in &report.mismatches {
            match m {
                Mismatch::Verdict { .. } => self.verdict_mismatches.inc(),
                Mismatch::Soundness { .. } => self.soundness_violations.inc(),
                Mismatch::ThreadDivergence { .. } => self.thread_divergences.inc(),
                _ => {}
            }
        }
    }
}

/// The classifier configuration conformance runs use: a seed derived from
/// the spec, and the production pipeline's retries ([`prober_retries`]).
pub fn conform_config(spec: &ScenarioSpec) -> HobbitConfig {
    HobbitConfig {
        seed: spec.seed ^ 0xC0F0,
        prober_retries: prober_retries(spec.faults().is_active()),
        mda_mode: spec.mda_mode,
        dynamics_period: if spec.dynamics.events.is_empty() {
            0
        } else {
            spec.dynamics.period
        },
    }
}

/// Build, snapshot, classify at one thread count. Returns the measurements
/// in block order.
pub(crate) fn classify_once(
    spec: &ScenarioSpec,
    threads: usize,
    classify: ClassifyRef<'_>,
) -> Vec<BlockMeasurement> {
    let mut world = build_world(spec);
    let snapshot = zmap::scan_all(&mut world.network, 1);
    // Faults and the event schedule switch on after the snapshot, like the
    // production pipeline: selection inputs stay identical to a static,
    // fault-free run, and epoch 0 always means the frozen world.
    world.network.set_faults(spec.faults());
    if world.dynamics.is_active() {
        world.network.set_dynamics(world.dynamics.clone());
    }
    let selected = select_all(&snapshot);
    let (table, cfg) = (ConfidenceTable::empty(), conform_config(spec));
    classify(&world.network, &selected, &table, &cfg, threads)
}

/// Run production classification and the oracle over one spec, comparing
/// verdicts block by block across `threads` (the first entry's run is the
/// one the oracle inspects; later entries are byte-compared against it).
pub fn run_spec(
    spec: &ScenarioSpec,
    threads: &[usize],
    classify: ClassifyRef<'_>,
    obs: Option<&ConformObs>,
) -> DiffReport {
    assert!(!threads.is_empty(), "need at least one thread count");
    let mut mismatches = Vec::new();

    let measurements = classify_once(spec, threads[0], classify);
    for &t in &threads[1..] {
        let other = classify_once(spec, t, classify);
        let a = serde_json::to_string(&measurements).expect("measurements serialize");
        let b = serde_json::to_string(&other).expect("measurements serialize");
        if a != b {
            mismatches.push(Mismatch::ThreadDivergence {
                threads: (threads[0], t),
            });
        }
    }

    let truth = build_world(spec).truth;
    let table = ConfidenceTable::empty();
    for m in &measurements {
        // Counter identities every measurement must satisfy.
        if m.dests_resolved != m.per_dest.len() {
            mismatches.push(Mismatch::Counts {
                block: m.block,
                detail: format!(
                    "dests_resolved {} != per_dest.len() {}",
                    m.dests_resolved,
                    m.per_dest.len()
                ),
            });
        }
        if m.dests_probed != m.dests_resolved + m.dests_anonymous + m.dests_unresolved {
            mismatches.push(Mismatch::Counts {
                block: m.block,
                detail: format!(
                    "dests_probed {} != resolved {} + anonymous {} + unresolved {}",
                    m.dests_probed, m.dests_resolved, m.dests_anonymous, m.dests_unresolved
                ),
            });
        }
        // Verdict replay over the recorded evidence.
        let oracle = replay_verdict(m, &table);
        if let Some((at, verdict)) = oracle.premature {
            mismatches.push(Mismatch::PrematureStop {
                block: m.block,
                at,
                verdict,
            });
        }
        if oracle.classification != m.classification {
            mismatches.push(Mismatch::Verdict {
                block: m.block,
                production: m.classification,
                oracle: oracle.classification,
            });
        }
        // Last-hop signature.
        let naive_set = naive_lasthop_set(&m.per_dest);
        if naive_set != m.lasthop_set {
            mismatches.push(Mismatch::LasthopSet {
                block: m.block,
                production: m.lasthop_set.clone(),
                oracle: naive_set,
            });
        }
        // Strict-disjoint subnet detection on the same evidence.
        if naive_disjoint_aligned(&m.per_dest) != m.table().disjoint_and_aligned() {
            mismatches.push(Mismatch::Alignment { block: m.block });
        }
        // Soundness against the planted truth.
        if m.classification == Classification::NonHierarchical {
            if let Some(TruthLabel::Heterogeneous { .. }) = truth.get(&m.block) {
                mismatches.push(Mismatch::Soundness {
                    block: m.block,
                    production: m.classification,
                });
            }
        }
    }

    // Aggregation: production identical-set merge vs the naive O(n²) one.
    let homog: Vec<(Block24, Vec<Addr>)> = measurements
        .iter()
        .filter(|m| m.classification.is_homogeneous())
        .map(|m| (m.block, m.lasthop_set.clone()))
        .collect();
    let production: Vec<(Vec<Addr>, Vec<Block24>)> = aggregate::aggregate_identical(
        &homog
            .iter()
            .map(|(b, l)| aggregate::HomogBlock::new(*b, l.clone()))
            .collect::<Vec<_>>(),
    )
    .into_iter()
    .map(|a| (a.lasthops, a.blocks))
    .collect();
    let oracle_aggs = naive_aggregate(&homog);
    if production != oracle_aggs {
        mismatches.push(Mismatch::Aggregation {
            detail: format!(
                "production {} aggregates vs oracle {}",
                production.len(),
                oracle_aggs.len()
            ),
        });
    }

    let report = DiffReport {
        seed: spec.seed,
        blocks_checked: measurements.len(),
        measurements,
        mismatches,
    };
    if let Some(obs) = obs {
        obs.record(&report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::gen_spec;
    use hobbit::{block_ident, classify_block};
    use probe::Prober;

    /// A plain sequential reference engine (the crate's own default; the
    /// real conformance suite injects the production work-stealing one).
    pub fn sequential_classify(
        net: &Network,
        selected: &[SelectedBlock],
        table: &ConfidenceTable,
        cfg: &HobbitConfig,
        _threads: usize,
    ) -> Vec<BlockMeasurement> {
        let mut out: Vec<BlockMeasurement> = selected
            .iter()
            .map(|sel| {
                let mut prober = Prober::new(net, block_ident(sel.block));
                classify_block(&mut prober, sel, table, cfg)
            })
            .collect();
        out.sort_by_key(|m| m.block);
        out
    }

    #[test]
    fn sequential_engine_is_oracle_clean() {
        for seed in [1u64, 2, 3] {
            let spec = gen_spec(seed);
            let report = run_spec(&spec, &[1], &sequential_classify, None);
            assert!(report.clean(), "seed {seed}: {:?}", report.mismatches);
            assert!(report.blocks_checked > 0 || spec.blocks.len() <= 2);
        }
    }

    #[test]
    fn injected_verdict_flip_is_caught() {
        let spec = gen_spec(1);
        let broken = |net: &Network,
                      sel: &[SelectedBlock],
                      table: &ConfidenceTable,
                      cfg: &HobbitConfig,
                      t: usize| {
            let mut ms = sequential_classify(net, sel, table, cfg, t);
            for m in &mut ms {
                if m.classification == Classification::SameLasthop {
                    m.classification = Classification::Hierarchical;
                }
            }
            ms
        };
        let clean = run_spec(&spec, &[1], &sequential_classify, None);
        let has_same = clean
            .measurements
            .iter()
            .any(|m| m.classification == Classification::SameLasthop);
        let report = run_spec(&spec, &[1], &broken, None);
        assert_eq!(
            !report.clean(),
            has_same,
            "flip caught iff a SameLasthop verdict exists: {:?}",
            report.mismatches
        );
    }

    #[test]
    fn conform_counters_accumulate() {
        let reg = obs::Registry::new();
        let obs = ConformObs::bind(&reg);
        let spec = gen_spec(2);
        run_spec(&spec, &[1], &sequential_classify, Some(&obs));
        assert_eq!(reg.counter("conform.scenarios").get(), 1);
        assert!(reg.counter("conform.blocks").get() > 0);
        assert_eq!(reg.counter("conform.mismatches").get(), 0);
    }
}
