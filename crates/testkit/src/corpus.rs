//! The golden corpus: hand-enumerated scenarios covering the taxonomy,
//! seed-file I/O, and pinned-expectation checking.
//!
//! Each corpus entry is one JSON file in `tests/corpus/` holding a
//! [`ScenarioSpec`] plus the classification report it must keep producing
//! (verdict and last-hop set per planted /24). `hobbit conform --regen`
//! rewrites the expectations after an intentional behaviour change — the
//! regeneration itself refuses to pin a report the oracle disagrees with.

use crate::diff::DiffReport;
use crate::scenario::{
    BlockKind, BlockSpec, DiamondSpec, DynamicsSpec, EventSpec, NetemKnobs, PolicySpec, PopSpec,
    ScenarioSpec,
};
use hobbit::Classification;
use netsim::{Addr, Block24};
use probe::MdaMode;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Pinned expectation for one planted /24.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedBlock {
    /// The block.
    pub block: Block24,
    /// The pinned verdict.
    pub verdict: Classification,
    /// The pinned (sorted) last-hop interface set.
    pub lasthops: Vec<Addr>,
}

/// One golden-corpus seed file: a scenario and the report it must produce.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// Stable entry name (also the file stem).
    pub name: String,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Expected verdict and last-hop set per classified block, in block
    /// order.
    pub expected: Vec<ExpectedBlock>,
}

impl CorpusEntry {
    /// Pin a differential run's report as this entry's expectation.
    pub fn from_report(name: &str, spec: &ScenarioSpec, report: &DiffReport) -> Self {
        CorpusEntry {
            name: name.to_string(),
            spec: spec.clone(),
            expected: report
                .measurements
                .iter()
                .map(|m| ExpectedBlock {
                    block: m.block,
                    verdict: m.classification,
                    lasthops: m.lasthop_set.clone(),
                })
                .collect(),
        }
    }

    /// Compare a fresh report against the pinned expectations; returns one
    /// human-readable line per deviation (empty = conformant).
    pub fn check(&self, report: &DiffReport) -> Vec<String> {
        let mut out = Vec::new();
        let got: Vec<ExpectedBlock> =
            CorpusEntry::from_report(&self.name, &self.spec, report).expected;
        if got.len() != self.expected.len() {
            out.push(format!(
                "{}: {} blocks classified, {} pinned",
                self.name,
                got.len(),
                self.expected.len()
            ));
        }
        for want in &self.expected {
            match got.iter().find(|g| g.block == want.block) {
                None => out.push(format!("{}: block {:?} missing", self.name, want.block)),
                Some(g) => {
                    if g.verdict != want.verdict {
                        out.push(format!(
                            "{}: block {:?} verdict {:?}, pinned {:?}",
                            self.name, want.block, g.verdict, want.verdict
                        ));
                    }
                    if g.lasthops != want.lasthops {
                        out.push(format!(
                            "{}: block {:?} lasthops {:?}, pinned {:?}",
                            self.name, want.block, g.lasthops, want.lasthops
                        ));
                    }
                }
            }
        }
        out
    }

    /// Write the entry as pretty JSON to `path`, atomically: the bytes go
    /// to a temp file beside the target which is then renamed into place,
    /// so a crash or ENOSPC mid-regen can never leave a half-rewritten
    /// pinned corpus file — the reader sees the old entry or the new one.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_via(&StdCorpusStore, path)
    }

    /// [`CorpusEntry::save`] through an explicit [`CorpusStore`], so a
    /// fault-injecting filesystem can be slotted underneath in tests.
    pub fn save_via(&self, store: &dyn CorpusStore, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("corpus entry serializes");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        store.write(&tmp, (json + "\n").as_bytes())?;
        store.rename(&tmp, path)
    }

    /// Read an entry back from `path`, validating the embedded spec.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        let entry: CorpusEntry = serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?;
        entry
            .spec
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?;
        Ok(entry)
    }
}

/// The filesystem surface corpus regeneration writes through. The default
/// implementation is plain `std::fs`; the experiments crate implements it
/// for its `Storage` handle so `ChaosVfs` fault schedules cover the
/// atomic-save path too.
pub trait CorpusStore {
    /// Write `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// [`CorpusStore`] over plain `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdCorpusStore;

impl CorpusStore for StdCorpusStore {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
}

/// Load every `*.json` corpus entry under `dir`, sorted by name.
pub fn load_dir(dir: &Path) -> io::Result<Vec<CorpusEntry>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            out.push(CorpusEntry::load(&path)?);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn pop(fan: u8, policy: PolicySpec) -> PopSpec {
    PopSpec {
        fan,
        policy,
        responsive: true,
        alt_addr: false,
        diamond: DiamondSpec::None,
    }
}

fn homog(pop: u8, density_pct: u8) -> BlockSpec {
    BlockSpec {
        kind: BlockKind::Homog { pop },
        density_pct,
        churn_pct: 0,
        quiet_pct: 0,
    }
}

fn split(lens: &[u8], density_pct: u8) -> BlockSpec {
    BlockSpec {
        kind: BlockKind::Split {
            lens: lens.to_vec(),
        },
        density_pct,
        churn_pct: 0,
        quiet_pct: 0,
    }
}

fn spec(seed: u64, transit: bool, pops: Vec<PopSpec>, blocks: Vec<BlockSpec>) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        transit,
        pops,
        blocks,
        link_loss: 0.0,
        icmp_rate: 0.0,
        mda_mode: MdaMode::Classic,
        dynamics: DynamicsSpec::default(),
    }
}

/// The same scenario classified in MDA-Lite mode (the drift sweep pins
/// classic/lite pairs of each diamond topology).
fn lite(spec: ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec {
        mda_mode: MdaMode::Lite,
        ..spec
    }
}

/// The same scenario evolving mid-campaign: `events` fire against a
/// virtual clock of `period` probes per epoch.
fn dynamic(spec: ScenarioSpec, period: u64, events: Vec<EventSpec>) -> ScenarioSpec {
    ScenarioSpec {
        dynamics: DynamicsSpec {
            period,
            events,
            netem: NetemKnobs::default(),
        },
        ..spec
    }
}

/// The golden scenarios: one per taxonomy cell the classifier must keep
/// handling identically. Names are stable — they are the corpus file stems.
pub fn golden_specs() -> Vec<(&'static str, ScenarioSpec)> {
    use PolicySpec::{PerDestination, PerFlow, PerSrcDest};
    vec![
        // Single last hop: the SameLasthop row.
        (
            "single-lasthop",
            spec(101, false, vec![pop(1, PerDestination)], vec![homog(0, 90)]),
        ),
        // Per-destination fans: NonHierarchical at growing cardinality.
        (
            "fan2-perdest",
            spec(102, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
        ),
        (
            "fan3-perdest",
            spec(103, false, vec![pop(3, PerDestination)], vec![homog(0, 90)]),
        ),
        (
            "fan4-perdest",
            spec(104, false, vec![pop(4, PerDestination)], vec![homog(0, 90)]),
        ),
        // Per-flow fans: Paris probing sticks to one path per destination.
        (
            "fan2-perflow",
            spec(105, false, vec![pop(2, PerFlow)], vec![homog(0, 90)]),
        ),
        (
            "fan3-perflow",
            spec(106, false, vec![pop(3, PerFlow)], vec![homog(0, 90)]),
        ),
        // Source/destination hashing (one vantage: degenerates to per-dest).
        (
            "fan2-persrcdest",
            spec(107, false, vec![pop(2, PerSrcDest)], vec![homog(0, 90)]),
        ),
        // Genuinely heterogeneous tilings: Hierarchical, never NonHierarchical.
        (
            "split-25-25",
            spec(108, false, vec![], vec![split(&[25, 25], 90)]),
        ),
        (
            "split-25-26-26",
            spec(109, false, vec![], vec![split(&[25, 26, 26], 90)]),
        ),
        (
            "split-26x4",
            spec(110, false, vec![], vec![split(&[26, 26, 26, 26], 90)]),
        ),
        (
            "split-mixed",
            spec(111, false, vec![], vec![split(&[27, 27, 26, 25], 90)]),
        ),
        // Anonymous last hop: routers deliver but never answer TTL-exceeded.
        (
            "anonymous-lasthop",
            spec(
                112,
                false,
                vec![PopSpec {
                    responsive: false,
                    ..pop(2, PerDestination)
                }],
                vec![homog(0, 90)],
            ),
        ),
        // Alternating reply interfaces must not change the verdict shape.
        (
            "alt-addr-fan2",
            spec(
                113,
                false,
                vec![PopSpec {
                    alt_addr: true,
                    ..pop(2, PerDestination)
                }],
                vec![homog(0, 90)],
            ),
        ),
        // Sparse population: the selection/too-few-active edge.
        (
            "sparse-block",
            spec(114, false, vec![pop(1, PerDestination)], vec![homog(0, 2)]),
        ),
        // Upstream per-flow transit diversity above the last hop.
        (
            "transit-fan2",
            spec(115, true, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
        ),
        // Two PoPs, three blocks: mixed verdicts in one run.
        (
            "multi-pop-mixed",
            spec(
                116,
                false,
                vec![pop(1, PerDestination), pop(3, PerFlow)],
                vec![homog(0, 85), homog(1, 70), split(&[25, 25], 90)],
            ),
        ),
        // Two homogeneous blocks behind one PoP: identical-set aggregation.
        (
            "aggregate-pair",
            spec(
                117,
                false,
                vec![pop(2, PerDestination)],
                vec![homog(0, 90), homog(0, 80)],
            ),
        ),
        // Fault rows: loss and rate limiting, retried by the pipeline.
        (
            "faulted-loss",
            spec(118, false, vec![pop(2, PerDestination)], vec![homog(0, 90)])
                .with_faults(0.02, 0.0),
        ),
        (
            "faulted-rate",
            spec(119, false, vec![pop(2, PerDestination)], vec![homog(0, 90)])
                .with_faults(0.0, 0.5),
        ),
        // Everything at once.
        (
            "kitchen-sink",
            spec(
                120,
                true,
                vec![pop(3, PerFlow), pop(2, PerDestination)],
                vec![
                    homog(0, 90),
                    split(&[25, 26, 27, 27], 85),
                    homog(1, 3),
                    homog(1, 95),
                ],
            )
            .with_faults(0.02, 0.0),
        ),
        // Diamond topologies, pinned under both MDA modes: mid-path
        // per-flow fans upstream of the PoP that MDA-Lite's diamond-aware
        // stopping rules must traverse without changing any verdict.
        (
            "diamond-wide-classic",
            spec(
                121,
                false,
                vec![PopSpec {
                    diamond: DiamondSpec::Wide { width: 3 },
                    ..pop(2, PerDestination)
                }],
                vec![homog(0, 90)],
            ),
        ),
        (
            "diamond-wide-lite",
            lite(spec(
                121,
                false,
                vec![PopSpec {
                    diamond: DiamondSpec::Wide { width: 3 },
                    ..pop(2, PerDestination)
                }],
                vec![homog(0, 90)],
            )),
        ),
        (
            "diamond-nested-classic",
            spec(
                122,
                false,
                vec![PopSpec {
                    diamond: DiamondSpec::Nested { outer: 2, inner: 2 },
                    ..pop(2, PerFlow)
                }],
                vec![homog(0, 90)],
            ),
        ),
        (
            "diamond-nested-lite",
            lite(spec(
                122,
                false,
                vec![PopSpec {
                    diamond: DiamondSpec::Nested { outer: 2, inner: 2 },
                    ..pop(2, PerFlow)
                }],
                vec![homog(0, 90)],
            )),
        ),
        (
            "diamond-asym-classic",
            spec(
                123,
                true,
                vec![PopSpec {
                    diamond: DiamondSpec::Asymmetric { width: 3, long: 1 },
                    ..pop(3, PerFlow)
                }],
                vec![homog(0, 90)],
            ),
        ),
        (
            "diamond-asym-lite",
            lite(spec(
                123,
                true,
                vec![PopSpec {
                    diamond: DiamondSpec::Asymmetric { width: 3, long: 1 },
                    ..pop(3, PerFlow)
                }],
                vec![homog(0, 90)],
            )),
        ),
        // Lite over the historical (diamond-free) rows: the savings must
        // come without a verdict change even with no diamond to detect.
        (
            "lite-perdest-fan3",
            lite(spec(
                124,
                false,
                vec![pop(3, PerDestination)],
                vec![homog(0, 90)],
            )),
        ),
        (
            "lite-single-lasthop",
            lite(spec(
                125,
                false,
                vec![pop(1, PerDestination)],
                vec![homog(0, 90)],
            )),
        ),
        (
            "lite-faulted-loss",
            lite(
                spec(126, false, vec![pop(2, PerDestination)], vec![homog(0, 90)])
                    .with_faults(0.02, 0.0),
            ),
        ),
        // Time-evolving worlds: the event schedule fires mid-campaign on
        // the virtual probe clock, pinned so dynamic verdicts stay exactly
        // reproducible. One entry per artifact class, plus churn-only and
        // everything-at-once rows under both MDA modes.
        (
            "dyn-churn",
            dynamic(
                spec(127, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::RouteChurn {
                    pop: 0,
                    at_epoch: 1,
                }],
            ),
        ),
        (
            "dyn-churn-lite",
            lite(dynamic(
                spec(127, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::RouteChurn {
                    pop: 0,
                    at_epoch: 1,
                }],
            )),
        ),
        (
            "dyn-lb-resize",
            dynamic(
                spec(128, false, vec![pop(3, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::LbResize {
                    pop: 0,
                    at_epoch: 2,
                    width: 1,
                }],
            ),
        ),
        (
            "dyn-transient-loop",
            dynamic(
                spec(129, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::TransientLoop {
                    pop: 0,
                    at_epoch: 1,
                }],
            ),
        ),
        (
            "dyn-addr-reuse",
            dynamic(
                spec(130, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::AddressReuse {
                    pop: 0,
                    at_epoch: 1,
                }],
            ),
        ),
        (
            "dyn-false-diamond",
            dynamic(
                spec(131, false, vec![pop(2, PerDestination)], vec![homog(0, 90)]),
                16,
                vec![EventSpec::FalseDiamond {
                    pop: 0,
                    at_epoch: 1,
                }],
            ),
        ),
        (
            "dyn-combined",
            dynamic(
                spec(
                    132,
                    true,
                    vec![pop(2, PerFlow), pop(3, PerDestination)],
                    vec![homog(0, 90), homog(1, 85)],
                ),
                16,
                vec![
                    EventSpec::RouteChurn {
                        pop: 0,
                        at_epoch: 1,
                    },
                    EventSpec::LbResize {
                        pop: 1,
                        at_epoch: 2,
                        width: 2,
                    },
                    EventSpec::FalseDiamond {
                        pop: 0,
                        at_epoch: 3,
                    },
                ],
            )
            .with_netem(NetemKnobs {
                delay_us: 400,
                jitter_us: 200,
                reorder_pct: 2,
                duplicate_pct: 1,
            }),
        ),
        (
            "dyn-combined-lite",
            lite(
                dynamic(
                    spec(
                        132,
                        true,
                        vec![pop(2, PerFlow), pop(3, PerDestination)],
                        vec![homog(0, 90), homog(1, 85)],
                    ),
                    16,
                    vec![
                        EventSpec::RouteChurn {
                            pop: 0,
                            at_epoch: 1,
                        },
                        EventSpec::LbResize {
                            pop: 1,
                            at_epoch: 2,
                            width: 2,
                        },
                        EventSpec::FalseDiamond {
                            pop: 0,
                            at_epoch: 3,
                        },
                    ],
                )
                .with_netem(NetemKnobs {
                    delay_us: 400,
                    jitter_us: 200,
                    reorder_pct: 2,
                    duplicate_pct: 1,
                }),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_specs_validate_and_names_are_unique() {
        let specs = golden_specs();
        assert!(specs.len() >= 28, "corpus shrank to {}", specs.len());
        let mut names: Vec<&str> = specs.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate corpus names");
        for (name, s) in &specs {
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn entry_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("testkit-corpus-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (name, s) = &golden_specs()[0];
        let entry = CorpusEntry {
            name: name.to_string(),
            spec: s.clone(),
            expected: vec![ExpectedBlock {
                block: ScenarioSpec::block24(0),
                verdict: Classification::SameLasthop,
                lasthops: vec![Addr::new(10, 100, 0, 10)],
            }],
        };
        let path = dir.join(format!("{name}.json"));
        entry.save(&path).unwrap();
        let back = CorpusEntry::load(&path).unwrap();
        assert_eq!(back, entry);
        let all = load_dir(&dir).unwrap();
        assert_eq!(all, vec![entry]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_invalid_specs() {
        let dir = std::env::temp_dir().join(format!("testkit-corpus-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let mut entry = CorpusEntry {
            name: "bad".into(),
            spec: golden_specs()[0].1.clone(),
            expected: vec![],
        };
        entry.spec.blocks[0].density_pct = 0;
        let json = serde_json::to_string(&entry).unwrap();
        fs::write(&path, json).unwrap();
        assert!(CorpusEntry::load(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
