//! The `hobbit conform` campaign: run the production classification engine
//! and the `testkit` reference oracle over the golden corpus plus a fresh
//! fuzzed sweep, shrink any divergence to a minimal scenario, and persist
//! the shrunk seed files for offline debugging.

use crate::args::{expect_value, ParseOutcome};
use crate::pipeline::classify_blocks;
use crate::report::Report;
use obs::Registry;
use std::path::PathBuf;
use testkit::corpus::{golden_specs, load_dir, CorpusEntry};
use testkit::diff::{run_spec, ConformObs};
use testkit::scenario::{gen_spec, ScenarioSpec};
use testkit::shrink::shrink;

/// Fresh-scenario count when `--cases` is not given.
pub const DEFAULT_CASES: usize = 200;

/// Options of `hobbit conform` (its axes differ from the experiments',
/// so it does not reuse `ExpArgs`).
#[derive(Clone, Debug)]
pub struct ConformArgs {
    /// Number of fresh generated scenarios to sweep.
    pub cases: usize,
    /// Base seed of the fresh sweep (scenario `i` uses `seed + i`).
    pub seed: u64,
    /// Thread counts every scenario is classified under; runs must be
    /// byte-identical across them.
    pub threads: Vec<usize>,
    /// Golden corpus directory.
    pub corpus: PathBuf,
    /// Where shrunk failing-scenario seed files are written.
    pub out_dir: PathBuf,
    /// Re-pin the golden corpus expectations instead of checking them.
    pub regen: bool,
    /// Emit machine-readable JSON.
    pub json: bool,
}

impl Default for ConformArgs {
    fn default() -> Self {
        ConformArgs {
            cases: DEFAULT_CASES,
            seed: 1000,
            threads: vec![1, 8],
            corpus: PathBuf::from("tests/corpus"),
            out_dir: PathBuf::from("target/conform-failures"),
            regen: false,
            json: false,
        }
    }
}

/// Usage text of `hobbit conform`.
pub const USAGE: &str = "usage: hobbit conform [--cases N] [--seed N] [--threads A,B,..]\n\
\u{20}                     [--corpus DIR] [--out-dir DIR] [--regen] [--json]\n\
--cases N       fresh generated scenarios to sweep (default 200)\n\
--seed N        base seed of the fresh sweep (default 1000)\n\
--threads A,B   thread counts every scenario must agree across (default 1,8)\n\
--corpus DIR    golden corpus directory (default tests/corpus)\n\
--out-dir DIR   where shrunk failing seed files go (default target/conform-failures)\n\
--regen         re-pin the golden corpus expectations (refuses oracle-divergent pins)\n\
--json          machine-readable output";

impl ConformArgs {
    /// Parse the flags that follow `hobbit conform`. Unknown flags are an
    /// error; `--help` stops parsing.
    pub fn parse_from<I>(tokens: I) -> Result<Self, ParseOutcome>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = ConformArgs::default();
        let mut it = tokens.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--cases" => args.cases = expect_value(&mut it, "--cases")?,
                "--seed" => args.seed = expect_value(&mut it, "--seed")?,
                "--threads" => {
                    let v: String = expect_value(&mut it, "--threads")?;
                    args.threads = v
                        .split(',')
                        .map(|t| t.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| {
                            ParseOutcome::Error(format!("invalid value {v:?} for --threads"))
                        })?;
                }
                "--corpus" => {
                    args.corpus = PathBuf::from(expect_value::<String>(&mut it, "--corpus")?)
                }
                "--out-dir" => {
                    args.out_dir = PathBuf::from(expect_value::<String>(&mut it, "--out-dir")?)
                }
                "--regen" => args.regen = true,
                "--json" => args.json = true,
                "--help" | "-h" => return Err(ParseOutcome::Help),
                other => return Err(ParseOutcome::Error(format!("unknown flag {other:?}"))),
            }
        }
        if args.threads.is_empty() || args.threads.contains(&0) {
            return Err(ParseOutcome::Error(
                "--threads wants positive counts".into(),
            ));
        }
        Ok(args)
    }
}

/// Fault variant of fresh case `i`: most run clean, a quarter with link
/// loss, a quarter with loss plus ICMP rate limiting — the sweep's
/// `faults {0, 0.02}` axis.
fn fault_variant(spec: ScenarioSpec, i: usize) -> ScenarioSpec {
    match i % 4 {
        1 => spec.with_faults(0.02, 0.0),
        3 => spec.with_faults(0.02, 0.5),
        _ => spec,
    }
}

/// Run the campaign. Returns the report plus the number of failing
/// scenarios (the binary's exit status).
pub fn run(args: &ConformArgs) -> (Report, usize) {
    let mut report = Report::new(
        "conform",
        "differential conformance: production engine vs reference oracle",
    );
    let reg = Registry::new();
    let obs = ConformObs::bind(&reg);
    let mut failing: Vec<(String, ScenarioSpec, Vec<String>)> = Vec::new();

    // --- Golden corpus: regenerate pins, or check against them.
    if args.regen {
        std::fs::create_dir_all(&args.corpus).expect("create corpus dir");
        let mut pinned = 0usize;
        for (name, spec) in golden_specs() {
            let r = run_spec(&spec, &args.threads, &classify_blocks, Some(&obs));
            if !r.clean() {
                // Never pin a report the oracle disagrees with.
                failing.push((
                    format!("corpus/{name}"),
                    spec.clone(),
                    r.mismatches.iter().map(|m| format!("{m:?}")).collect(),
                ));
                continue;
            }
            let entry = CorpusEntry::from_report(name, &spec, &r);
            entry
                .save(&args.corpus.join(format!("{name}.json")))
                .expect("write corpus entry");
            pinned += 1;
        }
        report.info("corpus.repinned", pinned);
    } else {
        match load_dir(&args.corpus) {
            Ok(entries) => {
                let mut checked = 0usize;
                for entry in &entries {
                    let r = run_spec(&entry.spec, &args.threads, &classify_blocks, Some(&obs));
                    let mut issues: Vec<String> =
                        r.mismatches.iter().map(|m| format!("{m:?}")).collect();
                    issues.extend(entry.check(&r));
                    if !issues.is_empty() {
                        failing.push((
                            format!("corpus/{}", entry.name),
                            entry.spec.clone(),
                            issues,
                        ));
                    }
                    checked += 1;
                }
                report.info("corpus.checked", checked);
            }
            Err(e) => {
                report.note(format!(
                    "golden corpus unreadable at {:?} ({e}) — run hobbit conform --regen",
                    args.corpus
                ));
            }
        }
    }

    // --- Fresh fuzzed sweep.
    for i in 0..args.cases {
        let spec = fault_variant(gen_spec(args.seed + i as u64), i);
        let r = run_spec(&spec, &args.threads, &classify_blocks, Some(&obs));
        if !r.clean() {
            failing.push((
                format!("fresh/seed-{}", spec.seed),
                spec,
                r.mismatches.iter().map(|m| format!("{m:?}")).collect(),
            ));
        }
    }

    // --- Shrink each failure and persist the minimal seed file.
    if !failing.is_empty() {
        std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    }
    for (name, spec, issues) in &failing {
        let minimal = shrink(spec, &|s| {
            !run_spec(s, &args.threads, &classify_blocks, None).clean()
        });
        let stem = name.replace('/', "-");
        let path = args.out_dir.join(format!("{stem}.json"));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&minimal).expect("spec serializes") + "\n",
        )
        .expect("write shrunk seed file");
        report.note(format!(
            "{name}: {} divergence(s), shrunk reproducer at {path:?}: {}",
            issues.len(),
            issues.first().map(String::as_str).unwrap_or("?")
        ));
    }

    report.info(
        "scenarios",
        reg.counter_value("conform.scenarios").unwrap_or(0),
    );
    report.info("blocks", reg.counter_value("conform.blocks").unwrap_or(0));
    report.info(
        "mismatches",
        reg.counter_value("conform.mismatches").unwrap_or(0),
    );
    report.info("failing_scenarios", failing.len());
    (report, failing.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ConformArgs, ParseOutcome> {
        ConformArgs::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn conform_flags_parse() {
        let a = parse(&[
            "--cases",
            "7",
            "--seed",
            "5",
            "--threads",
            "1, 4",
            "--corpus",
            "c",
            "--out-dir",
            "o",
            "--regen",
            "--json",
        ])
        .unwrap();
        assert_eq!(a.cases, 7);
        assert_eq!(a.seed, 5);
        assert_eq!(a.threads, vec![1, 4]);
        assert_eq!(a.corpus, PathBuf::from("c"));
        assert_eq!(a.out_dir, PathBuf::from("o"));
        assert!(a.regen);
        assert!(a.json);
    }

    #[test]
    fn conform_flags_reject_bad_threads() {
        assert!(matches!(
            parse(&["--threads", "1,x"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(parse(&["--help"]), Err(ParseOutcome::Help)));
    }

    #[test]
    fn small_campaign_runs_clean() {
        let dir = std::env::temp_dir().join(format!("conform-test-{}", std::process::id()));
        let args = ConformArgs {
            cases: 6,
            seed: 500,
            threads: vec![1, 2],
            corpus: dir.join("corpus"),
            out_dir: dir.join("failures"),
            regen: true,
            json: false,
        };
        let (_, failures) = run(&args);
        assert_eq!(failures, 0);
        // The regenerated corpus loads and re-checks clean.
        let check = ConformArgs {
            regen: false,
            cases: 0,
            ..args
        };
        let (_, failures) = run(&check);
        assert_eq!(failures, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
