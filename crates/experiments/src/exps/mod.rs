//! One module per paper artifact, each with a `run(&ExpArgs) -> Report`,
//! and the [`EXPERIMENTS`] table the `hobbit` binary dispatches through.

pub mod conform;
pub mod figure10;
pub mod figure11;
pub mod figure12;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod hobbit_map;
pub mod longitudinal;
pub mod loss_sweep;
pub mod multivantage;
pub mod scenario_info;
pub mod section2;
pub mod section31;
pub mod shard;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::args::{usage_outcome, ExpArgs, USAGE};
use crate::report::Report;
use obs::Registry;
use std::io::Write;
use std::sync::Arc;

/// One `hobbit` subcommand.
pub struct Experiment {
    /// Subcommand name; also the stem of its `docs/results` file.
    pub name: &'static str,
    /// The flags it acts on besides `--seed`, `--scale` and `--json`,
    /// which every experiment reads. Any other flag is refused.
    pub honours: &'static [&'static str],
    /// The experiment.
    pub run: fn(&ExpArgs) -> Report,
    /// One line for `hobbit --help`.
    pub about: &'static str,
}

/// Every flag of the shared pipeline: an experiment that runs it once
/// with the given arguments acts on all of them.
const PIPELINE: &[&str] = &[
    "--threads",
    "--faults",
    "--metrics",
    "--trace-spans",
    "--run-dir",
    "--resume",
    "--deadline",
    "--mda-lite",
    "--dynamics",
    "--storage-chaos",
];

/// An experiment that builds and probes its own world, without the
/// pipeline.
const OWN_WORLD: &[&str] = &["--threads"];

/// `loss_sweep` sets its own faults per run and runs five pipelines, which
/// would share one journal and sum five runs into one metrics document and
/// one span tree.
const LOSS_SWEEP: &[&str] = &["--threads", "--deadline", "--mda-lite", "--dynamics"];

/// `shard` copies its settings into leases, which carry no metrics file,
/// span tree or deadline, and it resumes by being re-run. Only it acts
/// on the two shard flags.
const SHARD: &[&str] = &[
    "--threads",
    "--faults",
    "--run-dir",
    "--mda-lite",
    "--dynamics",
    "--storage-chaos",
    "--shards",
    "--shard",
];

const fn exp(
    name: &'static str,
    honours: &'static [&'static str],
    run: fn(&ExpArgs) -> Report,
    about: &'static str,
) -> Experiment {
    Experiment {
        name,
        honours,
        run,
        about,
    }
}

/// Every experiment, in `hobbit --help` order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", PIPELINE, table1::run, "Table 1: homogeneity classification of /24 blocks"),
    exp("table2", PIPELINE, table2::run, "Table 2: composition of heterogeneous /24 blocks"),
    exp("table3", PIPELINE, table3::run, "Table 3: top ASes holding heterogeneous /24 blocks"),
    exp("table4", PIPELINE, table4::run, "Table 4: WHOIS records of a split /24"),
    exp("table5", PIPELINE, table5::run, "Table 5: top 15 largest homogeneous blocks"),
    exp("figure3", PIPELINE, figure3::run, "Figure 3: cardinality and probed-address CDFs"),
    exp("figure4", PIPELINE, figure4::run, "Figure 4: detection confidence per <cardinality, #probed>"),
    exp("figure5", PIPELINE, figure5::run, "Figure 5: aggregated homogeneous block sizes"),
    exp("figure6", PIPELINE, figure6::run, "Figure 6: first-ping delay signatures of big blocks"),
    exp("figure7", PIPELINE, figure7::run, "Figure 7: LCP distributions within aggregates"),
    exp("figure8", PIPELINE, figure8::run, "Figure 8: adjacency visualization of the top 9 blocks"),
    exp("figure9", PIPELINE, figure9::run, "Figure 9: identical-pair ratios, rule-matched vs rest"),
    exp("figure10", PIPELINE, figure10::run, "Figure 10: cluster-size distribution change from MCL"),
    exp("figure11", PIPELINE, figure11::run, "Figure 11: discovered-link ratio, Hobbit blocks vs /24s"),
    exp("figure12", PIPELINE, figure12::run, "Figure 12: stratified vs random sampling (rDNS patterns)"),
    exp("section2", OWN_WORLD, section2::run, "Section 2: straw-man route comparison, per-destination LB"),
    exp("section31", PIPELINE, section31::run, "Section 3.1: last-hop routers vs entire traceroutes"),
    exp("hobbit_map", PIPELINE, hobbit_map::run, "the Hobbit-blocks dataset (writes hobbit-blocks.txt/json)"),
    exp("multivantage", OWN_WORLD, multivantage::run, "Section 6.1: does a second vantage complete last-hop sets?"),
    exp("longitudinal", OWN_WORLD, longitudinal::run, "homogeneity stability across epochs"),
    exp("loss_sweep", LOSS_SWEEP, loss_sweep::run, "verdict stability under packet loss + ICMP rate limiting"),
    exp("summary", PIPELINE, summary::run, "pipeline digest of every headline statistic"),
    exp("scenario_info", &[], scenario_info::run, "scenario ground truth and fabric, no probing"),
    exp("shard", SHARD, shard::run, "one run split over worker processes, merged into DIR/report.json"),
];

/// The differential conformance campaign: not in [`EXPERIMENTS`] because
/// it takes its own flags ([`conform::ConformArgs`]) and exits 1 on a
/// divergence.
const CONFORM: &str = "conform";

/// The first flag among `tokens` that `exp` does not act on. Every flag
/// value but a metrics file or run dir is numeric, so a value reads as a
/// refused flag only when such a path is named like a flag.
fn refused_flag<'t>(exp: &Experiment, tokens: &'t [String]) -> Option<&'t str> {
    let refused =
        |t: &&str| (PIPELINE.contains(t) || SHARD.contains(t)) && !exp.honours.contains(t);
    tokens.iter().map(String::as_str).find(refused)
}

/// The `hobbit --help` text: usage and one line per experiment.
fn listing() -> String {
    let mut s = String::from(
        "usage: hobbit <experiment> [flags]  (hobbit <experiment> --help for its flags)\n\n\
         experiments:\n",
    );
    for e in EXPERIMENTS {
        s += &format!("  {:<15}{}\n", e.name, e.about);
    }
    s += &format!("  {CONFORM:<15}differential conformance: engine vs reference oracle");
    s
}

/// Print the span tree (`--trace-spans`) to `err` and write the metrics
/// document (`--metrics`) of a run that reported into `reg`.
fn export(reg: &Registry, args: &ExpArgs, err: &mut dyn Write) {
    if args.trace_spans {
        let _ = err.write_all(reg.render_span_tree().as_bytes());
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, reg.export_pretty()) {
            let _ = writeln!(err, "warning: could not write metrics to {path}: {e}");
        }
    }
}

/// Run `hobbit <experiment> [flags]`. `tokens` are the arguments after
/// the program name; the report goes to stdout, help, errors and the
/// `--trace-spans` tree to `err`. `--metrics` and `--trace-spans` give the
/// experiment a registry ([`ExpArgs::obs`]) that every phase reports into,
/// and both are exported once, after the experiment's last probe.
/// Returns the exit code: 0, 1 when `conform` finds a divergence, or 2
/// for a missing or unknown experiment, a bad flag, or a flag the
/// experiment does not act on.
pub fn dispatch(tokens: impl IntoIterator<Item = String>, err: &mut dyn Write) -> u8 {
    let mut tokens = tokens.into_iter();
    let name = tokens.next().unwrap_or_default();
    if name == "--help" || name == "-h" {
        let _ = writeln!(err, "{}", listing());
        return 0;
    }
    if name == CONFORM {
        let parsed = conform::ConformArgs::parse_from(tokens);
        let args = match usage_outcome(parsed, conform::USAGE, err) {
            Ok(args) => args,
            Err(code) => return code,
        };
        let (report, failures) = conform::run(&args);
        report.print(args.json);
        return u8::from(failures > 0);
    }
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let what = if name.is_empty() {
            "missing experiment name".to_string()
        } else {
            format!("unknown experiment {name:?}")
        };
        let _ = writeln!(err, "{what}\n{}", listing());
        return 2;
    };
    let usage = format!(
        "hobbit {0}: {1}\n{USAGE}\n{0} acts on --seed, --scale, --json{2}",
        exp.name,
        exp.about,
        exp.honours
            .iter()
            .map(|f| format!(", {f}"))
            .collect::<String>()
    );
    let tokens: Vec<String> = tokens.collect();
    let parsed = ExpArgs::parse_from(tokens.clone()).and_then(|args| {
        if name == "shard" {
            shard::check_role(&args)?;
        }
        Ok(args)
    });
    let mut args = match usage_outcome(parsed, &usage, err) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if let Some(flag) = refused_flag(exp, &tokens) {
        let _ = writeln!(
            err,
            "{flag} has no effect on {name}; try hobbit {name} --help"
        );
        return 2;
    }
    if args.metrics.is_some() || args.trace_spans {
        args.obs = Some(Arc::default());
    }
    let report = (exp.run)(&args);
    if let Some(reg) = &args.obs {
        export(reg, &args, err);
    }
    report.print(args.json);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parsed (so the flags are real and well formed) and refused-flag
    /// checked.
    fn refused(name: &str, tokens: &[&str]) -> Option<String> {
        let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        ExpArgs::parse_from(tokens.clone()).unwrap();
        refused_flag(find(name), &tokens).map(str::to_string)
    }

    fn find(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    /// Exit code and error text of `hobbit tokens…`.
    fn hobbit(tokens: &[&str]) -> (u8, String) {
        let mut err = Vec::new();
        let code = dispatch(tokens.iter().map(|s| s.to_string()), &mut err);
        (code, String::from_utf8(err).unwrap())
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.push(CONFORM);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn every_recorded_result_is_a_table_name() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let name = stem.strip_suffix("_full").unwrap_or(stem);
            assert!(
                EXPERIMENTS.iter().any(|e| e.name == name),
                "{path:?} names no experiment"
            );
            seen += 1;
        }
        assert!(seen > 0, "no recorded results in {dir:?}");
    }

    #[test]
    fn missing_or_unknown_name_exits_2_and_lists_the_names() {
        for tokens in [&[][..], &["tabel1"], &["--seed", "7"]] {
            let (code, err) = hobbit(tokens);
            assert_eq!(code, 2, "{tokens:?}");
            for e in EXPERIMENTS {
                assert!(err.contains(e.name), "{tokens:?}: {err}");
            }
            assert!(err.contains(CONFORM), "{err}");
        }
        assert!(hobbit(&[]).1.starts_with("missing experiment name"));
        assert!(hobbit(&["tabel1"])
            .1
            .starts_with("unknown experiment \"tabel1\""));
    }

    #[test]
    fn help_lists_the_names_and_exits_0() {
        let (code, err) = hobbit(&["--help"]);
        assert_eq!(code, 0);
        for e in EXPERIMENTS {
            assert!(err.contains(e.about), "{err}");
        }
        let (code, err) = hobbit(&["section2", "--help"]);
        assert_eq!(code, 0);
        assert!(err.contains("section2 acts on --seed, --scale, --json, --threads\n"));
    }

    #[test]
    fn bad_flags_exit_2_before_running() {
        assert_eq!(hobbit(&["table1", "--bogus"]).0, 2);
        assert_eq!(hobbit(&["conform", "--threads", "0"]).0, 2);
    }

    #[test]
    fn ignored_flags_are_refused_by_name() {
        for (tokens, flag) in [
            (&["section2", "--faults", "0.02,0.5"][..], "--faults"),
            (&["section2", "--metrics", "m.json"], "--metrics"),
            (&["multivantage", "--mda-lite"], "--mda-lite"),
            (&["longitudinal", "--run-dir", "d"], "--run-dir"),
            (&["scenario_info", "--threads", "2"], "--threads"),
            (&["loss_sweep", "--faults", "0.02,0.5"], "--faults"),
            (&["loss_sweep", "--run-dir", "d"], "--run-dir"),
            (&["loss_sweep", "--run-dir", "d", "--resume"], "--run-dir"),
            (&["loss_sweep", "--metrics", "m.json"], "--metrics"),
            (&["loss_sweep", "--trace-spans"], "--trace-spans"),
            (&["table1", "--shards", "2", "--run-dir", "d"], "--shards"),
        ] {
            let (code, err) = hobbit(tokens);
            assert_eq!(code, 2, "{tokens:?}");
            assert_eq!(
                err.trim_end(),
                format!(
                    "{flag} has no effect on {0}; try hobbit {0} --help",
                    tokens[0]
                )
            );
        }
    }

    #[test]
    fn honoured_flags_are_accepted() {
        let every = [
            "--seed",
            "7",
            "--scale",
            "0.5",
            "--json",
            "--threads",
            "2",
            "--faults",
            "0.02,0.5",
            "--metrics",
            "m.json",
            "--trace-spans",
            "--run-dir",
            "d",
            "--resume",
            "--deadline",
            "5",
            "--mda-lite",
            "--dynamics",
            "0.3",
            "--storage-chaos",
            "7",
        ];
        for name in ["table1", "figure9", "hobbit_map", "summary"] {
            assert_eq!(refused(name, &every), None, "{name}");
        }
        let own = ["--seed", "7", "--scale", "0.5", "--json", "--threads", "2"];
        for name in ["section2", "multivantage", "longitudinal"] {
            assert_eq!(refused(name, &own), None, "{name}");
        }
        let sweep = [
            "--threads",
            "2",
            "--deadline",
            "5",
            "--mda-lite",
            "--dynamics",
            "0.3",
        ];
        assert_eq!(refused("loss_sweep", &sweep), None);
        let shard = [
            "--seed",
            "7",
            "--scale",
            "0.5",
            "--json",
            "--threads",
            "2",
            "--faults",
            "0.02,0.5",
            "--run-dir",
            "d",
            "--mda-lite",
            "--dynamics",
            "0.3",
            "--storage-chaos",
            "7",
            "--shards",
            "2",
            "--shard",
            "0",
        ];
        assert_eq!(refused("shard", &shard), None);
        let plain = ["--seed", "7", "--scale", "0.5", "--json"];
        assert_eq!(refused("scenario_info", &plain), None);
    }
}
