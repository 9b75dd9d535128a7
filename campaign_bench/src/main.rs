//! End-to-end Hobbit campaign benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload survey --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Each campaign builds the workload's world from `--seed`, runs the real
//! pipeline over it, then the post-pipeline calls `hobbit_map` makes, and
//! checks the outputs. `--trace 0` repeats campaigns for `--seconds` and
//! reports the end-to-end metrics as medians; `--trace 1` adds one traced
//! campaign and reports the per-layer breakdown. The last line of stdout
//! is one JSON object; the exit code is non-zero when an output check
//! fails. README.md holds the rationale and the recorded trajectory.

mod campaign;
mod host;
mod layers;
mod ramvfs;
mod stats;

#[cfg(test)]
mod selftest;

use campaign::{Campaign, Workload};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// World scale of every workload: about 9,600 selected /24s at seed 42.
const SCALE: f64 = 0.25;

/// World builds timed for `setup_s` before the first campaign; each
/// campaign's own builds add to these samples.
const SETUP_BUILDS: usize = 9;

/// Fewest untraced campaigns a `--trace 0` run measures, however long
/// they take, so every median has at least this many samples.
const MIN_CAMPAIGNS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    campaign::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured, before it is printed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Count a campaign's operations; a campaign whose output check failed
    /// counts all of its operations as failed.
    fn add(&mut self, c: &Campaign) {
        self.attempted += c.selected;
        if c.problems.is_empty() {
            self.failed += c.failed;
        } else {
            self.failed += c.selected;
            self.problems.extend(c.problems.iter().cloned());
        }
    }

    /// A campaign that could not finish counts as one failed operation.
    fn error(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(e);
    }
}

/// The end-to-end figures of one untraced campaign.
struct Sample {
    campaign_s: f64,
    blocks_per_s: f64,
    probes_per_block: f64,
    analyzable_share: f64,
}

/// The untraced campaigns of a run. Only the first is kept whole: holding
/// every campaign's outputs would grow the heap with the campaign count.
struct Untraced {
    setup_s: Vec<f64>,
    samples: Vec<Sample>,
    first: Option<Campaign>,
    /// Peak resident memory of the first campaign, its world and its
    /// output checks.
    peak_rss_mb: f64,
}

/// Untraced campaigns, started until `seconds` have passed and at least
/// `min_campaigns` have run.
fn run_untraced(args: &Args, seconds: f64, min_campaigns: usize, tally: &mut Tally) -> Untraced {
    let w = args.workload;
    let start = Instant::now();
    let mut u = Untraced {
        setup_s: (0..SETUP_BUILDS)
            .map(|_| w.build_worlds(args.seed, SCALE).1)
            .collect(),
        samples: Vec::new(),
        first: None,
        peak_rss_mb: f64::NAN,
    };
    if let Err(e) = host::reset_peak_rss() {
        eprintln!("warning: cannot reset the peak-RSS mark ({e}); peak_rss_mb covers the process");
    }
    loop {
        let (worlds, s) = w.build_worlds(args.seed, SCALE);
        u.setup_s.push(s);
        let cpu0 = host::cpu_s();
        let c = match campaign::run(w, worlds, SCALE, false) {
            Ok(c) => c,
            Err(e) => {
                tally.error(e);
                break;
            }
        };
        eprintln!(
            "campaign {}: setup_s={s:.4} campaign_s={:.4} cpu_s={:.2} loadavg={}",
            u.samples.len(),
            c.campaign_s,
            host::cpu_since(cpu0),
            host::loadavg()
        );
        tally.add(&c);
        u.samples.push(Sample {
            campaign_s: c.campaign_s,
            blocks_per_s: c.selected as f64 / c.campaign_s,
            probes_per_block: c.probes_per_block(),
            analyzable_share: c.analyzable_share(),
        });
        if u.first.is_none() {
            u.peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
            u.first = Some(c);
        }
        if start.elapsed().as_secs_f64() >= seconds && u.samples.len() >= min_campaigns {
            break;
        }
    }
    u
}

impl Untraced {
    fn median_of(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

fn end_to_end(u: &Untraced) -> Vec<layers::Metric> {
    let m = |name, unit, value| layers::Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&u.setup_s)),
        m("campaign_s", "s", u.median_of(|s| s.campaign_s)),
        m("blocks_per_s", "1/s", u.median_of(|s| s.blocks_per_s)),
        m(
            "probes_per_block",
            "probes/block",
            u.median_of(|s| s.probes_per_block),
        ),
        m(
            "analyzable_share",
            "share",
            u.median_of(|s| s.analyzable_share),
        ),
        m("peak_rss_mb", "MB", u.peak_rss_mb),
    ]
}

/// The traced half of a `--trace 1` run: untraced campaigns for half the
/// time (the overhead baseline and the reference outputs), then one traced
/// campaign whose report and probe count must match the untraced one.
fn run_traced(args: &Args, tally: &mut Tally, nproc: usize) -> Vec<layers::Metric> {
    let w = args.workload;
    let untraced = run_untraced(args, args.seconds as f64 / 2.0, 1, tally);
    let Some(reference) = &untraced.first else {
        return Vec::new();
    };
    let baseline_s = untraced.median_of(|s| s.campaign_s);
    let (worlds, _) = w.build_worlds(args.seed, SCALE);
    let cpu0 = host::cpu_s();
    let traced = match campaign::run(w, worlds, SCALE, true) {
        Ok(c) => c,
        Err(e) => {
            tally.error(e);
            return Vec::new();
        }
    };
    let cpu_s = host::cpu_since(cpu0);
    tally.add(&traced);
    if traced.report != reference.report {
        tally
            .problems
            .push("traced and untraced canonical reports differ".into());
        tally.failed += traced.selected;
    }
    // A resumed campaign re-measures the blocks in flight at the kill,
    // which the scheduler picks, so only its report must repeat.
    if !w.resume && traced.method_probes != reference.method_probes {
        tally.problems.push(format!(
            "traced campaign sent {} method probes, untraced {}",
            traced.method_probes, reference.method_probes
        ));
        tally.failed += traced.selected;
    }
    layers::collect(w, &traced, baseline_s, cpu_s, nproc)
}

/// Format the result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
fn result_line(tally: &Tally, metrics: &[layers::Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed.min(tally.attempted.max(1)),
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: campaign-bench --workload <{}> --seed N --seconds S --trace 0|1",
                campaign::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = host::nproc();
    if w.threads > nproc {
        eprintln!(
            "error: workload {} needs {} worker threads but only {nproc} cores are available",
            w.name, w.threads
        );
        return ExitCode::from(2);
    }
    println!(
        "# workload={} seed={} scale={SCALE} threads={} nproc={nproc} loadavg={}",
        w.name,
        args.seed,
        w.threads,
        host::loadavg()
    );

    let mut tally = Tally::default();
    let metrics = if args.trace {
        run_traced(&args, &mut tally, nproc)
    } else {
        let u = run_untraced(&args, args.seconds as f64, MIN_CAMPAIGNS, &mut tally);
        if u.samples.is_empty() {
            Vec::new()
        } else {
            end_to_end(&u)
        }
    };
    for p in &tally.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
