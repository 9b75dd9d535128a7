//! Figure 6: cellular vs datacenter RTT signatures of the big broadband
//! blocks.
//!
//! For each "Broadband"-typed Table 5 block the paper sent 20 pings to the
//! actives of 200 sampled /24s and plotted `firstRTT − max(restRTTs)`:
//! Tele2, OCN (and the Verizon Wireless reference) show ~50% of deltas
//! above 0.5s (radio wake-up → cellular); SingTel and SoftBank sit at ~0
//! (datacenters).

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;
use analysis::{ascii_cdf, block_ping_deltas, looks_cellular, Ecdf};
use obs::SpanTimer;
use probe::{ProbeObs, Prober};
use registry::Registry;
use serde_json::json;

/// Orgs the paper examines in Figure 6, with their expected verdict.
pub const EXPECTED: [(&str, bool); 5] = [
    ("Tele2", true),
    ("OCN", true),
    ("Verizon Wireless", true),
    ("SingTel", false),
    ("SoftBank", false),
];

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mut p = pipeline::Pipeline::builder().args(args).run();
    let registry = Registry::new(&p.scenario.truth, p.seed);
    let mut r = Report::new("figure6", "First-ping delay signatures of big blocks");

    let aggs = p.aggregates();
    // A fresh measurement campaign: cellular radios have gone idle since
    // the classification probing, so first pings pay the wake-up delay.
    let ping_epoch = p.scenario.network.epoch() + 1;
    p.scenario.network.set_epoch(ping_epoch);
    let snapshot = p.snapshot.clone();
    let actives = move |b: netsim::Block24| snapshot.active_in(b).to_vec();

    let mut series = Vec::new();
    let mut curves: Vec<(String, Ecdf)> = Vec::new();
    let mut verdicts_ok = 0usize;
    let mut verdicts = 0usize;
    let ping_span = SpanTimer::start(p.recorder(), "ping");
    for (org, expect_cellular) in EXPECTED {
        // The org's largest measured aggregate.
        let agg = aggs.iter().find(|a| {
            registry
                .geo
                .lookup_block(a.blocks[0])
                .map(|g| g.org == org)
                .unwrap_or(false)
        });
        let Some(agg) = agg else {
            series.push(json!({"org": org, "status": "no aggregate at this scale"}));
            continue;
        };
        let mut prober = Prober::new(&p.scenario.network, 0xF6);
        prober.set_obs(ProbeObs::bind(p.recorder(), "ping"));
        let deltas = block_ping_deltas(
            &mut prober,
            &agg.blocks,
            &actives,
            20, // sampled /24s (paper: 200)
            6,  // addresses per /24
            20, // pings per address (paper: 20)
            p.seed,
        );
        let e = Ecdf::new(deltas.clone());
        let over_half = 1.0 - e.eval(0.5);
        let over_one = 1.0 - e.eval(1.0);
        let cellular = looks_cellular(&deltas);
        verdicts += 1;
        if cellular == expect_cellular {
            verdicts_ok += 1;
        }
        series.push(json!({
            "org": org,
            "block_size_24s": agg.size(),
            "addresses": e.len(),
            "frac_delta_gt_0.5s": (over_half * 1000.0).round() / 1000.0,
            "frac_delta_ge_1s": (over_one * 1000.0).round() / 1000.0,
            "median_delta_s": e.quantile(0.5),
            "verdict_cellular": cellular,
            "paper_verdict_cellular": expect_cellular,
        }));
        curves.push((org.to_string(), e));
    }
    drop(ping_span);
    // The figure itself: CDFs of firstRTT − max(restRTTs) per block.
    let refs: Vec<(&str, &Ecdf)> = curves.iter().map(|(n, e)| (n.as_str(), e)).collect();
    r.info(
        "figure 6 CDF (x = first RTT − max rest RTTs, seconds)",
        format!("\n{}", ascii_cdf(&refs, 56, 12)),
    );
    r.series("per-block first-ping deltas", series);
    r.row(
        "verdicts agreeing with the paper",
        format!("{}/{}", EXPECTED.len(), EXPECTED.len()),
        format!("{verdicts_ok}/{verdicts}"),
    );
    r.note("paper: cellular blocks have ~50% of deltas > 0.5s and ≥10% ≥ 1s");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_runs() {
        let args = ExpArgs {
            scale: 0.02,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
