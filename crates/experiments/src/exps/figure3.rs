//! Figure 3: cardinality and probing-depth CDFs.
//!
//! (a) Undetected homogeneous /24s skew to higher cardinality than
//! detected ones; (b) cardinality shrinks as the metric narrows from
//! entire traceroute → sub-path → last-hop (which is why Hobbit uses
//! last-hops); (c) undetected blocks also had fewer probed addresses.

use crate::args::ExpArgs;
use crate::pipeline;
use crate::report::Report;
use analysis::{ascii_cdf, Ecdf};
use hobbit::{select_block, survey_block};
use obs::SpanTimer;
use probe::{ProbeObs, Prober};
use serde_json::json;

/// Blocks surveyed with full traceroutes.
const SAMPLE_BLOCKS: usize = 60;

fn quartiles(e: &Ecdf) -> serde_json::Value {
    json!({
        "n": e.len(),
        "p25": e.quantile(0.25),
        "p50": e.quantile(0.5),
        "p75": e.quantile(0.75),
        "p95": e.quantile(0.95),
    })
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let p = pipeline::Pipeline::builder().args(args).run();
    let mut r = Report::new("figure3", "Cardinality and probed-address CDFs");

    // Ground-truth homogeneous blocks among the analyzable measurements,
    // split into detected (classified homogeneous) and undetected
    // (classified hierarchical despite being homogeneous).
    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    for m in &p.measurements {
        if !p.scenario.truth.is_homogeneous(m.block) || !m.classification.is_analyzable() {
            continue;
        }
        if m.classification.is_homogeneous() {
            detected.push(m.clone());
        } else {
            undetected.push(m.clone());
        }
    }

    // --- (c): probed addresses, detected vs undetected.
    let probed_detected = Ecdf::new(detected.iter().map(|m| m.dests_probed as f64).collect());
    let probed_undetected = Ecdf::new(undetected.iter().map(|m| m.dests_probed as f64).collect());
    r.series(
        "fig3c probed addresses, detected (quartiles)",
        quartiles(&probed_detected),
    );
    r.series(
        "fig3c probed addresses, undetected (quartiles)",
        quartiles(&probed_undetected),
    );

    // --- (a) + (b): survey a sample with full paths.
    let mut card_detected = Vec::new();
    let mut card_undetected = Vec::new();
    let (mut lasthop_c, mut subpath_c, mut path_c) = (Vec::new(), Vec::new(), Vec::new());
    {
        let _s = SpanTimer::start(p.recorder(), "survey");
        let mut prober = Prober::new(&p.scenario.network, 0xF16);
        prober.set_obs(ProbeObs::bind(p.recorder(), "survey"));
        let half = SAMPLE_BLOCKS / 2;
        let sample = detected
            .iter()
            .step_by((detected.len() / half).max(1))
            .take(half)
            .map(|m| (m.block, true))
            .chain(undetected.iter().take(half).map(|m| (m.block, false)));
        for (block, was_detected) in sample {
            let Ok(sel) = select_block(&p.snapshot, block) else {
                continue;
            };
            let s = survey_block(&mut prober, &sel, true);
            if s.per_addr_paths.len() < 4 {
                continue;
            }
            let pc = s.path_cardinality() as f64;
            if was_detected {
                card_detected.push(pc);
            } else {
                card_undetected.push(pc);
            }
            lasthop_c.push(s.lasthop_cardinality() as f64);
            subpath_c.push(s.subpath_cardinality() as f64);
            path_c.push(pc);
        }
    }
    let e_det = Ecdf::new(card_detected);
    let e_und = Ecdf::new(card_undetected);
    r.series(
        "fig3a traceroute cardinality, detected (quartiles)",
        quartiles(&e_det),
    );
    r.series(
        "fig3a traceroute cardinality, undetected (quartiles)",
        quartiles(&e_und),
    );
    if let (Some(d), Some(u)) = (e_det.quantile(0.5), e_und.quantile(0.5)) {
        r.row(
            "undetected blocks have higher median cardinality",
            true,
            u >= d,
        );
    }

    let e_lh = Ecdf::new(lasthop_c);
    let e_sp = Ecdf::new(subpath_c);
    let e_ep = Ecdf::new(path_c);
    r.series(
        "fig3b cardinality by metric: last-hop (quartiles)",
        quartiles(&e_lh),
    );
    r.series(
        "fig3b cardinality by metric: sub-path (quartiles)",
        quartiles(&e_sp),
    );
    r.series(
        "fig3b cardinality by metric: entire path (quartiles)",
        quartiles(&e_ep),
    );
    r.info(
        "figure 3b CDF (x = cardinality)",
        format!(
            "\n{}",
            ascii_cdf(
                &[
                    ("last-hop", &e_lh),
                    ("sub-path", &e_sp),
                    ("entire path", &e_ep)
                ],
                56,
                12
            )
        ),
    );
    if let (Some(lh), Some(ep)) = (e_lh.quantile(0.5), e_ep.quantile(0.5)) {
        r.row(
            "last-hop cardinality ≪ entire-path cardinality (medians)",
            true,
            lh < ep,
        );
    }
    if let (Some(u), Some(d)) = (
        probed_undetected.quantile(0.5),
        probed_detected.quantile(0.5),
    ) {
        r.info(
            "fig3c median probed: detected vs undetected",
            format!("{d} vs {u}"),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_runs() {
        let args = ExpArgs {
            scale: 0.015,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
