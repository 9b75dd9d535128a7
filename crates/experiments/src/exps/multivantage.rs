//! Multi-vantage reprobing (paper Section 6.1).
//!
//! Some balancers hash the source address, so a single vantage can never
//! see the full last-hop set of a PoP that spreads per-(src,dst). The
//! paper notes that "probing /24s varying vantage points … can alleviate
//! this problem" but judges the cost high. Having a simulator, we can
//! measure the trade-off directly: how much does a second vantage improve
//! last-hop-set completeness and identical-set aggregation?

use crate::args::ExpArgs;
use crate::pipeline::{effective_threads, scenario_config, RunError};
use crate::report::Report;
use aggregate::{aggregate_identical, HomogBlock};
use hobbit::select_all;
use netsim::build::try_build;
use netsim::Addr;
use probe::{zmap, LasthopOutcome, LasthopWalker, MdaMode, Prober};

/// Blocks measured per vantage.
const SAMPLE_BLOCKS: usize = 250;

/// Observe a block's last-hop set from one vantage.
fn block_set(prober: &mut Prober<'_>, sel: &hobbit::SelectedBlock) -> Vec<Addr> {
    let mut set = Vec::new();
    for dst in sel.actives().into_iter().take(12) {
        let cold = LasthopWalker::new(MdaMode::Classic).probe(prober, dst);
        if let LasthopOutcome::Found { lasthops, .. } = cold.outcome {
            set.extend(lasthops);
        }
    }
    set.sort();
    set.dedup();
    set
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mut cfg = scenario_config(args);
    cfg.extra_vantages = 1;
    let mut scenario = try_build(cfg).unwrap_or_else(|e| RunError::from(e).exit());
    let snapshot = zmap::scan_all(
        &mut scenario.network,
        effective_threads(args.threads, usize::MAX),
    );
    let selected = select_all(&snapshot);
    let mut r = Report::new(
        "multivantage",
        "Does a second vantage complete source-hashed last-hop sets?",
    );

    let vantages = scenario.network.vantages();
    r.info("vantage points", vantages.len());

    let stride = (selected.len() / SAMPLE_BLOCKS).max(1);
    let sample: Vec<&hobbit::SelectedBlock> = selected
        .iter()
        .step_by(stride)
        .take(SAMPLE_BLOCKS)
        .collect();

    // Measure each sampled block from both vantages.
    let mut single: Vec<HomogBlock> = Vec::new();
    let mut merged: Vec<HomogBlock> = Vec::new();
    let mut grew = 0usize;
    let mut measured = 0usize;
    let mut probes = (0u64, 0u64);
    for sel in sample {
        let set_a = {
            let mut p = Prober::new(&scenario.network, 0xA0);
            let before = p.probes_sent();
            let s = block_set(&mut p, sel);
            probes.0 += p.probes_sent() - before;
            s
        };
        if set_a.is_empty() {
            continue;
        }
        let set_b = {
            let mut p = Prober::from_vantage(&scenario.network, 0xA1, vantages[1]);
            let before = p.probes_sent();
            let s = block_set(&mut p, sel);
            probes.1 += p.probes_sent() - before;
            s
        };
        measured += 1;
        let mut union = set_a.clone();
        union.extend(set_b.iter().copied());
        union.sort();
        union.dedup();
        if union.len() > set_a.len() {
            grew += 1;
        }
        single.push(HomogBlock::new(sel.block, set_a));
        merged.push(HomogBlock::new(sel.block, union));
    }

    r.info("blocks measured from both vantages", measured);
    r.row(
        "blocks whose last-hop set grew with vantage 2 (%)",
        "some (source-hashing balancers exist)",
        (1000.0 * grew as f64 / measured.max(1) as f64).round() / 10.0,
    );

    // Aggregation quality: union sets merge into fewer, larger aggregates.
    let aggs_single = aggregate_identical(&single);
    let aggs_merged = aggregate_identical(&merged);
    r.row(
        "identical-set aggregates (1 vantage → 2 vantages)",
        "fewer with more vantages",
        format!("{} → {}", aggs_single.len(), aggs_merged.len()),
    );
    r.row(
        "aggregation improves or holds",
        true,
        aggs_merged.len() <= aggs_single.len(),
    );
    r.info(
        "probe cost (vantage 1 / vantage 2)",
        format!("{} / {}", probes.0, probes.1),
    );
    r.note("the paper rejects this as 'very heavy' measurement load and uses MCL instead — this experiment quantifies what that choice gives up");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multivantage_runs() {
        let args = ExpArgs {
            scale: 0.012,
            threads: 2,
            ..Default::default()
        };
        run(&args).print(false);
    }
}
