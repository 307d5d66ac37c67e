//! Regenerates **Figure 2**: MEA vs Full-Counters *prediction* accuracy —
//! hits on the next interval's top three tiers.
//!
//! Both trackers observe an interval and "predict" hot pages for the next
//! one; FC contributes its top-N where N is MEA's prediction count, so the
//! comparison is size-fair (paper §3).
//!
//! Run: `cargo run --release -p mempod-bench --bin fig2_mea_prediction`

use mempod_bench::{group_means, Opts, TextTable};
use mempod_tracker::{prediction_study, AccuracyReport};

const INTERVAL: usize = 5500;
const MEA_ENTRIES: usize = 128;
const MEA_BITS: u32 = 16;

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    println!("Figure 2 — future-hit prediction accuracy, MEA vs FC, {n} requests/workload\n");

    let mut results: Vec<(String, AccuracyReport)> = Vec::new();
    let mut t = TextTable::new(&[
        "workload",
        "MEA 1-10",
        "FC 1-10",
        "MEA 11-20",
        "FC 11-20",
        "MEA 21-30",
        "FC 21-30",
    ]);
    for spec in opts.full_suite() {
        let trace = opts.trace(&spec, n);
        let r = prediction_study(&trace.page_stream(), INTERVAL, MEA_ENTRIES, MEA_BITS);
        t.row(vec![
            spec.name().to_string(),
            format!("{:.3}", r.mea_prediction.fraction(0)),
            format!("{:.3}", r.fc_prediction.fraction(0)),
            format!("{:.3}", r.mea_prediction.fraction(1)),
            format!("{:.3}", r.fc_prediction.fraction(1)),
            format!("{:.3}", r.mea_prediction.fraction(2)),
            format!("{:.3}", r.fc_prediction.fraction(2)),
        ]);
        results.push((spec.name().to_string(), r));
    }
    println!("{}", t.render());

    println!("MEA-over-FC advantage per tier (ratio of total hits, all workloads):");
    for tier in 0..3 {
        let mea: u64 = results
            .iter()
            .map(|(_, r)| r.mea_prediction.hits[tier])
            .sum();
        let fc: u64 = results
            .iter()
            .map(|(_, r)| r.fc_prediction.hits[tier])
            .sum();
        println!(
            "  tier {}: MEA {} vs FC {} hits  ({:+.0}%)",
            tier + 1,
            mea,
            fc,
            if fc > 0 {
                (mea as f64 / fc as f64 - 1.0) * 100.0
            } else {
                f64::INFINITY
            }
        );
    }
    println!("(paper: MEA ahead by 16% / 81% / 68% on the three tiers)");

    let (hg, mix, all) = group_means(&results, |r| {
        (r.mea_prediction.fraction(0) + 1e-6) / (r.fc_prediction.fraction(0) + 1e-6)
    });
    println!("tier-1 MEA/FC geometric mean: HG {hg:.2}, MIX {mix:.2}, ALL {all:.2}");

    let json: serde_json::Value = results
        .iter()
        .map(|(w, r)| (w.clone(), serde_json::to_value(r).expect("serializable")))
        .collect::<serde_json::Map<_, _>>()
        .into();
    opts.write_json("fig2_mea_prediction", &json);
}
