//! Regenerates **Figure 1**: MEA *counting* accuracy vs Full Counters on the
//! top three tiers (ranks 1–10, 11–20, 21–30) of the past interval.
//!
//! The paper's §3 offline study: 5500-request intervals, 128 MEA counters;
//! FC counts the past perfectly, so only MEA's identification fraction is
//! plotted.
//!
//! Run: `cargo run --release -p mempod-bench --bin fig1_mea_counting`

use mempod_bench::{group_means, Opts, TextTable};
use mempod_tracker::{prediction_study, AccuracyReport};

/// The paper's §3 study parameters.
const INTERVAL: usize = 5500;
const MEA_ENTRIES: usize = 128;
const MEA_BITS: u32 = 16;

fn avg_row(label: &str, subset: &[(String, AccuracyReport)]) -> Vec<String> {
    let mut row = vec![label.to_string()];
    for tier in 0..3 {
        let (_, _, all) = group_means(subset, |r| r.mea_counting.fraction(tier).max(1e-6));
        row.push(format!("{all:.3}"));
    }
    row
}

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    println!("Figure 1 — MEA counting accuracy (vs FC's perfect 1.0), {n} requests/workload\n");

    let mut results: Vec<(String, AccuracyReport)> = Vec::new();
    let mut t = TextTable::new(&["workload", "ranks 1-10", "ranks 11-20", "ranks 21-30"]);
    for spec in opts.full_suite() {
        let trace = opts.trace(&spec, n);
        let report = prediction_study(&trace.page_stream(), INTERVAL, MEA_ENTRIES, MEA_BITS);
        t.row(vec![
            spec.name().to_string(),
            format!("{:.3}", report.mea_counting.fraction(0)),
            format!("{:.3}", report.mea_counting.fraction(1)),
            format!("{:.3}", report.mea_counting.fraction(2)),
        ]);
        results.push((spec.name().to_string(), report));
    }
    for (label, is_mix) in [("AVG HG", false), ("AVG MIX", true)] {
        let subset: Vec<(String, AccuracyReport)> = results
            .iter()
            .filter(|(name, _)| name.starts_with("mix") == is_mix)
            .cloned()
            .collect();
        t.row(avg_row(label, &subset));
    }
    t.row(avg_row("AVG ALL", &results));
    println!("{}", t.render());
    println!("Paper: MEA identifies below ~55% of top-tier pages on average —");
    println!("a poor *counter*, which makes its prediction win (Fig. 2) notable.");

    let json: serde_json::Value = results
        .iter()
        .map(|(w, r)| (w.clone(), serde_json::to_value(r).expect("serializable")))
        .collect::<serde_json::Map<_, _>>()
        .into();
    opts.write_json("fig1_mea_counting", &json);
}
