//! Characterizes every workload in the suite — the validation companion to
//! the DESIGN.md §4 trace substitution: each synthetic benchmark must show
//! the footprint/skew/locality signature of its SPEC counterpart.
//!
//! Run: `cargo run --release -p mempod-bench --bin workload_atlas`

use mempod_bench::{Opts, TextTable};
use mempod_trace::TraceStats;

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(1_000_000);
    let geo = opts.system().geometry;
    println!("Workload atlas — {n} requests per workload at {geo}\n");

    let mut t = TextTable::new(&[
        "workload",
        "pages",
        "fp/HBM",
        "writes",
        "req/us",
        "top64 share",
        "top1% share",
        "same-page runs",
    ]);
    let mut json = serde_json::Map::new();
    for spec in opts.full_suite() {
        let trace = opts.trace(&spec, n);
        let s = TraceStats::analyze(&trace, &geo);
        t.row(vec![
            spec.name().to_string(),
            s.distinct_pages.to_string(),
            format!("{:.2}", s.footprint_vs_fast),
            format!("{:.2}", s.write_fraction),
            format!("{:.0}", s.rate_per_us),
            format!("{:.2}", s.top64_share),
            format!("{:.2}", s.top1pct_share),
            format!("{:.2}", s.same_page_run_fraction),
        ]);
        json.insert(
            spec.name().to_string(),
            serde_json::to_value(&s).expect("serializable"),
        );
    }
    println!("{}", t.render());
    println!("Signatures to check: libquantum fp/HBM < 1 (fits); bwaves/lbm/mcf >> 1;");
    println!("cactus/xalanc high top64 share; mcf low same-page runs (pointer chase).");

    opts.write_json("workload_atlas", &serde_json::Value::Object(json));
}
