//! Regenerates **Figure 3**: per-workload prediction detail for the paper's
//! "most interesting" cases — cactus (FC's one win), xalanc and mix9
//! (representative MEA wins), bwaves/libquantum (streams: both near zero,
//! MEA nonzero), and lbm (FC fails entirely, MEA scores via recency).
//!
//! Run: `cargo run --release -p mempod-bench --bin fig3_prediction_detail`

use mempod_bench::{Opts, TextTable};
use mempod_tracker::prediction_study;

const INTERVAL: usize = 5500;
const MEA_ENTRIES: usize = 128;
const MEA_BITS: u32 = 16;

const DETAIL: &[&str] = &["cactus", "xalanc", "mix9", "bwaves", "libquantum", "lbm"];

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    println!("Figure 3 — prediction detail (total future hits per tier), {n} requests/workload\n");

    let mut t = TextTable::new(&[
        "workload",
        "MEA 1-10",
        "FC 1-10",
        "MEA 11-20",
        "FC 11-20",
        "MEA 21-30",
        "FC 21-30",
    ]);
    let mut json = serde_json::Map::new();
    for spec in opts.workload_specs(DETAIL) {
        let trace = opts.trace(&spec, n);
        let r = prediction_study(&trace.page_stream(), INTERVAL, MEA_ENTRIES, MEA_BITS);
        t.row(vec![
            spec.name().to_string(),
            r.mea_prediction.hits[0].to_string(),
            r.fc_prediction.hits[0].to_string(),
            r.mea_prediction.hits[1].to_string(),
            r.fc_prediction.hits[1].to_string(),
            r.mea_prediction.hits[2].to_string(),
            r.fc_prediction.hits[2].to_string(),
        ]);
        json.insert(
            spec.name().to_string(),
            serde_json::to_value(&r).expect("serializable"),
        );
    }
    println!("{}", t.render());
    println!("Expected shapes (paper §3):");
    println!("  cactus      — FC beats MEA on every tier (stable hot set)");
    println!("  xalanc/mix9 — MEA ahead in every bin");
    println!("  bwaves      — both tiny; MEA > 0 via end-of-interval recency");
    println!("  lbm         — FC ranks finished pages (near zero); MEA scores");

    opts.write_json("fig3_prediction_detail", &serde_json::Value::Object(json));
}
