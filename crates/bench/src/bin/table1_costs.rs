//! Regenerates **Table 1**: building-block cost breakdown per mechanism.
//!
//! Run: `cargo run --release -p mempod-bench --bin table1_costs`

use mempod_bench::{Opts, TextTable};
use mempod_core::storage_cost_table;

fn human(bytes: u64) -> String {
    if bytes == 0 {
        "-".to_string()
    } else if bytes >= 1 << 20 {
        format!("{:.1} MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let opts = Opts::from_args();
    let geo = opts.system().geometry;
    println!("Table 1 — building-block cost breakdown ({geo})\n");

    let rows = storage_cost_table(&geo);
    let mut t = TextTable::new(&[
        "mechanism",
        "flexibility",
        "remap table",
        "tracking",
        "trigger",
        "driver",
    ]);
    for r in &rows {
        t.row(vec![
            r.mechanism.clone(),
            r.flexibility.to_string(),
            human(r.remap_bytes),
            human(r.tracking_bytes),
            r.trigger.to_string(),
            r.driver.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mempod = rows.iter().find(|r| r.mechanism == "MemPod").expect("row");
    let thm = rows.iter().find(|r| r.mechanism == "THM").expect("row");
    let hma = rows.iter().find(|r| r.mechanism == "HMA").expect("row");
    println!(
        "MemPod tracking is {:.0}x smaller than THM's and {:.0}x smaller than HMA's",
        thm.tracking_bytes as f64 / mempod.tracking_bytes as f64,
        hma.tracking_bytes as f64 / mempod.tracking_bytes as f64,
    );
    println!("(paper: ~712x and ~12800x at the 1+8 GB configuration)");

    opts.write_json(
        "table1_costs",
        &serde_json::to_value(&rows).expect("serializable"),
    );
}
