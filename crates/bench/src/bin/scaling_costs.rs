//! Regenerates the paper's **§6.3.4 scalability analysis** (prose claims,
//! no figure): how MemPod's per-pod structures grow as memory scales.
//!
//! * growing memory by **adding pods** keeps the remap table and MEA cost
//!   per pod (and per memory page) constant;
//! * growing **memory per pod** grows the remap entry width only with the
//!   log of the per-pod page count;
//! * scaling counters sub-linearly with memory per pod *reduces* tracking
//!   cost per page.
//!
//! Run: `cargo run --release -p mempod-bench --bin scaling_costs`

use mempod_bench::{Opts, TextTable};
use mempod_core::RemapTable;
use mempod_types::Geometry;

fn tag_bits(n: u64) -> u64 {
    64 - (n.max(2) - 1).leading_zeros() as u64
}

fn main() {
    // `--smoke` only redirects the results file.
    let opts = Opts::smoke_from_args();
    println!("§6.3.4 — structure scaling for MemPod\n");

    // Panel A: scale by adding pods (capacity per pod constant).
    let mut a = TextTable::new(&[
        "total memory",
        "pods",
        "pages/pod",
        "remap KB/pod",
        "MEA B/pod",
        "bits/page",
    ]);
    let mut json_a = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let geo = Geometry::new((1 << 30) * mult, (8 << 30) * mult, (4 * mult) as u32)
            .expect("valid layout");
        let per_pod = geo.pages_per_pod();
        let remap_bits = RemapTable::storage_bits(per_pod);
        let mea_bits = 64 * (tag_bits(per_pod) + 2);
        let per_page = (remap_bits + mea_bits) as f64 / per_pod as f64;
        a.row(vec![
            format!("{} GB", 9 * mult),
            geo.pods().to_string(),
            per_pod.to_string(),
            format!("{:.0}", remap_bits as f64 / 8.0 / 1024.0),
            format!("{}", mea_bits / 8),
            format!("{per_page:.2}"),
        ]);
        json_a.push(serde_json::json!({
            "total_gb": 9 * mult, "pods": geo.pods(),
            "remap_bits_per_pod": remap_bits, "mea_bits_per_pod": mea_bits,
        }));
    }
    println!("A. growing memory by adding pods (constant capacity per pod):");
    println!("{}", a.render());
    println!("-> per-pod (and per-page) costs stay constant, as §6.3.4 claims.\n");

    // Panel B: scale memory per pod (pod count constant).
    let mut b = TextTable::new(&[
        "total memory",
        "pages/pod",
        "remap entry bits",
        "remap MB/pod",
        "MEA B/pod",
    ]);
    let mut json_b = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let geo = Geometry::new((1 << 30) * mult, (8 << 30) * mult, 4).expect("valid layout");
        let per_pod = geo.pages_per_pod();
        let remap_bits = RemapTable::storage_bits(per_pod);
        let mea_bits = 64 * (tag_bits(per_pod) + 2);
        b.row(vec![
            format!("{} GB", 9 * mult),
            per_pod.to_string(),
            tag_bits(per_pod).to_string(),
            format!("{:.1}", remap_bits as f64 / 8.0 / 1e6),
            format!("{}", mea_bits / 8),
        ]);
        json_b.push(serde_json::json!({
            "total_gb": 9 * mult, "pages_per_pod": per_pod,
            "entry_bits": tag_bits(per_pod),
        }));
    }
    println!("B. growing memory per pod (4 pods):");
    println!("{}", b.render());
    println!("-> the remap entry (and MEA tag) width grows only logarithmically:");
    println!("   8x the memory per pod costs 3 extra bits per entry.");

    opts.write_json(
        "scaling_costs",
        &serde_json::json!({ "add_pods": json_a, "grow_per_pod": json_b }),
    );
}
