//! Regenerates **Table 3**: the mixed-workload composition matrix.
//!
//! Run: `cargo run --release -p mempod-bench --bin table3_mixes`

use mempod_bench::{Opts, TextTable};
use mempod_trace::{mix_composition, mix_names, BENCHMARKS};

fn main() {
    // No option changes the computation; `--smoke` only redirects the
    // results file.
    let opts = Opts::from_args();
    println!("Table 3 — mixed workloads (normalized to 8 cores; see rustdoc of");
    println!("mempod_trace::mixes for the truncate/cycle normalization rule)\n");

    let mixes = mix_names();
    let mut header: Vec<&str> = vec!["benchmark"];
    header.extend(mixes.iter());
    let mut t = TextTable::new(&header);

    let comps: Vec<Vec<&str>> = mixes
        .iter()
        .map(|m| {
            mix_composition(m)
                .expect("known mix")
                .iter()
                .map(|p| p.name)
                .collect()
        })
        .collect();

    for bench in BENCHMARKS {
        let mut row = vec![bench.name.to_string()];
        for comp in &comps {
            let count = comp.iter().filter(|n| **n == bench.name).count();
            row.push(match count {
                0 => String::new(),
                n => "✓".repeat(n),
            });
        }
        t.row(row);
    }
    println!("{}", t.render());

    let json: serde_json::Value = mixes
        .iter()
        .zip(&comps)
        .map(|(m, c)| (m.to_string(), serde_json::json!(c)))
        .collect::<serde_json::Map<_, _>>()
        .into();
    opts.write_json("table3_mixes", &json);
}
