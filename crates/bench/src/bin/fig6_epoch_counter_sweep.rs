//! Regenerates **Figure 6**: MemPod AMMAT across the (epoch length × MEA
//! counter count) design space, with 16-bit counters and metadata caches
//! disabled, averaged over a representative workload subset.
//!
//! Run: `cargo run --release -p mempod-bench --bin fig6_epoch_counter_sweep`

use mempod_bench::{Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::{geometric_mean, Simulator};
use mempod_types::Picos;

const EPOCHS_US: [u64; 5] = [25, 50, 100, 250, 500];
const COUNTERS: [usize; 6] = [16, 32, 64, 128, 256, 512];

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let specs = opts.sweep_suite();
    println!(
        "Figure 6 — mean MemPod AMMAT (ns) over {} workloads x {n} requests,",
        specs.len()
    );
    println!("epoch length x MEA counters, 16-bit counters, no metadata caches\n");

    // ammat[e][c] = geometric mean across workloads of absolute AMMAT (ns).
    let mut cells = vec![vec![Vec::new(); COUNTERS.len()]; EPOCHS_US.len()];
    for spec in &specs {
        let trace = opts.trace(spec, n);
        for (ei, &epoch_us) in EPOCHS_US.iter().enumerate() {
            for (ci, &counters) in COUNTERS.iter().enumerate() {
                let mut cfg = opts.sim_config(ManagerKind::MemPod);
                cfg.mgr.epoch = Picos::from_us(epoch_us);
                cfg.mgr.mea_entries = counters;
                cfg.mgr.mea_counter_bits = 16;
                let r = Simulator::new(cfg).expect("valid").run(&trace);
                cells[ei][ci].push(r.ammat_ns().expect("non-empty run"));
            }
        }
        eprintln!("  [{} done]", spec.name());
    }

    let mut header = vec!["epoch \\ counters".to_string()];
    header.extend(COUNTERS.iter().map(|c| c.to_string()));
    let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut best = (f64::INFINITY, 0, 0);
    let mut matrix = Vec::new();
    for (ei, &epoch_us) in EPOCHS_US.iter().enumerate() {
        let mut row = vec![format!("{epoch_us}us")];
        let mut json_row = Vec::new();
        for (ci, &_c) in COUNTERS.iter().enumerate() {
            let v = geometric_mean(cells[ei][ci].iter().copied());
            if v < best.0 {
                best = (v, ei, ci);
            }
            row.push(format!("{v:.1}"));
            json_row.push(v);
        }
        t.row(row);
        matrix.push(json_row);
    }
    println!("{}", t.render());
    println!(
        "Best cell: {} counters at {}us epochs ({:.1} ns) — paper: 64 counters at 50us;",
        COUNTERS[best.2], EPOCHS_US[best.1], best.0
    );
    println!("the low-AMMAT cells should lie along the matrix diagonal (constant migration rate).");

    opts.write_json(
        "fig6_epoch_counter_sweep",
        &serde_json::json!({
            "epochs_us": EPOCHS_US,
            "counters": COUNTERS,
            "mean_ammat_ns": matrix,
        }),
    );
}
