//! Regenerates **Figure 7**: MEA counter width (bits) vs normalized AMMAT
//! and migrations per pod per interval, for (a) 50 µs epochs with 64
//! counters and (b) 100 µs epochs with 128 counters.
//!
//! Run: `cargo run --release -p mempod-bench --bin fig7_counter_width`

use mempod_bench::{Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::geometric_mean;
use mempod_sim::Simulator;
use mempod_types::Picos;

const WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];

fn run_panel(
    opts: &Opts,
    n: usize,
    epoch_us: u64,
    counters: usize,
    label: &str,
) -> serde_json::Value {
    let specs = opts.sweep_suite();
    println!(
        "Figure 7{label} — {epoch_us}us epochs, {counters} counters, {} workloads x {n} requests",
        specs.len()
    );

    // per width: Vec of (ammat, migrations/pod/interval) across workloads.
    let mut ammat = vec![Vec::new(); WIDTHS.len()];
    let mut migs = vec![Vec::new(); WIDTHS.len()];
    for spec in &specs {
        let trace = opts.trace(spec, n);
        for (wi, &bits) in WIDTHS.iter().enumerate() {
            let mut cfg = opts.sim_config(ManagerKind::MemPod);
            cfg.mgr.epoch = Picos::from_us(epoch_us);
            cfg.mgr.mea_entries = counters;
            cfg.mgr.mea_counter_bits = bits;
            let r = Simulator::new(cfg).expect("valid").run(&trace);
            ammat[wi].push(r.ammat_ns().expect("non-empty run"));
            let pods = cfg_pods(&r);
            migs[wi].push(r.migration.migrations_per_interval() / pods);
        }
        eprintln!("  [{} done]", spec.name());
    }

    let two_bit = geometric_mean(ammat[1].iter().copied());
    let mut t = TextTable::new(&["bits", "AMMAT vs 2-bit", "migrations/pod/interval"]);
    let mut rows = Vec::new();
    for (wi, &bits) in WIDTHS.iter().enumerate() {
        let a = geometric_mean(ammat[wi].iter().copied()) / two_bit;
        let m = migs[wi].iter().sum::<f64>() / migs[wi].len() as f64;
        t.row(vec![bits.to_string(), format!("{a:.4}"), format!("{m:.1}")]);
        rows.push(
            serde_json::json!({ "bits": bits, "norm_ammat": a, "migrations_per_pod_interval": m }),
        );
    }
    println!("{}", t.render());
    serde_json::Value::Array(rows)
}

fn cfg_pods(r: &mempod_sim::SimReport) -> f64 {
    (r.migration.per_pod_bytes.len().max(1)) as f64
}

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let a = run_panel(&opts, n, 50, 64, "a");
    let b = run_panel(&opts, n, 100, 128, "b");
    println!("Paper: differences are small; 2 bits best at 50us/64 counters,");
    println!("optimal width grows to ~4 bits at 100us/128 counters.");
    opts.write_json(
        "fig7_counter_width",
        &serde_json::json!({ "panel_a_50us_64": a, "panel_b_100us_128": b }),
    );
}
