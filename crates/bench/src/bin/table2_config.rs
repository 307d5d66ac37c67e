//! Regenerates **Table 2**: the simulated system configuration.
//!
//! Run: `cargo run --release -p mempod-bench --bin table2_config`

use mempod_bench::{Opts, TextTable};
use mempod_dram::DramTiming;

fn main() {
    let opts = Opts::from_args();
    let sys = opts.system();
    println!("Table 2 — experimental framework configuration\n");
    println!(
        "Processor: {} cores @ {:.1} GHz",
        sys.cores,
        sys.cpu_mhz as f64 / 1000.0
    );
    println!("Memory:    {}\n", sys.geometry);

    let mut t = TextTable::new(&[
        "technology",
        "capacity",
        "bus MHz",
        "channels",
        "banks",
        "row buffer",
        "tCAS-tRCD-tRP-tRAS",
    ]);
    let fast = DramTiming::hbm();
    let slow = DramTiming::ddr4_1600();
    for (timing, cap, ch) in [
        (&fast, sys.geometry.fast_bytes(), 8u32),
        (&slow, sys.geometry.slow_bytes(), 4u32),
    ] {
        t.row(vec![
            timing.name.to_string(),
            format!("{} MB", cap >> 20),
            format!("{}", timing.clock.freq_khz() / 1000),
            ch.to_string(),
            timing.banks.to_string(),
            format!("{} KB", timing.row_bytes >> 10),
            format!(
                "{}-{}-{}-{}",
                timing.t_cas, timing.t_rcd, timing.t_rp, timing.t_ras
            ),
        ]);
    }
    println!("{}", t.render());
    println!(
        "MemPod: {} pods, {} MEA entries/pod, {}-bit counters, {} epochs",
        sys.geometry.pods(),
        sys.mea_entries,
        sys.mea_counter_bits,
        sys.epoch
    );

    opts.write_json(
        "table2_config",
        &serde_json::json!({
            "system": sys,
            "fast_timing": fast,
            "slow_timing": slow,
        }),
    );
}
