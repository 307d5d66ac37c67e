//! Ablation: **MEA vs Full Counters inside MemPod's own loop** — does §3's
//! offline prediction comparison carry into end-to-end AMMAT?
//!
//! MemPod normally tracks each pod with a 64-entry MEA map. This ablation
//! swaps the tracker for exact per-page counters (top-64 per pod per epoch)
//! while keeping everything else — intervals, pods, clock-hand eviction —
//! identical, and also sweeps CAMEO's Line Location Predictor on/off.
//!
//! Run: `cargo run --release -p mempod-bench --bin ablation_tracker`

use mempod_bench::{Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::{geometric_mean, Simulator};
use mempod_types::TrackerKind;

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let specs = opts.sweep_suite();
    println!(
        "Tracker ablation — {} workloads x {n} requests\n",
        specs.len()
    );

    let mut t = TextTable::new(&["configuration", "AMMAT vs MemPod/MEA", "notes"]);
    let mut json = Vec::new();

    // Panel 1: MemPod with MEA vs with full counters.
    let mut mea = Vec::new();
    let mut fc = Vec::new();
    for spec in &specs {
        let trace = opts.trace(spec, n);
        let mut cfg = opts.sim_config(ManagerKind::MemPod);
        cfg.mgr.mempod_tracker = TrackerKind::Mea;
        mea.push(
            Simulator::new(cfg.clone())
                .expect("valid")
                .run(&trace)
                .ammat_ns()
                .expect("non-empty run"),
        );
        cfg.mgr.mempod_tracker = TrackerKind::FullCounters;
        fc.push(
            Simulator::new(cfg)
                .expect("valid")
                .run(&trace)
                .ammat_ns()
                .expect("non-empty run"),
        );
        eprintln!("  [{} done]", spec.name());
    }
    let mea_mean = geometric_mean(mea.iter().copied());
    let fc_mean = geometric_mean(fc.iter().copied());
    t.row(vec![
        "MemPod + MEA (64/pod)".into(),
        "1.000".into(),
        "paper design".into(),
    ]);
    t.row(vec![
        "MemPod + full counters".into(),
        format!("{:.3}", fc_mean / mea_mean),
        "exact counting, same budget".into(),
    ]);
    json.push(serde_json::json!({"config": "mempod_mea", "ammat_ns": mea_mean}));
    json.push(serde_json::json!({"config": "mempod_fc", "ammat_ns": fc_mean}));

    // Panel 2: CAMEO with/without the Line Location Predictor.
    let mut plain = Vec::new();
    let mut llp = Vec::new();
    for spec in &specs {
        let trace = opts.trace(spec, n);
        let mut cfg = opts.sim_config(ManagerKind::Cameo);
        plain.push(
            Simulator::new(cfg.clone())
                .expect("valid")
                .run(&trace)
                .ammat_ns()
                .expect("non-empty run"),
        );
        cfg.mgr.cameo_llp = true;
        llp.push(
            Simulator::new(cfg)
                .expect("valid")
                .run(&trace)
                .ammat_ns()
                .expect("non-empty run"),
        );
    }
    let plain_mean = geometric_mean(plain.iter().copied());
    let llp_mean = geometric_mean(llp.iter().copied());
    t.row(vec![
        "CAMEO (free bookkeeping)".into(),
        format!("{:.3}", plain_mean / mea_mean),
        "Fig. 8 conditions".into(),
    ]);
    t.row(vec![
        "CAMEO + LLP".into(),
        format!("{:.3}", llp_mean / mea_mean),
        "mispredicts pay a memory read".into(),
    ]);
    json.push(serde_json::json!({"config": "cameo_plain", "ammat_ns": plain_mean}));
    json.push(serde_json::json!({"config": "cameo_llp", "ammat_ns": llp_mean}));

    println!("{}", t.render());
    opts.write_json("ablation_tracker", &serde_json::Value::Array(json));
}
