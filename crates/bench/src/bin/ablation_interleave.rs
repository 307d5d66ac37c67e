//! Ablation: **channel interleaving granularity** — page-frame (the suite's
//! pod-aligned default, paper §5.3 co-design) vs line-striped (Ramulator's
//! default flavor). This quantifies how much of the row-buffer-hit-rate
//! baseline is an artifact of the interleaving choice — the deviation noted
//! against the paper's libquantum "7 %" figure in `EXPERIMENTS.md`.
//!
//! Run: `cargo run --release -p mempod-bench --bin ablation_interleave`

use mempod_bench::{Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_dram::Interleave;
use mempod_sim::Simulator;

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let specs = opts.sweep_suite();
    println!(
        "Interleave ablation — {} workloads x {n} requests, TLM baseline\n",
        specs.len()
    );

    let mut t = TextTable::new(&[
        "workload",
        "row-hit (page-frame)",
        "row-hit (line-striped)",
        "AMMAT ns (page-frame)",
        "AMMAT ns (line-striped)",
    ]);
    let mut json = Vec::new();
    for spec in &specs {
        let trace = opts.trace(spec, n);
        let run = |interleave: Interleave| {
            let cfg = opts.sim_config(ManagerKind::NoMigration);
            let mut layout = cfg.layout();
            layout.interleave = interleave;
            Simulator::with_layout(cfg, layout)
                .expect("valid")
                .run(&trace)
        };
        let ra = run(Interleave::PageFrame);
        let rb = run(Interleave::LineStriped);
        t.row(vec![
            spec.name().to_string(),
            format!("{:.3}", ra.row_hit_rate()),
            format!("{:.3}", rb.row_hit_rate()),
            format!("{:.1}", ra.ammat_ns().expect("non-empty run")),
            format!("{:.1}", rb.ammat_ns().expect("non-empty run")),
        ]);
        json.push(serde_json::json!({
            "workload": spec.name(),
            "pageframe": {"row_hit": ra.row_hit_rate(), "ammat_ns": ra.ammat_ns().expect("non-empty run")},
            "linestriped": {"row_hit": rb.row_hit_rate(), "ammat_ns": rb.ammat_ns().expect("non-empty run")},
        }));
        eprintln!("  [{} done]", spec.name());
    }
    println!("{}", t.render());
    println!("Line striping fans each within-page burst across all channels, so");
    println!("per-channel row-hit rates collapse toward the paper's low baselines.");

    opts.write_json("ablation_interleave", &serde_json::Value::Array(json));
}
