//! Regenerates **Figure 10**: scalability to faster future memories —
//! 4 GHz HBM + DDR4-2400, AMMAT normalized to a DDR4-2400-only system,
//! with HMA's sort penalty reduced 40 % (faster future CPU).
//!
//! Run: `cargo run --release -p mempod-bench --bin fig10_scalability`

use mempod_bench::{group_means, Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::{normalize_to, SimReport, Simulator};

const KINDS: [ManagerKind; 6] = [
    ManagerKind::NoMigration,
    ManagerKind::Hma,
    ManagerKind::Thm,
    ManagerKind::Cameo,
    ManagerKind::MemPod,
    ManagerKind::HbmOnly, // "HBMoc" in the paper
];

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let specs = opts.sweep_suite();
    println!(
        "Figure 10 — future system (HBM@4GHz + DDR4-2400), {} workloads x {n} requests,",
        specs.len()
    );
    println!("AMMAT normalized to a DDR4-2400-only memory\n");

    let mut per_workload: Vec<(String, Vec<SimReport>)> = Vec::new();
    let mut t = TextTable::new(&[
        "workload", "DDR-only", "TLM", "HMA", "THM", "CAMEO", "MemPod", "HBMoc",
    ]);
    for spec in &specs {
        let trace = opts.trace(spec, n);
        let ddr = Simulator::new(opts.sim_config(ManagerKind::DdrOnly).into_future_system())
            .expect("valid")
            .run(&trace);
        let mut reports = vec![ddr];
        let mut row = vec![spec.name().to_string(), "1.000".to_string()];
        for &kind in &KINDS {
            let cfg = opts.sim_config(kind).into_future_system();
            let r = Simulator::new(cfg).expect("valid").run(&trace);
            let ratio = normalize_to(&r, &reports[0]).unwrap_or_else(|| {
                panic!(
                    "DDR-only baseline for `{}` produced zero AMMAT — broken run",
                    spec.name()
                )
            });
            row.push(format!("{ratio:.3}"));
            reports.push(r);
        }
        t.row(row);
        eprintln!("  [{} done]", spec.name());
        per_workload.push((spec.name().to_string(), reports));
    }

    let ratio_to_ddr = |reports: &[SimReport], ki: usize| {
        normalize_to(&reports[ki], &reports[0])
            .unwrap_or_else(|| panic!("zero DDR-only baseline in summary"))
    };
    let mut avg = vec!["AVG ALL".to_string(), "1.000".to_string()];
    for ki in 0..KINDS.len() {
        let (_, _, m) = group_means(&per_workload, |reports| ratio_to_ddr(reports, ki + 1));
        avg.push(format!("{m:.3}"));
    }
    t.row(avg);
    println!("{}", t.render());

    // The paper reports improvements relative to the future TLM.
    let (_, _, tlm_ratio) = group_means(&per_workload, |r| ratio_to_ddr(r, 1));
    println!("Relative to the future TLM:");
    for (ki, kind) in KINDS.iter().enumerate().skip(1) {
        let (_, _, m) = group_means(&per_workload, |r| ratio_to_ddr(r, ki + 1));
        println!(
            "  {:>8}: {:+.1}%  (paper: HMA +2%, THM +13%, MemPod +24%, CAMEO -1%, HBMoc +40%)",
            kind.to_string(),
            (1.0 - m / tlm_ratio) * 100.0
        );
    }

    let json: serde_json::Value = per_workload
        .iter()
        .map(|(w, r)| (w.clone(), serde_json::to_value(r).expect("serializable")))
        .collect::<serde_json::Map<_, _>>()
        .into();
    opts.write_json("fig10_scalability", &json);
}
