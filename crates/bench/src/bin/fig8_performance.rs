//! Regenerates **Figure 8**: AMMAT of MemPod, HMA, THM, CAMEO and an
//! HBM-only system, normalized to a two-level memory without migration
//! (TLM), per workload plus group averages. Also prints the §6.3.2
//! migration-traffic comparison and the libquantum row-buffer analysis.
//!
//! Run: `cargo run --release -p mempod-bench --bin fig8_performance`
//! (add `--smoke` for a CI-scale pass; `--requests N` / `--workloads a,b`
//! to rescope).
//!
//! The workload x mechanism matrix runs on [`mempod_bench::run_jobs`],
//! which prints one stderr line per finished job.

use std::time::Instant;

use mempod_bench::{group_means, run_jobs, Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::{normalize_to, SimReport};

const KINDS: [ManagerKind; 6] = [
    ManagerKind::NoMigration,
    ManagerKind::MemPod,
    ManagerKind::Hma,
    ManagerKind::Thm,
    ManagerKind::Cameo,
    ManagerKind::HbmOnly,
];

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(6_000_000);
    println!("Figure 8 — AMMAT normalized to no-migration TLM ({n} requests/workload)\n");

    let specs = opts.full_suite();
    let mut jobs = Vec::new();
    for spec in &specs {
        let trace = opts.trace(spec, n);
        for &k in &KINDS {
            jobs.push((opts.sim_config(k), trace.clone()));
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(jobs.len().max(1));
    eprintln!(
        "  running {} jobs ({} workloads x {} mechanisms) on {threads} threads",
        jobs.len(),
        specs.len(),
        KINDS.len()
    );
    let t0 = Instant::now();
    let flat = run_jobs(&jobs, threads);
    eprintln!(
        "  [all {} jobs done in {:.1}s]",
        flat.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut t = TextTable::new(&[
        "workload", "TLM", "MemPod", "HMA", "THM", "CAMEO", "HBM-only",
    ]);
    let mut per_workload: Vec<(String, Vec<SimReport>)> = Vec::new();

    for (spec, reports) in specs.iter().zip(flat.chunks(KINDS.len())) {
        let reports = reports.to_vec();
        let mut row = vec![spec.name().to_string()];
        row.extend(reports.iter().map(|r| {
            let ratio = normalize_to(r, &reports[0]).unwrap_or_else(|| {
                panic!(
                    "TLM baseline for `{}` produced zero AMMAT — broken run",
                    spec.name()
                )
            });
            format!("{ratio:.3}")
        }));
        t.row(row);
        per_workload.push((spec.name().to_string(), reports));
    }

    for (label, filter) in [
        ("AVG HG", Some(false)),
        ("AVG MIX", Some(true)),
        ("AVG ALL", None),
    ] {
        let subset: Vec<(String, Vec<SimReport>)> = per_workload
            .iter()
            .filter(|(name, _)| filter.is_none_or(|m| name.starts_with("mix") == m))
            .cloned()
            .collect();
        let mut row = vec![label.to_string()];
        for ki in 0..KINDS.len() {
            let (_, _, all) = group_means(&subset, |reports| {
                normalize_to(&reports[ki], &reports[0])
                    .unwrap_or_else(|| panic!("zero TLM baseline in group `{label}`"))
            });
            row.push(format!("{all:.3}"));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("Paper shape: HBM-only < MemPod (~0.81) < THM < HMA < TLM (1.0) < CAMEO (~1.41)\n");

    // §6.3.2 migration-traffic comparison.
    let mut traffic = TextTable::new(&[
        "mechanism",
        "mean MB moved",
        "mean swaps",
        "per-pod MB (MemPod)",
    ]);
    for (ki, kind) in KINDS.iter().enumerate().skip(1) {
        if !kind.migrates() {
            continue;
        }
        let mb: f64 = per_workload
            .iter()
            .map(|(_, r)| r[ki].migrated_mb())
            .sum::<f64>()
            / per_workload.len() as f64;
        let swaps: f64 = per_workload
            .iter()
            .map(|(_, r)| r[ki].migration.migrations as f64)
            .sum::<f64>()
            / per_workload.len() as f64;
        let per_pod = if *kind == ManagerKind::MemPod {
            let pods: f64 = per_workload
                .iter()
                .map(|(_, r)| {
                    let v = &r[ki].migration.per_pod_bytes;
                    if v.is_empty() {
                        0.0
                    } else {
                        v.iter().sum::<u64>() as f64 / v.len() as f64 / (1 << 20) as f64
                    }
                })
                .sum::<f64>()
                / per_workload.len() as f64;
            format!("{pods:.1}")
        } else {
            "-".to_string()
        };
        traffic.row(vec![
            kind.to_string(),
            format!("{mb:.1}"),
            format!("{swaps:.0}"),
            per_pod,
        ]);
    }
    println!("{}", traffic.render());
    println!("Paper (full-length traces): CAMEO 3.9 GB, MemPod 3.1 GB (804 MB/pod), THM 865 MB, HMA 578 MB\n");

    // libquantum row-buffer analysis (§6.3.2).
    if let Some((_, reports)) = per_workload.iter().find(|(w, _)| w == "libquantum") {
        println!("libquantum row-buffer hit rate (paper: 7% HBM-only -> 90% MemPod):");
        for (ki, kind) in KINDS.iter().enumerate() {
            println!(
                "  {:>9}: row-hit {:.3}, fast-service {:.3}",
                kind.to_string(),
                reports[ki].row_hit_rate(),
                reports[ki].mem_stats.fast_service_fraction()
            );
        }
    }

    let json: serde_json::Value = per_workload
        .iter()
        .map(|(w, reports)| {
            (
                w.clone(),
                serde_json::to_value(reports).expect("serializable"),
            )
        })
        .collect::<serde_json::Map<_, _>>()
        .into();
    opts.write_json("fig8_performance", &json);
}
