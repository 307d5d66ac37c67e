//! Ablation: **pod count** (paper §5.1 / §5.3 / §6.3.4).
//!
//! "A design with one Pod is equivalent to a centralized migration
//! controller allowing any-to-any migration, while a design with a Pod
//! number equal to the number of MCs would imply that migration is
//! disabled." This binary sweeps pods ∈ {1, 2, 4, 8} and reports AMMAT,
//! migration counts, and the §5.3 data-movement energy (a 1-pod design pays
//! global-switch hops for every swap; clustered designs pay pod-local hops).
//!
//! Run: `cargo run --release -p mempod-bench --bin ablation_pods`

use mempod_bench::{Opts, TextTable};
use mempod_core::{EnergyModel, ManagerKind};
use mempod_sim::{geometric_mean, Simulator};
use mempod_types::Geometry;

const PODS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    let opts = Opts::from_args();
    let n = opts.requests_or(2_000_000);
    let specs = opts.sweep_suite();
    let energy = EnergyModel::default();
    println!(
        "Pod-count ablation — {} workloads x {n} requests (paper default: 4 pods)\n",
        specs.len()
    );

    let base_geo = opts.system().geometry;
    let mut t = TextTable::new(&[
        "pods",
        "AMMAT vs 4 pods",
        "migrations",
        "moved MB",
        "migration energy mJ",
    ]);
    let mut cells: Vec<(u32, Vec<f64>, u64, f64, f64)> = Vec::new();
    for &pods in &PODS {
        let geo = Geometry::new(base_geo.fast_bytes(), base_geo.slow_bytes(), pods)
            .expect("pod count divides the tiers");
        let mut ammat = Vec::new();
        let mut migrations = 0u64;
        let mut moved_mb = 0.0;
        let mut energy_mj = 0.0;
        for spec in &specs {
            let trace = opts.trace(spec, n);
            let mut cfg = opts.sim_config(ManagerKind::MemPod);
            cfg.mgr.geometry = geo;
            let r = Simulator::new(cfg).expect("valid").run(&trace);
            ammat.push(r.ammat_ns().expect("non-empty run"));
            migrations += r.migration.migrations;
            moved_mb += r.migrated_mb();
            // A 1-pod (centralized) design pays global hops; clustered
            // designs pay pod-local hops (§5.3).
            let hops_kind = if pods == 1 {
                ManagerKind::Cameo // global_hops path
            } else {
                ManagerKind::MemPod
            };
            energy_mj += energy.total_migration_mj(hops_kind, &r.migration);
        }
        cells.push((pods, ammat, migrations, moved_mb, energy_mj));
        eprintln!("  [pods={pods} done]");
    }

    let baseline = geometric_mean(
        cells
            .iter()
            .find(|(p, ..)| *p == 4)
            .expect("4 pods in sweep")
            .1
            .iter()
            .copied(),
    );
    let mut json = Vec::new();
    for (pods, ammat, migrations, moved_mb, energy_mj) in &cells {
        let norm = geometric_mean(ammat.iter().copied()) / baseline;
        t.row(vec![
            pods.to_string(),
            format!("{norm:.3}"),
            migrations.to_string(),
            format!("{moved_mb:.1}"),
            format!("{energy_mj:.2}"),
        ]);
        json.push(serde_json::json!({
            "pods": pods,
            "norm_ammat": norm,
            "migrations": migrations,
            "moved_mb": moved_mb,
            "migration_energy_mj": energy_mj,
        }));
    }
    println!("{}", t.render());
    println!("Expected: 1 pod ≈ any-to-any flexibility but serial migration and");
    println!("global-distance energy; many pods restrict candidates per pod.");

    opts.write_json("ablation_pods", &serde_json::Value::Array(json));
}
