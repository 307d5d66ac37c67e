//! `fig8_performance` runs its job matrix to completion and reports one
//! stderr line per finished job.

use std::process::Command;

const FIG8: &str = env!("CARGO_BIN_EXE_fig8_performance");

#[test]
fn fig8_smoke_prints_one_line_per_job() {
    // The binary writes `results/fig8_performance.smoke.json` under its
    // working directory, so run it from a fresh temporary one.
    let dir = std::env::temp_dir().join(format!("fig8-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(FIG8)
        .args(["--smoke", "--workloads", "gcc", "--requests", "2000"])
        .current_dir(&dir)
        .output()
        .expect("binary starts");
    let wrote_results = dir.join("results/fig8_performance.smoke.json").is_file();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(wrote_results, "results file missing");
    // One workload times the six mechanisms of Figure 8.
    let mut done: Vec<usize> = stderr
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix('[')?.split_once("/6] "))
        .map(|(k, _)| k.parse().expect("job count"))
        .collect();
    done.sort_unstable();
    assert_eq!(done, [1, 2, 3, 4, 5, 6], "{stderr}");
}
