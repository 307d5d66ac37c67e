//! CLI for the workspace auditor: `cargo run -p mempod-audit -- lint`.
//!
//! `lint` prints a human summary to stderr and the JSON report to stdout
//! (or to `--report FILE`). Exit codes:
//!
//! * `0` — clean (blocking findings: none; allowlist: no stale entries).
//! * `1` — blocking violations (new findings under `--deny-new`).
//! * `2` — usage or I/O error (an unknown command included).
//! * `3` — no blocking violations, but the allowlist or baseline carries
//!   stale entries that must be deleted.

use std::path::PathBuf;
use std::process::ExitCode;

use mempod_audit::baseline::Baseline;
use mempod_audit::lint::{run_lint, Allowlist};

const USAGE: &str = "usage: mempod-audit lint [--root DIR] [--allowlist FILE]
                         [--baseline FILE] [--deny-new] [--write-baseline]
                         [--report FILE]

lint: runs the workspace lint rules over the source model: hot-path panic
and print bans, lossy-cast ban, pub-API doc/Debug coverage, unit-mismatch,
unchecked address arithmetic, ignored Results, the determinism family
(nondet-iter, nondet-float-reduce, nondet-clock, interior-mut),
unsampled-span, the concurrency rules (lock-order-cycle,
atomic-ordering-mismatch), and the coverage-gap meta-lint. Rule coverage
is derived from call-graph reachability off the simulation entry points.

  --root DIR        workspace root (default: .)
  --allowlist FILE  intentional exemptions (default:
                    <root>/audit.allowlist.json, if present)
  --baseline FILE   frozen-debt baseline (default:
                    <root>/audit.baseline.json)
  --deny-new        load the baseline; fail only on findings not in it
  --write-baseline  record current non-allowlisted findings as the new
                    baseline and exit (hand-written notes are preserved)
  --report FILE     write the JSON report to FILE instead of stdout

exit codes: 0 clean, 1 blocking violations, 2 usage/IO error, 3 stale
allowlist/baseline entries only.";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command != "lint" {
        eprintln!("unknown command `{command}`\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut deny_new = false;
    let mut write_baseline = false;
    let mut report_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--allowlist" | "--baseline" | "--report" => {
                let Some(value) = args.next() else {
                    eprintln!("{arg} needs an argument\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                let value = PathBuf::from(value);
                match arg.as_str() {
                    "--root" => root = value,
                    "--allowlist" => allowlist_path = Some(value),
                    "--baseline" => baseline_path = Some(value),
                    _ => report_path = Some(value),
                }
            }
            "--deny-new" => deny_new = true,
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("audit.allowlist.json"));
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match Allowlist::from_json(&text) {
            Ok(al) => al,
            Err(e) => {
                eprintln!("error: {}: {e}", allowlist_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Allowlist::default(),
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("audit.baseline.json"));

    let mut report = run_lint(&root, &allowlist);

    if write_baseline {
        let mut baseline =
            Baseline::from_violations(report.violations.iter().filter(|v| !v.allowed));
        if let Ok(text) = std::fs::read_to_string(&baseline_path) {
            if let Ok(old) = Baseline::from_json(&text) {
                baseline.adopt_notes(&old);
            }
        }
        let json = match serde_json::to_string_pretty(baseline.to_json()) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: could not render baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&baseline_path, json + "\n") {
            eprintln!("error: {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "mempod-audit lint: wrote {} baseline entr{} to {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    if deny_new {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!(
                    "error: --deny-new needs a baseline at {}: {e}\n\
                     (generate one with --write-baseline)",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        };
        report.apply_baseline(&baseline);
    }

    for v in report.blocking() {
        eprintln!("error: {v}");
    }
    for stale in &report.stale_allowlist {
        eprintln!("error: stale allowlist entry (matches nothing): {stale}");
    }
    for stale in &report.stale_baseline {
        eprintln!("warning: stale baseline entry (debt fixed; delete it): {stale}");
    }
    eprintln!(
        "mempod-audit lint: {} file(s) scanned, {} blocking violation(s), \
         {} allowlisted, {} baselined, {} stale allowlist entr{}",
        report.files_scanned,
        report.blocking().count(),
        report.violations.iter().filter(|v| v.allowed).count(),
        report.violations.iter().filter(|v| v.baselined).count(),
        report.stale_allowlist.len(),
        if report.stale_allowlist.len() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    let json = match serde_json::to_string_pretty(report.to_json()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: could not render report: {e}");
            return ExitCode::from(2);
        }
    };
    match &report_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, json + "\n") {
                eprintln!("error: {}: {e}", p.display());
                return ExitCode::from(2);
            }
            eprintln!("mempod-audit lint: report written to {}", p.display());
        }
        None => println!("{json}"),
    }

    if report.blocking().count() > 0 {
        ExitCode::FAILURE
    } else if !report.stale_allowlist.is_empty() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
