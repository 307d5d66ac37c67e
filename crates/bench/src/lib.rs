//! Experiment harness shared by the per-figure binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`fig8_performance`, `table1_costs`, ...). This library provides the
//! shared plumbing: option parsing, experiment-scale configuration, trace
//! caching, result tables, and JSON persistence into `results/`.
//!
//! # Experiment scale
//!
//! Two scales are supported (see `EXPERIMENTS.md` for the rationale):
//!
//! * **full** (default): the paper's 1 GB + 8 GB geometry and Table 2
//!   timings. Trace lengths default to a few million requests per workload
//!   (tens of milliseconds of simulated time); HMA's interval is set to
//!   20 ms — scaled to the trace length so HMA gets its 2–3 migration
//!   rounds, with the paper's sort-penalty/interval ratio (7 %) preserved.
//! * **`--smoke`**: a 256×-scaled-down geometry and short traces, for CI.

use std::path::PathBuf;
use std::sync::Arc;

use mempod_core::ManagerKind;
use mempod_sim::SimConfig;
use mempod_trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_types::{Picos, SystemConfig};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run at CI scale (tiny geometry, few requests).
    pub smoke: bool,
    /// Requests per workload trace (`None` = the binary's default).
    pub requests: Option<usize>,
    /// Restrict to these workloads (`None` = the binary's default set).
    pub workloads: Option<Vec<String>>,
    /// Trace generation seed.
    pub seed: u64,
}

impl Opts {
    /// Parses `--smoke`, `--requests N`, `--workloads a,b,c` (`all` names
    /// the whole suite) and `--seed N` from the process arguments. Bad
    /// input prints `error: ...` and exits with status 2, as `simrun` and
    /// `tracelens` do.
    pub fn from_args() -> Self {
        Self::or_exit(Self::parse(std::env::args().skip(1)))
    }

    /// [`Opts::from_args`] for the binaries that simulate no trace (the
    /// tables and `scaling_costs`): `--smoke` is the only flag that changes
    /// what they do, so any other is an input error, not silently ignored.
    pub fn smoke_from_args() -> Self {
        Self::or_exit(Self::parse_smoke_only(std::env::args().skip(1)))
    }

    fn or_exit(parsed: Result<Self, String>) -> Self {
        parsed.unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    /// [`Opts::parse`], then the message for any flag besides `--smoke`.
    fn parse_smoke_only(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        let opts = Self::parse(args.iter().cloned())?;
        match args.iter().find(|a| *a != "--smoke") {
            Some(a) => Err(format!(
                "{a} does not apply here; this binary accepts only --smoke"
            )),
            None => Ok(opts),
        }
    }

    /// The argument parser behind [`Opts::from_args`]: the message for an
    /// unknown flag or workload, or a missing, non-integer or zero value.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Opts {
            smoke: false,
            requests: None,
            workloads: None,
            seed: 7,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--requests" => match int(&a, &val()?)? {
                    0 => return Err(format!("{a} must be at least 1")),
                    n => opts.requests = Some(n),
                },
                "--workloads" => {
                    let names: Vec<String> = val()?.split(',').map(str::to_string).collect();
                    if let Some(bad) = names.iter().find(|n| *n != "all" && lookup(n).is_none()) {
                        return Err(format!("unknown workload {bad:?}"));
                    }
                    opts.workloads = Some(names);
                }
                "--seed" => opts.seed = int(&a, &val()?)?,
                other => {
                    return Err(format!(
                        "unknown argument {other:?}; expected --smoke, --requests N, \
                         --workloads a,b,c, --seed N"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// The system configuration at this scale.
    pub fn system(&self) -> SystemConfig {
        if self.smoke {
            SystemConfig::tiny()
        } else {
            SystemConfig::paper_default()
        }
    }

    /// Effective request count given the binary's full-scale default.
    pub fn requests_or(&self, default_full: usize) -> usize {
        match self.requests {
            Some(n) => n,
            None if self.smoke => (default_full / 50).max(50_000),
            None => default_full,
        }
    }

    /// Resolves the workload list: explicit `--workloads`, else `default`.
    /// `all` expands to the whole 29-workload suite, and a workload named
    /// twice runs once.
    ///
    /// # Panics
    ///
    /// Panics if a named workload does not exist ([`Opts::from_args`]
    /// rejects those).
    pub fn workload_specs(&self, default: &[&str]) -> Vec<WorkloadSpec> {
        let names: Vec<&str> = match &self.workloads {
            Some(v) => v.iter().map(String::as_str).collect(),
            None => default.to_vec(),
        };
        let mut specs: Vec<WorkloadSpec> = Vec::new();
        for n in names {
            let named = if n == "all" {
                WorkloadSpec::all_workloads()
            } else {
                vec![lookup(n).unwrap_or_else(|| panic!("unknown workload {n}"))]
            };
            for spec in named {
                if !specs.iter().any(|s| s.name() == spec.name()) {
                    specs.push(spec);
                }
            }
        }
        specs
    }

    /// The complete 29-workload suite, or a short list under `--smoke`;
    /// an explicit `--workloads` list replaces either.
    pub fn full_suite(&self) -> Vec<WorkloadSpec> {
        if self.smoke || self.workloads.is_some() {
            self.workload_specs(&["gcc", "bwaves", "mix5"])
        } else {
            WorkloadSpec::all_workloads()
        }
    }

    /// A representative medium subset used by the parameter sweeps.
    pub fn sweep_suite(&self) -> Vec<WorkloadSpec> {
        if self.smoke {
            self.workload_specs(&["gcc", "mix5"])
        } else {
            self.workload_specs(&[
                "gcc",
                "xalanc",
                "cactus",
                "mcf",
                "libquantum",
                "mix5",
                "mix9",
            ])
        }
    }

    /// Simulation config for one manager at this experiment scale.
    ///
    /// At full scale, HMA's interval is set to 20 ms (sort penalty 1.4 ms —
    /// the paper's 7 % ratio) so multi-million-request traces span several
    /// HMA rounds; `--smoke` uses the capacity-scaled values from
    /// [`SimConfig::new`].
    pub fn sim_config(&self, kind: ManagerKind) -> SimConfig {
        let mut cfg = SimConfig::new(self.system(), kind);
        if !self.smoke {
            cfg.mgr.hma_interval = Picos::from_ms(20);
            cfg.mgr.hma_sort_penalty = Picos::from_us(1400);
        }
        cfg
    }

    /// Generates (deterministically) the trace for a workload.
    pub fn trace(&self, spec: &WorkloadSpec, requests: usize) -> Arc<Trace> {
        let sys = self.system();
        Arc::new(
            TraceGenerator::new(spec.clone(), self.seed).take_requests(requests, &sys.geometry),
        )
    }

    /// Where [`Opts::write_json`] saves `name`.
    fn results_path(&self, name: &str) -> PathBuf {
        let scale = if self.smoke { ".smoke" } else { "" };
        PathBuf::from("results").join(format!("{name}{scale}.json"))
    }

    /// Writes a JSON value to `results/<name>.json`, or to
    /// `results/<name>.smoke.json` under `--smoke` so a CI-scale pass never
    /// overwrites full-scale results (creating the directory).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiment results must not be silently lost.
    pub fn write_json(&self, name: &str, value: &serde_json::Value) {
        let path = self.results_path(name);
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("serialize"),
        )
        .expect("write results file");
        println!("\n[saved {}]", path.display());
    }
}

/// A homogeneous workload or a Table 3 mix, by name.
fn lookup(name: &str) -> Option<WorkloadSpec> {
    WorkloadSpec::homogeneous(name).or_else(|| WorkloadSpec::mix(name))
}

/// Parses `value` as the integer argument of `flag`.
///
/// # Errors
///
/// Returns `"<flag> expects an integer, got <value>"`.
pub fn int<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an integer, got {value:?}"))
}

/// Simple fixed-width table printer for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Splits workload reports into the paper's aggregation groups
/// (homogeneous / mixed / all) and returns the geometric means of `f`.
pub fn group_means<T>(items: &[(String, T)], f: impl Fn(&T) -> f64) -> (f64, f64, f64) {
    let is_mix = |name: &str| name.starts_with("mix");
    let hg: Vec<f64> = items
        .iter()
        .filter(|(n, _)| !is_mix(n))
        .map(|(_, t)| f(t))
        .collect();
    let mix: Vec<f64> = items
        .iter()
        .filter(|(n, _)| is_mix(n))
        .map(|(_, t)| f(t))
        .collect();
    let all: Vec<f64> = items.iter().map(|(_, t)| f(t)).collect();
    (
        mempod_sim::geometric_mean(hg),
        mempod_sim::geometric_mean(mix),
        mempod_sim::geometric_mean(all),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn group_means_splits_mixes() {
        let items = vec![
            ("gcc".to_string(), 2.0),
            ("mix1".to_string(), 8.0),
            ("mix2".to_string(), 2.0),
        ];
        let (hg, mix, all) = group_means(&items, |v| *v);
        assert!((hg - 2.0).abs() < 1e-12);
        assert!((mix - 4.0).abs() < 1e-12);
        assert!((all - (32.0f64).powf(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn default_opts_full_scale() {
        let o = Opts {
            smoke: false,
            requests: None,
            workloads: None,
            seed: 1,
        };
        assert_eq!(o.requests_or(6_000_000), 6_000_000);
        assert_eq!(o.full_suite().len(), 29);
        assert_eq!(o.sweep_suite().len(), 7);
        assert_eq!(
            o.sim_config(ManagerKind::Hma).mgr.hma_interval,
            Picos::from_ms(20)
        );
    }

    #[test]
    fn smoke_opts_shrink_everything() {
        let o = Opts {
            smoke: true,
            requests: None,
            workloads: None,
            seed: 1,
        };
        assert_eq!(o.requests_or(6_000_000), 120_000);
        assert_eq!(o.full_suite().len(), 3);
        assert!(o.system().geometry.total_bytes() < 1 << 30);
    }

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn smoke_results_never_overwrite_full_scale_ones() {
        let full = parse(&[]).expect("no args");
        let smoke = parse(&["--smoke"]).expect("smoke");
        assert_eq!(
            full.results_path("fig8"),
            PathBuf::from("results/fig8.json")
        );
        assert_eq!(
            smoke.results_path("fig8"),
            PathBuf::from("results/fig8.smoke.json")
        );
    }

    #[test]
    fn all_expands_to_the_whole_suite() {
        let names = |o: &Opts| -> Vec<String> {
            o.sweep_suite()
                .iter()
                .map(|s| s.name().to_string())
                .collect()
        };
        let suite: Vec<String> = WorkloadSpec::all_workloads()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        let all = parse(&["--workloads", "all"]).expect("all");
        assert_eq!(names(&all), suite);
        assert_eq!(all.full_suite().len(), 29);
        // A workload also covered by `all` runs once, in first-named order.
        let gcc_all = parse(&["--smoke", "--workloads", "gcc,all"]).expect("gcc,all");
        let got = names(&gcc_all);
        assert_eq!(got.len(), 29);
        assert_eq!(got[0], "gcc");
        assert_eq!(gcc_all.full_suite().len(), 29);
    }

    #[test]
    fn bad_arguments_are_errors() {
        let err = |args: &[&str]| parse(args).expect_err("rejected");
        assert!(err(&["--bogus"]).starts_with("unknown argument \"--bogus\""));
        assert_eq!(err(&["--requests"]), "--requests needs a value");
        assert_eq!(
            err(&["--requests", "abc"]),
            "--requests expects an integer, got \"abc\""
        );
        assert_eq!(err(&["--requests", "0"]), "--requests must be at least 1");
        assert_eq!(
            err(&["--seed", "-1"]),
            "--seed expects an integer, got \"-1\""
        );
        assert_eq!(
            err(&["--workloads", "gcc,nope"]),
            "unknown workload \"nope\""
        );
        let ok = parse(&[
            "--smoke",
            "--requests",
            "9",
            "--seed",
            "3",
            "--workloads",
            "mix1",
        ])
        .expect("valid");
        assert!(ok.smoke);
        assert_eq!((ok.requests, ok.seed), (Some(9), 3));
        assert_eq!(ok.workload_specs(&[]).len(), 1);
    }
}
