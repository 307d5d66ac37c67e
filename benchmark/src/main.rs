//! End-to-end and per-layer host-performance benchmark for the MemPod
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 7
//! ```
//!
//! runs every workload five times, round-robin, each run a one-workload
//! child process, then one traced child per workload. It prints every
//! metric with its unit, and each end-to-end metric's median, quartiles and
//! run count, and writes `out/results_seed<N>.json` and
//! `out/<workload>.trace.json` under this package.
//!
//! `--workload NAME [--seconds S] [--trace 0|1]` runs one workload: with
//! `--trace 0` it samples for `S` seconds and reports the end-to-end
//! metrics, with `--trace 1` it runs the traced pass and reports the
//! per-layer ones. Its last line of output is one JSON object. `--smoke`
//! shrinks every run to the tiny geometry, 20k requests and one sample.
//! `compare A.json B.json` compares two results files.

mod calib;
mod compare;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mempod_sim::SimReport;
use serde_json::{json, Map, Value};

use calib::{Calibrator, REFERENCE_S};
use metrics::{layer_unit, EndToEnd, END_TO_END, PER_LAYER};
use stats::Summary;
use workloads::{digest, sample, Workload, WORKLOADS};

/// Default measuring window of a one-workload run.
const DEFAULT_SECONDS: f64 = 28.0;
/// One-workload runs per workload in the all-workload mode.
const RUNS: usize = 5;
/// Shard counts of the two timed cells: `sim_rps` and `sim_rps_2sh`.
const SHARDS: [u32; 2] = [1, 2];

const USAGE: &str = "usage: mempod-benchmark [--seed N] [--seconds S] [--smoke]\n\
    \x20      mempod-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \x20      mempod-benchmark compare A.json B.json";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(workloads::by_name(&v).ok_or(format!("unknown workload {v:?}"))?)
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse::<f64>().map_err(|_| bad())?.max(0.0),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = args.skip(1).collect();
        let [a, b] = files.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.trace) {
        (Some(w), false) => end_to_end_run(w, &args),
        (Some(w), true) => traced_run(w, &args),
        (None, _) => all_workloads(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where results and trace files go.
fn out_dir(smoke: bool) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed sample's wall times and the reference task's time around it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    setup_s: f64,
    run_s: f64,
    calib_s: f64,
}

/// The timed samples of one workload, and its failure accounting.
struct Cells {
    workload: &'static Workload,
    seed: u64,
    smoke: bool,
    /// The first report; every later sample, at any shard count, must equal it.
    reference: Option<SimReport>,
    timed: [Vec<Timed>; 2],
    /// Wall time of each cell's latest attempt, to keep within a deadline.
    last_s: [f64; 2],
    attempted: u64,
    failed: u64,
}

impl Cells {
    fn new(workload: &'static Workload, seed: u64, smoke: bool) -> Self {
        Cells {
            workload,
            seed,
            smoke,
            reference: None,
            timed: [Vec::new(), Vec::new()],
            last_s: [0.0; 2],
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one sample of cell `c` between two runs of the calibration
    /// task; a warm-up (no calibrator) is checked but not timed.
    fn run(&mut self, c: usize, calib: Option<&mut Calibrator>) {
        let start = Instant::now();
        self.attempted += 1;
        let (w, seed, smoke) = (self.workload, self.seed, self.smoke);
        // A panic is a failed sample; the hook has already printed why.
        let attempt = || catch_unwind(AssertUnwindSafe(|| sample(w, seed, smoke, SHARDS[c])));
        let (result, calib_s) = match calib {
            Some(calib) => {
                let (result, calib_s) = calib.around(attempt);
                (result, Some(calib_s))
            }
            None => (attempt(), None),
        };
        match result {
            Err(_) => self.failed += 1,
            Ok(s) => {
                let reference = self.reference.get_or_insert_with(|| s.report.clone());
                if *reference != s.report {
                    eprintln!(
                        "{}: the report at {} shard(s) differs from the first sample",
                        w.name, SHARDS[c]
                    );
                    self.failed += 1;
                } else if let Some(calib_s) = calib_s {
                    self.timed[c].push(Timed {
                        setup_s: s.setup_s,
                        run_s: s.run_s,
                        calib_s,
                    });
                }
            }
        }
        self.last_s[c] = start.elapsed().as_secs_f64();
    }

    fn ammat_ns(&self) -> Option<f64> {
        self.reference.as_ref().and_then(SimReport::ammat_ns)
    }

    fn digest(&self) -> String {
        self.reference
            .as_ref()
            .map_or_else(|| "none".into(), digest)
    }

    fn all_timed(&self) -> impl Iterator<Item = &Timed> {
        self.timed.iter().flatten()
    }

    /// Requests per second of cell `c` on the reference host: the cell's
    /// requests over its summed run times, times the calibration task's
    /// summed times around those samples over what they would sum to on
    /// the reference host. Sums, not medians: the host's speed during one
    /// sample is known only roughly, its mean over the run well.
    fn rps(&self, c: usize) -> Option<f64> {
        let t = &self.timed[c];
        if t.is_empty() {
            return None;
        }
        let n = self.workload.requests(self.smoke) as f64;
        let run_s: f64 = t.iter().map(|t| t.run_s).sum();
        let calib_s: f64 = t.iter().map(|t| t.calib_s).sum();
        Some(n * calib_s / (run_s * REFERENCE_S))
    }

    /// Median set-up time of every timed sample, each in seconds of the
    /// reference host by the calibration task around it.
    fn setup_s(&self) -> Option<f64> {
        let v: Vec<f64> = self
            .all_timed()
            .map(|t| t.setup_s * REFERENCE_S / t.calib_s)
            .collect();
        (!v.is_empty()).then(|| Summary::of(&v).median)
    }

    /// Every end-to-end metric that was measured, in table order.
    fn measured(&self, peak_rss_mb: Option<f64>) -> Vec<(&'static EndToEnd, f64)> {
        let values = [
            self.rps(0),
            self.rps(1),
            self.setup_s(),
            peak_rss_mb,
            self.ammat_ns(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .filter_map(|(m, v)| Some((m, v?)))
            .collect()
    }

    /// The host times as this host ran them, and the host's speed relative
    /// to the reference host; empty without timed samples.
    fn wall_clock(&self) -> Vec<(&'static str, f64)> {
        if self.timed.iter().any(Vec::is_empty) {
            return Vec::new();
        }
        let n = self.workload.requests(self.smoke) as f64;
        let rps = |t: &[Timed]| n * t.len() as f64 / t.iter().map(|t| t.run_s).sum::<f64>();
        let setups: Vec<f64> = self.all_timed().map(|t| t.setup_s).collect();
        let calib_s: f64 = self.all_timed().map(|t| t.calib_s).sum();
        vec![
            ("sim_rps", rps(&self.timed[0])),
            ("sim_rps_2sh", rps(&self.timed[1])),
            ("setup_s", Summary::of(&setups).median),
            ("host_speed", REFERENCE_S * setups.len() as f64 / calib_s),
        ]
    }
}

/// Prints the workload's header line.
fn print_header(w: &Workload, smoke: bool) {
    println!(
        "{:<22} {} on {} requests: {}",
        w.name,
        w.manager,
        w.requests(smoke),
        w.why
    );
}

fn print_wall_clock(name: &str, wall: &[(String, f64)]) {
    if wall.is_empty() {
        return;
    }
    let fields: Vec<String> = wall.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("{name:<22} wall_clock {}", fields.join(" "));
}

fn print_layers(name: &str, metrics: &[(&'static str, f64)]) {
    for m in &PER_LAYER {
        if let Some((_, v)) = metrics.iter().find(|(n, _)| *n == m.name) {
            println!(
                "{name:<22} {:<24} {:<14} value {v:<22} {:<6} is better; moves {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.moves
            );
        }
    }
}

fn print_ops(name: &str, attempted: u64, failed: u64, digest: &str) {
    println!("{name:<22} ops_attempted {attempted} ops_failed {failed} report_digest {digest}");
}

/// Prints the one-line JSON result of a one-workload run.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) {
    let metrics: Map<String, Value> = metrics
        .iter()
        .map(|&(name, unit, value)| (name.to_string(), json!({ "value": value, "unit": unit })))
        .collect();
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("values serialize")
    );
}

/// `--workload W --trace 0`: warm up, then alternate 1- and 2-shard
/// samples until the next one would end past the deadline.
fn end_to_end_run(w: &'static Workload, a: &Args) -> bool {
    let start = Instant::now();
    let mut cells = Cells::new(w, a.seed, a.smoke);
    cells.run(0, None);
    // Peak memory is read after this fresh process's first sample, before
    // the calibration table exists: later samples add heap the allocator
    // keeps, by an amount that grows with the sample count and so with
    // host speed.
    let peak_rss = peak_rss_mb();
    let mut calib = Calibrator::new();
    'rounds: for round in 0.. {
        for c in 0..SHARDS.len() {
            if round > 0 && start.elapsed().as_secs_f64() + cells.last_s[c] > a.seconds {
                break 'rounds;
            }
            cells.run(c, Some(&mut calib));
        }
    }
    let measured = cells.measured(peak_rss);
    print_header(w, a.smoke);
    for (m, v) in &measured {
        println!(
            "{:<22} {:<24} {:<14} value {v:<22} {}",
            w.name, m.name, m.unit, m.kind
        );
    }
    println!(
        "{:<22} samples 1_shard {} 2_shards {}",
        w.name,
        cells.timed[0].len(),
        cells.timed[1].len()
    );
    let wall: Vec<(String, f64)> = cells
        .wall_clock()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    print_wall_clock(w.name, &wall);
    print_ops(w.name, cells.attempted, cells.failed, &cells.digest());
    let correct = cells.failed == 0 && measured.len() == END_TO_END.len();
    let metrics: Vec<_> = measured.iter().map(|(m, v)| (m.name, m.unit, *v)).collect();
    print_result(correct, cells.attempted, cells.failed, &metrics);
    correct
}

/// `--workload W --trace 1`: the traced pass.
fn traced_run(w: &'static Workload, a: &Args) -> bool {
    let path = out_dir(a.smoke).join(format!("{}.trace.json", w.name));
    let result = catch_unwind(AssertUnwindSafe(|| {
        layers::traced_pass(w, a.seed, a.smoke, &path)
    }))
    .unwrap_or_else(|_| layers::LayerResult {
        attempted: 1,
        failed: 1,
        ..Default::default()
    });
    print_layers(w.name, &result.metrics);
    println!("{:<22} trace -> {}", w.name, path.display());
    let correct = result.failed == 0 && result.metrics.len() == PER_LAYER.len();
    let metrics: Vec<_> = result
        .metrics
        .iter()
        .map(|&(n, v)| (n, layer_unit(n), v))
        .collect();
    print_result(correct, result.attempted, result.failed, &metrics);
    correct
}

/// What a one-workload child run printed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Map<String, Value>,
    digest: Option<String>,
    wall_clock: Vec<(String, f64)>,
}

impl Child {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

/// Runs this binary on one workload in a child process and waits for it.
fn child(w: &Workload, a: &Args, extra: &[&str]) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("the running binary has a path"));
    cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
        .args(extra);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let stdout = cmd
        .stderr(Stdio::inherit())
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let fields = |what: &str| -> Option<Vec<String>> {
        stdout
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
            .find(|t| t.len() > 1 && t[0] == w.name && t[1] == what)
    };
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str::<Value>(l).ok());
    let get = |k: &str| parsed.as_ref().and_then(|v| v.get(k)).cloned();
    let wall_clock = fields("wall_clock").map_or_else(Vec::new, |t| {
        t[2..]
            .chunks(2)
            .filter_map(|kv| Some((kv[0].clone(), kv.get(1)?.parse().ok()?)))
            .collect()
    });
    Child {
        correct: get("correct").and_then(|v| v.as_bool()).unwrap_or(false),
        attempted: get("attempted").and_then(|v| v.as_u64()).unwrap_or(1),
        failed: get("failed").and_then(|v| v.as_u64()).unwrap_or(1),
        metrics: get("metrics")
            .and_then(|v| v.as_object().cloned())
            .unwrap_or_default(),
        digest: fields("ops_attempted").and_then(|t| t.get(6).cloned()),
        wall_clock,
    }
}

/// The all-workload run: `RUNS` one-workload child runs per workload,
/// round-robin, then a traced child per workload.
fn all_workloads(a: &Args) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (runs, seconds) = if a.smoke { (1, 0.0) } else { (RUNS, a.seconds) };
    println!(
        "mempod-benchmark: seed {}, {}, {runs} run(s) of {seconds} s per workload, {nproc} cores",
        a.seed,
        if a.smoke {
            "smoke scale"
        } else {
            "paper geometry"
        }
    );
    let seconds_arg = seconds.to_string();
    let mut all: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    // Round-robin, so drift in host speed hits every workload alike.
    for _ in 0..runs {
        for (w, done) in WORKLOADS.iter().zip(&mut all) {
            done.push(child(w, a, &["--trace", "0", "--seconds", &seconds_arg]));
        }
    }

    let mut ok = true;
    let mut results = Map::new();
    for (w, runs) in WORKLOADS.iter().zip(&all) {
        let layers = child(w, a, &["--trace", "1"]);
        let mut failed = layers.failed + runs.iter().map(|r| r.failed).sum::<u64>();
        let attempted = layers.attempted + runs.iter().map(|r| r.attempted).sum::<u64>();
        // Runs of one seed must simulate exactly the same thing.
        let digest = runs[0].digest.clone().unwrap_or_else(|| "none".into());
        if runs.iter().any(|r| r.digest.as_ref() != Some(&digest)) {
            eprintln!("{}: the runs' report digests differ", w.name);
            failed += 1;
        }
        ok &= failed == 0 && layers.correct && runs.iter().all(|r| r.correct);

        print_header(w, a.smoke);
        let mut e2e = Map::new();
        for m in &END_TO_END {
            let samples: Vec<f64> = runs.iter().filter_map(|r| r.value(m.name)).collect();
            if samples.len() < runs.len() {
                continue;
            }
            let s = Summary::of(&samples);
            println!(
                "{:<22} {:<24} {:<14} median {:<22} q1 {:<22} q3 {:<22} n {:<3} {}",
                w.name, m.name, m.unit, s.median, s.q1, s.q3, s.n, m.kind
            );
            let v = json!({
                "unit": m.unit,
                "median": s.median,
                "q1": s.q1,
                "q3": s.q3,
                "n": s.n,
                "samples": samples,
            });
            e2e.insert(m.name.to_string(), v);
        }
        // Median over the runs of each unadjusted host time.
        let wall: Vec<(String, f64)> = runs[0]
            .wall_clock
            .iter()
            .filter_map(|(k, _)| {
                let v: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.wall_clock.iter().find(|(rk, _)| rk == k).map(|p| p.1))
                    .collect();
                (v.len() == runs.len()).then(|| (k.clone(), Summary::of(&v).median))
            })
            .collect();
        print_wall_clock(w.name, &wall);
        let per_layer: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .filter_map(|m| Some((m.name, layers.value(m.name)?)))
            .collect();
        print_layers(w.name, &per_layer);
        print_ops(w.name, attempted, failed, &digest);
        ok &= e2e.len() == END_TO_END.len() && per_layer.len() == PER_LAYER.len();

        let layer: Map<String, Value> = per_layer
            .iter()
            .map(|&(name, v)| {
                (
                    name.to_string(),
                    json!({ "unit": layer_unit(name), "value": v }),
                )
            })
            .collect();
        let wall_json: Map<String, Value> = wall.into_iter().map(|(k, v)| (k, json!(v))).collect();
        let entry = json!({
            "manager": w.manager.to_string(),
            "requests": w.requests(a.smoke),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "report_digest": digest,
            "end_to_end": Value::Object(e2e),
            "wall_clock": Value::Object(wall_json),
            "per_layer": Value::Object(layer),
        });
        results.insert(w.name.to_string(), entry);
    }

    let doc = json!({
        "seed": a.seed,
        "smoke": a.smoke,
        "nproc": nproc,
        "runs": runs,
        "seconds_per_run": seconds,
        "workloads": Value::Object(results),
    });
    let path = out_dir(a.smoke).join(format!("results_seed{}.json", a.seed));
    let written = std::fs::create_dir_all(out_dir(a.smoke)).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("values serialize"),
        )
    });
    match written {
        Ok(()) => println!("results -> {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}
