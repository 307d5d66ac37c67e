//! `simrun`, `tracelens` and the `Opts`-driven experiment binaries reject
//! bad command-line input and unusable files with an `error:` line and
//! exit status 2, never a panic; `simrun` says how many shards a run used.

use std::process::Command;

const SIMRUN: &str = env!("CARGO_BIN_EXE_simrun");
const TRACELENS: &str = env!("CARGO_BIN_EXE_tracelens");
const TABLE2: &str = env!("CARGO_BIN_EXE_table2_config");
const SCALING: &str = env!("CARGO_BIN_EXE_scaling_costs");

/// Runs the binary at `bin` with `args` and asserts a clean input error
/// whose message contains `expected`.
fn assert_input_error(bin: &str, args: &[&str], expected: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(expected),
        "{args:?}: expected {expected:?} in {stderr:?}"
    );
}

#[test]
fn non_integer_values_are_input_errors() {
    for flag in [
        "--requests",
        "--seed",
        "--epoch-us",
        "--mea-entries",
        "--mea-bits",
        "--cache-kb",
        "--span-ppm",
        "--shards",
        "--faults",
        "--channel-faults",
        "--fault-seed",
    ] {
        assert_input_error(
            SIMRUN,
            &[flag, "abc"],
            &format!("{flag} expects an integer, got \"abc\""),
        );
    }
    assert_input_error(
        SIMRUN,
        &["--requests", "-5"],
        "--requests expects an integer, got \"-5\"",
    );
}

#[test]
fn a_missing_value_is_an_input_error() {
    assert_input_error(
        SIMRUN,
        &["--smoke", "--requests"],
        "--requests needs a value",
    );
    assert_input_error(SIMRUN, &["--workload"], "--workload needs a value");
}

#[test]
fn unknown_flags_managers_and_workloads_are_input_errors() {
    assert_input_error(SIMRUN, &["--bogus"], "unknown argument \"--bogus\"");
    assert_input_error(SIMRUN, &["--manager", "nope"], "unknown manager \"nope\"");
    assert_input_error(SIMRUN, &["--workload", "nope"], "unknown workload \"nope\"");
}

#[test]
fn out_of_range_values_are_input_errors() {
    for flag in ["--requests", "--shards", "--epoch-us", "--mea-entries"] {
        assert_input_error(SIMRUN, &[flag, "0"], &format!("{flag} must be at least 1"));
    }
    assert_input_error(
        SIMRUN,
        &["--mea-bits", "0"],
        "--mea-bits must be between 1 and 64",
    );
    assert_input_error(
        SIMRUN,
        &["--mea-bits", "65"],
        "--mea-bits must be between 1 and 64",
    );
    for flag in ["--faults", "--channel-faults", "--span-ppm"] {
        assert_input_error(
            SIMRUN,
            &[flag, "5000000"],
            &format!("{flag} must be between 0 and 1000000"),
        );
    }
}

#[test]
fn cache_sizes_outside_the_remap_table_are_input_errors() {
    // The paper system's remap table: 4,718,592 pages × 8 B = 36,864 KB.
    let expected = "--cache-kb must be between 1 and 36864";
    for kb in ["0", "36865", "18014398509481984", "18446744073709551615"] {
        for manager in ["thm", "hma", "mempod"] {
            assert_input_error(SIMRUN, &["--manager", manager, "--cache-kb", kb], expected);
        }
    }
    // The tiny geometry bounds it by its own table: 18,432 pages × 8 B.
    assert_input_error(
        SIMRUN,
        &["--smoke", "--cache-kb", "145"],
        "--cache-kb must be between 1 and 144",
    );
}

#[test]
fn unopenable_output_files_are_input_errors() {
    let missing = "/nonexistent-dir/x.jsonl";
    for (flag, what) in [("--timeline", "timeline"), ("--trace-out", "trace")] {
        assert_input_error(
            SIMRUN,
            &["--smoke", "--requests", "10", flag, missing],
            &format!("cannot open {what} file {missing}"),
        );
    }
}

/// `/dev/full` opens but fails every write, so the run must end with an
/// error rather than report a file it never wrote.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_output_files_are_errors() {
    for (flag, what) in [("--timeline", "timeline"), ("--trace-out", "trace")] {
        assert_input_error(
            SIMRUN,
            &["--smoke", "--requests", "20000", flag, "/dev/full"],
            &format!("cannot write {what} file /dev/full"),
        );
    }
}

/// A span flag with no output file to record into is an input error,
/// not a run that silently traces nothing.
#[test]
fn span_flags_without_an_output_file_are_input_errors() {
    for flags in [&["--spans"][..], &["--span-ppm", "100"], &["--exec-spans"]] {
        let args = [&["--smoke", "--requests", "10"][..], flags].concat();
        assert_input_error(
            SIMRUN,
            &args,
            &format!("{} needs --timeline or --trace-out", flags[0]),
        );
    }
}

/// `--exec-spans` turns span tracing on by itself: a JSONL timeline
/// records the shard batch windows without `--spans`, also for a run that
/// ends in its first batch.
#[test]
fn exec_spans_alone_record_shard_batches_in_the_timeline() {
    let dir = std::env::temp_dir().join(format!("simrun-exec-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let timeline = dir.join("timeline.jsonl");
    for requests in ["2000", "20000"] {
        let out = Command::new(SIMRUN)
            .args(["--smoke", "--requests", requests, "--shards", "2"])
            .args([
                "--exec-spans".as_ref(),
                "--timeline".as_ref(),
                timeline.as_os_str(),
            ])
            .current_dir(&dir)
            .output()
            .expect("simrun starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let text = std::fs::read_to_string(&timeline).expect("timeline written");
        assert!(
            text.contains("\"ShardBatch\""),
            "no shard batch spans at {requests} requests"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracelens_input_errors_are_clean() {
    let missing = "/nonexistent-dir/trace.json";
    assert_input_error(
        TRACELENS,
        &[missing],
        &format!("cannot read trace file {missing}"),
    );
    assert_input_error(
        TRACELENS,
        &[missing, "--hottest", "abc"],
        "--hottest expects an integer, got \"abc\"",
    );
    assert_input_error(TRACELENS, &["--bogus"], "unknown argument \"--bogus\"");
    assert_input_error(TRACELENS, &[], "missing FILE");
    assert_input_error(TRACELENS, &["--self-check"], "missing FILE");
}

#[test]
fn experiment_binary_input_errors_are_clean() {
    // Every figure and table binary parses its flags through `Opts`.
    assert_input_error(TABLE2, &["--bogus"], "unknown argument \"--bogus\"");
    assert_input_error(
        TABLE2,
        &["--requests", "abc"],
        "--requests expects an integer, got \"abc\"",
    );
    assert_input_error(
        TABLE2,
        &["--workloads", "nope"],
        "unknown workload \"nope\"",
    );
    // The tables and `scaling_costs` simulate no trace, so they take only
    // `--smoke`; a well-formed trace flag is an error, not ignored.
    let smoke_only = "does not apply here; this binary accepts only --smoke";
    assert_input_error(
        TABLE2,
        &["--workloads", "gcc"],
        &format!("--workloads {smoke_only}"),
    );
    assert_input_error(
        SCALING,
        &["--requests", "5"],
        &format!("--requests {smoke_only}"),
    );
}

/// `--shards N` is clamped to what the layout and the manager's migration
/// domains allow, and `simrun` prints the count that ran: CAMEO's
/// pod-aligned congruence groups take all 4 of the tiny geometry's
/// shards, while THM reports one migration domain and takes 1.
#[test]
fn simrun_reports_the_effective_shard_count() {
    // The run saves its report under `results/`: keep it out of the tree.
    let dir = std::env::temp_dir().join(format!("simrun-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (manager, effective) in [("cameo", 4), ("thm", 1)] {
        let out = Command::new(SIMRUN)
            .args(["--smoke", "--requests", "2000", "--manager", manager])
            .args(["--shards", "4"])
            .current_dir(&dir)
            .output()
            .expect("simrun starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{manager}: {stdout}");
        let want = format!("shards     : {effective} of 4 requested");
        assert!(
            stdout.contains(&want),
            "{manager}: expected {want:?} in {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// On Linux the summary reports the process's peak resident set, read
/// from `VmHWM`.
#[cfg(target_os = "linux")]
#[test]
fn simrun_reports_its_peak_resident_set() {
    let dir = std::env::temp_dir().join(format!("simrun-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(SIMRUN)
        .args(["--smoke", "--requests", "2000"])
        .current_dir(&dir)
        .output()
        .expect("simrun starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let mb: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("host peak  : "))
        .and_then(|rest| rest.strip_suffix(" MB resident"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no host peak line in {stdout}"));
    assert!(mb > 0.0, "{mb}");
    let _ = std::fs::remove_dir_all(&dir);
}
