//! `simrun`, `tracelens` and the `Opts`-driven experiment binaries reject
//! bad command-line input and unusable files with an `error:` line and
//! exit status 2, never a panic.

use std::process::Command;

const SIMRUN: &str = env!("CARGO_BIN_EXE_simrun");
const TRACELENS: &str = env!("CARGO_BIN_EXE_tracelens");
const TABLE2: &str = env!("CARGO_BIN_EXE_table2_config");

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
}
