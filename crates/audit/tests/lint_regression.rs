//! Regression tests for the lint engine against workspace-shaped fixture
//! trees (each crate with a `Cargo.toml`, a `lib.rs`, and modules wired to
//! the simulation entry points, so the derived coverage behaves as it does
//! on the real tree): a clean tree passes, planted violations are found
//! with file/line/rule, lexer edge cases don't confuse the rules, the
//! meta-lint catches a deliberately omitted pipeline module, the derived
//! coverage is a strict superset of the PR 1 hardcoded file lists, and the
//! CLI honors the exit-code contract (0 clean / 1 blocking / 3 stale
//! allowlist) plus the `--write-baseline` → `--deny-new` flow.

use std::path::{Path, PathBuf};
use std::process::Command;

use mempod_audit::callgraph::derive_coverage;
use mempod_audit::lint::{LEGACY_CAST_FILES, LEGACY_HOT_PATH_FILES, LEGACY_PRINT_FILES};
use mempod_audit::{run_lint, Allowlist, Model};

/// Clean module bodies, each exposing a `hook_*` function that
/// `sim_step` (below) calls so every pipeline file is reachable.
const FIXTURE_FILES: &[(&str, &str)] = &[
    (
        "crates/dram/Cargo.toml",
        "[package]\nname = \"mempod-dram\"\n",
    ),
    (
        "crates/dram/src/lib.rs",
        "//! Fixture crate.\npub mod channel;\npub mod mapper;\npub mod system;\n",
    ),
    (
        "crates/dram/src/channel.rs",
        "//! Fixture module.\nfn hook_channel() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/dram/src/mapper.rs",
        "//! Fixture module.\nfn hook_mapper() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/dram/src/system.rs",
        "//! Fixture module.\nfn hook_system() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/sim/Cargo.toml",
        "[package]\nname = \"mempod-sim\"\n",
    ),
    (
        "crates/sim/src/lib.rs",
        "//! Fixture crate.\npub mod runner;\npub mod simulator;\n",
    ),
    (
        "crates/sim/src/runner.rs",
        "//! Fixture module.\npub fn try_run_jobs() { sim_step(); }\n",
    ),
    (
        "crates/sim/src/simulator.rs",
        "//! Fixture module.\npub struct Simulator;\nimpl Simulator {\n    \
         pub fn run(self) { sim_step(); }\n}\nfn sim_step() {\n    \
         hook_channel();\n    hook_mapper();\n    hook_system();\n    \
         hook_manager();\n    hook_mempod();\n    hook_hma();\n    \
         hook_thm();\n    hook_cameo();\n}\n",
    ),
    (
        "crates/core/Cargo.toml",
        "[package]\nname = \"mempod-core\"\n",
    ),
    (
        "crates/core/src/lib.rs",
        "//! Fixture crate.\npub mod cameo;\npub mod hma;\npub mod manager;\n\
         pub mod mempod;\npub mod thm;\n",
    ),
    (
        "crates/core/src/manager.rs",
        "//! Fixture module.\nfn hook_manager() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/core/src/mempod.rs",
        "//! Fixture module.\nfn hook_mempod() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/core/src/hma.rs",
        "//! Fixture module.\nfn hook_hma() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/core/src/thm.rs",
        "//! Fixture module.\nfn hook_thm() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/core/src/cameo.rs",
        "//! Fixture module.\nfn hook_cameo() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/telemetry/Cargo.toml",
        "[package]\nname = \"mempod-telemetry\"\n",
    ),
    (
        "crates/telemetry/src/lib.rs",
        "//! Fixture crate.\npub mod metrics;\n",
    ),
    (
        "crates/telemetry/src/metrics.rs",
        "//! Fixture module.\nfn telemetry_note() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/types/Cargo.toml",
        "[package]\nname = \"mempod-types\"\n",
    ),
    (
        "crates/types/src/lib.rs",
        "//! Fixture crate.\npub mod addr;\npub mod geometry;\n",
    ),
    (
        "crates/types/src/addr.rs",
        "//! Fixture module.\nfn addr_helper() -> u64 { 41 + 1 }\n",
    ),
    (
        "crates/types/src/geometry.rs",
        "//! Fixture module.\nfn geometry_helper() -> u64 { 41 + 1 }\n",
    ),
];

/// Builds a workspace-shaped fixture tree under a unique temp directory.
fn fixture_tree(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("mempod-audit-fixture-{tag}-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("stale fixture removed");
    }
    for (rel, content) in FIXTURE_FILES {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, content).expect("write stub");
    }
    root
}

fn plant(root: &Path, rel: &str, content: &str) {
    std::fs::write(root.join(rel), content).expect("write fixture");
}

#[test]
fn clean_tree_passes() {
    let root = fixture_tree("clean");
    let report = run_lint(&root, &Allowlist::default());
    assert!(
        report.ok(),
        "clean fixture flagged: {:?}",
        report.violations
    );
    assert!(report.files_scanned >= 15);
    assert!(report.roots.contains(&"Simulator::run".to_string()));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planted_unwrap_is_found_with_file_line_and_rule() {
    let root = fixture_tree("unwrap");
    plant(
        &root,
        "crates/dram/src/channel.rs",
        "//! Fixture.\n\nfn hook_channel(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    assert!(!report.ok());
    let v = report.blocking().next().expect("one finding");
    assert_eq!(v.file, "crates/dram/src/channel.rs");
    assert_eq!(v.line, 4);
    assert_eq!(v.rule, "hot-path-panic");
    assert!(v.snippet.contains(".unwrap()"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planted_cast_is_found_but_checked_conversion_is_not() {
    let root = fixture_tree("cast");
    plant(
        &root,
        "crates/types/src/addr.rs",
        "//! Fixture.\n\nfn narrow(x: u64) -> u32 {\n    x as u32\n}\n",
    );
    plant(
        &root,
        "crates/types/src/geometry.rs",
        "//! Fixture.\n\nfn widen(x: u32) -> u64 {\n    u64::from(x)\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    let rules: Vec<(&str, &str)> = report
        .blocking()
        .map(|v| (v.file.as_str(), v.rule.as_str()))
        .collect();
    assert_eq!(rules, [("crates/types/src/addr.rs", "lossy-cast")]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planted_ab_ba_lock_pair_is_an_acquisition_cycle() {
    let root = fixture_tree("lock-order");
    plant(
        &root,
        "crates/sim/src/runner.rs",
        "//! Fixture.\npub fn try_run_jobs() { sim_step(); }\n\n\
         /// Takes `a`, then `b`.\npub fn forward(a: &Lock, b: &Lock) {\n    \
         let _ga = a.lock();\n    let _gb = b.lock();\n}\n\n\
         /// Takes `b`, then `a`.\npub fn backward(a: &Lock, b: &Lock) {\n    \
         let _gb = b.lock();\n    let _ga = a.lock();\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    let found: Vec<(&str, &str)> = report
        .blocking()
        .map(|v| (v.file.as_str(), v.rule.as_str()))
        .collect();
    assert_eq!(found, [("crates/sim/src/runner.rs", "lock-order-cycle")]);
    let v = report.blocking().next().expect("one finding");
    assert!(v.message.contains("{a, b}"), "{v:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planted_println_is_found_in_pipeline_and_telemetry_modules() {
    let root = fixture_tree("print");
    plant(
        &root,
        "crates/core/src/hma.rs",
        "//! Fixture.\n\nfn hook_hma() {\n    eprintln!(\"interval done\");\n}\n",
    );
    // Telemetry is print-covered in full by policy, reachable or not.
    plant(
        &root,
        "crates/telemetry/src/metrics.rs",
        "//! Fixture.\n\nfn chatty() {\n    println!(\"migrated!\");\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    let found: Vec<(&str, usize, &str)> = report
        .blocking()
        .map(|v| (v.file.as_str(), v.line, v.rule.as_str()))
        .collect();
    assert_eq!(
        found,
        [
            ("crates/core/src/hma.rs", 4, "hot-path-print"),
            ("crates/telemetry/src/metrics.rs", 4, "hot-path-print"),
        ],
        "{found:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cfg_test_regions_are_exempt() {
    let root = fixture_tree("cfgtest");
    plant(
        &root,
        "crates/core/src/mempod.rs",
        "//! Fixture.\n\nfn hook_mempod() {}\n\n#[cfg(test)]\nmod tests {\n    \
         #[test]\n    fn t() {\n        println!(\"{}\", Some(1).unwrap());\n    }\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    assert!(
        report.ok(),
        "test-only unwrap/println flagged: {:?}",
        report.violations
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Satellite: `#[cfg(test)]` attribution on *nested* modules and on impl
/// blocks — exercised through a full fixture tree, not just the parser.
#[test]
fn cfg_test_on_nested_modules_and_impl_blocks_is_exempt() {
    let root = fixture_tree("cfgtest-nested");
    plant(
        &root,
        "crates/core/src/thm.rs",
        "//! Fixture.\n\nfn hook_thm() {}\n\nmod outer {\n    \
         #[cfg(test)]\n    mod inner {\n        fn t(x: Option<u8>) -> u8 { x.unwrap() }\n    }\n}\n\
         \nstruct Probe;\n\n#[cfg(test)]\nimpl Probe {\n    \
         fn check(x: Option<u8>) -> u8 {\n        x.expect(\"test-only\")\n    }\n}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    assert!(
        report.ok(),
        "cfg(test) nested mod / impl flagged: {:?}",
        report.violations
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Satellite: raw strings and nested block comments must be opaque to the
/// rules — panicking constructs *inside literals or comments* are text.
#[test]
fn raw_strings_and_nested_comments_hide_rule_patterns() {
    let root = fixture_tree("lexer-edges");
    plant(
        &root,
        "crates/dram/src/mapper.rs",
        "//! Fixture.\n\nfn hook_mapper() -> &'static str {\n    \
         r#\"docs say: never x.unwrap() or panic!(\"boom\") here\"#\n}\n\n\
         /* outer /* println!(\"nested comment\") */ still a comment */\n\
         fn quiet() {}\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    assert!(
        report.ok(),
        "literal/comment content flagged: {:?}",
        report.violations
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn undocumented_pub_api_is_flagged() {
    let root = fixture_tree("docs");
    plant(
        &root,
        "crates/core/src/manager.rs",
        "//! Fixture.\n\nfn hook_manager() {}\n\npub struct Undocumented(u8);\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    let rules: Vec<&str> = report.blocking().map(|v| v.rule.as_str()).collect();
    assert!(rules.contains(&"missing-docs"), "{rules:?}");
    assert!(rules.contains(&"missing-debug"), "{rules:?}");
    std::fs::remove_dir_all(&root).ok();
}

/// Satellite: the `coverage-gap` meta-lint catches a pipeline module that
/// is wired into the module tree but deliberately omitted from the call
/// graph — the failure mode that silently rotted PR 1's hardcoded lists.
#[test]
fn deliberately_omitted_pipeline_module_fails_the_meta_lint() {
    let root = fixture_tree("omitted");
    plant(
        &root,
        "crates/core/src/lib.rs",
        "//! Fixture crate.\npub mod cameo;\npub mod hma;\npub mod manager;\n\
         pub mod mempod;\npub mod orphaned;\npub mod thm;\n",
    );
    plant(
        &root,
        "crates/core/src/orphaned.rs",
        "//! A migration helper nobody calls.\nfn plan_migration() -> u64 { 7 }\n",
    );
    let report = run_lint(&root, &Allowlist::default());
    let gaps: Vec<&str> = report
        .blocking()
        .filter(|v| v.rule == "coverage-gap")
        .map(|v| v.file.as_str())
        .collect();
    assert_eq!(
        gaps,
        ["crates/core/src/orphaned.rs"],
        "{:?}",
        report.violations
    );
    // The orphan is also excluded from the derived hot set.
    assert!(!report.coverage.hot.contains("crates/core/src/orphaned.rs"));
    std::fs::remove_dir_all(&root).ok();
}

/// Acceptance: on the real workspace, the derived coverage is a strict
/// superset of every file PR 1 hardcoded — the derivation may only ever
/// widen coverage.
#[test]
fn derived_coverage_supersets_legacy_hardcoded_lists() {
    let real_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let model = Model::build(&real_root).expect("real workspace model");
    let cov = derive_coverage(&model);
    for f in LEGACY_HOT_PATH_FILES {
        assert!(cov.hot.contains(*f), "hot set lost legacy file {f}");
    }
    for f in LEGACY_PRINT_FILES {
        assert!(cov.print.contains(*f), "print set lost legacy file {f}");
    }
    for f in LEGACY_CAST_FILES {
        assert!(cov.cast.contains(*f), "cast set lost legacy file {f}");
    }
    // Strictness: the derivation reaches files the hardcoded lists missed.
    for f in [
        "crates/core/src/migration.rs",
        "crates/core/src/remap.rs",
        "crates/core/src/segment.rs",
    ] {
        assert!(cov.hot.contains(f), "derived hot set must include {f}");
    }
    assert!(cov.hot.len() > LEGACY_HOT_PATH_FILES.len());
    assert!(cov.print.len() > LEGACY_PRINT_FILES.len());
    assert!(cov.cast.len() > LEGACY_CAST_FILES.len());
}

#[test]
fn allowlist_grandfathers_named_findings_only() {
    let root = fixture_tree("allow");
    plant(
        &root,
        "crates/dram/src/channel.rs",
        "//! Fixture.\n\nfn hook_channel(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let allow = Allowlist::from_json(
        r#"[{"file": "crates/dram/src/channel.rs",
             "rule": "hot-path-panic",
             "line_contains": "x.unwrap()"}]"#,
    )
    .expect("valid allowlist");
    let report = run_lint(&root, &allow);
    assert!(report.ok(), "allowlisted finding still blocks");
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].allowed);
    // The same allowlist does not cover a different rule or file.
    assert!(!allow.permits("crates/dram/src/mapper.rs", "hot-path-panic", "x.unwrap()"));
    assert!(!allow.permits("crates/dram/src/channel.rs", "lossy-cast", "x.unwrap()"));
    std::fs::remove_dir_all(&root).ok();
}

/// Satellite: an allowlist entry matching nothing is itself an error —
/// exemptions must not outlive their violations.
#[test]
fn unused_allowlist_entry_blocks_an_otherwise_clean_tree() {
    let root = fixture_tree("stale-allow");
    let allow = Allowlist::from_json(
        r#"[{"file": "crates/dram/src/channel.rs",
             "rule": "hot-path-panic",
             "line_contains": "long_since_fixed()"}]"#,
    )
    .expect("valid allowlist");
    let report = run_lint(&root, &allow);
    assert_eq!(report.blocking().count(), 0);
    assert_eq!(report.stale_allowlist.len(), 1);
    assert!(report.stale_allowlist[0].contains("long_since_fixed"));
    assert!(!report.ok(), "stale allowlist must fail the run");
    std::fs::remove_dir_all(&root).ok();
}

/// End-to-end CLI contract: exit 0 + `"ok": true` JSON on a clean tree,
/// exit 1 + a JSON report naming file/line/rule on a violation, exit 3
/// when the only problem is a stale allowlist entry.
#[test]
fn cli_exit_codes_and_json_report() {
    let bin = env!("CARGO_BIN_EXE_mempod-audit");

    let clean = fixture_tree("cli-clean");
    let out = Command::new(bin)
        .args(["lint", "--root"])
        .arg(&clean)
        .output()
        .expect("run CLI");
    assert!(out.status.success(), "clean tree must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    std::fs::remove_dir_all(&clean).ok();

    let dirty = fixture_tree("cli-dirty");
    plant(
        &dirty,
        "crates/sim/src/runner.rs",
        "//! Fixture.\n\npub fn try_run_jobs() {\n    panic!(\"no\");\n}\n",
    );
    let out = Command::new(bin)
        .args(["lint", "--root"])
        .arg(&dirty)
        .output()
        .expect("run CLI");
    assert_eq!(out.status.code(), Some(1), "violation must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/sim/src/runner.rs"), "{stdout}");
    assert!(stdout.contains("\"line\": 4"), "{stdout}");
    assert!(stdout.contains("hot-path-panic"), "{stdout}");
    std::fs::remove_dir_all(&dirty).ok();

    let stale = fixture_tree("cli-stale");
    std::fs::write(
        stale.join("audit.allowlist.json"),
        r#"[{"file": "crates/dram/src/channel.rs",
             "rule": "hot-path-panic",
             "line_contains": "long_since_fixed()"}]"#,
    )
    .expect("write allowlist");
    let out = Command::new(bin)
        .args(["lint", "--root"])
        .arg(&stale)
        .output()
        .expect("run CLI");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stale allowlist alone must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&stale).ok();
}

/// The retired `effects` and `sync` subcommands are unknown commands now:
/// usage error, exit 2, with the usage text.
#[test]
fn cli_retired_subcommands_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_mempod-audit");
    for cmd in ["effects", "sync"] {
        let out = Command::new(bin).arg(cmd).output().expect("run CLI");
        assert_eq!(out.status.code(), Some(2), "`{cmd}` must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mempod-audit lint"), "{stderr}");
    }
}

/// End-to-end `--deny-new` flow: freeze existing debt with
/// `--write-baseline`, pass under `--deny-new`, then fail once a *new*
/// finding appears.
#[test]
fn cli_baseline_freezes_debt_and_denies_new_findings() {
    let bin = env!("CARGO_BIN_EXE_mempod-audit");
    let root = fixture_tree("cli-baseline");
    plant(
        &root,
        "crates/dram/src/channel.rs",
        "//! Fixture.\n\nfn hook_channel(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );

    // Without a baseline: blocking.
    let out = Command::new(bin)
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("run CLI");
    assert_eq!(out.status.code(), Some(1));

    // Freeze the debt.
    let out = Command::new(bin)
        .args(["lint", "--write-baseline", "--root"])
        .arg(&root)
        .output()
        .expect("run CLI");
    assert!(out.status.success(), "--write-baseline must exit 0");
    assert!(root.join("audit.baseline.json").is_file());

    // Frozen debt passes under --deny-new.
    let out = Command::new(bin)
        .args(["lint", "--deny-new", "--root"])
        .arg(&root)
        .output()
        .expect("run CLI");
    assert!(
        out.status.success(),
        "baselined debt must pass --deny-new: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A new finding still fails.
    plant(
        &root,
        "crates/dram/src/system.rs",
        "//! Fixture.\n\nfn hook_system(y: Option<u32>) -> u32 {\n    y.expect(\"fresh debt\")\n}\n",
    );
    let out = Command::new(bin)
        .args(["lint", "--deny-new", "--root"])
        .arg(&root)
        .output()
        .expect("run CLI");
    assert_eq!(
        out.status.code(),
        Some(1),
        "new finding must fail --deny-new"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crates/dram/src/system.rs"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}
