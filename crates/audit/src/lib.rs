//! Workspace guardrails for the MemPod reproduction suite.
//!
//! Two halves, sharing one crate so the rules and the machinery that
//! enforces them version together:
//!
//! * The static-analysis engine behind
//!   `cargo run -p mempod-audit -- lint`, built on a real source model:
//!   - [`lexer`] — a dependency-free Rust tokenizer (raw strings, nested
//!     block comments, doc comments, lifetimes vs chars).
//!   - [`parser`] — an item-level parser: functions with bodies and
//!     return types, inline/declared modules, impl blocks, `#[cfg(test)]`
//!     inheritance, doc/`#[must_use]` attribution, struct fields.
//!   - [`callgraph`] — the workspace module graph plus an approximate
//!     name-based call graph; rule coverage (hot-path, print, cast sets)
//!     is *derived* from reachability off the simulation entry points
//!     instead of hand-maintained file lists, and the per-request tick
//!     phase is the same reachability stopped at the epoch barriers.
//!   - [`rules`] — the rule families: hot-path panic/print bans,
//!     lossy-cast ban, pub-API doc/`Debug` coverage, unit-mismatch,
//!     unchecked address arithmetic, ignored `Result`s, the determinism
//!     family (`nondet-iter`/`nondet-float-reduce`/`nondet-clock`/
//!     `interior-mut`), `unsampled-span`, and the `coverage-gap`
//!     meta-lint that flags pipeline modules escaping the derived
//!     coverage.
//!   - [`sync_pass`] — the concurrency rules: lock-acquisition-order
//!     cycle detection and acquire/release pairing of atomics.
//!   - [`baseline`] — `--deny-new` support: a committed baseline of
//!     frozen debt, with stale-entry reporting so it only shrinks.
//!   - [`lint`] — the orchestrator tying those together, with a JSON
//!     report and a content-anchored allowlist.
//! * [`runtime`] — the [`InvariantAuditor`] plus the
//!   [`audit!`]/[`audit_invariant!`] macro family, which the migration
//!   pipeline invokes at (sampled) epoch boundaries when built with the
//!   `debug-invariants` feature: remap-table bijection per pod,
//!   frame-ownership conservation across managers, monotonic simulated
//!   time in the DRAM channels, and migration-count conservation between
//!   tracker and migration engine.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod rules;
pub mod runtime;
pub mod sync_pass;

pub use baseline::{Baseline, BaselineEntry};
pub use callgraph::{derive_coverage, Coverage, Model};
pub use lint::{run_lint, Allowlist, LintReport, Violation};
pub use runtime::InvariantAuditor;
