//! Runtime invariant auditing for the MemPod reproduction suite.
//!
//! [`runtime`] holds the [`InvariantAuditor`] plus the
//! [`audit!`]/[`audit_invariant!`] macro family, which the migration
//! pipeline invokes at (sampled) epoch boundaries when built with the
//! `debug-invariants` feature: remap-table bijection per pod,
//! frame-ownership conservation across managers, monotonic simulated
//! time in the DRAM channels, and migration-count conservation between
//! tracker and migration engine.
//!
//! The static source rules (hot-path panics, lossy casts, wall-clock
//! reads, hash-order iteration, interior mutability) are compiler lints:
//! see the root `clippy.toml` and each pipeline crate's `#![warn]` list.

pub mod runtime;

pub use runtime::InvariantAuditor;
