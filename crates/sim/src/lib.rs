//! Full-system two-level-memory simulator.
//!
//! This crate ties the suite together: it drives a [`Trace`] through a
//! migration [`MemoryManager`] and the cycle-level [`MemorySystem`],
//! accounting the paper's headline metric — **AMMAT** (Average Main Memory
//! Access Time): total memory stall time divided by the number of *original*
//! trace requests. Migration traffic, metadata-cache-miss fetches, HMA's
//! sort freeze, and blocking of in-flight-migration pages all inflate the
//! numerator, never the denominator (paper §6.2).
//!
//! * [`config`] — [`SimConfig`]: manager choice + manager/timing parameters.
//! * [`simulator`] — the event loop (translate → inject → drain → account).
//! * [`metrics`] — [`SimReport`] and cross-run aggregation helpers.
//! * [`provenance`] — per-page migration histories and ping-pong detection.
//!
//! [`Trace`]: mempod_trace::Trace
//! [`MemoryManager`]: mempod_core::MemoryManager
//! [`MemorySystem`]: mempod_dram::MemorySystem
//!
//! # Examples
//!
//! ```
//! use mempod_sim::{SimConfig, Simulator};
//! use mempod_core::ManagerKind;
//! use mempod_trace::{TraceGenerator, WorkloadSpec};
//! use mempod_types::SystemConfig;
//!
//! let system = SystemConfig::tiny();
//! let trace = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 42)
//!     .take_requests(5_000, &system.geometry);
//! let cfg = SimConfig::new(system, ManagerKind::MemPod);
//! let report = Simulator::new(cfg).expect("valid config").run(&trace);
//! assert!(report.ammat_ps().expect("non-empty trace") > 0.0);
//! assert_eq!(report.requests, 5_000);
//! ```

// Pipeline rules (DESIGN.md §8): no panics, prints, lossy casts,
// wall-clock reads, hash-order iteration or interior mutability outside
// tests. The `disallowed_*` lists live in the root clippy.toml.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::iter_over_hash_type
    )
)]

pub mod config;
pub mod metrics;
pub mod provenance;
mod shard;
pub mod simulator;

pub use config::{SimConfig, SimError};
pub use metrics::{geometric_mean, normalize_to, FaultSummary, SimReport};
pub use provenance::{PageMove, PageProvenance, ProvenanceLedger, ProvenanceSummary};
pub use simulator::Simulator;
