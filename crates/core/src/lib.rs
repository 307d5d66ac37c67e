//! Flat-address-space migration managers: MemPod and the state of the art.
//!
//! This crate implements the paper's contribution and every baseline it
//! compares against, all behind the [`MemoryManager`] trait:
//!
//! | Manager | Granularity | Flexibility | Tracking | Trigger | Paper section |
//! |---|---|---|---|---|---|
//! | [`MemPodManager`] | 2 KB page | any-to-any within a pod | MEA | 50 µs interval | §5 |
//! | [`HmaManager`] | 2 KB page | unrestricted | full counters | 100 ms interval + sort stall | §2 (HPCA'15) |
//! | [`ThmManager`] | 2 KB page | within 1+8 segment | competing counters | threshold | §2 (MICRO'14) |
//! | [`CameoManager`] | 64 B line | within 1+8 group | none | every slow access | §2 (MICRO'14) |
//! | [`StaticManager`] | — | none | none | never | baselines (TLM / HBM-only / DDR-only) |
//!
//! Managers are *policy only*: they translate original pages to physical
//! frames, observe traffic, and emit [`Migration`]s. The timing consequences
//! (injected swap traffic, blocked pages, metadata-cache-miss reads) are
//! applied by the system simulator in `mempod-sim`.
//!
//! # Examples
//!
//! ```
//! use mempod_core::{build_manager, ManagerConfig, ManagerKind, MemoryManager};
//! use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
//!
//! let cfg = ManagerConfig::tiny();
//! let mut mgr = build_manager(ManagerKind::MemPod, &cfg);
//! let req = MemRequest::new(Addr(0), AccessKind::Read, Picos::ZERO, CoreId(0));
//! let out = mgr.on_access(&req);
//! assert_eq!(out.frame.0, 0); // identity before any migration
//! ```

// Pipeline rules (DESIGN.md §8): no panics, prints, lossy casts,
// wall-clock reads, hash-order iteration or interior mutability outside
// tests. The `disallowed_*` lists live in the root clippy.toml.
#![cfg_attr(
    not(test),
    warn(
        missing_docs,
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

pub mod cameo;
pub mod costs;
pub mod energy;
pub mod hma;
pub mod llp;
pub mod manager;
pub mod mempod;
pub mod meta_cache;
pub mod migration;
pub mod remap;
pub mod segment;
pub mod statics;
pub mod thm;

pub use cameo::CameoManager;
pub use costs::{storage_cost_table, CostRow};
pub use energy::EnergyModel;
pub use hma::HmaManager;
pub use llp::{LineLocationPredictor, LlpStats};
pub use manager::{
    build_manager, AccessOutcome, ManagerConfig, ManagerKind, MemoryManager, MigrationStats,
};
pub use mempod::MemPodManager;
pub use meta_cache::{MetaCache, MetaCacheStats};
pub use migration::{Migration, PAGE_SWAP_LINES};
pub use remap::RemapTable;
pub use segment::{SegmentLayout, SegmentMap};
pub use statics::StaticManager;
pub use thm::ThmManager;
