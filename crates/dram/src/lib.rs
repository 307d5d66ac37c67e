//! Event-driven, cycle-level DRAM timing model — the suite's Ramulator stand-in.
//!
//! The paper evaluates MemPod on an extended Ramulator modeling 1 GB of
//! die-stacked HBM (8 channels) plus 8 GB of DDR4-1600 (4 channels), with the
//! Table 2 timing parameters. This crate reimplements the memory side:
//!
//! * [`timing`] — per-technology timing parameters (`tCAS-tRCD-tRP-tRAS`,
//!   bus clock, burst time) with presets for HBM, DDR4-1600, DDR4-2400 and
//!   the overclocked 4 GHz HBM of the paper's Fig. 10.
//! * [`channel`] — one memory channel: banks with open-row state, a
//!   FR-FCFS scheduler, a serialized data bus, and row-hit statistics.
//! * [`mapper`] — frame/line → (channel, bank, row, column) address layout.
//! * [`system`] — a [`MemorySystem`] aggregating fast and slow channels
//!   behind one submit/drain interface.
//!
//! The model is *event-driven*: each channel keeps per-bank next-ready
//! timestamps and advances straight to the next schedulable command instead
//! of ticking every cycle, which is what makes the paper's multi-million
//! request sweeps tractable while preserving row-buffer and bank-conflict
//! behaviour.
//!
//! # Examples
//!
//! ```
//! use mempod_dram::{MemLayout, MemorySystem};
//! use mempod_types::{AccessKind, FrameId, Picos};
//!
//! let layout = MemLayout::paper_default();
//! let mut mem = MemorySystem::new(layout);
//! let t = mem.submit(FrameId(0), 3, AccessKind::Read, Picos::ZERO);
//! let done = mem.drain_all();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].completion > Picos::ZERO);
//! # let _ = t;
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

pub mod channel;
pub mod mapper;
pub mod system;
pub mod timing;

pub use channel::{Channel, ChannelProbe, ChannelStats, Priority, ReqToken};
pub use mapper::{AddressMapper, Interleave, PhysLoc};
pub use system::{Completion, MemLayout, MemorySystem, SystemStats};
pub use timing::DramTiming;
