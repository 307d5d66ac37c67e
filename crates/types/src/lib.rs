//! Foundational types shared by every crate in the MemPod reproduction suite.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * [`time`] — picosecond-resolution simulated time ([`Picos`]) and clock
//!   domains ([`Clock`]), so the 3.2 GHz CPU and the 1 GHz / 800 MHz memory
//!   buses compose without rounding drift.
//! * [`addr`] — byte addresses, page and line identifiers, and physical frame
//!   indices, each a distinct newtype so the type system separates the *name*
//!   of a page from the *place* it currently lives (the heart of a migration
//!   simulator).
//! * [`request`] — memory requests as they leave the last-level cache.
//! * [`geometry`] — the capacity layout of a two-level memory (fast HBM
//!   frames + slow DDR frames, pages, pods).
//! * [`config`] — the serializable top-level system configuration mirroring
//!   Table 2 of the paper.
//! * [`convert`] — checked integer conversions; clippy's cast lints ban
//!   lossy `as` casts in the pipeline crates, and these helpers are the
//!   sanctioned route for width changes.
//! * [`hash`] — the seedless multiplicative hasher every integer-keyed
//!   per-access map uses.
//!
//! # Examples
//!
//! ```
//! use mempod_types::{Geometry, PageId, Tier};
//!
//! // The paper's 1 GB HBM + 8 GB DDR4 system with 2 KB pages and 4 pods.
//! let geo = Geometry::paper_default();
//! assert_eq!(geo.total_pages(), 4_718_592); // the paper's "4.5M" pages
//! assert_eq!(geo.pages_per_pod(), 1_179_648); // the paper's "1.1M" pages/pod
//! assert_eq!(geo.tier_of_page(PageId(0)), Tier::Fast);
//! ```

// Shared-type rules (DESIGN.md §8): no lossy casts outside the
// `convert` helpers, and every public item documented.
#![cfg_attr(
    not(test),
    warn(
        missing_docs,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

pub mod addr;
pub mod config;
pub mod convert;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod hash;
pub mod request;
pub mod time;

pub use addr::{Addr, FrameId, LineId, PageId};
pub use config::{SystemConfig, TrackerKind};
pub use convert::ConvertError;
pub use error::GeometryError;
pub use fault::{ChannelFaultKind, FaultConfig, MigrationFaultSpec};
pub use geometry::{Geometry, Tier, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
pub use hash::{BuildPageHasher, PageHasher};
pub use request::{AccessKind, CoreId, MemRequest, RequestId};
pub use time::{Clock, Picos};
