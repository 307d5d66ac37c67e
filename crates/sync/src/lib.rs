//! The std synchronization items the MemPod crates use, re-exported.
//!
//! The simulator's concurrency is a `thread::scope` fork/join over
//! disjoint shards plus the experiment runner's job pool (index-keyed
//! result slots behind one lock, atomic progress counters and cancel
//! flags), so plain `std` is all it needs.

pub use std::sync::atomic;
pub use std::sync::{Arc, Mutex, PoisonError};
pub use std::thread;
