//! The std synchronization items the MemPod crates use, re-exported.
//!
//! The simulator's one concurrency shape is a `thread::scope` fork/join
//! over disjoint shards, whose results come back through join handles, so
//! plain `std` is all it needs. The atomics are the relaxed counters of
//! the telemetry crate's phase clock and write-error tally; the one lock
//! is in `MemorySink`, the in-memory telemetry sink that tests read.

pub use std::sync::atomic;
pub use std::sync::{Arc, Mutex};
pub use std::thread;
