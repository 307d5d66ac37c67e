//! The std synchronization items the MemPod crates use, re-exported.
//!
//! The simulator's concurrency is a `thread::scope` fork/join over
//! disjoint shards plus the experiment runner's job pool (results come
//! back through join handles; progress is atomic counters), so plain
//! `std` is all it needs. The one lock is in `MemorySink`, the in-memory
//! telemetry sink that tests read.

pub use std::sync::atomic;
pub use std::sync::{Arc, Mutex};
pub use std::thread;
