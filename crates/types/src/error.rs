//! Error types.

use std::error::Error;
use std::fmt;

/// Errors from constructing a [`Geometry`](crate::geometry::Geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A tier capacity was zero.
    ZeroCapacity,
    /// A tier capacity was not a multiple of the page size.
    UnalignedCapacity {
        /// The required alignment.
        page_size: u64,
    },
    /// The pod count was zero.
    ZeroPods,
    /// The pod count does not divide both tiers' page counts.
    PodsDoNotDivide {
        /// Requested pod count.
        pods: u32,
        /// Fast-tier page count.
        fast_pages: u64,
        /// Slow-tier page count.
        slow_pages: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroCapacity => write!(f, "tier capacity must be nonzero"),
            GeometryError::UnalignedCapacity { page_size } => {
                write!(f, "tier capacity must be a multiple of {page_size} bytes")
            }
            GeometryError::ZeroPods => write!(f, "pod count must be nonzero"),
            GeometryError::PodsDoNotDivide {
                pods,
                fast_pages,
                slow_pages,
            } => write!(
                f,
                "{pods} pods do not evenly divide {fast_pages} fast and {slow_pages} slow pages"
            ),
        }
    }
}

impl Error for GeometryError {}

/// Runtime failures inside the simulation engine, each carrying enough
/// context (which shard, which pod, which migration, which resource) to
/// locate the failure without a debugger. These are *recoverable* errors:
/// the engine's policy is to degrade (one-shard replay, rollback,
/// lock-state reconstruction) rather than abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A shard worker thread panicked mid-batch.
    ShardWorkerPanicked {
        /// Index of the shard whose worker died.
        shard: u32,
    },
    /// A migration exhausted its retries and was rolled back.
    MigrationAborted {
        /// Pod performing the swap, if the manager is pod-clustered.
        pod: Option<u32>,
        /// One frame of the abandoned swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
    },
    /// A channel fault left a DRAM channel in a degraded state.
    ChannelDegraded {
        /// Global channel index.
        channel: u32,
    },
    /// A mutex was poisoned by a panicking holder; the state was
    /// reconstructed from the poisoned guard.
    LockPoisoned {
        /// Which shared resource the lock guarded.
        resource: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ShardWorkerPanicked { shard } => {
                write!(f, "shard {shard} worker panicked mid-batch")
            }
            EngineError::MigrationAborted {
                pod,
                frame_a,
                frame_b,
            } => match pod {
                Some(p) => write!(
                    f,
                    "migration {frame_a}<->{frame_b} in pod {p} aborted permanently"
                ),
                None => write!(f, "migration {frame_a}<->{frame_b} aborted permanently"),
            },
            EngineError::ChannelDegraded { channel } => {
                write!(f, "channel {channel} degraded by an injected fault")
            }
            EngineError::LockPoisoned { resource } => {
                write!(f, "lock for {resource} was poisoned and recovered")
            }
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = GeometryError::PodsDoNotDivide {
            pods: 3,
            fast_pages: 10,
            slow_pages: 80,
        };
        let s = e.to_string();
        assert!(s.contains('3'));
        assert!(s.contains("10"));
        assert!(!s.starts_with(char::is_uppercase));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn engine_errors_carry_their_context() {
        let cases: Vec<(EngineError, &[&str])> = vec![
            (
                EngineError::ShardWorkerPanicked { shard: 3 },
                &["shard 3", "panicked"],
            ),
            (
                EngineError::MigrationAborted {
                    pod: Some(2),
                    frame_a: 17,
                    frame_b: 40,
                },
                &["17", "40", "pod 2"],
            ),
            (
                EngineError::MigrationAborted {
                    pod: None,
                    frame_a: 5,
                    frame_b: 9,
                },
                &["5", "9"],
            ),
            (
                EngineError::ChannelDegraded { channel: 11 },
                &["channel 11"],
            ),
            (
                EngineError::LockPoisoned {
                    resource: "result slots",
                },
                &["result slots", "poisoned"],
            ),
        ];
        for (e, needles) in cases {
            let s = e.to_string();
            for needle in needles {
                assert!(s.contains(needle), "{s:?} missing {needle:?}");
            }
            assert!(!s.starts_with(char::is_uppercase));
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn implements_error_and_is_send_sync() {
        fn takes_err<E: Error + Send + Sync + 'static>(_: E) {}
        takes_err(GeometryError::ZeroCapacity);
        takes_err(EngineError::ShardWorkerPanicked { shard: 0 });
    }
}
