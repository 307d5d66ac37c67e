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
    fn implements_error_and_is_send_sync() {
        fn takes_err<E: Error + Send + Sync + 'static>(_: E) {}
        takes_err(GeometryError::ZeroCapacity);
    }
}
