//! Memory requests as they leave the last-level cache.

use serde::Serialize;
use std::fmt;

use crate::addr::Addr;
use crate::time::Picos;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccessKind {
    /// A demand read (LLC miss fill).
    Read,
    /// A writeback from the LLC.
    Write,
}

impl AccessKind {
    /// `true` for writes.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// Identifies which of the simulated CPU cores issued a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct CoreId(pub u8);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Monotonic identifier assigned by the simulator to each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A single main-memory request (one 64 B cache-line transfer).
///
/// # Examples
///
/// ```
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
///
/// let r = MemRequest::new(Addr(0x1000), AccessKind::Read, Picos::from_ns(10), CoreId(3));
/// assert_eq!(r.addr.page().0, 2); // 0x1000 / 2048
/// assert!(!r.kind.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct MemRequest {
    /// Original (pre-remap) byte address.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Arrival time at the memory subsystem.
    pub arrival: Picos,
    /// Issuing core.
    pub core: CoreId,
}

impl MemRequest {
    /// Creates a request.
    pub const fn new(addr: Addr, kind: AccessKind, arrival: Picos, core: CoreId) -> Self {
        MemRequest {
            addr,
            kind,
            arrival,
            core,
        }
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} @{} by {}",
            self.kind, self.addr, self.arrival, self.core
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::Read.to_string(), "R");
        assert_eq!(AccessKind::Write.to_string(), "W");
    }

    #[test]
    fn request_display_mentions_all_fields() {
        let r = MemRequest::new(Addr(0x40), AccessKind::Write, Picos(500), CoreId(7));
        let s = r.to_string();
        assert!(s.contains('W'));
        assert!(s.contains("0x40"));
        assert!(s.contains("core7"));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(RequestId(1) < RequestId(2));
        assert!(CoreId(0) < CoreId(1));
    }
}
