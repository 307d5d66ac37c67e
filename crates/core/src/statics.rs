//! Static (no-migration) baselines: TLM, HBM-only, DDR-only.
//!
//! These managers translate identically (page *p* → frame *p*) and never
//! migrate. The difference between them is the memory the simulator builds
//! underneath: the TLM baseline runs on the hybrid layout, HBM-only on an
//! all-fast layout, DDR-only on an all-slow layout (see
//! `mempod-sim`'s layout selection).

use mempod_types::convert::u32_from_u64;
use mempod_types::{FrameId, MemRequest, PageId, Picos};

use crate::manager::{AccessOutcome, ManagerConfig, ManagerKind, MemoryManager, MigrationStats};

/// Identity-mapping, never-migrating manager.
///
/// # Examples
///
/// ```
/// use mempod_core::{ManagerConfig, ManagerKind, MemoryManager, StaticManager};
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
///
/// let mut mgr = StaticManager::new(ManagerKind::NoMigration, &ManagerConfig::tiny());
/// let r = MemRequest::new(Addr(4096), AccessKind::Read, Picos::ZERO, CoreId(0));
/// assert_eq!(mgr.on_access(&r).frame.0, 2);
/// ```
#[derive(Debug)]
pub struct StaticManager {
    kind: ManagerKind,
    stats: MigrationStats,
}

impl StaticManager {
    /// Creates a static manager of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a migrating kind.
    pub fn new(kind: ManagerKind, _cfg: &ManagerConfig) -> Self {
        assert!(!kind.migrates(), "{kind} is not a static baseline");
        StaticManager {
            kind,
            stats: MigrationStats::default(),
        }
    }
}

impl MemoryManager for StaticManager {
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome {
        let page = req.addr.page();
        AccessOutcome {
            frame: FrameId(page.0),
            line_in_page: u32_from_u64(req.addr.line().index_in_page()),
            migrations: Vec::new(),
            stall: Picos::ZERO,
            meta_miss: false,
        }
    }

    fn kind(&self) -> ManagerKind {
        self.kind
    }

    fn migration_stats(&self) -> &MigrationStats {
        &self.stats
    }

    fn frame_of_page(&self, page: PageId) -> FrameId {
        FrameId(page.0)
    }

    /// Static placement never migrates, remaps, or meta-misses, so any
    /// shard partition is safe.
    fn migration_domains(&self) -> u32 {
        u32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{AccessKind, Addr, CoreId};

    #[test]
    fn identity_translation_forever() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = StaticManager::new(ManagerKind::HbmOnly, &cfg);
        for page in [0u64, 100, 9999] {
            let r = MemRequest::new(
                Addr(page * 2048 + 64),
                AccessKind::Write,
                Picos::from_us(500),
                CoreId(1),
            );
            let out = mgr.on_access(&r);
            assert_eq!(out.frame, FrameId(page));
            assert_eq!(out.line_in_page, 1);
            assert!(out.migrations.is_empty());
        }
        assert_eq!(mgr.migration_stats().migrations, 0);
        assert_eq!(mgr.frame_of_page(PageId(77)), FrameId(77));
    }

    #[test]
    #[should_panic(expected = "not a static baseline")]
    fn migrating_kind_rejected() {
        let _ = StaticManager::new(ManagerKind::MemPod, &ManagerConfig::tiny());
    }
}
