//! Leak-audit helpers for the leak-free-abort pinned invariant.
//!
//! A governance abort — cancellation, a tripped budget, or a pin-wait
//! timeout — may fire at *any* checkpoint of *any* query, so the test
//! suite needs one uniform way to assert that an aborted query released
//! everything it held: no frame left pinned, every temporary extent
//! freed, the catalog's allocation state byte-identical to the moment
//! before the query started, and no object left on Plain R's paging heap
//! that was not there then. [`LeakSnapshot`] captures that state and
//! [`assert_no_leaks`] compares against it; the cancel-at-every-
//! checkpoint sweep calls the pair around every abort point.

use crate::session::Session;

/// Storage state captured before a query, compared after an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakSnapshot {
    /// Canonical rendering of every live catalog object and its extents
    /// (see `StorageCtx::catalog_fingerprint`).
    pub catalog: String,
    /// Frames pinned at snapshot time (0 between queries).
    pub pinned_frames: usize,
    /// Live objects on the session's paging heap (Plain R's values).
    pub heap_objects: usize,
}

/// Capture the session's storage-allocation state.
pub fn leak_snapshot(session: &Session) -> LeakSnapshot {
    let ctx = session.storage_ctx();
    LeakSnapshot {
        catalog: ctx.catalog_fingerprint(),
        pinned_frames: ctx.pool().pinned_frames(),
        heap_objects: session.heap_objects(),
    }
}

/// Assert the session leaked nothing since `before` was captured:
/// zero pinned frames now, a catalog fingerprint byte-identical to the
/// snapshot, and as many heap objects as then. Panics with a
/// diff-friendly message otherwise — `at` names the abort point for the
/// failure message.
pub fn assert_no_leaks(session: &Session, before: &LeakSnapshot, at: &str) {
    let now = leak_snapshot(session);
    assert_eq!(
        now.pinned_frames, 0,
        "{at}: {} frame(s) still pinned after abort",
        now.pinned_frames
    );
    assert_eq!(
        now.catalog, before.catalog,
        "{at}: catalog changed across an aborted query\n--- before ---\n{}\n--- after ---\n{}",
        before.catalog, now.catalog
    );
    assert_eq!(
        now.heap_objects, before.heap_objects,
        "{at}: paging-heap objects leaked across an aborted query"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EngineConfig, EngineKind};

    #[test]
    fn snapshot_is_stable_across_pure_reads() {
        let s = Session::new(EngineConfig::new(EngineKind::Riot));
        let x = s.vector_from_fn(256, |i| i as f64).unwrap();
        let snap = leak_snapshot(&s);
        assert_eq!(snap.pinned_frames, 0);
        let _ = x.sum().unwrap();
        // An aggregate materializes nothing under Riot at this size.
        assert_no_leaks(&s, &snap, "aggregate");
    }
}
