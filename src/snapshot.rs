//! MVCC snapshot reads: pinned-version, immutable views of a session.
//!
//! A [`Snapshot`] freezes one committed version of a session — document,
//! labeling, version and compaction epoch — into a cheaply clonable handle
//! that keeps serving `select`-style reads, serialization and Table-1
//! predicate checks while the live session commits ahead. The snapshot holds
//! shared (`Arc`) views, so it never blocks a committer and a committer never
//! tears it: a commit mutates the session's own copy, the snapshot's arena is
//! immutable for as long as any reader holds it.
//!
//! Snapshots are produced by `Executor::snapshot`,
//! `ShardedExecutor::snapshot` and (for historical versions)
//! `Durable::read_at`, all memoized in the session's one [`SnapshotCache`],
//! keyed by version: the *first* read at a version pays the O(document)
//! freeze (or WAL replay), every later read at the same version is a
//! reference-count bump. The version alone is a sound key because it names
//! exactly one state for the life of the store: commits and compactions both
//! advance it, and a committed version is never undone.
//!
//! What pins memory: a snapshot keeps its whole document arena and labeling
//! alive until the last clone is dropped — including across compaction epoch
//! bumps of the live session (the snapshot still shows the pre-compaction
//! identifiers it pinned). Long-held snapshots of large documents are the
//! price of never blocking readers; drop them to release the arena.

use std::sync::{Arc, Mutex, OnceLock};

use xdm::{Document, SharedDocument};
use xlabel::Labeling;

/// An immutable, cheaply clonable view of one committed session version.
/// See the module documentation for the pinning semantics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u64,
    epoch: u64,
    doc: SharedDocument,
    labeling: Arc<Labeling>,
    /// Memoized serialization: the first `serialize` pays the O(document)
    /// walk, clones afterwards share the result.
    serialized: Arc<OnceLock<String>>,
}

impl Snapshot {
    pub(crate) fn new(
        version: u64,
        epoch: u64,
        doc: SharedDocument,
        labeling: Arc<Labeling>,
    ) -> Snapshot {
        Snapshot { version, epoch, doc, labeling, serialized: Arc::new(OnceLock::new()) }
    }

    /// The session version this snapshot pinned.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The compaction epoch the pinned version was committed under. The
    /// snapshot's identifiers are only meaningful against this epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The pinned document as a shared handle (a reference-count bump).
    pub fn shared_document(&self) -> SharedDocument {
        Arc::clone(&self.doc)
    }

    /// The pinned labeling — Table-1 predicate checks against this version's
    /// node labels.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The pinned document's serialization, memoized across calls and clones.
    pub fn serialized(&self) -> &str {
        self.serialized.get_or_init(|| xdm::writer::write_document(&self.doc))
    }

    /// The pinned document's serialization as an owned string (the session
    /// `serialize()` signature). The walk itself is memoized; repeated calls
    /// only copy the bytes out.
    pub fn serialize(&self) -> String {
        self.serialized().to_string()
    }

    /// Debug invariant walker over the pinned document (O(document)).
    pub fn assert_consistent(&self) {
        self.doc.assert_consistent();
    }
}

/// How many snapshots a cache retains (LRU): the current version plus a few
/// recently read historical ones.
const SNAPSHOT_CACHE_CAP: usize = 8;

/// A small version-keyed LRU of [`Snapshot`]s with interior mutability, so
/// `&self` read paths can memoize. **Cloning a session empties the cache**
/// (same rationale as the sink slot: a clone diverges).
#[derive(Debug, Default)]
pub(crate) struct SnapshotCache {
    inner: Mutex<Vec<Snapshot>>,
}

impl SnapshotCache {
    /// The cached snapshot of `version`, refreshed to most-recently-used.
    pub(crate) fn get(&self, version: u64) -> Option<Snapshot> {
        let mut slots = self.inner.lock().expect("snapshot cache mutex poisoned");
        let at = slots.iter().position(|s| s.version == version)?;
        let hit = slots.remove(at);
        slots.push(hit.clone());
        Some(hit)
    }

    /// Memoizes a snapshot, evicting the least recently used beyond the cap.
    pub(crate) fn insert(&self, snapshot: Snapshot) {
        let mut slots = self.inner.lock().expect("snapshot cache mutex poisoned");
        slots.retain(|s| s.version != snapshot.version);
        slots.push(snapshot);
        if slots.len() > SNAPSHOT_CACHE_CAP {
            slots.remove(0);
        }
    }
}

/// A cloned session must not serve the original's cached snapshots once the
/// two histories diverge (same version numbers, different contents), so the
/// clone starts cold.
impl Clone for SnapshotCache {
    fn clone(&self) -> Self {
        SnapshotCache::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(version: u64, epoch: u64) -> Snapshot {
        let doc = xdm::parser::parse_document("<r/>").unwrap();
        let labeling = Labeling::assign(&doc);
        Snapshot::new(version, epoch, doc.to_shared(), Arc::new(labeling))
    }

    #[test]
    fn cache_hits_are_keyed_by_version() {
        let cache = SnapshotCache::default();
        cache.insert(snap(3, 0));
        assert!(cache.get(3).is_some());
        assert!(cache.get(2).is_none());
    }

    #[test]
    fn cache_is_bounded_lru() {
        let cache = SnapshotCache::default();
        for v in 0..20 {
            cache.insert(snap(v, 0));
        }
        cache.get(12).expect("recent entries are retained");
        cache.insert(snap(99, 0)); // evicts the oldest untouched entry
        assert!(cache.get(12).is_some(), "the refreshed entry survived");
        assert!(cache.get(0).is_none(), "old entries evicted");
        let cloned = cache.clone();
        assert!(cloned.get(12).is_none(), "clones start cold");
    }

    #[test]
    fn serialization_is_memoized_across_clones() {
        let s = snap(0, 0);
        let c = s.clone();
        assert_eq!(s.serialized(), "<r/>");
        assert!(
            std::ptr::eq(s.serialized().as_ptr(), c.serialized().as_ptr()),
            "clones share the memoized serialization"
        );
        assert_eq!(s.serialize(), c.serialize());
    }
}
