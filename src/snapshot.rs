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
//! `Durable::read_at`. A session holds one of them, the last it froze, in
//! its [`SnapshotSlot`]: the *first* pin of the live version pays the
//! O(document) freeze, every later pin at the same version is a
//! reference-count bump. The version alone is a sound key because it names
//! exactly one state for the life of the store: commits and compactions both
//! advance it, and a committed version is never undone. A historical
//! `read_at` replays into a snapshot the caller alone holds; the session
//! keeps nothing of it.
//!
//! What pins memory: a snapshot keeps its whole document arena and labeling
//! alive until the last clone is dropped — including across compaction epoch
//! bumps of the live session (the snapshot still shows the pre-compaction
//! identifiers it pinned). Long-held snapshots of large documents are the
//! price of never blocking readers; drop them to release the arena. The
//! session's own slot holds one version more: the last it froze, until the
//! next freeze replaces it.

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

/// The last [`Snapshot`] a session froze, with interior mutability so that
/// `&self` read paths can fill it. A later freeze replaces it, so a
/// superseded version lives only as long as its readers hold it. **Cloning a
/// session empties the slot** (same rationale as the sink slot: a clone
/// diverges, reusing version numbers with different contents).
#[derive(Debug, Default)]
pub(crate) struct SnapshotSlot(Mutex<Option<Snapshot>>);

impl SnapshotSlot {
    /// The held snapshot, if it pinned `version`.
    pub(crate) fn get(&self, version: u64) -> Option<Snapshot> {
        let held = self.0.lock().expect("snapshot slot mutex poisoned");
        held.as_ref().filter(|s| s.version == version).cloned()
    }

    /// Holds `snapshot`, releasing the previous one once the lock is free
    /// (dropping the last handle of a version frees a whole arena).
    pub(crate) fn set(&self, snapshot: Snapshot) {
        let _previous = self.0.lock().expect("snapshot slot mutex poisoned").replace(snapshot);
    }
}

impl Clone for SnapshotSlot {
    fn clone(&self) -> Self {
        SnapshotSlot::default()
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
        let slot = SnapshotSlot::default();
        assert!(slot.get(0).is_none());
        slot.set(snap(3, 0));
        assert_eq!(slot.get(3).map(|s| s.version()), Some(3));
        assert!(slot.get(2).is_none() && slot.get(4).is_none());
    }

    /// The slot is the cache bounded to one entry: a freeze replaces the
    /// held version, and a cloned session starts empty.
    #[test]
    fn cache_is_bounded_lru() {
        let slot = SnapshotSlot::default();
        slot.set(snap(3, 0));
        slot.set(snap(4, 0));
        assert!(slot.get(3).is_none(), "a freeze replaces the held version");
        assert!(slot.get(4).is_some());
        assert!(slot.clone().get(4).is_none(), "clones start empty");
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
