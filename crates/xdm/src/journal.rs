//! The apply journal: O(change) rollback for [`Document`] mutations.
//!
//! Atomic commits used to be bought by cloning the whole document before
//! applying a PUL — O(document) memory and time for a change that touches a
//! handful of nodes. The journal inverts the cost model: while a journal is
//! open, every mutator of [`Document`] appends the *inverse* of its effect to
//! it, and rolling back replays the inverses in reverse order. Both the
//! bookkeeping and the rollback are proportional to the size of the change,
//! never to the size of the document.
//!
//! A journal is one level deep and lives exactly as long as its
//! [`JournalGuard`] ([`Document::journal`]): a commit opens it, applies, and
//! then either [`keep`](JournalGuard::keep)s the change (the journal closes,
//! the inverses are dropped) or drops the guard — on an `Err` return or an
//! unwind alike — which rolls the document back and closes the journal.
//! Journals do not nest: opening one on a document whose journal is already
//! open panics.
//!
//! Only the document is journaled. A labeling (`xlabel::Labeling`) is
//! derived state — §4.1 never relabels an existing node — so callers patch it
//! once the change is kept and never need to undo it.

use std::ops::{Deref, DerefMut};

use crate::document::Document;
use crate::node::{NodeData, NodeId};

/// One inverse entry. Each variant undoes exactly one primitive effect of a
/// mutator; mutators push one or more entries per call.
#[derive(Debug, Clone)]
pub(crate) enum DocEntry {
    /// Drop a node the mutation allocated (inverse of an arena insert).
    Forget(NodeId),
    /// Re-insert a node the mutation removed from the arena (the data is
    /// *moved* into the entry, not cloned).
    Restore(NodeId, Box<NodeData>),
    /// Remove the child at `index` of `parent` (inverse of a child insertion).
    ChildRemove { parent: NodeId, index: usize },
    /// Re-insert `child` at `index` of `parent` (inverse of a child removal).
    ChildInsert { parent: NodeId, index: usize, child: NodeId },
    /// Remove the attribute at `index` of `element`.
    AttrRemove { element: NodeId, index: usize },
    /// Re-insert `attr` at `index` of `element`.
    AttrInsert { element: NodeId, index: usize, attr: NodeId },
    /// Restore a node's parent pointer.
    Parent { node: NodeId, old: Option<NodeId> },
    /// Restore a node's name (λ).
    Name { node: NodeId, old: Option<String> },
    /// Restore a node's value (ν).
    Value { node: NodeId, old: Option<String> },
    /// Restore the document root.
    Root(Option<NodeId>),
    /// Restore the fresh-identifier counter.
    NextId(u64),
}

/// An open journal over one document, returned by [`Document::journal`].
///
/// The guard dereferences to the document, so mutations go through it.
/// Dropping the guard while the journal is open — an `Err` returned past it,
/// or an unwind — rolls every mutation made since the journal opened back
/// and closes the journal; [`keep`](JournalGuard::keep) closes it and keeps
/// them, after which dropping the guard does nothing.
#[derive(Debug)]
pub struct JournalGuard<'a> {
    doc: &'a mut Document,
}

impl<'a> JournalGuard<'a> {
    pub(crate) fn new(doc: &'a mut Document) -> Self {
        JournalGuard { doc }
    }

    /// Closes the journal and keeps every recorded mutation: the commit
    /// point of the change. The document stays reachable through the guard.
    pub fn keep(&mut self) {
        self.doc.journal_discard();
    }
}

impl Deref for JournalGuard<'_> {
    type Target = Document;

    fn deref(&self) -> &Document {
        self.doc
    }
}

impl DerefMut for JournalGuard<'_> {
    fn deref_mut(&mut self) -> &mut Document {
        self.doc
    }
}

impl Drop for JournalGuard<'_> {
    fn drop(&mut self) {
        self.doc.journal_rollback();
    }
}
