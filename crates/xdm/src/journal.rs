//! The apply journal: O(change) rollback for [`Document`](crate::Document)
//! mutations.
//!
//! Atomic commits used to be bought by cloning the whole document before
//! applying a PUL — O(document) memory and time for a change that touches a
//! handful of nodes. The journal inverts the cost model: while a journal scope
//! is active, every mutator of [`Document`](crate::Document) appends the
//! *inverse* of its effect to the journal, and rolling back replays the
//! inverses in reverse order. Both the bookkeeping and the rollback are
//! proportional to the size of the change, never to the size of the document.
//!
//! The protocol is mark/rewind, which nests naturally:
//!
//! 1. [`Document::journal_mark`](crate::Document::journal_mark) activates
//!    journaling (if it is not already active) and returns the current
//!    position;
//! 2. on failure, [`Document::journal_rewind`](crate::Document::journal_rewind)
//!    undoes every entry recorded past the mark;
//! 3. whoever *activated* the journal eventually calls
//!    [`Document::journal_discard`](crate::Document::journal_discard) — on
//!    success the recorded inverses are simply dropped.
//!
//! An inner scope (say, the apply inside a commit) rewinds to its own mark on
//! failure while the outer scope's entries stay recorded, so the commit can
//! still undo an apply that succeeded when a later step (its WAL append, or
//! a sibling shard's apply) fails.

use crate::node::{NodeData, NodeId};

/// A position in a journal, returned by `journal_mark` and consumed by
/// `journal_rewind`: rewinding undoes every entry recorded after the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct JournalMark(pub(crate) usize);

impl JournalMark {
    /// Creates a mark at an explicit position (used by sibling journals — e.g.
    /// the labeling journal — which reuse the mark type).
    pub fn new(position: usize) -> Self {
        JournalMark(position)
    }

    /// The journal length at the time the mark was taken.
    pub fn position(self) -> usize {
        self.0
    }
}

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

/// The inverse-entry log attached to a [`Document`](crate::Document) while a
/// journal scope is active.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    pub(crate) entries: Vec<DocEntry>,
}

impl Journal {
    /// Number of inverse entries recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
