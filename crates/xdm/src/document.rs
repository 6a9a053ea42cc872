//! Arena-backed XML document: the `(V, γ, λ, ν)` structure of §2.1.
//!
//! The [`Document`] owns all its nodes in an arena keyed by [`NodeId`].
//! Identifiers are never reused: the arena keeps a monotonically increasing
//! counter, and explicit identifiers (e.g. the numbering of Figure 1 in the
//! paper, or identifiers read back from an *identified* serialization) bump the
//! counter past themselves.
//!
//! The arena itself is an [`IdSlab`]: identifiers are assigned sequentially,
//! so node lookup — the innermost operation of every traversal and of every
//! Table-1 predicate evaluated against the document — is a dense array index
//! rather than a hash probe.

use std::collections::HashMap;

use crate::error::XdmError;
use crate::journal::{DocEntry, JournalGuard};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::slab::IdSlab;
use crate::Result;

/// Relative position of two nodes in document order (the `≺` relation of
/// Table 1, made total for convenience).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderRel {
    /// The first node strictly precedes the second in document order.
    Before,
    /// The two identifiers denote the same node.
    Same,
    /// The first node strictly follows the second in document order.
    After,
    /// At least one of the nodes is not attached to the tree (no order defined).
    Unrelated,
}

/// A cheaply clonable, immutable shared view of a [`Document`] (see
/// [`Document::to_shared`]). Snapshot readers hold one of these; the live
/// session keeps mutating its own copy.
pub type SharedDocument = std::sync::Arc<Document>;

/// An XML document (or, more generally, a rooted node arena).
///
/// The root is normally an element node; standalone fragments used as update
/// operation parameters reuse the same machinery through [`crate::Tree`].
#[derive(Debug, Clone, Default)]
pub struct Document {
    nodes: IdSlab<NodeData>,
    root: Option<NodeId>,
    next_id: u64,
    /// Inverse-entry log, present while a journal is open (see
    /// [`crate::journal`]). Every mutator records the inverse of its effect
    /// here so that a rollback can undo a partial application in O(change) —
    /// the replacement for whole-document snapshot clones.
    journal: Option<Vec<DocEntry>>,
}

impl Document {
    /// Creates an empty document with no nodes.
    pub fn new() -> Self {
        Document { nodes: IdSlab::new(), root: None, next_id: 1, journal: None }
    }

    /// Creates an empty document whose fresh identifiers start at `first_id`.
    pub fn with_first_id(first_id: u64) -> Self {
        Document { nodes: IdSlab::new(), root: None, next_id: first_id.max(1), journal: None }
    }

    /// Creates an empty document sized for `n` nodes whose identifiers lie
    /// in `first..=last` (see [`IdSlab::with_id_range`]).
    pub(crate) fn with_id_range(first: NodeId, last: NodeId, n: usize) -> Self {
        Document { nodes: IdSlab::with_id_range(first, last, n), ..Document::new() }
    }

    // ------------------------------------------------------------------
    // the apply journal
    // ------------------------------------------------------------------

    /// Whether a journal is currently open.
    pub fn journal_is_active(&self) -> bool {
        self.journal.is_some()
    }

    /// Opens the journal: from now on every mutator records its inverse,
    /// until the returned guard keeps the change or, dropped, rolls it back
    /// (see [`crate::journal`]). Panics when a journal is already open —
    /// journals do not nest.
    pub fn journal(&mut self) -> JournalGuard<'_> {
        assert!(self.journal.is_none(), "a document journal is already open; journals do not nest");
        self.journal = Some(Vec::new());
        JournalGuard::new(self)
    }

    /// Number of inverse entries recorded by the open journal (0 when none is
    /// open).
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Vec::len)
    }

    /// Undoes every recorded mutation, most recent first, and closes the
    /// journal; a no-op when no journal is open.
    pub(crate) fn journal_rollback(&mut self) {
        let Some(entries) = self.journal.take() else { return };
        for entry in entries.into_iter().rev() {
            self.undo(entry);
        }
    }

    /// Closes the journal, keeping every recorded mutation.
    pub(crate) fn journal_discard(&mut self) {
        self.journal = None;
    }

    #[inline]
    fn record(&mut self, entry: DocEntry) {
        if let Some(journal) = &mut self.journal {
            journal.push(entry);
        }
    }

    fn undo(&mut self, entry: DocEntry) {
        match entry {
            DocEntry::Forget(id) => {
                self.nodes.remove(id);
            }
            DocEntry::Restore(id, data) => {
                self.nodes.insert(id, *data);
            }
            DocEntry::ChildRemove { parent, index } => {
                let data = self.nodes.get_mut(parent).expect("journal: parent exists");
                data.children.remove(index);
            }
            DocEntry::ChildInsert { parent, index, child } => {
                let data = self.nodes.get_mut(parent).expect("journal: parent exists");
                data.children.insert(index, child);
            }
            DocEntry::AttrRemove { element, index } => {
                let data = self.nodes.get_mut(element).expect("journal: element exists");
                data.attributes.remove(index);
            }
            DocEntry::AttrInsert { element, index, attr } => {
                let data = self.nodes.get_mut(element).expect("journal: element exists");
                data.attributes.insert(index, attr);
            }
            DocEntry::Parent { node, old } => {
                self.nodes.get_mut(node).expect("journal: node exists").parent = old;
            }
            DocEntry::Name { node, old } => {
                self.nodes.get_mut(node).expect("journal: node exists").name = old;
            }
            DocEntry::Value { node, old } => {
                self.nodes.get_mut(node).expect("journal: node exists").value = old;
            }
            DocEntry::Root(old) => self.root = old,
            DocEntry::NextId(old) => self.next_id = old,
        }
    }

    // ------------------------------------------------------------------
    // identifiers
    // ------------------------------------------------------------------

    /// Returns the next identifier that would be assigned to a fresh node.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Reserves and returns a fresh identifier.
    pub fn fresh_id(&mut self) -> NodeId {
        let id = NodeId::new(self.next_id);
        self.record(DocEntry::NextId(self.next_id));
        self.next_id += 1;
        id
    }

    fn note_explicit_id(&mut self, id: NodeId) {
        if id.as_u64() >= self.next_id {
            self.record(DocEntry::NextId(self.next_id));
            self.next_id = id.as_u64() + 1;
        }
    }

    /// Raises the fresh-identifier counter to at least `min_next` (a no-op when
    /// it is already there). A sharded executor uses this as an *identifier
    /// fence*: before a shard applies its slice of a commit, its counter is
    /// lifted past every identifier minted by the shards that applied before
    /// it, so fresh identifiers stay globally unique across shard documents.
    /// Journaled like any other mutation, so a rollback restores the counter.
    pub fn reserve_ids(&mut self, min_next: u64) {
        if min_next > self.next_id {
            self.record(DocEntry::NextId(self.next_id));
            self.next_id = min_next;
        }
    }

    // ------------------------------------------------------------------
    // allocation
    // ------------------------------------------------------------------

    /// Stores a node in the arena, recording the inverse. Every arena insert
    /// goes through here so that the journal sees it.
    fn arena_insert(&mut self, id: NodeId, data: NodeData) {
        self.nodes.insert(id, data);
        self.record(DocEntry::Forget(id));
    }

    /// Removes a node from the arena, recording the inverse (the node data is
    /// moved into the journal, not cloned).
    fn arena_remove(&mut self, id: NodeId) {
        if self.journal.is_some() {
            if let Some(data) = self.nodes.remove(id) {
                self.record(DocEntry::Restore(id, Box::new(data)));
            }
        } else {
            self.nodes.remove(id);
        }
    }

    fn insert_node(&mut self, id: NodeId, data: NodeData) -> Result<NodeId> {
        if self.nodes.contains(id) {
            return Err(XdmError::DuplicateNodeId(id));
        }
        self.note_explicit_id(id);
        self.arena_insert(id, data);
        Ok(id)
    }

    /// Allocates a detached element node with a fresh identifier.
    pub fn new_element(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.fresh_id();
        self.arena_insert(id, NodeData::element(name));
        id
    }

    /// Allocates a detached attribute node with a fresh identifier.
    pub fn new_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) -> NodeId {
        let id = self.fresh_id();
        self.arena_insert(id, NodeData::attribute(name, value));
        id
    }

    /// Allocates a detached text node with a fresh identifier.
    pub fn new_text(&mut self, value: impl Into<String>) -> NodeId {
        let id = self.fresh_id();
        self.arena_insert(id, NodeData::text(value));
        id
    }

    /// Allocates a detached element node with an explicit identifier.
    pub fn new_element_with_id(
        &mut self,
        id: impl Into<NodeId>,
        name: impl Into<String>,
    ) -> Result<NodeId> {
        self.insert_node(id.into(), NodeData::element(name))
    }

    /// Allocates a detached attribute node with an explicit identifier.
    pub fn new_attribute_with_id(
        &mut self,
        id: impl Into<NodeId>,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<NodeId> {
        self.insert_node(id.into(), NodeData::attribute(name, value))
    }

    /// Allocates a detached text node with an explicit identifier.
    pub fn new_text_with_id(
        &mut self,
        id: impl Into<NodeId>,
        value: impl Into<String>,
    ) -> Result<NodeId> {
        self.insert_node(id.into(), NodeData::text(value))
    }

    // ------------------------------------------------------------------
    // root management
    // ------------------------------------------------------------------

    /// Returns the root node, if any (the `R` auxiliary function of §2.1).
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Returns the root node or an error if the document is empty.
    pub fn require_root(&self) -> Result<NodeId> {
        self.root.ok_or(XdmError::NoRoot)
    }

    /// Sets the root of the document to an existing (detached) node.
    pub fn set_root(&mut self, id: NodeId) -> Result<()> {
        if !self.nodes.contains(id) {
            return Err(XdmError::NodeNotFound(id));
        }
        self.record(DocEntry::Root(self.root));
        self.root = Some(id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Returns `true` if the identifier denotes a node of this document arena.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains(id)
    }

    /// Returns the node data for `id`.
    pub fn node(&self, id: NodeId) -> Result<&NodeData> {
        self.nodes.get(id).ok_or(XdmError::NodeNotFound(id))
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut NodeData> {
        self.nodes.get_mut(id).ok_or(XdmError::NodeNotFound(id))
    }

    /// Returns τ(v), the kind of the node.
    pub fn kind(&self, id: NodeId) -> Result<NodeKind> {
        Ok(self.node(id)?.kind)
    }

    /// Returns λ(v), the name of an element or attribute node.
    pub fn name(&self, id: NodeId) -> Result<Option<&str>> {
        Ok(self.node(id)?.name.as_deref())
    }

    /// Returns ν(v), the value of a text or attribute node.
    pub fn value(&self, id: NodeId) -> Result<Option<&str>> {
        Ok(self.node(id)?.value.as_deref())
    }

    /// Returns the parent of a node, if attached.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>> {
        Ok(self.node(id)?.parent)
    }

    /// Returns the ordered non-attribute children of a node.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId]> {
        Ok(&self.node(id)?.children)
    }

    /// Returns the attribute nodes of an element.
    pub fn attributes(&self, id: NodeId) -> Result<&[NodeId]> {
        Ok(&self.node(id)?.attributes)
    }

    /// Looks up an attribute of `element` by name.
    pub fn attribute_by_name(&self, element: NodeId, name: &str) -> Result<Option<NodeId>> {
        for &a in self.attributes(element)? {
            if self.name(a)? == Some(name) {
                return Ok(Some(a));
            }
        }
        Ok(None)
    }

    /// Returns the number of nodes currently stored in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Slot-occupancy statistics of the node arena (live/dead dense slots,
    /// spilled entries): the churn observable for long-lived sessions, since
    /// removed identifiers are never reused and their slots stay dead.
    pub fn slab_stats(&self) -> crate::slab::SlabStats {
        self.nodes.stats()
    }

    /// Iterates over all node identifiers in the arena (arbitrary order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys()
    }

    /// Returns the index of `child` within its parent's child list.
    pub fn index_in_parent(&self, child: NodeId) -> Result<Option<usize>> {
        let Some(p) = self.parent(child)? else { return Ok(None) };
        let data = self.node(p)?;
        Ok(data.children.iter().position(|&c| c == child))
    }

    /// Returns the left sibling of a (non-attribute) node, if any.
    pub fn left_sibling(&self, id: NodeId) -> Result<Option<NodeId>> {
        let Some(p) = self.parent(id)? else { return Ok(None) };
        let siblings = self.children(p)?;
        match siblings.iter().position(|&c| c == id) {
            Some(0) | None => Ok(None),
            Some(i) => Ok(Some(siblings[i - 1])),
        }
    }

    /// `v1 /c v2` — `child` is a non-attribute child of `parent`.
    pub fn is_child_of(&self, child: NodeId, parent: NodeId) -> bool {
        self.node(parent).map(|d| d.children.contains(&child)).unwrap_or(false)
    }

    /// `v1 /a v2` — `attr` is an attribute of `element`.
    pub fn is_attribute_of(&self, attr: NodeId, element: NodeId) -> bool {
        self.node(element).map(|d| d.attributes.contains(&attr)).unwrap_or(false)
    }

    /// `v1 //d v2` — `desc` is a (strict) descendant of `anc`, attributes included.
    pub fn is_descendant_of(&self, desc: NodeId, anc: NodeId) -> bool {
        let mut cur = desc;
        loop {
            match self.parent(cur) {
                Ok(Some(p)) => {
                    if p == anc {
                        return true;
                    }
                    cur = p;
                }
                _ => return false,
            }
        }
    }

    /// Depth of the node (root has depth 0); `None` if detached from the root.
    pub fn depth(&self, id: NodeId) -> Result<Option<usize>> {
        let Some(root) = self.root else { return Ok(None) };
        let mut cur = id;
        let mut depth = 0usize;
        loop {
            if cur == root {
                return Ok(Some(depth));
            }
            match self.parent(cur)? {
                Some(p) => {
                    cur = p;
                    depth += 1;
                }
                None => return Ok(None),
            }
        }
    }

    /// Returns the path of ancestors from the root down to (and including) `id`,
    /// or `None` if the node is not attached under the root.
    fn root_path(&self, id: NodeId) -> Option<Vec<NodeId>> {
        let root = self.root?;
        let mut path = vec![id];
        let mut cur = id;
        while cur != root {
            match self.parent(cur).ok()? {
                Some(p) => {
                    path.push(p);
                    cur = p;
                }
                None => return None,
            }
        }
        path.reverse();
        Some(path)
    }

    /// Compares two nodes in document order (`≺` of Table 1).
    ///
    /// Attributes are ordered after their owner element and before its
    /// children; attributes of the same element are ordered by their position
    /// in the attribute list (their relative order is not semantically
    /// relevant, but a total order is convenient for canonical forms).
    pub fn document_order(&self, a: NodeId, b: NodeId) -> OrderRel {
        if a == b {
            return OrderRel::Same;
        }
        let (Some(pa), Some(pb)) = (self.root_path(a), self.root_path(b)) else {
            return OrderRel::Unrelated;
        };
        // Find first diverging ancestor.
        let common = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
        if common == pa.len() {
            // a is an ancestor of b → a comes first
            return OrderRel::Before;
        }
        if common == pb.len() {
            return OrderRel::After;
        }
        let parent = pa[common - 1];
        let ca = pa[common];
        let cb = pb[common];
        let rank = |c: NodeId| -> (u8, usize) {
            let data = self.node(parent).expect("parent exists");
            if let Some(i) = data.attributes.iter().position(|&x| x == c) {
                (0, i)
            } else if let Some(i) = data.children.iter().position(|&x| x == c) {
                (1, i)
            } else {
                (2, 0)
            }
        };
        if rank(ca) < rank(cb) {
            OrderRel::Before
        } else {
            OrderRel::After
        }
    }

    /// `v1 ≺ v2` — strict document-order precedence.
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.document_order(a, b) == OrderRel::Before
    }

    // ------------------------------------------------------------------
    // traversal
    // ------------------------------------------------------------------

    /// Preorder traversal of the subtree rooted at `start` (attributes visited
    /// right after their owner element, before its children).
    pub fn preorder(&self, start: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if let Ok(data) = self.node(id) {
                out.push(id);
                // push children in reverse so they pop in order; attributes first
                for &c in data.children.iter().rev() {
                    stack.push(c);
                }
                for &a in data.attributes.iter().rev() {
                    stack.push(a);
                }
            }
        }
        out
    }

    /// Preorder traversal of the whole document.
    pub fn preorder_from_root(&self) -> Vec<NodeId> {
        match self.root {
            Some(r) => self.preorder(r),
            None => Vec::new(),
        }
    }

    /// All descendants (strict) of `id`, in preorder.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut v = self.preorder(id);
        if !v.is_empty() {
            v.remove(0);
        }
        v
    }

    /// Finds the first element with the given name in preorder, if any.
    pub fn find_element(&self, name: &str) -> Option<NodeId> {
        self.preorder_from_root().into_iter().find(|&id| {
            self.kind(id) == Ok(NodeKind::Element) && self.name(id).ok().flatten() == Some(name)
        })
    }

    /// Finds all elements with the given name, in preorder.
    pub fn find_elements(&self, name: &str) -> Vec<NodeId> {
        self.preorder_from_root()
            .into_iter()
            .filter(|&id| {
                self.kind(id) == Ok(NodeKind::Element) && self.name(id).ok().flatten() == Some(name)
            })
            .collect()
    }

    /// Concatenated text content of the subtree rooted at `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.preorder(id) {
            if self.kind(n) == Ok(NodeKind::Text) {
                if let Ok(Some(v)) = self.value(n) {
                    out.push_str(v);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // mutation
    // ------------------------------------------------------------------

    fn check_child_insertable(&self, parent: NodeId, child: NodeId) -> Result<()> {
        let pk = self.kind(parent)?;
        let ck = self.kind(child)?;
        if pk != NodeKind::Element {
            return Err(XdmError::InvalidStructure(format!(
                "cannot insert children under a {pk} node ({parent})"
            )));
        }
        if ck == NodeKind::Attribute {
            return Err(XdmError::InvalidStructure(format!(
                "attribute node {child} cannot be inserted as a child; use add_attribute"
            )));
        }
        if self.node(child)?.parent.is_some() {
            return Err(XdmError::InvalidStructure(format!("node {child} is already attached")));
        }
        Ok(())
    }

    /// Appends `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.check_child_insertable(parent, child)?;
        let data = self.node_mut(parent)?;
        let index = data.children.len();
        data.children.push(child);
        self.record(DocEntry::ChildRemove { parent, index });
        self.node_mut(child)?.parent = Some(parent);
        self.record(DocEntry::Parent { node: child, old: None });
        Ok(())
    }

    /// Inserts `child` as the first child of `parent`.
    pub fn insert_first_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.insert_child_at(parent, 0, child)
    }

    /// Inserts `child` at position `index` in `parent`'s child list.
    pub fn insert_child_at(&mut self, parent: NodeId, index: usize, child: NodeId) -> Result<()> {
        self.check_child_insertable(parent, child)?;
        let data = self.node_mut(parent)?;
        let index = index.min(data.children.len());
        data.children.insert(index, child);
        self.record(DocEntry::ChildRemove { parent, index });
        self.node_mut(child)?.parent = Some(parent);
        self.record(DocEntry::Parent { node: child, old: None });
        Ok(())
    }

    /// Inserts `node` immediately before `anchor` (which must be attached).
    pub fn insert_before(&mut self, anchor: NodeId, node: NodeId) -> Result<()> {
        let parent = self.parent(anchor)?.ok_or(XdmError::Detached(anchor))?;
        let idx = self.index_in_parent(anchor)?.ok_or_else(|| {
            XdmError::InvalidStructure(format!("{anchor} not in parent's children"))
        })?;
        self.insert_child_at(parent, idx, node)
    }

    /// Inserts `node` immediately after `anchor` (which must be attached).
    pub fn insert_after(&mut self, anchor: NodeId, node: NodeId) -> Result<()> {
        let parent = self.parent(anchor)?.ok_or(XdmError::Detached(anchor))?;
        let idx = self.index_in_parent(anchor)?.ok_or_else(|| {
            XdmError::InvalidStructure(format!("{anchor} not in parent's children"))
        })?;
        self.insert_child_at(parent, idx + 1, node)
    }

    /// Attaches an attribute node to an element.
    pub fn add_attribute(&mut self, element: NodeId, attr: NodeId) -> Result<()> {
        if self.kind(element)? != NodeKind::Element {
            return Err(XdmError::InvalidStructure(format!("{element} is not an element")));
        }
        if self.kind(attr)? != NodeKind::Attribute {
            return Err(XdmError::InvalidStructure(format!("{attr} is not an attribute node")));
        }
        if self.node(attr)?.parent.is_some() {
            return Err(XdmError::InvalidStructure(format!("attribute {attr} already attached")));
        }
        let data = self.node_mut(element)?;
        let index = data.attributes.len();
        data.attributes.push(attr);
        self.record(DocEntry::AttrRemove { element, index });
        self.node_mut(attr)?.parent = Some(element);
        self.record(DocEntry::Parent { node: attr, old: None });
        Ok(())
    }

    /// Detaches `id` from its parent (keeping it and its subtree in the arena).
    pub fn detach(&mut self, id: NodeId) -> Result<()> {
        let Some(p) = self.parent(id)? else {
            if self.root == Some(id) {
                self.record(DocEntry::Root(Some(id)));
                self.root = None;
            }
            return Ok(());
        };
        let parent = self.node_mut(p)?;
        let entry = if let Some(i) = parent.children.iter().position(|&c| c == id) {
            parent.children.remove(i);
            Some(DocEntry::ChildInsert { parent: p, index: i, child: id })
        } else if let Some(i) = parent.attributes.iter().position(|&c| c == id) {
            parent.attributes.remove(i);
            Some(DocEntry::AttrInsert { element: p, index: i, attr: id })
        } else {
            None
        };
        if let Some(entry) = entry {
            self.record(entry);
        }
        self.node_mut(id)?.parent = None;
        self.record(DocEntry::Parent { node: id, old: Some(p) });
        Ok(())
    }

    /// Removes `id` and its entire subtree from the arena. Identifiers are not
    /// reused afterwards.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<()> {
        self.detach(id)?;
        for n in self.preorder(id) {
            self.arena_remove(n);
        }
        if self.root == Some(id) {
            self.record(DocEntry::Root(Some(id)));
            self.root = None;
        }
        Ok(())
    }

    /// Renames an element or attribute node (the `ren` primitive's effect).
    pub fn rename(&mut self, id: NodeId, name: impl Into<String>) -> Result<()> {
        let data = self.node_mut(id)?;
        match data.kind {
            NodeKind::Element | NodeKind::Attribute => {
                let old = data.name.replace(name.into());
                self.record(DocEntry::Name { node: id, old });
                Ok(())
            }
            NodeKind::Text => {
                Err(XdmError::InvalidStructure(format!("cannot rename text node {id}")))
            }
        }
    }

    /// Sets the value of a text or attribute node (the `repV` primitive's effect).
    pub fn set_value(&mut self, id: NodeId, value: impl Into<String>) -> Result<()> {
        let data = self.node_mut(id)?;
        match data.kind {
            NodeKind::Text | NodeKind::Attribute => {
                let old = data.value.replace(value.into());
                self.record(DocEntry::Value { node: id, old });
                Ok(())
            }
            NodeKind::Element => {
                Err(XdmError::InvalidStructure(format!("cannot set value of element {id}")))
            }
        }
    }

    // ------------------------------------------------------------------
    // grafting (deep copy across arenas)
    // ------------------------------------------------------------------

    /// Deep-copies the subtree rooted at `src_root` from `src` into this arena
    /// and returns the identifier of the copied root, detached.
    ///
    /// When `preserve_ids` is `true` the source identifiers are kept (an error
    /// is returned, before anything is allocated, if any clashes with an
    /// existing identifier); otherwise fresh identifiers are minted in source
    /// preorder (owner, its attributes, its children).
    pub fn graft(
        &mut self,
        src: &Document,
        src_root: NodeId,
        preserve_ids: bool,
    ) -> Result<NodeId> {
        // Stage the copy in source preorder. A node's position in `staged` is
        // its preorder index, so a child reaches its already staged parent by
        // index and the links are written with the new identifiers directly.
        let first_fresh = self.next_id;
        let mut staged: Vec<(NodeId, NodeData)> = Vec::new();
        let mut stack: Vec<(NodeId, Option<usize>)> = vec![(src_root, None)];
        while let Some((sid, parent)) = stack.pop() {
            let Ok(sdata) = src.node(sid) else { continue };
            let nid = if preserve_ids {
                if self.nodes.contains(sid) {
                    return Err(XdmError::DuplicateNodeId(sid));
                }
                sid
            } else {
                NodeId::new(first_fresh + staged.len() as u64)
            };
            let index = staged.len();
            let parent = parent.map(|p| {
                let (pid, pdata) = &mut staged[p];
                if sdata.kind == NodeKind::Attribute {
                    pdata.attributes.push(nid);
                } else {
                    pdata.children.push(nid);
                }
                *pid
            });
            staged.push((
                nid,
                NodeData {
                    kind: sdata.kind,
                    name: sdata.name.clone(),
                    value: sdata.value.clone(),
                    parent,
                    children: Vec::with_capacity(sdata.children.len()),
                    attributes: Vec::with_capacity(sdata.attributes.len()),
                },
            ));
            // pushed in reverse so they pop in order; attributes first
            stack.extend(sdata.children.iter().rev().map(|&c| (c, Some(index))));
            stack.extend(sdata.attributes.iter().rev().map(|&a| (a, Some(index))));
        }
        let Some(&(root, _)) = staged.first() else {
            return Err(XdmError::NodeNotFound(src_root));
        };
        let last = staged.iter().map(|(id, _)| id.as_u64()).max().expect("the root is staged");
        self.reserve_ids(last + 1);
        for (nid, data) in staged {
            self.arena_insert(nid, data);
        }
        Ok(root)
    }

    // ------------------------------------------------------------------
    // identifier assignment
    // ------------------------------------------------------------------

    /// Re-assigns identifiers to all nodes of the document in preorder,
    /// starting at `start`. This is the "agreed algorithm" of §4.1 with which
    /// all PUL producers can deterministically identify the nodes of the
    /// authoritative document. Returns the mapping old → new.
    pub fn assign_preorder_ids(&mut self, start: u64) -> HashMap<NodeId, NodeId> {
        assert!(
            self.journal.is_none(),
            "assign_preorder_ids rewrites every identifier and cannot run under an open journal"
        );
        let order = self.preorder_from_root();
        let mut mapping = HashMap::with_capacity(order.len());
        for (i, &old) in order.iter().enumerate() {
            mapping.insert(old, NodeId::new(start + i as u64));
        }
        // Remap in old storage order, then insert ascending by new id: the
        // slab anchors its dense range at the first insert, so out-of-order
        // insertion would strand lower identifiers in the spill map — the
        // opposite of what a renumbering is for.
        let mut entries: Vec<(NodeId, NodeData)> = std::mem::take(&mut self.nodes)
            .into_entries()
            .map(|(old, mut data)| {
                let new_id = *mapping.get(&old).unwrap_or(&old);
                data.parent = data.parent.map(|p| *mapping.get(&p).unwrap_or(&p));
                for c in &mut data.children {
                    *c = *mapping.get(c).unwrap_or(c);
                }
                for a in &mut data.attributes {
                    *a = *mapping.get(a).unwrap_or(a);
                }
                (new_id, data)
            })
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let mut new_nodes = IdSlab::with_capacity(entries.len());
        for (new_id, data) in entries {
            new_nodes.insert(new_id, data);
        }
        self.nodes = new_nodes;
        self.root = self.root.map(|r| *mapping.get(&r).unwrap_or(&r));
        self.next_id = self.nodes.keys().map(|k| k.as_u64()).max().unwrap_or(0) + 1;
        mapping
    }

    /// Structural equality of two subtrees ignoring node identifiers: same
    /// kinds, names, values, same child sequences and the same attribute sets
    /// (attribute order is irrelevant).
    pub fn subtree_equal(&self, a: NodeId, other: &Document, b: NodeId) -> bool {
        let (Ok(da), Ok(db)) = (self.node(a), other.node(b)) else { return false };
        if da.kind != db.kind || da.name != db.name || da.value != db.value {
            return false;
        }
        if da.children.len() != db.children.len() || da.attributes.len() != db.attributes.len() {
            return false;
        }
        // attributes: compare as multisets of (name, value) plus recursively equal
        let mut bt_attrs: Vec<NodeId> = db.attributes.clone();
        for &ca in &da.attributes {
            let pos = bt_attrs.iter().position(|&cb| self.subtree_equal(ca, other, cb));
            match pos {
                Some(i) => {
                    bt_attrs.remove(i);
                }
                None => return false,
            }
        }
        da.children
            .iter()
            .zip(db.children.iter())
            .all(|(&ca, &cb)| self.subtree_equal(ca, other, cb))
    }

    // ------------------------------------------------------------------
    // shared immutable views
    // ------------------------------------------------------------------

    /// Freezes the current state into a cheaply clonable, immutable shared
    /// view — the arena handle MVCC snapshot readers hold while commits
    /// proceed on the live copy. The freeze itself copies the arena once
    /// (O(document)); every clone of the returned handle afterwards is a
    /// reference-count bump.
    pub fn to_shared(&self) -> SharedDocument {
        SharedDocument::new(self.clone())
    }

    // ------------------------------------------------------------------
    // invariants and oracles
    // ------------------------------------------------------------------

    /// Exact equality of two documents: same root, same fresh-identifier
    /// counter, and the same `(id, data)` arena entries. This is the
    /// "bit-identical" comparison the differential tests use to verify that a
    /// journaled rollback restores exactly the state a snapshot clone would
    /// have restored.
    pub fn deep_eq(&self, other: &Document) -> bool {
        self.root == other.root
            && self.next_id == other.next_id
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().all(|(id, data)| other.nodes.get(id) == Some(data))
    }

    /// Debug invariant walker: panics (with a description) on any violation of
    /// the arena's structural invariants — parent/child symmetry, attribute
    /// kinds, per-kind field shapes, identifier-counter monotonicity, slab
    /// dense/spill agreement, and (when a root is set) full attachment of the
    /// arena. O(document); intended for tests and post-commit assertions, not
    /// for hot paths.
    pub fn assert_consistent(&self) {
        self.nodes.assert_consistent();
        if let Some(root) = self.root {
            let rd = self.nodes.get(root).unwrap_or_else(|| panic!("root {root} not in arena"));
            assert!(rd.parent.is_none(), "root {root} has a parent");
        }
        let mut max_id = 0u64;
        for (id, data) in self.nodes.iter() {
            max_id = max_id.max(id.as_u64());
            for &c in &data.children {
                let cd =
                    self.nodes.get(c).unwrap_or_else(|| panic!("child {c} of {id} not in arena"));
                assert_eq!(cd.parent, Some(id), "child {c} of {id}: parent pointer disagrees");
                assert_ne!(cd.kind, NodeKind::Attribute, "attribute {c} listed as child of {id}");
            }
            for &a in &data.attributes {
                let ad = self
                    .nodes
                    .get(a)
                    .unwrap_or_else(|| panic!("attribute {a} of {id} not in arena"));
                assert_eq!(ad.parent, Some(id), "attribute {a} of {id}: parent pointer disagrees");
                assert_eq!(ad.kind, NodeKind::Attribute, "non-attribute {a} in attribute list");
            }
            if let Some(p) = data.parent {
                let pd =
                    self.nodes.get(p).unwrap_or_else(|| panic!("parent {p} of {id} not in arena"));
                assert!(
                    pd.children.contains(&id) || pd.attributes.contains(&id),
                    "{id} points at parent {p} but {p} does not list it"
                );
            }
            match data.kind {
                NodeKind::Element => {
                    assert!(data.name.is_some(), "element {id} has no name");
                }
                NodeKind::Attribute => {
                    assert!(data.name.is_some(), "attribute {id} has no name");
                    assert!(data.value.is_some(), "attribute {id} has no value");
                    assert!(
                        data.children.is_empty() && data.attributes.is_empty(),
                        "attribute {id} has children"
                    );
                }
                NodeKind::Text => {
                    assert!(data.value.is_some(), "text node {id} has no value");
                    assert!(
                        data.children.is_empty() && data.attributes.is_empty(),
                        "text node {id} has children"
                    );
                }
            }
        }
        assert!(
            self.nodes.is_empty() || self.next_id > max_id,
            "next_id {} not past the highest stored id {max_id}",
            self.next_id
        );
        if let Some(root) = self.root {
            // Every arena node is reachable from the root: a committed
            // document holds no detached leftovers.
            assert_eq!(
                self.preorder(root).len(),
                self.nodes.len(),
                "arena contains nodes not reachable from the root"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // <issue vol="30"><article><title>T</title></article><article/></issue>
        let mut d = Document::new();
        let issue = d.new_element("issue");
        let vol = d.new_attribute("vol", "30");
        let a1 = d.new_element("article");
        let t = d.new_element("title");
        let txt = d.new_text("T");
        let a2 = d.new_element("article");
        d.set_root(issue).unwrap();
        d.add_attribute(issue, vol).unwrap();
        d.append_child(issue, a1).unwrap();
        d.append_child(a1, t).unwrap();
        d.append_child(t, txt).unwrap();
        d.append_child(issue, a2).unwrap();
        (d, issue, a1, t, txt, a2)
    }

    #[test]
    fn build_and_navigate() {
        let (d, issue, a1, t, txt, a2) = sample();
        assert_eq!(d.root(), Some(issue));
        assert_eq!(d.children(issue).unwrap(), &[a1, a2]);
        assert_eq!(d.parent(t).unwrap(), Some(a1));
        assert_eq!(d.kind(txt).unwrap(), NodeKind::Text);
        assert_eq!(d.name(a1).unwrap(), Some("article"));
        assert_eq!(d.value(txt).unwrap(), Some("T"));
        assert_eq!(d.node_count(), 6);
        assert!(d.is_child_of(a1, issue));
        assert!(!d.is_child_of(txt, issue));
        assert!(d.is_descendant_of(txt, issue));
        assert!(!d.is_descendant_of(issue, txt));
        assert_eq!(d.depth(txt).unwrap(), Some(3));
        assert_eq!(d.left_sibling(a2).unwrap(), Some(a1));
        assert_eq!(d.left_sibling(a1).unwrap(), None);
    }

    #[test]
    fn attribute_accessors() {
        let (d, issue, ..) = sample();
        let vol = d.attribute_by_name(issue, "vol").unwrap().unwrap();
        assert_eq!(d.value(vol).unwrap(), Some("30"));
        assert!(d.is_attribute_of(vol, issue));
        assert_eq!(d.attribute_by_name(issue, "missing").unwrap(), None);
    }

    #[test]
    fn document_order_relations() {
        let (d, issue, a1, t, txt, a2) = sample();
        assert_eq!(d.document_order(issue, a1), OrderRel::Before);
        assert_eq!(d.document_order(a1, a2), OrderRel::Before);
        assert_eq!(d.document_order(a2, txt), OrderRel::After);
        assert_eq!(d.document_order(t, t), OrderRel::Same);
        assert!(d.precedes(a1, a2));
        let vol = d.attribute_by_name(issue, "vol").unwrap().unwrap();
        // attributes precede children of the same element
        assert_eq!(d.document_order(vol, a1), OrderRel::Before);
        assert_eq!(d.document_order(issue, vol), OrderRel::Before);
    }

    #[test]
    fn preorder_traversal() {
        let (d, issue, a1, t, txt, a2) = sample();
        let vol = d.attribute_by_name(issue, "vol").unwrap().unwrap();
        assert_eq!(d.preorder_from_root(), vec![issue, vol, a1, t, txt, a2]);
        assert_eq!(d.descendants(a1), vec![t, txt]);
    }

    #[test]
    fn mutation_insert_variants() {
        let (mut d, issue, a1, _t, _txt, a2) = sample();
        let x = d.new_element("x");
        d.insert_before(a2, x).unwrap();
        assert_eq!(d.children(issue).unwrap(), &[a1, x, a2]);
        let y = d.new_element("y");
        d.insert_after(a2, y).unwrap();
        assert_eq!(d.children(issue).unwrap(), &[a1, x, a2, y]);
        let z = d.new_element("z");
        d.insert_first_child(issue, z).unwrap();
        assert_eq!(d.children(issue).unwrap(), &[z, a1, x, a2, y]);
    }

    #[test]
    fn mutation_errors() {
        let (mut d, issue, a1, _t, txt, _a2) = sample();
        let e = d.new_element("e");
        assert!(d.append_child(txt, e).is_err(), "text nodes cannot have children");
        let a = d.new_attribute("k", "v");
        assert!(d.append_child(issue, a).is_err(), "attributes are not children");
        assert!(d.add_attribute(txt, a).is_err(), "attributes attach to elements only");
        // already-attached node cannot be attached again
        assert!(d.append_child(issue, a1).is_err());
        assert!(d.rename(txt, "x").is_err());
        assert!(d.set_value(issue, "x").is_err());
        assert!(d.node(NodeId::new(9999)).is_err());
    }

    #[test]
    fn remove_subtree_drops_ids_permanently() {
        let (mut d, issue, a1, t, txt, a2) = sample();
        let before = d.next_id();
        d.remove_subtree(a1).unwrap();
        assert!(!d.contains(a1));
        assert!(!d.contains(t));
        assert!(!d.contains(txt));
        assert!(d.contains(a2));
        assert_eq!(d.children(issue).unwrap(), &[a2]);
        // ids are never reused
        let fresh = d.new_element("fresh");
        assert!(fresh.as_u64() >= before);
        assert_ne!(fresh, a1);
    }

    #[test]
    fn detach_root_clears_root() {
        let (mut d, issue, ..) = sample();
        d.detach(issue).unwrap();
        assert_eq!(d.root(), None);
    }

    #[test]
    fn rename_and_set_value() {
        let (mut d, issue, _a1, _t, txt, _a2) = sample();
        d.rename(issue, "proceedings").unwrap();
        assert_eq!(d.name(issue).unwrap(), Some("proceedings"));
        d.set_value(txt, "New title").unwrap();
        assert_eq!(d.value(txt).unwrap(), Some("New title"));
        let vol = d.attribute_by_name(issue, "vol").unwrap().unwrap();
        d.set_value(vol, "31").unwrap();
        assert_eq!(d.value(vol).unwrap(), Some("31"));
        d.rename(vol, "volume").unwrap();
        assert_eq!(d.name(vol).unwrap(), Some("volume"));
    }

    #[test]
    fn explicit_ids_and_duplicates() {
        let mut d = Document::new();
        let a = d.new_element_with_id(10u64, "a").unwrap();
        assert_eq!(a.as_u64(), 10);
        assert!(d.new_element_with_id(10u64, "b").is_err());
        // next fresh id skips past explicit ids
        let b = d.new_element("b");
        assert_eq!(b.as_u64(), 11);
    }

    #[test]
    fn graft_with_fresh_and_preserved_ids() {
        let (src, _issue, a1, ..) = sample();
        let mut dst = Document::new();
        let root = dst.new_element("holder");
        dst.set_root(root).unwrap();
        let copy = dst.graft(&src, a1, false).unwrap();
        dst.append_child(root, copy).unwrap();
        assert_eq!(dst.node_count(), 4);
        assert!(dst.subtree_equal(copy, &src, a1));

        let mut dst2 = Document::with_first_id(1000);
        let copy2 = dst2.graft(&src, a1, true).unwrap();
        assert_eq!(copy2, a1, "identifiers preserved");
        // preserving again clashes
        assert!(dst2.graft(&src, a1, true).is_err());
    }

    #[test]
    fn graft_mints_identifiers_in_source_preorder() {
        // sample(): issue=1 vol=2 article=3 title=4 "T"=5 article=6; the
        // source arena is built out of preorder on purpose (attribute last).
        let mut src = Document::new();
        let e = src.new_element_with_id(40u64, "e").unwrap();
        let c1 = src.new_element_with_id(10u64, "c1").unwrap();
        let t = src.new_text_with_id(30u64, "t").unwrap();
        let c2 = src.new_element_with_id(20u64, "c2").unwrap();
        let a = src.new_attribute_with_id(50u64, "k", "v").unwrap();
        src.set_root(e).unwrap();
        src.append_child(e, c1).unwrap();
        src.append_child(c1, t).unwrap();
        src.append_child(e, c2).unwrap();
        src.add_attribute(e, a).unwrap();
        let ids = |d: &Document, r| d.preorder(r).iter().map(|n| n.as_u64()).collect::<Vec<_>>();

        // Fresh identifiers: consecutive from the counter, in source preorder
        // (owner, its attributes, then its children).
        let (mut dst, issue, ..) = sample();
        let copy = dst.graft(&src, e, false).unwrap();
        assert_eq!(ids(&dst, copy), vec![7, 8, 9, 10, 11]);
        assert_eq!(dst.next_id(), 12);
        assert_eq!(dst.parent(copy).unwrap(), None, "the copy comes back detached");
        assert_eq!(dst.name(NodeId::new(8)).unwrap(), Some("k"));
        assert_eq!(dst.value(NodeId::new(10)).unwrap(), Some("t"));
        assert_eq!(dst.name(NodeId::new(11)).unwrap(), Some("c2"));
        dst.append_child(issue, copy).unwrap();
        dst.assert_consistent();
        assert!(dst.subtree_equal(copy, &src, e));

        // Preserved identifiers: the source's own, counter bumped past them.
        let (mut dst, issue, ..) = sample();
        let copy = dst.graft(&src, e, true).unwrap();
        assert_eq!(ids(&dst, copy), vec![40, 50, 10, 30, 20]);
        assert_eq!(dst.next_id(), 51);
        dst.append_child(issue, copy).unwrap();
        dst.assert_consistent();
        assert!(dst.subtree_equal(copy, &src, e));
    }

    #[test]
    fn preorder_id_assignment() {
        let (mut d, ..) = sample();
        let mapping = d.assign_preorder_ids(1);
        assert_eq!(mapping.len(), 6);
        let order = d.preorder_from_root();
        let ids: Vec<u64> = order.iter().map(|n| n.as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(d.next_id(), 7);
        // structure survives
        let root = d.root().unwrap();
        assert_eq!(d.name(root).unwrap(), Some("issue"));
        assert_eq!(d.children(root).unwrap().len(), 2);
    }

    #[test]
    fn journal_rollback_restores_every_mutation_kind() {
        let (mut d, issue, a1, _t, txt, a2) = sample();
        let before = d.clone();
        let mut j = d.journal();
        // One of each mutation family: alloc, child insert (all positions),
        // attribute attach, rename, set_value, subtree removal, detach.
        let x = j.new_element("x");
        j.insert_before(a2, x).unwrap();
        let y = j.new_element("y");
        j.insert_after(x, y).unwrap();
        let z = j.new_element("z");
        j.append_child(issue, z).unwrap();
        let at = j.new_attribute("k", "v");
        j.add_attribute(x, at).unwrap();
        j.rename(issue, "renamed").unwrap();
        j.set_value(txt, "changed").unwrap();
        j.remove_subtree(a1).unwrap();
        j.detach(a2).unwrap();
        assert!(!j.deep_eq(&before));
        assert!(j.journal_len() > 0);
        drop(j);
        assert!(!d.journal_is_active(), "rollback closes the journal");
        assert!(d.deep_eq(&before), "rollback must restore the exact pre-journal state");
        d.assert_consistent();
    }

    #[test]
    fn journal_keep_keeps_changes() {
        let (mut d, issue, ..) = sample();
        let mut j = d.journal();
        j.rename(issue, "kept").unwrap();
        j.keep();
        drop(j);
        assert_eq!(d.name(issue).unwrap(), Some("kept"));
        assert_eq!(d.journal_len(), 0);
        assert!(!d.journal_is_active());
    }

    #[test]
    #[should_panic(expected = "journals do not nest")]
    fn journals_do_not_nest() {
        let (mut d, ..) = sample();
        let mut j = d.journal();
        let _ = j.journal();
    }

    #[test]
    fn graft_failure_rolls_back_partial_allocations() {
        let (src, _issue, a1, ..) = sample();
        let mut dst = Document::with_first_id(1000);
        let copied = dst.graft(&src, a1, true).unwrap();
        dst.set_root(copied).unwrap();
        let before = dst.clone();
        // Preserving the same ids again clashes; nothing may stay allocated.
        assert!(dst.journal().graft(&src, a1, true).is_err());
        assert!(dst.deep_eq(&before), "partial graft fully undone");
        dst.assert_consistent();
    }

    #[test]
    fn mutations_without_a_journal_record_nothing() {
        let (mut d, issue, ..) = sample();
        d.rename(issue, "x").unwrap();
        assert_eq!(d.journal_len(), 0);
        assert!(!d.journal_is_active());
        // rolling back with no open journal is a no-op
        d.journal_rollback();
        assert_eq!(d.name(issue).unwrap(), Some("x"));
    }

    #[test]
    fn assert_consistent_accepts_committed_documents() {
        let (d, ..) = sample();
        d.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "cannot run under an open journal")]
    fn preorder_reassignment_rejects_active_journal() {
        let (mut d, ..) = sample();
        d.journal().assign_preorder_ids(1);
    }

    #[test]
    fn subtree_equal_ignores_attribute_order() {
        let mut d1 = Document::new();
        let e1 = d1.new_element("e");
        let x1 = d1.new_attribute("x", "1");
        let y1 = d1.new_attribute("y", "2");
        d1.set_root(e1).unwrap();
        d1.add_attribute(e1, x1).unwrap();
        d1.add_attribute(e1, y1).unwrap();

        let mut d2 = Document::new();
        let e2 = d2.new_element("e");
        let y2 = d2.new_attribute("y", "2");
        let x2 = d2.new_attribute("x", "1");
        d2.set_root(e2).unwrap();
        d2.add_attribute(e2, y2).unwrap();
        d2.add_attribute(e2, x2).unwrap();

        assert!(d1.subtree_equal(e1, &d2, e2));

        let mut d3 = Document::new();
        let e3 = d3.new_element("e");
        let x3 = d3.new_attribute("x", "DIFFERENT");
        d3.set_root(e3).unwrap();
        d3.add_attribute(e3, x3).unwrap();
        assert!(!d1.subtree_equal(e1, &d3, e3));
    }
}
