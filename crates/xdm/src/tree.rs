//! Standalone tree fragments used as update-operation parameters.
//!
//! The update primitives of Table 2 take a list `P = [T1, …, Tn]` of trees as
//! their second parameter. A [`Tree`] is a rooted fragment whose root may be an
//! element, attribute or text node (attribute trees are used by `insA` and by
//! attribute replacement). Internally it reuses the [`Document`] arena, so the
//! whole navigation/mutation API is available through `Deref`.
//!
//! The arena is held through an `Arc`: cloning a tree — which every stage of
//! the reasoning pipeline does when it hands an operation to the next — is a
//! reference-count bump, and the arena is copied only when a tree that still
//! shares it is mutated (copy-on-write).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::document::Document;
use crate::error::XdmError;
use crate::node::{NodeId, NodeKind};
use crate::Result;

/// A standalone XML fragment with a mandatory root node.
///
/// `Clone` shares the arena; every mutable entry point ([`DerefMut`],
/// [`as_document_mut`](Tree::as_document_mut), [`assign_ids`](Tree::assign_ids))
/// first makes it unique, copying it if another tree still shares it.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    doc: Arc<Document>,
}

impl Tree {
    /// Creates a tree from a document that already has a root.
    pub fn from_document(doc: Document) -> Result<Self> {
        doc.require_root()?;
        Ok(Tree { doc: Arc::new(doc) })
    }

    /// Builds a single-node element tree.
    pub fn element(name: impl Into<String>) -> Self {
        let mut doc = Document::new();
        let r = doc.new_element(name);
        doc.set_root(r).expect("root just created");
        Tree { doc: Arc::new(doc) }
    }

    /// Builds an element tree with a single text child: `<name>text</name>`.
    pub fn element_with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut doc = Document::new();
        let r = doc.new_element(name);
        let t = doc.new_text(text);
        doc.set_root(r).expect("root just created");
        doc.append_child(r, t).expect("append text");
        Tree { doc: Arc::new(doc) }
    }

    /// Builds a single attribute-node tree: `name="value"`.
    pub fn attribute(name: impl Into<String>, value: impl Into<String>) -> Self {
        let mut doc = Document::new();
        let r = doc.new_attribute(name, value);
        doc.set_root(r).expect("root just created");
        Tree { doc: Arc::new(doc) }
    }

    /// Builds a single text-node tree.
    pub fn text(value: impl Into<String>) -> Self {
        let mut doc = Document::new();
        let r = doc.new_text(value);
        doc.set_root(r).expect("root just created");
        Tree { doc: Arc::new(doc) }
    }

    /// The root node of the fragment (`R(T)`).
    pub fn root_id(&self) -> NodeId {
        self.doc.root().expect("trees always have a root")
    }

    /// The kind of the root node.
    pub fn root_kind(&self) -> NodeKind {
        self.doc.kind(self.root_id()).expect("root exists")
    }

    /// The name of the root node, if it is an element or attribute.
    pub fn root_name(&self) -> Option<String> {
        self.doc.name(self.root_id()).ok().flatten().map(str::to_owned)
    }

    /// Immutable access to the underlying arena.
    pub fn as_document(&self) -> &Document {
        &self.doc
    }

    /// Mutable access to the underlying arena (copied first if shared).
    pub fn as_document_mut(&mut self) -> &mut Document {
        Arc::make_mut(&mut self.doc)
    }

    /// Consumes the tree, returning the underlying arena (copied if shared).
    pub fn into_document(self) -> Document {
        Arc::unwrap_or_clone(self.doc)
    }

    /// Whether the two trees are clones still sharing one arena.
    pub fn shares_storage_with(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.doc, &other.doc)
    }

    /// Re-assigns identifiers in preorder starting at `start` (used when a
    /// producer assigns identifiers to new nodes, §4.1). Returns the new root.
    pub fn assign_ids(&mut self, start: u64) -> NodeId {
        self.as_document_mut().assign_preorder_ids(start);
        self.root_id()
    }

    /// Deep structural equality (identifier agnostic).
    pub fn structurally_equal(&self, other: &Tree) -> bool {
        self.doc.subtree_equal(self.root_id(), &other.doc, other.root_id())
    }

    /// Number of nodes in the fragment.
    pub fn size(&self) -> usize {
        self.doc.node_count()
    }

    /// Validates that the fragment root has one of the given kinds; used by
    /// operation applicability conditions.
    pub fn expect_root_kind(&self, allowed: &[NodeKind]) -> Result<()> {
        let k = self.root_kind();
        if allowed.contains(&k) {
            Ok(())
        } else {
            Err(XdmError::InvalidStructure(format!(
                "fragment root has kind {k}, expected one of {allowed:?}"
            )))
        }
    }
}

impl Deref for Tree {
    type Target = Document;
    fn deref(&self) -> &Document {
        &self.doc
    }
}

impl DerefMut for Tree {
    fn deref_mut(&mut self) -> &mut Document {
        self.as_document_mut()
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::writer::write_fragment(&self.doc, self.root_id()))
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Self) -> bool {
        self.structurally_equal(other)
    }
}

impl Eq for Tree {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_roots() {
        let e = Tree::element("author");
        assert_eq!(e.root_kind(), NodeKind::Element);
        assert_eq!(e.root_name().as_deref(), Some("author"));

        let et = Tree::element_with_text("author", "G.Guerrini");
        assert_eq!(et.size(), 2);
        assert_eq!(et.text_content(et.root_id()), "G.Guerrini");

        let a = Tree::attribute("initPage", "132");
        assert_eq!(a.root_kind(), NodeKind::Attribute);
        assert_eq!(a.value(a.root_id()).unwrap(), Some("132"));

        let t = Tree::text("hello");
        assert_eq!(t.root_kind(), NodeKind::Text);
    }

    #[test]
    fn structural_equality_is_id_agnostic() {
        let mut t1 = Tree::element_with_text("author", "M.Mesiti");
        let t2 = Tree::element_with_text("author", "M.Mesiti");
        let t3 = Tree::element_with_text("author", "F.Cavalieri");
        t1.assign_ids(500);
        assert!(t1.structurally_equal(&t2));
        assert_eq!(t1, t2);
        assert!(!t1.structurally_equal(&t3));
    }

    #[test]
    fn expect_root_kind_enforces_applicability() {
        let a = Tree::attribute("k", "v");
        assert!(a.expect_root_kind(&[NodeKind::Attribute]).is_ok());
        assert!(a.expect_root_kind(&[NodeKind::Element, NodeKind::Text]).is_err());
    }

    #[test]
    fn from_document_requires_root() {
        let doc = Document::new();
        assert!(Tree::from_document(doc).is_err());
    }

    #[test]
    fn assign_ids_renumbers_in_preorder() {
        let mut t = Tree::element_with_text("a", "x");
        let root = t.assign_ids(100);
        assert_eq!(root.as_u64(), 100);
        let child = t.children(root).unwrap()[0];
        assert_eq!(child.as_u64(), 101);
    }

    #[test]
    fn clones_share_storage_until_one_is_mutated() {
        let mut original = Tree::element_with_text("author", "M.Mesiti");
        original.assign_ids(10);
        let pristine = original.as_document().clone();

        type Mutator = fn(&mut Tree);
        let mutators: [(&str, Mutator); 3] = [
            ("deref_mut", |t| {
                let root = t.root_id();
                t.rename(root, "editor").unwrap();
            }),
            ("as_document_mut", |t| {
                let root = t.root_id();
                let extra = t.as_document_mut().new_element("extra");
                t.as_document_mut().append_child(root, extra).unwrap();
            }),
            ("assign_ids", |t| {
                t.assign_ids(500);
            }),
        ];
        for (entry, mutate) in mutators {
            let mut copy = original.clone();
            assert!(copy.shares_storage_with(&original), "{entry}: a clone is a shared handle");
            // reading through the clone copies nothing
            assert_eq!(copy.text_content(copy.root_id()), "M.Mesiti");
            assert!(copy.shares_storage_with(&original), "{entry}: reads keep sharing");
            mutate(&mut copy);
            assert!(!copy.shares_storage_with(&original), "{entry}: the write unshared");
            assert!(original.deep_eq(&pristine), "{entry}: the original is untouched");
            assert!(!copy.deep_eq(&pristine), "{entry}: the clone took the write");
        }

        // A shared tree is unwrapped by copying; the other handle survives.
        let shared = original.clone();
        assert!(shared.into_document().deep_eq(&pristine));
        assert!(original.deep_eq(&pristine));
    }

    #[test]
    fn display_serializes_fragment() {
        let t = Tree::element_with_text("author", "G.Guerrini");
        assert_eq!(t.to_string(), "<author>G.Guerrini</author>");
        let a = Tree::attribute("initPage", "132");
        assert_eq!(a.to_string(), "initPage=\"132\"");
    }
}
