//! Label assignment over documents and incremental labeling of inserted nodes.

use xdm::{Document, IdSlab, NodeId, NodeKind};

use crate::label::NodeLabel;
use crate::orderkey::OrderKey;

/// The set of labels of a document's nodes.
///
/// A `Labeling` is computed once from the authoritative document (the labels
/// are then attached to the target nodes of the operations in a PUL), and is
/// only modified by the executor when updates are made effective: new nodes
/// receive labels generated *between* existing ones, so that no existing label
/// ever changes (§4.1). The labels are stored in the same dense [`IdSlab`]
/// layout as the document arena, so every Table-1 predicate lookup is an array
/// index.
#[derive(Debug, Clone, Default)]
pub struct Labeling {
    map: IdSlab<NodeLabel>,
}

/// Summary of an incremental [`Labeling::patch`]: how many nodes gained a
/// label and how many lost theirs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Nodes that received a fresh label.
    pub labeled: usize,
    /// Nodes whose label was dropped (removed from the document).
    pub removed: usize,
}

impl Labeling {
    /// Creates an empty labeling.
    pub fn new() -> Self {
        Labeling { map: IdSlab::new() }
    }

    /// Creates an empty labeling sized for `n` labels whose identifiers lie
    /// in `first..=last` (see [`IdSlab::with_id_range`]).
    pub(crate) fn with_id_range(first: NodeId, last: NodeId, n: usize) -> Self {
        Labeling { map: IdSlab::with_id_range(first, last, n) }
    }

    /// Computes the labeling of a whole document.
    pub fn assign(doc: &Document) -> Self {
        let mut labeling = Labeling::new();
        let Some(root) = doc.root() else { return labeling };
        // Two keys (start/end) per node, evenly spaced so that initial labels
        // are short; later insertions use `OrderKey::between`.
        let n = doc.node_count();
        let keys = OrderKey::evenly_spaced(2 * n + 2);
        let mut next = 0usize;
        let mut take = || {
            let k = keys[next].clone();
            next += 1;
            k
        };
        let mut labels = Vec::with_capacity(n);
        Self::collect_subtree(doc, root, 0, &mut take, &mut labels);
        // Insert in ascending identifier order: the slab anchors its dense
        // range at the first inserted id, and the traversal finishes element
        // labels in post-order — inserting as collected would strand every
        // id below the first-finished element in the spill map.
        labels.sort_unstable_by_key(|l| l.id);
        for label in labels {
            labeling.insert(label);
        }
        labeling
    }

    fn assign_subtree(
        &mut self,
        doc: &Document,
        id: NodeId,
        level: u32,
        take: &mut impl FnMut() -> OrderKey,
    ) {
        let mut labels = Vec::new();
        Self::collect_subtree(doc, id, level, take, &mut labels);
        labels.sort_unstable_by_key(|l| l.id);
        for label in labels {
            self.insert(label);
        }
    }

    /// Computes the labels of `id`'s subtree (attributes inside the element's
    /// interval, element labels closed in post-order) without storing them.
    fn collect_subtree(
        doc: &Document,
        id: NodeId,
        level: u32,
        take: &mut impl FnMut() -> OrderKey,
        out: &mut Vec<NodeLabel>,
    ) {
        let start = take();
        let Ok(data) = doc.node(id) else { return };
        // attributes first (they live inside the element's interval)
        for &a in &data.attributes {
            let astart = take();
            let aend = take();
            let label = NodeLabel {
                id: a,
                start: astart,
                end: aend,
                level: level + 1,
                kind: NodeKind::Attribute,
                parent: Some(id),
                left_sibling: None,
                is_first_child: false,
                is_last_child: false,
            };
            out.push(label);
        }
        for &c in &data.children {
            Self::collect_subtree(doc, c, level + 1, take, out);
        }
        let end = take();
        let parent = data.parent;
        let (left_sibling, is_first, is_last) = match parent {
            Some(p) => {
                let siblings = doc.children(p).unwrap_or(&[]);
                let pos = siblings.iter().position(|&s| s == id);
                match pos {
                    Some(i) => (
                        if i > 0 { Some(siblings[i - 1]) } else { None },
                        i == 0,
                        i + 1 == siblings.len(),
                    ),
                    None => (None, false, false),
                }
            }
            None => (None, false, false),
        };
        let label = NodeLabel {
            id,
            start,
            end,
            level,
            kind: data.kind,
            parent,
            left_sibling,
            is_first_child: is_first,
            is_last_child: is_last,
        };
        out.push(label);
    }

    /// Returns the label of a node, if present.
    pub fn get(&self, id: NodeId) -> Option<&NodeLabel> {
        self.map.get(id)
    }

    /// Returns the label of a node, panicking when absent (for internal use by
    /// generators and tests where presence is an invariant).
    pub fn require(&self, id: NodeId) -> &NodeLabel {
        self.map.get(id).unwrap_or_else(|| panic!("node {id} has no label"))
    }

    /// Inserts or replaces the label of a node.
    pub fn insert(&mut self, label: NodeLabel) {
        self.map.insert(label.id, label);
    }

    /// Removes the label of a node (the identifier is never reused, so neither
    /// is the label).
    pub fn remove(&mut self, id: NodeId) -> Option<NodeLabel> {
        self.map.remove(id)
    }

    /// Number of labeled nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Slot-occupancy statistics of the label store (live/dead dense slots,
    /// spilled entries) — the labeling twin of `Document::slab_stats`, since
    /// the two stores churn in lockstep.
    pub fn slab_stats(&self) -> xdm::SlabStats {
        self.map.stats()
    }

    /// Whether the labeling is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all labels.
    pub fn iter(&self) -> impl Iterator<Item = &NodeLabel> {
        self.map.values()
    }

    // ------------------------------------------------------------------
    // predicate helpers on identifiers
    // ------------------------------------------------------------------

    fn pair(&self, a: NodeId, b: NodeId) -> Option<(&NodeLabel, &NodeLabel)> {
        Some((self.map.get(a)?, self.map.get(b)?))
    }

    /// `a ≺ b` in document order.
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.precedes(y)).unwrap_or(false)
    }

    /// `a` is the left sibling of `b`.
    pub fn is_left_sibling(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_left_sibling_of(y)).unwrap_or(false)
    }

    /// `a /c b`.
    pub fn is_child(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_child_of(y)).unwrap_or(false)
    }

    /// `a /a b`.
    pub fn is_attribute(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_attribute_of(y)).unwrap_or(false)
    }

    /// `a /←c b`.
    pub fn is_first_child(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_first_child_of(y)).unwrap_or(false)
    }

    /// `a /→c b`.
    pub fn is_last_child(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_last_child_of(y)).unwrap_or(false)
    }

    /// `a //d b`.
    pub fn is_descendant(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_descendant_of(y)).unwrap_or(false)
    }

    /// `a //¬a_d b`.
    pub fn is_descendant_not_attr(&self, a: NodeId, b: NodeId) -> bool {
        self.pair(a, b).map(|(x, y)| x.is_descendant_not_attr_of(y)).unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // incremental labeling of inserted nodes
    // ------------------------------------------------------------------

    /// Labels the subtree rooted at `new_root`, which must already be attached
    /// inside `doc`. The labels of pre-existing nodes are not modified: new
    /// interval keys are generated between the keys of the neighbouring
    /// siblings (or the parent's interval ends). Used by the executor when it
    /// makes a PUL effective on the authoritative document.
    pub fn label_inserted_subtree(&mut self, doc: &Document, new_root: NodeId) {
        let Ok(Some(parent)) = doc.parent(new_root) else { return };
        let Some(parent_label) = self.map.get(parent) else { return };
        let level = parent_label.level + 1;
        // Determine the order-key bounds from the closest labeled neighbours.
        let (mut left, hi) = self.bounds_for(doc, new_root, parent_label);
        // Each key is generated strictly between the previous one and `hi`,
        // as the traversal asks for it (two per node).
        let mut take = move || {
            let k = OrderKey::between(&left, &hi);
            left = k.clone();
            k
        };
        self.assign_subtree(doc, new_root, level, &mut take);
        // Sibling first/last flags of pre-existing nodes may have become stale;
        // refresh the flags of the parent's children (cheap, local).
        self.refresh_sibling_flags(doc, parent);
    }

    fn bounds_for(
        &self,
        doc: &Document,
        new_node: NodeId,
        parent_label: &NodeLabel,
    ) -> (OrderKey, OrderKey) {
        let is_attr = doc.kind(new_node).map(|k| k == NodeKind::Attribute).unwrap_or(false);
        if is_attr {
            // attributes: inside the parent's interval, after the keys of the
            // already-labeled attributes and before the first labeled child
            let lo = doc
                .attributes(parent_label.id)
                .ok()
                .and_then(|attrs| {
                    attrs.iter().rev().filter(|&&a| a != new_node).find_map(|a| self.map.get(*a))
                })
                .map(|l| l.end.clone())
                .unwrap_or_else(|| parent_label.start.clone());
            let hi = doc
                .children(parent_label.id)
                .ok()
                .and_then(|cs| cs.iter().find_map(|c| self.map.get(*c)))
                .map(|l| l.start.clone())
                .unwrap_or_else(|| parent_label.end.clone());
            return (lo, hi);
        }
        let siblings = doc.children(parent_label.id).unwrap_or(&[]);
        let pos = siblings.iter().position(|&s| s == new_node).unwrap_or(0);
        // closest labeled left neighbour; with no labeled left sibling the
        // lower bound is the last labeled *attribute* of the parent (attribute
        // keys live between the parent's start and its first child), and only
        // then the parent's own start key
        let lo = siblings[..pos]
            .iter()
            .rev()
            .find_map(|s| self.map.get(*s))
            .map(|l| l.end.clone())
            .or_else(|| {
                doc.attributes(parent_label.id)
                    .ok()
                    .and_then(|attrs| attrs.iter().rev().find_map(|a| self.map.get(*a)))
                    .map(|l| l.end.clone())
            })
            .unwrap_or_else(|| parent_label.start.clone());
        let hi = siblings[pos + 1..]
            .iter()
            .find_map(|s| self.map.get(*s))
            .map(|l| l.start.clone())
            .unwrap_or_else(|| parent_label.end.clone());
        (lo, hi)
    }

    /// Recomputes parent/left-sibling/first/last metadata of the children of
    /// `parent` (interval keys are left untouched). Walks every child of
    /// `parent`, so it costs O(fan-out).
    pub fn refresh_sibling_flags(&mut self, doc: &Document, parent: NodeId) {
        let Ok(children) = doc.children(parent) else { return };
        for (i, &c) in children.iter().enumerate() {
            let left_sibling = if i > 0 { Some(children[i - 1]) } else { None };
            let is_first = i == 0;
            let is_last = i + 1 == children.len();
            let Some(label) = self.map.get_mut(c) else { continue };
            label.parent = Some(parent);
            label.left_sibling = left_sibling;
            label.is_first_child = is_first;
            label.is_last_child = is_last;
        }
    }

    // ------------------------------------------------------------------
    // incremental patching after a PUL application
    // ------------------------------------------------------------------

    /// Brings the labeling up to date with `doc` after a PUL application,
    /// given the structural effects recorded by the evaluator: the roots of
    /// the inserted subtrees and the identifiers of all removed nodes.
    ///
    /// Only the inserted nodes receive (fresh) labels and only the removed
    /// nodes lose theirs; the interval keys of every untouched node are left
    /// **bit-identical** — the §4.1 "no relabeling on update" guarantee. The
    /// labels written are proportional to the size of the change, but the
    /// time is not quite: every inserted root and every parent of a removal
    /// refreshes the sibling metadata of *all* its parent's children
    /// ([`refresh_sibling_flags`](Labeling::refresh_sibling_flags)), so a
    /// change under a high-fan-out parent costs O(fan-out) per such node.
    ///
    /// Inserted roots that are no longer part of the document (inserted by one
    /// operation and removed by an overriding one in the same PUL) are skipped;
    /// removing an identifier that was never labeled is a no-op.
    pub fn patch(
        &mut self,
        doc: &Document,
        inserted_roots: &[NodeId],
        removed_nodes: &[NodeId],
    ) -> PatchReport {
        let mut report = PatchReport::default();
        // 1. Drop the labels of removed nodes, remembering the surviving
        //    parents whose child metadata is now stale (deduplicated below —
        //    a per-removal membership scan would be quadratic in the change).
        let mut stale_parents: Vec<NodeId> = Vec::new();
        for &id in removed_nodes {
            if let Some(old) = self.remove(id) {
                report.removed += 1;
                if let Some(p) = old.parent {
                    if doc.contains(p) {
                        stale_parents.push(p);
                    }
                }
            }
        }
        stale_parents.sort_unstable();
        stale_parents.dedup();
        // 2. Label the inserted subtrees (in the order they were applied; the
        //    interval bounds always come from the *currently labeled* live
        //    neighbours, so any application order yields a consistent order).
        for &root in inserted_roots {
            if !doc.contains(root) || self.map.contains(root) {
                continue;
            }
            let before = self.map.len();
            self.label_inserted_subtree(doc, root);
            report.labeled += self.map.len() - before;
        }
        // 3. Refresh the sibling flags around the removals (insertions already
        //    refreshed their parents in `label_inserted_subtree`).
        for p in stale_parents {
            self.refresh_sibling_flags(doc, p);
        }
        report
    }

    // ------------------------------------------------------------------
    // invariants and oracles
    // ------------------------------------------------------------------

    /// Exact equality of two labelings: the same `(id, label)` entries with
    /// bit-identical interval keys and metadata. The differential tests use
    /// this to check a rolled-back commit against the snapshot oracle.
    pub fn deep_eq(&self, other: &Labeling) -> bool {
        self.map.len() == other.map.len()
            && self.map.iter().all(|(id, label)| other.map.get(id) == Some(label))
    }

    /// Debug invariant walker: panics (with a description) when the labeling
    /// disagrees with the document — a node without a label or a stale label,
    /// metadata (kind, parent, level, sibling flags) out of sync, or interval
    /// keys that violate the containment ordering (children nested inside the
    /// parent interval, siblings in increasing key order, attribute keys
    /// between the owner's start and its first child). O(document · depth);
    /// intended for tests and post-commit assertions.
    pub fn assert_consistent(&self, doc: &Document) {
        let attached = doc.preorder_from_root();
        assert_eq!(
            self.map.len(),
            attached.len(),
            "label count disagrees with the number of attached nodes (stale or missing labels)"
        );
        for &id in &attached {
            let label = self.require(id);
            assert_eq!(label.id, id, "label of {id} carries the wrong identifier");
            assert!(label.start < label.end, "label of {id}: start key not before end key");
            assert_eq!(Ok(label.kind), doc.kind(id), "label of {id}: kind disagrees");
            assert_eq!(Ok(label.parent), doc.parent(id), "label of {id}: parent disagrees");
            assert_eq!(
                Some(label.level as usize),
                doc.depth(id).expect("attached node"),
                "label of {id}: level disagrees with depth"
            );
            if label.kind == NodeKind::Attribute {
                assert!(label.left_sibling.is_none(), "attribute {id} has a left sibling");
                assert!(
                    !label.is_first_child && !label.is_last_child,
                    "attribute {id} carries child flags"
                );
            } else {
                assert_eq!(
                    Ok(label.left_sibling),
                    doc.left_sibling(id),
                    "label of {id}: left sibling disagrees"
                );
                if let Some(p) = label.parent {
                    let siblings = doc.children(p).expect("parent exists");
                    assert_eq!(
                        label.is_first_child,
                        siblings.first() == Some(&id),
                        "label of {id}: first-child flag disagrees"
                    );
                    assert_eq!(
                        label.is_last_child,
                        siblings.last() == Some(&id),
                        "label of {id}: last-child flag disagrees"
                    );
                }
            }
            // containment: the node's interval nests strictly inside its parent's
            if let Some(p) = label.parent {
                let pl = self.require(p);
                assert!(
                    pl.start < label.start && label.end < pl.end,
                    "interval of {id} not nested inside its parent {p}"
                );
            }
        }
        // label-key ordering between siblings and around attributes
        for &id in &attached {
            let Ok(children) = doc.children(id) else { continue };
            for pair in children.windows(2) {
                let (a, b) = (self.require(pair[0]), self.require(pair[1]));
                assert!(
                    a.end < b.start,
                    "sibling keys out of order under {id}: {} !< {}",
                    pair[0],
                    pair[1]
                );
            }
            let Ok(attrs) = doc.attributes(id) else { continue };
            for pair in attrs.windows(2) {
                let (a, b) = (self.require(pair[0]), self.require(pair[1]));
                assert!(
                    a.end < b.start,
                    "attribute keys out of order under {id}: {} !< {}",
                    pair[0],
                    pair[1]
                );
            }
            if let (Some(&last_attr), Some(&first_child)) = (attrs.last(), children.first()) {
                assert!(
                    self.require(last_attr).end < self.require(first_child).start,
                    "attribute keys of {id} overlap its first child"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use xdm::parser::parse_document;

    fn doc_and_labels(xml: &str) -> (Document, Labeling) {
        let doc = parse_document(xml).unwrap();
        let labels = Labeling::assign(&doc);
        (doc, labels)
    }

    /// The labeling must agree with the ground-truth structural queries of the
    /// document for every pair of nodes — this is the "Table 1" contract.
    fn check_against_document(doc: &Document, labels: &Labeling) {
        let nodes = doc.preorder_from_root();
        assert_eq!(labels.len(), nodes.len());
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(labels.precedes(a, b), doc.precedes(a, b), "precedes({a},{b})");
                assert_eq!(labels.is_child(a, b), doc.is_child_of(a, b), "child({a},{b})");
                assert_eq!(labels.is_attribute(a, b), doc.is_attribute_of(a, b), "attr({a},{b})");
                assert_eq!(labels.is_descendant(a, b), doc.is_descendant_of(a, b), "desc({a},{b})");
                let gt_left = doc.left_sibling(b).ok().flatten() == Some(a);
                assert_eq!(labels.is_left_sibling(a, b), gt_left, "leftsib({a},{b})");
                let gt_first =
                    doc.is_child_of(a, b) && doc.children(b).unwrap().first() == Some(&a);
                assert_eq!(labels.is_first_child(a, b), gt_first, "first({a},{b})");
                let gt_last = doc.is_child_of(a, b) && doc.children(b).unwrap().last() == Some(&a);
                assert_eq!(labels.is_last_child(a, b), gt_last, "last({a},{b})");
                let gt_nda = doc.is_descendant_of(a, b) && !doc.is_attribute_of(a, b);
                assert_eq!(labels.is_descendant_not_attr(a, b), gt_nda, "nda({a},{b})");
            }
        }
    }

    #[test]
    fn table1_predicates_match_document_ground_truth() {
        let (doc, labels) = doc_and_labels(
            "<issue volume=\"30\" number=\"3\"><paper><title>t1</title><author>A</author>\
             <author>B</author></paper><paper id=\"x\"><title>t2</title></paper></issue>",
        );
        check_against_document(&doc, &labels);
    }

    #[test]
    fn table1_predicates_on_deeper_document() {
        let (doc, labels) =
            doc_and_labels("<a><b><c><d>t</d></c></b><e f=\"1\"><g/><h>u</h></e><i/></a>");
        check_against_document(&doc, &labels);
    }

    #[test]
    fn empty_document_yields_empty_labeling() {
        let doc = Document::new();
        let labels = Labeling::assign(&doc);
        assert!(labels.is_empty());
    }

    #[test]
    fn get_and_require() {
        let (doc, labels) = doc_and_labels("<a><b/></a>");
        let root = doc.root().unwrap();
        assert!(labels.get(root).is_some());
        assert_eq!(labels.require(root).level, 0);
        assert!(labels.get(NodeId::new(999)).is_none());
    }

    #[test]
    #[should_panic(expected = "has no label")]
    fn require_panics_on_missing() {
        let (_, labels) = doc_and_labels("<a/>");
        labels.require(NodeId::new(42));
    }

    #[test]
    fn levels_follow_depth() {
        let (doc, labels) = doc_and_labels("<a><b><c/></b></a>");
        let a = doc.find_element("a").unwrap();
        let b = doc.find_element("b").unwrap();
        let c = doc.find_element("c").unwrap();
        assert_eq!(labels.require(a).level, 0);
        assert_eq!(labels.require(b).level, 1);
        assert_eq!(labels.require(c).level, 2);
    }

    #[test]
    fn inserted_subtree_gets_labels_without_touching_existing_ones() {
        let (mut doc, mut labels) =
            doc_and_labels("<issue><paper>one</paper><paper>two</paper></issue>");
        let issue = doc.find_element("issue").unwrap();
        let before: HashMap<NodeId, NodeLabel> = labels.iter().map(|l| (l.id, l.clone())).collect();

        // Insert a new <paper> between the two existing ones.
        let papers = doc.find_elements("paper");
        let new_paper = doc.new_element("paper");
        let new_text = doc.new_text("three");
        doc.append_child(new_paper, new_text).unwrap();
        doc.insert_after(papers[0], new_paper).unwrap();

        labels.label_inserted_subtree(&doc, new_paper);

        // New nodes labeled, old interval keys untouched.
        assert!(labels.get(new_paper).is_some());
        assert!(labels.get(new_text).is_some());
        for (id, old) in &before {
            let now = labels.require(*id);
            assert_eq!(now.start, old.start, "start key of {id} unchanged");
            assert_eq!(now.end, old.end, "end key of {id} unchanged");
        }
        // Predicates on the updated document are still correct.
        check_against_document(&doc, &labels);
        assert!(labels.is_child(new_paper, issue));
        assert!(labels.precedes(papers[0], new_paper));
        assert!(labels.precedes(new_paper, papers[1]));
    }

    #[test]
    fn inserted_first_and_last_children() {
        let (mut doc, mut labels) = doc_and_labels("<list><item>a</item></list>");
        let list = doc.find_element("list").unwrap();
        let first = doc.new_element("first");
        doc.insert_first_child(list, first).unwrap();
        labels.label_inserted_subtree(&doc, first);
        let last = doc.new_element("last");
        doc.append_child(list, last).unwrap();
        labels.label_inserted_subtree(&doc, last);
        check_against_document(&doc, &labels);
        assert!(labels.is_first_child(first, list));
        assert!(labels.is_last_child(last, list));
    }

    #[test]
    fn inserted_attribute_is_labeled() {
        let (mut doc, mut labels) = doc_and_labels("<e><c/></e>");
        let e = doc.find_element("e").unwrap();
        let a = doc.new_attribute("k", "v");
        doc.add_attribute(e, a).unwrap();
        labels.label_inserted_subtree(&doc, a);
        assert!(labels.is_attribute(a, e));
        assert!(labels.is_descendant(a, e));
        check_against_document(&doc, &labels);
    }

    #[test]
    fn inserted_attributes_get_distinct_ordered_keys() {
        // Two attributes inserted one after the other used to receive the
        // same midpoint key (the bounds ignored already-labeled attributes).
        let (mut doc, mut labels) = doc_and_labels("<e old=\"0\"><c/></e>");
        let e = doc.find_element("e").unwrap();
        let a1 = doc.new_attribute("k1", "v1");
        doc.add_attribute(e, a1).unwrap();
        labels.label_inserted_subtree(&doc, a1);
        let a2 = doc.new_attribute("k2", "v2");
        doc.add_attribute(e, a2).unwrap();
        labels.label_inserted_subtree(&doc, a2);
        let (l1, l2) = (labels.require(a1).clone(), labels.require(a2).clone());
        assert_ne!(l1.start, l2.start, "sibling attributes must not share keys");
        assert!(labels.precedes(a1, a2) ^ labels.precedes(a2, a1), "total order on attributes");
        check_against_document(&doc, &labels);
    }

    #[test]
    fn inserted_first_child_stays_after_existing_attributes() {
        // The first-child lower bound must clear the attribute keys, which
        // live between the parent's start and its first child.
        let (mut doc, mut labels) = doc_and_labels("<e k=\"v\" w=\"z\"><c/></e>");
        let e = doc.find_element("e").unwrap();
        let first = doc.new_element("first");
        doc.insert_first_child(e, first).unwrap();
        labels.label_inserted_subtree(&doc, first);
        check_against_document(&doc, &labels);
        let k = doc.attribute_by_name(e, "k").unwrap().unwrap();
        let w = doc.attribute_by_name(e, "w").unwrap().unwrap();
        assert!(labels.precedes(k, first), "attributes precede the inserted first child");
        assert!(labels.precedes(w, first));
        assert!(labels.is_first_child(first, e));
    }

    #[test]
    fn patch_labels_only_the_change() {
        let (mut doc, mut labels) = doc_and_labels(
            "<issue><paper>one</paper><paper>two</paper><paper>three</paper></issue>",
        );
        let papers = doc.find_elements("paper");
        let before: HashMap<NodeId, NodeLabel> = labels.iter().map(|l| (l.id, l.clone())).collect();

        // Remove the middle paper and insert a replacement subtree after it.
        let removed: Vec<NodeId> = doc.preorder(papers[1]);
        doc.remove_subtree(papers[1]).unwrap();
        let new_paper = doc.new_element("paper");
        let new_text = doc.new_text("new");
        doc.append_child(new_paper, new_text).unwrap();
        doc.insert_after(papers[0], new_paper).unwrap();

        let report = labels.patch(&doc, &[new_paper], &removed);
        assert_eq!(report, PatchReport { labeled: 2, removed: removed.len() });
        check_against_document(&doc, &labels);
        // untouched interval keys are bit-identical
        for id in doc.preorder_from_root() {
            if let Some(old) = before.get(&id) {
                let now = labels.require(id);
                assert_eq!(now.start, old.start, "start key of {id} unchanged");
                assert_eq!(now.end, old.end, "end key of {id} unchanged");
            }
        }
        // patching an already-removed insertion root is a no-op
        let report = labels.patch(&doc, &[papers[1]], &[]);
        assert_eq!(report, PatchReport::default());
    }

    #[test]
    fn assert_consistent_accepts_fresh_and_patched_labelings() {
        let (mut doc, mut labels) = doc_and_labels("<list a=\"1\" b=\"2\"><x/><y>t</y></list>");
        labels.assert_consistent(&doc);
        let list = doc.find_element("list").unwrap();
        let z = doc.new_element("z");
        doc.append_child(list, z).unwrap();
        labels.patch(&doc, &[z], &[]);
        labels.assert_consistent(&doc);
    }

    #[test]
    #[should_panic(expected = "stale or missing labels")]
    fn assert_consistent_detects_missing_labels() {
        let (mut doc, labels) = doc_and_labels("<a><b/></a>");
        let a = doc.find_element("a").unwrap();
        let c = doc.new_element("c");
        doc.append_child(a, c).unwrap();
        labels.assert_consistent(&doc); // c was never labeled
    }
}

// The property-based suite needs the external `proptest` crate, which is not
// vendored in this offline workspace. The `proptest` feature only un-gates
// this module: to actually run it, also add `proptest` as a dev-dependency
// in an environment with crates.io access.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xdm::parser::parse_document;

    /// Generates a small random XML document as a string.
    fn arb_xml() -> impl Strategy<Value = String> {
        // recursive tree of element names a..e with optional text and attributes
        let leaf = prop_oneof![
            Just("<x/>".to_string()),
            "[a-z]{1,6}".prop_map(|t| format!("<t>{t}</t>")),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            (proptest::collection::vec(inner, 1..4), 0u8..3).prop_map(|(children, nattr)| {
                let attrs: String =
                    (0..nattr).map(|i| format!(" a{i}=\"v{i}\"")).collect::<Vec<_>>().join("");
                format!("<e{attrs}>{}</e>", children.join(""))
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn labeling_agrees_with_document(xml in arb_xml()) {
            let doc = parse_document(&xml).unwrap();
            let labels = Labeling::assign(&doc);
            let nodes = doc.preorder_from_root();
            for &a in &nodes {
                for &b in &nodes {
                    prop_assert_eq!(labels.precedes(a, b), doc.precedes(a, b));
                    prop_assert_eq!(labels.is_descendant(a, b), doc.is_descendant_of(a, b));
                    prop_assert_eq!(labels.is_child(a, b), doc.is_child_of(a, b));
                    prop_assert_eq!(labels.is_attribute(a, b), doc.is_attribute_of(a, b));
                }
            }
        }
    }
}
