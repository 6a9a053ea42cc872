//! In-memory PUL evaluation in the five stages of the XQuery Update Facility.
//!
//! The semantics follows §2.2: operations are applied in five stages —
//! (1) `ins↓, insA, repV, ren`, (2) `ins←, ins→, ins↙, ins↘`, (3) `repN`,
//! (4) `repC`, (5) `del` — so that, e.g., deletions always follow every other
//! operation and insertions relative to a replaced node still take effect.
//!
//! Where the specification leaves freedom (the position chosen by `ins↓`, the
//! relative order of several insertions of the same type on the same target)
//! this evaluator makes a *deterministic* choice: `ins↓` inserts as first
//! children (consistently with the deterministic reduction of Def. 8, which
//! rewrites `ins↓` into `ins↙`), and operations within a stage are applied in
//! the canonical order (target document order, then parameter order). The full
//! non-deterministic semantics is available in [`crate::obtainable`].

use std::collections::HashSet;

use xdm::{Document, NodeId, NodeKind, Tree};
use xlabel::Labeling;

use crate::error::PulError;
use crate::op::UpdateOp;
use crate::pul::Pul;
use crate::Result;

/// Options controlling PUL evaluation.
#[derive(Debug, Clone)]
pub struct ApplyOptions {
    /// Validate PUL applicability (Def. 4) before applying. Defaults to `true`.
    pub validate: bool,
    /// Preserve the node identifiers of the parameter trees when grafting them
    /// into the document. This is how a *producer* applies its own PULs, so
    /// that later PULs of a sequence can refer to the nodes inserted by earlier
    /// ones (§4.1); the *executor* typically assigns fresh identifiers instead.
    pub preserve_content_ids: bool,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions { validate: true, preserve_content_ids: false }
    }
}

impl ApplyOptions {
    /// Producer-side options: parameter-tree identifiers are preserved.
    pub fn producer() -> Self {
        ApplyOptions { validate: true, preserve_content_ids: true }
    }
}

/// Journal handle of an application: how many inverse entries the journaled
/// apply recorded on the document. Proportional to the size of the *change* —
/// this is what the `commit_memory` benchmark asserts stays flat as the
/// document grows. Zero for non-journaled applies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Inverse entries recorded in the document journal.
    pub doc_entries: usize,
}

/// Summary of the effects of a PUL application.
#[derive(Debug, Clone, Default)]
pub struct ApplyReport {
    /// Roots of the subtrees inserted into the document.
    pub inserted_roots: Vec<NodeId>,
    /// *All* nodes removed from the document, including the descendants of the
    /// removed subtree roots and the children cleared by `repC` — exactly the
    /// identifiers whose labels must be dropped by [`Labeling::patch`].
    pub removed_nodes: Vec<NodeId>,
    /// Journal entries recorded by [`apply_pul_journaled`] (zero otherwise).
    pub journal: JournalStats,
}

/// Applies a PUL to a document (deterministic semantics).
pub fn apply_pul(doc: &mut Document, pul: &Pul, opts: &ApplyOptions) -> Result<ApplyReport> {
    if opts.validate {
        pul.check_applicable(doc)?;
    }
    let mut report = ApplyReport::default();

    let mut ordered: Vec<&UpdateOp> = pul.ops().iter().collect();
    ordered.sort_by(|a, b| a.canonical_cmp(b));

    for op in ordered {
        apply_one(doc, op, opts, &mut report)?;
    }
    Ok(report)
}

/// Applies a PUL to a document, also maintaining the labeling: inserted nodes
/// receive fresh labels (without relabeling existing nodes) and removed nodes
/// lose theirs. This is what the executor does on the authoritative copy; the
/// labeling update is an incremental [`Labeling::patch`] driven by the apply
/// report, so its cost is proportional to the size of the change.
pub fn apply_pul_with_labeling(
    doc: &mut Document,
    labeling: &mut Labeling,
    pul: &Pul,
    opts: &ApplyOptions,
) -> Result<ApplyReport> {
    let report = apply_pul(doc, pul, opts)?;
    labeling.patch(doc, &report.inserted_roots, &report.removed_nodes);
    Ok(report)
}

/// *Atomic* variant of [`apply_pul_with_labeling`]: the application runs
/// under the document's journal, so a mid-apply failure (an op not
/// applicable after earlier ops, a dynamic error such as a duplicate
/// attribute) rolls the document back to its exact pre-call state at
/// O(change) cost — no snapshot clone is ever taken — and leaves the labeling
/// untouched. Only once the application has succeeded is the journal closed
/// and the labeling patched; the recorded entry count is published in
/// [`ApplyReport::journal`].
///
/// The rollback also fires on *unwind*: a panic inside the application rolls
/// the document back exactly like an `Err` before propagating. A panic inside
/// the label patch that follows is not rolled back — the document keeps the
/// change and the labeling must be rebuilt ([`Labeling::assign`]).
pub fn apply_pul_journaled(
    doc: &mut Document,
    labeling: &mut Labeling,
    pul: &Pul,
    opts: &ApplyOptions,
) -> Result<ApplyReport> {
    let mut doc = doc.journal();
    let mut report = apply_pul(&mut doc, pul, opts)?;
    report.journal.doc_entries = doc.journal_len();
    doc.keep();
    labeling.patch(&doc, &report.inserted_roots, &report.removed_nodes);
    Ok(report)
}

/// Grafts a parameter tree into the document (detached) and returns its new root.
fn graft_tree(doc: &mut Document, tree: &Tree, opts: &ApplyOptions) -> Result<NodeId> {
    Ok(doc.graft(tree.as_document(), tree.root_id(), opts.preserve_content_ids)?)
}

/// Removes the subtree rooted at `root`, reporting every removed node.
fn remove_reported(doc: &mut Document, root: NodeId, report: &mut ApplyReport) -> Result<()> {
    report.removed_nodes.extend(doc.preorder(root));
    Ok(doc.remove_subtree(root)?)
}

/// Applies a single operation. Operations whose target has already been removed
/// by a previously applied (overriding) operation are silently skipped — the
/// overriding semantics captured by reduction rules O1–O4.
fn apply_one(
    doc: &mut Document,
    op: &UpdateOp,
    opts: &ApplyOptions,
    report: &mut ApplyReport,
) -> Result<()> {
    let target = op.target();
    if !doc.contains(target) {
        // Target removed by an earlier stage (e.g. repN on an ancestor): the
        // operation is overridden and has no effect.
        return Ok(());
    }
    match op {
        UpdateOp::InsInto { content, .. } | UpdateOp::InsFirst { content, .. } => {
            // ins↓ takes the implementation-defined position "first".
            for (i, tree) in content.iter().enumerate() {
                let root = graft_tree(doc, tree, opts)?;
                doc.insert_child_at(target, i, root)?;
                report.inserted_roots.push(root);
            }
        }
        UpdateOp::InsLast { content, .. } => {
            for tree in content {
                let root = graft_tree(doc, tree, opts)?;
                doc.append_child(target, root)?;
                report.inserted_roots.push(root);
            }
        }
        UpdateOp::InsBefore { content, .. } => {
            for tree in content {
                let root = graft_tree(doc, tree, opts)?;
                doc.insert_before(target, root)?;
                report.inserted_roots.push(root);
            }
        }
        UpdateOp::InsAfter { content, .. } => {
            let mut anchor = target;
            for tree in content {
                let root = graft_tree(doc, tree, opts)?;
                doc.insert_after(anchor, root)?;
                report.inserted_roots.push(root);
                anchor = root;
            }
        }
        UpdateOp::InsAttributes { content, .. } => {
            let mut existing: HashSet<String> = doc
                .attributes(target)?
                .iter()
                .filter_map(|&a| doc.name(a).ok().flatten().map(str::to_owned))
                .collect();
            for tree in content {
                let name = tree.root_name().unwrap_or_default();
                if !existing.insert(name.clone()) {
                    return Err(PulError::Dynamic(format!(
                        "attribute '{name}' inserted twice (or already present) on node {target}"
                    )));
                }
                let root = graft_tree(doc, tree, opts)?;
                doc.add_attribute(target, root)?;
                report.inserted_roots.push(root);
            }
        }
        UpdateOp::Delete { .. } => remove_reported(doc, target, report)?,
        UpdateOp::ReplaceNode { content, .. } => {
            if doc.kind(target)? == NodeKind::Attribute {
                let owner = doc
                    .parent(target)?
                    .ok_or(PulError::Dynamic(format!("attribute {target} has no owner")))?;
                for tree in content {
                    let root = graft_tree(doc, tree, opts)?;
                    doc.add_attribute(owner, root)?;
                    report.inserted_roots.push(root);
                }
            } else {
                for tree in content {
                    let root = graft_tree(doc, tree, opts)?;
                    doc.insert_before(target, root)?;
                    report.inserted_roots.push(root);
                }
            }
            remove_reported(doc, target, report)?;
        }
        UpdateOp::ReplaceValue { value, .. } => {
            doc.set_value(target, value.clone())?;
        }
        UpdateOp::ReplaceContent { text, .. } => {
            for c in doc.children(target)?.to_vec() {
                remove_reported(doc, c, report)?;
            }
            if let Some(t) = text {
                let text_node = doc.new_text(t.clone());
                doc.append_child(target, text_node)?;
                report.inserted_roots.push(text_node);
            }
        }
        UpdateOp::Rename { name, .. } => {
            doc.rename(target, name.clone())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::parser::parse_document;
    use xdm::writer::write_document;

    fn doc() -> Document {
        // ids: issue=1, volume=2, article=3, title=4, "T"=5, article=6
        parse_document("<issue volume=\"30\"><article><title>T</title></article><article/></issue>")
            .unwrap()
    }

    fn apply(doc: &mut Document, ops: Vec<UpdateOp>) -> ApplyReport {
        let pul: Pul = ops.into_iter().collect();
        apply_pul(doc, &pul, &ApplyOptions::default()).unwrap()
    }

    #[test]
    fn simple_rename_value_delete() {
        let mut d = doc();
        apply(
            &mut d,
            vec![
                UpdateOp::rename(3u64, "paper"),
                UpdateOp::replace_value(5u64, "New title"),
                UpdateOp::delete(6u64),
            ],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><paper><title>New title</title></paper></issue>"
        );
    }

    #[test]
    fn insertions_in_all_positions() {
        let mut d = doc();
        apply(
            &mut d,
            vec![
                UpdateOp::ins_before(4u64, vec![Tree::element_with_text("year", "2004")]),
                UpdateOp::ins_after(4u64, vec![Tree::element_with_text("month", "March")]),
                UpdateOp::ins_first(6u64, vec![Tree::element("first")]),
                UpdateOp::ins_last(6u64, vec![Tree::element("last")]),
                UpdateOp::ins_attributes(3u64, vec![Tree::attribute("id", "a1")]),
            ],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article id=\"a1\"><year>2004</year><title>T</title>\
             <month>March</month></article><article><first/><last/></article></issue>"
        );
    }

    #[test]
    fn insert_after_preserves_tree_order() {
        let mut d = doc();
        apply(
            &mut d,
            vec![UpdateOp::ins_after(
                4u64,
                vec![Tree::element("a"), Tree::element("b"), Tree::element("c")],
            )],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article><title>T</title><a/><b/><c/></article><article/></issue>"
        );
    }

    #[test]
    fn ins_into_behaves_as_first_child() {
        let mut d = doc();
        apply(&mut d, vec![UpdateOp::ins_into(3u64, vec![Tree::element("x"), Tree::element("y")])]);
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article><x/><y/><title>T</title></article><article/></issue>"
        );
    }

    #[test]
    fn replace_node_and_content() {
        let mut d = doc();
        apply(
            &mut d,
            vec![
                UpdateOp::replace_node(4u64, vec![Tree::element_with_text("author", "M.Mesiti")]),
                UpdateOp::replace_content(6u64, Some("empty".into())),
            ],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article><author>M.Mesiti</author></article>\
             <article>empty</article></issue>"
        );
    }

    #[test]
    fn replace_attribute_node() {
        let mut d = doc();
        apply(&mut d, vec![UpdateOp::replace_node(2u64, vec![Tree::attribute("number", "3")])]);
        assert_eq!(
            write_document(&d),
            "<issue number=\"3\"><article><title>T</title></article><article/></issue>"
        );
    }

    #[test]
    fn replace_node_with_nothing_deletes() {
        let mut d = doc();
        apply(&mut d, vec![UpdateOp::replace_node(4u64, vec![])]);
        assert_eq!(write_document(&d), "<issue volume=\"30\"><article/><article/></issue>");
    }

    #[test]
    fn deletion_follows_insertions_stage_order() {
        // Inserting siblings of a node that is also deleted: the siblings stay
        // (stage 2 before stage 5).
        let mut d = doc();
        apply(
            &mut d,
            vec![
                UpdateOp::delete(4u64),
                UpdateOp::ins_before(4u64, vec![Tree::element("kept")]),
                UpdateOp::ins_after(4u64, vec![Tree::element("also-kept")]),
            ],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article><kept/><also-kept/></article><article/></issue>"
        );
    }

    #[test]
    fn rename_then_replace_is_overridden() {
        // ren and repN on the same node: repN (stage 3) wins over ren (stage 1)
        // because the renamed node is replaced afterwards.
        let mut d = doc();
        apply(
            &mut d,
            vec![
                UpdateOp::rename(4u64, "heading"),
                UpdateOp::replace_node(4u64, vec![Tree::element("replacement")]),
            ],
        );
        assert_eq!(
            write_document(&d),
            "<issue volume=\"30\"><article><replacement/></article><article/></issue>"
        );
    }

    #[test]
    fn ops_on_removed_subtrees_are_skipped() {
        // repN on an ancestor removes the descendant before its own op applies.
        let mut d = doc();
        apply(
            &mut d,
            vec![UpdateOp::replace_node(3u64, vec![Tree::element("gone")]), UpdateOp::delete(5u64)],
        );
        assert_eq!(write_document(&d), "<issue volume=\"30\"><gone/><article/></issue>");
    }

    #[test]
    fn insa_duplicate_is_a_dynamic_error() {
        let mut d = doc();
        let pul: Pul = vec![UpdateOp::ins_attributes(
            3u64,
            vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
        )]
        .into_iter()
        .collect();
        let err = apply_pul(&mut d, &pul, &ApplyOptions::default()).unwrap_err();
        assert!(matches!(err, PulError::Dynamic(_)));

        // also when the attribute already exists on the element
        let mut d = doc();
        let pul: Pul = vec![UpdateOp::ins_attributes(1u64, vec![Tree::attribute("volume", "31")])]
            .into_iter()
            .collect();
        assert!(apply_pul(&mut d, &pul, &ApplyOptions::default()).is_err());
    }

    #[test]
    fn validation_rejects_inapplicable_puls() {
        let mut d = doc();
        let pul: Pul = vec![UpdateOp::rename(99u64, "x")].into_iter().collect();
        assert!(apply_pul(&mut d, &pul, &ApplyOptions::default()).is_err());
        // but validation can be turned off, in which case the op is skipped
        let report =
            apply_pul(&mut d, &pul, &ApplyOptions { validate: false, ..Default::default() });
        assert!(report.is_ok());
    }

    #[test]
    fn preserve_content_ids_keeps_tree_identifiers() {
        let mut d = doc();
        let tree =
            xdm::parser::parse_fragment_with_first_id("<article><title>XML</title></article>", 24)
                .unwrap();
        let pul: Pul = vec![UpdateOp::ins_last(1u64, vec![tree])].into_iter().collect();
        let report = apply_pul(&mut d, &pul, &ApplyOptions::producer()).unwrap();
        assert!(d.contains(NodeId::new(24)));
        assert!(d.contains(NodeId::new(25)));
        assert!(d.contains(NodeId::new(26)));
        assert_eq!(report.inserted_roots, vec![NodeId::new(24)]);

        // fresh-id mode must not reuse 24..26 but mint from the document's counter
        let mut d2 = doc();
        let tree2 =
            xdm::parser::parse_fragment_with_first_id("<article><title>XML</title></article>", 24)
                .unwrap();
        let pul2: Pul = vec![UpdateOp::ins_last(1u64, vec![tree2])].into_iter().collect();
        let report2 = apply_pul(&mut d2, &pul2, &ApplyOptions::default()).unwrap();
        assert_eq!(report2.inserted_roots, vec![NodeId::new(7)]);
        assert!(d2.contains(NodeId::new(9)) && !d2.contains(NodeId::new(24)));
    }

    #[test]
    fn report_tracks_inserted_and_removed() {
        let mut d = doc();
        let report = apply(
            &mut d,
            vec![UpdateOp::ins_last(3u64, vec![Tree::element("author")]), UpdateOp::delete(6u64)],
        );
        assert_eq!(report.inserted_roots.len(), 1);
        assert_eq!(report.removed_nodes, vec![NodeId::new(6)]);
    }

    #[test]
    fn report_removed_nodes_cover_subtrees_and_cleared_content() {
        // del(3) removes the whole <article> subtree (3, 4, 5); repC(6) clears
        // nothing (empty element) but repC on 1 would clear everything.
        let mut d = doc();
        let report = apply(&mut d, vec![UpdateOp::delete(3u64)]);
        let mut removed: Vec<u64> = report.removed_nodes.iter().map(|n| n.as_u64()).collect();
        removed.sort_unstable();
        assert_eq!(removed, vec![3, 4, 5]);

        let mut d = doc();
        let report = apply(&mut d, vec![UpdateOp::replace_content(3u64, Some("gone".into()))]);
        let mut removed: Vec<u64> = report.removed_nodes.iter().map(|n| n.as_u64()).collect();
        removed.sort_unstable();
        assert_eq!(removed, vec![4, 5], "repC records the cleared children");
        assert_eq!(report.inserted_roots.len(), 1, "the replacement text node");
    }

    #[test]
    fn labeling_is_maintained_during_application() {
        let mut d = doc();
        let mut labeling = Labeling::assign(&d);
        let pul: Pul = vec![
            UpdateOp::ins_last(3u64, vec![Tree::element_with_text("author", "G G")]),
            UpdateOp::delete(6u64),
        ]
        .into_iter()
        .collect();
        apply_pul_with_labeling(&mut d, &mut labeling, &pul, &ApplyOptions::default()).unwrap();
        // every node of the updated document has a label and predicates agree
        for n in d.preorder_from_root() {
            assert!(labeling.get(n).is_some(), "node {n} labeled");
        }
        assert!(labeling.get(NodeId::new(6)).is_none(), "removed nodes lose their label");
        let article = NodeId::new(3);
        let new_author = *d.children(article).unwrap().last().unwrap();
        assert!(labeling.is_child(new_author, article));
        assert!(labeling.is_last_child(new_author, article));
    }

    #[test]
    fn journaled_apply_rolls_back_mid_apply_failure() {
        // rename(3) applies first (same stage, smaller target), then the
        // duplicate attribute on 6 fails *after* its first attribute has
        // already been grafted and attached: the journal must undo both the
        // partial op and the completed one.
        let mut d = doc();
        let mut labeling = Labeling::assign(&d);
        let doc_oracle = d.clone();
        let label_oracle = labeling.clone();
        let pul: Pul = vec![
            UpdateOp::rename(3u64, "paper"),
            UpdateOp::ins_attributes(
                6u64,
                vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
            ),
        ]
        .into_iter()
        .collect();
        let err = apply_pul_journaled(&mut d, &mut labeling, &pul, &ApplyOptions::default());
        assert!(matches!(err, Err(PulError::Dynamic(_))));
        assert!(d.deep_eq(&doc_oracle), "document rewound to the pre-apply state");
        assert!(labeling.deep_eq(&label_oracle), "labeling untouched by the failed apply");
        assert!(!d.journal_is_active(), "the journal is closed");
        d.assert_consistent();
        labeling.assert_consistent(&d);
    }

    #[test]
    fn journaled_apply_reports_entry_counts_on_success() {
        let mut d = doc();
        let mut labeling = Labeling::assign(&d);
        let pul: Pul = vec![
            UpdateOp::ins_last(3u64, vec![Tree::element_with_text("author", "G G")]),
            UpdateOp::delete(6u64),
        ]
        .into_iter()
        .collect();
        let report =
            apply_pul_journaled(&mut d, &mut labeling, &pul, &ApplyOptions::default()).unwrap();
        assert!(report.journal.doc_entries > 0, "document mutations recorded");
        assert!(!d.journal_is_active(), "success closes the journal");
        d.assert_consistent();
        labeling.assert_consistent(&d);
    }

    #[test]
    fn example_1_deletion_and_example_semantics() {
        // Example 1: del(14) involves no non-determinism. Here we simply check
        // that deleting a node removes the whole subtree.
        let mut d = doc();
        apply(&mut d, vec![UpdateOp::delete(3u64)]);
        assert_eq!(write_document(&d), "<issue volume=\"30\"><article/></issue>");
        assert!(!d.contains(NodeId::new(4)));
        assert!(!d.contains(NodeId::new(5)));
    }
}
