//! PUL aggregation (§3.3): Fig. 5 rules, Algorithm 2, Definition 13.
//!
//! Aggregation turns a *sequence* of PULs `∆1; ∆2; …; ∆n` — where each PUL is
//! expressed against the document produced by the previous ones — into a
//! single PUL that cumulates their effects (and is substitutable to the
//! sequential application, Prop. 4). Differently from integration there is
//! nothing to reconcile: the net result of a sequential application is always
//! well defined; what has to be removed are the *dependencies* of later PULs
//! on the operations of earlier ones:
//!
//! * insertions of the same type on the same (original) node are merged so
//!   that the final order is one of those obtainable sequentially
//!   (rules A1/A2 within a PUL, C4/C5 across PULs);
//! * an operation of a later PUL overriding an earlier `ren`/`repV`/`repC` on
//!   the same node simply drops the earlier one (rule B3) — and, more
//!   generally, a later `del`/`repN`/`repC` drops the earlier operations it
//!   overrides, locally or on descendants;
//! * operations of a later PUL targeting nodes *inserted by an earlier PUL*
//!   are applied directly to the parameter trees that carry those nodes
//!   (rule D6), using the hash table of Algorithm 2 to locate them in `O(1)`.
//!
//! A sequence whose sequential application fails because a PUL addresses a
//! node an earlier one removed — deleted or replaced it or an ancestor,
//! replaced the content of an ancestor, or inserted it and removed it again —
//! is not aggregable either: it fails with the same `NotApplicable` error.
//!
//! The only situation not handled — exactly as in the paper, which defers it
//! to the extended version — is a `repC` in an earlier PUL followed by a child
//! insertion (`ins↙`/`ins↓`/`ins↘`) on the same node in a later PUL; in that
//! case an explicit error is returned.

use std::collections::HashMap;

use pul::apply::{apply_pul, ApplyOptions};
use pul::{OpName, Pul, PulError, UpdateOp};
use xdm::{NodeId, Tree};

use crate::conflict::{local_override, non_local_override};

/// Provenance-tagged slot of the aggregated PUL under construction.
struct Slot {
    op: UpdateOp,
    pul_index: usize,
}

/// A `del`, `repN` or `repC` of PUL `pul_index` on an original node: the
/// first two remove their target and everything below it, a `repC` every
/// node strictly below its target except the target's own attributes.
struct Removal {
    target: NodeId,
    name: OpName,
    pul_index: usize,
}

struct Aggregator {
    slots: Vec<Option<Slot>>,
    /// Slots indexed by (original-document) target node.
    by_target: HashMap<NodeId, Vec<usize>>,
    /// For every node carried inside the parameter trees of an aggregated
    /// operation: the slot that owns it (the `new` entries of Algorithm 2).
    new_owner: HashMap<NodeId, usize>,
    /// Every removal so far, in sequence order.
    removals: Vec<Removal>,
}

impl Aggregator {
    fn new() -> Self {
        Aggregator {
            slots: Vec::new(),
            by_target: HashMap::new(),
            new_owner: HashMap::new(),
            removals: Vec::new(),
        }
    }

    /// Checks, before PUL `pul_index` is aggregated, that the node `op`
    /// targets survived the earlier PULs, and fails with `NotApplicable` —
    /// the error sequential application raises — when it did not. A node an
    /// earlier PUL inserted must still sit in its owner's parameter trees; an
    /// original node must not be, or lie under, a node an earlier PUL deleted
    /// or replaced, nor lie strictly under an earlier `repC` target.
    fn check_present(&self, op: &UpdateOp, pul_index: usize, puls: &[Pul]) -> Result<(), PulError> {
        let target = op.target();
        let present = match self.new_owner.get(&target) {
            Some(&owner) => self
                .op(owner)
                .and_then(|slot| slot.op.content())
                .is_some_and(|trees| trees.iter().any(|t| t.contains(target))),
            None => {
                let label = puls[pul_index].label(target);
                !self.removals.iter().any(|removal| {
                    let removed = puls[removal.pul_index].label(removal.target);
                    match (removal.name, label, removed) {
                        (OpName::ReplaceContent, Some(l), Some(r)) => {
                            l.is_descendant_not_attr_of(r)
                        }
                        (OpName::ReplaceContent, ..) => false,
                        _ if removal.target == target => true,
                        (_, Some(l), Some(r)) => l.is_descendant_of(r),
                        _ => false,
                    }
                })
            }
        };
        if present {
            Ok(())
        } else {
            let reason = "an earlier PUL of the sequence removed the node".into();
            Err(PulError::NotApplicable { target, reason })
        }
    }

    fn register_content(&mut self, slot: usize, op: &UpdateOp) {
        if let Some(trees) = op.content() {
            for tree in trees {
                for node in tree.preorder_from_root() {
                    self.new_owner.insert(node, slot);
                }
            }
        }
    }

    fn push(&mut self, op: UpdateOp, pul_index: usize) -> usize {
        let idx = self.slots.len();
        let target = op.target();
        self.register_content(idx, &op);
        self.slots.push(Some(Slot { op, pul_index }));
        self.by_target.entry(target).or_default().push(idx);
        idx
    }

    fn op(&self, idx: usize) -> Option<&Slot> {
        self.slots.get(idx).and_then(|s| s.as_ref())
    }

    /// Drops, from the aggregate built so far, the operations of *earlier*
    /// PULs that are overridden by `op` (a `del`, `repN` or `repC` of PUL
    /// `pul_index` targeting an original node). Mirrors reduction rules O1–O4
    /// but across sequential PULs.
    fn drop_overridden(&mut self, op: &UpdateOp, pul_index: usize, puls: &[Pul]) {
        let target = op.target();
        let target_label = puls[pul_index].label(target);
        for idx in 0..self.slots.len() {
            let Some(slot) = &self.slots[idx] else { continue };
            if slot.pul_index >= pul_index {
                continue;
            }
            let earlier = &slot.op;
            let dropped = if earlier.target() == target {
                local_override(op, earlier)
            } else {
                match (target_label, puls[slot.pul_index].label(earlier.target())) {
                    (Some(tl), Some(el)) => non_local_override(op, tl, earlier, el),
                    _ => false,
                }
            };
            if dropped {
                let removed = self.slots[idx].take().expect("slot checked above");
                if let Some(list) = self.by_target.get_mut(&removed.op.target()) {
                    list.retain(|&i| i != idx);
                }
            }
        }
    }

    fn collect(self, puls: &[Pul]) -> Pul {
        let mut out = Pul::new();
        for slot in self.slots.into_iter().flatten() {
            out.push(slot.op);
        }
        for p in puls {
            for l in p.labels().values() {
                out.add_label(l.clone());
            }
        }
        out
    }
}

/// Applies `op` to the parameter tree of the aggregated operation in
/// `owner_slot` that contains its target (rule D6).
fn apply_to_owned_tree(
    agg: &mut Aggregator,
    owner_slot: usize,
    op: &UpdateOp,
) -> Result<(), PulError> {
    let target = op.target();
    let Some(slot) = agg.slots[owner_slot].as_mut() else {
        // The node was there when this PUL started (`check_present`), so an
        // operation of this same PUL overrode its owner: the removal wins.
        return Ok(());
    };
    let Some(content) = slot.op.content_mut() else { return Ok(()) };
    let Some(tree_idx) = content.iter().position(|t| t.contains(target)) else {
        return Ok(());
    };

    let is_root = content[tree_idx].root_id() == target;
    match (is_root, op.name()) {
        // Structural operations on the root of an inserted tree are resolved
        // on the owner's content list itself.
        (true, OpName::Delete) => {
            content.remove(tree_idx);
        }
        (true, OpName::ReplaceNode) => {
            let replacement = op.content().unwrap_or(&[]).to_vec();
            content.splice(tree_idx..=tree_idx, replacement);
        }
        (true, OpName::InsBefore) => {
            let new = op.content().unwrap_or(&[]).to_vec();
            content.splice(tree_idx..tree_idx, new);
        }
        (true, OpName::InsAfter) => {
            let new = op.content().unwrap_or(&[]).to_vec();
            content.splice(tree_idx + 1..tree_idx + 1, new);
        }
        // Everything else is applied to the tree as a one-operation PUL.
        _ => {
            let single: Pul = std::iter::once(op.clone()).collect();
            let tree_doc = content[tree_idx].as_document_mut();
            apply_pul(
                tree_doc,
                &single,
                &ApplyOptions { validate: false, preserve_content_ids: true },
            )?;
        }
    }
    let owner_op = agg.slots[owner_slot].as_ref().expect("still present").op.clone();
    agg.register_content(owner_slot, &owner_op);
    Ok(())
}

/// Aggregates a sequence of PULs into a single PUL (Def. 13, Algorithm 2).
///
/// The `k`-th PUL of the input is assumed to be expressed against the document
/// obtained by applying the previous `k-1` PULs (with parameter-tree node
/// identifiers preserved, as a producer does when working on its local copy).
pub fn aggregate(puls: &[Pul]) -> Result<Pul, PulError> {
    let mut agg = Aggregator::new();
    for (k, pul) in puls.iter().enumerate() {
        for op in pul.ops() {
            agg.check_present(op, k, puls)?;
        }
        for op in pul.ops() {
            let target = op.target();
            // ---- rule D6: the target is a node inserted by a previous PUL --
            if let Some(&owner) = agg.new_owner.get(&target) {
                apply_to_owned_tree(&mut agg, owner, op)?;
                continue;
            }
            // ---- the target is an original document node --------------------
            let existing: Vec<usize> = agg.by_target.get(&target).cloned().unwrap_or_default();
            match op.name() {
                // rule B3: a later ren/repV/repC on the same node supersedes
                // the earlier one.
                OpName::Rename | OpName::ReplaceValue | OpName::ReplaceContent => {
                    for idx in &existing {
                        let same = agg.op(*idx).map(|s| s.op.name() == op.name()).unwrap_or(false);
                        if same {
                            agg.slots[*idx] = None;
                        }
                    }
                    if let Some(list) = agg.by_target.get_mut(&target) {
                        list.retain(|i| agg.slots[*i].is_some());
                    }
                    agg.push(op.clone(), k);
                }
                // rules A1/A2/C4/C5: insertions of the same type on the same
                // node are merged, with the parameter order dictated by the
                // insertion direction.
                OpName::InsBefore
                | OpName::InsAfter
                | OpName::InsFirst
                | OpName::InsLast
                | OpName::InsInto
                | OpName::InsAttributes => {
                    // the unsupported corner case: an earlier repC followed by
                    // a child insertion on the same node.
                    let repc_before = existing.iter().any(|&i| {
                        agg.op(i)
                            .map(|s| s.pul_index < k && s.op.name() == OpName::ReplaceContent)
                            .unwrap_or(false)
                    });
                    if repc_before && op.inserts_children() {
                        return Err(PulError::Dynamic(format!(
                            "aggregation of a repC on node {target} followed by a child insertion \
                             is not supported (deferred by the paper to its extended version)"
                        )));
                    }
                    let same_slot = existing
                        .iter()
                        .copied()
                        .find(|&i| agg.op(i).map(|s| s.op.name() == op.name()).unwrap_or(false));
                    match same_slot {
                        Some(idx) => {
                            let slot = agg.slots[idx].as_ref().expect("found above");
                            let existing_content: Vec<Tree> =
                                slot.op.content().unwrap_or(&[]).to_vec();
                            let new_content: Vec<Tree> = op.content().unwrap_or(&[]).to_vec();
                            let same_pul = slot.pul_index == k;
                            // A1/A2 (same PUL) and C4 (←, ↘): existing first;
                            // C5 (→, ↙, and ins↓/insA treated alike): new first.
                            let combined: Vec<Tree> = if same_pul
                                || matches!(
                                    op.name(),
                                    OpName::InsBefore | OpName::InsLast | OpName::InsAttributes
                                ) {
                                existing_content.into_iter().chain(new_content).collect()
                            } else {
                                new_content.into_iter().chain(existing_content).collect()
                            };
                            let merged = match op.name() {
                                OpName::InsBefore => UpdateOp::ins_before(target, combined),
                                OpName::InsAfter => UpdateOp::ins_after(target, combined),
                                OpName::InsFirst => UpdateOp::ins_first(target, combined),
                                OpName::InsLast => UpdateOp::ins_last(target, combined),
                                OpName::InsInto => UpdateOp::ins_into(target, combined),
                                OpName::InsAttributes => UpdateOp::ins_attributes(target, combined),
                                _ => unreachable!(),
                            };
                            agg.register_content(idx, &merged);
                            agg.slots[idx] = Some(Slot { op: merged, pul_index: k });
                        }
                        None => {
                            agg.push(op.clone(), k);
                        }
                    }
                }
                // a later deletion / node replacement drops the earlier
                // operations it overrides (locally and on descendants).
                OpName::Delete | OpName::ReplaceNode => {
                    agg.drop_overridden(op, k, puls);
                    agg.push(op.clone(), k);
                }
            }
            // a later repC also overrides earlier child insertions and
            // descendant operations.
            if op.name() == OpName::ReplaceContent {
                agg.drop_overridden(op, k, puls);
            }
            if matches!(op.name(), OpName::Delete | OpName::ReplaceNode | OpName::ReplaceContent) {
                agg.removals.push(Removal { target, name: op.name(), pul_index: k });
            }
        }
    }
    Ok(agg.collect(puls))
}

/// Aggregates two PULs: `∆1 ⤙ ∆2`.
pub fn aggregate_pair(first: &Pul, second: &Pul) -> Result<Pul, PulError> {
    aggregate(&[first.clone(), second.clone()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pul::obtainable::canonical_string;
    use xdm::parser::{parse_document, parse_fragment_with_first_id};
    use xdm::writer::write_document;
    use xdm::Document;
    use xlabel::Labeling;

    /// `<db(1)><articles(2)>…</articles><count(3)>7(4)</count><note(5)>n(6)</note></db>`
    fn fixture() -> (Document, Labeling) {
        let doc = parse_document(
            "<db><articles><old>x</old></articles><count>7</count><note>n</note></db>",
        )
        .unwrap();
        let labeling = Labeling::assign(&doc);
        (doc, labeling)
    }

    /// Applies the PULs sequentially (producer mode: parameter identifiers are
    /// preserved) and compares the result with a single application of the
    /// aggregated PUL — the substitutability statement of Prop. 4, checked on
    /// the deterministic evaluator.
    fn assert_aggregation_matches_sequential(doc: &Document, puls: &[Pul]) {
        let mut sequential = doc.clone();
        for p in puls {
            apply_pul(
                &mut sequential,
                p,
                &ApplyOptions { validate: false, preserve_content_ids: true },
            )
            .unwrap();
        }
        let aggregated = aggregate(puls).unwrap();
        let mut once = doc.clone();
        apply_pul(
            &mut once,
            &aggregated,
            &ApplyOptions { validate: false, preserve_content_ids: true },
        )
        .unwrap();
        assert_eq!(
            canonical_string(&sequential),
            canonical_string(&once),
            "aggregate must cumulate the sequential effects\nsequential: {}\naggregated: {}",
            write_document(&sequential),
            write_document(&once)
        );
    }

    #[test]
    fn example_8_aggregation_with_d6() {
        // Mirrors Example 8: ∆1 inserts an <article> (ids 24–26) and updates a
        // text; ∆2 adds two authors (27–30) inside the inserted article and
        // renames <note>; ∆3 replaces one of the new authors (31–32), renames
        // <note> again and rewrites the new title text.
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let count_text = doc.children(doc.find_element("count").unwrap()).unwrap()[0];
        let note = doc.find_element("note").unwrap();

        let article_tree =
            parse_fragment_with_first_id("<article><title>XML</title></article>", 24).unwrap();
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_last(articles, vec![article_tree]),
                UpdateOp::replace_value(count_text, "13"),
            ],
            &labels,
        );
        let authors_tree_1 = parse_fragment_with_first_id("<author>G G</author>", 27).unwrap();
        let authors_tree_2 = parse_fragment_with_first_id("<author>M M</author>", 29).unwrap();
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_last(24u64, vec![authors_tree_1, authors_tree_2]),
                UpdateOp::rename(note, "title"),
            ],
            &labels,
        );
        let replacement = parse_fragment_with_first_id("<author>F C</author>", 31).unwrap();
        let p3 = Pul::from_ops(
            vec![
                UpdateOp::replace_node(29u64, vec![replacement]),
                UpdateOp::rename(note, "name"),
                UpdateOp::replace_value(26u64, "On XML"),
            ],
            &labels,
        );

        // ∆1 ⤙ ∆2
        let agg12 = aggregate(&[p1.clone(), p2.clone()]).unwrap();
        assert_eq!(agg12.len(), 3, "{agg12}");
        let ins = agg12.ops().iter().find(|o| o.name() == OpName::InsLast).unwrap();
        let tree = &ins.content().unwrap()[0];
        assert_eq!(tree.children(tree.root_id()).unwrap().len(), 3, "title + two authors");
        assert!(agg12
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "title")));

        // ∆1 ⤙ ∆2 ⤙ ∆3
        let agg123 = aggregate(&[p1.clone(), p2.clone(), p3.clone()]).unwrap();
        assert_eq!(agg123.len(), 3, "{agg123}");
        let ins = agg123.ops().iter().find(|o| o.name() == OpName::InsLast).unwrap();
        let tree = &ins.content().unwrap()[0];
        let kids = tree.children(tree.root_id()).unwrap().to_vec();
        assert_eq!(kids.len(), 3);
        // the title text has been rewritten by ∆3 through rule D6
        assert_eq!(tree.text_content(kids[0]), "On XML");
        // the second author (id 29) has been replaced by the ∆3 tree (F C)
        let author_texts: Vec<String> = kids[1..].iter().map(|&k| tree.text_content(k)).collect();
        assert_eq!(author_texts, vec!["G G", "F C"]);
        // the rename of <note> has been superseded (rule B3)
        assert!(agg123
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "name")));
        assert!(!agg123
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "title")));

        assert_aggregation_matches_sequential(&doc, &[p1, p2, p3]);
    }

    #[test]
    fn rule_b3_later_modification_wins() {
        let (doc, labels) = fixture();
        let note = doc.find_element("note").unwrap();
        let note_text = doc.children(note).unwrap()[0];
        let p1 = Pul::from_ops(
            vec![UpdateOp::rename(note, "a"), UpdateOp::replace_value(note_text, "1")],
            &labels,
        );
        let p2 = Pul::from_ops(
            vec![UpdateOp::rename(note, "b"), UpdateOp::replace_value(note_text, "2")],
            &labels,
        );
        let agg = aggregate_pair(&p1, &p2).unwrap();
        assert_eq!(agg.len(), 2, "{agg}");
        assert!(agg
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "b")));
        assert!(agg
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::ReplaceValue { value, .. } if value == "2")));
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);
    }

    #[test]
    fn rules_c4_c5_insertion_direction() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let old = doc.find_element("old").unwrap();

        // ins↘ / ins← : earlier content first
        let t = |text: &str, base: u64| {
            parse_fragment_with_first_id(&format!("<n>{text}</n>"), base).unwrap()
        };
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_last(articles, vec![t("L1", 100)]),
                UpdateOp::ins_before(old, vec![t("B1", 110)]),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_last(articles, vec![t("L2", 120)]),
                UpdateOp::ins_before(old, vec![t("B2", 130)]),
            ],
            &labels,
        );
        let agg = aggregate_pair(&p1, &p2).unwrap();
        assert_eq!(agg.len(), 2);
        for op in agg.ops() {
            let texts: Vec<String> =
                op.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
            match op.name() {
                OpName::InsLast => assert_eq!(texts, vec!["L1", "L2"]),
                OpName::InsBefore => assert_eq!(texts, vec!["B1", "B2"]),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);

        // ins↙ / ins→ : later content first
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_first(articles, vec![t("F1", 140)]),
                UpdateOp::ins_after(old, vec![t("A1", 150)]),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_first(articles, vec![t("F2", 160)]),
                UpdateOp::ins_after(old, vec![t("A2", 170)]),
            ],
            &labels,
        );
        let agg = aggregate_pair(&p1, &p2).unwrap();
        for op in agg.ops() {
            let texts: Vec<String> =
                op.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
            match op.name() {
                OpName::InsFirst => assert_eq!(texts, vec!["F2", "F1"]),
                OpName::InsAfter => assert_eq!(texts, vec!["A2", "A1"]),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);
    }

    #[test]
    fn rules_a1_a2_same_pul_insertions() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let t = |text: &str, base: u64| {
            parse_fragment_with_first_id(&format!("<n>{text}</n>"), base).unwrap()
        };
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_after(doc.find_element("old").unwrap(), vec![t("X1", 100)]),
                UpdateOp::ins_after(doc.find_element("old").unwrap(), vec![t("X2", 110)]),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(vec![UpdateOp::ins_last(articles, vec![t("Y", 120)])], &labels);
        let agg = aggregate_pair(&p1, &p2).unwrap();
        // the two same-PUL ins→ are merged keeping their order (rule A1)
        let merged = agg.ops().iter().find(|o| o.name() == OpName::InsAfter).unwrap();
        let texts: Vec<String> =
            merged.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
        assert_eq!(texts, vec!["X1", "X2"]);
    }

    #[test]
    fn later_delete_drops_earlier_ops_on_the_node_and_descendants() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let old = doc.find_element("old").unwrap();
        let note = doc.find_element("note").unwrap();
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::rename(articles, "list"),
                UpdateOp::replace_value(doc.children(old).unwrap()[0], "changed"),
                UpdateOp::rename(note, "kept"),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(vec![UpdateOp::delete(articles)], &labels);
        let agg = aggregate_pair(&p1, &p2).unwrap();
        assert_eq!(agg.len(), 2, "{agg}");
        assert!(agg.ops().iter().any(|o| o.name() == OpName::Delete));
        assert!(agg
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "kept")));
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);
    }

    #[test]
    fn delete_of_a_previously_inserted_node_cancels_it() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let tree = parse_fragment_with_first_id("<article><title>t</title></article>", 50).unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::ins_last(articles, vec![tree])], &labels);
        // delete the inserted article root (id 50) and the title text of the
        // inserted tree (52 is the text node)
        let p2 = Pul::from_ops(vec![UpdateOp::delete(50u64)], &labels);
        let agg = aggregate_pair(&p1, &p2).unwrap();
        let ins = agg.ops().iter().find(|o| o.name() == OpName::InsLast).unwrap();
        assert!(ins.content().unwrap().is_empty(), "the inserted tree has been removed again");
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);
    }

    #[test]
    fn sibling_insertion_relative_to_an_inserted_node() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let tree = parse_fragment_with_first_id("<article>first</article>", 60).unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::ins_last(articles, vec![tree])], &labels);
        let before = parse_fragment_with_first_id("<article>zero</article>", 70).unwrap();
        let after = parse_fragment_with_first_id("<article>second</article>", 80).unwrap();
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_before(60u64, vec![before]),
                UpdateOp::ins_after(60u64, vec![after]),
            ],
            &labels,
        );
        let agg = aggregate_pair(&p1, &p2).unwrap();
        let ins = agg.ops().iter().find(|o| o.name() == OpName::InsLast).unwrap();
        let texts: Vec<String> =
            ins.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
        assert_eq!(texts, vec!["zero", "first", "second"]);
        assert_aggregation_matches_sequential(&doc, &[p1, p2]);
    }

    #[test]
    fn unsupported_repc_then_child_insertion_is_an_error() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let p1 =
            Pul::from_ops(vec![UpdateOp::replace_content(articles, Some("t".into()))], &labels);
        let p2 =
            Pul::from_ops(vec![UpdateOp::ins_last(articles, vec![Tree::element("x")])], &labels);
        assert!(matches!(aggregate_pair(&p1, &p2), Err(PulError::Dynamic(_))));
    }

    /// Applying `puls` in sequence fails at the last one with
    /// `NotApplicable`, and so does aggregating them.
    fn assert_not_aggregable(doc: &Document, puls: &[Pul]) {
        let (last, earlier) = puls.split_last().expect("a sequence");
        let mut sequential = doc.clone();
        for p in earlier {
            apply_pul(&mut sequential, p, &ApplyOptions::producer()).unwrap();
        }
        let applied = apply_pul(&mut sequential, last, &ApplyOptions::producer());
        assert!(matches!(applied, Err(PulError::NotApplicable { .. })), "{applied:?}");
        let aggregated = aggregate(puls);
        assert!(matches!(aggregated, Err(PulError::NotApplicable { .. })), "{aggregated:?}");
    }

    #[test]
    fn targets_an_earlier_pul_deleted_or_replaced_are_not_applicable() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let old = doc.find_element("old").unwrap();
        let note = doc.find_element("note").unwrap();
        let del = |id| Pul::from_ops(vec![UpdateOp::delete(id)], &labels);
        let ren = |id| Pul::from_ops(vec![UpdateOp::rename(id, "x")], &labels);
        // the node itself, and a node under it
        assert_not_aggregable(&doc, &[del(note), ren(note)]);
        assert_not_aggregable(&doc, &[del(articles), ren(old)]);
        let repn = Pul::from_ops(vec![UpdateOp::replace_node(articles, vec![])], &labels);
        assert_not_aggregable(&doc, &[repn, ren(old)]);
        // within one PUL a deletion and an edit of the same node are fine
        let both =
            Pul::from_ops(vec![UpdateOp::delete(note), UpdateOp::rename(note, "x")], &labels);
        assert_aggregation_matches_sequential(&doc, &[both]);
    }

    #[test]
    fn targets_strictly_under_an_earlier_repc_are_not_applicable() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let old = doc.find_element("old").unwrap();
        let repc =
            Pul::from_ops(vec![UpdateOp::replace_content(articles, Some("t".into()))], &labels);
        let ren_old = Pul::from_ops(vec![UpdateOp::rename(old, "x")], &labels);
        assert_not_aggregable(&doc, &[repc.clone(), ren_old]);
        // the repC target itself survives
        let ren_articles = Pul::from_ops(vec![UpdateOp::rename(articles, "list")], &labels);
        assert_aggregation_matches_sequential(&doc, &[repc, ren_articles]);
    }

    #[test]
    fn d6_on_removed_inserted_content_is_not_applicable() {
        let (doc, labels) = fixture();
        let articles = doc.find_element("articles").unwrap();
        let tree = parse_fragment_with_first_id("<article><title>t</title></article>", 50).unwrap();
        let insert = Pul::from_ops(vec![UpdateOp::ins_last(articles, vec![tree])], &labels);
        let ren_title = Pul::from_ops(vec![UpdateOp::rename(51u64, "heading")], &labels);
        // the inserted tree was removed again (rule D6 on a removed tree)
        let del_root = Pul::from_ops(vec![UpdateOp::delete(50u64)], &labels);
        assert_not_aggregable(&doc, &[insert.clone(), del_root, ren_title.clone()]);
        // its owner was overridden (rule D6 on a dropped owner)
        let del_articles = Pul::from_ops(vec![UpdateOp::delete(articles)], &labels);
        assert_not_aggregable(&doc, &[insert, del_articles, ren_title]);
    }

    #[test]
    fn aggregation_of_a_single_pul_is_identity_up_to_merging() {
        let (doc, labels) = fixture();
        let note = doc.find_element("note").unwrap();
        let p1 = Pul::from_ops(
            vec![UpdateOp::rename(note, "x"), UpdateOp::delete(doc.find_element("old").unwrap())],
            &labels,
        );
        let agg = aggregate(std::slice::from_ref(&p1)).unwrap();
        assert_eq!(agg.len(), 2);
        assert_aggregation_matches_sequential(&doc, &[p1]);
    }

    #[test]
    fn empty_sequence_aggregates_to_empty() {
        let agg = aggregate(&[]).unwrap();
        assert!(agg.is_empty());
    }
}
