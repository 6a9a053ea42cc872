//! The obtainable-document set `O(∆, D)`, PUL equivalence and substitutability.
//!
//! The semantics of a PUL is non-deterministic (Def. 2 and §2.2): `ins↓` leaves
//! the insertion position implementation-defined, and when several insertion
//! operations of the same type target the same node the relative order of
//! their inserted groups is not fixed. This module *enumerates* the set of
//! documents obtainable by a PUL, which is the semantic ground truth used to
//! validate the reasoning operators:
//!
//! * `∆1 ≃D ∆2` (**equivalence**, Def. 6) ⇔ `O(∆1, D) = O(∆2, D)`;
//! * `∆1 ⊑D ∆2` (**substitutability**, Def. 6) ⇔ `O(∆1, D) ⊆ O(∆2, D)`.
//!
//! Documents are compared structurally and *identifier-agnostically* (and with
//! attribute order ignored, since the relative order of attributes is not
//! significant): two obtainable documents are the same element of the set if
//! their canonical serializations coincide.
//!
//! Enumeration is exponential in the number of non-deterministic choices and is
//! meant for testing and for reasoning on small PULs, not for production
//! evaluation — that is what [`crate::apply`] and [`crate::stream`] are for.

use std::collections::{BTreeSet, HashMap};

use xdm::{Document, NodeId, NodeKind};

use crate::apply::{apply_pul, ApplyOptions};
use crate::error::PulError;
use crate::op::OpName;
use crate::pul::Pul;
use crate::Result;

/// Default cap on the number of enumerated outcomes.
pub const DEFAULT_OUTCOME_LIMIT: usize = 4096;

/// The set of documents obtainable by applying a PUL to a document.
#[derive(Debug, Clone)]
pub struct ObtainableSet {
    /// One representative document per distinct outcome.
    docs: Vec<Document>,
    /// Canonical serializations of the outcomes (the set itself).
    canonical: BTreeSet<String>,
}

impl ObtainableSet {
    /// Number of distinct obtainable documents.
    pub fn len(&self) -> usize {
        self.canonical.len()
    }

    /// Whether the set is empty (only possible for inapplicable PULs).
    pub fn is_empty(&self) -> bool {
        self.canonical.is_empty()
    }

    /// The canonical serializations of the obtainable documents.
    pub fn canonical(&self) -> &BTreeSet<String> {
        &self.canonical
    }

    /// Representative documents (one per canonical form).
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Set equality (used for equivalence).
    pub fn same_as(&self, other: &ObtainableSet) -> bool {
        self.canonical == other.canonical
    }

    /// Set inclusion (used for substitutability).
    pub fn subset_of(&self, other: &ObtainableSet) -> bool {
        self.canonical.is_subset(&other.canonical)
    }
}

/// Canonical, identifier-agnostic serialization of a document: attributes are
/// sorted by `(name, value)` so that the irrelevant attribute order does not
/// distinguish outcomes.
pub fn canonical_string(doc: &Document) -> String {
    fn rec(doc: &Document, id: NodeId, out: &mut String) {
        let Ok(data) = doc.node(id) else { return };
        match data.kind {
            NodeKind::Text => {
                out.push_str("t(");
                out.push_str(data.value.as_deref().unwrap_or(""));
                out.push(')');
            }
            NodeKind::Attribute => {
                out.push_str("a(");
                out.push_str(data.name.as_deref().unwrap_or(""));
                out.push('=');
                out.push_str(data.value.as_deref().unwrap_or(""));
                out.push(')');
            }
            NodeKind::Element => {
                out.push_str("e(");
                out.push_str(data.name.as_deref().unwrap_or(""));
                let mut attrs: Vec<(String, String)> = data
                    .attributes
                    .iter()
                    .filter_map(|&a| {
                        let ad = doc.node(a).ok()?;
                        Some((
                            ad.name.clone().unwrap_or_default(),
                            ad.value.clone().unwrap_or_default(),
                        ))
                    })
                    .collect();
                attrs.sort();
                for (n, v) in attrs {
                    out.push_str("[@");
                    out.push_str(&n);
                    out.push('=');
                    out.push_str(&v);
                    out.push(']');
                }
                for &c in &data.children {
                    rec(doc, c, out);
                }
                out.push(')');
            }
        }
    }
    let mut out = String::new();
    if let Some(r) = doc.root() {
        rec(doc, r, &mut out);
    }
    out
}

/// One complete assignment of the non-deterministic choices of a PUL.
#[derive(Debug, Clone, Default)]
struct Choice {
    /// Chosen insertion index for each `ins↓` operation (keyed by op index).
    into_positions: HashMap<usize, usize>,
    /// Chosen application order (op indices) for each group of same-type,
    /// same-target insertions.
    group_orders: Vec<Vec<usize>>,
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            let mut v = vec![x];
            v.append(&mut p);
            out.push(v);
        }
    }
    out
}

/// Enumerates the obtainable documents `O(∆, D)`.
pub fn obtainable_documents(doc: &Document, pul: &Pul, limit: usize) -> Result<ObtainableSet> {
    pul.check_applicable(doc)?;

    // 1. Non-deterministic choice points.
    let ops = pul.ops();
    // ins↓ positions: 0..=|children(target)| in the original document.
    let mut into_ops: Vec<(usize, usize)> = Vec::new(); // (op index, #positions)
    for (i, op) in ops.iter().enumerate() {
        if op.name() == OpName::InsInto {
            let n = doc.children(op.target()).map(|c| c.len()).unwrap_or(0);
            into_ops.push((i, n + 1));
        }
    }
    // groups of same-type same-target insertions (order of groups not fixed).
    let mut groups: HashMap<(OpName, NodeId), Vec<usize>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if matches!(
            op.name(),
            OpName::InsBefore
                | OpName::InsAfter
                | OpName::InsFirst
                | OpName::InsLast
                | OpName::InsInto
        ) {
            groups.entry((op.name(), op.target())).or_default().push(i);
        }
    }
    let multi_groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() > 1).collect();

    // 2. Cartesian product of all choices.
    let mut choices: Vec<Choice> = vec![Choice::default()];
    for (op_idx, n_positions) in &into_ops {
        let mut next = Vec::new();
        for c in &choices {
            for p in 0..*n_positions {
                let mut c2 = c.clone();
                c2.into_positions.insert(*op_idx, p);
                next.push(c2);
            }
            if next.len() > limit {
                return Err(PulError::TooManyOutcomes { limit });
            }
        }
        choices = next;
    }
    for group in &multi_groups {
        let perms = permutations(group);
        let mut next = Vec::new();
        for c in &choices {
            for p in &perms {
                let mut c2 = c.clone();
                c2.group_orders.push(p.clone());
                next.push(c2);
            }
            if next.len() > limit {
                return Err(PulError::TooManyOutcomes { limit });
            }
        }
        choices = next;
    }
    if choices.len() > limit {
        return Err(PulError::TooManyOutcomes { limit });
    }

    // 3. Apply the PUL once per choice.
    let mut canonical = BTreeSet::new();
    let mut docs = Vec::new();
    for choice in &choices {
        let outcome = apply_with_choice(doc, pul, choice)?;
        let key = canonical_string(&outcome);
        if canonical.insert(key) {
            docs.push(outcome);
        }
    }
    Ok(ObtainableSet { docs, canonical })
}

/// Applies the PUL with explicit non-deterministic choices. `ins↓` operations
/// are rewritten into positional insertions and the within-group application
/// order follows the choice instead of the canonical order.
fn apply_with_choice(doc: &Document, pul: &Pul, choice: &Choice) -> Result<Document> {
    let mut work = doc.clone();

    // Order of application: stage, then (for ops in a chosen group order) the
    // position within the chosen permutation, then the canonical order.
    let ops = pul.ops();
    let mut rank: HashMap<usize, usize> = HashMap::new();
    for order in &choice.group_orders {
        for (pos, &op_idx) in order.iter().enumerate() {
            rank.insert(op_idx, pos);
        }
    }
    let mut indices: Vec<usize> = (0..ops.len()).collect();
    let rank_of = |i: &usize| rank.get(i).copied().unwrap_or(0);
    indices.sort_by(|a, b| {
        let (oa, ob) = (&ops[*a], &ops[*b]);
        oa.canonical_prefix_cmp(ob)
            .then_with(|| rank_of(a).cmp(&rank_of(b)))
            .then_with(|| oa.param_sort_key().cmp(&ob.param_sort_key()))
    });

    // Record, for every ins↓ target, the sibling node currently at the chosen
    // position (or None = append at end); positions refer to the original
    // child list, per Def. 2 ("differ only for the position of the inserted
    // children among sibling nodes").
    let mut into_anchor: HashMap<usize, Option<NodeId>> = HashMap::new();
    for (&op_idx, &pos) in &choice.into_positions {
        let target = ops[op_idx].target();
        let children = work.children(target)?;
        into_anchor.insert(op_idx, children.get(pos).copied());
    }

    for &i in &indices {
        let op = &ops[i];
        // Rewrite ins↓ into a positional insertion according to the choice.
        if op.name() == OpName::InsInto {
            let target = op.target();
            if !work.contains(target) {
                continue;
            }
            let content = op.content().unwrap_or(&[]);
            let anchor = into_anchor.get(&i).copied().flatten();
            match anchor {
                Some(anchor) if work.contains(anchor) => {
                    // insert the trees immediately before the anchor sibling
                    for tree in content {
                        let root = work.graft(tree.as_document(), tree.root_id(), false)?;
                        work.insert_before(anchor, root)?;
                    }
                }
                _ => {
                    for tree in content {
                        let root = work.graft(tree.as_document(), tree.root_id(), false)?;
                        work.append_child(target, root)?;
                    }
                }
            }
            continue;
        }
        // All other operations: reuse the deterministic single-op applier.
        let single: Pul = std::iter::once(op.clone()).collect();
        apply_pul(
            &mut work,
            &single,
            &ApplyOptions { validate: false, preserve_content_ids: false },
        )?;
    }
    Ok(work)
}

/// `∆1 ≃D ∆2` — PUL equivalence on `doc` (Def. 6).
pub fn equivalent(doc: &Document, p1: &Pul, p2: &Pul, limit: usize) -> Result<bool> {
    let o1 = obtainable_documents(doc, p1, limit)?;
    let o2 = obtainable_documents(doc, p2, limit)?;
    Ok(o1.same_as(&o2))
}

/// `∆1 ⊑D ∆2` — PUL substitutability on `doc` (Def. 6): `O(∆1, D) ⊆ O(∆2, D)`.
pub fn substitutable(doc: &Document, p1: &Pul, p2: &Pul, limit: usize) -> Result<bool> {
    let o1 = obtainable_documents(doc, p1, limit)?;
    let o2 = obtainable_documents(doc, p2, limit)?;
    Ok(o1.subset_of(&o2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::UpdateOp;
    use xdm::parser::parse_document;
    use xdm::Tree;

    /// The SigmodRecord fragment of Figure 1 (simplified but with the same
    /// shape): two papers, the second with two authors.
    fn figure1() -> Document {
        parse_document(
            "<SigmodRecord><issue><volume>30</volume><number>3</number>\
             <paper><title>ABC</title><initPage>1</initPage><authors>\
             <author>A One</author></authors></paper>\
             <paper><title>DEF</title><authors><author>B One</author>\
             <author>B Two</author></authors></paper></issue></SigmodRecord>",
        )
        .unwrap()
    }

    #[test]
    fn deterministic_pul_has_singleton_outcome() {
        // Example 1: del involves no non-determinism.
        let d = figure1();
        let target = d.find_elements("paper")[0];
        let pul: Pul = vec![UpdateOp::delete(target)].into_iter().collect();
        let o = obtainable_documents(&d, &pul, DEFAULT_OUTCOME_LIMIT).unwrap();
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn ins_into_enumerates_positions() {
        // Example 1 (op2): inserting an author into an element with 2 children
        // may lead to 3 documents.
        let d = figure1();
        let authors = d.find_elements("authors")[1];
        assert_eq!(d.children(authors).unwrap().len(), 2);
        let pul: Pul = vec![UpdateOp::ins_into(
            authors,
            vec![Tree::element_with_text("author", "G.Guerrini")],
        )]
        .into_iter()
        .collect();
        let o = obtainable_documents(&d, &pul, DEFAULT_OUTCOME_LIMIT).unwrap();
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn example_3_cardinality_six() {
        // Example 3: one ins↓ into an element with two children (3 positions)
        // and two ins↘ on the same node (2 orders) → 6 obtainable documents.
        let d = figure1();
        let authors = d.find_elements("authors")[1];
        let paper1 = d.find_elements("paper")[0];
        let pul: Pul = vec![
            UpdateOp::ins_into(authors, vec![Tree::element_with_text("author", "G.Guerrini")]),
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("initP", "132")]),
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("lastP", "134")]),
        ]
        .into_iter()
        .collect();
        let o = obtainable_documents(&d, &pul, DEFAULT_OUTCOME_LIMIT).unwrap();
        assert_eq!(o.len(), 6);
    }

    #[test]
    fn example_4_equivalence() {
        // ∆1 = {ins→(text-of-title, author), repV(text, 'Report on ...')} vs
        // ∆2 = {ins↘(title-parent …)} — we reproduce the paper's pattern on our
        // fixture: inserting after the last author of paper2 is equivalent to
        // inserting as last child of its <authors>; replacing the value of the
        // title text node is equivalent to replacing the title's content.
        let d = figure1();
        let paper2_title = d.find_elements("title")[1];
        let title_text = d.children(paper2_title).unwrap()[0];
        let authors2 = d.find_elements("authors")[1];
        let last_author = *d.children(authors2).unwrap().last().unwrap();

        let p1: Pul = vec![
            UpdateOp::ins_after(last_author, vec![Tree::element_with_text("author", "M.Mesiti")]),
            UpdateOp::replace_value(title_text, "Report on ..."),
        ]
        .into_iter()
        .collect();
        let p2: Pul = vec![
            UpdateOp::ins_last(authors2, vec![Tree::element_with_text("author", "M.Mesiti")]),
            UpdateOp::replace_content(paper2_title, Some("Report on ...".into())),
        ]
        .into_iter()
        .collect();
        assert!(equivalent(&d, &p1, &p2, DEFAULT_OUTCOME_LIMIT).unwrap());
        assert!(substitutable(&d, &p1, &p2, DEFAULT_OUTCOME_LIMIT).unwrap());
    }

    #[test]
    fn example_4_substitutability() {
        // ∆1 = {ins↘(4, initP), ins↘(4, lastP)} (two separate ops → 2 outcomes)
        // ∆2 = {ins↘(4, initP, lastP)} (one op, fixed order → 1 outcome)
        // ∆2 is substitutable to ∆1 but not vice versa.
        let d = figure1();
        let paper1 = d.find_elements("paper")[0];
        let p1: Pul = vec![
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("initP", "132")]),
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("lastP", "134")]),
        ]
        .into_iter()
        .collect();
        let p2: Pul = vec![UpdateOp::ins_last(
            paper1,
            vec![Tree::element_with_text("initP", "132"), Tree::element_with_text("lastP", "134")],
        )]
        .into_iter()
        .collect();
        assert!(substitutable(&d, &p2, &p1, DEFAULT_OUTCOME_LIMIT).unwrap());
        assert!(!substitutable(&d, &p1, &p2, DEFAULT_OUTCOME_LIMIT).unwrap());
        assert!(!equivalent(&d, &p1, &p2, DEFAULT_OUTCOME_LIMIT).unwrap());
        let o1 = obtainable_documents(&d, &p1, DEFAULT_OUTCOME_LIMIT).unwrap();
        assert_eq!(o1.len(), 2);
    }

    #[test]
    fn deterministic_apply_result_is_in_the_obtainable_set() {
        let d = figure1();
        let authors = d.find_elements("authors")[1];
        let paper1 = d.find_elements("paper")[0];
        let pul: Pul = vec![
            UpdateOp::ins_into(authors, vec![Tree::element_with_text("author", "X")]),
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("a", "1")]),
            UpdateOp::ins_last(paper1, vec![Tree::element_with_text("b", "2")]),
            UpdateOp::rename(paper1, "article"),
        ]
        .into_iter()
        .collect();
        let o = obtainable_documents(&d, &pul, DEFAULT_OUTCOME_LIMIT).unwrap();
        let mut det = d.clone();
        apply_pul(&mut det, &pul, &ApplyOptions::default()).unwrap();
        assert!(
            o.canonical().contains(&canonical_string(&det)),
            "the deterministic outcome must be one of the obtainable documents"
        );
    }

    #[test]
    fn limit_is_enforced() {
        let d = figure1();
        let authors = d.find_elements("authors")[1];
        let ops: Vec<UpdateOp> = (0..6)
            .map(|i| {
                UpdateOp::ins_into(
                    authors,
                    vec![Tree::element_with_text("author", format!("A{i}"))],
                )
            })
            .collect();
        let pul: Pul = ops.into_iter().collect();
        assert!(matches!(
            obtainable_documents(&d, &pul, 50),
            Err(PulError::TooManyOutcomes { limit: 50 })
        ));
    }

    #[test]
    fn canonical_string_ignores_attribute_order_and_ids() {
        let d1 = parse_document("<a x=\"1\" y=\"2\"><b>t</b></a>").unwrap();
        let d2 = parse_document_with_offset("<a y=\"2\" x=\"1\"><b>t</b></a>", 100);
        assert_eq!(canonical_string(&d1), canonical_string(&d2));
        let d3 = parse_document("<a x=\"1\" y=\"3\"><b>t</b></a>").unwrap();
        assert_ne!(canonical_string(&d1), canonical_string(&d3));
    }

    fn parse_document_with_offset(xml: &str, first: u64) -> Document {
        xdm::parser::parse_document_with_first_id(xml, first).unwrap()
    }

    #[test]
    fn inapplicable_pul_is_rejected() {
        let d = figure1();
        let pul: Pul = vec![UpdateOp::rename(9999u64, "x")].into_iter().collect();
        assert!(obtainable_documents(&d, &pul, 10).is_err());
    }
}
