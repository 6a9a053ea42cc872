//! PUL integration (§3.2): Definition 11 and Algorithm 1.
//!
//! Integration combines *parallel* PULs — PULs expressed against the same
//! document state — into a single PUL containing their non-conflicting
//! operations, plus the set of detected conflicts (Fig. 3). When no conflict
//! arises, integration coincides with the W3C merge and is equivalent to
//! applying the PULs in either order (Prop. 2).
//!
//! Algorithm 1 partitions the operations by target node (sorted in document
//! order), detects the local conflicts (types 1–4) within each partition, and
//! detects the non-local conflicts (type 5) with a single sweep over the
//! targets in document order, exploiting the containment labels carried by the
//! PULs instead of materialising the target tree.

use std::collections::{HashMap, HashSet};

use pul::{OpName, Pul};
use xdm::NodeId;
use xlabel::NodeLabel;

use crate::conflict::{
    local_override, non_local_override, symmetric_local_conflict, Conflict, ConflictType, OpRef,
};

/// The result of integrating a list of PULs (Def. 11): the PUL of
/// non-conflicting operations and the set of conflicts.
#[derive(Debug, Clone)]
pub struct Integration {
    /// `∆` — the operations not involved in any conflict, merged in one PUL.
    pub pul: Pul,
    /// `Γ` — the detected conflicts.
    pub conflicts: Vec<Conflict>,
}

impl Integration {
    /// Whether the integration succeeded without conflicts (and therefore
    /// coincides with the W3C merge, Prop. 2).
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// References to every operation involved in some conflict.
    pub fn conflicted_ops(&self) -> HashSet<OpRef> {
        self.conflicts.iter().flat_map(|c| c.all_ops()).collect()
    }
}

pub(crate) fn label_of(puls: &[Pul], target: NodeId) -> Option<&NodeLabel> {
    puls.iter().find_map(|p| p.label(target))
}

/// Detects the local conflicts (types 1–4) among the operations of a single
/// target group. Only operations belonging to different PULs conflict.
fn local_conflicts(group: &[OpRef], puls: &[Pul], out: &mut Vec<Conflict>) {
    // --- symmetric conflicts (types 1–3): maximal sets per kind -----------
    let mut sym: HashMap<(ConflictType, OpName), Vec<OpRef>> = HashMap::new();
    for (i, &a) in group.iter().enumerate() {
        for &b in &group[i + 1..] {
            if a.pul == b.pul {
                continue;
            }
            let opa = a.resolve(puls);
            let opb = b.resolve(puls);
            if let Some(ct) = symmetric_local_conflict(opa, opb) {
                let key = (ct, opa.name());
                let entry = sym.entry(key).or_default();
                if !entry.contains(&a) {
                    entry.push(a);
                }
                if !entry.contains(&b) {
                    entry.push(b);
                }
            }
        }
    }
    let mut sym: Vec<((ConflictType, OpName), Vec<OpRef>)> = sym.into_iter().collect();
    sym.sort_by_key(|((ct, name), _)| (ct.code(), name.code()));
    for ((ct, _), mut ops) in sym {
        ops.sort();
        out.push(Conflict::symmetric(ct, ops));
    }
    // --- asymmetric local overriding (type 4) -----------------------------
    for &a in group {
        let opa = a.resolve(puls);
        if !matches!(opa.name(), OpName::ReplaceNode | OpName::Delete | OpName::ReplaceContent) {
            continue;
        }
        let mut overridden: Vec<OpRef> = Vec::new();
        for &b in group {
            if a == b || a.pul == b.pul {
                continue;
            }
            let opb = b.resolve(puls);
            if local_override(opa, opb) {
                overridden.push(b);
            }
        }
        if !overridden.is_empty() {
            overridden.sort();
            out.push(Conflict::asymmetric(ConflictType::LocalOverride, a, overridden));
        }
    }
}

/// Detects the non-local conflicts (type 5) with a sweep over the targets in
/// document order, using the containment labels.
fn non_local_conflicts(all: &[OpRef], puls: &[Pul], out: &mut Vec<Conflict>) {
    // Operations sorted by the start key of their target label (document order).
    let mut labeled: Vec<(OpRef, &NodeLabel)> = all
        .iter()
        .filter_map(|&r| label_of(puls, r.resolve(puls).target()).map(|l| (r, l)))
        .collect();
    labeled.sort_by(|(_, a), (_, b)| a.start.cmp(&b.start));

    // Active overriding intervals (repN/del/repC seen so far whose interval may
    // still contain upcoming targets).
    let mut active: Vec<(OpRef, &NodeLabel)> = Vec::new();
    let mut overridden: HashMap<OpRef, Vec<OpRef>> = HashMap::new();

    for &(r, label) in &labeled {
        // Drop intervals that ended before this target starts: they can no
        // longer contain any later target.
        active.retain(|(_, l)| l.end > label.start);
        let op = r.resolve(puls);
        for &(or, ol) in &active {
            if or.pul == r.pul || or == r {
                continue;
            }
            let overrider = or.resolve(puls);
            if non_local_override(overrider, ol, op, label) {
                overridden.entry(or).or_default().push(r);
            }
        }
        if matches!(op.name(), OpName::ReplaceNode | OpName::Delete | OpName::ReplaceContent) {
            active.push((r, label));
        }
    }
    let mut overridden: Vec<(OpRef, Vec<OpRef>)> = overridden.into_iter().collect();
    overridden.sort();
    for (or, mut ops) in overridden {
        ops.sort();
        out.push(Conflict::asymmetric(ConflictType::NonLocalOverride, or, ops));
    }
}

/// Integrates a list of parallel PULs (Algorithm 1, Def. 11).
pub fn integrate(puls: &[Pul]) -> Integration {
    // 1. Partition the operations by target, sorted in document order.
    let mut all: Vec<OpRef> = Vec::new();
    for (pi, p) in puls.iter().enumerate() {
        for oi in 0..p.ops().len() {
            all.push(OpRef::new(pi, oi));
        }
    }
    let mut groups: HashMap<NodeId, Vec<OpRef>> = HashMap::new();
    for &r in &all {
        groups.entry(r.resolve(puls).target()).or_default().push(r);
    }
    // Resolve each target's label once before sorting: `label_of` probes
    // every PUL's label map, and paying that inside the comparator makes the
    // sort the dominant cost of integrating many-target batches.
    let mut keyed: Vec<(NodeId, Option<&NodeLabel>)> =
        groups.keys().map(|&t| (t, label_of(puls, t))).collect();
    keyed.sort_by(|(a, la), (b, lb)| match (la, lb) {
        (Some(la), Some(lb)) => la.start.cmp(&lb.start),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.cmp(b),
    });
    let targets: Vec<NodeId> = keyed.into_iter().map(|(t, _)| t).collect();

    // 2. Local conflicts (types 1–4) per target group.
    let mut conflicts: Vec<Conflict> = Vec::new();
    for t in &targets {
        local_conflicts(&groups[t], puls, &mut conflicts);
    }

    // 3. Non-local conflicts (type 5) across groups.
    non_local_conflicts(&all, puls, &mut conflicts);

    // 4. ∆ = operations not involved in any conflict.
    let conflicted: HashSet<OpRef> = conflicts.iter().flat_map(|c| c.all_ops()).collect();
    let mut merged = Pul::new();
    for &r in &all {
        if !conflicted.contains(&r) {
            merged.push(r.resolve(puls).clone());
        }
    }
    for p in puls {
        for l in p.labels().values() {
            merged.add_label(l.clone());
        }
    }
    Integration { pul: merged, conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pul::apply::{apply_pul, ApplyOptions};
    use pul::obtainable::canonical_string;
    use pul::UpdateOp;
    use xdm::parser::parse_document;
    use xdm::{Document, Tree};
    use xlabel::Labeling;

    /// Document shaped like the paper's Figure 1 paper fragment:
    /// `<paper(4)><title(5)>…(6)</title><author(7)>…(8)</author><pages(9)>…</pages></paper>`
    fn fixture() -> (Document, Labeling) {
        let doc = parse_document(
            "<issue><volume>30</volume><number>3</number><paper><title>Old</title>\
             <author>Ada</author><pages>33</pages></paper></issue>",
        )
        .unwrap();
        let labeling = Labeling::assign(&doc);
        (doc, labeling)
    }

    #[test]
    fn example_6_no_conflicts_and_merge() {
        // ∆1 = {insA(paper, initPage="132"), repV(author text, 'MM'), repN(pages, <pages/>)}
        // ∆2 = {insA(paper, lastPage="134"), ren(title, heading)} — no conflicts.
        let (doc, labels) = fixture();
        let paper = doc.find_element("paper").unwrap();
        let title = doc.find_element("title").unwrap();
        let author_text = doc.children(doc.find_element("author").unwrap()).unwrap()[0];
        let pages = doc.find_element("pages").unwrap();

        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_attributes(paper, vec![Tree::attribute("initPage", "132")]),
                UpdateOp::replace_value(author_text, "MM"),
                UpdateOp::replace_node(pages, vec![Tree::element("pages")]),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_attributes(paper, vec![Tree::attribute("lastPage", "134")]),
                UpdateOp::rename(title, "heading"),
            ],
            &labels,
        );
        let result = integrate(&[p1.clone(), p2.clone()]);
        assert!(result.is_conflict_free(), "conflicts: {:?}", result.conflicts);
        assert_eq!(result.pul.len(), 5, "integration = merge when conflict-free");

        // Prop. 2: the integrated PUL is equivalent to the sequential
        // applications ∆1;∆2 and ∆2;∆1.
        let mut together = doc.clone();
        apply_pul(&mut together, &result.pul, &ApplyOptions::default()).unwrap();
        let mut seq12 = doc.clone();
        apply_pul(&mut seq12, &p1, &ApplyOptions::default()).unwrap();
        apply_pul(&mut seq12, &p2, &ApplyOptions::default()).unwrap();
        let mut seq21 = doc.clone();
        apply_pul(&mut seq21, &p2, &ApplyOptions::default()).unwrap();
        apply_pul(&mut seq21, &p1, &ApplyOptions::default()).unwrap();
        assert_eq!(canonical_string(&together), canonical_string(&seq12));
        assert_eq!(canonical_string(&together), canonical_string(&seq21));
    }

    #[test]
    fn example_7_conflict_detection() {
        // Three producers, mirroring Example 7:
        //   ∆1 = {insA(author, email=…), ins→(title, <author>G G</author>), repV(pages text, '34')}
        //   ∆2 = {insA(author, email=…), ins→(title, <author>A C</author>), repV(pages text, '35'),
        //         repV(author text, 'F C'), ins←(author, <author>F C</author>)}
        //   ∆3 = {repC(author, 'G G')}
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let author = doc.find_element("author").unwrap();
        let author_text = doc.children(author).unwrap()[0];
        let pages = doc.find_element("pages").unwrap();
        let pages_text = doc.children(pages).unwrap()[0];

        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_attributes(author, vec![Tree::attribute("email", "catania@disi")]),
                UpdateOp::ins_after(title, vec![Tree::element_with_text("author", "G G")]),
                UpdateOp::replace_value(pages_text, "34"),
            ],
            &labels,
        );
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_attributes(author, vec![Tree::attribute("email", "catania@gmail")]),
                UpdateOp::ins_after(title, vec![Tree::element_with_text("author", "A C")]),
                UpdateOp::replace_value(pages_text, "35"),
                UpdateOp::replace_value(author_text, "F C"),
                UpdateOp::ins_before(author, vec![Tree::element_with_text("author", "F C")]),
            ],
            &labels,
        );
        let p3 =
            Pul::from_ops(vec![UpdateOp::replace_content(author, Some("G G".into()))], &labels);

        let result = integrate(&[p1, p2, p3]);
        let types: Vec<u8> = result.conflicts.iter().map(|c| c.ctype.code()).collect();
        // cf1: insertion order on the two ins→(title); cf2: repeated attribute
        // insertion on author; cf3: repeated modification on pages text;
        // cf4: non-local override of repV(author text) by repC(author).
        assert_eq!(result.conflicts.len(), 4, "conflicts: {types:?}");
        assert_eq!(types.iter().filter(|&&t| t == 3).count(), 1);
        assert_eq!(types.iter().filter(|&&t| t == 2).count(), 1);
        assert_eq!(types.iter().filter(|&&t| t == 1).count(), 1);
        assert_eq!(types.iter().filter(|&&t| t == 5).count(), 1);
        let cf5 = result.conflicts.iter().find(|c| c.ctype.code() == 5).unwrap();
        assert_eq!(cf5.overrider.unwrap().pul, 2, "the repC of ∆3 is the overrider");
        assert_eq!(cf5.ops.len(), 1, "only the repV of ∆2 on the author text is overridden");
        assert_eq!(cf5.ops[0].pul, 1);

        // non-conflicting operations: everything else
        let involved = result.conflicted_ops().len();
        assert_eq!(result.pul.len() + involved, 3 + 5 + 1);
        // ins←(author) of ∆2 and insA targets differ → the ins← op is not conflicted
        assert!(result.pul.ops().iter().any(|o| o.name() == OpName::InsBefore));
    }

    #[test]
    fn type4_local_override_across_puls() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::rename(title, "heading")], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let result = integrate(&[p1, p2]);
        assert_eq!(result.conflicts.len(), 1);
        let c = &result.conflicts[0];
        assert_eq!(c.ctype, ConflictType::LocalOverride);
        assert_eq!(c.overrider.unwrap(), OpRef::new(1, 0));
        assert_eq!(c.ops, vec![OpRef::new(0, 0)]);
        assert!(result.pul.is_empty());
    }

    #[test]
    fn same_pul_operations_never_conflict() {
        // Two ins→ on the same target in the *same* PUL are not a conflict
        // (they would be reduced, not reconciled).
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(
            vec![
                UpdateOp::ins_after(title, vec![Tree::element("a")]),
                UpdateOp::ins_after(title, vec![Tree::element("b")]),
            ],
            &labels,
        );
        let result = integrate(&[p1]);
        assert!(result.is_conflict_free());
        assert_eq!(result.pul.len(), 2);
    }

    #[test]
    fn type5_requires_descendant_targets() {
        let (doc, labels) = fixture();
        let paper = doc.find_element("paper").unwrap();
        let volume = doc.find_element("volume").unwrap();
        // deleting <paper> does not override an op on <volume> (not a descendant)
        let p1 = Pul::from_ops(vec![UpdateOp::delete(paper)], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::rename(volume, "vol")], &labels);
        let result = integrate(&[p1, p2]);
        assert!(result.is_conflict_free());

        // but it does override an op on <title> (a descendant)
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::delete(paper)], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::rename(title, "t")], &labels);
        let result = integrate(&[p1, p2]);
        assert_eq!(result.conflicts.len(), 1);
        assert_eq!(result.conflicts[0].ctype, ConflictType::NonLocalOverride);
    }

    #[test]
    fn type5_repc_spares_attributes_of_its_target() {
        let (doc, labels) = fixture();
        let paper = doc.find_element("paper").unwrap();
        let title = doc.find_element("title").unwrap();
        // give the paper an attribute and target it from another PUL
        let mut doc2 = doc.clone();
        let attr = doc2.new_attribute("id", "p1");
        doc2.add_attribute(paper, attr).unwrap();
        let labels2 = Labeling::assign(&doc2);

        let p1 = Pul::from_ops(vec![UpdateOp::replace_content(paper, None)], &labels2);
        let p2 = Pul::from_ops(
            vec![UpdateOp::replace_value(attr, "p2"), UpdateOp::rename(title, "t")],
            &labels2,
        );
        let puls = vec![p1, p2];
        let result = integrate(&puls);
        // only the op on <title> is overridden; the attribute op survives
        assert_eq!(result.conflicts.len(), 1);
        let c = &result.conflicts[0];
        assert_eq!(c.ctype, ConflictType::NonLocalOverride);
        assert_eq!(c.ops.len(), 1);
        assert_eq!(c.ops[0].resolve(&puls).target(), title);
        let _ = labels;
    }

    #[test]
    fn deletions_in_different_puls_do_not_conflict() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let result = integrate(&[p1, p2]);
        assert!(result.is_conflict_free(), "two deletions of the same node agree");
    }

    #[test]
    fn empty_input_integrates_to_empty() {
        let result = integrate(&[]);
        assert!(result.is_conflict_free());
        assert!(result.pul.is_empty());
    }
}
