//! Conflict resolution / PUL reconciliation (§4.2): Algorithm 3, Definition 12.
//!
//! Given the conflicts detected by [`crate::integrate()`] and the
//! [`Policy`] of each producer, the best-effort
//! resolution algorithm processes one conflict at a time — in an order designed
//! so that a conflict is handled only once the operations that could remove its
//! focus node have been dealt with — and solves it by *excluding* operations,
//! unless the policies of the involved producers forbid it, in which case the
//! whole reconciliation fails.

use std::collections::HashSet;
use std::fmt;

use pul::{Pul, UpdateOp};
use xdm::{NodeId, Tree};

use crate::conflict::{acts_as_delete, Conflict, ConflictType, OpRef};
use crate::integrate::{integrate, label_of, Integration};
use crate::policy::Policy;
use crate::reduce::{reduce_with, ReductionKind};

/// Reconciliation failure: some conflict cannot be solved without violating a
/// producer policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileError {
    /// The conflict that could not be solved.
    pub conflict: Conflict,
    /// Why no resolution satisfying the policies exists.
    pub reason: String,
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsolvable conflict {}: {}", self.conflict, self.reason)
    }
}

impl std::error::Error for ReconcileError {}

fn policy_of(policies: &[Policy], r: OpRef) -> Policy {
    policies.get(r.pul).copied().unwrap_or_default()
}

/// The focus node of a conflict: the common target for symmetric conflicts,
/// the overrider target for asymmetric ones.
fn focus(conflict: &Conflict, puls: &[Pul]) -> NodeId {
    match conflict.overrider {
        Some(o) => o.resolve(puls).target(),
        None => conflict.ops.first().map(|r| r.resolve(puls).target()).unwrap_or(NodeId::new(0)),
    }
}

/// The precedence rank (i)–(ix) used to order conflicts with the same focus.
fn precedence(conflict: &Conflict, puls: &[Pul]) -> u8 {
    use pul::OpName::*;
    let overrider_name = conflict.overrider.map(|o| o.resolve(puls).name());
    let first_name = conflict.ops.first().map(|o| o.resolve(puls).name());
    let first_is_del =
        conflict.ops.first().map(|o| acts_as_delete(o.resolve(puls))).unwrap_or(false);
    match conflict.ctype {
        ConflictType::RepeatedModification => match first_name {
            Some(ReplaceNode) if !first_is_del => 1,
            Some(ReplaceNode) => 3,
            Some(ReplaceContent) => 5,
            _ => 7,
        },
        ConflictType::LocalOverride => match overrider_name {
            Some(ReplaceNode) => {
                if conflict.overrider.map(|o| acts_as_delete(o.resolve(puls))).unwrap_or(false) {
                    4
                } else {
                    2
                }
            }
            Some(Delete) => 4,
            Some(ReplaceContent) => 6,
            _ => 7,
        },
        ConflictType::RepeatedAttributeInsertion => 7,
        ConflictType::InsertionOrder => 8,
        ConflictType::NonLocalOverride => 9,
    }
}

/// Outcome of solving one conflict.
struct Solved {
    excluded: Vec<OpRef>,
    generated: Vec<UpdateOp>,
}

fn solve(
    conflict: &Conflict,
    overrider: Option<OpRef>,
    os: &[OpRef],
    puls: &[Pul],
    policies: &[Policy],
) -> Result<Solved, ReconcileError> {
    match conflict.ctype {
        // ------------------------------------------------------- asymmetric
        ConflictType::LocalOverride | ConflictType::NonLocalOverride => {
            let overrider = overrider.expect("asymmetric conflicts have an overrider");
            // Preferred resolution: exclude the overridden operations.
            let blocked: Vec<OpRef> = os
                .iter()
                .copied()
                .filter(|&r| policy_of(policies, r).forbids_excluding(r.resolve(puls)))
                .collect();
            if blocked.is_empty() {
                return Ok(Solved { excluded: os.to_vec(), generated: vec![] });
            }
            // Alternative: exclude the overriding operation instead.
            if !policy_of(policies, overrider).forbids_excluding(overrider.resolve(puls)) {
                return Ok(Solved { excluded: vec![overrider], generated: vec![] });
            }
            Err(ReconcileError {
                conflict: conflict.clone(),
                reason: format!(
                    "the policies of producers {:?} forbid discarding either side of the override",
                    blocked.iter().map(|r| r.pul + 1).collect::<Vec<_>>()
                ),
            })
        }
        // -------------------------------------------------- insertion order
        ConflictType::InsertionOrder => {
            // All involved insertions are excluded and replaced by a single
            // insertion whose parameter concatenates theirs.
            let order_keepers: Vec<usize> = os
                .iter()
                .map(|r| r.pul)
                .filter(|&p| policies.get(p).map(|pl| pl.preserve_insertion_order).unwrap_or(false))
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            if order_keepers.len() > 1 {
                return Err(ReconcileError {
                    conflict: conflict.clone(),
                    reason: "more than one producer requires preservation of the insertion order"
                        .into(),
                });
            }
            let mut ordered: Vec<OpRef> = os.to_vec();
            ordered.sort_by_key(|r| {
                let keeps_order = order_keepers.first() == Some(&r.pul);
                (if keeps_order { 0 } else { 1 }, r.pul, r.op)
            });
            let template = os[0].resolve(puls);
            let mut content: Vec<Tree> = Vec::new();
            for r in &ordered {
                content.extend(r.resolve(puls).content().unwrap_or(&[]).iter().cloned());
            }
            let target = template.target();
            let generated = match template.name() {
                pul::OpName::InsBefore => UpdateOp::ins_before(target, content),
                pul::OpName::InsAfter => UpdateOp::ins_after(target, content),
                pul::OpName::InsFirst => UpdateOp::ins_first(target, content),
                pul::OpName::InsLast => UpdateOp::ins_last(target, content),
                other => {
                    unreachable!("insertion-order conflicts only involve insertions ({other:?})")
                }
            };
            Ok(Solved { excluded: os.to_vec(), generated: vec![generated] })
        }
        // -------------------------------------- non-order symmetric conflicts
        ConflictType::RepeatedModification | ConflictType::RepeatedAttributeInsertion => {
            // All but one of the involved operations are excluded. Operations
            // whose exclusion is forbidden by their producer policy must be the
            // one that is kept; more than one such operation makes the conflict
            // unsolvable.
            let must_keep: Vec<OpRef> = os
                .iter()
                .copied()
                .filter(|&r| policy_of(policies, r).forbids_excluding(r.resolve(puls)))
                .collect();
            if must_keep.len() > 1 {
                return Err(ReconcileError {
                    conflict: conflict.clone(),
                    reason: format!(
                        "producers {:?} all require their conflicting operation to be preserved",
                        must_keep.iter().map(|r| r.pul + 1).collect::<Vec<_>>()
                    ),
                });
            }
            let keep = must_keep.first().copied().unwrap_or(os[0]);
            let excluded = os.iter().copied().filter(|&r| r != keep).collect();
            Ok(Solved { excluded, generated: vec![] })
        }
    }
}

/// Resolves the conflicts of an integration according to the producer
/// policies (Algorithm 3) and returns the reconciled PUL (Def. 12):
/// the non-conflicting operations, the conflicting operations that were not
/// excluded, and the operations generated while solving order conflicts.
pub fn reconcile_integration(
    puls: &[Pul],
    integration: &Integration,
    policies: &[Policy],
) -> Result<Pul, ReconcileError> {
    // Order the conflicts: focus node in document order, then precedence.
    // The key is resolved once per conflict: `label_of` probes every PUL's
    // label map, too much to pay on both sides of every comparison.
    let mut ordered: Vec<_> = integration
        .conflicts
        .iter()
        .map(|c| {
            let f = focus(c, puls);
            ((label_of(puls, f).map(|l| &l.start), f, precedence(c, puls)), c)
        })
        .collect();
    ordered.sort_by_key(|(key, _)| *key);

    let mut excluded: HashSet<OpRef> = HashSet::new();
    let mut generated: Vec<UpdateOp> = Vec::new();
    let mut involved: Vec<OpRef> = Vec::new();

    for (_, conflict) in ordered {
        involved.extend(conflict.all_ops());
        let overrider = conflict.overrider.filter(|o| !excluded.contains(o));
        let os: Vec<OpRef> =
            conflict.ops.iter().copied().filter(|r| !excluded.contains(r)).collect();
        // Automatically solved conflicts (the involved operations are gone).
        let auto = if conflict.ctype.is_symmetric() {
            os.len() <= 1
        } else {
            overrider.is_none() || os.is_empty()
        };
        if auto {
            continue;
        }
        let solved = solve(conflict, overrider, &os, puls, policies)?;
        excluded.extend(solved.excluded);
        generated.extend(solved.generated);
    }

    // Reconciled PUL = ∆ ∪ (involved conflict ops \ E) ∪ generated.
    let mut out = integration.pul.clone();
    let mut seen: HashSet<OpRef> = HashSet::new();
    for r in involved {
        if !excluded.contains(&r) && seen.insert(r) {
            out.push(r.resolve(puls).clone());
        }
    }
    for op in generated {
        out.push(op);
    }
    Ok(out)
}

/// Integrates a list of PULs and reconciles the detected conflicts under the
/// given producer policies. The result is returned in deterministic-reduced
/// form, which also removes redundancies introduced by the resolution.
pub fn reconcile(puls: &[Pul], policies: &[Policy]) -> Result<Pul, ReconcileError> {
    let integration = integrate(puls);
    let reconciled = reconcile_integration(puls, &integration, policies)?;
    Ok(reduce_with(&reconciled, ReductionKind::Plain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pul::OpName;
    use xdm::parser::parse_document;
    use xdm::Document;
    use xlabel::Labeling;

    fn fixture() -> (Document, Labeling) {
        let doc = parse_document(
            "<issue><volume>30</volume><number>3</number><paper><title>Old</title>\
             <author>Ada</author><pages>33</pages></paper></issue>",
        )
        .unwrap();
        let labeling = Labeling::assign(&doc);
        (doc, labeling)
    }

    /// The three PULs of Example 7 / Example 9.
    fn example_puls(doc: &Document, labels: &Labeling) -> Vec<Pul> {
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
            labels,
        );
        let p2 = Pul::from_ops(
            vec![
                UpdateOp::ins_attributes(author, vec![Tree::attribute("email", "catania@gmail")]),
                UpdateOp::ins_after(title, vec![Tree::element_with_text("author", "A C")]),
                UpdateOp::replace_value(pages_text, "35"),
                UpdateOp::replace_value(author_text, "F C"),
                UpdateOp::ins_before(author, vec![Tree::element_with_text("author", "F C")]),
            ],
            labels,
        );
        let p3 = Pul::from_ops(vec![UpdateOp::replace_content(author, Some("G G".into()))], labels);
        vec![p1, p2, p3]
    }

    #[test]
    fn example_9_reconciliation_with_policies() {
        let (doc, labels) = fixture();
        let puls = example_puls(&doc, &labels);
        // Producer 1: insertion order and inserted data must be preserved;
        // producer 2: no constraints; producer 3: inserted data only.
        let policies = vec![
            Policy {
                preserve_insertion_order: true,
                preserve_inserted_data: true,
                preserve_removed_data: false,
            },
            Policy::relaxed(),
            Policy::inserted_data(),
        ];
        let integration = integrate(&puls);
        assert_eq!(integration.conflicts.len(), 4);
        let reconciled = reconcile_integration(&puls, &integration, &policies).unwrap();

        // The order conflict is solved by a generated ins→ whose parameter puts
        // producer 1's author first (G G before A C).
        let generated = reconciled
            .ops()
            .iter()
            .find(|o| o.name() == OpName::InsAfter && o.content().map(|c| c.len()) == Some(2))
            .expect("generated insertion");
        let texts: Vec<String> =
            generated.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
        assert_eq!(texts, vec!["G G", "A C"]);

        // Producer 1's email attribute wins (inserted data preserved), and its
        // repV('34') wins over producer 2's repV('35').
        assert!(reconciled
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::InsAttributes { content, .. }
            if content[0].value(content[0].root_id()).unwrap() == Some("catania@disi"))));
        assert!(reconciled
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::ReplaceValue { value, .. } if value == "34")));
        assert!(!reconciled
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::ReplaceValue { value, .. } if value == "35")));
        // Producer 2's overridden repV(author text) is excluded, producer 3's
        // repC is kept, and producer 2's ins← is kept (never conflicted).
        assert!(reconciled.ops().iter().any(|o| o.name() == OpName::ReplaceContent));
        assert!(reconciled.ops().iter().any(|o| o.name() == OpName::InsBefore));
        assert!(!reconciled
            .ops()
            .iter()
            .any(|o| matches!(o, UpdateOp::ReplaceValue { value, .. } if value == "F C")));
    }

    #[test]
    fn example_9_all_strict_order_policies_fail() {
        let (doc, labels) = fixture();
        let puls = example_puls(&doc, &labels);
        let policies = vec![Policy::insertion_order(); 3];
        let err = reconcile(&puls, &policies).unwrap_err();
        assert!(err.to_string().contains("insertion order"), "{err}");
    }

    #[test]
    fn conflict_free_reconciliation_is_the_merge() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let pages = doc.find_element("pages").unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::rename(title, "t")], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::rename(pages, "pp")], &labels);
        let out = reconcile(&[p1, p2], &[Policy::relaxed(), Policy::relaxed()]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn override_prefers_dropping_the_overridden_op() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(vec![UpdateOp::rename(title, "t")], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let out = reconcile(&[p1, p2], &[Policy::relaxed(), Policy::relaxed()]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.ops()[0].name(), OpName::Delete);
    }

    #[test]
    fn override_respects_inserted_data_policy_by_dropping_the_overrider() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        // Producer 1 inserts children into <title> and insists they stay;
        // producer 2 deletes <title> but has no constraints → the delete goes.
        let p1 = Pul::from_ops(
            vec![UpdateOp::ins_last(title, vec![Tree::element_with_text("sub", "x")])],
            &labels,
        );
        let p2 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let out = reconcile(&[p1, p2], &[Policy::inserted_data(), Policy::relaxed()]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.ops()[0].name(), OpName::InsLast);
    }

    #[test]
    fn override_with_conflicting_policies_fails() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let p1 = Pul::from_ops(
            vec![UpdateOp::ins_last(title, vec![Tree::element_with_text("sub", "x")])],
            &labels,
        );
        let p2 = Pul::from_ops(vec![UpdateOp::delete(title)], &labels);
        let err =
            reconcile(&[p1, p2], &[Policy::inserted_data(), Policy::removed_data()]).unwrap_err();
        assert!(err.to_string().contains("unsolvable conflict"));
    }

    #[test]
    fn repeated_modification_keeps_the_protected_producer() {
        let (doc, labels) = fixture();
        let title = doc.find_element("title").unwrap();
        let text = doc.children(title).unwrap()[0];
        let p1 = Pul::from_ops(vec![UpdateOp::replace_value(text, "first")], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::replace_value(text, "second")], &labels);
        // producer 2 insists its data is preserved → its value wins
        let out = reconcile(&[p1, p2], &[Policy::relaxed(), Policy::inserted_data()]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(&out.ops()[0], UpdateOp::ReplaceValue { value, .. } if value == "second"));
        // both insist → failure
        let (doc, labels) = fixture();
        let text = doc.children(doc.find_element("title").unwrap()).unwrap()[0];
        let p1 = Pul::from_ops(vec![UpdateOp::replace_value(text, "first")], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::replace_value(text, "second")], &labels);
        assert!(reconcile(&[p1, p2], &[Policy::inserted_data(), Policy::inserted_data()]).is_err());
    }

    #[test]
    fn cascading_exclusions_auto_solve_later_conflicts() {
        // Deleting <paper> overrides everything inside it; once the inner
        // operations are excluded, their own mutual conflicts are auto-solved.
        let (doc, labels) = fixture();
        let paper = doc.find_element("paper").unwrap();
        let title = doc.find_element("title").unwrap();
        let text = doc.children(title).unwrap()[0];
        let p1 = Pul::from_ops(vec![UpdateOp::delete(paper)], &labels);
        let p2 = Pul::from_ops(vec![UpdateOp::replace_value(text, "a")], &labels);
        let p3 = Pul::from_ops(vec![UpdateOp::replace_value(text, "b")], &labels);
        let out =
            reconcile(&[p1, p2, p3], &[Policy::relaxed(), Policy::relaxed(), Policy::relaxed()])
                .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.ops()[0].name(), OpName::Delete);
    }
}
