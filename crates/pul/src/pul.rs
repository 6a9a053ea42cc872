//! The Pending Update List container.

use std::collections::HashMap;
use std::fmt;

use xdm::{Document, NodeId};
use xlabel::{Labeling, NodeLabel};

use crate::error::PulError;
use crate::op::UpdateOp;
use crate::Result;

/// A **Pending Update List**: an unordered list of update operations (§2.2),
/// together with the labels of the target nodes.
///
/// The labels make the PUL self-contained: the reasoning operators (reduction,
/// integration, aggregation) evaluate the structural predicates of Table 1
/// directly on the labels carried by the PUL, without ever accessing the
/// document (§2.1, §4.1). Operations targeting nodes that are *not* part of the
/// original document (e.g. nodes inserted by a previous PUL of a sequence) may
/// legitimately have no label.
#[derive(Debug, Clone, Default)]
pub struct Pul {
    ops: Vec<UpdateOp>,
    labels: HashMap<NodeId, NodeLabel>,
}

impl Pul {
    /// Creates an empty PUL.
    pub fn new() -> Self {
        Pul { ops: Vec::new(), labels: HashMap::new() }
    }

    /// Creates an empty PUL with room for `n` operations.
    pub fn with_capacity(n: usize) -> Self {
        Pul { ops: Vec::with_capacity(n), labels: HashMap::with_capacity(n) }
    }

    /// Builds a PUL from a list of operations, attaching the labels of the
    /// operation targets found in `labeling`.
    pub fn from_ops(ops: Vec<UpdateOp>, labeling: &Labeling) -> Self {
        let mut pul = Pul { ops, labels: HashMap::new() };
        pul.attach_labels(labeling);
        pul
    }

    /// Adds an operation (without label information).
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// Adds an operation together with the label of its target.
    pub fn push_with_label(&mut self, op: UpdateOp, label: NodeLabel) {
        self.labels.insert(label.id, label);
        self.ops.push(op);
    }

    /// Records the label of a node (typically an operation target).
    pub fn add_label(&mut self, label: NodeLabel) {
        self.labels.insert(label.id, label);
    }

    /// Attaches, for every operation target, the label found in `labeling`
    /// (targets unknown to the labeling are skipped).
    pub fn attach_labels(&mut self, labeling: &Labeling) {
        for op in &self.ops {
            if let Some(l) = labeling.get(op.target()) {
                self.labels.insert(op.target(), l.clone());
            }
        }
    }

    /// The operations of the PUL.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Mutable access to the operations.
    pub fn ops_mut(&mut self) -> &mut Vec<UpdateOp> {
        &mut self.ops
    }

    /// Consumes the PUL, returning its operations.
    pub fn into_ops(self) -> Vec<UpdateOp> {
        self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the PUL contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> impl Iterator<Item = &UpdateOp> {
        self.ops.iter()
    }

    /// The label of a node, if the PUL carries one.
    pub fn label(&self, id: NodeId) -> Option<&NodeLabel> {
        self.labels.get(&id)
    }

    /// All labels carried by the PUL.
    pub fn labels(&self) -> &HashMap<NodeId, NodeLabel> {
        &self.labels
    }

    /// The distinct targets of the operations, in insertion order.
    pub fn targets(&self) -> Vec<NodeId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for op in &self.ops {
            if seen.insert(op.target()) {
                out.push(op.target());
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Definitions 3–5
    // ------------------------------------------------------------------

    /// Checks that all pairs of operations are compatible (Def. 3). This is the
    /// structural half of PUL applicability (Def. 4).
    pub fn check_compatible(&self) -> Result<()> {
        // Incompatibility only arises between replacement operations with the
        // same name and target, so grouping by (target, name) is sufficient.
        let mut seen: HashMap<(NodeId, crate::op::OpName), usize> = HashMap::new();
        for op in &self.ops {
            if op.class() == crate::op::OpClass::Replacement {
                let key = (op.target(), op.name());
                if seen.contains_key(&key) {
                    return Err(PulError::Incompatible {
                        target: op.target(),
                        op: op.name().paper_notation().to_string(),
                    });
                }
                seen.insert(key, 1);
            }
        }
        Ok(())
    }

    /// PUL applicability on a document (Def. 4): every operation is applicable
    /// (Def. 1) and all pairs of operations are compatible (Def. 3).
    pub fn check_applicable(&self, doc: &Document) -> Result<()> {
        for op in &self.ops {
            op.check_applicable(doc)?;
        }
        self.check_compatible()
    }

    /// Splits the PUL into `groups` sub-PULs, assigning every operation to the
    /// group chosen by `route` (its return value is clamped to the last
    /// group). Operation order is preserved within each group, and every
    /// sub-PUL carries the labels of its own operation targets — each half
    /// stays a self-contained PUL the reasoning operators can work on.
    ///
    /// This is the decomposition step of the sharded executor: a PUL whose
    /// targets span several label intervals is split here, and each sub-PUL is
    /// reduced/integrated/reconciled by its shard independently.
    pub fn split_by_target(
        &self,
        groups: usize,
        mut route: impl FnMut(&UpdateOp) -> usize,
    ) -> Vec<Pul> {
        assert!(groups > 0, "cannot split a PUL into zero groups");
        let mut out: Vec<Pul> = (0..groups).map(|_| Pul::new()).collect();
        for op in &self.ops {
            let g = route(op).min(groups - 1);
            if let Some(label) = self.labels.get(&op.target()) {
                out[g].labels.insert(label.id, label.clone());
            }
            out[g].ops.push(op.clone());
        }
        out
    }

    /// The W3C `mergeUpdates` operation (Def. 5): the union of the two PULs,
    /// provided the union contains no incompatible operations. When a document
    /// is supplied the full applicability check (Def. 4) is performed.
    pub fn merge(&self, other: &Pul, doc: Option<&Document>) -> Result<Pul> {
        let mut merged = self.clone();
        merged.ops.extend(other.ops.iter().cloned());
        for l in other.labels.values() {
            merged.labels.insert(l.id, l.clone());
        }
        match doc {
            Some(d) => merged.check_applicable(d)?,
            None => merged.check_compatible()?,
        }
        Ok(merged)
    }

    /// N-way `mergeUpdates` (Def. 5 folded over a batch): the union of every
    /// PUL in the slice, with ops in slice order and one compatibility check
    /// over the final union — a single pass instead of the quadratic clone
    /// chain that folding [`merge`](Pul::merge) pairwise would cost.
    pub fn merge_all<'a>(puls: impl IntoIterator<Item = &'a Pul>) -> Result<Pul> {
        let mut merged = Pul::new();
        for pul in puls {
            merged.ops.extend(pul.ops.iter().cloned());
            for l in pul.labels.values() {
                merged.labels.insert(l.id, l.clone());
            }
        }
        merged.check_compatible()?;
        Ok(merged)
    }
}

impl fmt::Display for Pul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<UpdateOp> for Pul {
    fn from_iter<T: IntoIterator<Item = UpdateOp>>(iter: T) -> Self {
        Pul { ops: iter.into_iter().collect(), labels: HashMap::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::UpdateOp;
    use xdm::parser::parse_document;
    use xdm::Tree;

    fn doc() -> Document {
        // ids: issue=1, volume=2, article=3, title=4, "T"=5, article=6
        parse_document("<issue volume=\"30\"><article><title>T</title></article><article/></issue>")
            .unwrap()
    }

    #[test]
    fn push_len_iter_targets() {
        let mut pul = Pul::new();
        assert!(pul.is_empty());
        pul.push(UpdateOp::delete(5u64));
        pul.push(UpdateOp::rename(3u64, "paper"));
        pul.push(UpdateOp::replace_value(5u64, "X"));
        assert_eq!(pul.len(), 3);
        assert_eq!(pul.targets(), vec![NodeId::new(5), NodeId::new(3)]);
        assert_eq!(pul.iter().count(), 3);
    }

    #[test]
    fn labels_are_attached_from_a_labeling() {
        let d = doc();
        let labeling = Labeling::assign(&d);
        let ops = vec![UpdateOp::rename(3u64, "paper"), UpdateOp::delete(5u64)];
        let pul = Pul::from_ops(ops, &labeling);
        assert!(pul.label(NodeId::new(3)).is_some());
        assert!(pul.label(NodeId::new(5)).is_some());
        assert!(pul.label(NodeId::new(4)).is_none(), "non-target nodes carry no label");
        assert_eq!(pul.labels().len(), 2);
    }

    #[test]
    fn compatibility_detects_double_replacements() {
        let mut pul = Pul::new();
        pul.push(UpdateOp::rename(1u64, "dblp"));
        pul.push(UpdateOp::replace_content(1u64, Some("nopapers".into())));
        assert!(pul.check_compatible().is_ok());
        pul.push(UpdateOp::rename(1u64, "myDblp"));
        let err = pul.check_compatible().unwrap_err();
        assert!(matches!(err, PulError::Incompatible { .. }));
    }

    #[test]
    fn applicability_requires_each_op_applicable() {
        let d = doc();
        let mut pul = Pul::new();
        pul.push(UpdateOp::rename(3u64, "paper"));
        pul.push(UpdateOp::replace_value(99u64, "X"));
        assert!(matches!(pul.check_applicable(&d), Err(PulError::NotApplicable { .. })));
    }

    #[test]
    fn merge_follows_definition_5() {
        let d = doc();
        let mut p1 = Pul::new();
        p1.push(UpdateOp::rename(3u64, "paper"));
        let mut p2 = Pul::new();
        p2.push(UpdateOp::ins_last(3u64, vec![Tree::element("author")]));
        let merged = p1.merge(&p2, Some(&d)).unwrap();
        assert_eq!(merged.len(), 2);

        // incompatible union is rejected
        let mut p3 = Pul::new();
        p3.push(UpdateOp::rename(3u64, "other"));
        assert!(p1.merge(&p3, Some(&d)).is_err());
        assert!(p1.merge(&p3, None).is_err());
    }

    #[test]
    fn merge_all_unions_a_batch_in_one_pass() {
        let d = doc();
        let labeling = Labeling::assign(&d);
        let p1 = Pul::from_ops(vec![UpdateOp::rename(3u64, "paper")], &labeling);
        let p2 = Pul::from_ops(vec![UpdateOp::replace_value(5u64, "X")], &labeling);
        let p3 = Pul::from_ops(vec![UpdateOp::delete(6u64)], &labeling);
        let merged = Pul::merge_all(&[p1.clone(), p2.clone(), p3]).unwrap();
        assert_eq!(merged.len(), 3);
        // ops keep slice order, labels are unioned
        assert_eq!(merged.ops()[0].name(), crate::op::OpName::Rename);
        assert_eq!(merged.ops()[2].name(), crate::op::OpName::Delete);
        assert!(merged.label(NodeId::new(3)).is_some());
        assert!(merged.label(NodeId::new(6)).is_some());
        // an incompatible union is rejected (two renames of the same node)
        let p4 = Pul::from_ops(vec![UpdateOp::rename(3u64, "other")], &labeling);
        assert!(Pul::merge_all(&[p1, p2, p4]).is_err());
        // the empty batch merges into the empty PUL
        assert!(Pul::merge_all(std::iter::empty()).unwrap().is_empty());
    }

    #[test]
    fn split_by_target_preserves_order_and_labels() {
        let d = doc();
        let labeling = Labeling::assign(&d);
        let pul = Pul::from_ops(
            vec![
                UpdateOp::rename(3u64, "paper"),
                UpdateOp::replace_value(5u64, "X"),
                UpdateOp::delete(6u64),
                UpdateOp::ins_last(3u64, vec![Tree::element("author")]),
            ],
            &labeling,
        );
        // even targets to group 0, odd to group 1
        let parts = pul.split_by_target(2, |op| (op.target().as_u64() % 2) as usize);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].targets(), vec![NodeId::new(6)]);
        assert_eq!(parts[1].targets(), vec![NodeId::new(3), NodeId::new(5)]);
        // within-group operation order is the original order
        assert_eq!(parts[1].ops()[0].name(), crate::op::OpName::Rename);
        assert_eq!(parts[1].ops()[2].name(), crate::op::OpName::InsLast);
        // each half carries exactly its own target labels
        assert!(parts[1].label(NodeId::new(3)).is_some());
        assert!(parts[1].label(NodeId::new(6)).is_none());
        assert!(parts[0].label(NodeId::new(6)).is_some());
        // out-of-range routes clamp to the last group
        let clamped = pul.split_by_target(2, |_| 99);
        assert_eq!(clamped[1].len(), 4);
        assert!(clamped[0].is_empty());
    }

    #[test]
    fn display_lists_ops() {
        let mut pul = Pul::new();
        pul.push(UpdateOp::delete(14u64));
        pul.push(UpdateOp::rename(5u64, "title"));
        assert_eq!(pul.to_string(), "{del(14), ren(5, title)}");
    }

    #[test]
    fn from_iterator_collects_ops() {
        let pul: Pul = vec![UpdateOp::delete(1u64), UpdateOp::delete(2u64)].into_iter().collect();
        assert_eq!(pul.len(), 2);
    }
}
