//! The update primitives of Table 2.
//!
//! Each operation has a *target* node `t(op)`, a *name* `o(op)` ([`OpName`]),
//! a *class* `c(op)` ([`OpClass`]) and — except for `del` — a second parameter
//! `p(op)` (a list of trees, a value or a name). Applicability conditions
//! follow Table 2 and Definition 1.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use xdm::{Document, NodeId, NodeKind, Tree};

use crate::error::PulError;
use crate::Result;

/// `o(op)` — the name of an update primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpName {
    /// `ins←` — insert trees before the target.
    InsBefore,
    /// `ins→` — insert trees after the target.
    InsAfter,
    /// `ins↙` — insert trees as first children of the target.
    InsFirst,
    /// `ins↘` — insert trees as last children of the target.
    InsLast,
    /// `ins↓` — insert trees as children of the target, in an
    /// implementation-defined position (the source of non-determinism).
    InsInto,
    /// `insA` — insert trees as attributes of the target.
    InsAttributes,
    /// `del` — delete the target.
    Delete,
    /// `repN` — replace the target with trees (possibly none).
    ReplaceNode,
    /// `repV` — replace the value of the target.
    ReplaceValue,
    /// `repC` — replace the children of the target with a text node or nothing.
    ReplaceContent,
    /// `ren` — rename the target.
    Rename,
}

impl OpName {
    /// All operation names, in a fixed order.
    pub const ALL: [OpName; 11] = [
        OpName::InsBefore,
        OpName::InsAfter,
        OpName::InsFirst,
        OpName::InsLast,
        OpName::InsInto,
        OpName::InsAttributes,
        OpName::Delete,
        OpName::ReplaceNode,
        OpName::ReplaceValue,
        OpName::ReplaceContent,
        OpName::Rename,
    ];

    /// ASCII identifier used by the PUL exchange format.
    pub fn code(self) -> &'static str {
        match self {
            OpName::InsBefore => "insBefore",
            OpName::InsAfter => "insAfter",
            OpName::InsFirst => "insFirst",
            OpName::InsLast => "insLast",
            OpName::InsInto => "insInto",
            OpName::InsAttributes => "insAttributes",
            OpName::Delete => "delete",
            OpName::ReplaceNode => "replaceNode",
            OpName::ReplaceValue => "replaceValue",
            OpName::ReplaceContent => "replaceContent",
            OpName::Rename => "rename",
        }
    }

    /// Parses the ASCII identifier back.
    pub fn from_code(code: &str) -> Option<Self> {
        OpName::ALL.into_iter().find(|n| n.code() == code)
    }

    /// The notation used by the paper (e.g. `ins→`, `repN`).
    pub fn paper_notation(self) -> &'static str {
        match self {
            OpName::InsBefore => "ins←",
            OpName::InsAfter => "ins→",
            OpName::InsFirst => "ins↙",
            OpName::InsLast => "ins↘",
            OpName::InsInto => "ins↓",
            OpName::InsAttributes => "insA",
            OpName::Delete => "del",
            OpName::ReplaceNode => "repN",
            OpName::ReplaceValue => "repV",
            OpName::ReplaceContent => "repC",
            OpName::Rename => "ren",
        }
    }

    /// `c(op)` — the class of the operation.
    pub fn class(self) -> OpClass {
        match self {
            OpName::InsBefore
            | OpName::InsAfter
            | OpName::InsFirst
            | OpName::InsLast
            | OpName::InsInto
            | OpName::InsAttributes => OpClass::Insertion,
            OpName::Delete => OpClass::Deletion,
            OpName::ReplaceNode
            | OpName::ReplaceValue
            | OpName::ReplaceContent
            | OpName::Rename => OpClass::Replacement,
        }
    }

    /// The stage (1–5) in which the operation is applied by `applyUpdates`
    /// (§2.2): (1) `ins↓, insA, repV, ren`; (2) `ins←, ins→, ins↙, ins↘`;
    /// (3) `repN`; (4) `repC`; (5) `del`.
    pub fn stage(self) -> u8 {
        match self {
            OpName::InsInto | OpName::InsAttributes | OpName::ReplaceValue | OpName::Rename => 1,
            OpName::InsBefore | OpName::InsAfter | OpName::InsFirst | OpName::InsLast => 2,
            OpName::ReplaceNode => 3,
            OpName::ReplaceContent => 4,
            OpName::Delete => 5,
        }
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_notation())
    }
}

/// `c(op)` — the class of an operation: insertion (`i`), deletion (`d`) or
/// replacement (`r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Insertions (all `ins` variants).
    Insertion,
    /// Deletion (`del`).
    Deletion,
    /// Replacements (`repN`, `repV`, `repC`, `ren`).
    Replacement,
}

impl OpClass {
    /// Single-letter code of the class as used by the paper.
    pub fn code(self) -> char {
        match self {
            OpClass::Insertion => 'i',
            OpClass::Deletion => 'd',
            OpClass::Replacement => 'r',
        }
    }
}

/// An update primitive of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `ins←(v, P)` — insert the trees in `P` before node `v`.
    InsBefore {
        /// Target node `v`.
        target: NodeId,
        /// Trees to insert.
        content: Vec<Tree>,
    },
    /// `ins→(v, P)` — insert the trees in `P` after node `v`.
    InsAfter {
        /// Target node `v`.
        target: NodeId,
        /// Trees to insert.
        content: Vec<Tree>,
    },
    /// `ins↙(v, P)` — insert the trees in `P` as first children of `v`.
    InsFirst {
        /// Target node `v`.
        target: NodeId,
        /// Trees to insert.
        content: Vec<Tree>,
    },
    /// `ins↘(v, P)` — insert the trees in `P` as last children of `v`.
    InsLast {
        /// Target node `v`.
        target: NodeId,
        /// Trees to insert.
        content: Vec<Tree>,
    },
    /// `ins↓(v, P)` — insert the trees in `P` as children of `v`, in an
    /// implementation-defined position.
    InsInto {
        /// Target node `v`.
        target: NodeId,
        /// Trees to insert.
        content: Vec<Tree>,
    },
    /// `insA(v, P)` — insert the trees in `P` as attributes of `v`.
    InsAttributes {
        /// Target node `v`.
        target: NodeId,
        /// Attribute trees to insert.
        content: Vec<Tree>,
    },
    /// `del(v)` — delete node `v`.
    Delete {
        /// Target node `v`.
        target: NodeId,
    },
    /// `repN(v, P)` — replace node `v` with the trees in `P` (possibly none).
    ReplaceNode {
        /// Target node `v`.
        target: NodeId,
        /// Replacement trees (empty list allowed).
        content: Vec<Tree>,
    },
    /// `repV(v, s)` — replace the value of node `v` with `s`.
    ReplaceValue {
        /// Target node `v`.
        target: NodeId,
        /// New value.
        value: String,
    },
    /// `repC(v, t)` — replace the children of node `v` with text `t` or nothing.
    ReplaceContent {
        /// Target node `v`.
        target: NodeId,
        /// New textual content (`None` empties the element).
        text: Option<String>,
    },
    /// `ren(v, l)` — rename node `v` to `l`.
    Rename {
        /// Target node `v`.
        target: NodeId,
        /// New name.
        name: String,
    },
}

impl UpdateOp {
    // ------------------------------------------------------------------
    // constructors
    // ------------------------------------------------------------------

    /// Builds an `ins←` operation.
    pub fn ins_before(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsBefore { target: target.into(), content }
    }

    /// Builds an `ins→` operation.
    pub fn ins_after(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsAfter { target: target.into(), content }
    }

    /// Builds an `ins↙` operation.
    pub fn ins_first(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsFirst { target: target.into(), content }
    }

    /// Builds an `ins↘` operation.
    pub fn ins_last(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsLast { target: target.into(), content }
    }

    /// Builds an `ins↓` operation.
    pub fn ins_into(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsInto { target: target.into(), content }
    }

    /// Builds an `insA` operation.
    pub fn ins_attributes(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::InsAttributes { target: target.into(), content }
    }

    /// Builds a `del` operation.
    pub fn delete(target: impl Into<NodeId>) -> Self {
        UpdateOp::Delete { target: target.into() }
    }

    /// Builds a `repN` operation.
    pub fn replace_node(target: impl Into<NodeId>, content: Vec<Tree>) -> Self {
        UpdateOp::ReplaceNode { target: target.into(), content }
    }

    /// Builds a `repV` operation.
    pub fn replace_value(target: impl Into<NodeId>, value: impl Into<String>) -> Self {
        UpdateOp::ReplaceValue { target: target.into(), value: value.into() }
    }

    /// Builds a `repC` operation.
    pub fn replace_content(target: impl Into<NodeId>, text: Option<String>) -> Self {
        UpdateOp::ReplaceContent { target: target.into(), text }
    }

    /// Builds a `ren` operation.
    pub fn rename(target: impl Into<NodeId>, name: impl Into<String>) -> Self {
        UpdateOp::Rename { target: target.into(), name: name.into() }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// `t(op)` — the target of the operation.
    pub fn target(&self) -> NodeId {
        match self {
            UpdateOp::InsBefore { target, .. }
            | UpdateOp::InsAfter { target, .. }
            | UpdateOp::InsFirst { target, .. }
            | UpdateOp::InsLast { target, .. }
            | UpdateOp::InsInto { target, .. }
            | UpdateOp::InsAttributes { target, .. }
            | UpdateOp::Delete { target }
            | UpdateOp::ReplaceNode { target, .. }
            | UpdateOp::ReplaceValue { target, .. }
            | UpdateOp::ReplaceContent { target, .. }
            | UpdateOp::Rename { target, .. } => *target,
        }
    }

    /// `o(op)` — the name of the operation.
    pub fn name(&self) -> OpName {
        match self {
            UpdateOp::InsBefore { .. } => OpName::InsBefore,
            UpdateOp::InsAfter { .. } => OpName::InsAfter,
            UpdateOp::InsFirst { .. } => OpName::InsFirst,
            UpdateOp::InsLast { .. } => OpName::InsLast,
            UpdateOp::InsInto { .. } => OpName::InsInto,
            UpdateOp::InsAttributes { .. } => OpName::InsAttributes,
            UpdateOp::Delete { .. } => OpName::Delete,
            UpdateOp::ReplaceNode { .. } => OpName::ReplaceNode,
            UpdateOp::ReplaceValue { .. } => OpName::ReplaceValue,
            UpdateOp::ReplaceContent { .. } => OpName::ReplaceContent,
            UpdateOp::Rename { .. } => OpName::Rename,
        }
    }

    /// `c(op)` — the class of the operation.
    pub fn class(&self) -> OpClass {
        self.name().class()
    }

    /// The application stage (1–5) of the operation.
    pub fn stage(&self) -> u8 {
        self.name().stage()
    }

    /// The tree-list parameter of the operation, when it has one.
    pub fn content(&self) -> Option<&[Tree]> {
        match self {
            UpdateOp::InsBefore { content, .. }
            | UpdateOp::InsAfter { content, .. }
            | UpdateOp::InsFirst { content, .. }
            | UpdateOp::InsLast { content, .. }
            | UpdateOp::InsInto { content, .. }
            | UpdateOp::InsAttributes { content, .. }
            | UpdateOp::ReplaceNode { content, .. } => Some(content),
            _ => None,
        }
    }

    /// Mutable access to the tree-list parameter.
    pub fn content_mut(&mut self) -> Option<&mut Vec<Tree>> {
        match self {
            UpdateOp::InsBefore { content, .. }
            | UpdateOp::InsAfter { content, .. }
            | UpdateOp::InsFirst { content, .. }
            | UpdateOp::InsLast { content, .. }
            | UpdateOp::InsInto { content, .. }
            | UpdateOp::InsAttributes { content, .. }
            | UpdateOp::ReplaceNode { content, .. } => Some(content),
            _ => None,
        }
    }

    /// A textual serialization of `p(op)` used for the lexicographic ordering
    /// `<lex` of the canonical form (Def. 9). `del` has no parameter and
    /// serializes to the empty string. Scalar parameters are borrowed; only
    /// tree lists are serialized into a fresh string.
    pub fn param_sort_key(&self) -> Cow<'_, str> {
        match self {
            UpdateOp::Delete { .. } => Cow::Borrowed(""),
            UpdateOp::ReplaceValue { value, .. } => Cow::Borrowed(value),
            UpdateOp::Rename { name, .. } => Cow::Borrowed(name),
            UpdateOp::ReplaceContent { text, .. } => Cow::Borrowed(text.as_deref().unwrap_or("")),
            _ => Cow::Owned(
                self.content()
                    .map(|trees| {
                        trees.iter().map(|t| t.to_string()).collect::<Vec<_>>().join("\u{1}")
                    })
                    .unwrap_or_default(),
            ),
        }
    }

    /// The part of the canonical application order that needs no parameter:
    /// stage, then target, then operation code.
    pub fn canonical_prefix_cmp(&self, other: &UpdateOp) -> Ordering {
        (self.stage(), self.target(), self.name().code()).cmp(&(
            other.stage(),
            other.target(),
            other.name().code(),
        ))
    }

    /// The canonical application order shared by the in-memory, streaming and
    /// obtainable-set evaluators:
    /// [`canonical_prefix_cmp`](UpdateOp::canonical_prefix_cmp), then — only
    /// on a tie — the parameter key, so sorting a PUL serializes no content
    /// tree unless two operations of one kind hit the same target.
    pub fn canonical_cmp(&self, other: &UpdateOp) -> Ordering {
        self.canonical_prefix_cmp(other)
            .then_with(|| self.param_sort_key().cmp(&other.param_sort_key()))
    }

    /// Whether the operation belongs to the set of insertions that add
    /// *children* to their target (`ins↙`, `ins↘`, `ins↓`).
    pub fn inserts_children(&self) -> bool {
        matches!(self.name(), OpName::InsFirst | OpName::InsLast | OpName::InsInto)
    }

    // ------------------------------------------------------------------
    // compatibility and applicability
    // ------------------------------------------------------------------

    /// Operation compatibility (Def. 3): two operations are compatible unless
    /// they have the same target, the same name and are replacements.
    pub fn is_compatible_with(&self, other: &UpdateOp) -> bool {
        !(self.target() == other.target()
            && self.name() == other.name()
            && self.class() == OpClass::Replacement)
    }

    fn err(&self, reason: impl Into<String>) -> PulError {
        PulError::NotApplicable { target: self.target(), reason: reason.into() }
    }

    /// Checks the applicability conditions of Table 2 against a document
    /// (Def. 1): the target must belong to the document and the side
    /// conditions on node kinds must hold.
    pub fn check_applicable(&self, doc: &Document) -> Result<()> {
        let target = self.target();
        if !doc.contains(target) {
            return Err(self.err("target node does not belong to the document"));
        }
        let tkind = doc.kind(target)?;
        let roots_not_attribute = |content: &[Tree]| -> Result<()> {
            if content.iter().any(|t| t.root_kind() == NodeKind::Attribute) {
                Err(self.err("inserted tree roots must not be attribute nodes"))
            } else {
                Ok(())
            }
        };
        match self {
            UpdateOp::InsBefore { content, .. } | UpdateOp::InsAfter { content, .. } => {
                if tkind == NodeKind::Attribute {
                    return Err(self.err("target of a sibling insertion cannot be an attribute"));
                }
                if doc.parent(target)?.is_none() {
                    return Err(self.err("target of a sibling insertion must have a parent"));
                }
                if content.is_empty() {
                    return Err(self.err("insertion requires at least one tree"));
                }
                roots_not_attribute(content)
            }
            UpdateOp::InsFirst { content, .. }
            | UpdateOp::InsLast { content, .. }
            | UpdateOp::InsInto { content, .. } => {
                if tkind != NodeKind::Element {
                    return Err(self.err("target of a child insertion must be an element"));
                }
                if content.is_empty() {
                    return Err(self.err("insertion requires at least one tree"));
                }
                roots_not_attribute(content)
            }
            UpdateOp::InsAttributes { content, .. } => {
                if tkind != NodeKind::Element {
                    return Err(self.err("target of an attribute insertion must be an element"));
                }
                if content.is_empty() {
                    return Err(self.err("insertion requires at least one tree"));
                }
                if content.iter().any(|t| t.root_kind() != NodeKind::Attribute) {
                    return Err(self.err("insA requires attribute trees"));
                }
                Ok(())
            }
            UpdateOp::Delete { .. } => Ok(()),
            UpdateOp::ReplaceNode { content, .. } => {
                if doc.parent(target)?.is_none() {
                    return Err(self.err("the replaced node must have a parent"));
                }
                for t in content {
                    let rk = t.root_kind();
                    let ok = (rk == NodeKind::Attribute && tkind == NodeKind::Attribute)
                        || (rk != NodeKind::Attribute && tkind != NodeKind::Attribute);
                    if !ok {
                        return Err(self.err(
                            "replacement trees must be attributes iff the replaced node is an attribute",
                        ));
                    }
                }
                Ok(())
            }
            UpdateOp::ReplaceValue { .. } => {
                if matches!(tkind, NodeKind::Text | NodeKind::Attribute) {
                    Ok(())
                } else {
                    Err(self.err("repV applies to text and attribute nodes only"))
                }
            }
            UpdateOp::ReplaceContent { .. } => {
                if tkind == NodeKind::Element {
                    Ok(())
                } else {
                    Err(self.err("repC applies to element nodes only"))
                }
            }
            UpdateOp::Rename { name, .. } => {
                if name.is_empty() {
                    return Err(self.err("the new name must not be empty"));
                }
                if matches!(tkind, NodeKind::Element | NodeKind::Attribute) {
                    Ok(())
                } else {
                    Err(self.err("ren applies to element and attribute nodes only"))
                }
            }
        }
    }
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name().paper_notation();
        let target = self.target();
        match self {
            UpdateOp::Delete { .. } => write!(f, "{name}({target})"),
            UpdateOp::ReplaceValue { value, .. } => write!(f, "{name}({target}, '{value}')"),
            UpdateOp::Rename { name: n, .. } => write!(f, "{name}({target}, {n})"),
            UpdateOp::ReplaceContent { text, .. } => match text {
                Some(t) => write!(f, "{name}({target}, '{t}')"),
                None => write!(f, "{name}({target}, [])"),
            },
            _ => {
                let trees = self
                    .content()
                    .map(|c| c.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", "))
                    .unwrap_or_default();
                write!(f, "{name}({target}, {trees})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::parser::parse_document;

    fn doc() -> Document {
        // ids: issue=1, volume=2, article=3, title=4, "T"=5, article=6
        parse_document("<issue volume=\"30\"><article><title>T</title></article><article/></issue>")
            .unwrap()
    }

    #[test]
    fn accessors_and_metadata() {
        let op = UpdateOp::ins_after(3u64, vec![Tree::element("x")]);
        assert_eq!(op.target(), NodeId::new(3));
        assert_eq!(op.name(), OpName::InsAfter);
        assert_eq!(op.class(), OpClass::Insertion);
        assert_eq!(op.stage(), 2);
        assert!(!op.inserts_children());
        assert_eq!(op.content().unwrap().len(), 1);

        let op = UpdateOp::delete(4u64);
        assert_eq!(op.class(), OpClass::Deletion);
        assert_eq!(op.stage(), 5);
        assert!(op.content().is_none());
        assert_eq!(op.param_sort_key(), "");

        let op = UpdateOp::rename(1u64, "dblp");
        assert_eq!(op.class(), OpClass::Replacement);
        assert_eq!(op.stage(), 1);
        assert_eq!(op.param_sort_key(), "dblp");
    }

    #[test]
    fn op_name_codes_roundtrip() {
        for n in OpName::ALL {
            assert_eq!(OpName::from_code(n.code()), Some(n));
        }
        assert_eq!(OpName::from_code("bogus"), None);
    }

    #[test]
    fn stages_match_the_paper() {
        assert_eq!(OpName::InsInto.stage(), 1);
        assert_eq!(OpName::InsAttributes.stage(), 1);
        assert_eq!(OpName::ReplaceValue.stage(), 1);
        assert_eq!(OpName::Rename.stage(), 1);
        assert_eq!(OpName::InsBefore.stage(), 2);
        assert_eq!(OpName::InsAfter.stage(), 2);
        assert_eq!(OpName::InsFirst.stage(), 2);
        assert_eq!(OpName::InsLast.stage(), 2);
        assert_eq!(OpName::ReplaceNode.stage(), 3);
        assert_eq!(OpName::ReplaceContent.stage(), 4);
        assert_eq!(OpName::Delete.stage(), 5);
    }

    #[test]
    fn compatibility_example_2() {
        // Example 2 of the paper: op1 = ren(1, dblp), op2 = ren(1, myDblp),
        // op3 = repC(1, 'nopapers'): op1/op3 compatible, op2/op3 compatible,
        // op1/op2 incompatible.
        let op1 = UpdateOp::rename(1u64, "dblp");
        let op2 = UpdateOp::rename(1u64, "myDblp");
        let op3 = UpdateOp::replace_content(1u64, Some("nopapers".into()));
        assert!(op1.is_compatible_with(&op3));
        assert!(op2.is_compatible_with(&op3));
        assert!(!op1.is_compatible_with(&op2));
        assert!(!op2.is_compatible_with(&op1));
    }

    #[test]
    fn insertions_with_same_target_are_compatible() {
        let op1 = UpdateOp::ins_last(4u64, vec![Tree::element("a")]);
        let op2 = UpdateOp::ins_last(4u64, vec![Tree::element("b")]);
        assert!(op1.is_compatible_with(&op2));
        let d1 = UpdateOp::delete(4u64);
        let d2 = UpdateOp::delete(4u64);
        assert!(d1.is_compatible_with(&d2), "two deletions are compatible");
    }

    #[test]
    fn table2_applicability_insert_siblings() {
        let d = doc();
        // ok on an element with a parent
        assert!(UpdateOp::ins_after(3u64, vec![Tree::element("x")]).check_applicable(&d).is_ok());
        // not on attributes
        assert!(UpdateOp::ins_after(2u64, vec![Tree::element("x")]).check_applicable(&d).is_err());
        // not on the root (no parent)
        assert!(UpdateOp::ins_before(1u64, vec![Tree::element("x")]).check_applicable(&d).is_err());
        // attribute content rejected
        assert!(UpdateOp::ins_after(3u64, vec![Tree::attribute("k", "v")])
            .check_applicable(&d)
            .is_err());
        // empty content rejected
        assert!(UpdateOp::ins_after(3u64, vec![]).check_applicable(&d).is_err());
        // missing target
        assert!(UpdateOp::ins_after(99u64, vec![Tree::element("x")]).check_applicable(&d).is_err());
    }

    #[test]
    fn table2_applicability_insert_children_and_attributes() {
        let d = doc();
        assert!(UpdateOp::ins_first(3u64, vec![Tree::element("x")]).check_applicable(&d).is_ok());
        assert!(UpdateOp::ins_last(3u64, vec![Tree::element("x")]).check_applicable(&d).is_ok());
        assert!(UpdateOp::ins_into(3u64, vec![Tree::element("x")]).check_applicable(&d).is_ok());
        // children insertions require an element target
        assert!(UpdateOp::ins_first(5u64, vec![Tree::element("x")]).check_applicable(&d).is_err());
        assert!(UpdateOp::ins_last(2u64, vec![Tree::element("x")]).check_applicable(&d).is_err());
        // insA requires attribute trees and an element target
        assert!(UpdateOp::ins_attributes(3u64, vec![Tree::attribute("k", "v")])
            .check_applicable(&d)
            .is_ok());
        assert!(UpdateOp::ins_attributes(3u64, vec![Tree::element("x")])
            .check_applicable(&d)
            .is_err());
        assert!(UpdateOp::ins_attributes(5u64, vec![Tree::attribute("k", "v")])
            .check_applicable(&d)
            .is_err());
    }

    #[test]
    fn table2_applicability_replace_and_rename() {
        let d = doc();
        // repN of an element with element trees
        assert!(UpdateOp::replace_node(4u64, vec![Tree::element("x")])
            .check_applicable(&d)
            .is_ok());
        // repN of an element with an attribute tree is rejected
        assert!(UpdateOp::replace_node(4u64, vec![Tree::attribute("k", "v")])
            .check_applicable(&d)
            .is_err());
        // repN of an attribute with an attribute tree is fine
        assert!(UpdateOp::replace_node(2u64, vec![Tree::attribute("k", "v")])
            .check_applicable(&d)
            .is_ok());
        // repN with an empty list is allowed (it is equivalent to del)
        assert!(UpdateOp::replace_node(4u64, vec![]).check_applicable(&d).is_ok());
        // repN of the root is rejected (no parent)
        assert!(UpdateOp::replace_node(1u64, vec![Tree::element("x")])
            .check_applicable(&d)
            .is_err());
        // repV on text and attributes only
        assert!(UpdateOp::replace_value(5u64, "X").check_applicable(&d).is_ok());
        assert!(UpdateOp::replace_value(2u64, "31").check_applicable(&d).is_ok());
        assert!(UpdateOp::replace_value(3u64, "X").check_applicable(&d).is_err());
        // repC on elements only
        assert!(UpdateOp::replace_content(3u64, Some("x".into())).check_applicable(&d).is_ok());
        assert!(UpdateOp::replace_content(3u64, None).check_applicable(&d).is_ok());
        assert!(UpdateOp::replace_content(5u64, Some("x".into())).check_applicable(&d).is_err());
        // ren on elements and attributes only, with a non-empty name
        assert!(UpdateOp::rename(3u64, "paper").check_applicable(&d).is_ok());
        assert!(UpdateOp::rename(2u64, "vol").check_applicable(&d).is_ok());
        assert!(UpdateOp::rename(5u64, "x").check_applicable(&d).is_err());
        assert!(UpdateOp::rename(3u64, "").check_applicable(&d).is_err());
        // del always applicable on existing nodes
        assert!(UpdateOp::delete(5u64).check_applicable(&d).is_ok());
        assert!(UpdateOp::delete(99u64).check_applicable(&d).is_err());
    }

    #[test]
    fn display_uses_paper_notation() {
        let op = UpdateOp::ins_after(7u64, vec![Tree::element_with_text("author", "G G")]);
        assert_eq!(op.to_string(), "ins→(7, <author>G G</author>)");
        assert_eq!(UpdateOp::delete(14u64).to_string(), "del(14)");
        assert_eq!(UpdateOp::rename(5u64, "title").to_string(), "ren(5, title)");
        assert_eq!(UpdateOp::replace_value(15u64, "R").to_string(), "repV(15, 'R')");
        assert_eq!(UpdateOp::replace_content(1u64, None).to_string(), "repC(1, [])");
    }

    /// The comparator the evaluators used before [`UpdateOp::canonical_cmp`]:
    /// a four-field tuple whose last field serializes the parameter of both
    /// sides on every comparison. Kept as the oracle of the order.
    fn tuple_order_oracle(a: &UpdateOp, b: &UpdateOp) -> Ordering {
        (a.stage(), a.target(), a.name().code(), a.param_sort_key().into_owned()).cmp(&(
            b.stage(),
            b.target(),
            b.name().code(),
            b.param_sort_key().into_owned(),
        ))
    }

    #[test]
    fn canonical_cmp_sorts_like_the_tuple_oracle() {
        // Few targets and few parameter spellings: most operations tie on
        // (stage, target, name) with some other operation and many tie on
        // everything, so the parameter tie-break and stability both matter.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let words = ["", "a", "b", "ab", "a<b", "zz"];
        for _ in 0..200 {
            let ops: Vec<UpdateOp> = (0..40)
                .map(|_| {
                    let target = 1 + next(4);
                    let word = words[next(words.len() as u64) as usize];
                    let trees = || -> Vec<Tree> {
                        let mut trees = vec![Tree::element_with_text("p", word)];
                        if word.len() == 2 {
                            trees.push(Tree::element(word));
                        }
                        trees
                    };
                    match next(11) {
                        0 => UpdateOp::ins_before(target, trees()),
                        1 => UpdateOp::ins_after(target, trees()),
                        2 => UpdateOp::ins_first(target, trees()),
                        3 => UpdateOp::ins_last(target, trees()),
                        4 => UpdateOp::ins_into(target, trees()),
                        5 => UpdateOp::ins_attributes(target, vec![Tree::attribute("k", word)]),
                        6 => UpdateOp::delete(target),
                        7 => UpdateOp::replace_node(target, trees()),
                        8 => UpdateOp::replace_value(target, word),
                        9 => UpdateOp::replace_content(target, (word != "zz").then(|| word.into())),
                        _ => UpdateOp::rename(target, word),
                    }
                })
                .collect();
            let mut expected: Vec<(usize, &UpdateOp)> = ops.iter().enumerate().collect();
            let mut actual = expected.clone();
            expected.sort_by(|(_, a), (_, b)| tuple_order_oracle(a, b));
            actual.sort_by(|(_, a), (_, b)| a.canonical_cmp(b));
            let indices = |v: &[(usize, &UpdateOp)]| v.iter().map(|(i, _)| *i).collect::<Vec<_>>();
            assert_eq!(indices(&actual), indices(&expected));
            for (a, b) in ops.iter().zip(ops.iter().skip(1)) {
                assert_eq!(a.canonical_cmp(b), tuple_order_oracle(a, b));
            }
        }
    }

    #[test]
    fn param_sort_key_orders_lexicographically() {
        let a = UpdateOp::ins_after(7u64, vec![Tree::element_with_text("a", "A C")]);
        let b = UpdateOp::ins_after(7u64, vec![Tree::element_with_text("a", "G G")]);
        assert!(a.param_sort_key() < b.param_sort_key());
    }
}
