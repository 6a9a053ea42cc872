//! Extended containment labels and the Table 1 predicates.

use std::fmt;

use xdm::{NodeId, NodeKind};

use crate::orderkey::OrderKey;

/// The label attached to a node and shipped inside serialized PULs.
///
/// It is a Zhang containment label (interval `[start, end]` plus `level`)
/// extended, as described in §4.1 of the paper, with the node type, the parent
/// identifier and the identifier of the left sibling, plus first/last-child
/// flags. With this information every predicate of Table 1 can be evaluated in
/// constant time given the labels of the two nodes involved — no document
/// access is ever needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLabel {
    /// Identifier of the labeled node.
    pub id: NodeId,
    /// Start of the containment interval.
    pub start: OrderKey,
    /// End of the containment interval.
    pub end: OrderKey,
    /// Depth of the node (root = 0).
    pub level: u32,
    /// Node type (τ).
    pub kind: NodeKind,
    /// Identifier of the parent node, if any.
    pub parent: Option<NodeId>,
    /// Identifier of the left sibling (among non-attribute children), if any.
    pub left_sibling: Option<NodeId>,
    /// Whether the node is the first non-attribute child of its parent.
    pub is_first_child: bool,
    /// Whether the node is the last non-attribute child of its parent.
    pub is_last_child: bool,
}

impl NodeLabel {
    /// `self ≺ other` — document-order precedence (Table 1, first row).
    ///
    /// With containment labels an ancestor starts before all its descendants,
    /// so comparing interval starts yields document order.
    pub fn precedes(&self, other: &NodeLabel) -> bool {
        self.start < other.start
    }

    /// `self ≺s other` — `self` is the left sibling of `other`.
    pub fn is_left_sibling_of(&self, other: &NodeLabel) -> bool {
        other.left_sibling == Some(self.id)
    }

    /// `self /c other` — `self` is a (non-attribute) child of `other`.
    pub fn is_child_of(&self, other: &NodeLabel) -> bool {
        self.kind != NodeKind::Attribute && self.parent == Some(other.id)
    }

    /// `self /a other` — `self` is an attribute of `other`.
    pub fn is_attribute_of(&self, other: &NodeLabel) -> bool {
        self.kind == NodeKind::Attribute && self.parent == Some(other.id)
    }

    /// `self /←c other` — `self` is the first child of `other`.
    pub fn is_first_child_of(&self, other: &NodeLabel) -> bool {
        self.is_child_of(other) && self.is_first_child
    }

    /// `self /→c other` — `self` is the last child of `other`.
    pub fn is_last_child_of(&self, other: &NodeLabel) -> bool {
        self.is_child_of(other) && self.is_last_child
    }

    /// `self //d other` — `self` is a (strict) descendant of `other`
    /// (attributes count as descendants of their element's ancestors and of the
    /// element itself).
    pub fn is_descendant_of(&self, other: &NodeLabel) -> bool {
        other.start < self.start && self.end < other.end
    }

    /// `self //¬a_d other` — `self` is a descendant of `other` but not one of
    /// its attributes (Table 1, last row; used by reduction rule O4 and by the
    /// non-local overriding conflict for `repC`).
    pub fn is_descendant_not_attr_of(&self, other: &NodeLabel) -> bool {
        self.is_descendant_of(other) && !self.is_attribute_of(other)
    }

    // ------------------------------------------------------------------
    // compact serialization (used by the PUL XML exchange format)
    // ------------------------------------------------------------------

    /// Appends the dash-separated digits of a key to `out` in a single pass
    /// (one shared buffer, no per-digit `String` allocation).
    fn write_key(out: &mut String, k: &OrderKey) {
        use std::fmt::Write;
        for (i, d) in k.digits().iter().enumerate() {
            if i > 0 {
                out.push('-');
            }
            let _ = write!(out, "{d}");
        }
    }

    fn key_from_string(s: &str) -> Option<OrderKey> {
        let digits: Option<Vec<u8>> = s.split('-').map(|p| p.parse().ok()).collect();
        Some(OrderKey::from_digits(digits?))
    }

    /// Serializes the label into the compact form used inside PUL documents.
    pub fn to_compact_string(&self) -> String {
        use std::fmt::Write;
        let flags = match (self.is_first_child, self.is_last_child) {
            (true, true) => "FL",
            (true, false) => "F",
            (false, true) => "L",
            (false, false) => "-",
        };
        let mut out = String::with_capacity(4 * (self.start.len() + self.end.len()) + 24);
        Self::write_key(&mut out, &self.start);
        out.push(';');
        Self::write_key(&mut out, &self.end);
        let _ = write!(out, ";{};{};", self.level, self.kind.code());
        match self.parent {
            Some(p) => {
                let _ = write!(out, "{}", p.as_u64());
            }
            None => out.push('-'),
        }
        out.push(';');
        match self.left_sibling {
            Some(p) => {
                let _ = write!(out, "{}", p.as_u64());
            }
            None => out.push('-'),
        }
        out.push(';');
        out.push_str(flags);
        out
    }

    /// Parses a label from its compact form. `id` is supplied by the caller
    /// (the PUL operation serializes the target identifier separately).
    pub fn parse_compact(id: NodeId, s: &str) -> Option<NodeLabel> {
        let parts: Vec<&str> = s.split(';').collect();
        if parts.len() != 7 {
            return None;
        }
        let start = Self::key_from_string(parts[0])?;
        let end = Self::key_from_string(parts[1])?;
        let level: u32 = parts[2].parse().ok()?;
        let kind = NodeKind::from_code(parts[3].chars().next()?)?;
        let parse_opt = |s: &str| -> Option<Option<NodeId>> {
            if s == "-" {
                Some(None)
            } else {
                s.parse::<u64>().ok().map(|v| Some(NodeId::new(v)))
            }
        };
        let parent = parse_opt(parts[4])?;
        let left_sibling = parse_opt(parts[5])?;
        let (is_first_child, is_last_child) = match parts[6] {
            "FL" => (true, true),
            "F" => (true, false),
            "L" => (false, true),
            "-" => (false, false),
            _ => return None,
        };
        Some(NodeLabel {
            id,
            start,
            end,
            level,
            kind,
            parent,
            left_sibling,
            is_first_child,
            is_last_child,
        })
    }
}

impl fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{} lvl={} {}]", self.start, self.end, self.level, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn label(
        id: u64,
        start: Vec<u8>,
        end: Vec<u8>,
        level: u32,
        kind: NodeKind,
        parent: Option<u64>,
        left: Option<u64>,
        first: bool,
        last: bool,
    ) -> NodeLabel {
        NodeLabel {
            id: NodeId::new(id),
            start: OrderKey::from_digits(start),
            end: OrderKey::from_digits(end),
            level,
            kind,
            parent: parent.map(NodeId::new),
            left_sibling: left.map(NodeId::new),
            is_first_child: first,
            is_last_child: last,
        }
    }

    /// Hand-built labels for:
    /// `<root><a x="1"><b/></a><c/></root>` with ids root=1, a=2, x=3, b=4, c=5.
    fn fixture() -> (NodeLabel, NodeLabel, NodeLabel, NodeLabel, NodeLabel) {
        let root = label(1, vec![10], vec![100], 0, NodeKind::Element, None, None, false, false);
        let a = label(2, vec![20], vec![60], 1, NodeKind::Element, Some(1), None, true, false);
        let x = label(3, vec![25], vec![28], 2, NodeKind::Attribute, Some(2), None, false, false);
        let b = label(4, vec![30], vec![40], 2, NodeKind::Element, Some(2), None, true, true);
        let c = label(5, vec![70], vec![80], 1, NodeKind::Element, Some(1), Some(2), false, true);
        (root, a, x, b, c)
    }

    #[test]
    fn table1_precedes() {
        let (root, a, x, b, c) = fixture();
        assert!(root.precedes(&a));
        assert!(a.precedes(&b));
        assert!(b.precedes(&c));
        assert!(x.precedes(&b));
        assert!(!c.precedes(&a));
        assert!(!a.precedes(&a));
    }

    #[test]
    fn table1_sibling_and_child() {
        let (root, a, x, b, c) = fixture();
        assert!(a.is_left_sibling_of(&c));
        assert!(!c.is_left_sibling_of(&a));
        assert!(a.is_child_of(&root));
        assert!(c.is_child_of(&root));
        assert!(!x.is_child_of(&a), "attributes are not children");
        assert!(x.is_attribute_of(&a));
        assert!(!b.is_attribute_of(&a));
    }

    #[test]
    fn table1_first_last_child() {
        let (root, a, _x, b, c) = fixture();
        assert!(a.is_first_child_of(&root));
        assert!(!a.is_last_child_of(&root));
        assert!(c.is_last_child_of(&root));
        assert!(b.is_first_child_of(&a) && b.is_last_child_of(&a));
    }

    #[test]
    fn table1_descendant() {
        let (root, a, x, b, c) = fixture();
        assert!(a.is_descendant_of(&root));
        assert!(b.is_descendant_of(&root));
        assert!(b.is_descendant_of(&a));
        assert!(x.is_descendant_of(&a));
        assert!(x.is_descendant_of(&root));
        assert!(!c.is_descendant_of(&a));
        assert!(!root.is_descendant_of(&a));
        // ¬a variant: an attribute is a descendant of its element but excluded
        assert!(!x.is_descendant_not_attr_of(&a));
        assert!(x.is_descendant_not_attr_of(&root));
        assert!(b.is_descendant_not_attr_of(&a));
    }

    #[test]
    fn compact_roundtrip() {
        let (_, a, x, _, c) = fixture();
        for l in [&a, &x, &c] {
            let s = l.to_compact_string();
            let back = NodeLabel::parse_compact(l.id, &s).unwrap();
            assert_eq!(&back, l, "roundtrip of {s}");
        }
    }

    #[test]
    fn compact_roundtrip_with_multi_byte_keys() {
        // Keys of several digits (as produced by repeated `OrderKey::between`
        // insertions) must serialize digit-by-digit and parse back exactly.
        let l = label(
            7,
            vec![1, 255, 3, 77, 128],
            vec![1, 255, 3, 77, 129, 42],
            9,
            NodeKind::Attribute,
            Some(3),
            Some(2),
            false,
            true,
        );
        let s = l.to_compact_string();
        assert!(s.starts_with("1-255-3-77-128;1-255-3-77-129-42;9;a;3;2;L"), "{s}");
        let back = NodeLabel::parse_compact(l.id, &s).unwrap();
        assert_eq!(back, l);
        // and a deep chain of between-keys survives the round trip
        let mut lo = OrderKey::from_digits(vec![100]);
        let hi = OrderKey::from_digits(vec![100, 1]);
        for _ in 0..64 {
            lo = OrderKey::between(&lo, &hi);
        }
        let deep = label(8, vec![1], vec![2], 0, NodeKind::Element, None, None, false, false);
        let deep = NodeLabel { start: lo.clone(), end: hi.clone(), ..deep };
        let back = NodeLabel::parse_compact(deep.id, &deep.to_compact_string()).unwrap();
        assert_eq!(back.start, lo);
        assert_eq!(back.end, hi);
    }

    #[test]
    fn parse_compact_rejects_garbage() {
        assert!(NodeLabel::parse_compact(NodeId::new(1), "not a label").is_none());
        assert!(NodeLabel::parse_compact(NodeId::new(1), "1;2;3;e;-;-").is_none());
        assert!(NodeLabel::parse_compact(NodeId::new(1), "1;2;x;e;-;-;F").is_none());
        assert!(NodeLabel::parse_compact(NodeId::new(1), "1;2;3;q;-;-;F").is_none());
    }

    #[test]
    fn display_mentions_level_and_kind() {
        let (root, ..) = fixture();
        let s = root.to_string();
        assert!(s.contains("lvl=0"));
        assert!(s.contains('e'));
    }
}
