//! Binary node streams: the compact encoding the durable store writes for
//! documents and parameter trees (checkpoint images, WAL payloads).
//!
//! The XML serializations of [`crate::writer`] stay the exchange format
//! between producers and executors. This encoding is private to the store:
//! no escaping, no reserved identifier attributes, no decimal identifiers,
//! and nothing to parse but lengths.
//!
//! A tree is its [`Extent`] (node count and identifier range, so the decoder
//! sizes the arena once), then its nodes in preorder (owner, its attributes,
//! then its children), one record per node:
//!
//! ```text
//!  field  encoding  present for
//!  nodes  varint    the tree: number of node records
//!  first  varint    the tree: lowest identifier
//!  span   varint    the tree: highest identifier minus the lowest
//!  tag    u8        every node: b'e' element, b'a' attribute, b't' text
//!  id     varint    every node
//!  name   bytes     elements and attributes
//!  value  bytes     attributes and texts
//!  attrs  varint    elements: attribute records that follow
//!  kids   varint    elements: child subtrees after those
//!  extra  -         whatever the caller of encode_tree_with appends
//! ```
//!
//! `varint` is unsigned LEB128; `bytes` is a varint length followed by that
//! many bytes of UTF-8. [`decode_tree_with`] rebuilds the tree on an explicit
//! stack (depth costs heap, never call stack) and only through the validated
//! [`Document`] constructors, so a hostile stream yields a [`DecodeError`],
//! never a panic or an arena that breaks the document invariants. Counts are
//! untrusted: each is checked against the bytes left before it sizes
//! anything, and the extent must match the records that follow.

use std::fmt;

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

/// A corrupt or truncated binary encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset in the decoded input where the problem was found.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt binary encoding at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias of the decoders.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a varint length followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A cursor over an encoded input. Every read is bounds-checked and fails
/// with a [`DecodeError`] naming its offset.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The current offset.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError { offset: self.at, message: message.into() }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.error(format!("{n} bytes announced, {} left", self.remaining())));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// A presence byte: 0 or 1.
    pub fn flag(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format!("presence byte {other:#04x} is neither 0 nor 1"))),
        }
    }

    /// An unsigned LEB128 varint of at most 64 bits.
    pub fn varint(&mut self) -> DecodeResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.error("varint overflows 64 bits"))
    }

    /// A varint length followed by that many bytes.
    pub fn bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| self.error("length overflows usize"))?;
        self.take(len)
    }

    /// A varint length followed by that many bytes of UTF-8.
    pub fn str(&mut self) -> DecodeResult<&'a str> {
        let at = self.at;
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| DecodeError { offset: at, message: "string is not UTF-8".into() })
    }

    /// Fails unless every byte was consumed.
    pub fn finish(&self) -> DecodeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing bytes"))),
        }
    }
}

/// Where a decoded node sits in its tree, derived from its position in the
/// stream: the tree-shaped half of a node label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The node.
    pub id: NodeId,
    /// Its kind.
    pub kind: NodeKind,
    /// Its parent (the owner element, for attributes); `None` for the root.
    pub parent: Option<NodeId>,
    /// Its depth (the root has depth 0, attributes sit one below their
    /// owner).
    pub depth: u32,
    /// Its left sibling among the parent's children (never for attributes).
    pub left_sibling: Option<NodeId>,
    /// Whether it is its parent's first child (never for attributes).
    pub is_first_child: bool,
    /// Whether it is its parent's last child (never for attributes).
    pub is_last_child: bool,
}

/// What [`decode_tree_with`] reports to its caller, in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A node was just created and attached; the reader stands right after
    /// its record, where the caller's per-node bytes start.
    Open(Placement),
    /// The subtree of this node (its attributes and children) is complete.
    Close(NodeId),
}

/// The head of a node stream: how many records follow and the range their
/// identifiers lie in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Number of node records.
    pub nodes: usize,
    /// The lowest identifier.
    pub first: NodeId,
    /// The highest identifier.
    pub last: NodeId,
}

impl Extent {
    /// Reads and checks an extent: at least one node, no more than the rest
    /// of the input can hold, and a range wide enough for distinct
    /// identifiers.
    pub fn read(r: &mut Reader<'_>) -> DecodeResult<Extent> {
        let at = r.offset();
        let (nodes, first, span) = (r.varint()?, r.varint()?, r.varint()?);
        let bad = |message: String| DecodeError { offset: at, message };
        // Every record takes at least three bytes.
        if nodes == 0 || nodes > (r.remaining() / 3) as u64 {
            return Err(bad(format!("{nodes} nodes announced with {} bytes left", r.remaining())));
        }
        let last =
            first.checked_add(span).ok_or_else(|| bad("identifier range overflows".into()))?;
        if nodes - 1 > span {
            return Err(bad(format!("{nodes} distinct identifiers in a range of {}", span + 1)));
        }
        Ok(Extent { nodes: nodes as usize, first: NodeId::new(first), last: NodeId::new(last) })
    }

    fn contains(&self, id: NodeId) -> bool {
        self.first <= id && id <= self.last
    }
}

/// Appends the node stream of the subtree rooted at `root`.
pub fn encode_tree(doc: &Document, root: NodeId, out: &mut Vec<u8>) {
    encode_tree_with(doc, root, out, |_, _| {});
}

/// Appends the node stream of the subtree rooted at `root`, calling `extra`
/// after each node record so the caller can append per-node bytes.
pub fn encode_tree_with(
    doc: &Document,
    root: NodeId,
    out: &mut Vec<u8>,
    mut extra: impl FnMut(NodeId, &mut Vec<u8>),
) {
    let order = doc.preorder(root);
    let first = order.iter().min().map_or(0, |id| id.as_u64());
    let last = order.iter().max().map_or(0, |id| id.as_u64());
    put_varint(out, order.len() as u64);
    put_varint(out, first);
    put_varint(out, last - first);
    for id in order {
        let Ok(data) = doc.node(id) else { continue };
        let name = data.name.as_deref().unwrap_or("").as_bytes();
        let value = data.value.as_deref().unwrap_or("").as_bytes();
        match data.kind {
            NodeKind::Element => {
                out.push(b'e');
                put_varint(out, id.as_u64());
                put_bytes(out, name);
                put_varint(out, data.attributes.len() as u64);
                put_varint(out, data.children.len() as u64);
            }
            NodeKind::Attribute => {
                out.push(b'a');
                put_varint(out, id.as_u64());
                put_bytes(out, name);
                put_bytes(out, value);
            }
            NodeKind::Text => {
                out.push(b't');
                put_varint(out, id.as_u64());
                put_bytes(out, value);
            }
        }
        extra(id, out);
    }
}

/// Decodes one node stream into a fresh document whose root is the stream's
/// first node.
pub fn decode_tree(r: &mut Reader<'_>) -> DecodeResult<Document> {
    decode_tree_with(r, |_, _| Ok(()))
}

/// One node record: the node is already in the arena, detached.
struct Record {
    id: NodeId,
    kind: NodeKind,
    attrs: u64,
    children: u64,
}

/// Reads one node record and creates the node through the validated
/// constructors (a duplicate identifier fails here).
fn read_record(r: &mut Reader<'_>, extent: &Extent, doc: &mut Document) -> DecodeResult<Record> {
    let at = r.offset();
    let bad = |message: String| DecodeError { offset: at, message };
    let tag = r.u8()?;
    let id = NodeId::new(r.varint()?);
    if !extent.contains(id) {
        return Err(bad(format!("node {id} outside {}..={}", extent.first, extent.last)));
    }
    let (kind, made, attrs, children) = match tag {
        b'e' => {
            let name = r.str()?;
            let (attrs, children) = (r.varint()?, r.varint()?);
            (NodeKind::Element, doc.new_element_with_id(id, name), attrs, children)
        }
        b'a' => {
            let (name, value) = (r.str()?, r.str()?);
            (NodeKind::Attribute, doc.new_attribute_with_id(id, name, value), 0, 0)
        }
        b't' => (NodeKind::Text, doc.new_text_with_id(id, r.str()?), 0, 0),
        other => return Err(bad(format!("unknown node tag {other:#04x}"))),
    };
    made.map_err(|e| bad(e.to_string()))?;
    if attrs.saturating_add(children) > (r.remaining() / 3) as u64 {
        return Err(bad(format!("{attrs} attributes and {children} children announced by {id}")));
    }
    Ok(Record { id, kind, attrs, children })
}

/// Decodes one node stream into a fresh document, reporting every node to
/// `visit` as it is opened (right after its record, so `visit` reads the
/// node's extra bytes) and as its subtree closes.
pub fn decode_tree_with<'a>(
    r: &mut Reader<'a>,
    mut visit: impl FnMut(&mut Reader<'a>, Step) -> DecodeResult<()>,
) -> DecodeResult<Document> {
    /// An element whose attributes and children are still being read.
    struct Frame {
        id: NodeId,
        depth: u32,
        attrs: u64,
        children: u64,
        last_child: Option<NodeId>,
    }
    let extent = Extent::read(r)?;
    let mut doc = Document::with_id_range(extent.first, extent.last, extent.nodes);
    let mut stack: Vec<Frame> = Vec::new();
    let mut read = 0usize;
    loop {
        let mut slot = match (read, stack.last_mut()) {
            (0, _) => Placement {
                id: NodeId::new(0),
                kind: NodeKind::Element,
                parent: None,
                depth: 0,
                left_sibling: None,
                is_first_child: false,
                is_last_child: false,
            },
            (_, None) if read == extent.nodes => return Ok(doc),
            (_, None) => {
                return Err(r.error(format!("{} nodes announced, {read} read", extent.nodes)))
            }
            (_, Some(top)) if top.attrs > 0 => {
                top.attrs -= 1;
                Placement {
                    id: NodeId::new(0),
                    kind: NodeKind::Attribute,
                    parent: Some(top.id),
                    depth: top.depth + 1,
                    left_sibling: None,
                    is_first_child: false,
                    is_last_child: false,
                }
            }
            (_, Some(top)) if top.children > 0 => {
                top.children -= 1;
                Placement {
                    id: NodeId::new(0),
                    kind: NodeKind::Element,
                    parent: Some(top.id),
                    depth: top.depth + 1,
                    left_sibling: top.last_child,
                    is_first_child: top.last_child.is_none(),
                    is_last_child: top.children == 0,
                }
            }
            (_, Some(top)) => {
                let id = top.id;
                stack.pop();
                visit(r, Step::Close(id))?;
                continue;
            }
        };
        if read == extent.nodes {
            return Err(r.error(format!("more than the {} nodes announced", extent.nodes)));
        }
        let at = r.offset();
        let record = read_record(r, &extent, &mut doc)?;
        read += 1;
        slot.id = record.id;
        let attached = match (slot.parent, slot.kind) {
            (None, _) => doc.set_root(record.id),
            (Some(owner), NodeKind::Attribute) => doc.add_attribute(owner, record.id),
            (Some(parent), _) => {
                if let Some(top) = stack.last_mut() {
                    top.last_child = Some(record.id);
                }
                doc.append_child(parent, record.id)
            }
        };
        attached.map_err(|e| DecodeError { offset: at, message: e.to_string() })?;
        slot.kind = record.kind;
        visit(r, Step::Open(slot))?;
        if record.kind == NodeKind::Element {
            stack.push(Frame {
                id: record.id,
                depth: slot.depth,
                attrs: record.attrs,
                children: record.children,
                last_child: None,
            });
        } else {
            visit(r, Step::Close(record.id))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn sample() -> Document {
        parse_document("<issue vol=\"30\" n=\"2\"><article><title>T &amp; ü</title></article><article/></issue>")
            .unwrap()
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let values = [0, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut out = Vec::new();
        for v in values {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        // an eleventh byte, or a tenth one carrying more than one bit, overflows
        assert!(Reader::new(&[0xFF; 11]).varint().is_err());
        assert!(Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02])
            .varint()
            .is_err());
    }

    #[test]
    fn trees_round_trip_with_identifiers_and_order() {
        let doc = sample();
        let root = doc.root().unwrap();
        let mut out = Vec::new();
        encode_tree(&doc, root, &mut out);
        let mut r = Reader::new(&out);
        let back = decode_tree(&mut r).unwrap();
        r.finish().unwrap();
        assert!(back.deep_eq(&doc), "same ids, names, values, links and counter");
        back.assert_consistent();
    }

    #[test]
    fn attribute_and_text_roots_round_trip() {
        for tree in [crate::Tree::attribute("k", "v\"<>"), crate::Tree::text("")] {
            let mut out = Vec::new();
            encode_tree(&tree, tree.root_id(), &mut out);
            let back = decode_tree(&mut Reader::new(&out)).unwrap();
            assert!(back.deep_eq(tree.as_document()));
        }
    }

    #[test]
    fn placements_follow_the_tree() {
        let doc = sample();
        let mut out = Vec::new();
        encode_tree(&doc, doc.root().unwrap(), &mut out);
        let mut steps = Vec::new();
        decode_tree_with(&mut Reader::new(&out), |_, step| {
            steps.push(step);
            Ok(())
        })
        .unwrap();
        let opened: Vec<Placement> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Open(p) => Some(*p),
                Step::Close(_) => None,
            })
            .collect();
        assert_eq!(opened.len(), doc.node_count());
        for p in &opened {
            assert_eq!(Ok(p.parent), doc.parent(p.id));
            assert_eq!(Some(p.depth as usize), doc.depth(p.id).unwrap());
            if p.kind != NodeKind::Attribute {
                assert_eq!(Ok(p.left_sibling), doc.left_sibling(p.id));
                let siblings = p.parent.map(|q| doc.children(q).unwrap()).unwrap_or(&[]);
                assert_eq!(p.is_first_child, siblings.first() == Some(&p.id));
                assert_eq!(p.is_last_child, siblings.last() == Some(&p.id));
            }
        }
        // every node closes once, after everything below it
        let closes = steps.iter().filter(|s| matches!(s, Step::Close(_))).count();
        assert_eq!(closes, doc.node_count());
        assert_eq!(steps.last(), Some(&Step::Close(doc.root().unwrap())));
    }

    /// Decodes `records` behind an extent of `nodes` nodes with ids 1..=span+1.
    fn decode(nodes: u64, span: u64, records: &[u8]) -> DecodeResult<Document> {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, nodes);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, span);
        bytes.extend_from_slice(records);
        decode_tree(&mut Reader::new(&bytes))
    }

    #[test]
    fn hostile_streams_fail_without_panicking() {
        let doc = sample();
        let mut out = Vec::new();
        encode_tree(&doc, doc.root().unwrap(), &mut out);
        for cut in 0..out.len() {
            assert!(decode_tree(&mut Reader::new(&out[..cut])).is_err(), "cut at {cut}");
        }
        let leaf = [b'e', 1, 1, b'r', 0, 0];
        decode(1, 0, &leaf).unwrap();
        assert!(decode(1, 0, &[b'x', 1, 0]).is_err(), "unknown tag");
        assert!(
            decode(2, 1, &[b'e', 1, 1, b'r', 0, 1, b'e', 1, 1, b'c', 0, 0]).is_err(),
            "duplicate"
        );
        assert!(decode(2, 1, &[b'e', 1, 1, b'r', 0, 1, b'a', 2, 1, b'k', 1, b'v']).is_err());
        assert!(decode(1, 0, &[b't', 1, 2, 0xC3, 0x28]).is_err(), "invalid UTF-8");
        assert!(decode(1, 0, &[b't', 2, 0]).is_err(), "id outside the extent");
        assert!(decode(2, 1, &leaf).is_err(), "fewer nodes than announced");
        assert!(
            decode(1, 1, &[b'e', 1, 1, b'r', 0, 1, b't', 2, 0]).is_err(),
            "more than announced"
        );
        assert!(decode(2, 0, &[b't', 1, 0, b't', 1, 0]).is_err(), "two ids in a range of one");
        assert!(decode(u64::MAX, u64::MAX, &leaf).is_err(), "node count beyond the input");
        let mut counts = vec![b'e', 1, 1, b'r'];
        put_varint(&mut counts, u64::MAX);
        put_varint(&mut counts, u64::MAX);
        assert!(decode(1, 0, &counts).is_err(), "counts beyond the input");
        let mut overflow = Vec::new();
        for v in [1, u64::MAX, 1] {
            put_varint(&mut overflow, v);
        }
        overflow.extend_from_slice(&leaf);
        assert!(decode_tree(&mut Reader::new(&overflow)).is_err(), "identifier range overflows");
    }
}
