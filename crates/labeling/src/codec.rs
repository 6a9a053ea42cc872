//! Binary encodings of labels and of labeled documents.
//!
//! * A [`NodeLabel`] on its own (a PUL's target label, a sharded session's
//!   global root label) is its start and end key digits (`bytes` each), its
//!   level (varint), one kind-and-flags byte, then the parent and left
//!   sibling identifiers (varints, present only when the flags say so).
//!   The labeled node's own identifier is not stored: the caller knows it.
//! * A **labeled document** (a checkpoint image) is the document's node
//!   stream ([`xdm::codec`]) with each node's start and end key digits
//!   inline. Level, parent, left sibling and the first/last flags are not
//!   stored at all: [`decode_labeled_document`] derives them from the node's
//!   position, so a label that disagrees with its tree cannot be written.
//!   The decoder also requires the keys to ascend strictly in document order
//!   (start keys on the way down, end keys on the way up), which is exactly
//!   the nesting and sibling order [`Labeling::assert_consistent`] checks.

use xdm::codec::{
    decode_tree_with, encode_tree_with, put_bytes, put_varint, DecodeError, DecodeResult, Extent,
    Reader, Step,
};
use xdm::{Document, NodeId, NodeKind};

use crate::label::NodeLabel;
use crate::labeling::Labeling;
use crate::orderkey::OrderKey;

const FIRST_CHILD: u8 = 1 << 2;
const LAST_CHILD: u8 = 1 << 3;
const HAS_PARENT: u8 = 1 << 4;
const HAS_LEFT_SIBLING: u8 = 1 << 5;

/// Reads one key's digits: non-empty and without a trailing zero, the only
/// digit strings an [`OrderKey`] holds.
fn key(r: &mut Reader<'_>) -> DecodeResult<OrderKey> {
    let at = r.offset();
    let digits = r.bytes()?;
    match digits.last() {
        Some(&d) if d != 0 => Ok(OrderKey::from_digits(digits.to_vec())),
        _ => Err(DecodeError { offset: at, message: "order key is empty or ends in 0".into() }),
    }
}

/// Appends the binary form of `label` (without its identifier).
pub fn encode_label(label: &NodeLabel, out: &mut Vec<u8>) {
    put_bytes(out, label.start.digits());
    put_bytes(out, label.end.digits());
    put_varint(out, u64::from(label.level));
    let mut flags = match label.kind {
        NodeKind::Element => 0,
        NodeKind::Attribute => 1,
        NodeKind::Text => 2,
    };
    for (set, bit) in [
        (label.is_first_child, FIRST_CHILD),
        (label.is_last_child, LAST_CHILD),
        (label.parent.is_some(), HAS_PARENT),
        (label.left_sibling.is_some(), HAS_LEFT_SIBLING),
    ] {
        if set {
            flags |= bit;
        }
    }
    out.push(flags);
    for id in [label.parent, label.left_sibling].into_iter().flatten() {
        put_varint(out, id.as_u64());
    }
}

/// Decodes the label of node `id` written by [`encode_label`].
pub fn decode_label(r: &mut Reader<'_>, id: NodeId) -> DecodeResult<NodeLabel> {
    let start = key(r)?;
    let end = key(r)?;
    let level = r.varint()?;
    let level = u32::try_from(level).map_err(|_| r.error(format!("label level {level}")))?;
    let flags = r.u8()?;
    let kind = match flags & 0b11 {
        0 => NodeKind::Element,
        1 => NodeKind::Attribute,
        2 => NodeKind::Text,
        _ => return Err(r.error("unknown label kind")),
    };
    if flags & 0b1100_0000 != 0 {
        return Err(r.error(format!("unknown label flags {flags:#04x}")));
    }
    let mut id_if = |bit: u8| -> DecodeResult<Option<NodeId>> {
        Ok(if flags & bit != 0 { Some(NodeId::new(r.varint()?)) } else { None })
    };
    let parent = id_if(HAS_PARENT)?;
    let left_sibling = id_if(HAS_LEFT_SIBLING)?;
    Ok(NodeLabel {
        id,
        start,
        end,
        level,
        kind,
        parent,
        left_sibling,
        is_first_child: flags & FIRST_CHILD != 0,
        is_last_child: flags & LAST_CHILD != 0,
    })
}

/// Encodes a document with its labeling: the node stream of the whole
/// document with every node's start and end keys inline. Empty for a
/// document without a root.
///
/// # Panics
/// Panics if a node of the document has no label — the labeling must cover
/// the document, as [`Labeling::assert_consistent`] checks.
pub fn encode_labeled_document(doc: &Document, labeling: &Labeling) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(root) = doc.root() {
        encode_tree_with(doc, root, &mut out, |id, out| {
            let label = labeling.require(id);
            put_bytes(out, label.start.digits());
            put_bytes(out, label.end.digits());
        });
    }
    out
}

/// Decodes [`encode_labeled_document`]'s bytes, building the document and
/// its labeling in one pass. Every byte must be consumed.
pub fn decode_labeled_document(bytes: &[u8]) -> DecodeResult<(Document, Labeling)> {
    /// Moves the document-order cursor `last` to `key`, which must lie
    /// strictly past it (keys are never empty, so empty means "at the start").
    fn advance(last: &mut Vec<u8>, key: &OrderKey, at: usize, id: NodeId) -> DecodeResult<()> {
        if !last.is_empty() && key.digits() <= last.as_slice() {
            return Err(DecodeError {
                offset: at,
                message: format!("keys of node {id} out of document order"),
            });
        }
        last.clear();
        last.extend_from_slice(key.digits());
        Ok(())
    }
    let mut r = Reader::new(bytes);
    // Sized from the stream's extent like the arena, so every label lands in
    // its dense slot whatever order preorder visits identifiers in.
    let extent = Extent::read(&mut r.clone())?;
    let mut labeling = Labeling::with_id_range(extent.first, extent.last, extent.nodes);
    let mut last = Vec::new();
    let doc = decode_tree_with(&mut r, |r, step| {
        let at = r.offset();
        match step {
            Step::Open(p) => {
                let (start, end) = (key(r)?, key(r)?);
                advance(&mut last, &start, at, p.id)?;
                labeling.insert(NodeLabel {
                    id: p.id,
                    start,
                    end,
                    level: p.depth,
                    kind: p.kind,
                    parent: p.parent,
                    left_sibling: p.left_sibling,
                    is_first_child: p.is_first_child,
                    is_last_child: p.is_last_child,
                });
            }
            Step::Close(id) => {
                let end =
                    &labeling.get(id).ok_or_else(|| r.error("close of an unopened node"))?.end;
                advance(&mut last, end, at, id)?;
            }
        }
        Ok(())
    })?;
    r.finish()?;
    Ok((doc, labeling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdm::parser::parse_document;

    fn labeled() -> (Document, Labeling) {
        let doc = parse_document(
            "<lib k=\"v\" w=\"z\"><b><t>A</t></b><b id=\"2\"><t>B</t>tail</b><c/></lib>",
        )
        .unwrap();
        let labeling = Labeling::assign(&doc);
        (doc, labeling)
    }

    #[test]
    fn labels_round_trip_with_every_flag() {
        let (_, labeling) = labeled();
        let mut out = Vec::new();
        for label in labeling.iter() {
            encode_label(label, &mut out);
        }
        let mut r = Reader::new(&out);
        for label in labeling.iter() {
            assert_eq!(&decode_label(&mut r, label.id).unwrap(), label);
        }
        r.finish().unwrap();
        let edge = NodeLabel {
            id: NodeId::new(u64::MAX),
            parent: Some(NodeId::new(u64::MAX)),
            left_sibling: Some(NodeId::new(0)),
            level: u32::MAX,
            is_first_child: true,
            is_last_child: true,
            ..labeling.iter().next().unwrap().clone()
        };
        let mut out = Vec::new();
        encode_label(&edge, &mut out);
        assert_eq!(decode_label(&mut Reader::new(&out), edge.id).unwrap(), edge);
    }

    #[test]
    fn labeled_documents_round_trip_exactly() {
        let (doc, labeling) = labeled();
        let image = encode_labeled_document(&doc, &labeling);
        let (back, back_labels) = decode_labeled_document(&image).unwrap();
        assert!(back.deep_eq(&doc));
        assert!(back_labels.deep_eq(&labeling));
        back_labels.assert_consistent(&back);
    }

    #[test]
    fn keys_out_of_document_order_are_refused() {
        let (doc, mut labeling) = labeled();
        let b = doc.find_elements("b");
        // swap the intervals of two sibling subtrees' roots
        let (mut l0, mut l1) = (labeling.require(b[0]).clone(), labeling.require(b[1]).clone());
        std::mem::swap(&mut l0.start, &mut l1.start);
        std::mem::swap(&mut l0.end, &mut l1.end);
        labeling.insert(l0);
        labeling.insert(l1);
        let image = encode_labeled_document(&doc, &labeling);
        assert!(decode_labeled_document(&image).is_err());
    }

    #[test]
    fn truncated_and_extended_images_are_refused() {
        let (doc, labeling) = labeled();
        let image = encode_labeled_document(&doc, &labeling);
        for cut in 0..image.len() {
            assert!(decode_labeled_document(&image[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = image.clone();
        longer.push(0);
        assert!(decode_labeled_document(&longer).is_err(), "trailing byte");
    }
}
