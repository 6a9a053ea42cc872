//! Binary encoding of PULs: the payload form of the durable store's WAL.
//!
//! The XML exchange format ([`crate::xmlio`]) stays the wire between
//! producers and executors. A WAL is read back only by the process family
//! that wrote it, so its records carry the same information in binary:
//!
//! ```text
//!  ops     varint   number of operations, then per operation:
//!  tag     u8       index of the operation name in OpName::ALL
//!  target  varint   target identifier
//!  label   u8 0|1   whether the PUL carries the target's label, then the
//!                   label (xlabel::codec::encode_label)
//!  param            ins*/repN: varint tree count, then each tree as a node
//!                   stream (xdm::codec); repV: value bytes; ren: name bytes;
//!                   repC: u8 0|1 then the text bytes when 1; del: nothing
//! ```
//!
//! [`pul_from_bytes`] rebuilds exactly what [`crate::xmlio::pul_from_xml`] would
//! from the same PUL's XML — operations in order, target labels, content
//! trees with their identifiers — so `pul_to_xml` of a decoded PUL is
//! byte-equal to the original's.

use xdm::codec::{decode_tree, encode_tree, put_bytes, put_varint, DecodeResult, Reader};
use xdm::{NodeId, Tree};
use xlabel::codec::{decode_label, encode_label};

use crate::op::{OpName, UpdateOp};
use crate::pul::Pul;

/// Appends the binary form of `pul`.
pub fn encode_pul(pul: &Pul, out: &mut Vec<u8>) {
    put_varint(out, pul.len() as u64);
    for op in pul.ops() {
        let tag = OpName::ALL.iter().position(|&n| n == op.name()).expect("every name is listed");
        out.push(tag as u8);
        put_varint(out, op.target().as_u64());
        match pul.label(op.target()) {
            Some(label) => {
                out.push(1);
                encode_label(label, out);
            }
            None => out.push(0),
        }
        match op {
            UpdateOp::Delete { .. } => {}
            UpdateOp::ReplaceValue { value, .. } => put_bytes(out, value.as_bytes()),
            UpdateOp::Rename { name, .. } => put_bytes(out, name.as_bytes()),
            UpdateOp::ReplaceContent { text, .. } => match text {
                Some(text) => {
                    out.push(1);
                    put_bytes(out, text.as_bytes());
                }
                None => out.push(0),
            },
            _ => {
                let trees = op.content().unwrap_or(&[]);
                put_varint(out, trees.len() as u64);
                for tree in trees {
                    encode_tree(tree.as_document(), tree.root_id(), out);
                }
            }
        }
    }
}

/// The binary form of `pul`.
pub fn pul_to_bytes(pul: &Pul) -> Vec<u8> {
    let mut out = Vec::new();
    encode_pul(pul, &mut out);
    out
}

/// Decodes one PUL written by [`encode_pul`].
fn decode_pul(r: &mut Reader<'_>) -> DecodeResult<Pul> {
    let count = r.varint()?;
    // Every operation takes at least three bytes (tag, target, label flag).
    if count > (r.remaining() / 3) as u64 {
        return Err(r.error(format!("{count} operations announced")));
    }
    let mut pul = Pul::new();
    for _ in 0..count {
        let tag = r.u8()?;
        let name = *OpName::ALL
            .get(usize::from(tag))
            .ok_or_else(|| r.error(format!("unknown operation tag {tag:#04x}")))?;
        let target = NodeId::new(r.varint()?);
        let label = if r.flag()? { Some(decode_label(r, target)?) } else { None };
        let op = match name {
            OpName::Delete => UpdateOp::delete(target),
            OpName::ReplaceValue => UpdateOp::replace_value(target, r.str()?),
            OpName::Rename => UpdateOp::rename(target, r.str()?),
            OpName::ReplaceContent => {
                let text = if r.flag()? { Some(r.str()?.to_string()) } else { None };
                UpdateOp::replace_content(target, text)
            }
            _ => {
                let trees = decode_trees(r)?;
                match name {
                    OpName::InsBefore => UpdateOp::ins_before(target, trees),
                    OpName::InsAfter => UpdateOp::ins_after(target, trees),
                    OpName::InsFirst => UpdateOp::ins_first(target, trees),
                    OpName::InsLast => UpdateOp::ins_last(target, trees),
                    OpName::InsInto => UpdateOp::ins_into(target, trees),
                    OpName::InsAttributes => UpdateOp::ins_attributes(target, trees),
                    _ => UpdateOp::replace_node(target, trees),
                }
            }
        };
        match label {
            Some(label) => pul.push_with_label(op, label),
            None => pul.push(op),
        }
    }
    Ok(pul)
}

/// Decodes a whole input holding one PUL; trailing bytes are refused.
pub fn pul_from_bytes(bytes: &[u8]) -> DecodeResult<Pul> {
    let mut r = Reader::new(bytes);
    let pul = decode_pul(&mut r)?;
    r.finish()?;
    Ok(pul)
}

fn decode_trees(r: &mut Reader<'_>) -> DecodeResult<Vec<Tree>> {
    let count = r.varint()?;
    if count > (r.remaining() / 3) as u64 {
        return Err(r.error(format!("{count} content trees announced")));
    }
    let mut trees = Vec::new();
    for _ in 0..count {
        let at = r.offset();
        let doc = decode_tree(r)?;
        trees.push(
            Tree::from_document(doc)
                .map_err(|e| xdm::codec::DecodeError { offset: at, message: e.to_string() })?,
        );
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmlio::pul_to_xml;
    use xdm::parser::{parse_document, parse_fragment_with_first_id};
    use xlabel::Labeling;

    /// Every operation kind, labels present and absent, every tree kind,
    /// empty content, both `repC` forms and markup in scalar values.
    fn sample() -> Pul {
        let doc = parse_document(
            "<issue vol=\"30\"><article><title>T</title></article><article/></issue>",
        )
        .unwrap();
        let labeling = Labeling::assign(&doc);
        let tree = parse_fragment_with_first_id("<a k=\"v\">x<b/>y</a>", 100).unwrap();
        let ops = vec![
            UpdateOp::ins_before(4u64, vec![Tree::text("bare <text>"), Tree::element("e")]),
            UpdateOp::ins_after(4u64, vec![tree.clone()]),
            UpdateOp::ins_first(3u64, vec![Tree::element("y")]),
            UpdateOp::ins_last(3u64, vec![tree]),
            UpdateOp::ins_into(3u64, vec![Tree::element_with_text("x", "ü ✓")]),
            UpdateOp::ins_attributes(6u64, vec![Tree::attribute("id", "a\"2")]),
            UpdateOp::delete(2u64),
            UpdateOp::replace_node(5u64, vec![]),
            UpdateOp::replace_value(2u64, "a < b & \"c\""),
            UpdateOp::replace_content(6u64, None),
            UpdateOp::replace_content(3u64, Some(String::new())),
            UpdateOp::rename(999u64, "unlabeled"),
        ];
        Pul::from_ops(ops, &labeling)
    }

    #[test]
    fn puls_round_trip_to_the_same_wire_bytes() {
        for pul in [sample(), Pul::new()] {
            let back = pul_from_bytes(&pul_to_bytes(&pul)).unwrap();
            assert_eq!(pul_to_xml(&back), pul_to_xml(&pul));
            assert_eq!(back.labels(), pul.labels());
        }
    }

    #[test]
    fn truncations_tags_and_trailing_bytes_are_refused() {
        let bytes = pul_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(pul_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(pul_from_bytes(&longer).is_err());
        assert!(pul_from_bytes(&[1, 11, 1, 0]).is_err(), "op tag past OpName::ALL");
        assert!(pul_from_bytes(&[1, 6, 1, 2]).is_err(), "label flag neither 0 nor 1");
        assert!(pul_from_bytes(b"<pul></pul>").is_err(), "XML is not a binary PUL");
    }
}
