//! Streaming PUL evaluation (§4.3).
//!
//! The streaming evaluator applies a PUL while scanning the *identified*
//! serialization of a document: the input is parsed into SAX events, the
//! events are transformed on the fly according to the operations of the PUL,
//! and the result is serialized immediately. No in-memory representation of
//! the document is ever built, which decouples memory consumption from the
//! document size — the property evaluated in Figure 6.a of the paper.
//!
//! The evaluator reproduces the same deterministic choices as
//! [`crate::apply`], so that for a given PUL the streamed output is
//! structurally identical to the in-memory output.

use std::collections::{HashMap, HashSet};

use xdm::events::{AttrEvent, Event, EventReader, EventWriter};
use xdm::{NodeId, NodeKind, Tree};

use crate::error::PulError;
use crate::op::UpdateOp;
use crate::pul::Pul;
use crate::Result;

/// Per-target digest of the operations of a PUL, pre-computed so that each
/// event lookup is O(1).
#[derive(Debug, Default, Clone)]
struct TargetOps {
    before: Vec<Tree>,
    after: Vec<Tree>,
    first: Vec<Tree>,
    last: Vec<Tree>,
    attrs: Vec<Tree>,
    delete: bool,
    replace_node: Option<Vec<Tree>>,
    replace_value: Option<String>,
    replace_content: Option<Option<String>>,
    rename: Option<String>,
}

impl TargetOps {
    fn removes_target(&self) -> bool {
        self.delete || self.replace_node.is_some()
    }
}

/// Builds the per-target digests, mirroring the application order of the
/// deterministic in-memory evaluator (stage, then name, then parameters).
fn index_ops(pul: &Pul) -> Result<HashMap<NodeId, TargetOps>> {
    pul.check_compatible()?;
    let mut ordered: Vec<&UpdateOp> = pul.ops().iter().collect();
    ordered.sort_by(|a, b| a.canonical_cmp(b));
    let mut map: HashMap<NodeId, TargetOps> = HashMap::new();
    for op in ordered {
        let entry = map.entry(op.target()).or_default();
        match op {
            UpdateOp::InsBefore { content, .. } => {
                // applied in order, each group inserted right before the target:
                // groups end up in application order.
                entry.before.extend(content.iter().cloned());
            }
            UpdateOp::InsAfter { content, .. } => {
                // each group inserted right after the target: later groups end
                // up closer to the target, i.e. groups in reverse order.
                let mut group: Vec<Tree> = content.clone();
                group.append(&mut entry.after);
                entry.after = group;
            }
            UpdateOp::InsFirst { content, .. } | UpdateOp::InsInto { content, .. } => {
                // inserted at the front: later groups push earlier ones right.
                let mut group: Vec<Tree> = content.clone();
                group.append(&mut entry.first);
                entry.first = group;
            }
            UpdateOp::InsLast { content, .. } => {
                entry.last.extend(content.iter().cloned());
            }
            UpdateOp::InsAttributes { content, .. } => {
                entry.attrs.extend(content.iter().cloned());
            }
            UpdateOp::Delete { .. } => entry.delete = true,
            UpdateOp::ReplaceNode { content, .. } => entry.replace_node = Some(content.clone()),
            UpdateOp::ReplaceValue { value, .. } => entry.replace_value = Some(value.clone()),
            UpdateOp::ReplaceContent { text, .. } => entry.replace_content = Some(text.clone()),
            UpdateOp::Rename { name, .. } => entry.rename = Some(name.clone()),
        }
    }
    Ok(map)
}

/// Identifier generator for the nodes created by the streamed application.
///
/// With `preserve` set, the identifiers carried by the parameter trees are
/// reused (the producer-side identification model of §4.1); otherwise fresh
/// executor-assigned identifiers are generated.
struct IdGen {
    next: u64,
    preserve: bool,
}

impl IdGen {
    fn fresh(&mut self) -> NodeId {
        let id = NodeId::new(self.next);
        self.next += 1;
        id
    }

    fn for_node(&mut self, original: NodeId) -> NodeId {
        if self.preserve {
            original
        } else {
            self.fresh()
        }
    }
}

/// Emits the events of a parameter tree.
fn emit_tree(tree: &Tree, writer: &mut EventWriter, ids: &mut IdGen) {
    fn rec(tree: &Tree, node: NodeId, writer: &mut EventWriter, ids: &mut IdGen) {
        let Ok(data) = tree.node(node) else { return };
        match data.kind {
            NodeKind::Text => {
                writer.write(&Event::Text {
                    id: ids.for_node(node),
                    value: data.value.clone().unwrap_or_default(),
                });
            }
            NodeKind::Attribute => { /* attribute trees are handled by the caller */ }
            NodeKind::Element => {
                let id = ids.for_node(node);
                let attributes: Vec<AttrEvent> = data
                    .attributes
                    .iter()
                    .filter_map(|&a| {
                        let ad = tree.node(a).ok()?;
                        Some(AttrEvent {
                            id: ids.for_node(a),
                            name: ad.name.clone().unwrap_or_default(),
                            value: ad.value.clone().unwrap_or_default(),
                        })
                    })
                    .collect();
                let name = data.name.clone().unwrap_or_default();
                writer.write(&Event::StartElement { id, name: name.clone(), attributes });
                for &c in &data.children {
                    rec(tree, c, writer, ids);
                }
                writer.write(&Event::EndElement { id, name });
            }
        }
    }
    rec(tree, tree.root_id(), writer, ids);
}

fn emit_trees(trees: &[Tree], writer: &mut EventWriter, ids: &mut IdGen) {
    for t in trees {
        emit_tree(t, writer, ids);
    }
}

/// An open element currently being emitted.
struct Frame {
    id: NodeId,
    name: String,
    last: Vec<Tree>,
    after: Vec<Tree>,
    drop_children: bool,
}

/// Applies a PUL to the identified serialization of a document, producing the
/// identified serialization of the updated document. `first_new_id` is the
/// first identifier assigned to nodes created by the application (it must be
/// larger than every identifier appearing in the input).
pub fn apply_streaming(input: &str, pul: &Pul, first_new_id: u64) -> Result<String> {
    apply_streaming_with(input, pul, first_new_id, false)
}

/// Like [`apply_streaming`], but when `preserve_content_ids` is set the nodes
/// created by the application keep the identifiers carried by the parameter
/// trees of the PUL (the producer-side identification model of §4.1, required
/// when later PULs of a sequence refer to nodes inserted by earlier ones).
/// Fresh identifiers (from `first_new_id`) are still used for nodes that have
/// no identifier of their own, e.g. the text node created by `repC`.
pub fn apply_streaming_with(
    input: &str,
    pul: &Pul,
    first_new_id: u64,
    preserve_content_ids: bool,
) -> Result<String> {
    let ops = index_ops(pul)?;
    let mut ids = IdGen { next: first_new_id, preserve: preserve_content_ids };
    let mut writer = EventWriter::identified();
    let mut frames: Vec<Frame> = Vec::new();
    // When skipping a deleted/replaced subtree: remaining depth and the ins→
    // content to emit once the subtree is over.
    let mut skip: Option<(usize, Vec<Tree>)> = None;

    let mut reader = EventReader::identified(input);
    while let Some(event) = reader.next_event().map_err(PulError::from)? {
        // 1. Inside a skipped subtree?
        if let Some((depth, after)) = &mut skip {
            match &event {
                Event::StartElement { .. } => *depth += 1,
                Event::EndElement { .. } => {
                    *depth -= 1;
                    if *depth == 0 {
                        let after = std::mem::take(after);
                        emit_trees(&after, &mut writer, &mut ids);
                        skip = None;
                    }
                }
                Event::Text { .. } => {}
            }
            continue;
        }
        // 2. Children dropped by a repC on the enclosing element?
        let dropping = frames.last().map(|f| f.drop_children).unwrap_or(false);
        match event {
            Event::StartElement { id, name, attributes } => {
                if dropping {
                    // the whole child subtree is overridden by repC
                    skip = Some((1, Vec::new()));
                    continue;
                }
                let t = ops.get(&id).cloned().unwrap_or_default();
                emit_trees(&t.before, &mut writer, &mut ids);
                if t.removes_target() {
                    if let Some(replacement) = &t.replace_node {
                        emit_trees(replacement, &mut writer, &mut ids);
                    }
                    skip = Some((1, t.after.clone()));
                    continue;
                }
                // resolve attributes: per-attribute operations + insA
                let mut out_attrs: Vec<AttrEvent> = Vec::new();
                for a in &attributes {
                    let aops = ops.get(&a.id).cloned().unwrap_or_default();
                    if aops.delete {
                        continue;
                    }
                    if let Some(replacement) = &aops.replace_node {
                        for tree in replacement {
                            if tree.root_kind() == NodeKind::Attribute {
                                out_attrs.push(AttrEvent {
                                    id: ids.for_node(tree.root_id()),
                                    name: tree.root_name().unwrap_or_default(),
                                    value: tree
                                        .value(tree.root_id())
                                        .ok()
                                        .flatten()
                                        .unwrap_or("")
                                        .to_string(),
                                });
                            }
                        }
                        continue;
                    }
                    let mut name = a.name.clone();
                    let mut value = a.value.clone();
                    if let Some(n) = &aops.rename {
                        name = n.clone();
                    }
                    if let Some(v) = &aops.replace_value {
                        value = v.clone();
                    }
                    out_attrs.push(AttrEvent { id: a.id, name, value });
                }
                let mut names: HashSet<String> = out_attrs.iter().map(|a| a.name.clone()).collect();
                for tree in &t.attrs {
                    let aname = tree.root_name().unwrap_or_default();
                    if !names.insert(aname.clone()) {
                        return Err(PulError::Dynamic(format!(
                            "attribute '{aname}' inserted twice (or already present) on node {id}"
                        )));
                    }
                    out_attrs.push(AttrEvent {
                        id: ids.for_node(tree.root_id()),
                        name: aname,
                        value: tree.value(tree.root_id()).ok().flatten().unwrap_or("").to_string(),
                    });
                }
                let resolved_name = t.rename.clone().unwrap_or(name);
                writer.write(&Event::StartElement {
                    id,
                    name: resolved_name.clone(),
                    attributes: out_attrs,
                });
                let drop_children = t.replace_content.is_some();
                if let Some(text) = t.replace_content.clone().flatten() {
                    writer.write(&Event::Text { id: ids.fresh(), value: text });
                }
                if !drop_children {
                    emit_trees(&t.first, &mut writer, &mut ids);
                }
                frames.push(Frame {
                    id,
                    name: resolved_name,
                    last: if drop_children { Vec::new() } else { t.last },
                    after: t.after,
                    drop_children,
                });
            }
            Event::Text { id, value } => {
                if dropping {
                    continue;
                }
                let t = ops.get(&id).cloned().unwrap_or_default();
                emit_trees(&t.before, &mut writer, &mut ids);
                if t.delete {
                    // deleted text: nothing to emit
                } else if let Some(replacement) = &t.replace_node {
                    emit_trees(replacement, &mut writer, &mut ids);
                } else if let Some(v) = &t.replace_value {
                    writer.write(&Event::Text { id, value: v.clone() });
                } else {
                    writer.write(&Event::Text { id, value });
                }
                emit_trees(&t.after, &mut writer, &mut ids);
            }
            Event::EndElement { id, .. } => {
                let frame = frames.pop().ok_or_else(|| {
                    PulError::Format(format!("unbalanced end of element {id} in the input stream"))
                })?;
                emit_trees(&frame.last, &mut writer, &mut ids);
                writer.write(&Event::EndElement { id: frame.id, name: frame.name });
                emit_trees(&frame.after, &mut writer, &mut ids);
            }
        }
    }
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_pul, ApplyOptions};
    use crate::obtainable::canonical_string;
    use xdm::parser::{parse_document, parse_document_identified};
    use xdm::writer::write_document_identified;
    use xdm::Document;

    fn fixture() -> (Document, String) {
        let doc = parse_document(
            "<issue volume=\"30\"><article><title>T</title><authors><author>A</author>\
             <author>B</author></authors></article><article code=\"x\"><title>U</title>\
             </article></issue>",
        )
        .unwrap();
        let xml = write_document_identified(&doc);
        (doc, xml)
    }

    /// Applies the PUL both in memory and in streaming and checks that the two
    /// results are structurally identical.
    fn check_same(ops: Vec<UpdateOp>) {
        let (doc, xml) = fixture();
        let pul: Pul = ops.into_iter().collect();
        let mut mem = doc.clone();
        apply_pul(&mut mem, &pul, &ApplyOptions::default()).unwrap();
        let streamed = apply_streaming(&xml, &pul, doc.next_id()).unwrap();
        let streamed_doc = parse_document_identified(&streamed).unwrap();
        assert_eq!(
            canonical_string(&mem),
            canonical_string(&streamed_doc),
            "stream and in-memory evaluation must coincide"
        );
    }

    #[test]
    fn rename_value_and_attribute_ops() {
        // ids: issue=1 volume=2 article=3 title=4 T=5 authors=6 author=7 A=8
        //      author=9 B=10 article=11 code=12 title=13 U=14
        check_same(vec![
            UpdateOp::rename(3u64, "paper"),
            UpdateOp::replace_value(5u64, "New"),
            UpdateOp::replace_value(12u64, "y"),
            UpdateOp::rename(12u64, "kind"),
        ]);
    }

    #[test]
    fn deletions_and_replacements() {
        check_same(vec![
            UpdateOp::delete(9u64),
            UpdateOp::replace_node(4u64, vec![Tree::element_with_text("heading", "H")]),
            UpdateOp::delete(12u64),
        ]);
    }

    #[test]
    fn insertions_everywhere() {
        check_same(vec![
            UpdateOp::ins_before(4u64, vec![Tree::element_with_text("year", "2004")]),
            UpdateOp::ins_after(4u64, vec![Tree::element_with_text("month", "March")]),
            UpdateOp::ins_first(6u64, vec![Tree::element_with_text("author", "Zero")]),
            UpdateOp::ins_last(6u64, vec![Tree::element_with_text("author", "Last")]),
            UpdateOp::ins_into(11u64, vec![Tree::element("abstract")]),
            UpdateOp::ins_attributes(3u64, vec![Tree::attribute("id", "a1")]),
        ]);
    }

    #[test]
    fn multiple_insertions_on_the_same_target() {
        check_same(vec![
            UpdateOp::ins_after(7u64, vec![Tree::element_with_text("author", "C1")]),
            UpdateOp::ins_after(7u64, vec![Tree::element_with_text("author", "C2")]),
            UpdateOp::ins_last(6u64, vec![Tree::element_with_text("author", "L1")]),
            UpdateOp::ins_last(6u64, vec![Tree::element_with_text("author", "L2")]),
            UpdateOp::ins_first(6u64, vec![Tree::element_with_text("author", "F1")]),
            UpdateOp::ins_first(6u64, vec![Tree::element_with_text("author", "F2")]),
        ]);
    }

    #[test]
    fn replace_content_overrides_children_insertions() {
        check_same(vec![
            UpdateOp::replace_content(6u64, Some("no more authors".into())),
            UpdateOp::ins_last(6u64, vec![Tree::element_with_text("author", "Ignored")]),
            UpdateOp::rename(6u64, "people"),
        ]);
        check_same(vec![UpdateOp::replace_content(3u64, None)]);
    }

    #[test]
    fn delete_with_sibling_insertions() {
        check_same(vec![
            UpdateOp::delete(4u64),
            UpdateOp::ins_before(4u64, vec![Tree::element("kept")]),
            UpdateOp::ins_after(4u64, vec![Tree::element("also-kept")]),
        ]);
    }

    #[test]
    fn replace_attribute_node_and_text_node() {
        check_same(vec![
            UpdateOp::replace_node(2u64, vec![Tree::attribute("vol", "31")]),
            UpdateOp::replace_node(5u64, vec![Tree::element_with_text("b", "bold")]),
        ]);
    }

    #[test]
    fn text_node_sibling_insertions() {
        check_same(vec![
            UpdateOp::ins_before(5u64, vec![Tree::element("before-text")]),
            UpdateOp::ins_after(5u64, vec![Tree::element("after-text")]),
        ]);
    }

    #[test]
    fn ops_inside_deleted_subtree_are_overridden() {
        check_same(vec![
            UpdateOp::delete(6u64),
            UpdateOp::rename(7u64, "x"),
            UpdateOp::replace_value(8u64, "y"),
        ]);
    }

    #[test]
    fn streaming_duplicate_attribute_is_an_error() {
        let (_, xml) = fixture();
        let pul: Pul = vec![UpdateOp::ins_attributes(1u64, vec![Tree::attribute("volume", "31")])]
            .into_iter()
            .collect();
        assert!(matches!(apply_streaming(&xml, &pul, 1000), Err(PulError::Dynamic(_))));
    }

    #[test]
    fn streaming_rejects_incompatible_puls() {
        let (_, xml) = fixture();
        let pul: Pul =
            vec![UpdateOp::rename(3u64, "a"), UpdateOp::rename(3u64, "b")].into_iter().collect();
        assert!(matches!(apply_streaming(&xml, &pul, 1000), Err(PulError::Incompatible { .. })));
    }

    #[test]
    fn fresh_identifiers_do_not_clash_with_existing_ones() {
        let (doc, xml) = fixture();
        let pul: Pul =
            vec![UpdateOp::ins_last(6u64, vec![Tree::element_with_text("author", "New")])]
                .into_iter()
                .collect();
        let out = apply_streaming(&xml, &pul, doc.next_id()).unwrap();
        let out_doc = parse_document_identified(&out).unwrap();
        let mut ids: Vec<u64> = out_doc.preorder_from_root().iter().map(|n| n.as_u64()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "identifiers must stay unique");
    }

    #[test]
    fn empty_pul_is_identity() {
        let (doc, xml) = fixture();
        let pul = Pul::new();
        let out = apply_streaming(&xml, &pul, doc.next_id()).unwrap();
        let out_doc = parse_document_identified(&out).unwrap();
        assert_eq!(canonical_string(&doc), canonical_string(&out_doc));
        // identifiers of untouched nodes are preserved
        assert_eq!(doc.preorder_from_root(), out_doc.preorder_from_root());
    }
}
