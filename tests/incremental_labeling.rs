//! Incremental labeling: `Labeling::patch` after a PUL application must agree
//! with a fresh `Labeling::assign` up to order-key equivalence (identical
//! Table-1 predicate answers on every node pair), and commits must leave the
//! labels of untouched nodes bit-identical (§4.1: "document updates should not
//! lead to relabeling of nodes").

use std::collections::HashMap;

use pul::apply::{apply_pul_with_labeling, ApplyOptions};
use pul::UpdateOp;
use workload::pulgen::{generate_pul, PulGenConfig};
use workload::xmark::{generate as xmark, XmarkConfig};
use xdm::{Document, NodeId, Tree};
use xlabel::{Labeling, NodeLabel};
use xmlpul::prelude::*;

/// Asserts that two labelings give the same answer to every Table-1 predicate
/// on every pair of document nodes — order keys may differ, the relations they
/// encode may not.
fn assert_table1_equivalent(doc: &Document, patched: &Labeling, fresh: &Labeling) {
    let nodes = doc.preorder_from_root();
    for &n in &nodes {
        assert!(patched.get(n).is_some(), "node {n} must be labeled after patch");
    }
    assert_eq!(patched.len(), fresh.len(), "same number of labeled nodes");
    for &a in &nodes {
        for &b in &nodes {
            assert_eq!(patched.precedes(a, b), fresh.precedes(a, b), "precedes({a},{b})");
            assert_eq!(patched.is_child(a, b), fresh.is_child(a, b), "child({a},{b})");
            assert_eq!(patched.is_attribute(a, b), fresh.is_attribute(a, b), "attr({a},{b})");
            assert_eq!(patched.is_descendant(a, b), fresh.is_descendant(a, b), "desc({a},{b})");
            assert_eq!(
                patched.is_left_sibling(a, b),
                fresh.is_left_sibling(a, b),
                "leftsib({a},{b})"
            );
            assert_eq!(patched.is_first_child(a, b), fresh.is_first_child(a, b), "first({a},{b})");
            assert_eq!(patched.is_last_child(a, b), fresh.is_last_child(a, b), "last({a},{b})");
            assert_eq!(
                patched.is_descendant_not_attr(a, b),
                fresh.is_descendant_not_attr(a, b),
                "nda({a},{b})"
            );
        }
    }
}

/// Property-style loop (seeded via the offline shim RNG): apply a generated
/// PUL maintaining the labeling incrementally, then compare against a fresh
/// assignment of the updated document.
#[test]
fn patched_labeling_matches_fresh_assignment_on_generated_puls() {
    for seed in 0..6u64 {
        let mut doc = xmark(&XmarkConfig { target_nodes: 260, seed });
        let mut labeling = Labeling::assign(&doc);
        let before: HashMap<NodeId, NodeLabel> =
            labeling.iter().map(|l| (l.id, l.clone())).collect();
        let pul = generate_pul(
            &doc,
            &labeling,
            &PulGenConfig {
                n_ops: 40,
                reducible_ratio: 0.3,
                content_id_base: doc.next_id() + 1_000,
                seed,
            },
        );
        apply_pul_with_labeling(
            &mut doc,
            &mut labeling,
            &pul,
            &ApplyOptions { validate: false, preserve_content_ids: false },
        )
        .expect("generated PUL applies");

        let fresh = Labeling::assign(&doc);
        assert_table1_equivalent(&doc, &labeling, &fresh);

        // Untouched nodes keep their exact keys (seed {seed}).
        for node in doc.preorder_from_root() {
            if let Some(old) = before.get(&node) {
                let now = labeling.require(node);
                assert_eq!(now.start, old.start, "seed {seed}: start key of {node} changed");
                assert_eq!(now.end, old.end, "seed {seed}: end key of {node} changed");
            }
        }
    }
}

fn issue_session() -> Executor {
    Executor::parse(
        "<issue volume=\"30\">\
           <paper><title>Database Replication</title><author>A.Chaudhri</author></paper>\
           <paper><title>XML Views</title><authors><author>B.Catania</author></authors></paper>\
         </issue>",
    )
    .unwrap()
}

fn snapshot(executor: &Executor) -> HashMap<NodeId, NodeLabel> {
    executor.labeling().iter().map(|l| (l.id, l.clone())).collect()
}

/// Every node that survives the commit untouched keeps a bit-identical label.
fn assert_untouched_labels_identical(
    executor: &Executor,
    before: &HashMap<NodeId, NodeLabel>,
    touched: &[NodeId],
) {
    for node in executor.document().preorder_from_root() {
        let Some(old) = before.get(&node) else { continue };
        if touched.contains(&node) {
            continue;
        }
        let now = executor.labeling().require(node);
        assert_eq!(now.start, old.start, "start key of untouched node {node} changed");
        assert_eq!(now.end, old.end, "end key of untouched node {node} changed");
        assert_eq!(now.level, old.level, "level of untouched node {node} changed");
    }
}

#[test]
fn in_memory_commit_preserves_untouched_labels() {
    let mut session = issue_session();
    let doc = session.document();
    let paper2 = doc.find_elements("paper")[1];
    let author = doc.find_elements("author")[0];
    let before = snapshot(&session);

    let pul = session.pul_from_ops(vec![
        UpdateOp::ins_after(author, vec![Tree::element_with_text("author", "M.Mesiti")]),
        UpdateOp::ins_attributes(paper2, vec![Tree::attribute("initPage", "7")]),
        UpdateOp::delete(author),
    ]);
    session.submit(pul);
    session.commit().unwrap();
    session.assert_consistent();

    // The deleted author lost its label; everything else is bit-identical.
    assert!(session.labeling().get(author).is_none());
    assert_untouched_labels_identical(&session, &before, &[]);
    // And the labeling still answers Table 1 like a fresh assignment would.
    let fresh = Labeling::assign(session.document());
    assert_table1_equivalent(session.document(), session.labeling(), &fresh);
}

/// The wire entry point is decode + `submit`: twin sessions fed the same
/// exchange documents through `submit_xml` and through `submit(pul_from_xml)`
/// resolve to the same PUL and commit byte-identical documents — reduction,
/// integration and reconciliation included.
#[test]
fn wire_submissions_resolve_and_commit_like_decoded_submissions() {
    let producer = issue_session();
    let wires = [
        "insert nodes <note>a</note> as last into /issue/paper[1], \
         insert nodes <note>b</note> as last into /issue/paper[1], \
         rename node /issue/paper[1]/title as \"heading\"",
        "rename node /issue/paper[1]/title as \"caption\", \
         delete node /issue/paper[2]/authors/author",
    ]
    .map(|q| pul::xmlio::pul_to_xml(&producer.produce(q).unwrap()));

    let mut via_wire = issue_session().policy(Policy::relaxed());
    let mut via_pul = issue_session().policy(Policy::relaxed());
    for wire in &wires {
        via_wire.submit_xml(wire).unwrap();
        via_pul.submit(pul::xmlio::pul_from_xml(wire).unwrap());
    }
    let (a, b) = (via_wire.resolve().unwrap(), via_pul.resolve().unwrap());
    assert!(!a.is_conflict_free(), "the two renames conflict");
    assert_eq!(a.pul().ops(), b.pul().ops());
    assert_eq!(a.conflicts(), b.conflicts());

    via_wire.commit_resolution(a).unwrap();
    via_pul.commit_resolution(b).unwrap();
    via_wire.assert_consistent();
    assert_eq!(via_wire.serialize_identified(), via_pul.serialize_identified());
    assert!(via_wire.serialize().contains("<note>b</note>"));
}
