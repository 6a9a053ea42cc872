//! Cross-crate integration tests reproducing the worked examples of the paper
//! (Examples 1–9 and the Table 3 reduction trace) on the Figure 1 fixture,
//! driven through the [`Executor`] session API.

use xmlpul::fixtures::{figure1, n};
use xmlpul::prelude::*;

use pul::obtainable::{obtainable_documents, DEFAULT_OUTCOME_LIMIT};

/// Opens a session on the Figure 1 fixture.
fn session() -> Executor {
    let (doc, _) = figure1();
    Executor::new(doc)
}

/// Example 1: `del(14)` involves no non-determinism, while an `ins↓` into the
/// `<authors>` element (node 16, two children) may lead to three documents.
#[test]
fn example_1_obtainable_documents() {
    let s = session();
    let p_del = s.pul_from_ops(vec![UpdateOp::delete(n(14))]);
    assert_eq!(obtainable_documents(s.document(), &p_del, DEFAULT_OUTCOME_LIMIT).unwrap().len(), 1);

    let p_ins = s.pul_from_ops(vec![UpdateOp::ins_into(
        n(16),
        vec![Tree::element_with_text("author", "G.Guerrini")],
    )]);
    assert_eq!(obtainable_documents(s.document(), &p_ins, DEFAULT_OUTCOME_LIMIT).unwrap().len(), 3);
}

/// Example 2: `ren(1, dblp)` and `ren(1, myDblp)` are incompatible, while each
/// of them is compatible with `repC(1, 'nopapers')`.
#[test]
fn example_2_compatibility() {
    let op1 = UpdateOp::rename(n(1), "dblp");
    let op2 = UpdateOp::rename(n(1), "myDblp");
    let op3 = UpdateOp::replace_content(n(1), Some("nopapers".into()));
    assert!(op1.is_compatible_with(&op3));
    assert!(op2.is_compatible_with(&op3));
    assert!(!op1.is_compatible_with(&op2));

    let mut pul = Pul::new();
    pul.push(op1);
    pul.push(op2);
    assert!(
        pul.check_compatible().is_err(),
        "a PUL with incompatible operations is not applicable"
    );
}

/// Example 3: one `ins↓` into node 16 (three positions) plus two `ins↘` on the
/// same paper (two relative orders) yield six obtainable documents.
#[test]
fn example_3_cardinality() {
    let s = session();
    let pul = s.pul_from_ops(vec![
        UpdateOp::ins_into(n(16), vec![Tree::element_with_text("author", "G.Guerrini")]),
        UpdateOp::ins_last(n(4), vec![Tree::element_with_text("initP", "132")]),
        UpdateOp::ins_last(n(4), vec![Tree::element_with_text("lastP", "134")]),
    ]);
    let o = obtainable_documents(s.document(), &pul, DEFAULT_OUTCOME_LIMIT).unwrap();
    assert_eq!(o.len(), 6);
}

/// Example 4: equivalence and substitutability.
#[test]
fn example_4_equivalence_and_substitutability() {
    let s = session();
    // ∆1 = {ins→(19, <author>M.Mesiti</author>), repV(15, 'Report on …')}
    // ∆2 = {ins↘(16, <author>M.Mesiti</author>), repC(14, 'Report on …')}
    let d1 = s.pul_from_ops(vec![
        UpdateOp::ins_after(n(19), vec![Tree::element_with_text("author", "M.Mesiti")]),
        UpdateOp::replace_value(n(15), "Report on EDBT"),
    ]);
    let d2 = s.pul_from_ops(vec![
        UpdateOp::ins_last(n(16), vec![Tree::element_with_text("author", "M.Mesiti")]),
        UpdateOp::replace_content(n(14), Some("Report on EDBT".into())),
    ]);
    assert!(pul::obtainable::equivalent(s.document(), &d1, &d2, DEFAULT_OUTCOME_LIMIT).unwrap());

    // ∆1 = {ins↘(4, initP), ins↘(4, lastP)}  vs ∆2 = {ins↘(4, initP, lastP)}:
    // ∆2 is substitutable to ∆1 but not vice versa.
    let d1 = s.pul_from_ops(vec![
        UpdateOp::ins_last(n(4), vec![Tree::element_with_text("initP", "132")]),
        UpdateOp::ins_last(n(4), vec![Tree::element_with_text("lastP", "134")]),
    ]);
    let d2 = s.pul_from_ops(vec![UpdateOp::ins_last(
        n(4),
        vec![Tree::element_with_text("initP", "132"), Tree::element_with_text("lastP", "134")],
    )]);
    assert!(pul::obtainable::substitutable(s.document(), &d2, &d1, DEFAULT_OUTCOME_LIMIT).unwrap());
    assert!(!pul::obtainable::substitutable(s.document(), &d1, &d2, DEFAULT_OUTCOME_LIMIT).unwrap());
}

/// Example 5 / Table 3: the reduction of the nine-operation PUL collapses to
/// three operations; the canonical form additionally orders the inserted
/// authors lexicographically and rewrites `ins↓` into `ins↙`.
#[test]
fn example_5_table_3_reduction() {
    let s = session();
    let ops = vec![
        UpdateOp::ins_first(n(4), vec![Tree::element_with_text("year", "2004")]),
        UpdateOp::ins_last(n(4), vec![Tree::element_with_text("month", "March")]),
        UpdateOp::rename(n(5), "title"),
        UpdateOp::ins_after(n(7), vec![Tree::element_with_text("author", "A.Chaudhri")]),
        UpdateOp::ins_before(n(5), vec![Tree::element_with_text("title", "Report on EDBT04 ...")]),
        UpdateOp::ins_after(n(7), vec![Tree::element_with_text("author", "G.Guerrini")]),
        UpdateOp::ins_after(n(7), vec![Tree::element_with_text("author", "F.Cavalieri")]),
        UpdateOp::replace_node(n(5), vec![Tree::element_with_text("author", "M.Mesiti")]),
        UpdateOp::ins_into(n(16), vec![Tree::element_with_text("author", "P.Gardner")]),
    ];
    let pul = s.pul_from_ops(ops);

    let reduced = ReductionStrategy::Standard.reduce(&pul);
    assert_eq!(reduced.len(), 3, "∆O has three operations: {reduced}");
    // the repN on node 5 has absorbed the ren, the ins← on 5 and the ins↙/ins↘ on its parent 4
    let repn =
        reduced.ops().iter().find(|o| o.name() == OpName::ReplaceNode).expect("repN survives");
    assert_eq!(repn.target(), n(5));
    let repn_names: Vec<String> =
        repn.content().unwrap().iter().map(|t| t.root_name().unwrap()).collect();
    assert_eq!(
        repn_names,
        vec!["year", "title", "author"],
        "the collapsed repN carries the year, the new title and the replacement author (Table 3)"
    );
    // the three ins→ on node 7 have been collapsed into one, which also absorbs
    // the ins↘ of the month because node 7 is the last child of the paper (rule I15)
    let ins = reduced.ops().iter().find(|o| o.name() == OpName::InsAfter).expect("ins→ survives");
    assert_eq!(ins.target(), n(7));
    assert_eq!(ins.content().unwrap().len(), 4);
    // the ins↓ on 16 is still there: the plain reduction is not deterministic
    assert!(reduced.ops().iter().any(|o| o.name() == OpName::InsInto));

    // deterministic reduction rewrites it into ins↙ and has a single outcome;
    // it is what a default session resolves a lone submission to
    let mut det_session = session();
    det_session.submit(pul.clone());
    let det = det_session.resolve().unwrap().into_pul();
    assert!(det.ops().iter().all(|o| o.name() != OpName::InsInto));
    let o = obtainable_documents(s.document(), &det, DEFAULT_OUTCOME_LIMIT).unwrap();
    assert_eq!(o.len(), 1);

    // the canonical form orders the authors lexicographically (A.C, F.C, G.G)
    let canon = ReductionStrategy::Canonical.reduce(&pul);
    let ins = canon.ops().iter().find(|o| o.name() == OpName::InsAfter).expect("ins→ in ∆H̄");
    let texts: Vec<String> =
        ins.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
    assert_eq!(texts, vec!["A.Chaudhri", "F.Cavalieri", "G.Guerrini", "March"]);
    // canonical form is unique: permuting the input operations does not change it
    let mut shuffled_ops = pul.ops().to_vec();
    shuffled_ops.reverse();
    let canon2 = ReductionStrategy::Canonical.reduce(&s.pul_from_ops(shuffled_ops));
    assert_eq!(canon.to_string(), canon2.to_string());

    // every reduction is substitutable to the original PUL (Prop. 1)
    for r in [&reduced, &det, &canon] {
        assert!(
            pul::obtainable::substitutable(s.document(), r, &pul, DEFAULT_OUTCOME_LIMIT).unwrap()
        );
    }
}

/// Example 6: two PULs without conflicts integrate into their merge, and the
/// session's deterministic reduction compacts the merge.
#[test]
fn example_6_integration_without_conflicts() {
    let s = session();
    let p1 = s.pul_from_ops(vec![
        UpdateOp::ins_attributes(n(4), vec![Tree::attribute("lastPage", "140")]),
        UpdateOp::replace_value(n(8), "MM"),
        UpdateOp::replace_node(n(7), vec![Tree::element("authors")]),
    ]);
    let p2 = s.pul_from_ops(vec![
        UpdateOp::ins_attributes(n(4), vec![Tree::attribute("pages", "10")]),
        UpdateOp::rename(n(5), "heading"),
    ]);

    // With reduction disabled the resolution *is* the W3C merge (Prop. 2).
    let mut merge_session = session().reduction(ReductionStrategy::None);
    merge_session.submit(p1.clone());
    merge_session.submit(p2.clone());
    let merge = merge_session.resolve().unwrap();
    assert!(merge.is_conflict_free());
    assert_eq!(merge.resolved_ops(), 5, "integration = merge when conflict-free");

    // Example 6: the deterministic reduction of the merge collapses the two
    // insA on the paper and drops the repV overridden by the repN on node 7,
    // leaving {insA, ren, repN} — three operations.
    let mut session = session().reduction(ReductionStrategy::Deterministic);
    session.submit(p1);
    session.submit(p2);
    let resolution = session.resolve().unwrap();
    assert!(resolution.is_conflict_free());
    assert_eq!(resolution.resolved_ops(), 3);
}

/// Example 7: the three PULs produce one conflict of each of the types 1, 2, 3
/// and 5, and Example 9: the best-effort resolution under the producers'
/// policies.
#[test]
fn examples_7_and_9_conflicts_and_reconciliation() {
    let s = session();
    let p1 = s.pul_from_ops(vec![
        UpdateOp::ins_attributes(n(17), vec![Tree::attribute("email", "catania@disi")]),
        UpdateOp::ins_after(n(5), vec![Tree::element_with_text("author", "G G")]),
        UpdateOp::replace_value(n(12), "34"),
    ]);
    let p2 = s.pul_from_ops(vec![
        UpdateOp::ins_attributes(n(17), vec![Tree::attribute("email", "catania@gmail")]),
        UpdateOp::ins_after(n(5), vec![Tree::element_with_text("author", "A C")]),
        UpdateOp::replace_value(n(12), "35"),
        UpdateOp::replace_value(n(18), "F C"),
        UpdateOp::ins_before(n(17), vec![Tree::element_with_text("author", "F C")]),
    ]);
    let p3 = s.pul_from_ops(vec![UpdateOp::replace_content(n(17), Some("G G".into()))]);

    // Example 9: producer 1 requires insertion order + inserted data, producer
    // 2 nothing, producer 3 inserted data.
    let mut session = session().reduction(ReductionStrategy::None);
    session.submit_with_policy(
        p1.clone(),
        Policy {
            preserve_insertion_order: true,
            preserve_inserted_data: true,
            preserve_removed_data: false,
        },
    );
    session.submit_with_policy(p2.clone(), Policy::relaxed());
    session.submit_with_policy(p3.clone(), Policy::inserted_data());
    let resolution = session.resolve().expect("solvable");

    assert_eq!(resolution.conflicts().len(), 4);
    let mut types: Vec<u8> = resolution.conflicts().iter().map(|c| c.ctype.code()).collect();
    types.sort();
    assert_eq!(types, vec![1, 2, 3, 5]);
    assert_eq!(resolution.conflict_counts().len(), 4, "one conflict of each type");

    // the generated insertion keeps producer 1's author first
    let generated = resolution
        .pul()
        .ops()
        .iter()
        .find(|o| o.name() == OpName::InsAfter && o.content().map(|c| c.len()) == Some(2))
        .expect("generated order-conflict resolution");
    let texts: Vec<String> =
        generated.content().unwrap().iter().map(|t| t.text_content(t.root_id())).collect();
    assert_eq!(texts, vec!["G G", "A C"]);

    // with all three producers requiring insertion-order preservation the
    // reconciliation fails, surfacing as the unified error
    let mut strict = self::session();
    strict.submit_with_policy(p1, Policy::insertion_order());
    strict.submit_with_policy(p2, Policy::insertion_order());
    strict.submit_with_policy(p3, Policy::insertion_order());
    let err = strict.resolve().unwrap_err();
    assert_eq!(err.code(), "XPUL-C01");
    assert!(err.unsolvable_conflict().is_some());
    assert!(matches!(err, Error::Reconcile(_)));
}

/// Example 8: aggregation of three sequential PULs, with rule D6 applying the
/// later operations inside the parameter tree of the first insertion.
#[test]
fn example_8_aggregation() {
    let s = session();
    // ∆1 inserts <article24><title25>XML26</title></article> under <authors> (16)
    let article =
        xdm::parser::parse_fragment_with_first_id("<article><title>XML</title></article>", 24)
            .unwrap();
    let p1 = s.pul_from_ops(vec![
        UpdateOp::ins_last(n(16), vec![article]),
        UpdateOp::replace_value(n(12), "13"),
    ]);
    // ∆2 adds two authors (27–30) inside the new article and renames node 5
    let a1 = xdm::parser::parse_fragment_with_first_id("<author>G G</author>", 27).unwrap();
    let a2 = xdm::parser::parse_fragment_with_first_id("<author>M M</author>", 29).unwrap();
    let p2 = s.pul_from_ops(vec![
        UpdateOp::ins_last(n(24), vec![a1, a2]),
        UpdateOp::rename(n(5), "title"),
    ]);
    // ∆3 replaces author 29, renames node 5 again and rewrites text 26
    let a3 = xdm::parser::parse_fragment_with_first_id("<author>F C</author>", 31).unwrap();
    let p3 = s.pul_from_ops(vec![
        UpdateOp::replace_node(n(29), vec![a3]),
        UpdateOp::rename(n(5), "name"),
        UpdateOp::replace_value(n(26), "On XML"),
    ]);

    // The archive session aggregates the sequence on submission.
    let opts = ApplyOptions { validate: false, preserve_content_ids: true };
    let mut session = session().reduction(ReductionStrategy::None).apply_options(opts.clone());
    session.submit_sequence(&[p1.clone(), p2.clone(), p3.clone()]).unwrap();
    let resolution = session.resolve().unwrap();
    let agg = resolution.pul();
    assert_eq!(agg.len(), 3, "{agg}");
    let ins = agg.ops().iter().find(|o| o.name() == OpName::InsLast).unwrap();
    let tree = &ins.content().unwrap()[0];
    let kids = tree.children(tree.root_id()).unwrap().to_vec();
    assert_eq!(kids.len(), 3, "title + two authors inside the aggregated insertion");
    assert_eq!(tree.text_content(kids[0]), "On XML");
    assert_eq!(tree.text_content(kids[2]), "F C");
    assert!(agg.ops().iter().any(|o| matches!(o, UpdateOp::Rename { name, .. } if name == "name")));

    // Prop. 4: the aggregation cumulates the sequential effects.
    let mut sequential = self::session().reduction(ReductionStrategy::None).apply_options(opts);
    for p in [&p1, &p2, &p3] {
        sequential.submit(p.clone());
        sequential.commit().unwrap();
        sequential.assert_consistent();
    }
    assert_eq!(sequential.version(), 3);
    session.commit_resolution(resolution).unwrap();
    session.assert_consistent();
    assert_eq!(
        pul::obtainable::canonical_string(sequential.document()),
        pul::obtainable::canonical_string(session.document())
    );
}

/// The PUL exchange round trip of §4: a PUL produced by the XQuery Update
/// front-end is serialized, shipped, reduced and executed — in memory by the
/// session and in one streaming pass by the paper's evaluator — with identical
/// results.
#[test]
fn end_to_end_exchange_and_execution() {
    let mut session = session().reduction(ReductionStrategy::Standard);
    let pul = session
        .produce(
            "insert nodes <author>M.Mesiti</author> as last into /issue/paper[2]/authors, \
             replace value of node /issue/paper[1]/title/text() with \"Replication, revisited\", \
             rename node /issue/paper[2]/abstract as \"summary\", \
             delete nodes /issue/paper[1]/author",
        )
        .unwrap();

    let wire = pul::xmlio::pul_to_xml(&pul);
    session.submit_xml(&wire).unwrap();

    // executor side: the streaming evaluator over the identified
    // serialization, then the in-memory commit of the same resolution
    let resolution = session.resolve().unwrap();
    let streamed = pul::apply_streaming(
        &session.serialize_identified(),
        resolution.pul(),
        session.document().next_id(),
    )
    .unwrap();
    session.commit_resolution(resolution).unwrap();
    session.assert_consistent();

    let streamed_doc = xdm::parser::parse_document_identified(&streamed).unwrap();
    assert_eq!(
        pul::obtainable::canonical_string(&streamed_doc),
        pul::obtainable::canonical_string(session.document())
    );
    // under the fresh-id discipline both mint the same identifiers
    assert_eq!(streamed, session.serialize_identified());
    let xml = session.serialize();
    assert!(xml.contains("M.Mesiti"));
    assert!(xml.contains("Replication, revisited"));
    assert!(xml.contains("<summary>"));
    assert!(!xml.contains("A.Chaudhri"));
}
