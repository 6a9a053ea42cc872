//! Executor session round trips: submissions arriving in the `pul::xmlio`
//! wire format, resolution, commit (checked against the streaming evaluator),
//! serialization —
//! plus the session bookkeeping (versions, stale resolutions, withdrawal)
//! and the unified error surface.

use xmlpul::prelude::*;

fn issue_session() -> Executor {
    Executor::parse(
        "<issue volume=\"30\">\
           <paper><title>Database Replication</title><author>A.Chaudhri</author></paper>\
           <paper><title>XML Views</title><authors><author>B.Catania</author></authors></paper>\
         </issue>",
    )
    .unwrap()
}

/// The headline round trip: produce → wire → submit → resolve → commit →
/// serialize.
#[test]
fn wire_round_trip_through_the_session() {
    let mut session = issue_session();

    // Two producers express updates against the checked-out document and ship
    // them in the exchange format.
    let wire1 = pul::xmlio::pul_to_xml(
        &session
            .produce(
                "rename node /issue/paper[1]/title as \"heading\", \
                 insert nodes initPage=\"132\" into /issue/paper[1]",
            )
            .unwrap(),
    );
    let wire2 = pul::xmlio::pul_to_xml(
        &session
            .produce(
                "insert nodes <author>G.Guerrini</author> as last into /issue/paper[2]/authors",
            )
            .unwrap(),
    );

    let id1 = session.submit_xml(&wire1).unwrap();
    let id2 = session.submit_xml(&wire2).unwrap();
    assert_ne!(id1, id2);
    assert_eq!(session.pending(), 2);

    let resolution = session.resolve().unwrap();
    assert!(resolution.is_conflict_free());
    assert_eq!(resolution.submitted_puls(), 2);
    assert_eq!(resolution.submitted_ops(), 3);
    assert_eq!(resolution.version(), 0);

    let report = session.commit_resolution(resolution).unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(session.pending(), 0);
    assert_eq!(session.version(), 1);
    session.assert_consistent();

    let xml = session.serialize();
    assert!(xml.contains("<heading>"));
    assert!(xml.contains("initPage=\"132\""));
    assert!(xml.contains("G.Guerrini"));
}

/// The paper's streaming evaluator, run over the session's identified
/// serialization, writes the same document the in-memory commit builds.
#[test]
fn streaming_and_in_memory_commits_agree() {
    let mut session = issue_session();
    let wire = pul::xmlio::pul_to_xml(
        &session
            .produce(
                "delete nodes /issue/paper[1]/author, \
                 replace value of node /issue/paper[2]/title/text() with \"XML Views, 2nd ed.\"",
            )
            .unwrap(),
    );
    session.submit_xml(&wire).unwrap();

    let resolution = session.resolve().unwrap();
    let streamed = pul::apply_streaming(
        &session.serialize_identified(),
        resolution.pul(),
        session.document().next_id(),
    )
    .unwrap();
    let report = session.commit_resolution(resolution).unwrap();
    assert_eq!(report.version, 1);
    session.assert_consistent();

    // The streamed bytes are the identified serialization of the updated
    // document: same content, and — under the fresh-id discipline — the same
    // identifiers.
    let streamed_doc = xmlpul::xdm::parser::parse_document_identified(&streamed).unwrap();
    assert_eq!(
        pul::obtainable::canonical_string(&streamed_doc),
        pul::obtainable::canonical_string(session.document())
    );
    assert_eq!(streamed, session.serialize_identified());
}

/// A sequence submission aggregates on entry; the session resolves it like
/// any other producer PUL.
#[test]
fn sequence_submissions_aggregate() {
    let mut session = issue_session().apply_options(ApplyOptions::producer());
    // A disconnected producer: two consecutive editing sessions on its copy.
    let mut client = session.clone().reduction(ReductionStrategy::None);
    let pul1 =
        client.produce("insert nodes <year>2004</year> as first into /issue/paper[1]").unwrap();
    client.submit(pul1.clone());
    client.commit().unwrap();
    let pul2 =
        client.produce("replace value of node /issue/paper[1]/year/text() with \"2005\"").unwrap();
    client.submit(pul2.clone());
    client.commit().unwrap();

    let wire = pul::xmlio::puls_to_xml(&[pul1, pul2]);
    session.submit_sequence_xml(&wire).unwrap();
    assert_eq!(session.pending(), 1, "the sequence entered as one aggregated submission");
    session.commit().unwrap();
    session.assert_consistent();
    assert!(session.serialize().contains("<year>2005</year>"), "{}", session.serialize());
}

/// `resolve` reasons by reference: it can run again on the same pending
/// submissions with the same outcome, and the content trees it hands to the
/// commit are the submitted arenas, not copies of them.
#[test]
fn resolve_is_repeatable_and_shares_the_submitted_payloads() {
    let mut session = issue_session().policy(Policy::relaxed());
    let papers = session.document().find_elements("paper");
    let titles = session.document().find_elements("title");
    let submitted = [
        session.pul_from_ops(vec![
            UpdateOp::ins_last(papers[0], vec![Tree::element_with_text("note", "a")]),
            UpdateOp::ins_last(papers[0], vec![Tree::element_with_text("note", "b")]),
            UpdateOp::rename(titles[0], "heading"),
        ]),
        session.pul_from_ops(vec![
            UpdateOp::ins_into(papers[1], vec![Tree::element_with_text("year", "2004")]),
            UpdateOp::ins_after(titles[1], vec![Tree::element("x"), Tree::element("y")]),
        ]),
        // conflicts with the first producer's rename, and loses
        session.pul_from_ops(vec![
            UpdateOp::rename(titles[0], "caption"),
            UpdateOp::replace_node(titles[1], vec![Tree::element_with_text("title", "Views")]),
        ]),
    ];
    for pul in &submitted {
        session.submit(pul.clone());
    }

    let first = session.resolve().unwrap();
    let second = session.resolve().unwrap();
    assert!(!first.is_conflict_free());
    assert_eq!(first.pul().ops(), second.pul().ops());
    assert_eq!(first.conflicts(), second.conflicts());
    assert_eq!(first.to_string(), second.to_string());

    let submitted_trees: Vec<&Tree> =
        submitted.iter().flat_map(|p| p.ops()).filter_map(|op| op.content()).flatten().collect();
    let resolved_trees: Vec<&Tree> =
        first.pul().ops().iter().filter_map(|op| op.content()).flatten().collect();
    assert_eq!(resolved_trees.len(), submitted_trees.len(), "no insertion was excluded");
    for tree in resolved_trees {
        assert!(
            submitted_trees.iter().any(|s| s.shares_storage_with(tree)),
            "{tree} reached the resolution as a copy"
        );
    }

    session.commit_resolution(second).unwrap();
    session.assert_consistent();
    let xml = session.serialize();
    assert!(xml.contains("<note>a</note>") && xml.contains("<note>b</note>"), "{xml}");
}

/// Multiset of (target, op name) of a PUL.
fn shape(pul: &Pul) -> Vec<(u64, OpName)> {
    let mut v: Vec<(u64, OpName)> =
        pul.ops().iter().map(|o| (o.target().as_u64(), o.name())).collect();
    v.sort_unstable();
    v
}

/// The façade adds no reasoning of its own: on generated parallel PULs with
/// injected conflicts, `resolve` returns the operations of the raw operator
/// pipeline — reduce each PUL, integrate (Alg. 1), reconcile under the
/// producers' policies (Alg. 3), reduce the survivor.
#[test]
fn resolve_matches_the_raw_operator_pipeline() {
    use pul_core::{integrate, reconcile_integration, reduce_with, ReductionKind};
    use workload::pulgen::{generate_parallel_puls, ParallelConfig};
    use workload::xmark::{generate as xmark, XmarkConfig};

    let doc = xmark(&XmarkConfig { target_nodes: 4_000, seed: 11 });
    let puls = generate_parallel_puls(
        &doc,
        &Labeling::assign(&doc),
        &ParallelConfig {
            n_puls: 4,
            ops_per_pul: 60,
            conflict_fraction: 0.2,
            ops_per_conflict: 4,
            seed: 11,
        },
    );

    let reduced: Vec<Pul> =
        puls.iter().map(|p| reduce_with(p, ReductionKind::Deterministic)).collect();
    let integration = integrate(&reduced);
    let policies = vec![Policy::relaxed(); puls.len()];
    let reconciled = reconcile_integration(&reduced, &integration, &policies).unwrap();
    let raw = reduce_with(&reconciled, ReductionKind::Deterministic);

    let mut session =
        Executor::new(doc).policy(Policy::relaxed()).reduction(ReductionStrategy::Deterministic);
    for pul in &puls {
        session.submit(pul.clone());
    }
    let resolution = session.resolve().unwrap();
    assert!(!resolution.is_conflict_free(), "the workload injects conflicts");
    assert_eq!(resolution.conflicts().len(), integration.conflicts.len());
    assert_eq!(shape(resolution.pul()), shape(&raw));
}

/// Versions fence commits: a resolution computed before a commit cannot be
/// applied after it.
#[test]
fn stale_resolution_is_fenced() {
    let mut session = issue_session();
    let pul = session.produce("rename node /issue/paper[1]/title as \"t1\"").unwrap();
    session.submit(pul);
    let early = session.resolve().unwrap();
    session.commit().unwrap();

    let err = session.commit_resolution(early).unwrap_err();
    assert_eq!(err.code(), "XPUL-E01");
    assert!(matches!(err, Error::StaleResolution { resolved_at: 0, current: 1 }));
}

/// A resolution only consumes the submissions it reasoned about: later
/// arrivals survive the commit and withdrawn ones invalidate it.
#[test]
fn resolution_covers_exactly_its_submissions() {
    // A submission arriving after resolve() must not be silently dropped.
    let mut session = issue_session();
    let a = session.produce("rename node /issue/paper[1]/title as \"a\"").unwrap();
    session.submit(a);
    let resolution = session.resolve().unwrap();
    let b = session.produce("rename node /issue/paper[2]/title as \"b\"").unwrap();
    session.submit(b);
    session.commit_resolution(resolution).unwrap();
    assert_eq!(session.pending(), 1, "the late submission is still pending");
    session.commit().unwrap();
    assert!(session.serialize().contains("<b>"), "{}", session.serialize());

    // A withdrawn submission invalidates resolutions that covered it.
    let mut session = issue_session();
    let a = session.produce("rename node /issue/paper[1]/title as \"a\"").unwrap();
    let id = session.submit(a);
    let resolution = session.resolve().unwrap();
    session.withdraw(id).unwrap();
    let err = session.commit_resolution(resolution).unwrap_err();
    assert_eq!(err.code(), "XPUL-E02");
}

/// A commit that fails mid-apply leaves the session untouched: no
/// half-applied document, version unchanged, submissions still pending.
#[test]
fn failed_commit_is_atomic() {
    use xmlpul::xdm::parser::parse_fragment_with_first_id;

    let mut session = Executor::parse("<a><b>t</b></a>")
        .unwrap()
        .reduction(ReductionStrategy::None)
        .apply_options(ApplyOptions { validate: false, preserve_content_ids: true });
    let before = session.serialize();
    let root = session.document().root().unwrap();

    // Two insertions; the second's content tree reuses an id the document
    // already allocated, so it fails *after* the first has been applied.
    let ok_tree = parse_fragment_with_first_id("<ok/>", 100).unwrap();
    let clash_tree = parse_fragment_with_first_id("<clash/>", 2).unwrap();
    let pul = session.pul_from_ops(vec![
        UpdateOp::ins_first(root, vec![ok_tree]),
        UpdateOp::ins_last(root, vec![clash_tree]),
    ]);
    session.submit(pul);

    let err = session.commit().unwrap_err();
    assert_eq!(err.code(), "XPUL-D02", "{err}");
    assert_eq!(session.serialize(), before, "no half-applied document");
    assert_eq!(session.version(), 0);
    assert_eq!(session.pending(), 1, "the submission is still pending for a corrected retry");
    session.assert_consistent();
}

/// Withdrawn submissions leave the session; unknown ids surface as typed
/// errors.
#[test]
fn withdraw_and_unknown_submissions() {
    let mut session = issue_session();
    let pul = session.produce("delete nodes /issue/paper[2]").unwrap();
    let id = session.submit(pul);
    assert_eq!(session.pending(), 1);
    let withdrawn = session.withdraw(id).unwrap();
    assert_eq!(withdrawn.len(), 1);
    assert_eq!(session.pending(), 0);

    let err = session.withdraw(id).unwrap_err();
    assert_eq!(err.code(), "XPUL-E02");
    assert!(matches!(err, Error::UnknownSubmission(i) if i == id));
}

/// The reduction strategy in force at resolve time governs a pending
/// submission, on both session kinds: two `ins↘` on one parent, admitted
/// under `Deterministic` (which merges them into one operation), stay two
/// once the session switches to `None` before resolving.
#[test]
fn the_strategy_in_force_at_resolve_time_governs_on_both_sessions() {
    const DOC: &str = "<lib><b1/><b2/></lib>";
    let mut single = Executor::parse(DOC).unwrap();
    let mut sharded = ShardedExecutor::parse(DOC, 2).unwrap();
    let b1 = single.document().find_element("b1").unwrap();
    let pul = single.pul_from_ops(vec![
        UpdateOp::ins_last(b1, vec![Tree::element("x")]),
        UpdateOp::ins_last(b1, vec![Tree::element("y")]),
    ]);
    let reduced = ReductionStrategy::Deterministic.reduce(&pul);
    assert_eq!(reduced.len(), 1, "the two insertions merge under Deterministic");
    single.submit_with_policy(pul.clone(), Policy::default());
    sharded.submit_with_policy(pul, Policy::default());

    let single = single.reduction(ReductionStrategy::None);
    assert_eq!(single.resolve().unwrap().resolved_ops(), 2, "executor");
    let sharded = sharded.reduction(ReductionStrategy::None);
    assert_eq!(sharded.resolve().unwrap().resolved_ops(), 2, "sharded executor");
}

/// Every public error path surfaces as the unified `xmlpul::Error` with its
/// stable code.
#[test]
fn unified_error_surface() {
    // Parse errors from the document model.
    let err = Executor::parse("<unclosed>").unwrap_err();
    assert_eq!(err.code(), "XPUL-D05");
    assert!(matches!(err, Error::Xdm(_)));

    // Query errors from the front-end.
    let session = issue_session();
    let err = session.produce("frobnicate /issue").unwrap_err();
    assert_eq!(err.code(), "XPUL-Q01");
    assert!(matches!(err, Error::Query(_)));

    // Wire-format errors from the PUL layer.
    let mut session = issue_session();
    let err = session.submit_xml("<not-a-pul/>").unwrap_err();
    assert_eq!(err.code(), "XPUL-P05");
    assert!(matches!(err, Error::Pul(_)));

    // Application errors: a PUL targeting a node the document lost.
    let mut session = issue_session();
    let paper2 = session.document().find_elements("paper")[1];
    let stale_target = session.pul_from_ops(vec![UpdateOp::rename(paper2, "gone")]);
    let delete_all = session.produce("delete nodes /issue/paper[2]").unwrap();
    session.submit(delete_all);
    session.commit().unwrap();
    session.submit(stale_target);
    let err = session.commit().unwrap_err();
    assert_eq!(err.code(), "XPUL-P01", "{err}");

    // Reconciliation errors carry the unsolvable conflict.
    let mut session = issue_session();
    let text =
        session.document().children(session.document().find_elements("title")[0]).unwrap()[0];
    let p1 = session.pul_from_ops(vec![UpdateOp::replace_value(text, "a")]);
    let p2 = session.pul_from_ops(vec![UpdateOp::replace_value(text, "b")]);
    session.submit_with_policy(p1, Policy::inserted_data());
    session.submit_with_policy(p2, Policy::inserted_data());
    let err = session.resolve().unwrap_err();
    assert_eq!(err.code(), "XPUL-C01");
    assert_eq!(
        err.unsolvable_conflict().map(|c| c.ctype),
        Some(ConflictType::RepeatedModification)
    );
}
