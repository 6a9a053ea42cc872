//! Quickstart: open an [`Executor`] session, produce a PUL with the XQuery
//! Update front-end, ship it as XML, and drive the whole
//! reduce → integrate → reconcile → aggregate → apply pipeline with
//! `submit` / `resolve` / `commit`, checked against the paper's one-pass
//! streaming evaluator.
//!
//! Run with `cargo run --example quickstart`.

use xmlpul::prelude::*;

fn main() {
    // The executor session holds the authoritative document; identifiers are
    // assigned in document order (the algorithm agreed with all producers,
    // §4.1).
    let mut session = Executor::parse(
        "<issue volume=\"30\">\
           <paper><title>Database Replication</title><author>A.Chaudhri</author></paper>\
           <paper><title>XML Views</title><authors><author>B.Catania</author></authors></paper>\
         </issue>",
    )
    .expect("well-formed document")
    .reduction(ReductionStrategy::Deterministic);

    // Arm telemetry: every commit below is counted, timed and journaled.
    // Disabled handles (the default) cost a single branch per probe.
    session.set_telemetry(Telemetry::enabled());

    // A producer evaluates an XQuery Update expression; the result is a PUL.
    let pul = session
        .produce(
            "insert nodes <author>G.Guerrini</author> as last into /issue/paper[2]/authors, \
             insert nodes initPage=\"132\" into /issue/paper[1], \
             rename node /issue/paper[1]/title as \"heading\", \
             rename node /issue/paper[2]/title as \"heading\", \
             replace value of node /issue/paper[1]/title/text() with \"Database Replication, revisited\", \
             delete nodes /issue/paper[1]/author",
        )
        .unwrap_or_else(|e| panic!("{e}"));
    println!("produced PUL ({} operations):\n  {pul}\n", pul.len());

    // The PUL travels as an XML document and enters the session on arrival.
    let wire = pul::xmlio::pul_to_xml(&pul);
    println!("exchange format ({} bytes):\n  {wire}\n", wire.len());
    session.submit_xml(&wire).expect("valid PUL document");

    // The executor reasons on the submissions without touching the document …
    let resolution = session.resolve().expect("solvable session");
    println!(
        "deterministic reduction ({} of {} operations survive):\n  {}\n",
        resolution.resolved_ops(),
        resolution.submitted_ops(),
        resolution.pul()
    );

    // … the paper's streaming evaluator applies the resolved PUL in one pass
    // over the identified serialization, never materializing the document …
    let streamed = pul::apply_streaming(
        &session.serialize_identified(),
        resolution.pul(),
        session.document().next_id(),
    )
    .expect("applicable PUL");

    // … and the journaled in-memory commit makes it effective in the session.
    session.commit_resolution(resolution).expect("applicable PUL");
    println!("updated document:\n  {}\n", session.serialize());
    let streamed_doc =
        xmlpul::xdm::parser::parse_document_identified(&streamed).expect("identified output");
    assert_eq!(
        pul::obtainable::canonical_string(&streamed_doc),
        pul::obtainable::canonical_string(session.document()),
        "in-memory and streaming evaluation coincide"
    );
    assert_eq!(streamed, session.serialize_identified(), "same fresh identifiers");
    assert_eq!(session.version(), 1);
    println!("streaming evaluation produced the same document ✓");

    // The armed telemetry handle saw everything: counters, latency summaries
    // and the structured event journal come out of one snapshot.
    let snapshot = session.telemetry_snapshot();
    let metrics = snapshot.metrics.as_ref().expect("telemetry is armed");
    println!(
        "\ntelemetry: {} commit(s), {} rollback(s), resolve p95 {} ns, {} live node slot(s)",
        metrics.commits, metrics.rollbacks, metrics.resolve_ns.p95, snapshot.slab.nodes.live,
    );
    println!("recent events ({} dropped):", snapshot.events_dropped);
    for event in &snapshot.recent_events {
        println!("  #{} {} v{}: {}", event.seq, event.kind.label(), event.version, event.detail);
    }
    println!("\nexposition excerpt:");
    for line in snapshot.render_text().lines().filter(|l| l.contains("xmlpul_commits")) {
        println!("  {line}");
    }
}
