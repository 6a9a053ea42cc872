//! Disconnected operation (§1): a client works offline on its copy of the
//! document, producing a *sequence* of PULs. On reconnection it ships the
//! whole sequence; the server session aggregates it into a single PUL and
//! commits it — and the paper's streaming evaluator, run over the
//! authoritative serialization in one pass, produces the same document.
//!
//! Run with `cargo run --example disconnected_sync`.

use xmlpul::prelude::*;
use xmlpul::workload::xmark::{generate, XmarkConfig};

fn main() {
    // The authoritative document lives in the server's executor session (an
    // XMark auction site). Identifiers of client-inserted nodes must survive
    // aggregation and streaming, hence the producer apply options.
    let server_doc = generate(&XmarkConfig { target_nodes: 5_000, seed: 7 });
    let mut server = Executor::new(server_doc.clone())
        .reduction(ReductionStrategy::None)
        .apply_options(ApplyOptions::producer());
    println!(
        "server document: {} nodes, {} bytes serialized",
        server.document().node_count(),
        server.serialize().len()
    );

    // The client checks the document out into its own local session and works
    // offline: three editing sessions, each producing one PUL evaluated with
    // the XQuery Update front-end against the *local* copy (identifiers of
    // inserted nodes come from the client's identifier space and are
    // preserved locally by the producer apply options).
    let mut client = Executor::new(server_doc)
        .reduction(ReductionStrategy::None)
        .apply_options(ApplyOptions::producer());
    let mut sessions: Vec<Pul> = Vec::new();
    let scripts = [
        "insert nodes <item id=\"offline-1\"><name>restored gramophone</name></item> \
           as last into /site/regions/europe, \
         rename node /site/categories/category[1]/name as \"label\"",
        "insert nodes <bidder><date>03/03/2003</date><increase>7.50</increase></bidder> \
           as last into /site/open_auctions/open_auction[1], \
         replace value of node /site/people/person[1]/name/text() with \"Offline Olga\"",
        "delete nodes /site/closed_auctions/closed_auction[1], \
         insert nodes verified=\"yes\" into /site/people/person[1]",
    ];
    for (i, script) in scripts.iter().enumerate() {
        let pul = client.produce(script).expect("valid script");
        client.submit(pul.clone());
        client.commit().expect("applicable PUL");
        println!("session {}: produced {} operations", i + 1, pul.len());
        sessions.push(pul);
    }

    // On reconnection the sequence is shipped as one XML document …
    let wire = pul::xmlio::puls_to_xml(&sessions);
    println!("shipping {} PULs as {} bytes of XML", sessions.len(), wire.len());

    // … and the server admits it as ONE submission: the sequence is
    // aggregated into a single PUL (Def. 13) instead of applying each PUL in
    // turn (and re-reading the document three times).
    server.submit_sequence_xml(&wire).expect("valid PUL list");
    let resolution = server.resolve().expect("aggregable sequence");
    println!(
        "aggregated PUL: {} operations (instead of {} in {} PULs)",
        resolution.resolved_ops(),
        sessions.iter().map(|p| p.len()).sum::<usize>(),
        sessions.len()
    );

    // One streaming pass over the authoritative serialization evaluates the
    // aggregated PUL; one commit makes it effective in the session.
    let streamed = pul::apply_streaming(
        &server.serialize_identified(),
        resolution.pul(),
        server.document().next_id(),
    )
    .expect("applicable PUL");
    server.commit_resolution(resolution).expect("applicable PUL");
    let streamed_doc =
        xmlpul::xdm::parser::parse_document_identified(&streamed).expect("identified output");

    // The server's copy now matches the client's offline copy, and the
    // streaming evaluation matches both.
    assert_eq!(
        pul::obtainable::canonical_string(client.document()),
        pul::obtainable::canonical_string(server.document()),
        "server and client converge"
    );
    assert_eq!(
        pul::obtainable::canonical_string(&streamed_doc),
        pul::obtainable::canonical_string(server.document()),
        "streaming and in-memory evaluation coincide"
    );
    println!("server and client documents converge ✓ (server now at v{})", server.version());
}
