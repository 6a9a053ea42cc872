//! Collaborative editing (§1): several producers check out the same document
//! and send their PULs back concurrently. The [`IngestQueue`] fronts the
//! executor session: every writer thread enqueues its update and gets a
//! ticket, the queue commits each drained batch as one aggregated PUL — so
//! contended updates take effect in enqueue order, as if committed one after
//! another — and each ticket reports the version its submission landed in.
//!
//! Run with `cargo run --example collaborative_editing`.

use std::thread;

use xmlpul::prelude::*;

fn main() {
    let session = Executor::parse(
        "<report><intro><para>Old intro</para></intro>\
         <methods><para>Old methods</para></methods>\
         <eval><para>Old numbers</para></eval>\
         <summary><para>Contended text</para></summary></report>",
    )
    .expect("well-formed document");
    let doc = session.document();
    let section_text = |name: &str| {
        let section = doc.find_element(name).unwrap();
        let para = doc.children(section).unwrap()[0];
        doc.children(para).unwrap()[0]
    };

    // Three writers edit disjoint sections — independent by label interval —
    // and two more rewrite the same summary paragraph — contended.
    let edits: Vec<(&str, Pul)> = vec![
        ("alice", {
            session.pul_from_ops(vec![UpdateOp::replace_value(
                section_text("intro"),
                "Alice rewrote the introduction.",
            )])
        }),
        ("bob", {
            session.pul_from_ops(vec![UpdateOp::replace_value(
                section_text("methods"),
                "Bob refreshed the methods.",
            )])
        }),
        ("carol", {
            let eval = doc.find_element("eval").unwrap();
            session.pul_from_ops(vec![UpdateOp::ins_last(
                eval,
                vec![Tree::element_with_text("figure", "throughput.png")],
            )])
        }),
        ("dave", {
            session.pul_from_ops(vec![UpdateOp::replace_value(
                section_text("summary"),
                "Dave's summary.",
            )])
        }),
        ("erin", {
            session.pul_from_ops(vec![UpdateOp::replace_value(
                section_text("summary"),
                "Erin's summary, sent last.",
            )])
        }),
    ];

    // One queue, many writer threads: `enqueue` is `&self`, so scoped threads
    // share the queue by reference. Each writer gets its ticket back
    // immediately and waits for the commit on its own. The two contended
    // summaries are enqueued from one thread, Dave's before Erin's, so their
    // order is known.
    let (independent, contended) = edits.split_at(3);
    let queue = IngestQueue::new(session);
    let outcomes: Vec<(String, Result<TicketOutcome>)> = thread::scope(|scope| {
        let queue = &queue;
        let handles: Vec<_> = independent
            .iter()
            .map(|(writer, pul)| {
                scope.spawn(move || {
                    let ticket = queue.enqueue(pul.clone()).expect("queue open");
                    (writer.to_string(), ticket.wait())
                })
            })
            .collect();
        let tickets: Vec<_> = contended
            .iter()
            .map(|(writer, pul)| (writer, queue.enqueue(pul.clone()).expect("queue open")))
            .collect();
        let mut outcomes: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("writer thread")).collect();
        outcomes.extend(tickets.into_iter().map(|(writer, t)| (writer.to_string(), t.wait())));
        outcomes
    });
    let session = queue.close().expect("ingest pipeline closed cleanly");

    println!("final document (v{}):\n  {}\n", session.version(), session.serialize());
    for (writer, outcome) in &outcomes {
        match outcome {
            Ok(o) => println!("{writer:>6}: committed in version {}", o.version),
            Err(e) => println!("{writer:>6}: failed — {e}"),
        }
    }

    // Every submission committed, and the later of the two summary rewrites
    // wins — whether both landed in one aggregated version or in two,
    // exactly as with sequential commits.
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
    let xml = session.serialize();
    assert!(xml.contains("Alice rewrote"));
    assert!(xml.contains("Bob refreshed"));
    assert!(xml.contains("throughput.png"));
    assert!(xml.contains("Erin's summary"), "the later submission wins");
    assert!(!xml.contains("Dave's summary"), "the earlier submission is overwritten");
    println!("\ncontended summary: Dave's went in first, Erin's last — Erin's wins.");
}
