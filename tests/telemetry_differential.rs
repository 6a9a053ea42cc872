//! Differential verification of the unified telemetry layer.
//!
//! Telemetry must be a pure observer. For every seeded case, the same
//! submissions are committed through two identical stacks — one with an armed
//! [`Telemetry`] handle, one disabled — and the results must be
//! **bit-identical** (`deep_eq`: same arena entries, same identifiers), with
//! every Table-1 predicate agreeing, on both backends. On top of neutrality:
//!
//! * the completion counters must reconcile exactly with the ticket outcomes
//!   of a batched ingest run (committed + failed = completed, and
//!   the commit counter equals the distinct committed versions);
//! * the bounded event journal must drop oldest-first, keep strictly
//!   increasing sequence numbers and never tear a record under concurrent
//!   writers;
//! * a sticky degraded flip (XPUL-E09) must be readable from the journal
//!   *without waiting for the next failing commit* — the PR 10 regression;
//! * every commit the apply journal rewinds — a failed apply, a sharded
//!   abort, a failed WAL append — counts exactly one rollback;
//! * the text exposition must be deterministic (golden rendering).

mod common;

use std::path::PathBuf;

use common::enqueue_in_batches;
use pul::ApplyOptions;
use workload::pulgen::differential_case_with;
use xmlpul::prelude::*;
use xmlpul::{fault_site as site, Durable, DurableOptions, EVENT_JOURNAL_CAP};

const SEEDS: u64 = 6;
const PRODUCERS: usize = 10;

fn producer_options() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlpul_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Samples Table-1 predicate agreement between two labelings (the armed run
/// against the disabled oracle), over at most ~2000 node pairs.
fn assert_table1_matches(nodes: &[xdm::NodeId], l: &Labeling, ol: &Labeling, ctx: &str) {
    let step = (nodes.len() * nodes.len() / 2_000).max(1);
    let mut idx = 0usize;
    for &a in nodes {
        for &b in nodes {
            idx += 1;
            if !idx.is_multiple_of(step) {
                continue;
            }
            let ctx = format!("{ctx}, pair ({a},{b})");
            assert_eq!(l.precedes(a, b), ol.precedes(a, b), "precedes {ctx}");
            assert_eq!(l.is_child(a, b), ol.is_child(a, b), "child {ctx}");
            assert_eq!(l.is_descendant(a, b), ol.is_descendant(a, b), "desc {ctx}");
            assert_eq!(l.is_left_sibling(a, b), ol.is_left_sibling(a, b), "leftsib {ctx}");
            assert_eq!(l.is_first_child(a, b), ol.is_first_child(a, b), "first {ctx}");
            assert_eq!(l.is_last_child(a, b), ol.is_last_child(a, b), "last {ctx}");
        }
    }
}

/// One `submit → resolve → commit` round trip; failed submissions withdrawn.
fn commit_one(session: &mut Executor, pul: Pul) -> Result<()> {
    let id = session.submit(pul);
    match session.resolve().and_then(|r| session.commit_resolution(r)) {
        Ok(_) => Ok(()),
        Err(e) => {
            session.withdraw(id).expect("failed submissions stay pending");
            Err(e)
        }
    }
}

fn commit_one_sharded(session: &mut ShardedExecutor, pul: Pul) -> Result<()> {
    let id = session.submit(pul);
    match session.resolve().and_then(|r| session.commit_resolution(r)) {
        Ok(_) => Ok(()),
        Err(e) => {
            session.withdraw(id).expect("failed submissions stay pending");
            Err(e)
        }
    }
}

/// Armed and disabled runs must produce bit-identical documents, identical
/// outcomes, and agreeing Table-1 predicates — on the single executor and on
/// the sharded executor.
#[test]
fn armed_telemetry_is_behavior_neutral() {
    for seed in 0..SEEDS {
        let case = differential_case_with(seed, PRODUCERS);

        // ---- single executor ---------------------------------------------
        let mut plain = Executor::new(case.doc.clone())
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        let mut armed = Executor::new(case.doc.clone())
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        armed.set_telemetry(Telemetry::enabled());
        for (i, pul) in case.puls.iter().enumerate() {
            let a = commit_one(&mut plain, pul.clone());
            let b = commit_one(&mut armed, pul.clone());
            assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "seed {seed}, producer {i}: armed run diverged ({a:?} vs {b:?})"
            );
        }
        assert!(
            armed.document().deep_eq(plain.document()),
            "seed {seed}: armed executor document diverged"
        );
        assert_eq!(armed.version(), plain.version());
        armed.assert_consistent();
        let nodes = armed.document().preorder_from_root();
        assert_table1_matches(
            &nodes,
            armed.labeling(),
            plain.labeling(),
            &format!("seed {seed}, executor"),
        );
        let snapshot = armed.telemetry_snapshot();
        let metrics = snapshot.metrics.expect("armed session freezes a registry");
        assert_eq!(metrics.commits, armed.version(), "every commit counted exactly once");

        // ---- sharded executor ---------------------------------------------
        let mut plain = ShardedExecutor::new(case.doc.clone(), 4)
            .expect("rooted document shards")
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        let mut armed = ShardedExecutor::new(case.doc.clone(), 4)
            .expect("rooted document shards")
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        armed.set_telemetry(Telemetry::enabled());
        for (i, pul) in case.puls.iter().enumerate() {
            let a = commit_one_sharded(&mut plain, pul.clone());
            let b = commit_one_sharded(&mut armed, pul.clone());
            assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "seed {seed}, producer {i}: armed sharded run diverged"
            );
        }
        assert!(
            armed.document().as_ref().deep_eq(plain.document().as_ref()),
            "seed {seed}: armed sharded document diverged"
        );
        assert_eq!(armed.version(), plain.version());
        armed.assert_consistent();
        let metrics = armed.telemetry_snapshot().metrics.expect("registry armed");
        assert_eq!(metrics.commits, armed.version());
    }
}

/// The completion counters reconcile exactly with what the tickets report,
/// on both ingest backends.
#[test]
fn ingest_counters_reconcile_with_ticket_outcomes() {
    for seed in 0..SEEDS {
        let case = differential_case_with(seed, PRODUCERS);
        for sharded in [false, true] {
            let telemetry = Telemetry::enabled();
            let config = IngestConfig { telemetry: telemetry.clone(), ..IngestConfig::default() };
            let tickets: Vec<Ticket> = if sharded {
                let mut backend = ShardedExecutor::new(case.doc.clone(), 4)
                    .expect("rooted document shards")
                    .policy(Policy::relaxed())
                    .apply_options(producer_options());
                backend.set_telemetry(telemetry.clone());
                let queue = IngestQueue::with_config(backend, config);
                let tickets = enqueue_in_batches(&queue, &case.puls, 4);
                queue.close().unwrap();
                tickets
            } else {
                let mut backend = Executor::new(case.doc.clone())
                    .policy(Policy::relaxed())
                    .apply_options(producer_options());
                backend.set_telemetry(telemetry.clone());
                let queue = IngestQueue::with_config(backend, config);
                let tickets = enqueue_in_batches(&queue, &case.puls, 4);
                queue.close().unwrap();
                tickets
            };

            let mut ok_versions = std::collections::BTreeSet::new();
            let mut ok = 0u64;
            let mut failed = 0u64;
            for ticket in &tickets {
                match ticket.wait() {
                    Ok(outcome) => {
                        ok += 1;
                        ok_versions.insert(outcome.version);
                    }
                    Err(_) => failed += 1,
                }
            }
            let m = telemetry.snapshot().expect("registry armed");
            let ctx = format!("seed {seed}, sharded {sharded}");
            assert_eq!(m.tickets_committed, ok, "{ctx}: committed counter");
            assert_eq!(m.tickets_failed, failed, "{ctx}: failed counter");
            assert_eq!(m.tickets_shed, 0, "{ctx}: no shedding in this workload");
            assert_eq!(
                m.commits,
                ok_versions.len() as u64,
                "{ctx}: every successful commit mints exactly one version"
            );
            assert!(
                m.rounds_coalesced + m.rounds_serialized > 0,
                "{ctx}: at least one round was formed"
            );
            assert_eq!(
                m.ticket_latency_ns.count,
                ok + failed,
                "{ctx}: every completed ticket observed its latency"
            );
        }
    }
}

/// The journal ring is bounded, drops oldest-first, keeps sequence numbers
/// strictly increasing and never interleaves the fields of one record with
/// another, even when many threads push concurrently (as producers, the
/// ingest pipeline thread and the store all share one journal in a live
/// stack).
#[test]
fn journal_drops_oldest_first_without_tearing() {
    let telemetry = Telemetry::enabled();
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 200;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let telemetry = telemetry.clone();
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let version = w * 10_000 + i;
                    telemetry.event(EventKind::Commit, version, || format!("committed v{version}"));
                }
            });
        }
    });
    let events = telemetry.recent_events();
    assert_eq!(events.len(), EVENT_JOURNAL_CAP, "ring filled to its cap");
    assert_eq!(
        telemetry.events_dropped(),
        WRITERS * PER_WRITER - EVENT_JOURNAL_CAP as u64,
        "everything beyond the cap was evicted oldest-first"
    );
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "sequence numbers strictly increase in ring order");
    }
    for ev in &events {
        assert_eq!(ev.kind, EventKind::Commit);
        assert_eq!(
            ev.detail,
            format!("committed v{}", ev.version),
            "record fields never tear across concurrent pushes"
        );
    }
}

/// PR 10 regression: the sticky degraded flip is journaled at the moment it
/// happens. Before, the transition was observable only by the *next* failing
/// commit returning XPUL-E09; now the journal carries a `Degraded` event (and
/// the transition counter) as soon as the retry budget is exhausted.
#[test]
fn degraded_transition_is_journaled_immediately() {
    let dir = tmp_dir("degraded");
    let mut durable =
        Durable::create(&dir, Executor::parse("<r><a/></r>").unwrap(), DurableOptions::default())
            .unwrap();
    let telemetry = Telemetry::enabled();
    durable.set_telemetry(telemetry.clone());
    let faults =
        FaultPlan::new(7).fail(site::WAL_APPEND, Trigger::EveryNth(1), FaultKind::Transient).arm();
    durable.inject_faults(faults.clone());

    let a = durable.document().find_element("a").unwrap();
    let pul = durable.pul_from_ops(vec![UpdateOp::rename(a, "b")]);
    durable.submit(pul);
    let err = durable.commit_durable().unwrap_err();
    assert_eq!(err.code(), "XPUL-E09", "retry exhaustion degrades the session: {err}");
    assert!(durable.is_degraded());

    // The flip itself is observable from the journal right now — no second
    // failing commit needed.
    let m = telemetry.snapshot().expect("registry armed");
    assert_eq!(m.degraded_transitions, 1, "exactly one flip recorded");
    assert_eq!(faults.injected_at(site::WAL_APPEND), 5, "1 attempt plus 4 retries");
    assert_eq!(m.retry_attempts, 4, "the exhausted retries were counted");
    let degraded: Vec<_> =
        telemetry.recent_events().into_iter().filter(|e| e.kind == EventKind::Degraded).collect();
    assert_eq!(degraded.len(), 1, "one transition event: {degraded:?}");
    assert_eq!(degraded[0].kind.code(), Some("XPUL-E09"));
    assert!(
        degraded[0].detail.contains("read-only"),
        "the event explains the mode: {}",
        degraded[0].detail
    );

    // Sticky: a second refused commit re-reports the error but records no
    // second transition.
    let err = durable.commit_durable().unwrap_err();
    assert_eq!(err.code(), "XPUL-E09");
    let m = telemetry.snapshot().expect("registry armed");
    assert_eq!(m.degraded_transitions, 1, "the flip is recorded once, not per refusal");

    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The duplicate-`insA` shape of `journal_rollback`'s mid-failing PUL: the
/// rename and the value replacement apply, then the second `year` attribute
/// fails the apply mid-way and the insertion after it never runs. Under two
/// shards the first paper's shard has applied when the second paper's fails.
fn mid_failing_ops(doc: &Document) -> Vec<UpdateOp> {
    let papers = doc.find_elements("paper");
    let title = doc.find_elements("title")[0];
    let text = doc.children(title).unwrap()[0];
    vec![
        UpdateOp::rename(title, "heading"),
        UpdateOp::replace_value(text, "changed"),
        UpdateOp::ins_attributes(
            papers[1],
            vec![Tree::attribute("year", "2004"), Tree::attribute("year", "2005")],
        ),
        UpdateOp::ins_last(papers[0], vec![Tree::element_with_text("note", "never")]),
    ]
}

/// Every commit the apply journal rewinds counts one rollback: a mid-apply
/// failure on both backends, and a failed WAL append (not counted twice).
#[test]
fn every_rewound_commit_counts_one_rollback() {
    const DOC: &str = "<issue><paper><title>T</title></paper><paper/></issue>";
    let rollbacks = |telemetry: &Telemetry| {
        let m = telemetry.snapshot().expect("registry armed");
        (m.rollbacks, m.commits)
    };

    let mut single = Executor::parse(DOC).unwrap();
    single.set_telemetry(Telemetry::enabled());
    let pul = single.pul_from_ops(mid_failing_ops(single.document()));
    single.submit(pul);
    assert_eq!(single.commit().unwrap_err().code(), "XPUL-P03");
    assert_eq!(rollbacks(single.telemetry()), (1, 0), "executor mid-apply failure");

    let mut sharded = ShardedExecutor::parse(DOC, 2).unwrap();
    sharded.set_telemetry(Telemetry::enabled());
    let pul = sharded.pul_from_ops(mid_failing_ops(&sharded.document()));
    sharded.submit(pul);
    assert_eq!(sharded.commit().unwrap_err().code(), "XPUL-P03");
    assert_eq!(rollbacks(sharded.telemetry()), (1, 0), "sharded two-phase abort");

    let dir = tmp_dir("rollbacks");
    let mut durable =
        Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default()).unwrap();
    durable.set_telemetry(Telemetry::enabled());
    durable.inject_faults(
        FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Permanent).arm(),
    );
    let title = durable.document().find_elements("title")[0];
    let pul = durable.pul_from_ops(vec![UpdateOp::rename(title, "heading")]);
    durable.submit(pul);
    assert_eq!(durable.commit().unwrap_err().code(), "XPUL-E07");
    assert_eq!(rollbacks(durable.telemetry()), (1, 0), "failed WAL append");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden rendering: the exposition is deterministic, in registry order, and
/// carries the session's structural statistics as gauges.
#[test]
fn render_text_is_deterministic_and_golden() {
    let mut session = Executor::parse("<r><a/><b/></r>").unwrap();
    session.set_telemetry(Telemetry::enabled());
    let a = session.document().find_element("a").unwrap();
    let pul = session.pul_from_ops(vec![UpdateOp::rename(a, "x")]);
    session.submit(pul);
    session.commit().unwrap();

    let snapshot = session.telemetry_snapshot();
    let text = snapshot.render_text();
    assert_eq!(text, session.telemetry_snapshot().render_text(), "rendering is deterministic");

    // Golden fragments: exact exposition lines for a known counter state.
    assert!(text.contains(
        "# HELP xmlpul_commits Commits published (any surface, merged ingest rounds count once).\n\
         # TYPE xmlpul_commits counter\n\
         xmlpul_commits 1\n"
    ));
    assert!(text.contains(
        "# HELP xmlpul_rounds_coalesced Ingest batches of two or more submissions, \
         committed as one aggregate.\n\
         # TYPE xmlpul_rounds_coalesced counter\n\
         xmlpul_rounds_coalesced 0\n\
         # HELP xmlpul_rounds_serialized Ingest batches of a single submission.\n"
    ));
    assert!(text.contains("# TYPE xmlpul_commit_ns summary\n"));
    assert!(text.contains("xmlpul_commit_ns_count 1\n"));
    assert!(text.contains("# TYPE xmlpul_queue_depth gauge\nxmlpul_queue_depth 0\n"));
    // Structural gauges from the unified snapshot.
    assert!(text.contains("# TYPE xmlpul_slab_nodes_live gauge\n"));
    assert!(text.contains("xmlpul_events_dropped 0\n"));

    // The registry renders in declaration order: counters, gauges, summaries.
    let commits_at = text.find("xmlpul_commits ").unwrap();
    let gauge_at = text.find("xmlpul_queue_depth ").unwrap();
    let summary_at = text.find("xmlpul_commit_ns{").unwrap();
    assert!(commits_at < gauge_at && gauge_at < summary_at);

    // The snapshot carries the slab statistics and no pool or cache series.
    assert_eq!(snapshot.slab, session.slab_stats());
    assert!(!text.contains("xmlpul_pool_"), "pool gauges are gone");
    assert!(!text.contains("xmlpul_reduction"), "reduction-cache gauges are gone");
}
