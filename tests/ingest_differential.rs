//! Seeded differential verification of the batched ingestion pipeline.
//!
//! For every seeded case ([`ingest_case`]: the
//! [`workload::pulgen::differential_case_with`] XMark document and the PULs
//! of a dozen random producers, behind six dependent pairs of producers
//! whose second PUL reads what the first changed), the same submissions are
//! committed
//!
//! * **sequentially** through a single [`Executor`] oracle — one
//!   `submit → resolve → commit` round trip per producer, failed commits
//!   withdrawn, exactly what a queue-less server loop would do — and
//! * **batched** through an [`IngestQueue`] in batches of 1, 4 and 16 (each
//!   chunk sent with [`IngestQueue::enqueue_all`] once the previous one has
//!   settled), over both backends ([`Executor`] and a 4-shard
//!   [`ShardedExecutor`]).
//!
//! Whether a batch commits as one aggregate or degrades to singleton
//! commits, the committed document must be **bit-identical** to the
//! oracle's (`deep_eq`: same arena entries, same identifiers), every Table-1
//! predicate of the final labeling must answer as the oracle's, every
//! session must pass `assert_consistent`, and each ticket must succeed or
//! fail exactly as the oracle's corresponding sequential commit did.
//!
//! A separate fuzz drives a poison PUL (mid-apply dynamic failure) through
//! every position of an aggregated batch and asserts that only the poison
//! ticket errors while the document rewinds cleanly around it.
//!
//! Commits run with `preserve_content_ids` (the §4.1 producer identifier
//! discipline, collision-free by construction), so identifier assignment is
//! deterministic on both sides and `deep_eq` is meaningful.

mod common;

use common::enqueue_in_batches;
use pul::ApplyOptions;
use workload::pulgen::{differential_case_with, DifferentialCase};
use xdm::parser::parse_fragment_with_first_id;
use xmlpul::prelude::*;

const CI_SEEDS: u64 = 20;
const NIGHTLY_SEEDS: std::ops::Range<u64> = 100..200;
const PRODUCERS: usize = 12;
const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Producer-side apply options: parameter-tree identifiers preserved, so the
/// oracle and every batched run mint identical identifiers.
fn producer_options() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

/// The seeded case: the document and random producers of
/// [`differential_case_with`], behind six *dependent pairs* of producers
/// whose second PUL reads what the first changed — the sequences where
/// committing a batch as one aggregate (Def. 13) can go wrong:
///
/// 0. `{ins↓(v, a), ins↘(v, b)}` then `{ins↓(v, c)}`, and
/// 1. the same with `ins↙`: each member must be reduced before aggregation;
/// 2. an insertion into `v`, then one into the inserted tree (rule D6);
/// 3. `del(v)` then an operation on `v`, and
/// 4. `del(v)` then one on a child of `v`, and
/// 5. `repC(v)` then one on a child of `v`: each second PUL fails in sequence.
///
/// The pairs come first, in that order, on pairwise disjoint subtrees, so at
/// batch size 4 pairs 0–1 share a batch that commits as one aggregate, and
/// each later batch of pairs holds a member that must fail alone.
fn ingest_case(seed: u64) -> DifferentialCase {
    let DifferentialCase { doc, puls: random } = differential_case_with(seed, PRODUCERS);
    let first_element_child = |v: xdm::NodeId| {
        doc.children(v).ok()?.iter().copied().find(|&c| doc.kind(c) == Ok(NodeKind::Element))
    };
    // Elements below the top-level sections with an element child, smallest
    // subtree first (ties in a seeded order), picked greedily so no two nest.
    let sections = doc.root().map(|r| doc.children(r).unwrap().to_vec()).unwrap_or_default();
    let mut candidates: Vec<xdm::NodeId> = doc
        .preorder_from_root()
        .into_iter()
        .filter(|&v| Some(v) != doc.root() && !sections.contains(&v))
        .filter(|&v| first_element_child(v).is_some())
        .collect();
    candidates
        .sort_by_key(|&v| (doc.preorder(v).len(), v.as_u64().wrapping_mul(0x9e37_79b9) ^ seed));
    let mut targets: Vec<xdm::NodeId> = Vec::new();
    for v in candidates {
        if targets.len() < 6
            && targets.iter().all(|&t| !doc.is_descendant_of(v, t) && !doc.is_descendant_of(t, v))
        {
            targets.push(v);
        }
    }
    assert_eq!(targets.len(), 6, "seed {seed}: six disjoint subtrees for the dependent pairs");

    let mut next_id = doc.next_id() + 1_000_000 * (PRODUCERS as u64 + 1);
    let mut tree = || {
        let t = parse_fragment_with_first_id("<new><label>pair</label></new>", next_id).unwrap();
        next_id += t.size() as u64;
        t
    };
    let labeling = Labeling::assign(&doc);
    let mut puls = Vec::with_capacity(12 + random.len());
    for (pair, &v) in targets.iter().enumerate() {
        let child = first_element_child(v).expect("candidates have an element child");
        let (first, second) = match pair {
            0 => (
                vec![UpdateOp::ins_into(v, vec![tree()]), UpdateOp::ins_last(v, vec![tree()])],
                vec![UpdateOp::ins_into(v, vec![tree()])],
            ),
            1 => (
                vec![UpdateOp::ins_into(v, vec![tree()]), UpdateOp::ins_first(v, vec![tree()])],
                vec![UpdateOp::ins_into(v, vec![tree()])],
            ),
            2 => {
                let inserted = tree();
                let root = inserted.root_id();
                (
                    vec![UpdateOp::ins_last(v, vec![inserted])],
                    vec![UpdateOp::ins_last(root, vec![tree()])],
                )
            }
            3 => (vec![UpdateOp::delete(v)], vec![UpdateOp::rename(v, "gone")]),
            4 => (vec![UpdateOp::delete(v)], vec![UpdateOp::rename(child, "gone")]),
            _ => (
                vec![UpdateOp::replace_content(v, Some("emptied".into()))],
                vec![UpdateOp::rename(child, "gone")],
            ),
        };
        puls.push(Pul::from_ops(first, &labeling));
        puls.push(Pul::from_ops(second, &labeling));
    }
    puls.extend(random);
    DifferentialCase { doc, puls }
}

/// Samples Table-1 predicate agreement between a labeling under test and the
/// oracle labeling, over at most ~4000 node pairs. Pairs involving `skip_root`
/// (the synthetic shard-root label, whose sibling metadata is shard-local by
/// design) are compared on the containment predicates only.
fn assert_table1_matches(
    nodes: &[xdm::NodeId],
    l: &Labeling,
    ol: &Labeling,
    skip_root: Option<xdm::NodeId>,
    ctx: &str,
) {
    let step = (nodes.len() * nodes.len() / 4_000).max(1);
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
            assert_eq!(l.is_attribute(a, b), ol.is_attribute(a, b), "attr {ctx}");
            assert_eq!(l.is_descendant(a, b), ol.is_descendant(a, b), "desc {ctx}");
            if Some(a) == skip_root || Some(b) == skip_root {
                continue;
            }
            assert_eq!(l.is_left_sibling(a, b), ol.is_left_sibling(a, b), "leftsib {ctx}");
            assert_eq!(l.is_first_child(a, b), ol.is_first_child(a, b), "first {ctx}");
            assert_eq!(l.is_last_child(a, b), ol.is_last_child(a, b), "last {ctx}");
            assert_eq!(
                l.is_descendant_not_attr(a, b),
                ol.is_descendant_not_attr(a, b),
                "nda {ctx}"
            );
        }
    }
}

/// The sequential oracle: one `submit → resolve → commit` round trip per
/// producer, in order; a failed commit is withdrawn (the producer is told,
/// the rest continue). Returns the session and the per-producer outcome.
fn sequential_oracle(case: &workload::pulgen::DifferentialCase) -> (Executor, Vec<Option<String>>) {
    let mut oracle =
        Executor::new(case.doc.clone()).policy(Policy::relaxed()).apply_options(producer_options());
    let mut outcomes = Vec::with_capacity(case.puls.len());
    for pul in &case.puls {
        let id = oracle.submit(pul.clone());
        match oracle.resolve().and_then(|r| oracle.commit_resolution(r)) {
            Ok(_) => outcomes.push(None),
            Err(e) => {
                oracle.withdraw(id).expect("failed submissions stay pending");
                outcomes.push(Some(e.code().to_string()));
            }
        }
    }
    (oracle, outcomes)
}

/// Runs one seeded case through the oracle and every batch size × backend.
fn run_case(seed: u64) {
    let case = ingest_case(seed);
    let (oracle, oracle_outcomes) = sequential_oracle(&case);
    let pair_failures: Vec<usize> = (0..12).filter(|&i| oracle_outcomes[i].is_some()).collect();
    assert_eq!(
        pair_failures,
        [7, 9, 11],
        "seed {seed}: in sequence, exactly the removal pairs fail"
    );

    for batch in BATCH_SIZES {
        // ---- single-executor backend -------------------------------------
        let backend = Executor::new(case.doc.clone())
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        let queue = IngestQueue::new(backend);
        let tickets = enqueue_in_batches(&queue, &case.puls, batch);
        let session = queue.close().unwrap();
        assert_outcomes_match(&tickets, &oracle_outcomes, seed, batch, "executor");
        assert!(
            session.document().deep_eq(oracle.document()),
            "seed {seed}, batch {batch}, executor backend: documents differ\n  batched: {}\n   oracle: {}",
            session.serialize(),
            oracle.serialize()
        );
        session.assert_consistent();
        let nodes = session.document().preorder_from_root();
        assert_table1_matches(
            &nodes,
            session.labeling(),
            oracle.labeling(),
            None,
            &format!("seed {seed}, batch {batch}, executor"),
        );

        // ---- sharded backend ---------------------------------------------
        let backend = ShardedExecutor::new(case.doc.clone(), 4)
            .expect("rooted document shards")
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        let queue = IngestQueue::new(backend);
        let tickets = enqueue_in_batches(&queue, &case.puls, batch);
        let session = queue.close().unwrap();
        assert_outcomes_match(&tickets, &oracle_outcomes, seed, batch, "sharded");
        assert!(
            session.document().deep_eq(oracle.document()),
            "seed {seed}, batch {batch}, sharded backend: documents differ\n  batched: {}\n   oracle: {}",
            session.serialize(),
            oracle.serialize()
        );
        session.assert_consistent();
        for k in 0..session.shard_count() {
            let core = session.shard(k);
            let nodes = core.document().preorder_from_root();
            assert_table1_matches(
                &nodes,
                core.labeling(),
                oracle.labeling(),
                core.document().root(),
                &format!("seed {seed}, batch {batch}, shard {k}"),
            );
        }
    }
}

/// Every ticket must succeed or fail exactly as the oracle's sequential
/// commit of the same producer did. Failures are compared on outcome only,
/// not on the error code: a multi-problem PUL may surface a different first
/// error depending on apply order (the sharded backend validates per shard
/// slice), the same divergence the PR 4 differential suite accepts.
fn assert_outcomes_match(
    tickets: &[Ticket],
    oracle: &[Option<String>],
    seed: u64,
    batch: usize,
    backend: &str,
) {
    for (i, (ticket, expected)) in tickets.iter().zip(oracle).enumerate() {
        let got = ticket.wait();
        match (got, expected) {
            (Ok(_), None) => {}
            (Err(_), Some(_)) => {}
            (got, expected) => panic!(
                "seed {seed}, batch {batch}, {backend}: producer {i} diverged from the \
                 sequential oracle (batched: {got:?}, oracle: {expected:?})"
            ),
        }
    }
}

/// The pinned-seed suite run by the main CI test job.
#[test]
fn batched_ingest_equals_sequential_commits() {
    for seed in 0..CI_SEEDS {
        run_case(seed);
    }
}

/// Nightly-style extension over further seeds. Run with
/// `cargo test --release --test ingest_differential -- --ignored`.
#[test]
#[ignore = "many-iteration ingest differential sweep; run nightly with --ignored"]
fn batched_ingest_equals_sequential_commits_many_iterations() {
    for seed in NIGHTLY_SEEDS {
        run_case(seed);
    }
}

/// Mid-batch commit-failure fuzz: a poison PUL (duplicate attribute
/// insertion — a dynamic error that fires *mid-apply*, after sibling
/// operations already touched the document) is driven through every position
/// of a batch of independent updates. Only the poison ticket may error, the
/// other submissions must all commit, and the final document must equal the
/// oracle's document without the poison — i.e. the failing round's document
/// journal rolled back cleanly and nothing else was disturbed.
#[test]
fn mid_batch_commit_failure_fails_only_its_own_ticket() {
    // ids: lib=1, b1=2..b6: six disjoint single-element subtrees
    let xml = "<lib><b1/><b2/><b3/><b4/><b5/><b6/></lib>";
    let good_ops = |session: &Executor| -> Vec<Pul> {
        (0..5)
            .map(|i| {
                let target = session.document().find_element(&format!("b{}", i + 1)).unwrap();
                session.pul_from_ops(vec![UpdateOp::rename(target, format!("good{i}"))])
            })
            .collect()
    };
    for poison_at in 0..=5 {
        let session = Executor::parse(xml).unwrap();
        let b6 = session.document().find_element("b6").unwrap();
        let poison = session.pul_from_ops(vec![UpdateOp::ins_attributes(
            b6,
            vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
        )]);
        let mut puls = good_ops(&session);
        puls.insert(poison_at, poison);

        let queue = IngestQueue::new(session);
        let tickets = queue.enqueue_all(puls).expect("queue open");
        let session = queue.close().unwrap();

        for (i, ticket) in tickets.iter().enumerate() {
            if i == poison_at {
                let err = ticket.wait().unwrap_err();
                assert_eq!(err.code(), "XPUL-P03", "poison at {poison_at}: {err}");
            } else {
                ticket.wait().unwrap_or_else(|e| {
                    panic!("poison at {poison_at}: good ticket {i} failed: {e}")
                });
            }
        }
        // the document equals the oracle's without the poison
        let mut oracle = Executor::parse(xml).unwrap();
        for pul in good_ops(&oracle) {
            oracle.submit(pul);
            oracle.commit().unwrap();
        }
        assert!(
            session.serialize() == oracle.serialize(),
            "poison at {poison_at}: document diverged\n  batched: {}\n   oracle: {}",
            session.serialize(),
            oracle.serialize()
        );
        session.assert_consistent();
        assert_eq!(session.pending(), 0, "failed submissions are discarded");
    }
}
