//! Seeded randomized differential verification of the sharded executor.
//!
//! For every seeded case ([`workload::pulgen::differential_case`]: an XMark
//! document plus the PULs of 1–3 producers), the same submissions are
//! committed through a single [`Executor`] oracle and through
//! [`ShardedExecutor`] sessions at 1, 2, 4 and 8 shards. The sharded commit
//! must be **bit-identical** to the oracle's:
//!
//! * the reassembled document `deep_eq` the oracle's (same arena entries,
//!   same identifiers, same fresh-id counter),
//! * every Table-1 predicate of the shard labelings answers exactly as the
//!   oracle labeling (sampled over node pairs within each shard; sibling
//!   metadata at shard boundaries is shard-local by design and compared on
//!   the safe subset for pairs involving the root),
//! * every shard passes `assert_consistent`,
//! * and when the oracle rejects a commit, every sharded session rejects it
//!   too and is left untouched.
//!
//! Commits run with `preserve_content_ids` (the producer-side §4.1 identifier
//! discipline, which `differential_case` guarantees collision-free), so
//! identifier assignment is deterministic on both sides and `deep_eq` is
//! meaningful. The default suite covers 100 seeds; the `#[ignore]`d
//! many-iteration suite (run nightly in CI with `--ignored`) covers 400 more.

use pul::ApplyOptions;
use workload::pulgen::differential_case;
use xmlpul::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Producer-side apply options: parameter-tree identifiers preserved, so the
/// oracle and every sharded layout mint identical identifiers.
fn producer_options() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

/// Compares the Table-1 predicates of every shard labeling against the
/// oracle labeling, sampling at most ~4000 node pairs per shard so the cost
/// stays bounded on larger documents.
fn assert_table1_matches(sharded: &ShardedExecutor, oracle: &Executor, seed: u64, n: usize) {
    let ol = oracle.labeling();
    for k in 0..sharded.shard_count() {
        let core = sharded.shard(k);
        let doc = core.document();
        let l = core.labeling();
        let root = doc.root().expect("shards keep a root");
        let nodes = doc.preorder_from_root();
        let step = (nodes.len() * nodes.len() / 4_000).max(1);
        let mut idx = 0usize;
        for &a in &nodes {
            for &b in &nodes {
                idx += 1;
                if !idx.is_multiple_of(step) {
                    continue;
                }
                let ctx = format!("seed {seed}, {n} shards, shard {k}, pair ({a},{b})");
                if a == root || b == root {
                    // The shard root carries a synthetic interval narrowed to
                    // the shard slice; the containment predicates still answer
                    // globally, the sibling metadata is shard-local by design.
                    assert_eq!(l.precedes(a, b), ol.precedes(a, b), "precedes {ctx}");
                    assert_eq!(l.is_child(a, b), ol.is_child(a, b), "child {ctx}");
                    assert_eq!(l.is_attribute(a, b), ol.is_attribute(a, b), "attr {ctx}");
                    assert_eq!(l.is_descendant(a, b), ol.is_descendant(a, b), "desc {ctx}");
                    continue;
                }
                assert_eq!(l.precedes(a, b), ol.precedes(a, b), "precedes {ctx}");
                assert_eq!(l.is_left_sibling(a, b), ol.is_left_sibling(a, b), "leftsib {ctx}");
                assert_eq!(l.is_child(a, b), ol.is_child(a, b), "child {ctx}");
                assert_eq!(l.is_attribute(a, b), ol.is_attribute(a, b), "attr {ctx}");
                assert_eq!(l.is_first_child(a, b), ol.is_first_child(a, b), "first {ctx}");
                assert_eq!(l.is_last_child(a, b), ol.is_last_child(a, b), "last {ctx}");
                assert_eq!(l.is_descendant(a, b), ol.is_descendant(a, b), "desc {ctx}");
                assert_eq!(
                    l.is_descendant_not_attr(a, b),
                    ol.is_descendant_not_attr(a, b),
                    "nda {ctx}"
                );
            }
        }
    }
}

/// Runs one seeded case through the oracle and every shard count.
fn run_case(seed: u64) {
    let case = differential_case(seed);

    let mut oracle =
        Executor::new(case.doc.clone()).policy(Policy::relaxed()).apply_options(producer_options());
    for pul in &case.puls {
        oracle.submit(pul.clone());
    }
    let oracle_outcome = oracle.commit();

    for n in SHARD_COUNTS {
        let mut sharded = ShardedExecutor::new(case.doc.clone(), n)
            .expect("sharding a rooted document succeeds")
            .policy(Policy::relaxed())
            .apply_options(producer_options());
        for pul in &case.puls {
            sharded.submit(pul.clone());
        }
        let outcome = sharded.commit();
        match (&oracle_outcome, &outcome) {
            (Ok(oracle_report), Ok(report)) => {
                // The sharded resolution may keep a few more operations than
                // the oracle's: the global final reduce can merge sibling-gap
                // pairs (I18/IR19/IR20) that straddle a shard boundary, which
                // the per-shard reduces cannot see. Those merges are
                // result-neutral — both forms insert into the same gap in the
                // same order — so the committed *documents* must still be
                // bit-identical; only fewer merges may happen, never more.
                assert!(
                    report.applied_ops >= oracle_report.applied_ops,
                    "seed {seed}, {n} shards: sharded resolution dropped ops \
                     ({} vs oracle {})",
                    report.applied_ops,
                    oracle_report.applied_ops
                );
                assert!(
                    sharded.document().deep_eq(oracle.document()),
                    "seed {seed}, {n} shards: committed documents differ\n sharded: {}\n  oracle: {}",
                    sharded.serialize(),
                    oracle.serialize()
                );
                sharded.assert_consistent();
                assert_table1_matches(&sharded, &oracle, seed, n);
            }
            (Err(oe), Err(se)) => {
                // Both sides reject: the sharded session must be untouched
                // (every applied shard rolled back) exactly like the oracle.
                assert!(
                    sharded.document().deep_eq(oracle.document()),
                    "seed {seed}, {n} shards: rejected commit left different documents \
                     (oracle: {oe}, sharded: {se})"
                );
                assert_eq!(sharded.version(), 0);
                sharded.assert_consistent();
            }
            (ok, err) => panic!(
                "seed {seed}, {n} shards: oracle and sharded disagree on the outcome \
                 (oracle: {ok:?}, sharded: {err:?})"
            ),
        }
    }
}

/// The pinned-seed suite run by the main CI test job: 100 seeded
/// document/PUL pairs, each committed at 1, 2, 4 and 8 shards.
#[test]
fn sharded_commit_equals_single_executor_100_seeds() {
    for seed in 0..100 {
        run_case(seed);
    }
}

/// Nightly-style extension: 400 further seeds. Run with
/// `cargo test --release --test randomized_differential -- --ignored`.
#[test]
#[ignore = "many-iteration differential sweep; run nightly with --ignored"]
fn sharded_commit_equals_single_executor_many_iterations() {
    for seed in 100..500 {
        run_case(seed);
    }
}
