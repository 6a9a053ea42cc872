//! Differential verification of the journaled O(change) rollback against a
//! snapshot oracle, through the public session API.
//!
//! No commit path clones the session: atomicity comes from the document's
//! apply journal (mutations record their inverses; a failure replays them in
//! reverse), and the labeling is patched only after the commit point, so a
//! failed commit never touches it. These tests clone the session *in test
//! code* — the oracle the journal replaced — and assert that after a
//! mid-apply failure, a sharded abort, or a failed WAL append (single or
//! sharded) that rolls an applied commit back, the session is bit-identical
//! to the oracle: `deep_eq` on document and labeling, and every Table-1
//! predicate answering identically on every node pair.

use std::path::PathBuf;

use pul::UpdateOp;
use xdm::Tree;
use xmlpul::prelude::*;
use xmlpul::{fault_site, DurableBackend};

fn issue_session() -> Executor {
    Executor::parse(
        "<issue volume=\"30\" number=\"3\">\
           <paper><title>Database Replication</title><author>A.Chaudhri</author></paper>\
           <paper id=\"x\"><title>XML Views</title><authors><author>B.Catania</author>\
           <author>G.Guerrini</author></authors></paper>\
         </issue>",
    )
    .unwrap()
}

/// Asserts that every Table-1 predicate of `session` answers exactly as in
/// `oracle`, over every ordered pair of the oracle's nodes.
fn assert_table1_identical(session: &Executor, oracle: &Executor) {
    let nodes = oracle.document().preorder_from_root();
    assert_eq!(session.document().preorder_from_root(), nodes, "different node sets");
    assert_predicates_identical(&nodes, session.labeling(), oracle.labeling());
}

/// Asserts that every Table-1 predicate answers the same under `l` as under
/// `ol`, over every ordered pair of `nodes`.
fn assert_predicates_identical(nodes: &[NodeId], l: &Labeling, ol: &Labeling) {
    for &a in nodes {
        for &b in nodes {
            assert_eq!(l.precedes(a, b), ol.precedes(a, b), "precedes({a},{b})");
            assert_eq!(l.is_left_sibling(a, b), ol.is_left_sibling(a, b), "leftsib({a},{b})");
            assert_eq!(l.is_child(a, b), ol.is_child(a, b), "child({a},{b})");
            assert_eq!(l.is_attribute(a, b), ol.is_attribute(a, b), "attr({a},{b})");
            assert_eq!(l.is_first_child(a, b), ol.is_first_child(a, b), "first({a},{b})");
            assert_eq!(l.is_last_child(a, b), ol.is_last_child(a, b), "last({a},{b})");
            assert_eq!(l.is_descendant(a, b), ol.is_descendant(a, b), "desc({a},{b})");
            assert_eq!(
                l.is_descendant_not_attr(a, b),
                ol.is_descendant_not_attr(a, b),
                "nda({a},{b})"
            );
        }
    }
}

/// Full bit-identical comparison: documents, labelings, Table-1 predicates.
fn assert_sessions_identical(session: &Executor, oracle: &Executor) {
    assert!(session.document().deep_eq(oracle.document()), "documents differ");
    assert!(session.labeling().deep_eq(oracle.labeling()), "labelings differ");
    assert_eq!(session.version(), oracle.version());
    assert_table1_identical(session, oracle);
    session.assert_consistent();
}

/// Wraps `session` in a fresh durable store whose first WAL append fails
/// permanently: the next commit applies, then its append fails and the apply
/// journal rewinds it. Returns the store directory with the session.
fn durable_with_failing_append<B: DurableBackend>(tag: &str, session: B) -> (PathBuf, Durable<B>) {
    let dir =
        std::env::temp_dir().join(format!("xmlpul_journal_rollback_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
    durable.inject_faults(
        FaultPlan::new(1).fail(fault_site::WAL_APPEND, Trigger::Nth(1), FaultKind::Permanent).arm(),
    );
    (dir, durable)
}

/// A PUL that fails partway through a multi-op application: the stage-1 ops
/// (rename, replace-value) and the first attribute of the duplicate `insA`
/// apply before the dynamic error fires; the stage-2 insertion never runs.
fn mid_failing_pul(session: &Executor) -> pul::Pul {
    let doc = session.document();
    let paper1 = doc.find_elements("paper")[0];
    let paper2 = doc.find_elements("paper")[1];
    let title1 = doc.find_elements("title")[0];
    let text1 = *doc.children(title1).unwrap().first().unwrap();
    session.pul_from_ops(vec![
        UpdateOp::rename(title1, "heading"),
        UpdateOp::replace_value(text1, "changed"),
        UpdateOp::ins_attributes(
            paper2,
            vec![Tree::attribute("year", "2004"), Tree::attribute("year", "2005")],
        ),
        UpdateOp::ins_last(paper1, vec![Tree::element_with_text("note", "never")]),
    ])
}

#[test]
fn mid_apply_failure_rewinds_document_and_labeling() {
    let mut session = issue_session();
    let pul = mid_failing_pul(&session);
    session.submit(pul);
    let oracle = session.clone(); // the snapshot the journal replaced, test-side only

    let err = session.commit().unwrap_err();
    assert!(err.to_string().contains("year"), "the duplicate attribute caused the failure: {err}");
    assert_eq!(session.pending(), 1, "the failed submission stays pending");
    assert_sessions_identical(&session, &oracle);
}

#[test]
fn mid_apply_failure_after_withdrawal_commits_cleanly() {
    let mut session = issue_session();
    let bad = mid_failing_pul(&session);
    let bad_id = session.submit(bad);
    assert!(session.commit().is_err());
    session.withdraw(bad_id).unwrap();

    let pul = session.produce("rename node /issue/paper[last()]/title as \"heading\"").unwrap();
    session.submit(pul);
    session.commit().unwrap();
    session.assert_consistent();
    assert!(session.serialize().contains("<heading>XML Views</heading>"));
}

/// A commit that inserts, replaces a value and deletes a subtree applies in
/// full; its WAL append then fails, and the journal rewinds the applied
/// commit to the oracle. Nothing of it reaches the store: a reopen recovers
/// the oracle too.
#[test]
fn failed_wal_append_rewinds_bit_identical_to_the_oracle() {
    let session = issue_session();
    let oracle = session.clone();
    let (dir, mut durable) = durable_with_failing_append("oracle", session);
    let pul = durable
        .produce(
            "insert nodes <paper><title>New</title></paper> as last into /issue, \
             replace value of node /issue/@volume with \"31\", \
             delete node /issue/paper[1]",
        )
        .unwrap();
    durable.submit(pul);
    let err = durable.commit().unwrap_err();
    assert_eq!(err.code(), "XPUL-E07", "{err}");
    assert_eq!(durable.pending(), 1, "the rewound submission stays pending");
    assert_sessions_identical(durable.backend(), &oracle);
    drop(durable);
    let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
    assert_sessions_identical(recovered.backend(), &oracle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sharded twin of the test above: every shard applies its slice of a
/// cross-shard commit, the one `S` append fails, and every shard — document,
/// identifier counter and labeling — must equal the clone oracle, with every
/// Table-1 predicate answering identically, before and after a reopen.
#[test]
fn sharded_failed_wal_append_rewinds_every_shard_to_the_oracle() {
    const N_SHARDS: usize = 4;
    for seed in 0..3u64 {
        let doc =
            workload::xmark::generate(&workload::xmark::XmarkConfig { target_nodes: 400, seed });
        let labeling = Labeling::assign(&doc);
        let pul = workload::pulgen::generate_pul(
            &doc,
            &labeling,
            &workload::pulgen::PulGenConfig {
                n_ops: 16,
                reducible_ratio: 0.1,
                content_id_base: doc.next_id() + 1_000_000,
                seed,
            },
        );
        let session = ShardedExecutor::new(doc, N_SHARDS)
            .unwrap()
            .apply_options(ApplyOptions { validate: true, preserve_content_ids: true });
        let oracle = session.clone();
        let (dir, mut durable) = durable_with_failing_append(&format!("sharded{seed}"), session);
        durable.submit(pul);
        let touched =
            durable.resolve().unwrap().per_shard().iter().filter(|p| !p.is_empty()).count();
        assert!(touched >= 2, "seed {seed}: the PUL is not cross-shard");
        let err = durable.commit().unwrap_err();
        assert_eq!(err.code(), "XPUL-E07", "seed {seed}: {err}");
        assert_eq!(durable.pending(), 1, "the rolled-back submission stays pending");
        let assert_shards_identical = |session: &ShardedExecutor| {
            assert_eq!(session.version(), oracle.version());
            for j in 0..N_SHARDS {
                let (core, want) = (session.shard(j), oracle.shard(j));
                assert!(
                    core.document().deep_eq(want.document()),
                    "seed {seed}: shard {j} document differs"
                );
                assert!(
                    core.labeling().deep_eq(want.labeling()),
                    "seed {seed}: shard {j} labeling differs"
                );
                assert!(!core.document().journal_is_active(), "seed {seed}: shard {j} journal");
                let nodes = want.document().preorder_from_root();
                assert_eq!(core.document().preorder_from_root(), nodes);
                assert_predicates_identical(&nodes, core.labeling(), want.labeling());
            }
            session.assert_consistent();
        };
        assert_shards_identical(durable.backend());
        drop(durable);
        let recovered: Durable<ShardedExecutor> =
            Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_shards_identical(recovered.backend());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// sharded two-phase rollback fuzz
// ---------------------------------------------------------------------------

/// Fuzzes the sharded two-phase commit: for a randomized cross-shard PUL of
/// `m` operations, build one failing variant per operation index `k` — the
/// first `k` operations plus a poison operation (a duplicate attribute
/// insertion, a guaranteed dynamic error) aimed at a rotating shard — and
/// assert that the abort rolls **every** shard back to the
/// exact pre-commit state: `deep_eq` documents and labelings, version 0, no
/// journal left open. Varying `k` varies how much work precedes the failure;
/// rotating the poison shard varies how many shards have already applied
/// when the abort fires.
#[test]
fn sharded_two_phase_rollback_at_every_operation_index() {
    const N_SHARDS: usize = 4;
    for seed in 0..3u64 {
        let doc =
            workload::xmark::generate(&workload::xmark::XmarkConfig { target_nodes: 600, seed });
        let labeling = Labeling::assign(&doc);
        let pul = workload::pulgen::generate_pul(
            &doc,
            &labeling,
            &workload::pulgen::PulGenConfig {
                n_ops: 24,
                reducible_ratio: 0.1,
                content_id_base: doc.next_id() + 1_000_000,
                seed,
            },
        );
        let base = ShardedExecutor::new(doc.clone(), N_SHARDS)
            .unwrap()
            .apply_options(ApplyOptions { validate: true, preserve_content_ids: true });

        // The generated PUL must actually cross shards for the fuzz to mean
        // anything: check its resolution touches at least two shards.
        {
            let mut probe = base.clone();
            probe.submit(pul.clone());
            let touched =
                probe.resolve().unwrap().per_shard().iter().filter(|p| !p.is_empty()).count();
            assert!(touched >= 2, "seed {seed}: the fuzz PUL is not cross-shard");
        }

        // Per-shard element pools for poison targets (everything but the root).
        let shard_elements: Vec<Vec<NodeId>> = (0..N_SHARDS)
            .map(|k| {
                let d = base.shard(k).document();
                let root = d.root().unwrap();
                d.preorder_from_root()
                    .into_iter()
                    .filter(|&id| id != root && d.kind(id) == Ok(NodeKind::Element))
                    .collect()
            })
            .collect();

        for k in 0..=pul.len() {
            // Elements removed (or replaced) by the prefix would override the
            // poison during reduction (rules O1/O3) and defuse it — skip them.
            let mut shadowed: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
            for op in &pul.ops()[..k] {
                if matches!(
                    op.name(),
                    OpName::Delete | OpName::ReplaceNode | OpName::ReplaceContent
                ) {
                    shadowed.extend(doc.preorder(op.target()));
                }
            }
            let shard = k % N_SHARDS;
            let Some(&poison_target) =
                shard_elements[shard].iter().find(|id| !shadowed.contains(id))
            else {
                continue;
            };
            // Poison parameter trees need producer-style identifiers of their
            // own (identifiers are preserved on graft): two fresh attributes
            // with the same name — a guaranteed dynamic error mid-apply.
            let attr_tree = |first_id: u64, value: &str| {
                let mut d = Document::with_first_id(first_id);
                let a = d.new_attribute("poison", value);
                d.set_root(a).unwrap();
                Tree::from_document(d).unwrap()
            };
            let poison_base = doc.next_id() + 50_000_000;
            let mut ops: Vec<UpdateOp> = pul.ops()[..k].to_vec();
            ops.push(UpdateOp::ins_attributes(
                poison_target,
                vec![attr_tree(poison_base, "1"), attr_tree(poison_base + 1, "2")],
            ));
            let variant = Pul::from_ops(ops, &labeling);

            let mut session = base.clone();
            let oracle = base.clone();
            session.submit(variant);
            let err = session.commit().unwrap_err();
            assert_eq!(err.code(), "XPUL-P03", "seed {seed}, index {k}: {err}");
            for j in 0..N_SHARDS {
                assert!(
                    session.shard(j).document().deep_eq(oracle.shard(j).document()),
                    "seed {seed}, index {k}: shard {j} document not restored"
                );
                assert!(
                    session.shard(j).labeling().deep_eq(oracle.shard(j).labeling()),
                    "seed {seed}, index {k}: shard {j} labeling not restored"
                );
                assert_eq!(session.shard(j).version(), 0);
                assert!(
                    !session.shard(j).document().journal_is_active(),
                    "seed {seed}, index {k}: shard {j} journal left open"
                );
            }
            assert_eq!(session.version(), 0);
            assert_eq!(session.pending(), 1, "the failed submission stays pending");
            session.assert_consistent();
        }

        // After any of the aborted variants, the session stays fully usable:
        // the unpoisoned PUL commits cleanly on a fresh clone of the same base.
        let mut session = base.clone();
        session.submit(pul.clone());
        session.commit().unwrap();
        session.assert_consistent();
        assert_eq!(session.version(), 1);
    }
}

#[test]
fn rollback_scales_with_the_change_not_the_document() {
    // A large document, a tiny commit rewound after its failed WAL append:
    // the journal it replays must be proportional to the few ops applied,
    // not to the thousands of nodes.
    let doc =
        workload::xmark::generate(&workload::xmark::XmarkConfig { target_nodes: 20_000, seed: 7 });
    let node_count = doc.node_count();
    let session = Executor::new(doc);
    let oracle = session.clone();
    let (dir, mut durable) = durable_with_failing_append("scales", session);
    let target = durable.document().find_elements("item").pop().expect("XMark holds items");
    let pul = durable.pul_from_ops(vec![UpdateOp::ins_last(
        target,
        vec![Tree::element_with_text("note", "tiny")],
    )]);
    durable.submit(pul);
    assert!(durable.commit().is_err(), "the injected append fault fails the commit");
    assert!(durable.document().deep_eq(oracle.document()));
    assert!(durable.labeling().deep_eq(oracle.labeling()));
    durable.assert_consistent();
    // The fault is spent: the retry applies the same resolution, and its
    // report counts the journal entries the rewind replayed.
    let entries = durable.commit().unwrap().apply.journal.doc_entries;
    assert!(entries > 0);
    assert!(
        entries < node_count / 100,
        "journal entries ({entries}) must not scale with the document ({node_count} nodes)"
    );
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}
