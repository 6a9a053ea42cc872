//! Compaction differential verification: seeded churn workloads on both
//! backends ([`Executor`] and a 2-shard [`ShardedExecutor`]), then
//! `compact()` — the renumbering must be **invisible in content and visible
//! only in identifiers**:
//!
//! * the canonical serialization before and after compaction is identical,
//!   the Table-1 predicates answer like a fresh labeling assignment, and
//!   `assert_consistent` holds at every layer while `slab_stats` reports
//!   zero dead slots, zero spill entries and the bumped epoch;
//! * submissions admitted before the epoch bump are fenced with the stable
//!   `XPUL-E10` code (withdrawing them un-wedges the session);
//! * durably, the epoch record commits through the WAL: `Durable::open`
//!   recovers the compacted session bit-identically and `read_at`
//!   materialises every version on both sides of the epoch boundary;
//! * a fault injected during compaction (sink failure, torn WAL append)
//!   leaves session *and* store on the pre-compaction version — compaction
//!   is atomic at the epoch-record commit point;
//! * a caller that compacts whenever churn crosses a dead-slot threshold
//!   brings the dead ratio back below it, and recovers bit-identically;
//! * work generated after a compaction commits through a fresh ingest queue
//!   (close the queue → `compact()` → a new `IngestQueue`).

use std::fs;
use std::path::PathBuf;

use workload::pulgen::generate_pul;
use workload::{PulGenConfig, XmarkConfig};
use xlabel::Labeling;
use xmlpul::prelude::*;
use xmlpul::{fault_site as site, Durable, DurableBackend, DurableOptions};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlpul_compact_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Options that never checkpoint on their own.
fn quiet_opts() -> DurableOptions {
    DurableOptions {
        checkpoint_wal_bytes: u64::MAX,
        checkpoint_dead_ratio: f64::INFINITY,
        ..DurableOptions::default()
    }
}

/// Asserts two labelings answer every Table-1 predicate identically on every
/// node pair of `doc` (order keys may differ, the relations may not).
fn assert_table1_equivalent(doc: &xdm::Document, got: &Labeling, fresh: &Labeling, ctx: &str) {
    let nodes = doc.preorder_from_root();
    assert_eq!(got.len(), fresh.len(), "{ctx}: labeled population");
    for &a in &nodes {
        for &b in &nodes {
            assert_eq!(got.precedes(a, b), fresh.precedes(a, b), "{ctx}: precedes({a},{b})");
            assert_eq!(got.is_child(a, b), fresh.is_child(a, b), "{ctx}: child({a},{b})");
            assert_eq!(got.is_attribute(a, b), fresh.is_attribute(a, b), "{ctx}: attr({a},{b})");
            assert_eq!(got.is_descendant(a, b), fresh.is_descendant(a, b), "{ctx}: desc({a},{b})");
            assert_eq!(
                got.is_left_sibling(a, b),
                fresh.is_left_sibling(a, b),
                "{ctx}: leftsib({a},{b})"
            );
            assert_eq!(
                got.is_first_child(a, b),
                fresh.is_first_child(a, b),
                "{ctx}: first({a},{b})"
            );
            assert_eq!(got.is_last_child(a, b), fresh.is_last_child(a, b), "{ctx}: last({a},{b})");
            assert_eq!(
                got.is_descendant_not_attr(a, b),
                fresh.is_descendant_not_attr(a, b),
                "{ctx}: nda({a},{b})"
            );
        }
    }
}

/// What the differential needs from a backend, over and above
/// [`DurableBackend`].
trait CompactBackend: DurableBackend + Clone {
    const TAG: &'static str;
    fn from_doc(doc: Document) -> Self;
    fn submit_pul(&mut self, pul: Pul) -> SubmissionId;
    fn resolve_round(&self) -> Result<()>;
    fn commit_round(&mut self) -> Result<u64>;
    fn withdraw_sub(&mut self, id: SubmissionId) -> Result<Pul>;
    fn run_compact(&mut self) -> Result<CompactionReport>;
    fn cur_epoch(&self) -> u64;
    fn stats(&self) -> SessionSlabStats;
    fn xml(&self) -> String;
    fn check_consistent(&self);
    /// Bit-identical state: same arena entries, identifiers and labels.
    fn assert_deep_eq(&self, other: &Self, ctx: &str);
    /// The live labeling answers Table 1 like a fresh assignment would.
    fn check_table1(&self, ctx: &str);
}

impl CompactBackend for Executor {
    const TAG: &'static str = "exec";
    fn from_doc(doc: Document) -> Self {
        Executor::new(doc)
    }
    fn submit_pul(&mut self, pul: Pul) -> SubmissionId {
        self.submit(pul)
    }
    fn resolve_round(&self) -> Result<()> {
        self.resolve().map(|_| ())
    }
    fn commit_round(&mut self) -> Result<u64> {
        self.commit().map(|r| r.version)
    }
    fn withdraw_sub(&mut self, id: SubmissionId) -> Result<Pul> {
        self.withdraw(id)
    }
    fn run_compact(&mut self) -> Result<CompactionReport> {
        self.compact()
    }
    fn cur_epoch(&self) -> u64 {
        self.epoch()
    }
    fn stats(&self) -> SessionSlabStats {
        self.slab_stats()
    }
    fn xml(&self) -> String {
        self.serialize()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn assert_deep_eq(&self, other: &Self, ctx: &str) {
        assert_eq!(self.version(), other.version(), "{ctx}: version");
        assert_eq!(self.epoch(), other.epoch(), "{ctx}: epoch");
        assert!(self.document().deep_eq(other.document()), "{ctx}: document");
        assert!(self.labeling().deep_eq(other.labeling()), "{ctx}: labeling");
    }
    fn check_table1(&self, ctx: &str) {
        let fresh = Labeling::assign(self.document());
        assert_table1_equivalent(self.document(), self.labeling(), &fresh, ctx);
    }
}

impl CompactBackend for ShardedExecutor {
    const TAG: &'static str = "shard";
    fn from_doc(doc: Document) -> Self {
        let xml = xdm::writer::write_document(&doc);
        ShardedExecutor::parse(&xml, 2).expect("shardable differential document")
    }
    fn submit_pul(&mut self, pul: Pul) -> SubmissionId {
        self.submit(pul)
    }
    fn resolve_round(&self) -> Result<()> {
        self.resolve().map(|_| ())
    }
    fn commit_round(&mut self) -> Result<u64> {
        self.commit().map(|r| r.version)
    }
    fn withdraw_sub(&mut self, id: SubmissionId) -> Result<Pul> {
        self.withdraw(id)
    }
    fn run_compact(&mut self) -> Result<CompactionReport> {
        self.compact()
    }
    fn cur_epoch(&self) -> u64 {
        self.epoch()
    }
    fn stats(&self) -> SessionSlabStats {
        self.slab_stats()
    }
    fn xml(&self) -> String {
        self.serialize()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn assert_deep_eq(&self, other: &Self, ctx: &str) {
        assert_eq!(self.version(), other.version(), "{ctx}: version");
        assert_eq!(self.epoch(), other.epoch(), "{ctx}: epoch");
        assert_eq!(self.shard_count(), other.shard_count(), "{ctx}: shard count");
        for k in 0..self.shard_count() {
            assert!(
                self.shard(k).document().deep_eq(other.shard(k).document()),
                "{ctx}: shard {k} document"
            );
            assert!(
                self.shard(k).labeling().deep_eq(other.shard(k).labeling()),
                "{ctx}: shard {k} labeling"
            );
        }
    }
    fn check_table1(&self, ctx: &str) {
        for k in 0..self.shard_count() {
            let doc = self.shard(k).document();
            let fresh = Labeling::assign(doc);
            assert_table1_equivalent(
                doc,
                self.shard(k).labeling(),
                &fresh,
                &format!("{ctx}: shard {k}"),
            );
        }
    }
}

/// Commits `rounds` generated PULs against `backend` and an oracle
/// [`Executor`] kept in lockstep (the generator always sees the current
/// document whatever the backend under test is). Both sides must agree on
/// every accept/reject decision.
fn churn<B: CompactBackend>(backend: &mut B, oracle: &mut Executor, seed: u64, rounds: usize) {
    let mut round = 0usize;
    let mut attempts = 0usize;
    while round < rounds && attempts < rounds * 4 {
        attempts += 1;
        let pul = generate_pul(
            oracle.document(),
            oracle.labeling(),
            &PulGenConfig {
                n_ops: 4,
                reducible_ratio: 0.2,
                content_id_base: oracle.document().next_id() + 50_000 * (attempts as u64 + 1),
                seed: seed.wrapping_mul(613).wrapping_add(attempts as u64),
            },
        );
        oracle.submit(pul.clone());
        let oracle_ok = oracle.commit().is_ok();
        backend.submit_pul(pul);
        match backend.commit_round() {
            Ok(_) => {
                assert!(oracle_ok, "seed {seed}: backend committed what the oracle rejected");
                round += 1;
            }
            Err(_) => {
                assert!(!oracle_ok, "seed {seed}: backend rejected what the oracle committed");
            }
        }
    }
    assert!(round > 0, "seed {seed}: no PUL committed in {attempts} attempts");
}

fn seed_doc(seed: u64) -> Document {
    workload::generate_xmark(&XmarkConfig {
        target_nodes: 48 + (seed as usize % 4) * 14,
        seed: seed.wrapping_mul(131).wrapping_add(7),
    })
}

/// Churn, compact, and check the renumbering is invisible: same
/// serialization, Table-1-equivalent labeling, dense slabs, bumped epoch —
/// then keep committing under the new epoch.
fn structural_identity_case<B: CompactBackend>(seed: u64) {
    let ctx = format!("{} seed {seed}", B::TAG);
    let doc = seed_doc(seed);
    let mut oracle = Executor::new(doc.clone());
    let mut backend = B::from_doc(doc);
    churn(&mut backend, &mut oracle, seed, 6);

    let before_xml = backend.xml();
    let before_version = backend.current_version();
    let before = backend.stats();
    // A fresh construction from the same content is the densest layout this
    // backend can represent (0 dead for a single executor; the sharded
    // partition keeps its structural gaps). Compaction must reach it.
    let pristine = B::from_doc(xdm::parser::parse_document(&before_xml).unwrap()).stats();
    assert!(
        before.nodes.dead > pristine.nodes.dead,
        "{ctx}: churn must strand reclaimable dead slots: {before:?} vs {pristine:?}"
    );
    assert_eq!(before.epoch, 0, "{ctx}: epoch starts at zero");

    let report = backend.run_compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
    assert_eq!(report.epoch, 1, "{ctx}: first compaction opens epoch 1");
    assert_eq!(report.version, before_version + 1, "{ctx}: compaction commits a version");
    assert_eq!(report.before.nodes.dead, before.nodes.dead, "{ctx}: report.before");
    assert_eq!(report.after.nodes.dead, pristine.nodes.dead, "{ctx}: dense node arena");
    assert_eq!(report.after.nodes.spill, pristine.nodes.spill, "{ctx}: node spill");
    assert_eq!(report.after.labels.dead, pristine.labels.dead, "{ctx}: dense labeling");
    assert_eq!(report.after.labels.spill, pristine.labels.spill, "{ctx}: label spill");
    assert_eq!(pristine.nodes.spill, 0, "{ctx}: pristine layout spills nodes");
    assert_eq!(pristine.labels.spill, 0, "{ctx}: pristine layout spills labels");

    assert_eq!(backend.xml(), before_xml, "{ctx}: compaction changed the document");
    assert_eq!(backend.cur_epoch(), 1, "{ctx}: session epoch");
    let after = backend.stats();
    assert_eq!(after.epoch, 1, "{ctx}: slab_stats reports the epoch");
    assert_eq!(after.nodes.dead, pristine.nodes.dead, "{ctx}: slab_stats dead");
    backend.check_consistent();
    backend.check_table1(&ctx);

    // Compacting a dense session is a no-op renumbering: still identical.
    let again = backend.run_compact().unwrap_or_else(|e| panic!("{ctx}: recompact: {e}"));
    assert_eq!(again.epoch, 2, "{ctx}: epochs are monotone");
    assert_eq!(again.before.nodes.dead, pristine.nodes.dead, "{ctx}: nothing left to reclaim");
    assert_eq!(backend.xml(), before_xml, "{ctx}: idempotent content");

    // The session keeps working under the new epoch; the oracle compacts in
    // lockstep so generated identifiers keep lining up.
    oracle.compact().unwrap();
    oracle.compact().unwrap();
    churn(&mut backend, &mut oracle, seed.wrapping_add(9), 3);
    assert_eq!(backend.xml(), oracle.serialize(), "{ctx}: post-epoch commits diverged");
    backend.check_consistent();
}

#[test]
fn compaction_preserves_structure_after_seeded_churn() {
    for seed in 0..3 {
        structural_identity_case::<Executor>(seed);
        structural_identity_case::<ShardedExecutor>(seed);
    }
}

/// Submissions admitted before `compact()` are fenced with `XPUL-E10`;
/// withdrawing them un-wedges the session for current-epoch work.
fn fencing_case<B: CompactBackend>() {
    let ctx = format!("{} fencing", B::TAG);
    let doc = seed_doc(11);
    let mut oracle = Executor::new(doc.clone());
    let mut backend = B::from_doc(doc);

    let stale_pul = generate_pul(
        oracle.document(),
        oracle.labeling(),
        &PulGenConfig {
            n_ops: 3,
            reducible_ratio: 0.0,
            content_id_base: oracle.document().next_id() + 50_000,
            seed: 23,
        },
    );
    let stale = backend.submit_pul(stale_pul);
    backend.run_compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
    oracle.compact().unwrap();

    let err = backend.resolve_round().unwrap_err();
    assert_eq!(err.code(), "XPUL-E10", "{ctx}: resolve must fence: {err}");
    let err = backend.commit_round().unwrap_err();
    assert_eq!(err.code(), "XPUL-E10", "{ctx}: commit must fence: {err}");

    // The fenced producer re-syncs: withdraw, regenerate against the
    // compacted document, resubmit under the current epoch.
    backend.withdraw_sub(stale).unwrap_or_else(|e| panic!("{ctx}: withdraw: {e}"));
    churn(&mut backend, &mut oracle, 37, 2);
    assert_eq!(backend.xml(), oracle.serialize(), "{ctx}: post-fence commits diverged");
}

#[test]
fn pre_epoch_submissions_fail_with_e10() {
    fencing_case::<Executor>();
    fencing_case::<ShardedExecutor>();
}

/// Commits `rounds` PULs durably, recording `(version, clone, xml)` after
/// every successful commit.
fn durable_churn<B: CompactBackend>(
    durable: &mut Durable<B>,
    oracle: &mut Executor,
    seed: u64,
    rounds: usize,
    history: &mut Vec<(u64, B, String)>,
) {
    let mut round = 0usize;
    let mut attempts = 0usize;
    while round < rounds && attempts < rounds * 4 {
        attempts += 1;
        let pul = generate_pul(
            oracle.document(),
            oracle.labeling(),
            &PulGenConfig {
                n_ops: 4,
                reducible_ratio: 0.2,
                content_id_base: oracle.document().next_id() + 50_000 * (attempts as u64 + 1),
                seed: seed.wrapping_mul(613).wrapping_add(attempts as u64),
            },
        );
        oracle.submit(pul.clone());
        let oracle_ok = oracle.commit().is_ok();
        durable.submit_pul(pul);
        match durable.commit_round() {
            Ok(version) => {
                assert!(oracle_ok, "seed {seed}: backend committed what the oracle rejected");
                history.push((version, durable.backend().clone(), durable.xml()));
                round += 1;
            }
            Err(_) => {
                assert!(!oracle_ok, "seed {seed}: backend rejected what the oracle committed");
            }
        }
    }
    assert!(round > 0, "seed {seed}: no PUL committed in {attempts} attempts");
}

/// Durable compaction: the epoch record commits through the WAL, reopen
/// recovers the compacted session bit-identically, and `read_at` works on
/// both sides of the epoch boundary.
fn durable_epoch_case<B: CompactBackend>(seed: u64) {
    let ctx = format!("{} durable seed {seed}", B::TAG);
    let root = tmp_root(&format!("dur_{}_{seed}", B::TAG));
    let store_dir = root.join("store");
    let doc = seed_doc(seed);
    let mut oracle = Executor::new(doc.clone());
    let mut durable = Durable::create(&store_dir, B::from_doc(doc), quiet_opts()).unwrap();
    let mut history: Vec<(u64, B, String)> = Vec::new();

    durable_churn(&mut durable, &mut oracle, seed, 4, &mut history);

    let report = durable.compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
    assert_eq!(report.epoch, 1, "{ctx}: epoch");
    history.push((report.version, durable.backend().clone(), durable.xml()));
    oracle.compact().unwrap();

    durable_churn(&mut durable, &mut oracle, seed.wrapping_add(1), 3, &mut history);

    let live = durable.backend().clone();
    drop(durable);

    let reopened: Durable<B> = Durable::open(&store_dir, quiet_opts())
        .unwrap_or_else(|e| panic!("{ctx}: reopen across the epoch record: {e}"));
    reopened.backend().assert_deep_eq(&live, &format!("{ctx}: reopen"));
    assert_eq!(reopened.backend().cur_epoch(), 1, "{ctx}: epoch survives recovery");
    reopened.backend().check_consistent();

    // Point-in-time reads materialise every version, pre- and post-epoch —
    // through the full restore (`restore_at`) and the pinned snapshot
    // (`read_at`), which must agree.
    for (version, reference, xml) in &history {
        let at = reopened
            .restore_at(*version)
            .unwrap_or_else(|e| panic!("{ctx}: restore_at({version}): {e}"));
        assert_eq!(&at.xml(), xml, "{ctx}: restore_at({version}) serialization");
        at.assert_deep_eq(reference, &format!("{ctx}: restore_at({version})"));
        at.check_consistent();
        let snap =
            reopened.read_at(*version).unwrap_or_else(|e| panic!("{ctx}: read_at({version}): {e}"));
        assert_eq!(&snap.serialize(), xml, "{ctx}: read_at({version}) snapshot serialization");
        snap.assert_consistent();
    }

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn durable_open_and_read_at_recover_across_the_epoch_record() {
    for seed in 0..2 {
        durable_epoch_case::<Executor>(seed);
        durable_epoch_case::<ShardedExecutor>(seed);
    }
}

/// Reclaimable churn: dead node slots above `floor` per live node. `floor`
/// is the dead count of the backend's densest layout (see
/// `structural_identity_case`): a sharded session's partition gaps are dead
/// slots no renumbering frees.
fn churn_ratio(stats: SessionSlabStats, floor: usize) -> f64 {
    stats.nodes.dead.saturating_sub(floor) as f64 / stats.nodes.live.max(1) as f64
}

/// Threshold-driven compaction: the caller compacts (`Durable::compact`)
/// once churn strands enough reclaimable dead slots, and the dead ratio
/// returns below the threshold.
fn threshold_compaction_case<B: CompactBackend>(seed: u64) {
    let ctx = format!("{} threshold seed {seed}", B::TAG);
    let threshold = 0.05;
    let root = tmp_root(&format!("auto_{}_{seed}", B::TAG));
    let store_dir = root.join("store");
    let doc = seed_doc(seed);
    let mut oracle = Executor::new(doc.clone());
    let mut durable = Durable::create(&store_dir, B::from_doc(doc), quiet_opts()).unwrap();
    let mut floor = durable.backend().stats().nodes.dead;

    let mut attempts = 0u64;
    while durable.backend().cur_epoch() == 0 && attempts < 64 {
        attempts += 1;
        let pul = generate_pul(
            oracle.document(),
            oracle.labeling(),
            &PulGenConfig {
                n_ops: 4,
                reducible_ratio: 0.2,
                content_id_base: oracle.document().next_id() + 50_000 * (attempts + 1),
                seed: seed.wrapping_mul(977).wrapping_add(attempts),
            },
        );
        oracle.submit(pul.clone());
        let oracle_ok = oracle.commit().is_ok();
        durable.submit_pul(pul);
        match durable.commit_durable() {
            Ok(_) => assert!(oracle_ok, "{ctx}: backend committed what the oracle rejected"),
            Err(_) => {
                assert!(!oracle_ok, "{ctx}: backend rejected what the oracle committed");
                continue;
            }
        }
        // Compact in lockstep with the oracle so generated identifiers keep
        // lining up with the renumbered backend.
        if churn_ratio(durable.backend().stats(), floor) >= threshold {
            durable.compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
            oracle.compact().unwrap();
            floor = durable.backend().stats().nodes.dead;
        }
    }
    assert!(
        durable.backend().cur_epoch() >= 1,
        "{ctx}: the threshold was never crossed in {attempts} commits"
    );
    let pristine = B::from_doc(xdm::parser::parse_document(&durable.xml()).unwrap()).stats();
    let ratio = churn_ratio(durable.backend().stats(), pristine.nodes.dead);
    assert!(ratio < threshold, "{ctx}: dead ratio must fall back below the threshold: {ratio}");
    assert_eq!(durable.xml(), oracle.serialize(), "{ctx}: content diverged");
    durable.backend().check_consistent();

    let live = durable.backend().clone();
    drop(durable);
    let reopened: Durable<B> =
        Durable::open(&store_dir, quiet_opts()).unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
    reopened.backend().assert_deep_eq(&live, &format!("{ctx}: reopen"));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn auto_compaction_brings_dead_ratio_back_below_threshold() {
    threshold_compaction_case::<Executor>(3);
    threshold_compaction_case::<ShardedExecutor>(3);
}

/// A fault injected during compaction leaves session and store on the
/// pre-compaction version; recovery and a later fault-free compaction both
/// work.
fn faulted_compaction_case<B: CompactBackend>(fault_site: &'static str, kind: FaultKind) {
    let ctx = format!("{} fault {fault_site:?}/{kind:?}", B::TAG);
    let root = tmp_root(&format!("fault_{}_{}_{kind:?}", B::TAG, fault_site.replace('.', "_")));
    let store_dir = root.join("store");
    let doc = seed_doc(5);
    let mut oracle = Executor::new(doc.clone());
    let mut durable = Durable::create(&store_dir, B::from_doc(doc), quiet_opts()).unwrap();
    let mut history: Vec<(u64, B, String)> = Vec::new();
    durable_churn(&mut durable, &mut oracle, 5, 3, &mut history);

    let pre = durable.backend().clone();
    durable.inject_faults(FaultPlan::new(7).fail(fault_site, Trigger::Nth(1), kind).arm());
    let err = durable.compact().unwrap_err();
    assert!(err.code().starts_with("XPUL-"), "{ctx}: unstable failure code: {err}");
    durable.backend().assert_deep_eq(&pre, &format!("{ctx}: session after failed compact"));
    assert_eq!(durable.backend().cur_epoch(), 0, "{ctx}: epoch unchanged");
    durable.backend().check_consistent();

    // The store never saw a complete epoch record: reopening lands on the
    // pre-compaction version bit-identically (healing any torn tail).
    drop(durable);
    let mut reopened: Durable<B> = Durable::open(&store_dir, quiet_opts())
        .unwrap_or_else(|e| panic!("{ctx}: reopen after failed compact: {e}"));
    reopened.backend().assert_deep_eq(&pre, &format!("{ctx}: store after failed compact"));

    // With the fault gone, compaction succeeds and survives another reopen.
    let report = reopened.compact().unwrap_or_else(|e| panic!("{ctx}: retry compact: {e}"));
    assert_eq!(report.epoch, 1, "{ctx}: epoch after retried compaction");
    let live = reopened.backend().clone();
    drop(reopened);
    let recovered: Durable<B> = Durable::open(&store_dir, quiet_opts())
        .unwrap_or_else(|e| panic!("{ctx}: reopen after retried compact: {e}"));
    recovered.backend().assert_deep_eq(&live, &format!("{ctx}: final reopen"));
    assert_eq!(recovered.backend().cur_epoch(), 1, "{ctx}: epoch recovered");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn fault_during_compaction_leaves_the_pre_compaction_version() {
    faulted_compaction_case::<Executor>(site::WAL_APPEND, FaultKind::Permanent);
    faulted_compaction_case::<Executor>(site::WAL_APPEND, FaultKind::Torn);
    faulted_compaction_case::<ShardedExecutor>(site::WAL_APPEND, FaultKind::Permanent);
    faulted_compaction_case::<ShardedExecutor>(site::WAL_APPEND, FaultKind::Torn);
}

/// Ingest across a compaction: a batch commits through the queue, the queue
/// is closed, the session compacts, and work generated against the compacted
/// document commits through a fresh queue under the new epoch.
#[test]
fn ingest_after_compaction_commits_through_a_fresh_queue() {
    let ctx = "ingest across a compaction";
    let root = tmp_root("ingest");
    let store_dir = root.join("store");
    let doc = seed_doc(13);
    // Content oracle: the same ingest pipeline over a plain executor with
    // compaction out of the picture. Aggregating a batch of overlapping
    // PULs is order-sensitive, so the reference must go through the same
    // pipeline — only then does "compaction changed nothing but identifiers"
    // reduce to a serialization comparison.
    let gen_base = Executor::new(doc.clone());
    let durable = Durable::create(&store_dir, Executor::new(doc.clone()), quiet_opts()).unwrap();

    // Round 1: one aggregated batch of churny PULs.
    let queue = IngestQueue::new(durable);
    let twin = IngestQueue::new(Executor::new(doc));
    let puls: Vec<Pul> = (0..6u64)
        .map(|i| {
            generate_pul(
                gen_base.document(),
                gen_base.labeling(),
                &PulGenConfig {
                    n_ops: 3,
                    reducible_ratio: 0.2,
                    content_id_base: gen_base.document().next_id() + 50_000 * (i + 1),
                    seed: 271 + i,
                },
            )
        })
        .collect();
    let batch = queue.enqueue_all(puls.clone()).expect("queue open");
    let twin_batch = twin.enqueue_all(puls).expect("twin open");
    queue.flush();
    twin.flush();
    for (i, ticket) in batch.iter().enumerate() {
        ticket.wait().unwrap_or_else(|e| panic!("{ctx}: round-1 ticket {i} rejected: {e}"));
    }
    for (i, ticket) in twin_batch.iter().enumerate() {
        ticket.wait().unwrap_or_else(|e| panic!("{ctx}: round-1 twin ticket {i} rejected: {e}"));
    }
    let mut durable = queue.close().unwrap();
    let twin = twin.close().unwrap();
    let round1_xml = durable.backend().serialize();
    assert_eq!(round1_xml, twin.serialize(), "{ctx}: round-1 content");

    // The queue is closed, so nothing in flight was minted against the old
    // numbering: compact between the two queues.
    let report = durable.compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
    assert_eq!(report.epoch, 1, "{ctx}: compaction opens epoch 1");
    assert_eq!(durable.backend().serialize(), round1_xml, "{ctx}: compaction changed content");
    durable.backend().assert_consistent();

    // Round 2 under the new epoch: producers re-synced to the compacted
    // document are admitted normally — no E10, no wedged queue. A fresh
    // parse of the round-1 serialization assigns the same preorder
    // identifiers the renumbering did, so it doubles as the round-2 oracle.
    let mut resynced = Executor::new(xdm::parser::parse_document(&round1_xml).unwrap());
    let pul = generate_pul(
        resynced.document(),
        resynced.labeling(),
        &PulGenConfig {
            n_ops: 3,
            reducible_ratio: 0.0,
            content_id_base: resynced.document().next_id() + 900_000,
            seed: 941,
        },
    );
    let queue = IngestQueue::new(durable);
    let ticket = queue.enqueue(pul.clone()).expect("queue open");
    resynced.submit(pul);
    resynced.commit().unwrap();
    queue.flush();
    ticket.wait().unwrap_or_else(|e| panic!("{ctx}: post-epoch ticket rejected: {e}"));
    let durable = queue.close().unwrap();
    assert_eq!(durable.backend().serialize(), resynced.serialize(), "{ctx}: round-2 content");

    // And the whole run — commits, epoch record, more commits — recovers.
    let live = durable.backend().clone();
    drop(durable);
    let reopened: Durable<Executor> = Durable::open(&store_dir, quiet_opts()).unwrap();
    reopened.backend().assert_deep_eq(&live, &format!("{ctx}: reopen"));
    fs::remove_dir_all(&root).unwrap();
}

/// Thousands of commits, compacting whenever the dead ratio reaches 0.3: the
/// long-haul churn sweep, run nightly with `--ignored`.
#[test]
#[ignore = "churn sweep with thousands of commits; run nightly with --ignored"]
fn churn_sweep_through_auto_compaction() {
    for seed in 0..4u64 {
        let ctx = format!("churn sweep seed {seed}");
        let root = tmp_root(&format!("sweep_{seed}"));
        let store_dir = root.join("store");
        let doc = seed_doc(seed);
        let mut oracle = Executor::new(doc.clone());
        let mut durable = Durable::create(
            &store_dir,
            Executor::new(doc),
            DurableOptions { checkpoint_wal_bytes: 1 << 20, ..DurableOptions::default() },
        )
        .unwrap();
        let mut committed = 0u64;
        for attempt in 0..1500u64 {
            let pul = generate_pul(
                oracle.document(),
                oracle.labeling(),
                &PulGenConfig {
                    n_ops: 4,
                    reducible_ratio: 0.2,
                    content_id_base: oracle.document().next_id() + 50_000 * (attempt + 1),
                    seed: seed.wrapping_mul(613).wrapping_add(attempt),
                },
            );
            oracle.submit(pul.clone());
            let oracle_ok = oracle.commit().is_ok();
            durable.submit_pul(pul);
            match durable.commit_durable() {
                Ok(_) => assert!(oracle_ok, "{ctx}: backend committed what the oracle rejected"),
                Err(_) => {
                    assert!(!oracle_ok, "{ctx}: backend rejected what the oracle committed");
                    continue;
                }
            }
            committed += 1;
            if durable.slab_stats().nodes.dead_ratio() >= 0.3 {
                durable.compact().unwrap_or_else(|e| panic!("{ctx}: compact: {e}"));
                oracle.compact().unwrap();
            }
        }
        assert!(committed > 1000, "{ctx}: only {committed} commits landed");
        assert!(
            durable.backend().epoch() >= 2,
            "{ctx}: sustained churn must compact repeatedly (epoch {})",
            durable.backend().epoch()
        );
        assert!(durable.slab_stats().nodes.dead_ratio() < 0.3, "{ctx}: dead ratio");
        assert_eq!(durable.serialize(), oracle.serialize(), "{ctx}: content diverged");
        durable.backend().assert_consistent();
        let live = durable.backend().clone();
        drop(durable);
        let reopened: Durable<Executor> =
            Durable::open(&store_dir, DurableOptions::default()).unwrap();
        assert_eq!(reopened.backend().version(), live.version(), "{ctx}: recovered version");
        assert!(reopened.backend().document().deep_eq(live.document()), "{ctx}: recovered doc");
        fs::remove_dir_all(&root).unwrap();
    }
}
