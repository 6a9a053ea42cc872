//! The executor session API: one façade for the whole PUL pipeline.
//!
//! The paper's architecture (§4) centres on an *executor* that owns the
//! authoritative document, receives PULs from many producers, reasons on them
//! — reducing, integrating, reconciling, aggregating — and only touches the
//! document at commit time. [`Executor`] is that object:
//!
//! ```text
//!  producers ──submit()──▶ ┌──────────────────────────────┐
//!  (PULs, wire XML,        │  Executor session             │
//!   sequences, queries)    │   reduce ─ integrate ─        │──commit()──▶ Document'
//!                          │   reconcile ─ aggregate       │
//!                          └───────────resolve()───────────┘
//!                                        │
//!                                        ▼
//!                               Resolution (PUL + conflicts)
//! ```
//!
//! See the crate-level quick start for a complete tour.

use std::sync::Arc;

use pul::apply::{apply_pul, ApplyOptions, ApplyReport};
use pul::{Pul, UpdateOp};
use pul_core::reduce::{reduce_with, ReductionKind};
use pul_core::{aggregate, integrate, reconcile_integration, Policy};
use pul_telemetry::Telemetry;
use xdm::{parser, writer, Document, JournalGuard};
use xlabel::Labeling;

use crate::durable::CommitRecord;
use crate::error::Result;
use crate::front::{self, Front};
use crate::resolution::Resolution;
use crate::snapshot::Snapshot;

/// How the executor reduces PULs — the session-level replacement for the
/// historical `reduce` / `deterministic_reduce` / `canonical_form` free
/// functions. The O(k²) `pul_core::reduce_naive` stays a test oracle only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionStrategy {
    /// No reduction at all: submissions are integrated as sent.
    None,
    /// Fig. 2 stages 1–9 (Def. 7); `ins↓` may survive, so the result can have
    /// several obtainable documents.
    Standard,
    /// Stages 1–10 (Def. 8): `ins↓` is rewritten into `ins↙`, making the PUL
    /// semantics deterministic. The executor default.
    #[default]
    Deterministic,
    /// Def. 9: deterministic reduction with `<p`-least pair selection — the
    /// unique canonical form, at the price of a per-stage search.
    Canonical,
}

impl ReductionStrategy {
    /// Reduces one PUL according to the strategy.
    pub fn reduce(self, pul: &Pul) -> Pul {
        match self {
            ReductionStrategy::None => pul.clone(),
            ReductionStrategy::Standard => reduce_with(pul, ReductionKind::Plain),
            ReductionStrategy::Deterministic => reduce_with(pul, ReductionKind::Deterministic),
            ReductionStrategy::Canonical => reduce_with(pul, ReductionKind::Canonical),
        }
    }
}

/// Identifier of a pending submission within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubmissionId(pub(crate) u64);

impl std::fmt::Display for SubmissionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submission#{}", self.0)
    }
}

/// Summary of a successful commit.
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// The document version produced by the commit.
    pub version: u64,
    /// Number of operations applied to the document.
    pub applied_ops: usize,
    /// The conflicts that were detected (and solved) on the way.
    pub conflicts: Vec<pul_core::Conflict>,
    /// Structural effects of the application (inserted roots, removed nodes)
    /// plus the document journal's entry count.
    pub apply: ApplyReport,
}

/// The shard-agnostic heart of an executor: the authoritative [`Document`],
/// its [`Labeling`], the apply options and the version counter — everything
/// needed to *hold and atomically mutate* one slice of authoritative state,
/// and nothing of the session machinery (submissions, reduction strategy,
/// caches) that reasons about what to apply.
///
/// [`Executor`] owns exactly one core; [`ShardedExecutor`](crate::ShardedExecutor)
/// owns one per shard. Every commit runs in one order: the PUL is applied to
/// the document under its journal, the WAL record is appended, the journal
/// closes and the version advances (the commit point), and only then is the
/// labeling patched from the apply report. A failure before the commit point
/// — in the apply, in the append or, under a sharded commit, in a sibling
/// core — rolls the document back at O(change) cost; the labeling was never
/// touched, because labels are derived state (§4.1 never relabels an existing
/// node).
#[derive(Debug, Clone)]
pub struct ExecutorCore {
    pub(crate) doc: Document,
    pub(crate) labeling: Labeling,
    pub(crate) apply_options: ApplyOptions,
    pub(crate) version: u64,
}

impl ExecutorCore {
    /// Creates a core over a document, assigning its labeling (§4.1) once.
    pub fn new(doc: Document) -> Self {
        let labeling = Labeling::assign(&doc);
        ExecutorCore::from_parts(doc, labeling)
    }

    /// Creates a core over a document and an externally built labeling. The
    /// caller guarantees the labeling covers exactly the document's nodes —
    /// this is how the sharded executor slices one global labeling into
    /// per-shard cores without re-keying any label.
    pub fn from_parts(doc: Document, labeling: Labeling) -> Self {
        ExecutorCore { doc, labeling, apply_options: ApplyOptions::default(), version: 0 }
    }

    /// The authoritative document of this core.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The labeling of this core's document.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The version counter: 0 at creation, +1 per successful commit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The options used when applying PULs to the document.
    pub fn apply_options(&self) -> &ApplyOptions {
        &self.apply_options
    }

    /// Replaces the apply options.
    pub fn set_apply_options(&mut self, options: ApplyOptions) {
        self.apply_options = options;
    }

    /// Atomically applies a resolved PUL with no WAL append — the path WAL
    /// replay takes: the PUL is applied under the document journal, the
    /// journal closes and the version advances, then the labeling is patched.
    /// A failed apply rolls the document back and leaves labeling and
    /// version untouched.
    pub fn commit_pul(&mut self, pul: &Pul) -> Result<ApplyReport> {
        Ok(self.apply(pul, 0)?.commit())
    }

    /// The first half of every commit: applies `pul` to the document under its
    /// journal, after lifting the fresh-identifier counter to `fence` (the
    /// sharded commit's identifier fence; 0 leaves the counter alone). The
    /// labeling and the version are not touched until the returned
    /// [`Applied`] is kept; dropping it instead rolls the document back.
    pub(crate) fn apply(&mut self, pul: &Pul, fence: u64) -> Result<Applied<'_>> {
        let ExecutorCore { doc, labeling, apply_options, version } = self;
        let mut doc = doc.journal();
        doc.reserve_ids(fence);
        let mut report = apply_pul(&mut doc, pul, apply_options)?;
        report.journal.doc_entries = doc.journal_len();
        Ok(Applied { doc, labeling, version, report })
    }

    /// Serializes the core's document.
    pub fn serialize(&self) -> String {
        writer::write_document(&self.doc)
    }

    /// Serializes the core's document with node identifiers.
    pub fn serialize_identified(&self) -> String {
        writer::write_document_identified(&self.doc)
    }

    /// Debug invariant walker over document and labeling (see
    /// [`Executor::assert_consistent`]).
    pub fn assert_consistent(&self) {
        self.doc.assert_consistent();
        self.labeling.assert_consistent(&self.doc);
    }
}

/// An [`ExecutorCore`] whose document holds an applied PUL under an open
/// journal: not yet committed. Dropping it — an `Err` returned past it, or an
/// unwind — rolls the document back and closes the journal.
/// [`keep`](Applied::keep) is the core's commit point and
/// [`patch`](Applied::patch) brings the labeling up to date afterwards.
#[derive(Debug)]
pub(crate) struct Applied<'a> {
    doc: JournalGuard<'a>,
    labeling: &'a mut Labeling,
    version: &'a mut u64,
    report: ApplyReport,
}

impl Applied<'_> {
    /// The document with the change applied.
    pub(crate) fn document(&self) -> &Document {
        &self.doc
    }

    /// The commit point: closes the journal, keeping the change, and
    /// advances the version — before any label is patched, so that a panic in
    /// the patch still leaves document and version in agreement.
    pub(crate) fn keep(&mut self) {
        self.doc.keep();
        *self.version += 1;
    }

    /// Patches the labeling from the apply report: the inserted nodes are
    /// labeled and the removed ones lose their labels. Called after
    /// [`keep`](Applied::keep).
    pub(crate) fn patch(self) -> ApplyReport {
        self.labeling.patch(&self.doc, &self.report.inserted_roots, &self.report.removed_nodes);
        self.report
    }

    /// [`keep`](Applied::keep), then [`patch`](Applied::patch).
    pub(crate) fn commit(mut self) -> ApplyReport {
        self.keep();
        self.patch()
    }
}

/// A stateful executor session owning the authoritative document, its
/// labeling and the session defaults, and exposing the
/// reduce → integrate → reconcile → aggregate → apply pipeline behind three
/// verbs: [`submit`](Executor::submit), [`resolve`](Executor::resolve) and
/// [`commit`](Executor::commit).
#[derive(Debug, Clone)]
pub struct Executor {
    core: ExecutorCore,
    /// Pending submissions, policy, strategy, epoch, store sink, snapshot
    /// cache and telemetry: the session front `ShardedExecutor` embeds too.
    pub(crate) front: Front,
}

impl Executor {
    // ------------------------------------------------------------ construction

    /// Opens a session on a document. The labeling (§4.1) is assigned here,
    /// once; commits maintain it incrementally.
    pub fn new(doc: Document) -> Self {
        Executor::from_core(ExecutorCore::new(doc))
    }

    /// Opens a session over an already built [`ExecutorCore`] (the sharded
    /// executor uses this to wrap pre-sliced cores).
    pub fn from_core(core: ExecutorCore) -> Self {
        Executor { core, front: Front::default() }
    }

    /// Installs the telemetry handle the session records commit/resolve
    /// spans, snapshot re-pins and freezes and lifecycle events through. Pass
    /// [`Telemetry::enabled`] to arm; the default handle is disabled and
    /// costs one branch per record call.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.front.telemetry = telemetry;
    }

    /// The installed telemetry handle (disabled unless
    /// [`set_telemetry`](Executor::set_telemetry) armed one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.front.telemetry
    }

    /// Opens a session on the document serialized in `xml`.
    pub fn parse(xml: &str) -> Result<Self> {
        Ok(Executor::new(parser::parse_document(xml)?))
    }

    /// Sets the policy assumed for submissions that do not carry their own
    /// (builder style).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.front.default_policy = policy;
        self
    }

    /// Sets the reduction strategy applied to every submission and to the
    /// reconciled result (builder style).
    pub fn reduction(mut self, strategy: ReductionStrategy) -> Self {
        self.front.strategy = strategy;
        self
    }

    /// Sets the options used when committing PULs to the document (builder
    /// style).
    pub fn apply_options(mut self, options: ApplyOptions) -> Self {
        self.core.apply_options = options;
        self
    }

    // -------------------------------------------------------------- inspection

    /// The authoritative document.
    pub fn document(&self) -> &Document {
        &self.core.doc
    }

    /// The labeling of the authoritative document.
    pub fn labeling(&self) -> &Labeling {
        &self.core.labeling
    }

    /// The shard-agnostic core of the session (document + labeling + version).
    pub fn core(&self) -> &ExecutorCore {
        &self.core
    }

    /// The current document version: 0 at session start, incremented by every
    /// commit.
    pub fn version(&self) -> u64 {
        self.core.version
    }

    /// Number of submissions waiting to be resolved.
    pub fn pending(&self) -> usize {
        self.front.submissions.len()
    }

    /// The session's compaction epoch: 0 at creation, incremented by every
    /// [`compact`](Executor::compact). Producers holding identifiers from an
    /// earlier epoch must re-read the document before submitting again.
    pub fn epoch(&self) -> u64 {
        self.front.epoch
    }

    /// The unified observability snapshot: the telemetry registry (when a
    /// handle was armed through [`set_telemetry`](Executor::set_telemetry)),
    /// the session's [`slab_stats`](Executor::slab_stats), and the tail of
    /// the event journal.
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        crate::TelemetrySnapshot::gather(&self.front.telemetry, self.slab_stats())
    }

    /// Slot-occupancy statistics of the session's dense id-indexed stores
    /// (node arena and labeling): live and dead (never-reused) dense slots
    /// plus spilled sparse entries. Identifiers are never reused (§4.1), so a
    /// long-lived session with heavy insert/delete churn accumulates dead
    /// slots — this is the observable that motivates a slab-compaction
    /// checkpoint (see the ROADMAP).
    pub fn slab_stats(&self) -> SessionSlabStats {
        SessionSlabStats {
            nodes: self.core.doc.slab_stats(),
            labels: self.core.labeling.slab_stats(),
            epoch: self.front.epoch,
        }
    }

    /// Pins the current version into an immutable MVCC [`Snapshot`]: a
    /// cheaply clonable view serving reads, serialization and Table-1
    /// predicate checks while this session commits ahead. The first snapshot
    /// at a version freezes the document and labeling once (O(document));
    /// the session holds that one snapshot, so repeated calls at an unchanged
    /// version are reference-count bumps, and a commit's next freeze releases
    /// it.
    pub fn snapshot(&self) -> Snapshot {
        self.front.snapshot(self.core.version, || {
            (self.core.doc.to_shared(), Arc::new(self.core.labeling.clone()))
        })
    }

    /// Serializes the authoritative document.
    pub fn serialize(&self) -> String {
        self.core.serialize()
    }

    /// Serializes the authoritative document with node identifiers — the
    /// checkpoint form, shipped to producers at checkout and the input of the
    /// paper's streaming evaluator ([`pul::apply_streaming`]).
    pub fn serialize_identified(&self) -> String {
        self.core.serialize_identified()
    }

    // -------------------------------------------------------------- production

    /// Evaluates an XQuery Update expression against the session document,
    /// returning the PUL a producer would ship (the PUL is *not* submitted).
    pub fn produce(&self, source: &str) -> Result<Pul> {
        Ok(xqupdate::evaluate(&self.core.doc, &self.core.labeling, source)?)
    }

    /// Builds a PUL from operations, attaching the labels of the session
    /// document — what a well-behaved producer does before shipping (the
    /// common test and example pattern).
    pub fn pul_from_ops(&self, ops: Vec<UpdateOp>) -> Pul {
        Pul::from_ops(ops, &self.core.labeling)
    }

    // -------------------------------------------------------------- submission

    /// Submits a producer PUL under the session's default policy.
    pub fn submit(&mut self, pul: Pul) -> SubmissionId {
        self.front.submit(pul, self.front.default_policy)
    }

    /// Submits a producer PUL with an explicit producer policy.
    pub fn submit_with_policy(&mut self, pul: Pul, policy: Policy) -> SubmissionId {
        self.front.submit(pul, policy)
    }

    /// Submits a producer PUL received in the XML exchange format (§4): the
    /// wire is decoded and submitted like [`submit`](Executor::submit), so
    /// [`resolve`](Executor::resolve) reduces it with the others.
    pub fn submit_xml(&mut self, wire: &str) -> Result<SubmissionId> {
        self.front.submit_xml(wire)
    }

    /// Submits a *sequence* of PULs from one producer (e.g. the editing
    /// sessions of a disconnected client): the sequence is aggregated into a
    /// single PUL (Def. 13) before entering the session.
    pub fn submit_sequence(&mut self, puls: &[Pul]) -> Result<SubmissionId> {
        let aggregated = aggregate(puls)?;
        Ok(self.submit(aggregated))
    }

    /// Submits a sequence of PULs received as one XML document.
    pub fn submit_sequence_xml(&mut self, wire: &str) -> Result<SubmissionId> {
        let puls = pul::xmlio::puls_from_xml(wire)?;
        self.submit_sequence(&puls)
    }

    /// Withdraws a pending submission, returning its PUL.
    pub fn withdraw(&mut self, id: SubmissionId) -> Result<Pul> {
        self.front.withdraw(id)
    }

    // -------------------------------------------------------------- resolution

    /// Reasons on the pending submissions without touching the document:
    /// each PUL is reduced with the session strategy, the reductions are
    /// integrated (Alg. 1), the detected conflicts are reconciled under the
    /// producer policies (Alg. 3), and the survivor is reduced once more.
    /// Fails with [`Error::Reconcile`](crate::Error::Reconcile) when some
    /// conflict cannot be solved without violating a policy, and with
    /// [`Error::EpochFenced`](crate::Error::EpochFenced) when a pending
    /// submission predates the session's last [`compact`](Executor::compact)
    /// — its identifiers no longer name the nodes its producer meant.
    pub fn resolve(&self) -> Result<Resolution> {
        let _span = self.front.telemetry.span(|m| &m.resolve_ns);
        let pending = self.front.pending()?;
        let integration = integrate(&pending.reduced);
        let reconciled = reconcile_integration(&pending.reduced, &integration, &pending.policies)?;
        Ok(Resolution {
            version: self.core.version,
            submitted_puls: pending.ids.len(),
            submitted_ops: self.front.submissions.iter().map(|s| s.pul.len()).sum(),
            submission_ids: pending.ids,
            pul: self.front.strategy.reduce(&reconciled),
            conflicts: integration.conflicts,
        })
    }

    // ------------------------------------------------------------------ commit

    /// Resolves the pending submissions and applies the resolution to the
    /// authoritative document, maintaining the labeling. On success the
    /// submissions are consumed and the version is incremented.
    pub fn commit(&mut self) -> Result<CommitReport> {
        let resolution = self.resolve()?;
        self.commit_resolution(resolution)
    }

    /// Applies a previously computed [`Resolution`]. Fails with
    /// [`Error::StaleResolution`](crate::Error::StaleResolution) if the
    /// document has been committed to since the resolution was computed, and
    /// with [`Error::UnknownSubmission`](crate::Error::UnknownSubmission) if a
    /// resolved submission has been withdrawn in the meantime. Submissions
    /// that arrived *after* the resolution stay pending.
    ///
    /// The commit is atomic *without any whole-session clone*, and runs in
    /// one order:
    /// 1. the resolved PUL is applied to the document under its journal;
    /// 2. in a durable session, the WAL record is appended;
    /// 3. the journal closes and the version advances — the commit point;
    /// 4. the labeling is patched from the apply report.
    ///
    /// An `Err` or a panic in steps 1–2 rolls the document back through the
    /// journal, at a cost proportional to the partial change, and leaves the
    /// session (document, labeling, version, submissions) exactly as it was:
    /// the labeling is not touched before the commit point. A panic inside
    /// the label patch of step 4 is **not** rolled back: document, version
    /// and WAL agree on the commit, but the labeling is incomplete and the
    /// session must be dropped (a durable one recovers by reopening).
    pub fn commit_resolution(&mut self, resolution: Resolution) -> Result<CommitReport> {
        self.front.check_fresh(
            resolution.version,
            self.core.version,
            &resolution.submission_ids,
        )?;
        let _span = self.front.telemetry.span(|m| &m.commit_ns);
        let version = self.core.version + 1;
        let preserve_content_ids = self.core.apply_options.preserve_content_ids;
        let applied = self.core.apply(&resolution.pul, 0).and_then(|applied| {
            let record = CommitRecord::Delta { pul: &resolution.pul, preserve_content_ids };
            self.front.append(version, record)?;
            Ok(applied)
        });
        let apply = match applied {
            Ok(applied) => applied.commit(),
            Err(e) => {
                self.front.telemetry.count(|m| &m.rollbacks);
                return Err(e);
            }
        };
        let applied_ops = resolution.pul.len();
        self.front.committed(&resolution.submission_ids, version, applied_ops);
        Ok(CommitReport { version, applied_ops, conflicts: resolution.conflicts, apply })
    }

    // -------------------------------------------------------------- compaction

    /// Renumbers the whole session densely and opens a new epoch.
    ///
    /// Identifiers are never reused across commits (§4.1), so insert/delete
    /// churn strands dead slots in the node arena and the label store until
    /// [`slab_stats`](Executor::slab_stats) is mostly tombstones. Compaction
    /// reclaims them: the document is renumbered in preorder starting from 1
    /// (`assign_preorder_ids`), the labeling is rebuilt densely over the new
    /// identifiers, the version advances (any outstanding [`Resolution`]
    /// becomes stale, `XPUL-E01`), and the session epoch increments — every
    /// submission admitted before the compaction is fenced with `XPUL-E10`
    /// at resolve time, because the identifiers it carries now name
    /// different nodes.
    ///
    /// Durable sessions append an epoch record through the store sink
    /// *before* renumbering: the append is the commit point (renumbering
    /// itself is infallible), so a failed append leaves the session and the
    /// store untouched on the pre-compaction version.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        front::compact(self, |_| Ok(()), |session, ()| session.renumber())
    }

    /// The infallible, deterministic half of a compaction: renumber, rebuild
    /// the labeling densely, advance the version. Shared by the live
    /// [`compact`](Executor::compact) and by WAL replay of an epoch record,
    /// so recovery reproduces the compacted state bit-identically.
    fn renumber(&mut self) {
        let _mapping = self.core.doc.assign_preorder_ids(1);
        self.core.labeling = Labeling::assign(&self.core.doc);
        self.core.version += 1;
    }

    /// Replays a WAL `Epoch` record. The epoch is *set* (not incremented):
    /// the record is authoritative about the epoch it opened.
    pub(crate) fn replay_epoch(&mut self, epoch: u64) {
        self.renumber();
        self.front.epoch = epoch;
    }

    // ---------------------------------------------------------------- recovery

    /// Re-applies a WAL `Delta` record: the resolved PUL a committed round
    /// applied. Same apply-then-patch path as the live commit, under the
    /// identifier discipline the record was committed with (the restored
    /// session's own apply options are *not* durable state and must not leak
    /// into replay — a producer-discipline delta re-applied with fresh
    /// minting would silently renumber the recovered arena). Bit-identical
    /// recovered state either way.
    pub(crate) fn replay_delta(&mut self, pul: &Pul, preserve_content_ids: bool) -> Result<()> {
        let live = self.core.apply_options.preserve_content_ids;
        self.core.apply_options.preserve_content_ids = preserve_content_ids;
        let replayed = self.core.commit_pul(pul).map(|_| ());
        self.core.apply_options.preserve_content_ids = live;
        replayed
    }

    /// Debug invariant walker over the whole session: document structure
    /// (parent/child symmetry, slab dense/spill agreement, full attachment)
    /// and labeling agreement (no stale or missing labels, metadata in sync,
    /// label-key ordering). Panics with a description on any violation.
    /// O(document) — meant to be called after commits in tests.
    pub fn assert_consistent(&self) {
        self.core.assert_consistent();
    }
}

/// The historical clone-based snapshot, kept **only** as a differential
/// oracle: tests capture one before a commit and assert that a rolled-back
/// commit leaves a state `deep_eq`-identical to it. The
/// production paths never clone the document or the labeling.
#[cfg(test)]
pub(crate) struct ExecutorSnapshot {
    doc: Document,
    labeling: Labeling,
    submissions: Vec<front::Submission>,
    next_submission: u64,
    version: u64,
}

#[cfg(test)]
impl Executor {
    pub(crate) fn oracle_snapshot(&self) -> ExecutorSnapshot {
        ExecutorSnapshot {
            doc: self.core.doc.clone(),
            labeling: self.core.labeling.clone(),
            submissions: self.front.submissions.clone(),
            next_submission: self.front.next_submission,
            version: self.core.version,
        }
    }

    /// Asserts that the current session state is bit-identical to the oracle
    /// snapshot: documents and labelings `deep_eq`, same pending submissions,
    /// same counters.
    pub(crate) fn assert_matches_snapshot(&self, oracle: &ExecutorSnapshot) {
        assert!(self.core.doc.deep_eq(&oracle.doc), "document differs from the snapshot oracle");
        assert!(
            self.core.labeling.deep_eq(&oracle.labeling),
            "labeling differs from the snapshot oracle"
        );
        assert_eq!(self.front.submissions.len(), oracle.submissions.len());
        for (a, b) in self.front.submissions.iter().zip(oracle.submissions.iter()) {
            assert_eq!(a.id, b.id, "pending submissions differ from the snapshot oracle");
        }
        assert_eq!(self.front.next_submission, oracle.next_submission);
        assert_eq!(self.core.version, oracle.version);
    }
}

/// Slot-occupancy statistics of one session's dense stores, as reported by
/// [`Executor::slab_stats`] and
/// [`ShardedExecutor::slab_stats`](crate::ShardedExecutor::slab_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSlabStats {
    /// The document's node arena.
    pub nodes: xdm::SlabStats,
    /// The labeling's label store.
    pub labels: xdm::SlabStats,
    /// The session's compaction epoch the stats were taken under.
    pub epoch: u64,
}

impl SessionSlabStats {
    /// Component-wise sum (used by the sharded façade to aggregate shards).
    /// Both sides come from the same session, so the epoch is shared.
    pub fn merged(self, other: SessionSlabStats) -> SessionSlabStats {
        SessionSlabStats {
            nodes: self.nodes.merged(other.nodes),
            labels: self.labels.merged(other.labels),
            epoch: self.epoch,
        }
    }
}

/// Summary of a successful [`Executor::compact`] /
/// [`ShardedExecutor::compact`](crate::ShardedExecutor::compact): what the
/// renumbering reclaimed and where the fences now stand.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// The epoch the compaction opened.
    pub epoch: u64,
    /// The session version the compaction produced.
    pub version: u64,
    /// Slab occupancy before the renumbering.
    pub before: SessionSlabStats,
    /// Slab occupancy after: dense, no dead slots, no spill.
    pub after: SessionSlabStats,
}

#[cfg(test)]
mod tests {
    //! Differential verification of the commit rollback against the
    //! historical clone-based snapshot (the `#[cfg(test)]` oracle): after any
    //! failed commit the session must be *bit-identical* —
    //! same arena entries, same label keys — to what restoring the snapshot
    //! would have produced.

    use super::*;
    use xdm::Tree;

    /// ids: issue=1, volume=2, article=3, title=4, "T"=5, article=6
    fn session() -> Executor {
        Executor::parse(
            "<issue volume=\"30\"><article><title>T</title></article><article/></issue>",
        )
        .unwrap()
    }

    /// A PUL that fails *partway through* application: rename(3) and repV(5)
    /// apply first (stage 1, smaller targets), then the duplicate attribute
    /// insertion on 6 fails after its first attribute has been attached. The
    /// stage-2 insertion is never reached.
    fn mid_failing_pul(session: &Executor) -> Pul {
        session.pul_from_ops(vec![
            UpdateOp::rename(3u64, "paper"),
            UpdateOp::replace_value(5u64, "changed"),
            UpdateOp::ins_attributes(
                6u64,
                vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
            ),
            UpdateOp::ins_last(6u64, vec![Tree::element("never-inserted")]),
        ])
    }

    #[test]
    fn mid_apply_failure_rewinds_to_the_snapshot_oracle() {
        let mut session = session();
        let pul = mid_failing_pul(&session);
        session.submit(pul);
        let oracle = session.oracle_snapshot();
        let err = session.commit();
        assert!(err.is_err(), "duplicate attribute must fail the commit");
        session.assert_matches_snapshot(&oracle);
        session.assert_consistent();
        assert!(!session.core.doc.journal_is_active(), "a failed commit closes the journal");
        assert_eq!(session.version(), 0);
        assert_eq!(session.pending(), 1, "the failed submission stays pending");
        // the session is fully usable afterwards: withdraw the bad PUL, commit a good one
        let id = session.front.submissions[0].id;
        session.withdraw(id).unwrap();
        let good = session.produce("rename node /issue/article[1] as \"paper\"").unwrap();
        session.submit(good);
        session.commit().unwrap();
        session.assert_consistent();
        assert!(session.serialize().contains("<paper>"));
    }

    #[test]
    fn successful_commit_leaves_no_journal_behind() {
        let mut session = session();
        let pul = session.produce("delete node /issue/article[2]").unwrap();
        session.submit(pul);
        let report = session.commit().unwrap();
        assert!(report.apply.journal.doc_entries > 0, "the commit went through the journal");
        assert!(!session.core.doc.journal_is_active(), "success closes the journal");
        session.assert_consistent();
    }
}
