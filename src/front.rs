//! The session front that [`Executor`](crate::Executor) and
//! [`ShardedExecutor`](crate::ShardedExecutor) share.
//!
//! The paper's executor (§4) takes PULs from many producers and reasons on
//! them before it touches the document. Everything on that side of the
//! document is the same whether a session holds one core or N shards: the
//! pending-submission book, the default policy and reduction strategy, the
//! compaction epoch that fences stale submissions (`XPUL-E10`), the
//! freshness check of a resolution, the store a durable session commits to,
//! the last snapshot it froze and the telemetry handle. [`Front`] holds that state
//! with one body per verb. The sessions embed it and keep only what really
//! differs — how they resolve, commit, freeze a snapshot and renumber —
//! behind [`DurableBackend`], and one blanket implementation turns every
//! session into an [`IngestBackend`].
//!
//! `Front` is `pub` only so that the public [`DurableBackend`] can name it;
//! this module is private, so it cannot be named outside the crate, and
//! neither can the trait methods that return it be implemented there.

use std::sync::Arc;

use pul::Pul;
use pul_core::{aggregate, Policy};
use pul_telemetry::{EventKind, Telemetry};
use xdm::SharedDocument;
use xlabel::Labeling;

use crate::durable::{CommitRecord, DurableBackend, SinkSlot};
use crate::error::{Error, Result};
use crate::executor::{CompactionReport, ReductionStrategy, SubmissionId};
use crate::ingest::IngestBackend;
use crate::snapshot::{Snapshot, SnapshotSlot};

/// One producer PUL waiting in a session, with the policy its producer
/// attached.
#[derive(Debug, Clone)]
pub(crate) struct Submission {
    pub(crate) id: SubmissionId,
    pub(crate) pul: Pul,
    policy: Policy,
    /// The session epoch the submission was admitted under. Compaction
    /// renumbers every identifier, so a submission from an earlier epoch is
    /// fenced at resolve time (`XPUL-E10`) instead of silently targeting
    /// whatever nodes now wear its ids.
    epoch: u64,
}

/// The pending book after the epoch fence and the per-submission reduction:
/// what a resolve integrates, in submission order.
pub(crate) struct Pending {
    pub(crate) ids: Vec<SubmissionId>,
    pub(crate) policies: Vec<Policy>,
    pub(crate) reduced: Vec<Pul>,
}

/// The producer-facing state of a session; see the module documentation.
#[derive(Debug, Clone, Default)]
pub struct Front {
    /// The policy assumed for submissions that do not carry their own.
    pub(crate) default_policy: Policy,
    /// How every submission, and every reconciled survivor, is reduced.
    pub(crate) strategy: ReductionStrategy,
    pub(crate) submissions: Vec<Submission>,
    pub(crate) next_submission: u64,
    /// The compaction epoch: 0 at creation, +1 per compaction. Submissions
    /// are stamped with the epoch they were admitted under; a mismatch at
    /// resolve time is the `XPUL-E10` fence.
    pub(crate) epoch: u64,
    /// The durability hook: a [`Durable`](crate::Durable) wrapper moves its
    /// store in here, and every commit appends its WAL record after its apply
    /// and before its commit point, while the document journal is open; a
    /// failed append rolls the document back. Cloned
    /// sessions never inherit the sink — two sessions appending to one log
    /// would interleave divergent histories.
    pub(crate) sink: SinkSlot,
    /// The last snapshot the session froze: re-pinning the live version is a
    /// reference-count bump. Clones start empty — a divergent copy reuses
    /// version numbers with different contents.
    pub(crate) live: SnapshotSlot,
    /// Spans, snapshot re-pins and freezes, commit and epoch events. Disabled
    /// (one branch per probe) unless armed; clones share the registry.
    pub(crate) telemetry: Telemetry,
}

impl Front {
    /// Admits a producer PUL under `policy`.
    pub(crate) fn submit(&mut self, pul: Pul, policy: Policy) -> SubmissionId {
        let id = SubmissionId(self.next_submission);
        self.next_submission += 1;
        self.submissions.push(Submission { id, pul, policy, epoch: self.epoch });
        id
    }

    /// Admits a sequence of PULs, in order, as one submission under the
    /// default policy: a lone PUL as is, a longer sequence as the aggregation
    /// (Def. 13) of its members, each first reduced with the session
    /// strategy as its own commit would reduce it (the ingest module
    /// documentation shows why the reduction cannot wait). Fails, admitting
    /// nothing, when aggregation refuses the sequence.
    pub(crate) fn submit_batch(&mut self, batch: &[&Pul]) -> Result<SubmissionId> {
        let pul = match batch {
            [one] => (*one).clone(),
            members => {
                let reduced: Vec<Pul> = members.iter().map(|p| self.strategy.reduce(p)).collect();
                aggregate(&reduced)?
            }
        };
        Ok(self.submit(pul, self.default_policy))
    }

    /// Decodes a PUL received in the XML exchange format (§4) and submits it
    /// under the default policy.
    pub(crate) fn submit_xml(&mut self, wire: &str) -> Result<SubmissionId> {
        let pul = pul::xmlio::pul_from_xml(wire)?;
        Ok(self.submit(pul, self.default_policy))
    }

    /// Withdraws a pending submission, returning its PUL.
    pub(crate) fn withdraw(&mut self, id: SubmissionId) -> Result<Pul> {
        match self.submissions.iter().position(|s| s.id == id) {
            Some(i) => Ok(self.submissions.remove(i).pul),
            None => Err(Error::UnknownSubmission(id)),
        }
    }

    /// Fences and reduces the pending book. Fails with `XPUL-E10` when a
    /// submission predates the last compaction — its identifiers no longer
    /// name the nodes its producer meant; otherwise reduces every submission
    /// with the session strategy.
    pub(crate) fn pending(&self) -> Result<Pending> {
        if let Some(fenced) = self.submissions.iter().find(|s| s.epoch != self.epoch) {
            return Err(Error::EpochFenced {
                submission: fenced.id,
                submission_epoch: fenced.epoch,
                current_epoch: self.epoch,
            });
        }
        Ok(Pending {
            ids: self.submissions.iter().map(|s| s.id).collect(),
            policies: self.submissions.iter().map(|s| s.policy).collect(),
            reduced: self.submissions.iter().map(|s| self.strategy.reduce(&s.pul)).collect(),
        })
    }

    /// The freshness check of a commit: the resolution must have been
    /// computed against the current version, and every submission it
    /// reasoned about must still be pending (committing over a withdrawn PUL
    /// would resurrect it).
    pub(crate) fn check_fresh(
        &self,
        resolved_at: u64,
        current: u64,
        ids: &[SubmissionId],
    ) -> Result<()> {
        if resolved_at != current {
            return Err(Error::StaleResolution { resolved_at, current });
        }
        match ids.iter().find(|&&id| !self.submissions.iter().any(|s| s.id == id)) {
            Some(&gone) => Err(Error::UnknownSubmission(gone)),
            None => Ok(()),
        }
    }

    /// Records a commit that produced `version`: consumes exactly the
    /// submissions its resolution covered (later arrivals stay pending), and
    /// counts and journals it.
    pub(crate) fn committed(&mut self, ids: &[SubmissionId], version: u64, ops: usize) {
        self.submissions.retain(|s| !ids.contains(&s.id));
        self.telemetry.count(|m| &m.commits);
        self.telemetry
            .event(EventKind::Commit, version, || format!("committed v{version} ({ops} ops)"));
    }

    /// Appends the WAL record of `version` through the installed sink, after
    /// the apply and before the commit point: an error rolls the commit back.
    /// Without a sink there is nothing to append.
    pub(crate) fn append(&mut self, version: u64, record: CommitRecord<'_>) -> Result<()> {
        match self.sink.get_mut() {
            Some(sink) => sink.append(version, record, &self.telemetry),
            None => Ok(()),
        }
    }

    /// Pins the current `version` into a [`Snapshot`]: a reference-count
    /// bump when the slot holds it, otherwise `freeze` builds the document
    /// and labeling (O(document)) and the result replaces the slot's.
    pub(crate) fn snapshot(
        &self,
        version: u64,
        freeze: impl FnOnce() -> (SharedDocument, Arc<Labeling>),
    ) -> Snapshot {
        if let Some(held) = self.live.get(version) {
            self.telemetry.count(|m| &m.snapshot_hits);
            return held;
        }
        self.telemetry.count(|m| &m.snapshot_misses);
        let (doc, labeling) = freeze();
        let snapshot = Snapshot::new(version, self.epoch, doc, labeling);
        self.live.set(snapshot.clone());
        snapshot
    }
}

/// The compaction protocol of every session. `prepare` does the fallible
/// work off to the side; the epoch record is appended next — the commit
/// point, so a failed append leaves session and store on the pre-compaction
/// version — and `install` then renumbers in place, which cannot fail, and
/// advances the version by one.
pub(crate) fn compact<S: DurableBackend, P>(
    session: &mut S,
    prepare: impl FnOnce(&S) -> Result<P>,
    install: impl FnOnce(&mut S, P),
) -> Result<CompactionReport> {
    let before = session.session_slab_stats();
    let prepared = prepare(session)?;
    let (version, epoch) = (session.session_version() + 1, session.front().epoch + 1);
    session.front_mut().append(version, CommitRecord::Epoch { epoch })?;
    install(session, prepared);
    let front = session.front_mut();
    front.epoch = epoch;
    front.telemetry.event(EventKind::CompactionEpoch, version, || {
        format!("compaction opened epoch {epoch} at v{version}")
    });
    Ok(CompactionReport { epoch, version, before, after: session.session_slab_stats() })
}

/// The ingestion pipeline drives every session through the same verbs: an
/// admitted batch enters the pending book as one submission, and the resolve
/// and commit are the session's own.
impl<S: DurableBackend> IngestBackend for S {
    type Resolution = S::Resolved;

    fn admit(&mut self, batch: &[&Pul]) -> Result<SubmissionId> {
        self.front_mut().submit_batch(batch)
    }

    fn resolve_pending(&self) -> Result<S::Resolved> {
        self.session_resolve()
    }

    fn commit_pending(&mut self, resolution: S::Resolved) -> Result<u64> {
        self.session_commit(resolution)
    }

    fn snapshot_view(&self) -> Snapshot {
        self.session_snapshot()
    }

    fn discard(&mut self, id: SubmissionId) {
        let _ = self.front_mut().withdraw(id);
    }

    fn current_version(&self) -> u64 {
        self.session_version()
    }
}
