//! The ingestion pipeline: a group-commit submission queue in front of an
//! executor.
//!
//! The session API of [`Executor`](crate::Executor) (and its sharded sibling)
//! is synchronous: every producer round-trips through
//! `submit → resolve → commit`, so a burst of small PULs pays the full
//! resolution cost once *per submission* even when the updates are
//! independent. [`IngestQueue`] decouples the two sides:
//!
//! ```text
//!  writers ──enqueue()──▶ ┌──────────── IngestQueue ─────────────┐
//!  (PULs, wire XML,       │ queue ─▶ pipeline thread: drain all  │
//!   many threads)         │          that is queued, aggregate   │──▶ Document'
//!    ◀──Ticket────        │          it into one PUL, admit,     │
//!                         │          resolve and commit it       │
//!                         └──────────────────────────────────────┘
//! ```
//!
//! * **Group commit.** `enqueue` returns immediately with a [`Ticket`] — a
//!   completion handle that later yields the committed version, or the error
//!   that failed the submission. The pipeline thread sleeps only while the
//!   queue is empty; whenever it is free it drains **everything** queued as
//!   one batch, so a batch is whatever arrived while the previous one was
//!   committing — no timer, no size threshold.
//!   [`enqueue_all`](IngestQueue::enqueue_all) appends a group under one lock
//!   acquisition, so the group drains as one batch.
//!
//! * **Admission.** The queue's [`capacity`](IngestConfig::capacity) is the
//!   only admission control: `enqueue` blocks while the queue is full, and a
//!   group larger than the capacity, which could never fit, is refused with
//!   `XPUL-E08`. A ticket has no deadline; it completes when its batch
//!   commits or fails.
//!
//! * **One batch, one aggregate, one commit.** A drained batch is a sequence
//!   of PULs in enqueue order, and the paper has the operator for exactly
//!   that: aggregation (Def. 13), substitutable for applying the members one
//!   after another (Prop. 4). The pipeline thread admits the batch as **one
//!   submission** — a lone member as is, a longer batch as the aggregate of
//!   its members — then resolves and commits it once: one document journal,
//!   one label patch and, durably, one WAL record and one sync per batch. One submission never
//!   conflicts (integration pairs operations of *different* PULs), so no
//!   policy is consulted.
//!
//! * **Per-member reduction.** Each member is reduced with the session
//!   strategy before it is aggregated, as its own commit would reduce it,
//!   because reduction does not commute with aggregation: after
//!   `{ins↓(v, a), ins↘(v, b)}`, a second member's `{ins↓(v, c)}` puts `c`
//!   first when the two commit in turn (a lone `ins↓` reduces to `ins↙`),
//!   whereas reducing their raw aggregate folds `c` into the `ins↘` by rule
//!   I7, behind `v`'s existing children.
//!
//! * **Failure isolation.** When aggregation refuses the batch (a member is
//!   not applicable after its predecessors, e.g. it targets a node an earlier
//!   member deleted) or its commit fails — after the journal has rolled the
//!   document back bit-identically, before any label was patched — the members are retried *individually* in
//!   enqueue order, so only the tickets of the genuinely failing submissions
//!   report an error: batched ingestion fails exactly the submissions a
//!   sequential executor would have failed.
//!
//! The queue is backend-generic over [`IngestBackend`], implemented by both
//! [`Executor`](crate::Executor) and [`ShardedExecutor`](crate::ShardedExecutor).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use pul::Pul;
use pul_store::{site, FaultKind, Faults};
use pul_telemetry::{EventKind, Telemetry};

use crate::error::{Error, Result};
use crate::SubmissionId;

// ---------------------------------------------------------------------------
// backend abstraction
// ---------------------------------------------------------------------------

/// The resolve + commit surface the ingestion pipeline drives. Both sessions,
/// [`Executor`](crate::Executor) and [`ShardedExecutor`](crate::ShardedExecutor),
/// implement it, and so does [`Durable`](crate::Durable) over either, so an
/// [`IngestQueue`] can front any of them.
///
/// The queue owns the backend exclusively: `admit` fills the pending set,
/// `resolve_pending` reduces and reasons on *everything* pending, and
/// `commit_pending` applies the resolution atomically.
pub trait IngestBackend: Send + 'static {
    /// The backend's resolution type ([`Resolution`](crate::Resolution) or
    /// [`ShardedResolution`](crate::ShardedResolution)).
    type Resolution: Send;

    /// Admits a drained batch, in enqueue order, as one submission under the
    /// backend's default policy: a lone PUL as is, a longer batch as the
    /// aggregation (Def. 13) of its members, each first reduced with the
    /// backend's strategy. Fails, admitting nothing, when aggregation refuses
    /// the sequence.
    fn admit(&mut self, batch: &[&Pul]) -> Result<SubmissionId>;

    /// Reduces and reasons on every pending submission without touching the
    /// document.
    fn resolve_pending(&self) -> Result<Self::Resolution>;

    /// Atomically applies a resolution, consuming the submissions it covers,
    /// and returns the version it produced. On failure the backend state is
    /// exactly as before the call (the document journal rolled back, the
    /// labeling never touched), with the submissions still pending.
    fn commit_pending(&mut self, resolution: Self::Resolution) -> Result<u64>;

    /// Pins the backend's current version into an MVCC
    /// [`Snapshot`](crate::Snapshot) (the backend's own `snapshot()`, held by
    /// the session until its next freeze), for the pipeline to publish to
    /// readers between batches.
    fn snapshot_view(&self) -> crate::Snapshot;

    /// Drops a pending submission (after a failed commit, so later batches do
    /// not resurrect it).
    fn discard(&mut self, id: SubmissionId);

    /// The backend's current version: 0 at creation, +1 per commit or
    /// compaction.
    fn current_version(&self) -> u64;
}

// ---------------------------------------------------------------------------
// tickets
// ---------------------------------------------------------------------------

/// What a successfully committed submission reports back to its producer.
#[derive(Debug, Clone)]
pub struct TicketOutcome {
    /// The backend version whose commit included this submission. The
    /// members of one batch share a version; a member retried alone after
    /// its batch failed gets a version of its own.
    pub version: u64,
}

#[derive(Debug)]
struct TicketShared {
    outcome: Mutex<Option<Result<TicketOutcome>>>,
    done: Condvar,
}

/// The completion handle returned by [`IngestQueue::enqueue`]: it resolves to
/// the committed version, or to the error that failed the submission.
/// Dropping a ticket is fine — the submission still commits.
#[derive(Debug, Clone)]
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    fn new() -> (Ticket, TicketCompleter) {
        let shared = Arc::new(TicketShared { outcome: Mutex::new(None), done: Condvar::new() });
        (Ticket { shared: shared.clone() }, TicketCompleter { shared, completed: false })
    }

    /// Blocks until the submission is committed or failed.
    pub fn wait(&self) -> Result<TicketOutcome> {
        let mut outcome = self.shared.outcome.lock().expect("ticket lock");
        while outcome.is_none() {
            outcome = self.shared.done.wait(outcome).expect("ticket lock");
        }
        outcome.as_ref().expect("just checked").clone()
    }

    /// The outcome, if the submission has already been committed or failed.
    pub fn try_outcome(&self) -> Option<Result<TicketOutcome>> {
        self.shared.outcome.lock().expect("ticket lock").clone()
    }
}

/// The write side of a ticket, held by the pipeline. Exactly one completion
/// ever happens; if the completer is dropped on a panic or shutdown path
/// before completing, the ticket is *poisoned* so no producer blocks forever.
#[derive(Debug)]
struct TicketCompleter {
    shared: Arc<TicketShared>,
    completed: bool,
}

impl TicketCompleter {
    fn complete(mut self, outcome: Result<TicketOutcome>) {
        self.completed = true;
        let mut slot = self.shared.outcome.lock().expect("ticket lock");
        *slot = Some(outcome);
        self.shared.done.notify_all();
    }
}

impl Drop for TicketCompleter {
    fn drop(&mut self) {
        if !self.completed {
            let mut slot = self.shared.outcome.lock().expect("ticket lock");
            if slot.is_none() {
                *slot = Some(Err(Error::Ingest(
                    "ticket poisoned: the pipeline shut down before the submission was committed"
                        .into(),
                )));
                self.shared.done.notify_all();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// queue plumbing
// ---------------------------------------------------------------------------

/// Configuration of the ingestion queue. There is no batching window to
/// tune: the pipeline drains everything queued whenever it is free.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Hard bound on the number of submissions waiting to be drained — and
    /// so on the size of one batch, hence of one aggregated commit.
    /// [`enqueue`](IngestQueue::enqueue) blocks while the queue is full; an
    /// [`enqueue_all`](IngestQueue::enqueue_all) group larger than the bound
    /// can never fit and is refused with `XPUL-E08`.
    pub capacity: usize,
    /// Failpoints the pipeline consults: [`site::INGEST_PREPARE`] before each
    /// batch and [`site::INGEST_COMMIT`] before each commit attempt. Disabled
    /// by default — a single branch per check.
    pub faults: Faults,
    /// Publish an MVCC snapshot of the backend after every committed batch,
    /// readable through [`IngestQueue::latest_snapshot`] without stopping
    /// the pipeline. Default false — pinning a snapshot keeps the batch's
    /// whole arena alive until readers drop it.
    pub publish_snapshots: bool,
    /// Telemetry handle shared by the queue façade and the pipeline thread:
    /// queue depth, enqueue-block and per-ticket latencies, batch and
    /// shedding counters, and shed events. Disabled by default — a single
    /// branch per probe.
    pub telemetry: Telemetry,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            capacity: 1024,
            faults: Faults::disabled(),
            publish_snapshots: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One entry waiting in the queue.
struct QueuedEntry {
    pul: Pul,
    /// When the entry was enqueued — `None` when telemetry is disabled, so
    /// the disabled pipeline never reads the clock. Feeds the per-ticket
    /// latency histogram at completion.
    enqueued: Option<Instant>,
    completer: TicketCompleter,
}

struct QueueState {
    queue: VecDeque<QueuedEntry>,
    /// Entries drained but whose tickets are not yet completed.
    in_flight: usize,
    /// Set by [`IngestQueue::close`] (the pipeline drains what is queued and
    /// stops) or by the pipeline thread's exit: no further submissions.
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signaled on enqueue / close — wakes the pipeline thread.
    enqueued: Condvar,
    /// Signaled when a batch is drained (space freed) or settled, and when
    /// the pipeline exits — wakes blocked producers and `flush`.
    settled: Condvar,
    /// The snapshot of the most recently committed batch, published by the
    /// pipeline when [`IngestConfig::publish_snapshots`] is on. Readers
    /// clone it out (a reference-count bump) while commits proceed.
    latest_snapshot: Mutex<Option<crate::Snapshot>>,
}

/// A group-commit, aggregating submission queue in front of an
/// [`IngestBackend`].
/// See the module documentation for the architecture.
///
/// The queue is `Sync`: writers on any number of threads share one
/// `&IngestQueue` and call [`enqueue`](IngestQueue::enqueue) concurrently.
pub struct IngestQueue<B: IngestBackend> {
    shared: Arc<Shared>,
    capacity: usize,
    /// Clone of [`IngestConfig::telemetry`] for the enqueue façade (queue
    /// depth, block latency, shed accounting).
    telemetry: Telemetry,
    pipeline: Option<JoinHandle<B>>,
}

impl<B: IngestBackend> IngestQueue<B> {
    /// Spawns the pipeline over `backend` with the default [`IngestConfig`].
    pub fn new(backend: B) -> Self {
        IngestQueue::with_config(backend, IngestConfig::default())
    }

    /// Spawns the pipeline over `backend` with an explicit configuration.
    pub fn with_config(backend: B, config: IngestConfig) -> Self {
        let capacity = config.capacity.max(1);
        let telemetry = config.telemetry.clone();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), in_flight: 0, closed: false }),
            enqueued: Condvar::new(),
            settled: Condvar::new(),
            latest_snapshot: Mutex::new(None),
        });
        let pipeline = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ingest-pipeline".into())
                .spawn(move || pipeline_loop(&shared, backend, &config))
                .expect("spawn ingest pipeline")
        };
        IngestQueue { shared, capacity, telemetry, pipeline: Some(pipeline) }
    }

    /// Enqueues a producer PUL, returning its completion ticket. Blocks while
    /// the queue is at [`capacity`](IngestConfig::capacity); fails with
    /// `XPUL-E06` once the queue is closed or its pipeline thread has died.
    pub fn enqueue(&self, pul: Pul) -> Result<Ticket> {
        Ok(self.enqueue_all([pul])?.pop().expect("one ticket per PUL"))
    }

    /// Enqueues a group of PULs in order under one lock acquisition, so the
    /// pipeline drains them into one batch (with whatever else is queued by
    /// then) — the queue's counterpart of
    /// [`Executor::submit_sequence`](crate::Executor::submit_sequence).
    /// Blocks until the whole group fits; a group larger than
    /// [`capacity`](IngestConfig::capacity) never fits and is shed with
    /// `XPUL-E08`, and a closed queue fails it with `XPUL-E06`. Returns one
    /// ticket per PUL.
    pub fn enqueue_all(&self, puls: impl IntoIterator<Item = Pul>) -> Result<Vec<Ticket>> {
        let puls: Vec<Pul> = puls.into_iter().collect();
        let mut state = self.shared.state.lock().expect("queue lock");
        let mut blocked_at: Option<Instant> = None;
        while !state.closed && state.queue.len() + puls.len() > self.capacity {
            if puls.len() > self.capacity {
                self.telemetry.count(|m| &m.tickets_shed);
                let what = format!(
                    "{} submission(s) do not fit the ingest queue ({} waiting, capacity {})",
                    puls.len(),
                    state.queue.len(),
                    self.capacity
                );
                self.telemetry.event(EventKind::Shed, 0, || format!("shed: {what}"));
                return Err(Error::Overload(what));
            }
            if blocked_at.is_none() && self.telemetry.is_enabled() {
                blocked_at = Some(Instant::now());
            }
            // The pipeline signals `settled` after every drain (space freed)
            // and when it exits (which closes the queue).
            state = self.shared.settled.wait(state).expect("queue lock");
        }
        if state.closed {
            return Err(Error::Ingest(
                "queue closed (or its pipeline died): no further submissions accepted".into(),
            ));
        }
        if let Some(t0) = blocked_at {
            self.telemetry.observe_since(|m| &m.enqueue_block_ns, t0);
        }
        let enqueued = self.telemetry.is_enabled().then(Instant::now);
        let tickets = puls
            .into_iter()
            .map(|pul| {
                let (ticket, completer) = Ticket::new();
                state.queue.push_back(QueuedEntry { pul, enqueued, completer });
                ticket
            })
            .collect();
        self.telemetry.gauge_set(|m| &m.queue_depth, state.queue.len() as i64);
        drop(state);
        self.shared.enqueued.notify_one();
        Ok(tickets)
    }

    /// Enqueues a producer PUL received in the XML exchange format (§4).
    /// Parse errors are reported synchronously; everything later comes
    /// through the ticket.
    pub fn enqueue_xml(&self, wire: &str) -> Result<Ticket> {
        let pul = pul::xmlio::pul_from_xml(wire)?;
        self.enqueue(pul)
    }

    /// Number of submissions waiting to be drained (in-flight batches not
    /// included).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("queue lock").queue.len()
    }

    /// The telemetry handle installed through [`IngestConfig::telemetry`]
    /// (disabled unless one was armed): read the pipeline's counters and
    /// journal from it, or hand clones to more components.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The unified observability snapshot of the queue façade: the registry
    /// and journal tail. The backend's slab statistics live behind the
    /// pipeline threads — read them from the backend's own
    /// `telemetry_snapshot()` after [`close`](IngestQueue::close).
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        crate::TelemetrySnapshot::gather(&self.telemetry, Default::default())
    }

    /// The MVCC snapshot of the most recently committed batch — a
    /// cheaply-cloned pinned view readers hold while the pipeline keeps
    /// committing. `None` until the first batch commits, or when
    /// [`IngestConfig::publish_snapshots`] is off.
    pub fn latest_snapshot(&self) -> Option<crate::Snapshot> {
        self.shared.latest_snapshot.lock().expect("snapshot slot mutex poisoned").clone()
    }

    /// Blocks until everything enqueued so far has been committed or failed.
    /// If the pipeline dies (a backend panic), the orphaned tickets are
    /// poisoned and `flush` returns instead of waiting forever.
    pub fn flush(&self) {
        let mut state = self.shared.state.lock().expect("queue lock");
        // The pipeline drains a non-empty queue without being asked, and its
        // exit (normal or by panic) empties the queue and signals `settled`.
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = self.shared.settled.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: everything already enqueued is drained and
    /// committed (as the pipeline's next batch, like any other), the
    /// pipeline thread stops, and the backend is returned. Subsequent
    /// `enqueue` calls fail with `XPUL-E06`.
    ///
    /// If the pipeline thread panicked (a backend crash mid-commit), it had
    /// already closed the queue and poisoned what was queued; the backend is
    /// lost with it, and `close` reports a typed `XPUL-E06` error instead of
    /// propagating the panic into the caller.
    pub fn close(mut self) -> Result<B> {
        self.shutdown().expect("pipeline joined once").map_err(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Error::Ingest(format!("ingest pipeline panicked: {what}"))
        })
    }

    /// Marks the queue closed, wakes the pipeline and joins it (`None` once
    /// joined). A poisoned lock is taken just the same: this runs from `Drop`.
    fn shutdown(&mut self) -> Option<std::thread::Result<B>> {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.shared.enqueued.notify_all();
        self.pipeline.take().map(JoinHandle::join)
    }
}

impl<B: IngestBackend> Drop for IngestQueue<B> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// the pipeline thread: drain everything queued → one aggregated commit
// ---------------------------------------------------------------------------

fn pipeline_loop<B: IngestBackend>(shared: &Shared, mut backend: B, config: &IngestConfig) -> B {
    let _exit = PipelineExit(shared);
    while let Some(batch) = next_batch(shared, config) {
        let settle = InFlightGuard { shared, n: batch.len() };
        if batch.len() > 1 {
            config.telemetry.count(|m| &m.rounds_coalesced);
        } else {
            config.telemetry.count(|m| &m.rounds_serialized);
        }
        // Failpoint: an injected preparation fault fails the batch's tickets
        // before anything is admitted; the pipeline continues.
        if let Some(kind) = fault_at(config, site::INGEST_PREPARE) {
            for e in batch {
                let err = Error::injected(site::INGEST_PREPARE, kind);
                finish(&config.telemetry, e.enqueued, e.completer, Err(err));
            }
        } else {
            commit_round(&mut backend, batch, config);
            if config.publish_snapshots {
                let snapshot = backend.snapshot_view();
                *shared.latest_snapshot.lock().expect("snapshot slot mutex poisoned") =
                    Some(snapshot);
            }
        }
        drop(settle);
    }
    backend
}

/// Group commit: sleeps while the queue is empty, then drains everything
/// queued — whatever arrived while the previous batch was committing — as
/// one batch, bounded by the queue's capacity. `None` once the queue is
/// closed and empty.
fn next_batch(shared: &Shared, config: &IngestConfig) -> Option<Vec<QueuedEntry>> {
    let mut state = shared.state.lock().expect("queue lock");
    while state.queue.is_empty() {
        if state.closed {
            return None;
        }
        state = shared.enqueued.wait(state).expect("queue lock");
    }
    state.in_flight += state.queue.len();
    let batch = state.queue.drain(..).collect();
    config.telemetry.gauge_set(|m| &m.queue_depth, 0);
    drop(state);
    // Space was freed: wake any producer blocked on the capacity bound.
    shared.settled.notify_all();
    Some(batch)
}

/// Closes the queue when the pipeline thread exits — including when a
/// backend panic unwinds it — and poisons every ticket still queued
/// (`XPUL-E06`, through its completer's drop), so no producer waits on a
/// submission no thread will commit and later enqueues fail fast.
struct PipelineExit<'a>(&'a Shared);

impl Drop for PipelineExit<'_> {
    fn drop(&mut self) {
        let orphans = {
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.closed = true;
            std::mem::take(&mut state.queue)
        };
        drop(orphans);
        self.0.settled.notify_all();
    }
}

/// Consults the failpoint at `site`, counting and journaling a hit.
fn fault_at(config: &IngestConfig, site: &'static str) -> Option<FaultKind> {
    let kind = config.faults.check(site)?;
    config.telemetry.count(|m| &m.fault_hits);
    config.telemetry.event(EventKind::FaultHit, 0, || format!("{site}: injected {kind:?}"));
    Some(kind)
}

/// Completes a ticket, recording its end-to-end latency and the
/// committed/failed counter for its outcome, so
/// `tickets_committed + tickets_failed` = completed tickets.
fn finish(
    telemetry: &Telemetry,
    enqueued: Option<Instant>,
    completer: TicketCompleter,
    outcome: Result<TicketOutcome>,
) {
    if let Some(t0) = enqueued {
        telemetry.observe_since(|m| &m.ticket_latency_ns, t0);
    }
    match &outcome {
        Ok(_) => telemetry.count(|m| &m.tickets_committed),
        Err(_) => telemetry.count(|m| &m.tickets_failed),
    }
    completer.complete(outcome);
}

// ---------------------------------------------------------------------------
// commits: admit → resolve → commit → complete tickets
// ---------------------------------------------------------------------------

/// Settles a drained batch: decrements the in-flight count and wakes `flush`
/// waiters when dropped — *including* during a panic unwind, so a backend
/// crash inside `commit_round` cannot strand `flush` waiting on work no
/// thread will ever settle (the tickets themselves are poisoned by their
/// completers' own drops).
struct InFlightGuard<'a> {
    shared: &'a Shared,
    n: usize,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.in_flight -= self.n;
        }
        self.shared.settled.notify_all();
    }
}

/// Commits one drained batch: its members are admitted as one submission
/// ([`IngestBackend::admit`]), resolved and committed once, and every ticket
/// reports the one version.
///
/// When aggregation refuses the batch or its commit fails (the journal has
/// already rolled the document back bit-identically), a multi-member batch is
/// retried one member at a time in enqueue order, so only the genuinely
/// failing submissions fail — exactly the outcome a sequential
/// `submit → resolve → commit` per producer would have produced.
fn commit_round<B: IngestBackend>(
    backend: &mut B,
    entries: Vec<QueuedEntry>,
    config: &IngestConfig,
) {
    let batch: Vec<&Pul> = entries.iter().map(|e| &e.pul).collect();
    let committed = try_commit(backend, &batch, config);
    if committed.is_err() && entries.len() > 1 {
        for entry in entries {
            commit_round(backend, vec![entry], config);
        }
        return;
    }
    for entry in entries {
        let outcome = committed.clone().map(|version| TicketOutcome { version });
        finish(&config.telemetry, entry.enqueued, entry.completer, outcome);
    }
}

/// One commit attempt: the [`site::INGEST_COMMIT`] failpoint (an injected
/// fault fails the attempt exactly like a real commit failure), then admit →
/// resolve → commit. A failed attempt discards its submission again, so a
/// later batch cannot resurrect it.
fn try_commit<B: IngestBackend>(
    backend: &mut B,
    batch: &[&Pul],
    config: &IngestConfig,
) -> Result<u64> {
    if let Some(kind) = fault_at(config, site::INGEST_COMMIT) {
        return Err(Error::injected(site::INGEST_COMMIT, kind));
    }
    let id = backend.admit(batch)?;
    let committed = backend.resolve_pending().and_then(|r| backend.commit_pending(r));
    if committed.is_err() {
        backend.discard(id);
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, ShardedExecutor};
    use pul::UpdateOp;
    use std::sync::mpsc;
    use std::time::Duration;
    use xdm::Tree;

    /// ids: lib=1, year=2, b1=3, t=4, "A"=5, b2=6, t=7, "B"=8,
    ///      b3=9, t=10, "C"=11, b4=12, t=13, "D"=14
    const LIB: &str = "<lib year=\"2011\"><b1><t>A</t></b1><b2><t>B</t></b2>\
                       <b3><t>C</t></b3><b4><t>D</t></b4></lib>";

    #[test]
    fn independent_submissions_coalesce_into_one_version() {
        let session = Executor::parse(LIB).unwrap();
        let puls: Vec<Pul> = [(3u64, "x1"), (6u64, "x2"), (9u64, "x3"), (12u64, "x4")]
            .iter()
            .map(|&(id, name)| session.pul_from_ops(vec![UpdateOp::rename(id, name)]))
            .collect();
        let queue = IngestQueue::new(session);
        let tickets = queue.enqueue_all(puls).unwrap();
        queue.flush();
        let outcomes: Vec<TicketOutcome> =
            tickets.iter().map(|t| t.wait().expect("independent renames commit")).collect();
        // all four commit — and in a single coalesced version
        let versions: Vec<u64> = outcomes.iter().map(|o| o.version).collect();
        assert!(versions.iter().all(|&v| v == versions[0]), "coalesced: {versions:?}");
        let session = queue.close().unwrap();
        assert_eq!(session.version(), 1, "one commit for four independent submissions");
        let xml = session.serialize();
        for name in ["<x1>", "<x2>", "<x3>", "<x4>"] {
            assert!(xml.contains(name), "{xml}");
        }
        session.assert_consistent();
    }

    #[test]
    fn overlapping_submissions_serialize_in_enqueue_order() {
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::replace_value(5u64, "first")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::replace_value(5u64, "second")]);
        let queue = IngestQueue::new(session);
        let [t1, t2]: [Ticket; 2] = queue.enqueue_all([p1, p2]).unwrap().try_into().unwrap();
        queue.flush();
        let o1 = t1.wait().unwrap();
        let o2 = t2.wait().unwrap();
        assert_eq!(o1.version, o2.version, "one batch commits as one aggregate");
        let session = queue.close().unwrap();
        assert_eq!(session.version(), 1);
        let xml = session.serialize();
        assert!(xml.contains("second") && !xml.contains("first"), "the later one wins: {xml}");
    }

    #[test]
    fn members_are_reduced_before_they_are_aggregated() {
        // b1 (3) holds <t>A</t>. The first member's ins↓ folds into its ins↘
        // (rule I7); the second member's lone ins↓ reduces to ins↙, so in
        // sequence l3 lands first. Reducing the raw aggregate instead would
        // fold l3 into the first member's ins↘, behind <t>.
        let session = Executor::parse(LIB).unwrap();
        let a = session.pul_from_ops(vec![
            UpdateOp::ins_into(3u64, vec![Tree::element("l1")]),
            UpdateOp::ins_last(3u64, vec![Tree::element("l2")]),
        ]);
        let b = session.pul_from_ops(vec![UpdateOp::ins_into(3u64, vec![Tree::element("l3")])]);
        let mut sequential = session.clone();
        for pul in [a.clone(), b.clone()] {
            sequential.submit(pul);
            sequential.commit().unwrap();
        }
        let queue = IngestQueue::new(session);
        let [ta, tb]: [Ticket; 2] = queue.enqueue_all([a, b]).unwrap().try_into().unwrap();
        queue.flush();
        assert_eq!(ta.wait().unwrap().version, tb.wait().unwrap().version);
        let session = queue.close().unwrap();
        assert_eq!(session.version(), 1, "one aggregated commit");
        let xml = session.serialize();
        assert!(xml.contains("<b1><l3/><t>A</t><l1/><l2/></b1>"), "{xml}");
        assert_eq!(xml, sequential.serialize());
        session.assert_consistent();
    }

    #[test]
    fn a_member_its_predecessors_made_inapplicable_fails_alone() {
        // The second member renames <t> inside b1, which the first member
        // deletes: in sequence it fails with XPUL-P01, so aggregation refuses
        // the batch and the singleton retries fail exactly that member.
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::delete(3u64)]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(4u64, "gone")]);
        let p3 = session.pul_from_ops(vec![UpdateOp::rename(6u64, "kept")]);
        let queue = IngestQueue::new(session);
        let tickets = queue.enqueue_all([p1, p2, p3]).unwrap();
        queue.flush();
        tickets[0].wait().expect("the deletion commits");
        assert_eq!(tickets[1].wait().unwrap_err().code(), "XPUL-P01");
        tickets[2].wait().expect("the independent rename commits");
        let session = queue.close().unwrap();
        let xml = session.serialize();
        assert!(
            !xml.contains("<b1>") && !xml.contains("<gone>") && xml.contains("<kept>"),
            "{xml}"
        );
        session.assert_consistent();
    }

    #[test]
    fn failing_submissions_fail_alone_and_the_document_rewinds() {
        let session = Executor::parse(LIB).unwrap();
        let good1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "kept1")]);
        // duplicate attribute insertion: fails mid-apply (dynamic error)
        let poison = session.pul_from_ops(vec![UpdateOp::ins_attributes(
            6u64,
            vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
        )]);
        let good2 = session.pul_from_ops(vec![UpdateOp::rename(12u64, "kept2")]);
        let queue = IngestQueue::new(session);
        let [t1, tp, t2]: [Ticket; 3] =
            queue.enqueue_all([good1, poison, good2]).unwrap().try_into().unwrap();
        queue.flush();
        t1.wait().expect("independent good submission commits");
        t2.wait().expect("independent good submission commits");
        let err = tp.wait().unwrap_err();
        assert_eq!(err.code(), "XPUL-P03", "{err}");
        let session = queue.close().unwrap();
        let xml = session.serialize();
        assert!(xml.contains("<kept1>") && xml.contains("<kept2>"), "{xml}");
        assert!(!xml.contains("id=\"1\""), "the poison PUL left no trace");
        session.assert_consistent();
        assert_eq!(session.pending(), 0, "failed submissions are discarded");
    }

    #[test]
    fn sharded_backend_works_behind_the_queue() {
        let session = ShardedExecutor::parse(LIB, 2).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "s0")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(12u64, "s1")]);
        let queue = IngestQueue::new(session);
        let [t1, t2]: [Ticket; 2] = queue.enqueue_all([p1, p2]).unwrap().try_into().unwrap();
        queue.flush();
        let o1 = t1.wait().unwrap();
        let o2 = t2.wait().unwrap();
        assert_eq!(o1.version, o2.version, "independent cross-shard PULs coalesce");
        let session = queue.close().unwrap();
        assert_eq!(session.version(), 1);
        assert!(session.serialize().contains("<s0>"));
        assert!(session.serialize().contains("<s1>"));
        session.assert_consistent();
    }

    #[test]
    fn enqueue_after_close_is_rejected_with_e06() {
        let session = Executor::parse(LIB).unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(3u64, "x")]);
        let mut queue = IngestQueue::new(session);
        queue.shutdown();
        let err = queue.enqueue(pul.clone()).unwrap_err();
        assert_eq!(err.code(), "XPUL-E06", "{err}");
        let err = queue.enqueue_all([pul]).unwrap_err();
        assert_eq!(err.code(), "XPUL-E06", "{err}");
    }

    #[test]
    fn closing_idle_queues_never_loses_the_shutdown_wakeup() {
        // Regression: `shutdown` used to set `closed` outside the state lock,
        // so the pipeline thread between its `closed` check and its untimed `wait`
        // missed the wakeup and `close` hung forever. Closing idle queues
        // after a swept delay lands `close` in that window within a few
        // thousand tries (without the fix this hangs on nearly every run).
        let (done, watchdog) = std::sync::mpsc::channel();
        let closer = std::thread::spawn(move || {
            let session = Executor::parse(LIB).unwrap();
            for i in 0..40_000u32 {
                let queue = IngestQueue::new(session.clone());
                for _ in 0..(i % 256) * 16 {
                    std::hint::spin_loop();
                }
                queue.close().unwrap();
            }
            let _ = done.send(());
        });
        watchdog
            .recv_timeout(Duration::from_secs(120))
            .expect("an idle queue's close() hung: lost shutdown wakeup");
        closer.join().unwrap();
    }

    #[test]
    fn close_flushes_the_remaining_queue() {
        let session = Executor::parse(LIB).unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(3u64, "flushed")]);
        let queue = IngestQueue::new(session);
        let ticket = queue.enqueue(pul).unwrap();
        // no flush(): close() must still drain and commit the entry
        let session = queue.close().unwrap();
        ticket.wait().expect("close drains the queue");
        assert!(session.serialize().contains("<flushed>"));
    }

    /// Backend double that panics on commit — the crash-in-pipeline case.
    struct PanickingBackend(Executor);

    /// Backend double delegating to `inner` whose first `admit` signals
    /// `held` and then blocks until `release` fires: the test holds batch 1
    /// mid-commit and fills the next group-commit window deterministically.
    struct GatedBackend<B> {
        inner: B,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    /// A gated backend plus the test's ends of its gate: `held` fires when
    /// batch 1 reaches `admit`, a send on `release` lets it proceed.
    fn gated<B>(inner: B) -> (GatedBackend<B>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        (GatedBackend { inner, gate: Some((held_tx, release_rx)) }, held, release)
    }

    impl<B: IngestBackend> IngestBackend for GatedBackend<B> {
        type Resolution = B::Resolution;
        fn admit(&mut self, batch: &[&Pul]) -> Result<SubmissionId> {
            if let Some((held, release)) = self.gate.take() {
                held.send(()).unwrap();
                release.recv().unwrap();
            }
            self.inner.admit(batch)
        }
        fn resolve_pending(&self) -> Result<B::Resolution> {
            self.inner.resolve_pending()
        }
        fn commit_pending(&mut self, resolution: B::Resolution) -> Result<u64> {
            self.inner.commit_pending(resolution)
        }
        fn snapshot_view(&self) -> crate::Snapshot {
            self.inner.snapshot_view()
        }
        fn discard(&mut self, id: SubmissionId) {
            self.inner.discard(id);
        }
        fn current_version(&self) -> u64 {
            self.inner.current_version()
        }
    }

    /// How long a test waits on a signal before declaring a hang.
    const PATIENCE: Duration = Duration::from_secs(10);

    impl IngestBackend for PanickingBackend {
        type Resolution = crate::Resolution;
        fn admit(&mut self, batch: &[&Pul]) -> Result<SubmissionId> {
            self.0.admit(batch)
        }
        fn resolve_pending(&self) -> Result<crate::Resolution> {
            self.0.resolve_pending()
        }
        fn commit_pending(&mut self, _resolution: crate::Resolution) -> Result<u64> {
            panic!("injected commit panic");
        }
        fn snapshot_view(&self) -> crate::Snapshot {
            self.0.snapshot_view()
        }
        fn discard(&mut self, id: SubmissionId) {
            self.0.discard(id);
        }
        fn current_version(&self) -> u64 {
            self.0.current_version()
        }
    }

    #[test]
    fn pipeline_panic_poisons_tickets_and_flush_returns() {
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "x")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(6u64, "y")]);
        let queue = IngestQueue::new(PanickingBackend(session));
        let [t1, t2]: [Ticket; 2] = queue.enqueue_all([p1, p2]).unwrap().try_into().unwrap();
        // must return (the in-flight count is settled by the unwind guard),
        // not hang forever
        queue.flush();
        assert_eq!(t1.wait().unwrap_err().code(), "XPUL-E06");
        assert_eq!(t2.wait().unwrap_err().code(), "XPUL-E06");
        drop(queue); // joins the panicked pipeline without propagating
    }

    #[test]
    fn a_dead_pipeline_fails_queued_and_later_submissions_with_e06() {
        // Regression: the pipeline's death left entries queued behind the
        // panicking batch stranded, and `enqueue` kept returning tickets no
        // thread would ever complete. Every wait here is bounded.
        let session = Executor::parse(LIB).unwrap();
        let puls: Vec<Pul> = [3u64, 6, 9, 12]
            .iter()
            .map(|&id| session.pul_from_ops(vec![UpdateOp::rename(id, "x")]))
            .collect();
        let [p1, p2, p3, p4]: [Pul; 4] = puls.try_into().unwrap();
        let (backend, held, release) = gated(PanickingBackend(session));
        let queue = IngestQueue::new(backend);
        let t1 = queue.enqueue(p1).unwrap();
        held.recv_timeout(PATIENCE).expect("batch 1 reaches admit");
        // Queued while the batch that will panic is committing.
        let t2 = queue.enqueue(p2.clone()).unwrap();
        release.send(()).unwrap();
        queue.flush();
        let (done, outcomes) = mpsc::channel();
        let waiters: Vec<_> = [t1, t2]
            .into_iter()
            .map(|ticket| {
                let done = done.clone();
                std::thread::spawn(move || done.send(ticket.wait()).unwrap())
            })
            .collect();
        for _ in 0..2 {
            let outcome =
                outcomes.recv_timeout(PATIENCE).expect("a stranded ticket never completed");
            assert_eq!(outcome.unwrap_err().code(), "XPUL-E06");
        }
        waiters.into_iter().for_each(|w| w.join().unwrap());
        // The dead pipeline closed the queue: later submissions fail fast.
        assert_eq!(queue.enqueue(p2).unwrap_err().code(), "XPUL-E06");
        assert_eq!(queue.enqueue(p3).unwrap_err().code(), "XPUL-E06");
        assert_eq!(queue.enqueue_all([p4]).unwrap_err().code(), "XPUL-E06");
        drop(queue);
    }

    #[test]
    fn everything_queued_during_a_commit_drains_as_one_batch() {
        // lib=1, e0..e40 = 2..42
        let xml: String = std::iter::once("<lib>".to_string())
            .chain((0..=40).map(|i| format!("<e{i}/>")))
            .chain(std::iter::once("</lib>".to_string()))
            .collect();
        let session = Executor::parse(&xml).unwrap();
        let mut puls: Vec<Pul> = (0..=40u64)
            .map(|i| session.pul_from_ops(vec![UpdateOp::rename(i + 2, format!("r{i}"))]))
            .collect();
        let rest = puls.split_off(1);
        let (backend, held, release) = gated(session);
        let queue = IngestQueue::new(backend);
        let first = queue.enqueue(puls.pop().unwrap()).unwrap();
        held.recv_timeout(PATIENCE).expect("batch 1 reaches admit");
        // 40 independent renames arrive one by one while batch 1 is held.
        let tickets: Vec<Ticket> = rest.into_iter().map(|p| queue.enqueue(p).unwrap()).collect();
        release.send(()).unwrap();
        assert_eq!(first.wait().unwrap().version, 1);
        let versions: Vec<u64> = tickets.iter().map(|t| t.wait().unwrap().version).collect();
        assert!(versions.iter().all(|&v| v == 2), "one batch, one version: {versions:?}");
        let session = queue.close().unwrap().inner;
        assert_eq!(session.version(), 2, "two commits for 41 submissions");
        assert!(session.serialize().contains("<r40/>"));
        session.assert_consistent();
    }

    #[test]
    fn enqueue_all_refuses_a_group_larger_than_capacity() {
        let session = Executor::parse(LIB).unwrap();
        let puls: Vec<Pul> = [3u64, 6, 9]
            .iter()
            .map(|&id| session.pul_from_ops(vec![UpdateOp::rename(id, "x")]))
            .collect();
        let queue =
            IngestQueue::with_config(session, IngestConfig { capacity: 2, ..Default::default() });
        let err = queue.enqueue_all(puls).unwrap_err();
        assert_eq!(err.code(), "XPUL-E08", "{err}");
        assert_eq!(queue.close().unwrap().version(), 0, "nothing of the group was queued");
    }

    #[test]
    fn enqueue_blocks_at_capacity_until_space_frees() {
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "x1")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(6u64, "x2")]);
        // capacity 1 with an eager pipeline: the second enqueue finds the
        // queue full and must wait for the drain, not error out.
        let queue =
            IngestQueue::with_config(session, IngestConfig { capacity: 1, ..Default::default() });
        let t1 = queue.enqueue(p1).unwrap();
        let t2 = queue.enqueue(p2).unwrap();
        queue.flush();
        t1.wait().unwrap();
        t2.wait().unwrap();
        let session = queue.close().unwrap();
        assert!(session.serialize().contains("<x2>"));
        session.assert_consistent();
    }

    #[test]
    fn close_after_pipeline_panic_returns_a_typed_error() {
        let session = Executor::parse(LIB).unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(3u64, "x")]);
        let queue = IngestQueue::new(PanickingBackend(session));
        let ticket = queue.enqueue(pul).unwrap();
        queue.flush();
        assert_eq!(ticket.wait().unwrap_err().code(), "XPUL-E06");
        // Regression: close() used to propagate the pipeline's panic into
        // the caller; it must report a typed error instead.
        let err = match queue.close() {
            Ok(_) => panic!("close must fail after a pipeline panic"),
            Err(e) => e,
        };
        assert_eq!(err.code(), "XPUL-E06", "{err}");
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn injected_commit_fault_degrades_to_singleton_retries() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "x1")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(6u64, "x2")]);
        let faults = FaultPlan::new(7)
            .fail(site::INGEST_COMMIT, Trigger::Nth(1), FaultKind::Transient)
            .arm();
        let queue = IngestQueue::with_config(
            session,
            IngestConfig { faults: faults.clone(), ..IngestConfig::default() },
        );
        let [t1, t2]: [Ticket; 2] = queue.enqueue_all([p1, p2]).unwrap().try_into().unwrap();
        queue.flush();
        // The merged attempt was failed by the injection; the singleton
        // retries commit both members, just in separate versions.
        let o1 = t1.wait().expect("singleton retry commits");
        let o2 = t2.wait().expect("singleton retry commits");
        assert!(o1.version < o2.version, "degraded to serialized singletons");
        assert_eq!(faults.injected_at(site::INGEST_COMMIT), 1);
        let session = queue.close().unwrap();
        assert_eq!(session.version(), 2);
        let xml = session.serialize();
        assert!(xml.contains("<x1>") && xml.contains("<x2>"), "{xml}");
        session.assert_consistent();
    }

    #[test]
    fn injected_prepare_fault_fails_the_round_and_the_pipeline_survives() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let session = Executor::parse(LIB).unwrap();
        let p1 = session.pul_from_ops(vec![UpdateOp::rename(3u64, "dropped")]);
        let p2 = session.pul_from_ops(vec![UpdateOp::rename(6u64, "kept")]);
        let faults = FaultPlan::new(7)
            .fail(site::INGEST_PREPARE, Trigger::Nth(1), FaultKind::Permanent)
            .arm();
        let queue =
            IngestQueue::with_config(session, IngestConfig { faults, ..Default::default() });
        let t1 = queue.enqueue(p1).unwrap();
        queue.flush();
        let err = t1.wait().unwrap_err();
        assert_eq!(err.code(), "XPUL-E04", "injected faults keep the I/O code: {err}");
        // The pipeline survives the injection: later rounds still commit.
        let t2 = queue.enqueue(p2).unwrap();
        queue.flush();
        t2.wait().expect("the pipeline survives an injected prepare fault");
        let session = queue.close().unwrap();
        let xml = session.serialize();
        assert!(xml.contains("<kept>") && !xml.contains("<dropped>"), "{xml}");
        session.assert_consistent();
    }
}
