//! Durability and time travel for executor sessions.
//!
//! [`Durable<B>`] wraps a session backend — [`Executor`] or
//! [`ShardedExecutor`] — around an on-disk [`Store`] (crate `pul_store`):
//!
//! - every committed PUL round is appended to a **write-ahead log** *before*
//!   the commit becomes observable: the backend applies the PUL to its
//!   document under the document journal, appends, and only then closes the
//!   journal, advances the version and patches the labeling; a failed append
//!   rolls the document back, so the WAL record is the commit point. The
//!   record holds the resolved PUL in its binary form (`pul::codec`, see
//!   `CommitRecord`), not the XML wire format;
//! - **checkpoints** snapshot the whole session — arena, labeling, version —
//!   as one contiguous checksummed image, triggered by WAL growth or by
//!   dead-slot churn (`slab_stats().dead_ratio`), and rotate the log; each
//!   shard's arena and labeling are one binary image (`xlabel::codec`: the
//!   document's node stream with every node's label keys inline), restored in
//!   one pass with the tree-shaped label fields derived from tree position;
//! - **recovery** ([`Durable::open`]) loads the last checkpoint, replays the
//!   WAL tail through the very same apply-then-patch path as the live commits,
//!   and discards a torn tail record. Damage with an intact later record
//!   behind it, a missing live segment and every later failure — an image or
//!   payload that does not decode, a retired format, a record that does not
//!   apply — are store corruption (`XPUL-E07`) naming the segment,
//!   checkpoint or record version;
//! - **[`read_at`](Durable::read_at)** pins any retained version into an
//!   immutable [`Snapshot`](crate::Snapshot) by replaying deltas forward from
//!   the nearest checkpoint at or below it. The current version is the live
//!   session's own snapshot; a historical one is replayed on every call and
//!   kept by nothing but the caller's handle;
//!   [`restore_at`](Durable::restore_at) materialises a full mutable session
//!   instead;
//! - **transient store failures** retry under one fixed budget: 4 retries,
//!   backoff from 1 ms doubling to a 50 ms cap, 1 s per operation. An
//!   exhausted budget degrades the session to read-only (`XPUL-E09`) until
//!   the store is reopened. Compaction is never triggered automatically:
//!   [`Durable::compact`] runs only when called.
//!
//! The store has one owner: the sink in the backend's session front, which
//! holds it together with the sticky degraded flag. `Durable` keeps only its
//! options and its maintenance record, and reaches the store through the
//! sink. The wrapper derefs to its backend, so the whole session API —
//! `submit` / `resolve` / `commit` — stays available unchanged, and commits
//! made through the deref'd backend are logged by that same sink. The
//! [`IngestQueue`](crate::IngestQueue) works unchanged too: `Durable<B>`
//! implements [`IngestBackend`] by delegation, logging one WAL record per
//! committed round and checkpointing between rounds.
//!
//! ```
//! use xmlpul::prelude::*;
//! use xmlpul::{Durable, DurableOptions};
//!
//! let dir = std::env::temp_dir().join(format!("xmlpul-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let session = Executor::parse("<doc><a/></doc>").unwrap();
//! let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
//!
//! let pul = durable.produce("insert nodes <b/> as last into /doc").unwrap();
//! durable.submit(pul);
//! durable.commit().unwrap();       // appended to the WAL before it reports
//!
//! // Crash? Reopen and find version 1 again, bit-identical.
//! drop(durable);
//! let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
//! assert_eq!(recovered.version(), 1);
//!
//! // Time travel: any retained version can be materialised.
//! let v0 = recovered.read_at(0).unwrap();
//! assert!(!v0.serialize().contains("<b/>"));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::HashSet;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::time::{Duration, Instant};

use pul::Pul;
use pul_store::{
    CheckpointState, Faults, ShardSnapshot, Store, StoreOptions, StoreResult, SyncPolicy,
};
use pul_telemetry::{EventKind, Telemetry};
use xdm::codec::{put_bytes, put_varint, DecodeError, Reader};
use xdm::NodeId;
use xlabel::codec::{decode_label, decode_labeled_document, encode_label, encode_labeled_document};
use xlabel::{LabelInterval, OrderKey};

use crate::error::{Error, Result};
use crate::executor::{Executor, ExecutorCore, SessionSlabStats, SubmissionId};
use crate::front::Front;
use crate::ingest::IngestBackend;
use crate::resolution::Resolution;
use crate::shard::{ShardedExecutor, ShardedResolution};
use crate::snapshot::Snapshot;

/// Why a [`Durable`] could find no sink in its session.
const DETACHED: &str = "the durable session's store was detached by replacing its backend";

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

// Transient store failures (see `Error::is_transient`) are retried with
// exponential backoff, all under one per-operation deadline; permanent
// failures never are. An operation that exhausts this budget tips the session
// into sticky degraded mode (`XPUL-E09`).

/// Retries after the first failed attempt.
const MAX_RETRIES: u32 = 4;
/// Sleep before the first retry; doubles per retry up to [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(50);
/// Wall-clock budget of one operation including its backoff sleeps: retries
/// stop once the next sleep would cross it.
const OP_DEADLINE: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// WAL record payloads
// ---------------------------------------------------------------------------

/// What one commit writes to the WAL, borrowed from the committing session.
/// The payload starts with one kind byte. `D` and `S` follow it with one
/// identifier-discipline byte (`P`: the commit grafted parameter trees with
/// their identifiers preserved, `F`: it minted fresh ones), then binary PULs
/// (`pul::codec`): one for `D`; for `S` a varint count, then each shard's
/// PUL as a varint length plus its bytes. `E` follows it with the epoch as
/// 8 little-endian bytes. The XML wire format is not used here: a payload
/// that still holds XML is corrupt. Replay must re-apply under the recorded
/// discipline: a delta committed with `preserve_content_ids` grafts the tree
/// identifiers the record carries, while a fresh-minting commit re-mints
/// deterministically from the restored identifier counter. Either way the
/// recovered arena is bit-identical to the one the live commit built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommitRecord<'a> {
    /// A single-executor commit: the resolved PUL that was applied (`D`).
    Delta {
        /// The resolved round PUL.
        pul: &'a Pul,
        /// The committing session's `ApplyOptions::preserve_content_ids`.
        preserve_content_ids: bool,
    },
    /// A sharded commit: the per-shard resolved PULs, in shard order (`S`).
    Sharded {
        /// The per-shard slices of the resolved round.
        puls: &'a [Pul],
        /// The committing session's `ApplyOptions::preserve_content_ids`.
        preserve_content_ids: bool,
    },
    /// A compaction: the session renumbered densely and opened `epoch` (`E`).
    /// Renumbering is deterministic, so the record carries only the epoch it
    /// opened — replay re-runs the same renumbering over the recovered state.
    Epoch {
        /// The epoch the compaction opened.
        epoch: u64,
    },
}

impl CommitRecord<'_> {
    /// Encodes the record into its WAL payload bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let discipline = |preserve: bool| if preserve { b'P' } else { b'F' };
        match self {
            CommitRecord::Delta { pul, preserve_content_ids } => {
                out.push(b'D');
                out.push(discipline(*preserve_content_ids));
                pul::codec::encode_pul(pul, &mut out);
            }
            CommitRecord::Sharded { puls, preserve_content_ids } => {
                out.push(b'S');
                out.push(discipline(*preserve_content_ids));
                put_varint(&mut out, puls.len() as u64);
                for pul in *puls {
                    put_bytes(&mut out, &pul::codec::pul_to_bytes(pul));
                }
            }
            CommitRecord::Epoch { epoch } => {
                out.push(b'E');
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        out
    }
}

/// A corrupt WAL payload or checkpoint image: `XPUL-E07`.
fn corrupt(what: &str, e: DecodeError) -> Error {
    Error::store(format!("{what}: {e}"))
}

/// An owned, decoded WAL payload — what recovery replays.
#[derive(Debug, Clone)]
pub(crate) enum CommitPayload {
    /// See [`CommitRecord::Delta`].
    Delta {
        /// The resolved round PUL.
        pul: Pul,
        /// The identifier discipline the commit applied under.
        preserve_content_ids: bool,
    },
    /// See [`CommitRecord::Sharded`].
    Sharded {
        /// The per-shard slices of the resolved round.
        puls: Vec<Pul>,
        /// The identifier discipline the commit applied under.
        preserve_content_ids: bool,
    },
    /// See [`CommitRecord::Epoch`].
    Epoch(u64),
}

impl CommitPayload {
    /// Decodes a WAL payload (the CRC of the frame already checked).
    pub(crate) fn decode(bytes: &[u8]) -> Result<CommitPayload> {
        let (&kind, rest) = bytes.split_first().ok_or_else(|| Error::store("empty WAL payload"))?;
        match kind {
            b'E' => {
                let epoch: [u8; 8] = rest.try_into().map_err(|_| {
                    Error::store(format!("epoch record of {} bytes, not 8", rest.len()))
                })?;
                return Ok(CommitPayload::Epoch(u64::from_le_bytes(epoch)));
            }
            b'D' | b'S' => {}
            other => return Err(Error::store(format!("unknown WAL payload kind {other:#04x}"))),
        }
        let (&flag, body) = rest
            .split_first()
            .ok_or_else(|| Error::store("WAL payload missing its discipline byte"))?;
        let preserve_content_ids = match flag {
            b'P' => true,
            b'F' => false,
            other => {
                return Err(Error::store(format!("unknown WAL identifier discipline {other:#04x}")))
            }
        };
        let bad = |e| corrupt("WAL payload", e);
        if kind == b'D' {
            let pul = pul::codec::pul_from_bytes(body).map_err(bad)?;
            return Ok(CommitPayload::Delta { pul, preserve_content_ids });
        }
        let mut r = Reader::new(body);
        let count = r.varint().map_err(bad)?;
        let mut puls = Vec::new();
        for _ in 0..count {
            puls.push(pul::codec::pul_from_bytes(r.bytes().map_err(bad)?).map_err(bad)?);
        }
        r.finish().map_err(bad)?;
        Ok(CommitPayload::Sharded { puls, preserve_content_ids })
    }
}

// ---------------------------------------------------------------------------
// The store sink
// ---------------------------------------------------------------------------

/// The sink slot embedded in the session front. **Cloning a session empties
/// the slot**: a clone is a divergent copy, and two sessions appending to one
/// WAL would interleave two histories.
#[derive(Default)]
pub(crate) struct SinkSlot(Option<StoreSink>);

impl SinkSlot {
    pub(crate) fn get(&self) -> Option<&StoreSink> {
        self.0.as_ref()
    }

    pub(crate) fn get_mut(&mut self) -> Option<&mut StoreSink> {
        self.0.as_mut()
    }

    fn set(&mut self, sink: StoreSink) {
        self.0 = Some(sink);
    }
}

impl Clone for SinkSlot {
    fn clone(&self) -> Self {
        SinkSlot(None)
    }
}

impl fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SinkSlot({})", if self.0.is_some() { "installed" } else { "empty" })
    }
}

/// The store of a durable session, owned by the session front: every commit
/// appends its WAL record here at its commit point, and [`Durable`] writes
/// its checkpoints here. Transient failures retry with bounded backoff; an
/// exhausted retry budget sets the sticky degraded flag — from then on every
/// write is refused with `XPUL-E09` until the store is reopened.
pub(crate) struct StoreSink {
    store: Store,
    /// Sticky read-only flag: set when a WAL append or a checkpoint write
    /// exhausts its retry budget.
    degraded: bool,
}

/// The `XPUL-E09` refusal of every write path in degraded mode.
fn degraded_error() -> Error {
    Error::Degraded("session is read-only after an exhausted retry budget".into())
}

impl StoreSink {
    /// Persists the record of the commit that produces `version`. Runs after
    /// the apply and before the commit point, while the document journal is
    /// still open and no label has been patched: an error aborts the commit,
    /// which rolls the document back as if the apply itself had failed.
    pub(crate) fn append(
        &mut self,
        version: u64,
        record: CommitRecord<'_>,
        telemetry: &Telemetry,
    ) -> Result<()> {
        let payload = record.encode();
        self.retried("WAL append", version, telemetry, |store| store.append(version, &payload))
    }

    /// Writes a checkpoint of `state` and rotates the WAL.
    fn checkpoint(&mut self, state: &CheckpointState, telemetry: &Telemetry) -> Result<()> {
        self.retried("checkpoint", state.version, telemetry, |store| store.write_checkpoint(state))
    }

    /// Runs `op` on the store: transient errors retry with exponential
    /// backoff until the attempt count or the operation deadline runs out,
    /// every retry counted and journaled through `telemetry`. Permanent
    /// failures are never retried and leave the session usable; an exhausted
    /// budget degrades it, recording the transition (not every refused write
    /// afterwards) as a counter bump plus an `XPUL-E09` journal event.
    fn retried<T>(
        &mut self,
        what: &str,
        version: u64,
        telemetry: &Telemetry,
        mut op: impl FnMut(&mut Store) -> StoreResult<T>,
    ) -> Result<T> {
        if self.degraded {
            return Err(degraded_error());
        }
        let (start, mut backoff, mut attempts) = (Instant::now(), BASE_BACKOFF, 0u32);
        loop {
            let e = match op(&mut self.store) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(Error::Store(e)),
                Err(e) => e,
            };
            attempts += 1;
            if attempts > MAX_RETRIES || start.elapsed().saturating_add(backoff) > OP_DEADLINE {
                self.degraded = true;
                telemetry.count(|m| &m.degraded_transitions);
                telemetry.event(EventKind::Degraded, version, || {
                    format!("session degraded to read-only: retries exhausted: {e}")
                });
                return Err(Error::Degraded(format!("{what} retries exhausted: {e}")));
            }
            telemetry.count(|m| &m.retry_attempts);
            telemetry.event(EventKind::Retry, version, || {
                format!("transient store failure, retrying (attempt {attempts}): {e}")
            });
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }
}

// ---------------------------------------------------------------------------
// Backend adapters
// ---------------------------------------------------------------------------

/// A session [`Durable`] can wrap, and through one blanket implementation an
/// [`IngestBackend`]: the verbs whose bodies depend on holding one core or N
/// shards (version, snapshot, resolve, commit), snapshot/restore through the
/// checkpoint image, record replay through the commit's apply path, and
/// compaction. Implemented by [`Executor`] and [`ShardedExecutor`] only: the
/// store, the telemetry handle and the pending submissions live in the
/// crate-private session front both embed, and the methods that return it
/// seal the trait.
pub trait DurableBackend: Send + Sized + 'static {
    /// The session's resolution type.
    type Resolved: Send;
    /// The session front (crate-private).
    fn front(&self) -> &Front;
    /// The session front, mutably (crate-private).
    fn front_mut(&mut self) -> &mut Front;
    /// The session version: 0 at creation, +1 per commit or compaction.
    fn session_version(&self) -> u64;
    /// Slot occupancy of the session's dense stores (drives the churn
    /// checkpoint trigger).
    fn session_slab_stats(&self) -> SessionSlabStats;
    /// `snapshot()`: the current version, pinned.
    fn session_snapshot(&self) -> Snapshot;
    /// `resolve()`: reasons on every pending submission.
    fn session_resolve(&self) -> Result<Self::Resolved>;
    /// `commit_resolution()`: the version the commit produced.
    fn session_commit(&mut self, resolution: Self::Resolved) -> Result<u64>;
    /// Freezes the full session state at the current version.
    fn checkpoint_state(&self) -> CheckpointState;
    /// Rebuilds a session's cores from a checkpoint image; [`Durable`]
    /// restores the epoch fence into the session front. Session configuration
    /// (policy, reduction strategy, apply options) reverts to the defaults —
    /// it is not durable state.
    fn restore(state: &CheckpointState) -> Result<Self>;
    /// Re-applies one WAL record payload, advancing the version by exactly
    /// one.
    fn replay(&mut self, payload: &[u8]) -> Result<()>;
    /// Installs the failpoint handle the backend consults during its own
    /// commit phases (e.g. shard apply). Backends without failpoints ignore
    /// it.
    fn install_faults(&mut self, _faults: Faults) {}
    /// Compacts the session: renumbers densely and opens a new epoch. The
    /// installed sink appends the epoch record before the renumbering, so a
    /// failed append leaves session and store on the pre-compaction version.
    fn compact_session(&mut self) -> Result<crate::CompactionReport>;
}

/// Snapshots one executor core into a shard image: the document's node
/// stream with each node's label keys inline (`xlabel::codec`).
fn snapshot_core(core: &ExecutorCore, lo: Vec<u8>, hi: Vec<u8>) -> ShardSnapshot {
    ShardSnapshot {
        image: encode_labeled_document(core.document(), core.labeling()),
        next_id: core.document().next_id(),
        version: core.version(),
        interval_lo: lo,
        interval_hi: hi,
    }
}

/// Rebuilds one executor core from a shard image: one pass restores the
/// arena with its original identifiers and the labeling, whose tree-shaped
/// fields come from each node's position; `reserve_ids` then lifts the
/// fresh-identifier counter over the snapshotted fence (so dead slots are
/// never re-minted).
fn core_from_snapshot(snap: &ShardSnapshot) -> Result<ExecutorCore> {
    let (mut doc, labeling) =
        decode_labeled_document(&snap.image).map_err(|e| corrupt("shard image", e))?;
    doc.reserve_ids(snap.next_id);
    let mut core = ExecutorCore::from_parts(doc, labeling);
    core.version = snap.version;
    Ok(core)
}

impl DurableBackend for Executor {
    type Resolved = Resolution;

    fn front(&self) -> &Front {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front {
        &mut self.front
    }

    fn session_version(&self) -> u64 {
        self.version()
    }

    fn session_slab_stats(&self) -> SessionSlabStats {
        self.slab_stats()
    }

    fn session_snapshot(&self) -> Snapshot {
        self.snapshot()
    }

    fn session_resolve(&self) -> Result<Resolution> {
        self.resolve()
    }

    fn session_commit(&mut self, resolution: Resolution) -> Result<u64> {
        self.commit_resolution(resolution).map(|report| report.version)
    }

    fn checkpoint_state(&self) -> CheckpointState {
        CheckpointState {
            version: self.version(),
            epoch: self.epoch(),
            sharded: false,
            root_id: 0,
            root_label: Vec::new(),
            shards: vec![snapshot_core(self.core(), Vec::new(), Vec::new())],
        }
    }

    fn restore(state: &CheckpointState) -> Result<Executor> {
        if state.sharded || state.shards.len() != 1 {
            return Err(Error::store(
                "checkpoint was written by a sharded session; restore a ShardedExecutor",
            ));
        }
        Ok(Executor::from_core(core_from_snapshot(&state.shards[0])?))
    }

    fn replay(&mut self, payload: &[u8]) -> Result<()> {
        match CommitPayload::decode(payload)? {
            CommitPayload::Delta { pul, preserve_content_ids } => {
                self.replay_delta(&pul, preserve_content_ids)
            }
            CommitPayload::Epoch(epoch) => {
                self.replay_epoch(epoch);
                Ok(())
            }
            CommitPayload::Sharded { .. } => {
                Err(Error::store("sharded WAL record replayed into a single executor"))
            }
        }
    }

    fn compact_session(&mut self) -> Result<crate::CompactionReport> {
        self.compact()
    }
}

/// The label-interval routing and the two-phase commit stay internal
/// to the session; the ingestion pipeline sees the same verbs as for a single
/// executor.
impl DurableBackend for ShardedExecutor {
    type Resolved = ShardedResolution;

    fn front(&self) -> &Front {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front {
        &mut self.front
    }

    fn session_version(&self) -> u64 {
        self.version()
    }

    fn session_slab_stats(&self) -> SessionSlabStats {
        self.slab_stats()
    }

    fn session_snapshot(&self) -> Snapshot {
        self.snapshot()
    }

    fn session_resolve(&self) -> Result<ShardedResolution> {
        self.resolve()
    }

    fn session_commit(&mut self, resolution: ShardedResolution) -> Result<u64> {
        self.commit_resolution(resolution).map(|report| report.version)
    }

    fn checkpoint_state(&self) -> CheckpointState {
        let (root_id, root_label) = self.root_identity();
        let mut label = Vec::new();
        encode_label(root_label, &mut label);
        CheckpointState {
            version: self.version(),
            epoch: self.epoch(),
            sharded: true,
            root_id: root_id.as_u64(),
            root_label: label,
            shards: (0..self.shard_count())
                .map(|k| {
                    let interval = self.shard_interval(k);
                    snapshot_core(
                        self.shard(k),
                        interval.lo().digits().to_vec(),
                        interval.hi().digits().to_vec(),
                    )
                })
                .collect(),
        }
    }

    fn restore(state: &CheckpointState) -> Result<ShardedExecutor> {
        if !state.sharded {
            return Err(Error::store(
                "checkpoint was written by a single executor; restore an Executor",
            ));
        }
        let root_id = NodeId::new(state.root_id);
        let mut r = Reader::new(&state.root_label);
        let root_label = decode_label(&mut r, root_id)
            .and_then(|label| r.finish().map(|()| label))
            .map_err(|e| corrupt("root label", e))?;
        if state.shards.is_empty() {
            return Err(Error::store("sharded checkpoint without shards"));
        }
        // Each image is sound on its own; what the session assumes across
        // them is checked here: chained intervals, one shared root, and
        // every other node in exactly one shard.
        let mut shards: Vec<(ExecutorCore, LabelInterval)> = Vec::new();
        let mut seen = HashSet::new();
        for snap in &state.shards {
            let lo = OrderKey::from_digits(snap.interval_lo.clone());
            let hi = OrderKey::from_digits(snap.interval_hi.clone());
            if lo >= hi || shards.last().is_some_and(|(_, prev)| prev.hi() > &lo) {
                return Err(Error::store("shard intervals out of order"));
            }
            let core = core_from_snapshot(snap)?;
            if core.document().root() != Some(root_id) {
                return Err(Error::store(format!("shard image not rooted at node {root_id}")));
            }
            if !core.document().node_ids().filter(|&id| id != root_id).all(|id| seen.insert(id)) {
                return Err(Error::store("a node is held by two shard images"));
            }
            shards.push((core, LabelInterval::new(lo, hi)));
        }
        Ok(ShardedExecutor::from_shards(shards, root_id, root_label, state.version))
    }

    fn replay(&mut self, payload: &[u8]) -> Result<()> {
        match CommitPayload::decode(payload)? {
            // A sharded record feeds the live two-phase commit a synthetic
            // resolution against the current version with no submissions to
            // consume, under the identifier discipline the record was
            // committed with, so replay mints the exact identifiers the live
            // commit did. The sink is never installed while replaying, so
            // nothing is re-appended.
            CommitPayload::Sharded { puls, preserve_content_ids } => {
                if puls.len() != self.shard_count() {
                    return Err(Error::store(format!(
                        "WAL record fans out to {} shards, session has {}",
                        puls.len(),
                        self.shard_count()
                    )));
                }
                let live = self.set_preserve_content_ids(preserve_content_ids);
                let resolution = ShardedResolution {
                    version: self.version(),
                    submission_ids: Vec::new(),
                    per_shard: puls,
                    conflicts: Vec::new(),
                };
                let replayed = self.commit_resolution(resolution);
                self.set_preserve_content_ids(live);
                replayed.map(|_| ())
            }
            CommitPayload::Epoch(epoch) => self.replay_epoch(epoch),
            CommitPayload::Delta { .. } => {
                Err(Error::store("single-executor WAL record replayed into a sharded session"))
            }
        }
    }

    fn install_faults(&mut self, faults: Faults) {
        self.set_faults(faults);
    }

    fn compact_session(&mut self) -> Result<crate::CompactionReport> {
        self.compact()
    }
}

// ---------------------------------------------------------------------------
// The durable façade
// ---------------------------------------------------------------------------

/// Configuration of a [`Durable`] session.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// WAL sync policy (default: [`SyncPolicy::PerCommit`] — a reported
    /// commit is durable).
    pub sync: SyncPolicy,
    /// Checkpoint once the live WAL segment reaches this many bytes
    /// (default 1 MiB).
    pub checkpoint_wal_bytes: u64,
    /// Checkpoint once the node arena's dead-slot growth since the last
    /// checkpoint reaches this fraction of the live population (default 0.5).
    /// Identifiers are never reused, so a checkpoint is the only point where
    /// the on-disk image sheds dead slots.
    pub checkpoint_dead_ratio: f64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::PerCommit,
            checkpoint_wal_bytes: 1 << 20,
            checkpoint_dead_ratio: 0.5,
        }
    }
}

impl DurableOptions {
    fn store_options(&self) -> StoreOptions {
        StoreOptions { sync: self.sync }
    }
}

/// A durable session: a backend (deref'd, full session API available) whose
/// front owns the store its commits append to. See the module documentation.
pub struct Durable<B: DurableBackend> {
    backend: B,
    opts: DurableOptions,
    /// Node-arena dead-slot count when the last checkpoint was written; the
    /// churn trigger compares against it.
    dead_at_checkpoint: usize,
    /// The most recent background-maintenance failure — see
    /// [`last_maintenance_error`](Durable::last_maintenance_error).
    last_maintenance_error: Option<Error>,
    /// How many background-maintenance attempts have failed.
    maintenance_failures: u64,
}

impl<B: DurableBackend> Durable<B> {
    /// Creates a fresh store in `dir` (which must not already hold one),
    /// writes a base checkpoint of `backend` at its current version, and
    /// moves the store into the session. Every commit from here on is logged.
    pub fn create(dir: impl AsRef<Path>, backend: B, opts: DurableOptions) -> Result<Durable<B>> {
        let store = Store::create(dir, opts.store_options())?;
        let mut durable = Durable::assemble(backend, store, opts);
        durable.checkpoint()?;
        Ok(durable)
    }

    /// Recovers a session from `dir`: loads the last checkpoint, replays the
    /// WAL tail through the commit's apply path (the store scan already
    /// discarded any torn tail record, or refused damage with later records
    /// behind it), and moves the store into the session. The recovered state
    /// is bit-identical to the last durable version's.
    pub fn open(dir: impl AsRef<Path>, opts: DurableOptions) -> Result<Durable<B>> {
        let store = Store::open(dir, opts.store_options())?;
        let base =
            store.last_checkpoint().ok_or_else(|| Error::store("store holds no checkpoint"))?;
        let backend = recover(&store, base, u64::MAX)?;
        Ok(Durable::assemble(backend, store, opts))
    }

    /// Moves `store` into `backend`'s front as its sink; the churn trigger
    /// counts dead slots from the backend's current ones.
    fn assemble(mut backend: B, store: Store, opts: DurableOptions) -> Durable<B> {
        backend.front_mut().sink.set(StoreSink { store, degraded: false });
        Durable {
            dead_at_checkpoint: backend.session_slab_stats().nodes.dead,
            backend,
            opts,
            last_maintenance_error: None,
            maintenance_failures: 0,
        }
    }

    /// The session's sink. Present from construction on: nothing but
    /// replacing the whole backend through `DerefMut` takes it out.
    fn sink(&self) -> &StoreSink {
        self.backend.front().sink.get().expect(DETACHED)
    }

    /// The session's sink and the telemetry handle it reports through.
    fn sink_mut(&mut self) -> (&mut StoreSink, &Telemetry) {
        let front = self.backend.front_mut();
        (front.sink.get_mut().expect(DETACHED), &front.telemetry)
    }

    /// Installs one telemetry handle across the whole durable stack: the
    /// store (WAL/checkpoint timings) and the session (commit spans, snapshot
    /// re-pins and freezes, retry counters, degraded transitions). Pass
    /// [`Telemetry::enabled`] to arm; clones of the same handle observe into
    /// the same registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.sink_mut().0.store.set_telemetry(telemetry.clone());
        self.backend.front_mut().telemetry = telemetry;
    }

    /// The installed telemetry handle (disabled unless
    /// [`set_telemetry`](Durable::set_telemetry) armed one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.backend.front().telemetry
    }

    /// The unified observability snapshot of the durable stack: the shared
    /// registry and journal tail plus the backend session's slab statistics.
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        crate::TelemetrySnapshot::gather(self.telemetry(), self.backend.session_slab_stats())
    }

    /// Installs an armed failpoint handle across the whole durable stack:
    /// the store (WAL append/sync/rotation, checkpoint write/rename) and the
    /// backend (shard apply). Tests only; a handle is never installed in
    /// production paths.
    pub fn inject_faults(&mut self, faults: Faults) {
        self.sink_mut().0.store.set_faults(faults.clone());
        self.backend.install_faults(faults);
    }

    /// Whether the session is in sticky read-only degraded mode: a WAL
    /// append or checkpoint write exhausted its retry budget. Commits and
    /// checkpoints are refused with `XPUL-E09`; reads (including
    /// [`Durable::read_at`]) still work. Reopening the store is the recovery
    /// path.
    pub fn is_degraded(&self) -> bool {
        self.sink().degraded
    }

    /// The `XPUL-E09` refusal of every write path in degraded mode.
    fn refuse_if_degraded(&self) -> Result<()> {
        if self.is_degraded() {
            return Err(degraded_error());
        }
        Ok(())
    }

    /// The wrapped backend (also reachable through deref).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Bytes in the live WAL segment.
    pub fn wal_bytes(&self) -> u64 {
        self.sink().store.wal_bytes()
    }

    /// Version of the most recent durable checkpoint.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.sink().store.last_checkpoint()
    }

    /// Versions of every retained checkpoint, ascending.
    pub fn checkpoints(&self) -> Vec<u64> {
        self.sink().store.checkpoints().to_vec()
    }

    /// Writes a checkpoint of the current state unconditionally and rotates
    /// the WAL, retrying transient failures with bounded backoff. Returns the
    /// checkpointed version. An exhausted retry budget degrades the session
    /// (`XPUL-E09`).
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.refuse_if_degraded()?;
        let state = self.backend.checkpoint_state();
        let (sink, telemetry) = self.sink_mut();
        sink.checkpoint(&state, telemetry)?;
        self.dead_at_checkpoint = self.backend.session_slab_stats().nodes.dead;
        Ok(state.version)
    }

    /// Checkpoints if a trigger fires: the live WAL segment reached
    /// `checkpoint_wal_bytes`, or dead-slot churn since the last checkpoint
    /// reached `checkpoint_dead_ratio` of the live population. No-op while
    /// the current version is already checkpointed. In degraded mode the
    /// call fails with `XPUL-E09` — stickiness is observable here too.
    pub fn checkpoint_if_due(&mut self) -> Result<bool> {
        self.refuse_if_degraded()?;
        let version = self.backend.current_version();
        let store = &self.sink().store;
        let (wal_bytes, last) = (store.wal_bytes(), store.last_checkpoint());
        if last.is_some_and(|c| c >= version) {
            return Ok(false);
        }
        let nodes = self.backend.session_slab_stats().nodes;
        let churn =
            nodes.dead.saturating_sub(self.dead_at_checkpoint) as f64 / nodes.live.max(1) as f64;
        if wal_bytes >= self.opts.checkpoint_wal_bytes || churn >= self.opts.checkpoint_dead_ratio {
            self.checkpoint()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Compacts the session durably: the backend renumbers densely behind an
    /// epoch record (appended through the sink *before* the renumbering, so a
    /// failed append leaves session and store on the pre-compaction version),
    /// then a fresh checkpoint freezes the dense image. The checkpoint is
    /// best-effort — the epoch record alone already recovers bit-identically,
    /// so its failure must not fail the durably-committed compaction.
    pub fn compact(&mut self) -> Result<crate::CompactionReport> {
        self.refuse_if_degraded()?;
        let report = self.backend.compact_session()?;
        let after = self.checkpoint();
        self.note_maintenance(after);
        Ok(report)
    }

    /// Commits everything pending durably, then runs the checkpoint
    /// triggers: the one-call loop body for long-lived sessions. Compaction
    /// is never triggered here; call [`compact`](Durable::compact).
    pub fn commit_durable(&mut self) -> Result<u64> {
        let resolution = self.backend.resolve_pending()?;
        let version = self.backend.commit_pending(resolution)?;
        // The commit's WAL record is durable at this point: a checkpoint
        // failure must not fail the commit (a caller retrying it would
        // re-apply an applied round). Degradation surfaces on the *next*
        // commit through the sink; the failure itself is recorded in
        // `last_maintenance_error` rather than swallowed.
        let checkpointed = self.checkpoint_if_due();
        self.note_maintenance(checkpointed);
        Ok(version)
    }

    /// Records a background-maintenance outcome: commit paths must stay
    /// infallible once the round's WAL record is durable, so a failed
    /// opportunistic checkpoint is *recorded* here instead of surfacing from
    /// the commit (where a retry would re-apply the round).
    fn note_maintenance<T>(&mut self, outcome: Result<T>) {
        if let Err(e) = outcome {
            self.maintenance_failures += 1;
            let version = self.backend.current_version();
            self.telemetry().count(|m| &m.maintenance_failures);
            self.telemetry().event(EventKind::MaintenanceFailure, version, || {
                format!("background maintenance failed: {e}")
            });
            self.last_maintenance_error = Some(e);
        }
    }

    /// The most recent failure of opportunistic background maintenance — the
    /// post-commit `checkpoint_if_due` trigger and the best-effort checkpoint
    /// after a durable compaction. `None` when every attempt so far
    /// succeeded. The error is sticky until a later failure replaces it; a
    /// degraded session additionally refuses commits with `XPUL-E09`.
    pub fn last_maintenance_error(&self) -> Option<&Error> {
        self.last_maintenance_error.as_ref()
    }

    /// How many background-maintenance attempts have failed over this
    /// session's lifetime (each also recorded, last one in
    /// [`last_maintenance_error`](Durable::last_maintenance_error)).
    pub fn maintenance_failures(&self) -> u64 {
        self.maintenance_failures
    }

    /// Pins `version` into an immutable [`Snapshot`] (a point-in-time read).
    /// The current version is pinned straight from the live backend without
    /// touching the store at all, as its `snapshot()` would: repeated reads
    /// are reference-count bumps. A historical version restores the nearest
    /// checkpoint and replays deltas forward — O(history) on every call; the
    /// session keeps nothing of it, so dropping the handle frees it. Fails
    /// with `XPUL-E07` for never-durable versions.
    pub fn read_at(&self, version: u64) -> Result<Snapshot> {
        if version == self.backend.current_version() {
            return Ok(self.backend.snapshot_view());
        }
        Ok(self.restore_at(version)?.snapshot_view())
    }

    /// Materialises the session as it was at `version` (a mutable
    /// point-in-time restore): restores the greatest retained checkpoint at
    /// or below it and replays deltas forward. The returned session is a
    /// plain backend with no sink — committing to it never touches this
    /// store. Fails with `XPUL-E07` for never-durable versions. For
    /// read-only access prefer [`read_at`](Durable::read_at).
    pub fn restore_at(&self, version: u64) -> Result<B> {
        let store = &self.sink().store;
        let base = store.checkpoint_at_or_before(version).ok_or_else(|| {
            Error::store(format!("no checkpoint at or below version {version} is retained"))
        })?;
        let backend: B = recover(store, base, version)?;
        if backend.current_version() != version {
            return Err(Error::store(format!(
                "version {version} is not durable (replay stopped at {})",
                backend.current_version()
            )));
        }
        Ok(backend)
    }
}

/// Restores the checkpoint at `base` and replays the WAL records after it, up
/// to `upto`, through the commit's apply path; every record must land on the
/// version it claims. Whatever fails on the way — an image or payload that
/// does not decode, a record that does not apply — is store corruption
/// (`XPUL-E07`) naming the checkpoint or record version.
fn recover<B: DurableBackend>(store: &Store, base: u64, upto: u64) -> Result<B> {
    let failed = |at: String, e: Error| match e {
        Error::Store(inner) => Error::store(format!("{at}: {}", inner.msg)),
        other => Error::store(format!("{at}: {other}")),
    };
    let state = store.load_checkpoint(base)?;
    let mut backend = B::restore(&state).map_err(|e| failed(format!("checkpoint v{base}"), e))?;
    backend.front_mut().epoch = state.epoch;
    for record in store.replay_records(base, upto)? {
        backend
            .replay(&record.payload)
            .map_err(|e| failed(format!("WAL record v{}", record.version), e))?;
        if backend.current_version() != record.version {
            return Err(Error::store(format!(
                "WAL replay reached version {} where the record claims {}",
                backend.current_version(),
                record.version
            )));
        }
    }
    Ok(backend)
}

impl<B: DurableBackend> Deref for Durable<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.backend
    }
}

impl<B: DurableBackend> DerefMut for Durable<B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<B: DurableBackend + fmt::Debug> fmt::Debug for Durable<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durable")
            .field("backend", &self.backend)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// The ingestion pipeline runs over a durable backend unchanged: one WAL
/// record and one sync per committed batch (the backend's sink fires inside
/// `commit_pending`), with the checkpoint triggers evaluated between batches.
impl<B: DurableBackend> IngestBackend for Durable<B> {
    type Resolution = B::Resolved;

    fn admit(&mut self, batch: &[&Pul]) -> Result<SubmissionId> {
        self.backend.admit(batch)
    }

    fn resolve_pending(&self) -> Result<B::Resolved> {
        self.backend.resolve_pending()
    }

    fn commit_pending(&mut self, resolution: B::Resolved) -> Result<u64> {
        let version = self.backend.commit_pending(resolution)?;
        // The batch is durably committed: a checkpoint failure here must not
        // fail it, or the ingest pipeline would retry (and re-apply) an
        // already-applied batch. Degradation surfaces on the next batch.
        let checkpointed = self.checkpoint_if_due();
        self.note_maintenance(checkpointed);
        Ok(version)
    }

    fn snapshot_view(&self) -> Snapshot {
        self.backend.snapshot_view()
    }

    fn discard(&mut self, id: SubmissionId) {
        self.backend.discard(id)
    }

    fn current_version(&self) -> u64 {
        self.backend.current_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pul::UpdateOp;
    use pul_store::site;
    use std::path::PathBuf;
    use xdm::Tree;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xmlpul_durable_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const DOC: &str = "<lib><b1><t>A</t></b1><b2><t>B</t></b2><b3><t>C</t></b3></lib>";

    fn commit_rename(session: &mut Executor, target: &str, to: &str) {
        let id = session.document().find_element(target).unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(id, to)]);
        session.submit(pul);
        session.commit().unwrap();
    }

    #[test]
    fn executor_recovers_bit_identical() {
        let dir = tmp_dir("exec_recover");
        let session = Executor::parse(DOC).unwrap();
        let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
        commit_rename(&mut durable, "b1", "book");
        let pul = durable.produce("insert nodes <b4/> as last into /lib").unwrap();
        durable.submit(pul);
        durable.commit().unwrap();
        let reference = durable.backend().clone();
        drop(durable);

        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 2);
        assert!(recovered.document().deep_eq(reference.document()));
        assert!(recovered.labeling().deep_eq(reference.labeling()));
        recovered.assert_consistent();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_sessions_keep_committing_durably() {
        let dir = tmp_dir("exec_continue");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "x");
        drop(durable);
        let mut durable: Durable<Executor> =
            Durable::open(&dir, DurableOptions::default()).unwrap();
        commit_rename(&mut durable, "b2", "y");
        drop(durable);
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 2);
        assert!(recovered.serialize().contains("<x>"));
        assert!(recovered.serialize().contains("<y>"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_at_materialises_every_version() {
        let dir = tmp_dir("exec_read_at");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        let mut serializations = vec![durable.serialize()];
        for (target, to) in [("b1", "v1"), ("b2", "v2"), ("b3", "v3")] {
            commit_rename(&mut durable, target, to);
            serializations.push(durable.serialize());
        }
        // a mid-history checkpoint must not break earlier reads
        durable.checkpoint().unwrap();
        commit_rename(&mut durable, "v1", "v4");
        serializations.push(durable.serialize());

        for (v, expect) in serializations.iter().enumerate() {
            let at = durable.read_at(v as u64).unwrap();
            assert_eq!(&at.serialize(), expect, "read_at({v})");
            assert_eq!(at.version(), v as u64);
            at.assert_consistent();
        }
        assert_eq!(durable.read_at(99).unwrap_err().code(), "XPUL-E07");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_recovers_bit_identical() {
        let dir = tmp_dir("shard_recover");
        let session = ShardedExecutor::parse(DOC, 2).unwrap();
        let mut durable = Durable::create(&dir, session, DurableOptions::default()).unwrap();
        let pul = durable.pul_from_ops(vec![
            UpdateOp::rename(2u64, "book"),
            UpdateOp::ins_last(8u64, vec![Tree::element_with_text("note", "n")]),
        ]);
        durable.submit(pul);
        durable.commit().unwrap();
        let reference = durable.backend().clone();
        drop(durable);

        let recovered: Durable<ShardedExecutor> =
            Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 1);
        assert_eq!(recovered.shard_count(), 2);
        for k in 0..2 {
            assert!(recovered.shard(k).document().deep_eq(reference.shard(k).document()));
            assert!(recovered.shard(k).labeling().deep_eq(reference.shard(k).labeling()));
        }
        recovered.assert_consistent();
        // and it keeps committing with correct routing
        let mut recovered = recovered;
        let pul = recovered.pul_from_ops(vec![UpdateOp::rename(5u64, "renamed")]);
        recovered.submit(pul);
        recovered.commit().unwrap();
        assert!(recovered.serialize().contains("<renamed>"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_growth_triggers_a_checkpoint() {
        let dir = tmp_dir("wal_trigger");
        let opts = DurableOptions { checkpoint_wal_bytes: 64, ..DurableOptions::default() };
        let mut durable = Durable::create(&dir, Executor::parse(DOC).unwrap(), opts).unwrap();
        assert_eq!(durable.last_checkpoint(), Some(0));
        commit_rename(&mut durable, "b1", "renamed-to-something-longer-than-the-threshold");
        assert!(durable.checkpoint_if_due().unwrap());
        assert_eq!(durable.last_checkpoint(), Some(1));
        assert_eq!(durable.wal_bytes(), 0, "checkpoint rotates the WAL");
        assert!(!durable.checkpoint_if_due().unwrap(), "no re-checkpoint at the same version");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_slot_churn_triggers_a_checkpoint() {
        let dir = tmp_dir("churn_trigger");
        let opts = DurableOptions {
            checkpoint_wal_bytes: u64::MAX,
            checkpoint_dead_ratio: 0.3,
            ..DurableOptions::default()
        };
        let mut durable = Durable::create(&dir, Executor::parse(DOC).unwrap(), opts).unwrap();
        let b1 = durable.document().find_element("b1").unwrap();
        let b2 = durable.document().find_element("b2").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::delete(b1), UpdateOp::delete(b2)]);
        durable.submit(pul);
        durable.commit().unwrap();
        assert!(durable.checkpoint_if_due().unwrap(), "churn past the ratio checkpoints");
        assert!(!durable.checkpoint_if_due().unwrap(), "churn counter rebased at the checkpoint");
        let reread = durable.read_at(1).unwrap();
        assert!(reread.document().deep_eq(durable.document()));
        reread.assert_consistent();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Damages the store with `damage`, then asserts that recovery refuses
    /// it with `XPUL-E07` — no panic, no session, and not one byte of the
    /// store changed by the failed open.
    fn assert_open_refused<B: DurableBackend>(dir: &Path, damage: impl FnOnce(&mut Store)) {
        let mut store = Store::open(dir, StoreOptions::default()).unwrap();
        damage(&mut store);
        drop(store);
        let files = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = files();
        let err = Durable::<B>::open(dir, DurableOptions::default())
            .err()
            .expect("a damaged store must not open");
        assert_eq!(err.code(), "XPUL-E07", "{err}");
        assert_eq!(files(), before, "the failed open left the store untouched");
    }

    /// Appends a well-framed record after `version` and asserts that
    /// recovery refuses it (see [`assert_open_refused`]): a retired kind, a
    /// payload that does not decode, or a record that does not apply.
    fn assert_retired_record_refused<B: DurableBackend>(dir: &Path, version: u64, payload: &[u8]) {
        assert_open_refused::<B>(dir, |store| store.append(version + 1, payload).unwrap());
    }

    #[test]
    fn retired_wal_kinds_fail_to_open_with_e07() {
        let dir = tmp_dir("retired_w");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "x");
        commit_rename(&mut durable, "b2", "y");
        // what the session streaming commit used to log: `W` + the document
        let swap = format!("W{}", durable.serialize_identified());
        drop(durable);
        assert_retired_record_refused::<Executor>(&dir, 2, swap.as_bytes());
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = tmp_dir("retired_l");
        let mut durable = Durable::create(
            &dir,
            ShardedExecutor::parse(DOC, 2).unwrap(),
            DurableOptions::default(),
        )
        .unwrap();
        for (target, to) in [(2u64, "x"), (8u64, "y")] {
            let pul = durable.pul_from_ops(vec![UpdateOp::rename(target, to)]);
            durable.submit(pul);
            durable.commit().unwrap();
        }
        // what a laned commit used to log: an `S` payload under kind `L`
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(5u64, "z")]);
        let mut laned =
            CommitRecord::Sharded { puls: &[pul, Pul::new()], preserve_content_ids: true }.encode();
        laned[0] = b'L';
        drop(durable);
        assert_retired_record_refused::<ShardedExecutor>(&dir, 2, &laned);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store at version 1 (checkpoint at 0, one `D` record), and the
    /// state a checkpoint at version 1 would freeze.
    fn store_at_v1(tag: &str) -> (PathBuf, CheckpointState) {
        let dir = tmp_dir(tag);
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "x");
        let state = durable.checkpoint_state();
        drop(durable);
        (dir, state)
    }

    #[test]
    fn corrupt_records_and_images_fail_to_open_with_e07() {
        let session = Executor::parse(DOC).unwrap();
        let b2 = session.document().find_element("b2").unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(b2, "y")]);
        let mut truncated = CommitRecord::Delta { pul: &pul, preserve_content_ids: true }.encode();
        truncated.pop();
        let ghost: Pul = [UpdateOp::rename(999_999u64, "ghost")].into_iter().collect();
        let records: [(&str, Vec<u8>); 5] = [
            // well-framed records whose payload does not decode: the XML wire
            // form the WAL held before, a cut binary PUL, plain garbage
            ("xml_delta", format!("DP{}", pul::xmlio::pul_to_xml(&pul)).into_bytes()),
            (
                "xml_sharded",
                format!("SP{}", pul::xmlio::puls_to_xml(std::slice::from_ref(&pul))).into_bytes(),
            ),
            ("cut_delta", truncated),
            ("garbage_delta", b"DP\xff\xff\xff\xff".to_vec()),
            // a well-formed record naming a node the document does not hold
            (
                "ghost_target",
                CommitRecord::Delta { pul: &ghost, preserve_content_ids: true }.encode(),
            ),
        ];
        for (tag, payload) in records {
            let (dir, _) = store_at_v1(tag);
            assert_retired_record_refused::<Executor>(&dir, 1, &payload);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        // checkpoints whose image does not decode, sealed with a valid CRC:
        // a cut image, and the identified XML format 2 stored in its place
        let (dir, state) = store_at_v1("cut_image");
        assert_open_refused::<Executor>(&dir, |store| {
            let mut cut = state.clone();
            cut.shards[0].image.pop();
            store.write_checkpoint(&cut).unwrap();
        });
        std::fs::remove_dir_all(&dir).unwrap();
        let (dir, state) = store_at_v1("xml_image");
        assert_open_refused::<Executor>(&dir, |store| {
            let mut xml = state.clone();
            xml.shards[0].image = Executor::parse(DOC).unwrap().serialize_identified().into_bytes();
            store.write_checkpoint(&xml).unwrap();
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_2_checkpoints_fail_to_open_with_e07() {
        // A format-2 image of the store's base checkpoint (version 0), laid
        // out as that format was: identified XML plus compact label strings.
        let session = Executor::parse(DOC).unwrap();
        let mut body = b"XCKP".to_vec();
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0; 16]); // version, epoch
        body.push(0); // not sharded
        body.extend_from_slice(&[0; 8 + 4]); // root id, empty root label
        body.extend_from_slice(&1u32.to_le_bytes());
        let text = |body: &mut Vec<u8>, s: &str| {
            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
            body.extend_from_slice(s.as_bytes());
        };
        text(&mut body, &session.serialize_identified());
        let labels: Vec<String> = session
            .labeling()
            .iter()
            .map(|l| format!("{} {}", l.id, l.to_compact_string()))
            .collect();
        body.extend_from_slice(&(labels.len() as u32).to_le_bytes());
        for line in &labels {
            text(&mut body, line);
        }
        body.extend_from_slice(&session.document().next_id().to_le_bytes());
        body.extend_from_slice(&[0; 8 + 4 + 4]); // shard version, empty interval
        let crc = pul_store::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let (dir, _) = store_at_v1("format_2");
        assert_open_refused::<Executor>(&dir, |store| {
            std::fs::write(store.dir().join("ckpt-000000000000.snap"), &body).unwrap();
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cloned_sessions_do_not_inherit_the_sink() {
        let dir = tmp_dir("clone_sink");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        let mut divergent = durable.backend().clone();
        commit_rename(&mut divergent, "b1", "divergent");
        commit_rename(&mut durable, "b1", "durable");
        drop(durable);
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert!(recovered.serialize().contains("<durable>"), "only the original's history");
        assert!(!recovered.serialize().contains("<divergent>"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_queue_runs_over_a_durable_backend() {
        use crate::ingest::IngestQueue;
        let dir = tmp_dir("ingest");
        let durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        let reference = {
            let queue = IngestQueue::new(durable);
            let session = Executor::parse(DOC).unwrap();
            let b1 = session.document().find_element("b1").unwrap();
            let b2 = session.document().find_element("b2").unwrap();
            let t1 =
                queue.enqueue(session.pul_from_ops(vec![UpdateOp::rename(b1, "first")])).unwrap();
            let t2 =
                queue.enqueue(session.pul_from_ops(vec![UpdateOp::rename(b2, "second")])).unwrap();
            t1.wait().unwrap();
            t2.wait().unwrap();
            let durable = queue.close().unwrap();
            durable.backend().clone()
        };
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), reference.version());
        assert!(recovered.document().deep_eq(reference.document()));
        assert!(recovered.labeling().deep_eq(reference.labeling()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_faults_are_retried_and_the_commit_succeeds() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("retry_transient");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        let telemetry = Telemetry::enabled();
        durable.set_telemetry(telemetry.clone());
        let faults =
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Transient).arm();
        durable.inject_faults(faults.clone());
        commit_rename(&mut durable, "b1", "retried");
        assert_eq!(faults.injected_at(site::WAL_APPEND), 1, "the fault fired once");
        assert!(!durable.is_degraded());
        let retries: Vec<_> =
            telemetry.recent_events().into_iter().filter(|e| e.kind == EventKind::Retry).collect();
        assert_eq!(retries.len(), 1, "one retry journaled: {retries:?}");
        assert_eq!(retries[0].version, 1, "the retry names the version being appended");
        let reference = durable.backend().clone();
        drop(durable);
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 1);
        assert!(recovered.document().deep_eq(reference.document()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn permanent_faults_fail_the_commit_but_not_the_session() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("permanent_fault");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        durable.inject_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Permanent).arm(),
        );
        let before = durable.serialize();
        let id = durable.document().find_element("b1").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(id, "kept")]);
        durable.submit(pul);
        let err = durable.commit().unwrap_err();
        assert_eq!(err.code(), "XPUL-E07", "{err}");
        assert!(!err.is_transient());
        assert!(!durable.is_degraded(), "a permanent fault does not degrade the session");
        assert_eq!(durable.serialize(), before, "the failed commit rewound bit-identically");
        assert_eq!(durable.version(), 0);
        durable.assert_consistent();
        // The failed submission is still pending (the rewind restored the
        // pre-commit state exactly): an explicit caller retry goes through
        // now that the injected fault is spent.
        durable.commit().unwrap();
        drop(durable);
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 1);
        assert!(recovered.serialize().contains("<kept>"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retries_degrade_the_session_stickily() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("degraded_sticky");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "durable");
        let faults =
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Always, FaultKind::Transient).arm();
        durable.inject_faults(faults.clone());
        let id = durable.document().find_element("b2").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(id, "refused")]);
        durable.submit(pul);
        let err = durable.commit().unwrap_err();
        assert_eq!(err.code(), "XPUL-E09", "{err}");
        assert!(durable.is_degraded());
        assert_eq!(faults.injected_at(site::WAL_APPEND), 5, "initial attempt + 4 retries");
        // Sticky: every further write path is refused with E09 without
        // touching the failpoint again — including checkpoint_if_due.
        let id = durable.document().find_element("b3").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(id, "still-refused")]);
        durable.submit(pul);
        assert_eq!(durable.commit().unwrap_err().code(), "XPUL-E09");
        assert_eq!(durable.checkpoint_if_due().unwrap_err().code(), "XPUL-E09");
        assert_eq!(durable.checkpoint().unwrap_err().code(), "XPUL-E09");
        assert_eq!(faults.injected_at(site::WAL_APPEND), 5, "degraded mode short-circuits");
        // Reads still work in degraded mode.
        assert!(durable.read_at(1).unwrap().serialize().contains("<durable>"));
        drop(durable);
        // Reopening the store is the recovery path: the durable prefix is
        // intact and the fresh session accepts commits again.
        let mut recovered: Durable<Executor> =
            Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 1);
        assert!(!recovered.is_degraded());
        assert!(!recovered.serialize().contains("refused"));
        commit_rename(&mut recovered, "b2", "healed");
        assert_eq!(recovered.version(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_checkpoint_degrades_the_whole_session() {
        use crate::ingest::IngestQueue;
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("degraded_checkpoint");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "durable");
        let faults =
            FaultPlan::new(1).fail(site::CKPT_WRITE, Trigger::Always, FaultKind::Transient).arm();
        durable.inject_faults(faults.clone());
        assert_eq!(durable.checkpoint().unwrap_err().code(), "XPUL-E09");
        assert!(durable.is_degraded());
        assert_eq!(faults.injected_at(site::CKPT_WRITE), 5, "initial attempt + 4 retries");
        // The flag lives in the session's sink, so commits through the
        // deref'd backend see it too.
        let b2 = durable.document().find_element("b2").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(b2, "refused")]);
        let refused = durable.submit(pul);
        assert_eq!(durable.commit().unwrap_err().code(), "XPUL-E09");
        durable.withdraw(refused).unwrap();
        // So do batches through the ingest pipeline.
        let queue = IngestQueue::new(durable);
        let b3 = Executor::parse(DOC).unwrap().document().find_element("b3").unwrap();
        let pul: Pul = [UpdateOp::rename(b3, "queued")].into_iter().collect();
        assert_eq!(queue.enqueue(pul).unwrap().wait().unwrap_err().code(), "XPUL-E09");
        let durable = queue.close().unwrap();
        // Reads still serve, current and historical.
        assert!(durable.read_at(1).unwrap().serialize().contains("<durable>"));
        assert!(durable.read_at(0).unwrap().serialize().contains("<b1>"));
        assert_eq!(durable.version(), 1);
        drop(durable);
        // Reopening heals.
        let mut recovered: Durable<Executor> =
            Durable::open(&dir, DurableOptions::default()).unwrap();
        assert!(!recovered.is_degraded());
        assert_eq!(recovered.version(), 1);
        commit_rename(&mut recovered, "b2", "healed");
        recovered.checkpoint().unwrap();
        assert_eq!(recovered.last_checkpoint(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_writes_poison_the_wal_until_a_checkpoint_heals_it() {
        use pul_store::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("torn_heal");
        let mut durable =
            Durable::create(&dir, Executor::parse(DOC).unwrap(), DurableOptions::default())
                .unwrap();
        commit_rename(&mut durable, "b1", "before");
        durable.inject_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Torn).arm(),
        );
        let id = durable.document().find_element("b2").unwrap();
        let pul = durable.pul_from_ops(vec![UpdateOp::rename(id, "torn")]);
        durable.submit(pul);
        let err = durable.commit().unwrap_err();
        assert_eq!(err.code(), "XPUL-E07", "{err}");
        assert_eq!(durable.version(), 1, "the torn commit rewound");
        // The WAL tail now holds torn bytes: appends are refused until the
        // log rotates. A checkpoint rotates and heals.
        durable.checkpoint().unwrap();
        commit_rename(&mut durable, "b2", "after");
        let reference = durable.backend().clone();
        drop(durable);
        let recovered: Durable<Executor> = Durable::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.version(), 2);
        assert!(recovered.document().deep_eq(reference.document()));
        recovered.assert_consistent();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_codec_round_trips() {
        let session = Executor::parse(DOC).unwrap();
        let b1 = session.document().find_element("b1").unwrap();
        let pul = session.pul_from_ops(vec![
            UpdateOp::rename(b1, "renamed"),
            UpdateOp::ins_last(b1, vec![Tree::element_with_text("note", "n")]),
        ]);
        let bytes = CommitRecord::Delta { pul: &pul, preserve_content_ids: true }.encode();
        match CommitPayload::decode(&bytes).unwrap() {
            CommitPayload::Delta { pul: decoded, preserve_content_ids } => {
                assert_eq!(decoded.len(), pul.len());
                assert_eq!(decoded.targets(), pul.targets());
                assert!(preserve_content_ids, "the identifier discipline rides the record");
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
        let bytes =
            CommitRecord::Sharded { puls: &[pul.clone(), Pul::new()], preserve_content_ids: false }
                .encode();
        match CommitPayload::decode(&bytes).unwrap() {
            CommitPayload::Sharded { puls: decoded, preserve_content_ids } => {
                assert_eq!(decoded.len(), 2);
                assert_eq!(decoded[0].len(), pul.len());
                assert!(decoded[1].is_empty());
                assert!(!preserve_content_ids);
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
        let bytes = CommitRecord::Epoch { epoch: u64::MAX - 1 }.encode();
        assert_eq!(bytes.len(), 9, "kind byte plus 8 LE bytes");
        assert!(
            matches!(CommitPayload::decode(&bytes).unwrap(), CommitPayload::Epoch(e) if e == u64::MAX - 1)
        );
        // payloads in the XML form the WAL held before are corrupt: D and S
        // records whose PULs are wire XML, and decimal epochs
        let xml = format!("DP{}", pul::xmlio::pul_to_xml(&pul));
        assert_eq!(CommitPayload::decode(xml.as_bytes()).unwrap_err().code(), "XPUL-E07");
        let xml = format!("SF{}", pul::xmlio::puls_to_xml(std::slice::from_ref(&pul)));
        assert_eq!(CommitPayload::decode(xml.as_bytes()).unwrap_err().code(), "XPUL-E07");
        assert_eq!(CommitPayload::decode(b"E3").unwrap_err().code(), "XPUL-E07");
        // the retired kinds (`W` whole-document swap, `L` laned sharded
        // commit) decode like any unknown kind
        assert_eq!(CommitPayload::decode(b"W<r xml:id=\"1\"/>").unwrap_err().code(), "XPUL-E07");
        assert_eq!(CommitPayload::decode(b"LP<puls/>").unwrap_err().code(), "XPUL-E07");
        assert_eq!(CommitPayload::decode(b"").unwrap_err().code(), "XPUL-E07");
        assert_eq!(CommitPayload::decode(b"Zjunk").unwrap_err().code(), "XPUL-E07");
        // a D/S record truncated before its discipline byte is corrupt
        assert_eq!(CommitPayload::decode(b"D").unwrap_err().code(), "XPUL-E07");
        assert_eq!(CommitPayload::decode(b"DXjunk").unwrap_err().code(), "XPUL-E07");
    }
}
