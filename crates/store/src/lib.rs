//! Durable versioned store for PUL sessions.
//!
//! The store owns one directory and two kinds of files:
//!
//! - **WAL segments** `wal-NNNNNN.log` — append-only logs of framed commit
//!   records (see [`wal`]). Each committed PUL round is exactly one record,
//!   appended *before* the in-memory version fence advances, so a record's
//!   presence is the commit's durability point.
//! - **Checkpoints** `ckpt-VVVVVVVVVVVV.snap` — one contiguous, checksummed
//!   image of the whole session at version `V` (see [`checkpoint`]), written
//!   to a temporary file and renamed into place.
//!
//! The store frames and checksums; it never interprets what it stores. WAL
//! payloads and the per-shard checkpoint images are opaque bytes encoded by
//! the session layer (binary PULs and labeled node streams, see `pul::codec`
//! and `xlabel::codec`).
//!
//! Writing a checkpoint rotates the WAL to a fresh segment, created *before*
//! the image is renamed in, so the live tail that recovery must replay is
//! always `records with version > checkpoint version`. Older segments and
//! checkpoints are kept, which is what makes `read_at(version)` time travel
//! possible.
//!
//! Recovery ([`Store::open`]) reads the *current* (highest) segment,
//! physically truncates its torn tail (earlier segments are sealed by the
//! checkpoint that rotated them), and leaves the store ready to append. It
//! refuses what no crash leaves: damage with a valid frame of a later
//! version behind it (acknowledged commits, not one incomplete write), and a
//! current segment ending at or below the last checkpoint — the live segment
//! deleted, or an older sealed one copied in its place.
//!
//! Every fallible operation returns a [`StoreError`] carrying the underlying
//! [`std::io::ErrorKind`] plus the WAL position involved, and consults the
//! [`faults`] failpoints on the way, so the layers above can classify
//! transient vs permanent failures and tests can inject both
//! deterministically. A failed append or sync repairs the segment tail back
//! to the last good frame boundary; if that repair itself fails (or a torn
//! write is injected) the store is **poisoned** — every further append is
//! refused — until a checkpoint rotation or a reopen restores a clean tail.
//!
//! A version, once appended, names one state for the life of the store: no
//! operation removes an appended record.

#![forbid(unsafe_code)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pul_telemetry::{EventKind, Telemetry};

pub mod checkpoint;
mod crc;
mod error;
pub mod faults;
pub mod wal;

pub use checkpoint::{CheckpointState, ShardSnapshot};
pub use crc::{crc32, crc32_parts};
pub use error::{transient_kind, StoreError, StoreResult};
pub use faults::{site, FaultKind, FaultPlan, FaultSpec, Faults, Trigger};
pub use wal::{ScanOutcome, WalRecord};

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record — a reported commit is durable.
    PerCommit,
    /// Never `fsync` explicitly; the OS flushes when it pleases.
    Off,
}

/// Store construction options.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Append sync policy.
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { sync: SyncPolicy::PerCommit }
    }
}

fn segment_name(seg: u64) -> String {
    format!("wal-{seg:06}.log")
}

fn checkpoint_name(version: u64) -> String {
    format!("ckpt-{version:012}.snap")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The on-disk store: WAL segments plus checkpoint images in one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    /// Index of the segment currently receiving appends.
    segment: u64,
    wal_file: File,
    /// Byte length of the current segment.
    wal_len: u64,
    /// Version of the last record in the current segment, if it holds any.
    last_appended: Option<u64>,
    /// Versions of every checkpoint on disk, ascending.
    checkpoints: Vec<u64>,
    /// Indices of every segment on disk, ascending (last = current).
    segments: Vec<u64>,
    /// Armed failpoints (disabled unless a test injects a plan).
    faults: Faults,
    /// The segment tail may hold torn bytes past `wal_len` (a failed repair
    /// or an injected torn write): appends are refused until a rotation or
    /// reopen restores a clean frame boundary.
    poisoned: bool,
    /// Telemetry handle (disabled unless installed): WAL append/sync/rotate
    /// timings and bytes, checkpoint duration, fault-hit events.
    telemetry: Telemetry,
}

impl Store {
    /// Creates a fresh store in `dir` (created if missing). Fails if the
    /// directory already holds store files.
    pub fn create(dir: impl AsRef<Path>, opts: StoreOptions) -> StoreResult<Store> {
        let op = "store.create";
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(op, &e))?;
        for entry in fs::read_dir(&dir).map_err(|e| StoreError::io(op, &e))? {
            let name = entry.map_err(|e| StoreError::io(op, &e))?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("wal-") || name.starts_with("ckpt-") {
                return Err(StoreError::new(
                    op,
                    io::ErrorKind::AlreadyExists,
                    format!("{} already holds store files", dir.display()),
                ));
            }
        }
        let wal_file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .read(true)
            .open(dir.join(segment_name(0)))
            .map_err(|e| StoreError::io(op, &e).at(0, 0))?;
        Ok(Store {
            dir,
            opts,
            segment: 0,
            wal_file,
            wal_len: 0,
            last_appended: None,
            checkpoints: Vec::new(),
            segments: vec![0],
            faults: Faults::disabled(),
            poisoned: false,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Opens an existing store, truncating any torn tail of the current
    /// (highest-numbered) segment. Refuses (`InvalidData`), changing no file,
    /// damage with a later valid frame behind it ([`wal::later_frame`]) and a
    /// current segment ending at or below the last checkpoint.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> StoreResult<Store> {
        let op = "store.open";
        let dir = dir.as_ref().to_path_buf();
        let mut segments = Vec::new();
        let mut checkpoints = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| StoreError::io(op, &e))? {
            let name = entry.map_err(|e| StoreError::io(op, &e))?.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(seg) = parse_numbered(&name, "wal-", ".log") {
                segments.push(seg);
            } else if let Some(v) = parse_numbered(&name, "ckpt-", ".snap") {
                checkpoints.push(v);
            }
        }
        segments.sort_unstable();
        checkpoints.sort_unstable();
        let &segment = segments.last().ok_or_else(|| {
            StoreError::new(
                op,
                io::ErrorKind::NotFound,
                format!("{} holds no WAL segment", dir.display()),
            )
        })?;

        let path = dir.join(segment_name(segment));
        let bytes = fs::read(&path).map_err(|e| StoreError::io(op, &e).at(segment, 0))?;
        let scan = wal::scan(&bytes);
        let last_appended = scan.records.last().map(|r| r.version);
        let refuse = |msg: String| {
            Err(StoreError::new(op, io::ErrorKind::InvalidData, msg).at(segment, scan.valid_len))
        };
        if let Some(later) = wal::later_frame(&bytes, &scan) {
            return refuse(format!(
                "live segment {} is damaged at byte {} with v{later} intact after it",
                segment_name(segment),
                scan.valid_len
            ));
        }
        if let (Some(last), Some(&ckpt)) = (last_appended, checkpoints.last()) {
            if last <= ckpt {
                return refuse(format!(
                    "live segment {} ends at v{last}, not above the v{ckpt} checkpoint",
                    segment_name(segment)
                ));
            }
        }
        if scan.valid_len < bytes.len() as u64 {
            // Torn tail from a crash mid-append: cut it off so the next
            // append starts on a clean frame boundary.
            let cut = |e: &io::Error| StoreError::io(op, e).at(segment, scan.valid_len);
            let f = OpenOptions::new().write(true).open(&path).map_err(|e| cut(&e))?;
            f.set_len(scan.valid_len).map_err(|e| cut(&e))?;
            f.sync_all().map_err(|e| cut(&e))?;
        }
        let wal_file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| StoreError::io(op, &e).at(segment, 0))?;
        Ok(Store {
            dir,
            opts,
            segment,
            wal_file,
            wal_len: scan.valid_len,
            last_appended,
            checkpoints,
            segments,
            faults: Faults::disabled(),
            poisoned: false,
            telemetry: Telemetry::disabled(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes in the current (appendable) segment.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// Version of the most recent checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.checkpoints.last().copied()
    }

    /// Versions of all retained checkpoints, ascending.
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    /// Installs the failpoint handle the store consults on every append,
    /// sync, rotation and checkpoint write.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Installs the telemetry handle the store records WAL and checkpoint
    /// timings (and fault-hit events) through. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether the segment tail is poisoned by an unrepaired torn write.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The highest version the store holds durably: the greater of the last
    /// checkpoint and the last WAL record in the current segment.
    pub fn last_version(&self) -> Option<u64> {
        match (self.last_checkpoint(), self.last_appended) {
            (Some(c), Some(w)) => Some(c.max(w)),
            (a, b) => a.or(b),
        }
    }

    /// After a failed append or sync, restores the segment to the last good
    /// frame boundary so a retry re-appends cleanly. If the repair itself
    /// fails the tail may hold torn bytes: the store poisons itself and
    /// refuses appends until rotation or reopen heals the tail.
    fn repair_tail(&mut self) {
        let ok = self.wal_file.set_len(self.wal_len).is_ok() && self.wal_file.sync_data().is_ok();
        if !ok {
            self.poisoned = true;
        }
    }

    /// Appends one commit record and applies the sync policy. On failure the
    /// record is **not** recorded: the tail is repaired to the previous frame
    /// boundary and a retry appends the same frame from scratch. A payload
    /// over [`wal::MAX_PAYLOAD_LEN`] is refused before a byte is written
    /// (permanently, `InvalidInput`): the scan at reopen would treat its frame
    /// as a corrupt tail and truncate it along with every later record.
    pub fn append(&mut self, version: u64, payload: &[u8]) -> StoreResult<()> {
        if payload.len() > wal::MAX_PAYLOAD_LEN {
            return Err(StoreError::new(
                site::WAL_APPEND,
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL payload of {} bytes exceeds the {}-byte record cap",
                    payload.len(),
                    wal::MAX_PAYLOAD_LEN
                ),
            )
            .at(self.segment, self.wal_len));
        }
        if self.poisoned {
            return Err(StoreError::new(
                site::WAL_APPEND,
                io::ErrorKind::Other,
                "segment tail is poisoned by an unrepaired torn write",
            )
            .at(self.segment, self.wal_len));
        }
        let frame = wal::encode_record(version, payload);
        if let Some(kind) = self.faults.check(site::WAL_APPEND) {
            self.note_fault(site::WAL_APPEND, kind, version);
            if kind == FaultKind::Torn {
                // Write a partial frame and fail *without* repairing — the
                // bytes a kill mid-append would leave on disk.
                let cut = (frame.len() / 2).max(1);
                let _ = self.wal_file.write_all(&frame[..cut]);
                let _ = self.wal_file.sync_data();
                self.poisoned = true;
            }
            return Err(StoreError::injected(site::WAL_APPEND, kind).at(self.segment, self.wal_len));
        }
        let write_started = self.telemetry.is_enabled().then(Instant::now);
        if let Err(e) = self.wal_file.write_all(&frame) {
            self.repair_tail();
            return Err(StoreError::io(site::WAL_APPEND, &e).at(self.segment, self.wal_len));
        }
        if let Some(t0) = write_started {
            self.telemetry.observe_since(|m| &m.wal_append_ns, t0);
            self.telemetry.add(|m| &m.wal_append_bytes, frame.len() as u64);
        }
        if self.opts.sync == SyncPolicy::PerCommit {
            if let Some(kind) = self.faults.check(site::WAL_SYNC) {
                self.note_fault(site::WAL_SYNC, kind, version);
                self.repair_tail();
                return Err(
                    StoreError::injected(site::WAL_SYNC, kind).at(self.segment, self.wal_len)
                );
            }
            let sync_started = self.telemetry.is_enabled().then(Instant::now);
            if let Err(e) = self.wal_file.sync_data() {
                self.repair_tail();
                return Err(StoreError::io(site::WAL_SYNC, &e).at(self.segment, self.wal_len));
            }
            if let Some(t0) = sync_started {
                self.telemetry.observe_since(|m| &m.wal_sync_ns, t0);
            }
        }
        self.last_appended = Some(version);
        self.wal_len += frame.len() as u64;
        Ok(())
    }

    /// Records an injected failpoint firing: one counter bump plus a
    /// structured journal record naming the site.
    fn note_fault(&self, at: &'static str, kind: FaultKind, version: u64) {
        self.telemetry.count(|m| &m.fault_hits);
        self.telemetry.event(EventKind::FaultHit, version, || format!("{at}: injected {kind:?}"));
    }

    /// Writes a checkpoint image durably and rotates the WAL: tmp + fsync,
    /// next segment created, rename, one directory fsync for both entries —
    /// so a failed rotation fails the checkpoint before its rename. Sealed
    /// segments and older checkpoints are kept: they serve point-in-time reads.
    ///
    /// The operation is retry-idempotent: in-memory state only changes after
    /// every I/O step has succeeded, the temporary is recreated from scratch
    /// on each attempt, and a segment left behind by a previous failed
    /// attempt is reused empty.
    pub fn write_checkpoint(&mut self, state: &CheckpointState) -> StoreResult<()> {
        if let Some(kind) = self.faults.check(site::CKPT_WRITE) {
            self.note_fault(site::CKPT_WRITE, kind, state.version);
            return Err(StoreError::injected(site::CKPT_WRITE, kind));
        }
        let ckpt_started = self.telemetry.is_enabled().then(Instant::now);
        let image = checkpoint::encode(state);
        let tmp = self.dir.join("ckpt.tmp");
        {
            let werr = |e: &io::Error| StoreError::io(site::CKPT_WRITE, e);
            let mut f = File::create(&tmp).map_err(|e| werr(&e))?;
            f.write_all(&image).map_err(|e| werr(&e))?;
            f.sync_all().map_err(|e| werr(&e))?;
        }
        // The records the checkpoint supersedes reach the disk before it
        // does, so the live segment never ends below the last checkpoint
        // (`open` refuses one that does).
        if !self.poisoned {
            self.wal_file
                .sync_data()
                .map_err(|e| StoreError::io(site::WAL_ROTATE, &e).at(self.segment, self.wal_len))?;
        }
        // The segment that follows the checkpoint exists before it does.
        if let Some(kind) = self.faults.check(site::WAL_ROTATE) {
            self.note_fault(site::WAL_ROTATE, kind, state.version);
            return Err(StoreError::injected(site::WAL_ROTATE, kind).at(self.segment, self.wal_len));
        }
        let rotate_started = self.telemetry.is_enabled().then(Instant::now);
        let next = self.segment + 1;
        let next_path = self.dir.join(segment_name(next));
        let rerr = |e: &io::Error| StoreError::io(site::WAL_ROTATE, e).at(next, 0);
        let wal_file =
            match OpenOptions::new().create_new(true).append(true).read(true).open(&next_path) {
                Ok(f) => f,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    // A previous attempt created the segment but failed
                    // before the store switched to it: reuse it empty.
                    let f = OpenOptions::new()
                        .append(true)
                        .read(true)
                        .open(&next_path)
                        .map_err(|e| rerr(&e))?;
                    f.set_len(0).map_err(|e| rerr(&e))?;
                    f
                }
                Err(e) => return Err(rerr(&e)),
            };
        if let Some(t0) = rotate_started {
            self.telemetry.observe_since(|m| &m.wal_rotate_ns, t0);
        }

        if let Some(kind) = self.faults.check(site::CKPT_RENAME) {
            self.note_fault(site::CKPT_RENAME, kind, state.version);
            return Err(StoreError::injected(site::CKPT_RENAME, kind));
        }
        let final_path = self.dir.join(checkpoint_name(state.version));
        fs::rename(&tmp, &final_path).map_err(|e| StoreError::io(site::CKPT_RENAME, &e))?;
        // Make the new segment and the rename durable before appending to the
        // segment: the records it receives depend on both.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        if let Some(t0) = ckpt_started {
            self.telemetry.observe_since(|m| &m.checkpoint_ns, t0);
        }

        // Every I/O step succeeded: commit the new state.
        self.wal_file = wal_file;
        self.segment = next;
        self.segments.push(next);
        self.wal_len = 0;
        self.last_appended = None;
        self.poisoned = false;
        if self.checkpoints.last() != Some(&state.version) {
            self.checkpoints.push(state.version); // the current version: never below the last
        }
        let segment = self.segment;
        self.telemetry.event(EventKind::Checkpoint, state.version, || {
            format!("checkpoint v{} written, wal rotated to segment {segment}", state.version)
        });
        Ok(())
    }

    /// Loads and integrity-checks the checkpoint image for `version`.
    pub fn load_checkpoint(&self, version: u64) -> StoreResult<CheckpointState> {
        let op = "ckpt.load";
        let mut bytes = Vec::new();
        File::open(self.dir.join(checkpoint_name(version)))
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io(op, &e))?;
        let state = checkpoint::decode(&bytes).map_err(|e| StoreError::io(op, &e))?;
        if state.version != version {
            return Err(StoreError::new(
                op,
                io::ErrorKind::InvalidData,
                format!("checkpoint file for v{version} holds v{}", state.version),
            ));
        }
        Ok(state)
    }

    /// The greatest retained checkpoint version that is ≤ `version`.
    pub fn checkpoint_at_or_before(&self, version: u64) -> Option<u64> {
        self.checkpoints.iter().copied().filter(|&v| v <= version).max()
    }

    /// Collects every valid record with `after < version ≤ up_to` across all
    /// retained segments, oldest segment first. Per segment the scan stops at
    /// the first torn or corrupt frame, matching what recovery would keep.
    pub fn replay_records(&self, after: u64, up_to: u64) -> StoreResult<Vec<WalRecord>> {
        let mut out = Vec::new();
        for &seg in &self.segments {
            let bytes = fs::read(self.dir.join(segment_name(seg)))
                .map_err(|e| StoreError::io("wal.replay", &e).at(seg, 0))?;
            for rec in wal::scan(&bytes).records {
                if rec.version > after && rec.version <= up_to {
                    out.push(rec);
                }
            }
        }
        out.sort_by_key(|r| r.version);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pul_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn shardless(version: u64) -> CheckpointState {
        CheckpointState {
            version,
            epoch: 0,
            sharded: false,
            root_id: 0,
            root_label: Vec::new(),
            shards: vec![ShardSnapshot {
                image: format!("image of v{version}").into_bytes(),
                next_id: 2,
                version,
                interval_lo: Vec::new(),
                interval_hi: Vec::new(),
            }],
        }
    }

    #[test]
    fn create_append_reopen() {
        let dir = tmp_dir("basic");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"first").unwrap();
        store.append(2, b"second").unwrap();
        assert_eq!(store.last_version(), Some(2));
        drop(store);

        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.last_version(), Some(2));
        let recs = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_payloads_are_refused_before_a_byte_is_written() {
        let dir = tmp_dir("oversized");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"first").unwrap();
        store.append(2, b"second").unwrap();
        let before = store.wal_bytes();
        let err = store.append(3, &vec![0; wal::MAX_PAYLOAD_LEN + 1]).unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::InvalidInput);
        assert!(!err.is_transient(), "a retry cannot shrink the payload");
        assert_eq!(store.wal_bytes(), before);
        assert_eq!(store.last_version(), Some(2));
        assert!(!store.is_poisoned());
        drop(store);

        // Reopen keeps every acknowledged record: nothing for the scan to cut.
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.wal_bytes(), before);
        let recs = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(recs.iter().map(|r| r.version).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(recs[1].payload, b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("refuse");
        let _store = Store::create(&dir, StoreOptions::default()).unwrap();
        let err = Store::create(&dir, StoreOptions::default()).unwrap_err();
        assert_eq!(err.kind, io::ErrorKind::AlreadyExists);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail() {
        let dir = tmp_dir("torn");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"keep-me").unwrap();
        store.append(2, b"torn-away").unwrap();
        drop(store);

        // Chop the file mid-way through the second record.
        let path = dir.join(segment_name(0));
        let full = fs::read(&path).unwrap();
        let first_len = (wal::RECORD_HEADER_LEN + b"keep-me".len()) as u64;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(first_len + 5).unwrap();
        drop(f);
        assert!(fs::read(&path).unwrap().len() < full.len());

        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.last_version(), Some(1));
        assert_eq!(fs::read(&path).unwrap().len() as u64, first_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_and_replay_spans_segments() {
        let dir = tmp_dir("rotate");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"one").unwrap();
        store.append(2, b"two").unwrap();
        store.write_checkpoint(&shardless(2)).unwrap();
        assert_eq!(store.wal_bytes(), 0);
        store.append(3, b"three").unwrap();
        drop(store);

        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.last_checkpoint(), Some(2));
        assert_eq!(store.last_version(), Some(3));
        // Tail replay after the checkpoint sees only v3.
        let tail = store.replay_records(2, u64::MAX).unwrap();
        assert_eq!(tail.iter().map(|r| r.version).collect::<Vec<_>>(), vec![3]);
        // Historic replay still reaches the sealed segment.
        let all = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(all.iter().map(|r| r.version).collect::<Vec<_>>(), vec![1, 2, 3]);
        let ckpt = store.load_checkpoint(2).unwrap();
        assert_eq!(ckpt, shardless(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_at_or_before_picks_nearest() {
        let dir = tmp_dir("nearest");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"a").unwrap();
        store.write_checkpoint(&shardless(1)).unwrap();
        store.append(2, b"b").unwrap();
        store.append(3, b"c").unwrap();
        store.write_checkpoint(&shardless(3)).unwrap();
        assert_eq!(store.checkpoint_at_or_before(0), None);
        assert_eq!(store.checkpoint_at_or_before(1), Some(1));
        assert_eq!(store.checkpoint_at_or_before(2), Some(1));
        assert_eq!(store.checkpoint_at_or_before(3), Some(3));
        assert_eq!(store.checkpoint_at_or_before(99), Some(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_transient_append_leaves_store_retryable() {
        let dir = tmp_dir("inj_transient");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.set_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(2), FaultKind::Transient).arm(),
        );
        store.append(1, b"one").unwrap();
        let err = store.append(2, b"two").unwrap_err();
        assert!(err.is_transient());
        assert!(err.injected);
        assert_eq!(err.segment, Some(0));
        // The failed frame left no trace; the retry appends it cleanly.
        store.append(2, b"two").unwrap();
        assert_eq!(store.last_version(), Some(2));
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let recs = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(recs.iter().map(|r| r.version).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(recs[1].payload, b"two");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_sync_failure_rolls_the_frame_back() {
        let dir = tmp_dir("inj_sync");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.set_faults(
            FaultPlan::new(1).fail(site::WAL_SYNC, Trigger::Nth(1), FaultKind::Transient).arm(),
        );
        let err = store.append(1, b"frame").unwrap_err();
        assert_eq!(err.op, site::WAL_SYNC);
        assert_eq!(store.last_version(), None, "unsynced frame is not recorded");
        assert_eq!(store.wal_bytes(), 0);
        // The tail was repaired: a retry writes exactly one frame.
        store.append(1, b"frame").unwrap();
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let recs = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"frame");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_poisons_the_tail() {
        let dir = tmp_dir("inj_torn");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.set_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(2), FaultKind::Torn).arm(),
        );
        store.append(1, b"good").unwrap();
        let good_len = store.wal_bytes();
        let err = store.append(2, b"torn").unwrap_err();
        assert!(!err.is_transient());
        assert!(store.is_poisoned());
        // Torn bytes really are on disk past the last good frame.
        let on_disk = fs::read(dir.join(segment_name(0))).unwrap();
        assert!(on_disk.len() as u64 > good_len);
        // Every append is refused while poisoned — even of a fresh version.
        assert!(store.append(2, b"retry").is_err());
        assert_eq!(store.last_version(), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_heals_across_reopen() {
        let dir = tmp_dir("inj_torn_reopen");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.set_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(2), FaultKind::Torn).arm(),
        );
        store.append(1, b"good").unwrap();
        assert!(store.append(2, b"torn").is_err());
        drop(store);
        // Reopen scans past the torn bytes and truncates them, exactly as
        // recovery from a real kill would.
        let mut store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.last_version(), Some(1));
        assert!(!store.is_poisoned());
        store.append(2, b"after").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_failure_is_retryable() {
        let dir = tmp_dir("inj_ckpt");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"one").unwrap();
        store.set_faults(
            FaultPlan::new(1)
                .fail(site::CKPT_RENAME, Trigger::Nth(1), FaultKind::Transient)
                .fail(site::WAL_ROTATE, Trigger::Nth(1), FaultKind::Transient)
                .arm(),
        );
        // First attempt dies at rotation, before the next segment exists.
        let err = store.write_checkpoint(&shardless(1)).unwrap_err();
        assert_eq!(err.op, site::WAL_ROTATE);
        assert!(!dir.join(segment_name(1)).exists());
        assert_eq!(store.last_checkpoint(), None);
        assert_eq!(store.last_version(), Some(1));
        // Second attempt dies at the rename, after the segment was created:
        // no checkpoint on disk, and the store still appends to segment 0.
        let err = store.write_checkpoint(&shardless(1)).unwrap_err();
        assert_eq!(err.op, site::CKPT_RENAME);
        assert!(dir.join(segment_name(1)).exists());
        assert!(!dir.join(checkpoint_name(1)).exists());
        assert_eq!(store.last_checkpoint(), None, "state not updated until the rename succeeds");
        assert_eq!(store.last_version(), Some(1));
        // Third attempt reuses the segment and the store is coherent.
        store.write_checkpoint(&shardless(1)).unwrap();
        assert_eq!(store.last_checkpoint(), Some(1));
        assert_eq!(store.wal_bytes(), 0);
        store.append(2, b"two").unwrap();
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.last_checkpoint(), Some(1));
        assert_eq!(store.last_version(), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotation_reuses_a_leftover_segment() {
        let dir = tmp_dir("inj_rotate_leftover");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.append(1, b"one").unwrap();
        // Simulate a previous attempt that created the next segment (with
        // junk) before dying: rotation must reuse it empty.
        fs::write(dir.join(segment_name(1)), b"junk-from-failed-attempt").unwrap();
        store.write_checkpoint(&shardless(1)).unwrap();
        assert_eq!(store.wal_bytes(), 0);
        store.append(2, b"two").unwrap();
        let recs = store.replay_records(0, u64::MAX).unwrap();
        assert_eq!(recs.iter().map(|r| r.version).collect::<Vec<_>>(), vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotation_heals_a_poisoned_tail() {
        let dir = tmp_dir("inj_ckpt_heal");
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.set_faults(
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(2), FaultKind::Torn).arm(),
        );
        store.append(1, b"good").unwrap();
        assert!(store.append(2, b"torn").is_err());
        assert!(store.is_poisoned());
        // A checkpoint at the durable version rotates to a clean segment.
        store.write_checkpoint(&shardless(1)).unwrap();
        assert!(!store.is_poisoned());
        store.append(2, b"after").unwrap();
        assert_eq!(store.last_version(), Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
