//! Crash-point recovery fuzzing for the durable store.
//!
//! For every seeded case and both backends ([`Executor`] and a 2-shard
//! [`ShardedExecutor`]), a durable session commits a run of generated PULs;
//! the store directory is then copied and the live WAL segment truncated at
//! **every byte offset** — simulating a crash mid-append at that exact point
//! — and recovery must restore exactly the last durable version:
//!
//! * `recovered.version()` equals the highest version whose WAL record is
//!   complete within the truncated prefix (torn and half-written records are
//!   discarded, never replayed);
//! * the recovered document and labeling are **bit-identical** (`deep_eq`) to
//!   the session cloned at the commit of that version, and pass
//!   `assert_consistent`;
//! * the sweep runs against a WAL with no checkpoint beyond the base image,
//!   against the rotated segment written after a mid-history checkpoint, and
//!   against a segment holding a compaction **epoch record** — a cut inside
//!   the epoch record recovers the pre-compaction version, a cut past it
//!   replays the renumbering bit-identically;
//! * afterwards, `read_at(v)` materialises every committed version with the
//!   serialization recorded at its commit.
//!
//! The default suite covers 2 seeds; the `#[ignore]`d sweep (run nightly in
//! CI with `--ignored`) covers 100.

use std::fs;
use std::path::{Path, PathBuf};

use workload::pulgen::generate_pul;
use workload::{PulGenConfig, XmarkConfig};
use xmlpul::prelude::*;
use xmlpul::{Durable, DurableBackend, DurableOptions};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlpul_rfuzz_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Options that never checkpoint on their own: the tests control checkpoint
/// placement explicitly.
fn opts() -> DurableOptions {
    DurableOptions {
        checkpoint_wal_bytes: u64::MAX,
        checkpoint_dead_ratio: f64::INFINITY,
        ..DurableOptions::default()
    }
}

/// Copies a store directory, truncating the named WAL segment to `len` bytes.
fn copy_store_truncated(src: &Path, dst: &Path, segment: &str, len: u64) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        fs::copy(entry.path(), &to).unwrap();
        if entry.file_name().to_string_lossy() == segment {
            let f = fs::OpenOptions::new().write(true).open(&to).unwrap();
            f.set_len(len).unwrap();
        }
    }
}

/// Name and bytes of the live (highest-numbered) WAL segment.
fn live_segment(dir: &Path) -> (String, Vec<u8>) {
    let mut segments: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(name)
        })
        .collect();
    segments.sort();
    let name = segments.pop().expect("store has a WAL segment");
    let bytes = fs::read(dir.join(&name)).unwrap();
    (name, bytes)
}

/// What the fuzz needs from a backend, over and above [`DurableBackend`].
trait FuzzBackend: DurableBackend + Clone {
    fn from_doc(doc: Document) -> Self;
    fn submit_pul(&mut self, pul: Pul);
    fn commit_round(&mut self) -> Result<u64>;
    fn serialization(&self) -> String;
    fn check_consistent(&self);
    /// Bit-identical state: same arena entries, identifiers, fresh-id
    /// counters and labels.
    fn assert_deep_eq(&self, other: &Self, ctx: &str);
}

impl FuzzBackend for Executor {
    fn from_doc(doc: Document) -> Self {
        Executor::new(doc)
    }
    fn submit_pul(&mut self, pul: Pul) {
        self.submit(pul);
    }
    fn commit_round(&mut self) -> Result<u64> {
        self.commit().map(|r| r.version)
    }
    fn serialization(&self) -> String {
        self.serialize()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn assert_deep_eq(&self, other: &Self, ctx: &str) {
        assert_eq!(self.version(), other.version(), "{ctx}: version");
        assert!(self.document().deep_eq(other.document()), "{ctx}: document");
        assert!(self.labeling().deep_eq(other.labeling()), "{ctx}: labeling");
    }
}

impl FuzzBackend for ShardedExecutor {
    fn from_doc(doc: Document) -> Self {
        let xml = xdm::writer::write_document(&doc);
        ShardedExecutor::parse(&xml, 2).expect("shardable fuzz document")
    }
    fn submit_pul(&mut self, pul: Pul) {
        self.submit(pul);
    }
    fn commit_round(&mut self) -> Result<u64> {
        self.commit().map(|r| r.version)
    }
    fn serialization(&self) -> String {
        self.serialize()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn assert_deep_eq(&self, other: &Self, ctx: &str) {
        assert_eq!(self.version(), other.version(), "{ctx}: version");
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
}

/// Commits `rounds` generated PULs, recording a full clone and the
/// serialization after every *successful* commit. PULs are generated against
/// an oracle [`Executor`] kept in lockstep, so the generator always sees the
/// current document whatever the backend under test is.
fn commit_rounds<B: FuzzBackend>(
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
                history.push((version, durable.backend().clone(), durable.serialization()));
                round += 1;
            }
            Err(_) => {
                assert!(!oracle_ok, "seed {seed}: backend rejected what the oracle committed");
            }
        }
    }
    assert!(round > 0, "seed {seed}: no PUL committed in {attempts} attempts");
}

/// Truncates the live segment at every byte offset and checks recovery lands
/// exactly on the last version whose record survived intact.
fn crash_sweep<B: FuzzBackend>(
    store_dir: &Path,
    scratch: &Path,
    base_version: u64,
    history: &[(u64, B, String)],
    ctx: &str,
) {
    let (segment, bytes) = live_segment(store_dir);
    for cut in 0..=bytes.len() {
        let outcome = pul_store::wal::scan(&bytes[..cut]);
        let expect = outcome.records.last().map(|r| r.version).unwrap_or(base_version);
        let crash_dir = scratch.join(format!("crash_{cut}"));
        copy_store_truncated(store_dir, &crash_dir, &segment, cut as u64);
        let recovered: Durable<B> = Durable::open(&crash_dir, opts())
            .unwrap_or_else(|e| panic!("{ctx}, cut {cut}: recovery failed: {e}"));
        assert_eq!(
            recovered.backend().current_version(),
            expect,
            "{ctx}, cut {cut}: recovered version"
        );
        recovered.backend().check_consistent();
        if let Some((_, reference, _)) = history.iter().find(|(v, _, _)| *v == expect) {
            recovered.backend().assert_deep_eq(reference, &format!("{ctx}, cut {cut}"));
        }
        fs::remove_dir_all(&crash_dir).unwrap();
    }
}

fn run_seed<B: FuzzBackend>(seed: u64, tag: &str) {
    let root = tmp_root(&format!("{tag}_{seed}"));
    let store_dir = root.join("store");
    let doc = workload::generate_xmark(&XmarkConfig {
        target_nodes: 40 + (seed as usize % 5) * 12,
        seed: seed.wrapping_mul(97),
    });
    let mut oracle = Executor::new(doc.clone());
    let mut durable = Durable::create(&store_dir, B::from_doc(doc), opts()).unwrap();
    let mut history: Vec<(u64, B, String)> = Vec::new();

    // Phase A: a WAL tail over the base (version 0) checkpoint only
    commit_rounds(&mut durable, &mut oracle, seed, 4, &mut history);
    crash_sweep(&store_dir, &root, 0, &history, &format!("{tag} seed {seed} phase A"));

    // Phase B: checkpoint mid-history, then crash inside the rotated segment
    let ckpt_version = durable.checkpoint().unwrap();
    commit_rounds(&mut durable, &mut oracle, seed.wrapping_add(1), 2, &mut history);
    crash_sweep(&store_dir, &root, ckpt_version, &history, &format!("{tag} seed {seed} phase B"));

    // Phase C: rotate onto a fresh segment, then compact *without* a
    // checkpoint so the epoch record sits in the live WAL. A cut inside the
    // record recovers the pre-compaction numbering; a cut past it replays the
    // renumbering bit-identically — including the rounds committed on top of
    // the new numbering.
    let ckpt2 = durable.checkpoint().unwrap();
    let report = durable.compact_session().unwrap();
    history.push((report.version, durable.backend().clone(), durable.serialization()));
    oracle.compact().unwrap();
    commit_rounds(&mut durable, &mut oracle, seed.wrapping_add(2), 2, &mut history);
    crash_sweep(&store_dir, &root, ckpt2, &history, &format!("{tag} seed {seed} phase C"));

    // Point-in-time reads: every committed version materialises with the
    // serialization recorded at its commit — mutable restore and pinned
    // snapshot alike.
    for (version, reference, serialized) in &history {
        let at = durable
            .restore_at(*version)
            .unwrap_or_else(|e| panic!("{tag} seed {seed}: restore_at({version}): {e}"));
        assert_eq!(&at.serialization(), serialized, "{tag} seed {seed}: restore_at({version})");
        at.assert_deep_eq(reference, &format!("{tag} seed {seed}: restore_at({version})"));
        at.check_consistent();
        let snap = durable
            .read_at(*version)
            .unwrap_or_else(|e| panic!("{tag} seed {seed}: read_at({version}): {e}"));
        assert_eq!(&snap.serialize(), serialized, "{tag} seed {seed}: read_at({version})");
        snap.assert_consistent();
    }

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn crash_at_every_wal_byte_recovers_the_last_durable_version_single() {
    for seed in 0..2 {
        run_seed::<Executor>(seed, "exec");
    }
}

#[test]
fn crash_at_every_wal_byte_recovers_the_last_durable_version_sharded() {
    for seed in 0..2 {
        run_seed::<ShardedExecutor>(seed, "shard");
    }
}

#[test]
#[ignore = "100-seed sweep, run nightly with --ignored"]
fn crash_recovery_sweep() {
    for seed in 2..52 {
        run_seed::<Executor>(seed, "exec_sweep");
        run_seed::<ShardedExecutor>(seed, "shard_sweep");
    }
}
