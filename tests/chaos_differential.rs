//! Chaos differential verification: seeded workloads under randomized
//! fault plans.
//!
//! Each case drives the full durable ingestion stack — `IngestQueue` over
//! `Durable<Executor>` and `Durable<ShardedExecutor>` — with an armed
//! [`FaultPlan`] shared by every failpoint layer: the store (WAL
//! append/sync/rotation, checkpoint write/rename), the shard two-phase
//! apply, and the ingest prepare and commit sites. Whatever the
//! plan injects, three invariants must hold:
//!
//! 1. **Exactness.** The surviving document equals a fault-free sequential
//!    run of *exactly* the submissions whose tickets reported success
//!    (`deep_eq`: same arena entries, same identifiers). A rejected ticket
//!    leaves no trace; an accepted one is never lost.
//! 2. **Stable taxonomy.** Every rejected ticket carries a stable `XPUL-*`
//!    error code from the documented failure set.
//! 3. **Recoverability.** Reopening the store (`Durable::open`) after the
//!    run — including runs where a torn write simulated a mid-commit kill —
//!    reproduces the surviving state bit-identically at the same version.
//!
//! The CI suite crosses pinned seeds with a small deterministic plan matrix
//! (one plan per failpoint family, plus a seed-randomized plan); the
//! `--ignored` sweep runs 200 further randomized seeds. Run it with
//! `cargo test --release --test chaos_differential -- --ignored`.

mod common;

use std::path::PathBuf;

use common::enqueue_in_batches;
use pul::ApplyOptions;
use workload::pulgen::differential_case_with;
use xmlpul::prelude::*;
use xmlpul::{fault_site as site, Durable, DurableBackend, DurableOptions};

const PRODUCERS: usize = 8;
const CI_SEEDS: u64 = 3;
const NIGHTLY_SEEDS: std::ops::Range<u64> = 1000..1200;

fn producer_options() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

/// Small checkpoint threshold so chaos runs cross checkpoint boundaries
/// (and their failpoints) mid-workload. Transient faults retry under the
/// durable layer's fixed budget: 1 attempt plus 4 retries, about 15 ms of
/// backoff per exhausted operation.
fn chaos_opts() -> DurableOptions {
    DurableOptions { checkpoint_wal_bytes: 512, ..DurableOptions::default() }
}

fn tmp_dir(tag: &str, seed: u64, plan_idx: usize) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("xmlpul_chaos_{tag}_{seed}_{plan_idx}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A randomized plan: one to three specs over the full site list, with mixed
/// kinds and triggers. Torn faults are biased toward `wal.append`, the one
/// site where they differ from permanent faults.
fn random_plan(seed: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xDEAD_BEEF);
    let mut plan = FaultPlan::new(seed);
    let n = 1 + (xorshift(&mut s) % 3) as usize;
    for _ in 0..n {
        let st = site::ALL[(xorshift(&mut s) as usize) % site::ALL.len()];
        let kind = match xorshift(&mut s) % 4 {
            0 => FaultKind::Transient,
            1 | 2 => FaultKind::Permanent,
            _ if st == site::WAL_APPEND => FaultKind::Torn,
            _ => FaultKind::Permanent,
        };
        let trigger = match xorshift(&mut s) % 3 {
            0 => Trigger::Nth(1 + xorshift(&mut s) % 4),
            1 => Trigger::EveryNth(2 + xorshift(&mut s) % 3),
            _ => Trigger::Probability(0.2),
        };
        plan = plan.fail(st, trigger, kind);
    }
    plan
}

/// The deterministic CI matrix: one plan per failpoint family, then the
/// seed-randomized plan on top. The `wal.sync` plan is the crash between
/// append and sync: the store repairs the tail, the ticket fails, and
/// reopening must not bring the record back. A case commits two batches, so
/// it fails every second sync: the second batch, then every second member
/// retried alone.
fn plan_matrix(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::new(seed).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Transient),
        FaultPlan::new(seed).fail(site::WAL_APPEND, Trigger::Nth(2), FaultKind::Torn),
        FaultPlan::new(seed).fail(site::WAL_APPEND, Trigger::EveryNth(2), FaultKind::Permanent),
        FaultPlan::new(seed).fail(site::WAL_SYNC, Trigger::EveryNth(2), FaultKind::Permanent),
        FaultPlan::new(seed).fail(site::CKPT_WRITE, Trigger::Nth(1), FaultKind::Transient).fail(
            site::CKPT_RENAME,
            Trigger::Nth(1),
            FaultKind::Permanent,
        ),
        FaultPlan::new(seed)
            .fail(site::INGEST_PREPARE, Trigger::Nth(1), FaultKind::Permanent)
            .fail(site::INGEST_COMMIT, Trigger::EveryNth(2), FaultKind::Permanent),
        FaultPlan::new(seed).fail(site::SHARD_APPLY, Trigger::Nth(1), FaultKind::Permanent),
        random_plan(seed),
    ]
}

/// The two backends the chaos stack runs over, abstracted just far enough
/// for the harness: construction, a sequential fault-free commit (the
/// oracle path), and the state observables the invariants compare.
trait ChaosBackend: DurableBackend + IngestBackend + Clone {
    const TAG: &'static str;
    fn from_doc(doc: &Document) -> Self;
    fn doc(&self) -> Document;
    fn xml(&self) -> String;
    fn chaos_version(&self) -> u64;
    fn check_consistent(&self);
    fn commit_one(&mut self, pul: Pul) -> xmlpul::Result<()>;
}

impl ChaosBackend for Executor {
    const TAG: &'static str = "executor";
    fn from_doc(doc: &Document) -> Self {
        Executor::new(doc.clone()).policy(Policy::relaxed()).apply_options(producer_options())
    }
    fn doc(&self) -> Document {
        self.document().clone()
    }
    fn xml(&self) -> String {
        self.serialize()
    }
    fn chaos_version(&self) -> u64 {
        self.version()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn commit_one(&mut self, pul: Pul) -> xmlpul::Result<()> {
        self.submit(pul);
        let resolution = self.resolve()?;
        self.commit_resolution(resolution).map(|_| ())
    }
}

impl ChaosBackend for ShardedExecutor {
    const TAG: &'static str = "sharded";
    fn from_doc(doc: &Document) -> Self {
        ShardedExecutor::new(doc.clone(), 2)
            .expect("rooted document shards")
            .policy(Policy::relaxed())
            .apply_options(producer_options())
    }
    fn doc(&self) -> Document {
        self.document().as_ref().clone()
    }
    fn xml(&self) -> String {
        self.serialize()
    }
    fn chaos_version(&self) -> u64 {
        self.version()
    }
    fn check_consistent(&self) {
        self.assert_consistent();
    }
    fn commit_one(&mut self, pul: Pul) -> xmlpul::Result<()> {
        self.submit(pul);
        let resolution = self.resolve()?;
        self.commit_resolution(resolution).map(|_| ())
    }
}

/// One chaos case: workload `seed` under `plan`, over backend `B`. Returns
/// the armed handle and the number of rejected tickets.
fn chaos_case<B: ChaosBackend>(seed: u64, plan: &FaultPlan, plan_idx: usize) -> (Faults, usize) {
    let ctx = format!("seed {seed}, plan {plan_idx} ({:?}), backend {}", plan.specs(), B::TAG);
    let case = differential_case_with(seed, PRODUCERS);
    let faults = plan.arm();
    let dir = tmp_dir(B::TAG, seed, plan_idx);

    // One armed handle drives every layer: store, sink, shard apply, and
    // (through the config) the ingest pipeline thread.
    let mut durable = Durable::create(&dir, B::from_doc(&case.doc), chaos_opts())
        .unwrap_or_else(|e| panic!("{ctx}: create: {e}"));
    durable.inject_faults(faults.clone());
    let queue = IngestQueue::with_config(
        durable,
        IngestConfig { faults: faults.clone(), ..IngestConfig::default() },
    );
    let tickets = enqueue_in_batches(&queue, &case.puls, 4);
    queue.flush();
    let durable = queue.close().unwrap_or_else(|e| panic!("{ctx}: close: {e}"));

    // Invariant 2: every rejection carries a stable XPUL code.
    let mut accepted = Vec::new();
    for (i, ticket) in tickets.iter().enumerate() {
        match ticket.wait() {
            Ok(_) => accepted.push(i),
            Err(e) => {
                let code = e.code();
                assert!(
                    code.starts_with("XPUL-"),
                    "{ctx}: producer {i} rejected without a stable code: {e}"
                );
            }
        }
    }

    // Invariant 1: the survivors — and only the survivors — are committed.
    // A fault-free sequential run of exactly the accepted submissions must
    // produce the same document (identifiers included).
    let mut replay = B::from_doc(&case.doc);
    for &i in &accepted {
        replay.commit_one(case.puls[i].clone()).unwrap_or_else(|e| {
            panic!("{ctx}: accepted producer {i} fails in the fault-free replay: {e}")
        });
    }
    let survivor = durable.backend().clone();
    assert!(
        survivor.doc().deep_eq(&replay.doc()),
        "{ctx}: surviving document diverged from the fault-free replay of the \
         {} accepted submissions\n  chaos: {}\n  replay: {}",
        accepted.len(),
        survivor.xml(),
        replay.xml()
    );
    survivor.check_consistent();

    // Invariant 3: recovery. Reopening the store reproduces the surviving
    // state — including after torn writes (simulated mid-commit kills) and
    // checkpoint failures left on disk.
    drop(durable);
    let recovered: Durable<B> = Durable::open(&dir, DurableOptions::default())
        .unwrap_or_else(|e| panic!("{ctx}: recovery: {e}"));
    assert_eq!(recovered.backend().chaos_version(), survivor.chaos_version(), "{ctx}: version");
    assert!(
        recovered.backend().doc().deep_eq(&survivor.doc()),
        "{ctx}: recovered document diverged from the surviving session\n  recovered: {}\n  survivor: {}",
        recovered.backend().xml(),
        survivor.xml()
    );
    recovered.backend().check_consistent();
    std::fs::remove_dir_all(&dir).unwrap();
    (faults, tickets.len() - accepted.len())
}

/// Pinned seeds × the deterministic plan matrix, both backends: the CI
/// chaos smoke suite.
#[test]
fn chaos_survivors_match_fault_free_replay() {
    for seed in 0..CI_SEEDS {
        for (plan_idx, plan) in plan_matrix(seed).iter().enumerate() {
            for (faults, rejected) in [
                chaos_case::<Executor>(seed, plan, plan_idx),
                chaos_case::<ShardedExecutor>(seed, plan, plan_idx),
            ] {
                // The sync plan must reach its path, or it proves nothing.
                if let [spec] = plan.specs() {
                    if spec.site == site::WAL_SYNC {
                        assert!(
                            faults.injected_at(site::WAL_SYNC) > 0,
                            "seed {seed}: no sync failed"
                        );
                        assert!(rejected > 0, "seed {seed}: a failed sync rejected no ticket");
                    }
                }
            }
        }
    }
}

/// 200 further randomized seeds, both backends. Run nightly with
/// `cargo test --release --test chaos_differential -- --ignored`.
#[test]
#[ignore = "200-seed chaos sweep; run nightly with --ignored"]
fn chaos_survivors_match_fault_free_replay_many_seeds() {
    for seed in NIGHTLY_SEEDS {
        let plan = random_plan(seed);
        chaos_case::<Executor>(seed, &plan, usize::MAX);
        chaos_case::<ShardedExecutor>(seed, &plan, usize::MAX);
    }
}
