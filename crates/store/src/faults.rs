//! Deterministic fault injection for the store and the layers above it.
//!
//! A [`FaultPlan`] is a seeded description of *where* and *when* I/O should
//! fail: each [`FaultSpec`] names a failpoint **site** (a `&'static str` like
//! [`site::WAL_APPEND`]), a [`Trigger`] (fire on the n-th hit, on every n-th,
//! with a seeded probability, or always) and a [`FaultKind`] (transient,
//! permanent, or a torn write). Arming a plan yields a [`Faults`] handle — a
//! cheap clonable `Arc` that owners (a [`Store`](crate::Store), a durable
//! session, an ingest queue) consult at their failpoints.
//!
//! Design constraints, in order:
//!
//! 1. **No globals.** The handle is threaded by value through the components
//!    under test; two tests arming two plans never observe each other, and a
//!    component that was never handed a handle can never fire.
//! 2. **Free when disabled.** [`Faults::disabled`] (the `Default`) is a
//!    `None`; [`Faults::check`] is a single branch before any lock is taken.
//!    The `faults_overhead` bench suite pins this down.
//! 3. **Deterministic.** Probability triggers draw from an xorshift stream
//!    seeded by the plan, and hit counters are per-spec, so a plan replays
//!    identically for an identical sequence of failpoint hits.

use std::sync::{Arc, Mutex};

/// The failpoint sites threaded through the workspace. Layer prefix matches
/// the component that consults the site.
pub mod site {
    /// Before a WAL frame is written ([`Store::append`](crate::Store::append)).
    pub const WAL_APPEND: &str = "wal.append";
    /// Before the WAL file is fsynced (per the sync policy).
    pub const WAL_SYNC: &str = "wal.sync";
    /// Before the WAL rotates to a fresh segment (inside a checkpoint).
    pub const WAL_ROTATE: &str = "wal.rotate";
    /// Before the checkpoint image is written to its temporary file.
    pub const CKPT_WRITE: &str = "ckpt.write";
    /// Before the checkpoint temporary is renamed into place.
    pub const CKPT_RENAME: &str = "ckpt.rename";
    /// Before each shard applies its sub-PUL in the two-phase commit.
    pub const SHARD_APPLY: &str = "shard.apply";
    /// In the ingest pipeline, before a drained batch is admitted.
    pub const INGEST_PREPARE: &str = "ingest.prepare";
    /// In the ingest pipeline, before a batch (or a member retried alone) is
    /// admitted, resolved and committed.
    pub const INGEST_COMMIT: &str = "ingest.commit";

    /// Every site, for randomized plan generation.
    pub const ALL: &[&str] = &[
        WAL_APPEND,
        WAL_SYNC,
        WAL_ROTATE,
        CKPT_WRITE,
        CKPT_RENAME,
        SHARD_APPLY,
        INGEST_PREPARE,
        INGEST_COMMIT,
    ];
}

/// How an injected fault behaves once it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A retryable condition (maps to [`std::io::ErrorKind::Interrupted`]):
    /// the operation may succeed if attempted again.
    Transient,
    /// A non-retryable failure (maps to [`std::io::ErrorKind::Other`]): the
    /// operation fails, but the component stays usable.
    Permanent,
    /// A simulated crash mid-write: at [`site::WAL_APPEND`] the store writes
    /// a *partial* frame and then fails without repairing the tail, leaving
    /// torn bytes on disk exactly as a kill would. Elsewhere it behaves like
    /// [`FaultKind::Permanent`].
    Torn,
}

impl FaultKind {
    /// The `std::io::ErrorKind` an injected fault of this kind surfaces as.
    pub fn io_kind(self) -> std::io::ErrorKind {
        match self {
            FaultKind::Transient => std::io::ErrorKind::Interrupted,
            FaultKind::Permanent | FaultKind::Torn => std::io::ErrorKind::Other,
        }
    }
}

/// When a spec fires, counted per spec over the hits of its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th hit (1-based).
    Nth(u64),
    /// Fire on every `n`-th hit (`n` ≥ 1).
    EveryNth(u64),
    /// Fire with probability `p` per hit, drawn from the plan's seeded
    /// xorshift stream.
    Probability(f64),
    /// Fire on every hit.
    Always,
}

/// One armed failpoint: a site, a trigger and the kind of fault to inject.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The failpoint site this spec arms (one of [`site`]).
    pub site: &'static str,
    /// When the spec fires.
    pub trigger: Trigger,
    /// What it injects.
    pub kind: FaultKind,
}

/// A seeded, buildable description of the faults to inject. Arm it with
/// [`FaultPlan::arm`] to get the [`Faults`] handle components consult.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan drawing probability triggers from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// Adds one failpoint spec (builder style).
    pub fn fail(mut self, site: &'static str, trigger: Trigger, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec { site, trigger, kind });
        self
    }

    /// The specs of the plan.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Arms the plan: fresh per-spec hit counters, fresh rng state.
    pub fn arm(&self) -> Faults {
        let rng = splitmix64(self.seed).max(1);
        let specs = self.specs.iter().map(|s| SpecState { spec: s.clone(), hits: 0 }).collect();
        Faults(Some(Arc::new(Mutex::new(Armed { specs, rng, injected: Vec::new() }))))
    }
}

#[derive(Debug)]
struct SpecState {
    spec: FaultSpec,
    hits: u64,
}

#[derive(Debug)]
struct Armed {
    specs: Vec<SpecState>,
    rng: u64,
    /// Every injection that fired, in order: `(site, kind)`.
    injected: Vec<(&'static str, FaultKind)>,
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The armed handle components consult at their failpoints. Cloning shares
/// the hit counters (that is the point: one plan drives a whole pipeline);
/// the default handle is disabled and costs one branch per check.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<Mutex<Armed>>>);

impl Faults {
    /// The disabled handle: every check answers `None` in a single branch.
    pub fn disabled() -> Faults {
        Faults(None)
    }

    /// Consults the failpoint `site`: `Some(kind)` when an armed spec fires.
    /// The disabled handle answers without locking anything.
    #[inline]
    pub fn check(&self, site: &'static str) -> Option<FaultKind> {
        let armed = self.0.as_ref()?;
        Self::check_armed(armed, site)
    }

    #[cold]
    fn check_armed(armed: &Mutex<Armed>, site: &'static str) -> Option<FaultKind> {
        let mut armed = armed.lock().expect("fault registry lock");
        let mut fired: Option<FaultKind> = None;
        // Split the borrow: the rng draw needs `&mut armed.rng` while the
        // specs are iterated mutably.
        let Armed { specs, rng, injected } = &mut *armed;
        for state in specs.iter_mut() {
            if state.spec.site != site {
                continue;
            }
            state.hits += 1;
            let fire = match state.spec.trigger {
                Trigger::Nth(n) => state.hits == n.max(1),
                Trigger::EveryNth(n) => state.hits.is_multiple_of(n.max(1)),
                Trigger::Probability(p) => {
                    let draw = (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64;
                    draw < p
                }
                Trigger::Always => true,
            };
            if fire && fired.is_none() {
                fired = Some(state.spec.kind);
            }
        }
        if let Some(kind) = fired {
            injected.push((site, kind));
        }
        fired
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> usize {
        match &self.0 {
            None => 0,
            Some(armed) => armed.lock().expect("fault registry lock").injected.len(),
        }
    }

    /// Faults injected at one site so far.
    pub fn injected_at(&self, site: &str) -> usize {
        match &self.0 {
            None => 0,
            Some(armed) => armed
                .lock()
                .expect("fault registry lock")
                .injected
                .iter()
                .filter(|(s, _)| *s == site)
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_fires() {
        let f = Faults::disabled();
        for _ in 0..100 {
            assert_eq!(f.check(site::WAL_APPEND), None);
        }
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let f =
            FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(3), FaultKind::Transient).arm();
        let fired: Vec<Option<FaultKind>> = (0..6).map(|_| f.check(site::WAL_APPEND)).collect();
        assert_eq!(
            fired,
            vec![None, None, Some(FaultKind::Transient), None, None, None],
            "fires on the 3rd hit only"
        );
        assert_eq!(f.injected(), 1);
        assert_eq!(f.injected_at(site::WAL_APPEND), 1);
        assert_eq!(f.injected_at(site::WAL_SYNC), 0);
    }

    #[test]
    fn every_nth_and_always_triggers() {
        let f = FaultPlan::new(1)
            .fail(site::WAL_SYNC, Trigger::EveryNth(2), FaultKind::Permanent)
            .fail(site::CKPT_WRITE, Trigger::Always, FaultKind::Transient)
            .arm();
        let fired: Vec<bool> = (0..4).map(|_| f.check(site::WAL_SYNC).is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true]);
        assert!(f.check(site::CKPT_WRITE).is_some());
        assert!(f.check(site::CKPT_WRITE).is_some());
        assert_eq!(f.check(site::WAL_APPEND), None, "unarmed sites never fire");
    }

    #[test]
    fn probability_is_seeded_and_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let f = FaultPlan::new(seed)
                .fail(site::WAL_APPEND, Trigger::Probability(0.5), FaultKind::Transient)
                .arm();
            (0..64).map(|_| f.check(site::WAL_APPEND).is_some()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same firing sequence");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let fires = run(7).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&fires), "p=0.5 over 64 draws fired {fires} times");
    }

    #[test]
    fn clones_share_hit_counters() {
        let f = FaultPlan::new(1)
            .fail(site::INGEST_COMMIT, Trigger::Nth(2), FaultKind::Permanent)
            .arm();
        let g = f.clone();
        assert_eq!(f.check(site::INGEST_COMMIT), None);
        assert_eq!(g.check(site::INGEST_COMMIT), Some(FaultKind::Permanent));
        assert_eq!(f.injected(), 1, "one registry behind both handles");
    }

    #[test]
    fn two_armed_plans_are_independent() {
        let plan = FaultPlan::new(1).fail(site::WAL_APPEND, Trigger::Nth(1), FaultKind::Transient);
        let a = plan.arm();
        let b = plan.arm();
        assert!(a.check(site::WAL_APPEND).is_some());
        assert!(b.check(site::WAL_APPEND).is_some(), "b's counters start fresh");
        assert_eq!(a.injected(), 1);
        assert_eq!(b.injected(), 1);
    }
}
