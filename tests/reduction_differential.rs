//! Differential testing of the reduction engines: the incremental worklist
//! engine, the pre-worklist sweep baseline and the naive O(k²) oracle must
//! agree on generated PULs, for every [`ReductionStrategy`] variant.

use pul::{OpName, Pul};
use pul_core::reduce::{reduce_naive, reduce_sweep_baseline};
use pul_core::ReductionKind;
use workload::pulgen::{generate_pul, PulGenConfig};
use workload::xmark::{generate as xmark, XmarkConfig};
use xlabel::Labeling;
use xmlpul::ReductionStrategy;

fn workload(n_ops: usize, reducible_ratio: f64, seed: u64) -> Pul {
    let doc = xmark(&XmarkConfig { target_nodes: (n_ops * 4).max(2_000), seed });
    let labeling = Labeling::assign(&doc);
    generate_pul(
        &doc,
        &labeling,
        &PulGenConfig { n_ops, reducible_ratio, content_id_base: doc.next_id() + 1_000_000, seed },
    )
}

/// Multiset of (target, op name) of a reduced PUL — the shape the engines must
/// agree on (content order inside merged insertions is rule-determined, and
/// checked by the unit suites).
fn shape(pul: &Pul) -> Vec<(u64, OpName)> {
    let mut v: Vec<(u64, OpName)> =
        pul.ops().iter().map(|o| (o.target().as_u64(), o.name())).collect();
    v.sort_unstable();
    v
}

#[test]
fn worklist_agrees_with_naive_oracle_on_generated_puls() {
    for seed in 0..5u64 {
        let pul = workload(300, 0.15, seed);
        let naive = reduce_naive(&pul);
        for kind in [ReductionKind::Plain, ReductionKind::Deterministic] {
            let fast = pul_core::reduce_with(&pul, kind);
            // Stage 10 only renames ins↓ into ins↙, so op count matches the
            // naive (stages 1–9) oracle for both kinds.
            assert_eq!(fast.len(), naive.len(), "seed {seed}, {kind:?}: worklist vs naive size");
            let sweep = reduce_sweep_baseline(&pul, kind);
            assert_eq!(shape(&fast), shape(&sweep), "seed {seed}, {kind:?}: worklist vs sweep");
        }
        // Canonical: unique result, still the same size as the oracle.
        let canonical = pul_core::reduce_with(&pul, ReductionKind::Canonical);
        assert_eq!(canonical.len(), naive.len(), "seed {seed}: canonical vs naive size");
        assert_eq!(
            canonical.to_string(),
            reduce_sweep_baseline(&pul, ReductionKind::Canonical).to_string(),
            "seed {seed}: canonical form is engine-independent"
        );
    }
}

#[test]
fn every_reduction_strategy_agrees_with_the_oracle() {
    for seed in [3u64, 17] {
        let pul = workload(200, 0.2, seed);
        let naive_len = reduce_naive(&pul).len();
        for strategy in [
            ReductionStrategy::Standard,
            ReductionStrategy::Deterministic,
            ReductionStrategy::Canonical,
        ] {
            let reduced = strategy.reduce(&pul);
            assert_eq!(reduced.len(), naive_len, "seed {seed}, {strategy:?} vs naive oracle");
            // reduction is idempotent for every strategy: (∆r)r = ∆r
            let twice = strategy.reduce(&reduced);
            assert_eq!(shape(&reduced), shape(&twice), "seed {seed}, {strategy:?}: idempotence");
        }
        assert_eq!(ReductionStrategy::None.reduce(&pul).len(), pul.len());
    }
}

#[test]
fn worklist_handles_degenerate_puls() {
    // Empty PUL.
    let empty = Pul::new();
    assert_eq!(pul_core::reduce_with(&empty, ReductionKind::Plain).len(), 0);
    // Unlabeled targets: nothing can be proven related, nothing is reduced
    // away (only exact same-target rules fire; here targets are distinct).
    let mut pul = Pul::new();
    pul.push(pul::UpdateOp::rename(100u64, "x"));
    pul.push(pul::UpdateOp::delete(200u64));
    let red = pul_core::reduce_with(&pul, ReductionKind::Plain);
    assert_eq!(red.len(), 2);
    assert_eq!(red.len(), reduce_naive(&pul).len());
}
