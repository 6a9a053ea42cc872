//! # pul-bench — benchmark harness for the EDBT 2011 evaluation (§4.3)
//!
//! One module per figure of the paper. Each module exposes
//!
//! * a `setup_*` function building the workload (documents, PULs, serialized
//!   forms) exactly as described in the paper, scaled by a size parameter, and
//! * one or more `run_*` functions performing the measured work.
//!
//! The `experiments` binary is the one caller of these functions: it prints
//! the paper-style tables, writes `BENCH_fig6.json` and runs the in-binary
//! regression gates. System-level costs are measured by `benchmark/`.

use std::time::{Duration, Instant};

use pul::apply::{apply_pul, ApplyOptions};
use pul::stream::{apply_streaming, apply_streaming_with};
use pul::xmlio::{pul_from_xml, pul_to_xml, puls_from_xml, puls_to_xml};
use pul::{Pul, UpdateOp};
use pul_core::{aggregate, integrate, reconcile_integration, Integration, Policy};
use workload::pulgen::{
    generate_parallel_puls, generate_pul, generate_sequential_puls, ParallelConfig, PulGenConfig,
    SequentialConfig,
};
use workload::xmark::{generate as xmark, XmarkConfig};
use xdm::parser::parse_document_identified;
use xdm::writer::write_document_identified;
use xdm::Document;
use xdm::{NodeId, Tree};
use xlabel::Labeling;

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// Figure 6.a — streaming vs in-memory PUL evaluation
// ---------------------------------------------------------------------------

/// Workload for Fig. 6.a: an XMark document (identified serialization) and a
/// PUL of `n_ops` operations on it.
pub struct EvalWorkload {
    /// The document itself.
    pub doc: Document,
    /// Its identified serialization (the executor's on-disk form).
    pub xml: String,
    /// The PUL to evaluate.
    pub pul: Pul,
    /// First identifier free for nodes created during evaluation.
    pub first_new_id: u64,
}

/// Builds the Fig. 6.a workload.
pub fn setup_eval(doc_nodes: usize, n_ops: usize, seed: u64) -> EvalWorkload {
    let doc = xmark(&XmarkConfig { target_nodes: doc_nodes, seed });
    let labeling = Labeling::assign(&doc);
    let pul = generate_pul(
        &doc,
        &labeling,
        &PulGenConfig {
            n_ops,
            reducible_ratio: 0.0,
            content_id_base: doc.next_id() + 1_000_000,
            seed,
        },
    );
    let xml = write_document_identified(&doc);
    let first_new_id = doc.next_id() + 10_000_000;
    EvalWorkload { doc, xml, pul, first_new_id }
}

/// In-memory evaluation: parse the identified document, apply the PUL on the
/// DOM, serialize the result back (the "extended Qizx" baseline of §4.3).
pub fn eval_in_memory(w: &EvalWorkload) -> String {
    let mut doc = parse_document_identified(&w.xml).expect("well-formed identified document");
    apply_pul(&mut doc, &w.pul, &ApplyOptions { validate: false, preserve_content_ids: false })
        .expect("applicable PUL");
    write_document_identified(&doc)
}

/// Streaming evaluation: transform the SAX event stream on the fly (§4.3).
pub fn eval_streaming(w: &EvalWorkload) -> String {
    apply_streaming(&w.xml, &w.pul, w.first_new_id).expect("applicable PUL")
}

// ---------------------------------------------------------------------------
// Figure 6.b — PUL reduction
// ---------------------------------------------------------------------------

/// Workload for Fig. 6.b: a serialized PUL with ~1 successful rule application
/// every 10 operations, on a fixed XMark document.
pub struct ReductionWorkload {
    /// The serialized PUL (reduction is measured end-to-end, including
    /// deserialization and re-serialization, as in the paper).
    pub pul_xml: String,
    /// The in-memory PUL (for measuring the reduction step alone).
    pub pul: Pul,
}

/// Builds the Fig. 6.b workload.
pub fn setup_reduction(n_ops: usize, seed: u64) -> ReductionWorkload {
    let doc = xmark(&XmarkConfig { target_nodes: (n_ops * 4).max(2_000), seed });
    let labeling = Labeling::assign(&doc);
    let pul = generate_pul(
        &doc,
        &labeling,
        &PulGenConfig {
            n_ops,
            reducible_ratio: 0.1,
            content_id_base: doc.next_id() + 1_000_000,
            seed,
        },
    );
    ReductionWorkload { pul_xml: pul_to_xml(&pul), pul }
}

/// Deserialize + reduce + re-serialize (the measurement of Fig. 6.b).
/// Returns the size of the reduced PUL.
pub fn run_reduction_end_to_end(w: &ReductionWorkload) -> usize {
    let pul = pul_from_xml(&w.pul_xml).expect("valid PUL document");
    let reduced = pul_core::reduce_with(&pul, pul_core::ReductionKind::Plain);
    let _xml = pul_to_xml(&reduced);
    reduced.len()
}

/// Reduction alone, on the already-deserialized PUL (the incremental worklist
/// engine).
pub fn run_reduction_only(w: &ReductionWorkload) -> usize {
    pul_core::reduce_with(&w.pul, pul_core::ReductionKind::Plain).len()
}

/// Pre-worklist sweep engine (candidate set rebuilt after every pass) — the
/// "before" of the worklist ablation.
pub fn run_reduction_sweep_baseline(w: &ReductionWorkload) -> usize {
    pul_core::reduce_sweep_baseline(&w.pul, pul_core::ReductionKind::Plain).len()
}

/// Naive O(k²) reduction baseline (ablation).
pub fn run_reduction_naive(w: &ReductionWorkload) -> usize {
    pul_core::reduce::reduce_naive(&w.pul).len()
}

// ---------------------------------------------------------------------------
// Figures 6.c / 6.d — PUL aggregation
// ---------------------------------------------------------------------------

/// Workload for Fig. 6.c/6.d: an XMark document and a sequence of PULs, also
/// available in serialized form.
pub struct AggregationWorkload {
    /// The original document.
    pub doc: Document,
    /// Its identified serialization.
    pub doc_xml: String,
    /// The sequence of PULs.
    pub puls: Vec<Pul>,
    /// The serialized sequence.
    pub puls_xml: String,
    /// First identifier free for nodes created during evaluation.
    pub first_new_id: u64,
}

/// Builds the Fig. 6.c/6.d workload: `n_puls` PULs of `ops_per_pul` operations,
/// half of them on nodes inserted by previous PULs (the paper's setting).
pub fn setup_aggregation(
    doc_nodes: usize,
    n_puls: usize,
    ops_per_pul: usize,
    seed: u64,
) -> AggregationWorkload {
    let doc = xmark(&XmarkConfig { target_nodes: doc_nodes, seed });
    let puls = generate_sequential_puls(
        &doc,
        &SequentialConfig { n_puls, ops_per_pul, new_node_ratio: 0.5, seed },
    );
    let puls_xml = puls_to_xml(&puls);
    let doc_xml = write_document_identified(&doc);
    let first_new_id = doc.next_id() + 10_000_000;
    AggregationWorkload { doc, doc_xml, puls, puls_xml, first_new_id }
}

/// Deserialize + aggregate + re-serialize (the measurement of Fig. 6.c).
/// Returns the size of the aggregated PUL.
pub fn run_aggregation_end_to_end(w: &AggregationWorkload) -> usize {
    let puls = puls_from_xml(&w.puls_xml).expect("valid PUL list");
    let agg = aggregate(&puls).expect("aggregable sequence");
    let _xml = pul_to_xml(&agg);
    agg.len()
}

/// Aggregation alone, on already-deserialized PULs.
pub fn run_aggregation_only(w: &AggregationWorkload) -> usize {
    aggregate(&w.puls).expect("aggregable sequence").len()
}

/// Fig. 6.d, aggregated side: aggregate the list, then evaluate the single
/// resulting PUL in streaming over the document. Returns the output size.
pub fn run_aggregate_then_evaluate(w: &AggregationWorkload) -> usize {
    let agg = aggregate(&w.puls).expect("aggregable sequence");
    let out = apply_streaming_with(&w.doc_xml, &agg, w.first_new_id, true).expect("applicable PUL");
    out.len()
}

/// Fig. 6.d, sequential side: evaluate each PUL in streaming, one after the
/// other, re-reading the (updated) document each time. Returns the output size.
pub fn run_sequential_evaluation(w: &AggregationWorkload) -> usize {
    let mut xml = w.doc_xml.clone();
    let mut next_id = w.first_new_id;
    for pul in &w.puls {
        xml = apply_streaming_with(&xml, pul, next_id, true).expect("applicable PUL");
        next_id += 1_000_000;
    }
    xml.len()
}

// ---------------------------------------------------------------------------
// Figure 6.e — PUL integration and conflict resolution
// ---------------------------------------------------------------------------

/// Workload for Fig. 6.e: parallel PULs with injected conflicts.
pub struct IntegrationWorkload {
    /// The parallel PULs.
    pub puls: Vec<Pul>,
    /// One (relaxed) policy per producer.
    pub policies: Vec<Policy>,
}

/// Builds the Fig. 6.e workload: `n_puls` PULs of `ops_per_pul` operations,
/// half of the operations involved in conflicts of ~5 operations each.
pub fn setup_integration(n_puls: usize, ops_per_pul: usize, seed: u64) -> IntegrationWorkload {
    let doc_nodes = (n_puls * ops_per_pul * 4).max(20_000);
    let doc = xmark(&XmarkConfig { target_nodes: doc_nodes, seed });
    let labeling = Labeling::assign(&doc);
    let puls = generate_parallel_puls(
        &doc,
        &labeling,
        &ParallelConfig { n_puls, ops_per_pul, conflict_fraction: 0.5, ops_per_conflict: 5, seed },
    );
    let policies = vec![Policy::relaxed(); n_puls];
    IntegrationWorkload { puls, policies }
}

/// Integration (conflict detection) alone. Returns the number of conflicts.
pub fn run_integration(w: &IntegrationWorkload) -> Integration {
    integrate(&w.puls)
}

/// Integration followed by best-effort conflict resolution. Returns the size
/// of the reconciled PUL.
pub fn run_integration_and_resolution(w: &IntegrationWorkload) -> usize {
    let integration = integrate(&w.puls);
    let reconciled = reconcile_integration(&w.puls, &integration, &w.policies)
        .expect("relaxed policies always reconcile");
    reconciled.len()
}

// ---------------------------------------------------------------------------
// Session workload — parallel producer PULs for an `Executor` session
// ---------------------------------------------------------------------------

/// Workload of the `resolve_copies` row: parallel producer PULs with a
/// moderate injected-conflict rate, resolved by an [`xmlpul::Executor`]
/// session on their document.
pub struct SessionWorkload {
    /// The document the sessions open on.
    pub doc: Document,
    /// The parallel PULs.
    pub puls: Vec<Pul>,
}

/// Builds the session workload.
pub fn setup_session(n_puls: usize, ops_per_pul: usize, seed: u64) -> SessionWorkload {
    let doc_nodes = (n_puls * ops_per_pul * 4).max(20_000);
    let doc = xmark(&XmarkConfig { target_nodes: doc_nodes, seed });
    let labeling = Labeling::assign(&doc);
    let puls = generate_parallel_puls(
        &doc,
        &labeling,
        &ParallelConfig { n_puls, ops_per_pul, conflict_fraction: 0.2, ops_per_conflict: 4, seed },
    );
    SessionWorkload { doc, puls }
}

/// A relaxed, deterministic-reduction session on `doc` with `puls` submitted
/// (resolution is `&self`, so one session serves any number of `resolve`
/// calls).
fn session_with_submissions(doc: Document, puls: &[Pul]) -> xmlpul::Executor {
    let mut executor = xmlpul::Executor::new(doc)
        .policy(Policy::relaxed())
        .reduction(xmlpul::ReductionStrategy::Deterministic);
    for pul in puls {
        executor.submit(pul.clone());
    }
    executor
}

// ---------------------------------------------------------------------------
// Commit memory — peak allocation per commit vs document size
// ---------------------------------------------------------------------------

/// A counting global allocator used by the `commit_memory` suite: tracks the
/// live allocation level and its high-water mark so a measurement can report
/// the *peak bytes allocated above the starting level* during one operation.
/// Register it in a binary with `#[global_allocator]`.
///
/// Counting is **off by default** (one relaxed atomic load per allocation, so
/// the timing suites of the same binary stay uncontaminated) and is switched
/// on only for the duration of [`measure_peak`](alloc_counter::measure_peak).
/// The balance is signed and clamped at zero from below: frees of memory
/// allocated *before* the window neither crash the counter nor bank credit
/// against later allocations, so a clear-then-rebuild pattern that allocates
/// O(document) after freeing O(document) still registers an O(document) peak.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    /// System allocator wrapper counting live bytes and their high-water mark
    /// while a measurement window is open.
    pub struct CountingAllocator;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static CURRENT: AtomicI64 = AtomicI64::new(0);
    static PEAK: AtomicI64 = AtomicI64::new(0);
    static GROSS: AtomicI64 = AtomicI64::new(0);

    fn on_alloc(size: usize) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        GROSS.fetch_add(size as i64, Ordering::Relaxed);
        let cur = CURRENT.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(cur, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        // Clamp the balance at zero: frees of pre-window memory must not bank
        // "credit" that would hide a later burst of fresh allocation (a
        // clear-then-rebuild O(document) pattern has to show up in PEAK).
        let prev = CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
        if prev - (size as i64) < 0 {
            CURRENT.fetch_max(0, Ordering::Relaxed);
        }
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                on_alloc(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if !new_ptr.is_null() {
                on_dealloc(layout.size());
                on_alloc(new_size);
            }
            new_ptr
        }
    }

    /// Allocation measurement of one window: the peak net balance above the
    /// entry level, and the gross bytes allocated.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AllocStats {
        /// High-water mark of the net in-window balance. Approximate when
        /// frees of pre-window memory interleave with in-window allocations
        /// (the zero-clamp can absorb live in-window bytes).
        pub peak_bytes: usize,
        /// Total bytes allocated during the window — monotone, so immune to
        /// both credit-banking and clamp artifacts. This is what the CI
        /// flatness gate asserts on: for a fixed-size PUL it must not grow
        /// with the document.
        pub gross_bytes: usize,
    }

    /// Runs `f` and returns its result plus the window's [`AllocStats`].
    /// Single-threaded measurements only — concurrent allocations would be
    /// attributed to `f`.
    pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
        CURRENT.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        GROSS.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        let out = f();
        ENABLED.store(false, Ordering::Relaxed);
        let peak = PEAK.load(Ordering::Relaxed);
        let gross = GROSS.load(Ordering::Relaxed);
        (out, AllocStats { peak_bytes: peak.max(0) as usize, gross_bytes: gross.max(0) as usize })
    }
}

/// Workload for the commit-memory suite: a session on an XMark document. The
/// measured PUL touches a handful of leaf-level nodes (rename, value
/// replacement, a small subtree insertion, a leaf deletion) so that its
/// effect — and therefore the document journal — has constant size while the document
/// grows 10× between rows.
pub struct CommitMemoryWorkload {
    /// The session under measurement.
    pub executor: xmlpul::Executor,
}

/// Builds the commit-memory workload.
pub fn setup_commit_memory(doc_nodes: usize, seed: u64) -> CommitMemoryWorkload {
    let doc = xmark(&XmarkConfig { target_nodes: doc_nodes, seed });
    CommitMemoryWorkload { executor: xmlpul::Executor::new(doc) }
}

/// Builds a small fixed-shape PUL over trailing leaves of the current session
/// document: one rename, one value replacement, one two-node insertion, one
/// leaf deletion. Constant effect size by construction, whatever the document
/// size.
fn fixed_small_pul(executor: &xmlpul::Executor) -> Pul {
    let doc = executor.document();
    // trailing leaf elements and text nodes: deterministic, disjoint targets
    let mut leaf_elements: Vec<NodeId> = Vec::new();
    let mut text_nodes: Vec<NodeId> = Vec::new();
    for id in doc.preorder_from_root().into_iter().rev() {
        match doc.kind(id) {
            Ok(xdm::NodeKind::Element)
                if doc.children(id).map(|c| c.is_empty()).unwrap_or(false) =>
            {
                leaf_elements.push(id)
            }
            Ok(xdm::NodeKind::Text) => text_nodes.push(id),
            _ => {}
        }
        if leaf_elements.len() >= 3 && !text_nodes.is_empty() {
            break;
        }
    }
    assert!(leaf_elements.len() >= 3 && !text_nodes.is_empty(), "document too small");
    let ops = vec![
        UpdateOp::rename(leaf_elements[0], "renamed"),
        UpdateOp::replace_value(text_nodes[0], "replaced"),
        UpdateOp::ins_last(leaf_elements[1], vec![Tree::element_with_text("note", "inserted")]),
        UpdateOp::delete(leaf_elements[2]),
    ];
    executor.pul_from_ops(ops)
}

/// One measured commit: a warm-up commit first (so amortised container growth
/// — the dense slabs doubling their capacity — does not land in the
/// measurement), then the allocation of `commit_resolution` alone (resolution
/// computed outside the measurement). Returns the window's
/// [`AllocStats`](alloc_counter::AllocStats) and the number of document
/// journal entries recorded (the labeling is patched after the commit point
/// and journals nothing).
pub fn run_commit_memory(w: &mut CommitMemoryWorkload) -> (alloc_counter::AllocStats, usize) {
    let warm = fixed_small_pul(&w.executor);
    w.executor.submit(warm);
    let resolution = w.executor.resolve().expect("warm-up resolves");
    w.executor.commit_resolution(resolution).expect("warm-up commits");

    // the measured PUL targets the post-warm-up document
    let pul = fixed_small_pul(&w.executor);
    w.executor.submit(pul);
    let resolution = w.executor.resolve().expect("measured PUL resolves");
    let (report, stats) = alloc_counter::measure_peak(|| w.executor.commit_resolution(resolution));
    let report = report.expect("measured PUL commits");
    (stats, report.apply.journal.doc_entries)
}

fn content_trees_mut(puls: &mut [Pul]) -> impl Iterator<Item = &mut xdm::Tree> {
    puls.iter_mut().flat_map(|p| p.ops_mut()).filter_map(|op| op.content_mut()).flatten()
}

/// Gross bytes allocated by one `Executor::resolve` of the session workload
/// (after a warm-up resolve), next to the gross bytes of one deep copy of its
/// PULs — operations, labels and every content arena — with every element
/// content tree first padded by `pad_nodes` children. Padding grows the
/// payloads and nothing else (same targets, labels, operation kinds), so the
/// reasoning stages, which hand operations on by reference count, must not
/// notice it; a stage deep-copying its input pays a deep copy's worth.
pub fn run_resolve_copies(w: &SessionWorkload, pad_nodes: usize) -> (usize, usize) {
    let mut puls = w.puls.clone();
    for tree in content_trees_mut(&mut puls).filter(|t| t.root_kind() == xdm::NodeKind::Element) {
        let root = tree.root_id();
        for _ in 0..pad_nodes {
            let pad = tree.new_element("pad");
            tree.append_child(root, pad).expect("padding an element root");
        }
    }
    let executor = session_with_submissions(w.doc.clone(), &puls);
    executor.resolve().expect("warm-up resolves");
    let (_, resolve) = alloc_counter::measure_peak(|| executor.resolve().expect("resolves"));
    let (copy, deep_copy) = alloc_counter::measure_peak(|| {
        let mut copy = puls.clone();
        for tree in content_trees_mut(&mut copy) {
            *tree = xdm::Tree::from_document(tree.as_document().clone()).expect("has a root");
        }
        copy
    });
    drop(copy);
    (resolve.gross_bytes, deep_copy.gross_bytes)
}

/// Allocation of the historical whole-session snapshot (one document +
/// labeling clone) — the baseline the journal replaced, reported for contrast.
pub fn run_snapshot_clone_baseline(w: &CommitMemoryWorkload) -> alloc_counter::AllocStats {
    let (clone, stats) = alloc_counter::measure_peak(|| {
        (w.executor.document().clone(), w.executor.labeling().clone())
    });
    drop(clone);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_workload_both_paths_agree() {
        let w = setup_eval(2_000, 50, 1);
        let mem = eval_in_memory(&w);
        let streamed = eval_streaming(&w);
        let a = parse_document_identified(&mem).unwrap();
        let b = parse_document_identified(&streamed).unwrap();
        assert_eq!(pul::obtainable::canonical_string(&a), pul::obtainable::canonical_string(&b));
    }

    #[test]
    fn reduction_workload_reduces_by_about_ten_percent() {
        let w = setup_reduction(500, 2);
        let reduced = run_reduction_end_to_end(&w);
        assert!(reduced < 500, "reduced size {reduced}");
        assert_eq!(run_reduction_only(&w), reduced);
        assert_eq!(run_reduction_naive(&w), reduced);
    }

    #[test]
    fn aggregation_workload_runs_and_matches_sequential_size() {
        let w = setup_aggregation(3_000, 3, 60, 3);
        let agg_len = run_aggregation_end_to_end(&w);
        assert!(agg_len <= 180);
        assert_eq!(run_aggregation_only(&w), agg_len);
        let a = run_aggregate_then_evaluate(&w);
        let b = run_sequential_evaluation(&w);
        // same final document, hence (almost) the same serialized size; allow a
        // tiny difference due to identifier digits
        let diff = a.abs_diff(b) as f64 / a.max(b) as f64;
        assert!(diff < 0.01, "aggregate-then-evaluate {a} vs sequential {b}");
    }

    #[test]
    fn integration_workload_has_conflicts_and_reconciles() {
        let w = setup_integration(4, 80, 4);
        let integration = run_integration(&w);
        assert!(!integration.conflicts.is_empty());
        let reconciled = run_integration_and_resolution(&w);
        assert!(reconciled > 0);
    }

    #[test]
    fn reduction_engines_agree() {
        let w = setup_reduction(400, 7);
        let worklist = run_reduction_only(&w);
        assert_eq!(worklist, run_reduction_sweep_baseline(&w));
        assert_eq!(worklist, run_reduction_naive(&w));
    }

    #[test]
    fn commit_memory_workload_commits_and_journals() {
        let mut w = setup_commit_memory(2_000, 5);
        let (_peak, journal_entries) = run_commit_memory(&mut w);
        // peak is only meaningful under the counting allocator (registered in
        // the experiments binary), but the document journal must always be
        // exercised
        assert!(journal_entries > 0, "the commit must go through the journal");
        assert_eq!(w.executor.version(), 2, "warm-up + measured commit");
        w.executor.assert_consistent();
    }
}
