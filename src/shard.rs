//! Sharded executors: one document, N independent single-threaded cores.
//!
//! The labeling of §4.1 assigns every node a containment interval in a
//! totally ordered key space, and intervals of disjoint subtrees are
//! disjoint. [`ShardedExecutor`] exploits exactly that property: the
//! authoritative document is partitioned **by top-level subtree** into N
//! contiguous slices, each owned by its own [`ExecutorCore`] (document +
//! labeling slice), and a router dispatches every submitted
//! operation to the shard whose [`LabelInterval`] contains its target label.
//!
//! ```text
//!                          ┌────────── ShardedExecutor ──────────┐
//!  producers ──submit()──▶ │ reduce → split by label interval    │
//!  (PULs, wire XML)        │   ├─ shard 0: integrate·reconcile ─┐│
//!                          │   ├─ shard 1: integrate·reconcile ─┤│──commit()─▶ D'
//!                          │   └─ shard k: integrate·reconcile ─┘│  (two-phase
//!                          └─────────────────────────────────────┘   apply)
//! ```
//!
//! **Routing.** Shard `k` owns the half-open key slice `[b_k, b_{k+1})`,
//! where the boundary keys are generated *between* the label hulls of
//! neighbouring runs of top-level subtrees at construction time. Because new
//! labels are always generated strictly inside the owning shard's synthetic
//! root interval, the slices stay disjoint for the lifetime of the session —
//! a node inserted by commit 7 routes correctly in commit 8 without any
//! routing-table maintenance. Operations targeting the root element itself
//! are routed by kind (`ins↙`/`ins↓`/attributes/rename to the first shard,
//! `ins↘` to the last); whole-root replacements (`del`/`repN`/`repC` on the
//! root) would cross every shard and are rejected with `XPUL-E05`.
//!
//! **Independence.** A PUL whose targets fall inside one shard's interval is
//! provably independent of every other shard: reduction rules pair
//! operations related by Table-1 predicates (same target, descendant,
//! sibling), conflicts arise on a shared target or along an
//! ancestor/descendant chain, and none of these relations crosses two
//! disjoint top-level subtrees. Each shard therefore reduces, integrates and
//! reconciles its sub-PULs in isolation. The only cross-boundary pairs the
//! global Fig. 2 reduction could additionally merge are the sibling-gap
//! rules (I18/IR19/IR20) on the two nodes flanking a shard boundary; those
//! merges are *result-neutral* under the deterministic apply order — both
//! sides insert into the same gap in the same order — so the committed
//! document is bit-identical to a single executor's (the
//! `randomized_differential` suite proves this over hundreds of seeded
//! document/PUL pairs).
//!
//! **Two-phase commit.** Shards apply their slices one after the other, each
//! under its own document journal; then the one WAL record is appended; then
//! every journal closes and the session version advances — the commit point —
//! and only then is each shard's labeling patched. A failure before the
//! commit point (a shard's apply, an injected fault, the append) rolls every
//! applied shard's document back at O(change) cost; no labeling has been
//! touched yet. Fresh node identifiers stay globally unique across shard
//! documents through an *identifier fence* ([`xdm::Document::reserve_ids`])
//! threaded from shard to shard.

use std::collections::HashMap;
use std::sync::Arc;

use pul::apply::{ApplyOptions, JournalStats};
use pul::{OpName, Pul, UpdateOp};
use pul_core::{integrate, reconcile_integration, Conflict, Policy};
use pul_store::{site, Faults};
use pul_telemetry::{EventKind, Telemetry};
use xdm::{Document, NodeId, SharedDocument};
use xlabel::{LabelInterval, Labeling, NodeLabel, OrderKey};

use crate::durable::CommitRecord;
use crate::error::{Error, Result};
use crate::executor::{
    Applied, CompactionReport, ExecutorCore, ReductionStrategy, SessionSlabStats, SubmissionId,
};
use crate::front::{self, Front};
use crate::snapshot::Snapshot;

/// One shard: an executor core over a slice of the document, plus the label
/// interval it owns for routing.
#[derive(Debug, Clone)]
struct Shard {
    core: ExecutorCore,
    interval: LabelInterval,
}

/// The outcome of a sharded resolve: one resolved PUL per shard, ready for
/// the two-phase commit, plus the union of the per-shard conflict reports.
#[derive(Debug, Clone)]
pub struct ShardedResolution {
    pub(crate) version: u64,
    pub(crate) submission_ids: Vec<SubmissionId>,
    pub(crate) per_shard: Vec<Pul>,
    pub(crate) conflicts: Vec<Conflict>,
}

impl ShardedResolution {
    /// The resolved sub-PUL of each shard (empty PULs for untouched shards).
    pub fn per_shard(&self) -> &[Pul] {
        &self.per_shard
    }

    /// The conflicts detected across all shards.
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }

    /// Whether every shard integrated without conflicts.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Total operations surviving resolution, across all shards.
    pub fn resolved_ops(&self) -> usize {
        self.per_shard.iter().map(|p| p.len()).sum()
    }

    /// The session version this resolution was computed against.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Summary of a successful sharded commit.
#[derive(Debug, Clone)]
pub struct ShardedCommitReport {
    /// The session version produced by the commit.
    pub version: u64,
    /// Total operations applied across all shards.
    pub applied_ops: usize,
    /// Operations applied by each shard.
    pub per_shard_ops: Vec<usize>,
    /// The conflicts that were detected (and solved) on the way.
    pub conflicts: Vec<Conflict>,
    /// Document journal entries recorded across all shards during the apply.
    pub journal: JournalStats,
}

/// A sharded executor session: N single-threaded [`ExecutorCore`] shards
/// behind one submit → resolve → commit façade, with label-interval routing
/// and a two-phase commit. See the module documentation for the
/// architecture.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    shards: Vec<Shard>,
    root_id: NodeId,
    /// The *global* root label (`[start, end]` spanning every shard), attached
    /// to root-targeted operations by [`pul_from_ops`]
    /// (ShardedExecutor::pul_from_ops) so their reduction sees the true
    /// whole-document interval rather than one shard's synthetic slice.
    root_label: NodeLabel,
    version: u64,
    /// Failpoint handle consulted before each shard applies its sub-PUL
    /// (disabled unless a test injects a plan).
    faults: Faults,
    /// Pending submissions, policy, strategy, epoch, store sink, last frozen
    /// snapshot and telemetry: the session front `Executor` embeds too. Under
    /// a sink the WAL append is the commit point of the two-phase protocol;
    /// the held snapshot spares repeated `document()` / `serialize()` calls
    /// between commits the re-grafting of the whole tree.
    pub(crate) front: Front,
}

impl ShardedExecutor {
    // ------------------------------------------------------------ construction

    /// Partitions `doc` by top-level subtree into `n_shards` contiguous,
    /// balanced slices and opens one executor core per slice. The labeling is
    /// assigned once, globally, and sliced — no label is ever re-keyed, so
    /// labels carried by producer PULs route correctly against any shard
    /// count.
    pub fn new(doc: Document, n_shards: usize) -> Result<Self> {
        if n_shards == 0 {
            return Err(Error::Shard("at least one shard is required".into()));
        }
        let root_id = doc
            .root()
            .ok_or_else(|| Error::Shard("cannot shard a document without a root".into()))?;
        let global = Labeling::assign(&doc);
        let root_label = global.require(root_id).clone();
        let children: Vec<NodeId> = doc.children(root_id)?.to_vec();
        let root_attrs: Vec<NodeId> = doc.attributes(root_id)?.to_vec();

        // Contiguous balanced partition: sizes differ by at most one, trailing
        // groups may be empty when there are fewer subtrees than shards.
        let base = children.len() / n_shards;
        let extra = children.len() % n_shards;
        let mut groups: Vec<&[NodeId]> = Vec::with_capacity(n_shards);
        let mut at = 0usize;
        for k in 0..n_shards {
            let size = base + usize::from(k < extra);
            groups.push(&children[at..at + size]);
            at += size;
        }

        // Boundary keys: b_k strictly between the previous run's label hull
        // (or the last root attribute — attribute keys live between the root's
        // start and its first child) and the next run's hull. Every label a
        // shard will ever generate stays strictly inside its synthetic root
        // interval [b_k, b_{k+1}), so the slices stay disjoint forever.
        let hulls: Vec<Option<LabelInterval>> = groups
            .iter()
            .map(|g| LabelInterval::hull(g.iter().map(|&c| global.require(c))))
            .collect();
        let mut cursor = root_attrs
            .last()
            .map(|&a| global.require(a).end.clone())
            .unwrap_or_else(|| root_label.start.clone());
        let mut los: Vec<OrderKey> = Vec::with_capacity(n_shards);
        for (k, hull) in hulls.iter().enumerate() {
            if k == 0 {
                los.push(root_label.start.clone());
            } else {
                let next_start = hulls[k..]
                    .iter()
                    .flatten()
                    .next()
                    .map(|h| h.lo().clone())
                    .unwrap_or_else(|| root_label.end.clone());
                los.push(OrderKey::between(&cursor, &next_start));
            }
            match hull {
                Some(h) => cursor = h.hi().clone(),
                None if k > 0 => cursor = los[k].clone(),
                None => {}
            }
        }

        let mut shards = Vec::with_capacity(n_shards);
        for (k, group) in groups.iter().enumerate() {
            let lo = los[k].clone();
            let hi = if k + 1 < n_shards { los[k + 1].clone() } else { root_label.end.clone() };
            let interval = LabelInterval::new(lo.clone(), hi.clone());

            // Shard document: a copy of the root element (same identifier),
            // the root attributes (first shard only — it is the root
            // authority), and this slice's subtrees, identifiers preserved.
            let mut sdoc = Document::with_first_id(doc.next_id());
            let root_name = doc.name(root_id)?.unwrap_or("").to_string();
            let sroot = sdoc.new_element_with_id(root_id, root_name)?;
            sdoc.set_root(sroot)?;
            if k == 0 {
                for &a in &root_attrs {
                    let na = sdoc.graft(&doc, a, true)?;
                    sdoc.add_attribute(sroot, na)?;
                }
            }
            for &c in group.iter() {
                let nc = sdoc.graft(&doc, c, true)?;
                sdoc.append_child(sroot, nc)?;
            }

            // Shard labeling: the global labels, bit-identical, except for the
            // root copy, whose interval is narrowed to the shard's slice so
            // that keys generated for future insertions stay inside it.
            // Sibling metadata of the top-level children is refreshed to be
            // shard-local (the shard's first child has no left sibling *here*).
            let mut slabels = Labeling::new();
            // Root label first: it carries the smallest identifier, and the
            // label slab anchors its dense range at the first insert —
            // inserting it last would strand it in the spill map.
            let mut shard_root = root_label.clone();
            shard_root.start = lo;
            shard_root.end = hi;
            slabels.insert(shard_root);
            for id in sdoc.preorder_from_root() {
                if id == root_id {
                    continue;
                }
                slabels.insert(global.require(id).clone());
            }
            slabels.refresh_sibling_flags(&sdoc, root_id);

            shards.push((ExecutorCore::from_parts(sdoc, slabels), interval));
        }
        Ok(ShardedExecutor::from_shards(shards, root_id, root_label, 0))
    }

    /// Assembles a session from its shard cores and routing intervals, the
    /// root identity and the session version — fresh from `new`, or exactly
    /// as a checkpoint snapshotted them.
    /// Session configuration (policy, strategy) starts at the defaults — it
    /// is not part of durable state.
    pub(crate) fn from_shards(
        shards: Vec<(ExecutorCore, LabelInterval)>,
        root_id: NodeId,
        root_label: NodeLabel,
        version: u64,
    ) -> Self {
        ShardedExecutor {
            shards: shards.into_iter().map(|(core, interval)| Shard { core, interval }).collect(),
            root_id,
            root_label,
            version,
            faults: Faults::disabled(),
            front: Front::default(),
        }
    }

    /// The root element identifier and global root label (checkpointing).
    pub(crate) fn root_identity(&self) -> (NodeId, &NodeLabel) {
        (self.root_id, &self.root_label)
    }

    /// Installs the failpoint handle consulted in the two-phase commit.
    pub(crate) fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Installs a telemetry handle: commit timings, snapshot re-pins and
    /// freezes, and structured events are recorded into its registry. Pass
    /// [`Telemetry::disabled`] to turn instrumentation back off.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.front.telemetry = telemetry;
    }

    /// The installed telemetry handle (disabled unless
    /// [`set_telemetry`](ShardedExecutor::set_telemetry) armed one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.front.telemetry
    }

    /// Opens a sharded session on the document serialized in `xml`.
    pub fn parse(xml: &str, n_shards: usize) -> Result<Self> {
        ShardedExecutor::new(xdm::parser::parse_document(xml)?, n_shards)
    }

    /// Sets the policy assumed for submissions that do not carry their own
    /// (builder style).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.front.default_policy = policy;
        self
    }

    /// Sets the reduction strategy (builder style). Applied both to each
    /// submission before splitting and to every shard's reconciled survivor.
    pub fn reduction(mut self, strategy: ReductionStrategy) -> Self {
        self.front.strategy = strategy;
        self
    }

    /// Sets the apply options of every shard (builder style).
    pub fn apply_options(mut self, options: ApplyOptions) -> Self {
        for shard in &mut self.shards {
            shard.core.set_apply_options(options.clone());
        }
        self
    }

    /// The identifier discipline the shards currently apply under. Every
    /// shard shares one set of apply options, so the first shard speaks for
    /// all of them.
    pub(crate) fn preserve_content_ids(&self) -> bool {
        self.shards.first().is_some_and(|s| s.core.apply_options().preserve_content_ids)
    }

    /// Flips the identifier discipline on every shard, returning the
    /// previous one. WAL replay uses this to re-apply a record under the
    /// discipline it was committed with, then restore the session's own.
    pub(crate) fn set_preserve_content_ids(&mut self, preserve: bool) -> bool {
        let previous = self.preserve_content_ids();
        for shard in &mut self.shards {
            let mut options = shard.core.apply_options().clone();
            options.preserve_content_ids = preserve;
            shard.core.set_apply_options(options);
        }
        previous
    }

    // -------------------------------------------------------------- inspection

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The executor core of shard `k`.
    pub fn shard(&self, k: usize) -> &ExecutorCore {
        &self.shards[k].core
    }

    /// The label interval shard `k` routes on.
    pub fn shard_interval(&self, k: usize) -> &LabelInterval {
        &self.shards[k].interval
    }

    /// The session version: 0 at start, +1 per successful commit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of submissions waiting to be resolved.
    pub fn pending(&self) -> usize {
        self.front.submissions.len()
    }

    /// The session's compaction epoch: 0 at start, +1 per
    /// [`compact`](ShardedExecutor::compact).
    pub fn epoch(&self) -> u64 {
        self.front.epoch
    }

    /// The unified observability snapshot (see
    /// [`Executor::telemetry_snapshot`](crate::Executor::telemetry_snapshot)):
    /// registry, aggregated shard slab statistics and the journal tail.
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        crate::TelemetrySnapshot::gather(&self.front.telemetry, self.slab_stats())
    }

    /// Reassembles the authoritative document from the shard slices: the root
    /// (name and attributes from the first shard — the root authority) with
    /// every shard's top-level subtrees concatenated in shard order.
    /// Identifiers are preserved, and the fresh-identifier counter is the
    /// maximum across shards, so the result is exactly the document a single
    /// executor would hold. O(document) — the compaction rebuild and the
    /// snapshot freeze call this; everything else reads through the held
    /// [`snapshot`](ShardedExecutor::snapshot).
    fn reassemble(&self) -> Document {
        let next = self.shards.iter().map(|s| s.core.document().next_id()).max().unwrap_or(1);
        let mut out = Document::with_first_id(next);
        let first = self.shards[0].core.document();
        let root_name = first.name(self.root_id).ok().flatten().unwrap_or("").to_string();
        let root = out
            .new_element_with_id(self.root_id, root_name)
            .expect("fresh arena accepts the root id");
        out.set_root(root).expect("fresh arena has no root");
        let attrs: Vec<NodeId> =
            first.attributes(self.root_id).map(|a| a.to_vec()).unwrap_or_default();
        for a in attrs {
            let na = out.graft(first, a, true).expect("shard ids are disjoint");
            out.add_attribute(root, na).expect("grafted attribute attaches");
        }
        for shard in &self.shards {
            let doc = shard.core.document();
            let children: Vec<NodeId> =
                doc.children(self.root_id).map(|c| c.to_vec()).unwrap_or_default();
            for c in children {
                let nc = out.graft(doc, c, true).expect("shard ids are disjoint");
                out.append_child(root, nc).expect("grafted subtree attaches");
            }
        }
        out
    }

    /// The global labeling of the reassembled document: every shard's labels
    /// (bit-identical to the global assignment — shards never re-key), with
    /// the root's true whole-document interval instead of a shard's synthetic
    /// slice, and sibling metadata refreshed across shard boundaries.
    fn reassemble_labeling(&self, doc: &Document) -> Labeling {
        let mut labels = Labeling::new();
        labels.insert(self.root_label.clone());
        for shard in &self.shards {
            for label in shard.core.labeling().iter() {
                if label.id != self.root_id {
                    labels.insert(label.clone());
                }
            }
        }
        labels.refresh_sibling_flags(doc, self.root_id);
        labels
    }

    /// Pins the current version into an immutable MVCC [`Snapshot`] of the
    /// reassembled authoritative document (plus its global labeling). The
    /// first call at a version pays the O(document) reassembly and the
    /// session holds the result; repeated calls at an unchanged version are
    /// reference-count bumps, and readers holding clones are never blocked
    /// by — and never block — later commits.
    pub fn snapshot(&self) -> Snapshot {
        self.front.snapshot(self.version, || {
            let doc = self.reassemble();
            let labeling = self.reassemble_labeling(&doc);
            (doc.to_shared(), Arc::new(labeling))
        })
    }

    /// The reassembled authoritative document, as a shared immutable handle.
    /// Served through [`snapshot`](ShardedExecutor::snapshot): repeated
    /// calls between commits do no O(document) work.
    pub fn document(&self) -> SharedDocument {
        self.snapshot().shared_document()
    }

    /// Serializes the reassembled authoritative document (memoized alongside
    /// the snapshot — repeated calls between commits re-copy, not re-walk).
    pub fn serialize(&self) -> String {
        self.snapshot().serialize()
    }

    /// Debug invariant walker: every shard core's document/labeling agreement,
    /// pairwise-disjoint routing intervals chained in shard order, and a
    /// consistent reassembled document. O(document); for tests.
    pub fn assert_consistent(&self) {
        for shard in &self.shards {
            shard.core.assert_consistent();
        }
        for pair in self.shards.windows(2) {
            assert!(
                pair[0].interval.is_disjoint_from(&pair[1].interval),
                "shard intervals overlap: {} vs {}",
                pair[0].interval,
                pair[1].interval
            );
            assert!(
                pair[0].interval.hi() <= pair[1].interval.lo(),
                "shard intervals out of order: {} before {}",
                pair[0].interval,
                pair[1].interval
            );
        }
        self.document().assert_consistent();
    }

    /// Builds a PUL from operations, attaching the labels found in the shard
    /// labelings (root-targeted operations get the global root label). Note
    /// that first/last-child and left-sibling metadata at shard boundaries is
    /// shard-local; producers holding the original document's labeling should
    /// label their PULs themselves, as usual.
    pub fn pul_from_ops(&self, ops: Vec<UpdateOp>) -> Pul {
        let mut pul: Pul = ops.into_iter().collect();
        for shard in &self.shards {
            pul.attach_labels(shard.core.labeling());
        }
        if pul.ops().iter().any(|op| op.target() == self.root_id) {
            pul.add_label(self.root_label.clone());
        }
        pul
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

    /// Submits a producer PUL received in the XML exchange format (§4).
    pub fn submit_xml(&mut self, wire: &str) -> Result<SubmissionId> {
        self.front.submit_xml(wire)
    }

    /// Withdraws a pending submission, returning its PUL.
    pub fn withdraw(&mut self, id: SubmissionId) -> Result<Pul> {
        self.front.withdraw(id)
    }

    // ----------------------------------------------------------------- routing

    /// Routes every operation of a (reduced) PUL to its shard, in op order.
    /// Operations targeting nodes carried in the *content* of an earlier
    /// operation of the same PUL (aggregated sequences) follow that
    /// operation's shard.
    fn route_ops(&self, pul: &Pul) -> Result<Vec<usize>> {
        let mut routes = Vec::with_capacity(pul.len());
        let mut content_homes: HashMap<NodeId, usize> = HashMap::new();
        for op in pul.ops() {
            let k = self.route_op(op, pul, &content_homes)?;
            if let Some(trees) = op.content() {
                for tree in trees {
                    for id in tree.as_document().node_ids() {
                        content_homes.insert(id, k);
                    }
                }
            }
            routes.push(k);
        }
        Ok(routes)
    }

    fn route_op(
        &self,
        op: &UpdateOp,
        pul: &Pul,
        content_homes: &HashMap<NodeId, usize>,
    ) -> Result<usize> {
        let target = op.target();
        if target == self.root_id {
            return self.route_root_op(op);
        }
        if let Some(label) = pul.label(target) {
            if label.parent.is_none() {
                return self.route_root_op(op);
            }
            // The shard whose half-open slice contains the label's start key.
            // Labels never change once assigned (§4.1), so a label carried by
            // a producer PUL routes correctly however old it is.
            let idx = self.shards.partition_point(|s| s.interval.lo() <= &label.start);
            if idx > 0 && self.shards[idx - 1].interval.contains_key(&label.start) {
                return Ok(idx - 1);
            }
        }
        // No (routable) label: a node inserted by an earlier op of this PUL,
        // or a label-less producer op — fall back to ownership lookups.
        if let Some(&k) = content_homes.get(&target) {
            return Ok(k);
        }
        if let Some(k) = self.shards.iter().position(|s| s.core.document().contains(target)) {
            return Ok(k);
        }
        Err(Error::Shard(format!("operation target {target} is not part of any shard")))
    }

    /// Root-targeted operations route by kind: prepending forms go to the
    /// first shard, appending forms to the last (matching reassembly order),
    /// root metadata (name, attributes) to the first shard — the root
    /// authority. Whole-root replacements would cross every shard.
    fn route_root_op(&self, op: &UpdateOp) -> Result<usize> {
        match op.name() {
            OpName::InsLast => Ok(self.shards.len() - 1),
            OpName::Delete | OpName::ReplaceNode | OpName::ReplaceContent => {
                Err(Error::Shard(format!(
                    "{} on the document root crosses every shard; use a single executor for \
                     whole-root replacements",
                    op.name().paper_notation()
                )))
            }
            // ins↙/ins↓ prepend; rename/insA mutate the root authority; the
            // sibling insertions are inapplicable on a root and are routed to
            // the first shard so validation rejects them exactly as a single
            // executor would.
            _ => Ok(0),
        }
    }

    // -------------------------------------------------------------- resolution

    /// Reasons on the pending submissions without touching any shard: every
    /// PUL is reduced with the session strategy (against the labels it
    /// carries), split by target label interval, and each shard independently
    /// integrates its sub-PULs, reconciles the detected conflicts under the
    /// producer policies and reduces its survivor once more.
    pub fn resolve(&self) -> Result<ShardedResolution> {
        let _span = self.front.telemetry.span(|m| &m.resolve_ns);
        // The epoch fence runs first: a submission admitted before a
        // compaction reasons in renumbered-away identifiers and labels —
        // resolving it would route and conflict-check against the wrong nodes.
        let pending = self.front.pending()?;
        let n = self.shards.len();

        // Split every reduced submission into per-shard sub-PULs. All
        // producers stay represented in every shard (possibly with an empty
        // sub-PUL) so conflict references keep their producer indices.
        let mut per_shard_subs: Vec<Vec<Pul>> = vec![Vec::new(); n];
        for pul in &pending.reduced {
            let routes = self.route_ops(pul)?;
            let mut i = 0;
            let parts = pul.split_by_target(n, |_| {
                let r = routes[i];
                i += 1;
                r
            });
            for (k, part) in parts.into_iter().enumerate() {
                per_shard_subs[k].push(part);
            }
        }

        // Per-shard independent reasoning. The routing above guarantees no
        // conflict or reduction dependency crosses two shards, so the shards
        // reason on their sub-PULs *in parallel* (one scoped thread each);
        // outcomes are collected in shard order, so errors and conflict
        // reports stay deterministic whatever the thread interleaving.
        // Spawning costs tens of microseconds per shard, so small resolutions
        // (a few hundred ops — the batched-ingestion common case) run inline.
        const PARALLEL_RESOLVE_MIN_OPS: usize = 512;
        let (strategy, policies) = (self.front.strategy, &pending.policies);
        let total_ops: usize = per_shard_subs.iter().flat_map(|s| s.iter()).map(|p| p.len()).sum();
        let busy = per_shard_subs.iter().filter(|s| s.iter().any(|p| !p.is_empty())).count();
        let outcomes: Vec<Result<(Pul, Vec<Conflict>)>> = if busy <= 1
            || total_ops < PARALLEL_RESOLVE_MIN_OPS
        {
            per_shard_subs.iter().map(|s| Self::resolve_shard(s, policies, strategy)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_shard_subs
                    .iter()
                    .map(|subs| scope.spawn(move || Self::resolve_shard(subs, policies, strategy)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard resolution thread panicked"))
                    .collect()
            })
        };
        let mut per_shard = Vec::with_capacity(n);
        let mut conflicts = Vec::new();
        for outcome in outcomes {
            let (pul, shard_conflicts) = outcome?;
            per_shard.push(pul);
            conflicts.extend(shard_conflicts);
        }

        Ok(ShardedResolution {
            version: self.version,
            submission_ids: pending.ids,
            per_shard,
            conflicts,
        })
    }

    /// One shard's independent reasoning pass: integrate the sub-PULs,
    /// reconcile the detected conflicts under the producer policies, reduce
    /// the survivor. Runs on its own thread when several shards have work.
    fn resolve_shard(
        subs: &[Pul],
        policies: &[Policy],
        strategy: ReductionStrategy,
    ) -> Result<(Pul, Vec<Conflict>)> {
        if subs.iter().all(|p| p.is_empty()) {
            return Ok((Pul::new(), Vec::new()));
        }
        let integration = integrate(subs);
        let reconciled = reconcile_integration(subs, &integration, policies)?;
        Ok((strategy.reduce(&reconciled), integration.conflicts))
    }

    // ------------------------------------------------------------------ commit

    /// Resolves the pending submissions and commits the resolution across all
    /// shards with the two-phase protocol.
    pub fn commit(&mut self) -> Result<ShardedCommitReport> {
        let resolution = self.resolve()?;
        self.commit_resolution(resolution)
    }

    /// Applies a previously computed [`ShardedResolution`].
    ///
    /// Every shard applies its sub-PUL under its own document journal, in
    /// shard order; then the one `S` WAL record is appended (durable
    /// sessions); then every shard's journal closes and its version
    /// advances, the session version advances — the commit point — and only
    /// then is each shard's labeling patched. A failed shard apply, an
    /// injected `shard.apply` fault or a failed append rolls every applied
    /// shard's document — identifier counter included — back to the exact
    /// pre-commit state at O(change) cost; no labeling has been touched. As
    /// for [`Executor::commit_resolution`](crate::Executor::commit_resolution),
    /// a panic inside a label patch is not rolled back.
    ///
    /// Fresh identifiers are fenced: before a shard applies, its counter is
    /// lifted past every identifier minted by the shards before it, so ids
    /// stay globally unique without any cross-shard coordination at run time.
    pub fn commit_resolution(
        &mut self,
        resolution: ShardedResolution,
    ) -> Result<ShardedCommitReport> {
        self.front.check_fresh(resolution.version, self.version, &resolution.submission_ids)?;
        let _span = self.front.telemetry.span(|m| &m.commit_ns);
        let version = self.version + 1;
        let preserve_content_ids = self.preserve_content_ids();
        let (faults, telemetry) = (&self.faults, &self.front.telemetry);
        let applied =
            apply_shards(&mut self.shards, &resolution.per_shard, faults, telemetry, self.version)
                .and_then(|applied| {
                    let record =
                        CommitRecord::Sharded { puls: &resolution.per_shard, preserve_content_ids };
                    self.front.append(version, record)?;
                    Ok(applied)
                });
        let mut applied = match applied {
            Ok(applied) => applied,
            Err(e) => {
                self.front.telemetry.count(|m| &m.rollbacks);
                return Err(e);
            }
        };
        applied.iter_mut().for_each(Applied::keep);
        self.version = version;
        let journal = JournalStats {
            doc_entries: applied.into_iter().map(|a| a.patch().journal.doc_entries).sum(),
        };
        let per_shard_ops: Vec<usize> = resolution.per_shard.iter().map(Pul::len).collect();
        let applied_ops = per_shard_ops.iter().sum();
        self.front.committed(&resolution.submission_ids, version, applied_ops);
        Ok(ShardedCommitReport {
            version,
            applied_ops,
            per_shard_ops,
            conflicts: resolution.conflicts,
            journal,
        })
    }

    // -------------------------------------------------------------- compaction

    /// Compacts the sharded session: reassembles the authoritative document,
    /// renumbers it in preorder from 1 and re-partitions it into the same
    /// number of shards with a dense labeling per slice (see
    /// [`Executor::compact`](crate::Executor::compact) for the epoch/fencing
    /// contract — it is identical here). Under a sink the epoch record append
    /// is the commit point: it happens *before* the rebuilt shards are
    /// installed, so a failed append leaves session and store on the
    /// pre-compaction version, untouched.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        // The fallible rebuild runs off to the side, so neither a rebuild
        // error nor a sink error can leave the session half-renumbered.
        front::compact(self, Self::rebuild_compacted, Self::install_compacted)
    }

    /// The renumber-and-repartition core of [`compact`](ShardedExecutor::compact):
    /// a fresh sharded executor over the preorder-renumbered reassembly, same
    /// shard count. Deterministic — `reassemble()` walks in shard order,
    /// the renumbering walks preorder, and `new` partitions contiguously — so
    /// the WAL-replay path rebuilds bit-identical state.
    fn rebuild_compacted(&self) -> Result<ShardedExecutor> {
        let mut doc = self.reassemble();
        let _mapping = doc.assign_preorder_ids(1);
        ShardedExecutor::new(doc, self.shards.len())
    }

    /// Installs the rebuilt shards and advances the version, keeping this
    /// session's apply options (the identifier discipline is session
    /// configuration, not document state).
    fn install_compacted(&mut self, rebuilt: ShardedExecutor) {
        let options = self.shards[0].core.apply_options().clone();
        let ShardedExecutor { mut shards, root_id, root_label, .. } = rebuilt;
        for shard in &mut shards {
            shard.core.set_apply_options(options.clone());
        }
        self.shards = shards;
        self.root_id = root_id;
        self.root_label = root_label;
        self.version += 1;
    }

    /// Re-applies a WAL `Epoch` record during recovery: the same rebuild as a
    /// live [`compact`](ShardedExecutor::compact), minus the sink (replay
    /// must not re-append what it reads).
    pub(crate) fn replay_epoch(&mut self, epoch: u64) -> Result<()> {
        let rebuilt = self.rebuild_compacted()?;
        self.install_compacted(rebuilt);
        self.front.epoch = epoch;
        Ok(())
    }

    /// Slot-occupancy statistics of the dense id-indexed stores, aggregated
    /// across every shard (see
    /// [`Executor::slab_stats`](crate::Executor::slab_stats)). Dead slots accumulate per shard —
    /// identifiers are never reused — so this is the churn observable for
    /// long-lived sharded sessions too.
    pub fn slab_stats(&self) -> SessionSlabStats {
        let epoch = self.front.epoch;
        self.shards.iter().fold(
            SessionSlabStats { epoch, ..SessionSlabStats::default() },
            |acc, shard| {
                acc.merged(SessionSlabStats {
                    nodes: shard.core.document().slab_stats(),
                    labels: shard.core.labeling().slab_stats(),
                    epoch,
                })
            },
        )
    }
}

/// The apply half of the sharded commit: applies each shard's sub-PUL under
/// its own document journal, in shard order, lifting each shard's identifier
/// counter past the identifiers the shards before it minted. An error drops
/// every journal opened so far, rolling those shards back. `version` is the
/// session version the commit starts from (for the fault event).
fn apply_shards<'a>(
    shards: &'a mut [Shard],
    per_shard: &[Pul],
    faults: &Faults,
    telemetry: &Telemetry,
    version: u64,
) -> Result<Vec<Applied<'a>>> {
    let mut fence = shards.iter().map(|s| s.core.document().next_id()).max().unwrap_or(1);
    let mut applied = Vec::new();
    for (shard, pul) in shards.iter_mut().zip(per_shard) {
        if pul.is_empty() {
            continue;
        }
        if let Some(kind) = faults.check(site::SHARD_APPLY) {
            telemetry.count(|m| &m.fault_hits);
            telemetry.event(EventKind::FaultHit, version, || {
                format!("{}: injected {kind:?}", site::SHARD_APPLY)
            });
            return Err(Error::injected(site::SHARD_APPLY, kind));
        }
        let shard = shard.core.apply(pul, fence)?;
        fence = shard.document().next_id();
        applied.push(shard);
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use xdm::Tree;

    /// ids: lib=1, year=2, b1=3, t=4, "A"=5, b2=6, t=7, "B"=8,
    ///      b3=9, t=10, "C"=11, b4=12, t=13, "D"=14
    const LIB: &str = "<lib year=\"2011\"><b1><t>A</t></b1><b2><t>B</t></b2>\
                       <b3><t>C</t></b3><b4><t>D</t></b4></lib>";

    fn sharded(n: usize) -> ShardedExecutor {
        ShardedExecutor::parse(LIB, n).unwrap()
    }

    fn oracle() -> Executor {
        Executor::parse(LIB).unwrap()
    }

    /// Commits `ops` through a sharded session and a single executor and
    /// asserts the same serialized document comes out of both.
    fn assert_equivalent(n: usize, ops: Vec<UpdateOp>) {
        let mut sharded = sharded(n);
        let pul = sharded.pul_from_ops(ops.clone());
        sharded.submit(pul);
        sharded.commit().unwrap();
        sharded.assert_consistent();
        let mut single = oracle();
        let pul = single.pul_from_ops(ops);
        single.submit(pul);
        single.commit().unwrap();
        single.assert_consistent();
        assert_eq!(sharded.serialize(), single.serialize(), "{n}-shard commit diverged");
    }

    #[test]
    fn construction_slices_the_document_and_labeling() {
        let s = sharded(2);
        assert_eq!(s.shard_count(), 2);
        // contiguous balanced partition: b1,b2 | b3,b4
        assert_eq!(s.shard(0).document().children(NodeId::new(1)).unwrap().len(), 2);
        assert_eq!(s.shard(1).document().children(NodeId::new(1)).unwrap().len(), 2);
        // root attributes live in the first shard only
        assert_eq!(s.shard(0).document().attributes(NodeId::new(1)).unwrap().len(), 1);
        assert_eq!(s.shard(1).document().attributes(NodeId::new(1)).unwrap().len(), 0);
        // every shard's subtree labels fall inside its routing interval
        for k in 0..2 {
            let core = s.shard(k);
            for &c in core.document().children(NodeId::new(1)).unwrap() {
                assert!(
                    s.shard_interval(k).contains_label(core.labeling().require(c)),
                    "top-level label outside its shard interval"
                );
            }
        }
        s.assert_consistent();
        // the reassembled document is the original, bit for bit
        let original = xdm::parser::parse_document(LIB).unwrap();
        assert!(s.document().deep_eq(&original));
        assert_eq!(s.serialize(), oracle().serialize());
    }

    #[test]
    fn single_shard_commit_is_bit_identical_to_the_executor() {
        let mut s = sharded(1);
        let mut single = oracle();
        let ops = vec![
            UpdateOp::rename(3u64, "book"),
            UpdateOp::replace_value(11u64, "C2"),
            UpdateOp::ins_last(6u64, vec![Tree::element_with_text("note", "n")]),
            UpdateOp::delete(12u64),
        ];
        let pul = s.pul_from_ops(ops.clone());
        s.submit(pul);
        s.commit().unwrap();
        let pul = single.pul_from_ops(ops);
        single.submit(pul);
        single.commit().unwrap();
        // one shard, same apply order, same id minting: deep_eq, not just
        // structural equality
        assert!(s.document().deep_eq(single.document()));
        s.assert_consistent();
    }

    #[test]
    fn boundary_targets_route_to_their_owning_shard() {
        let s = sharded(2);
        // b2 (6) is the last subtree of shard 0, b3 (9) the first of shard 1
        let pul = s.pul_from_ops(vec![
            UpdateOp::rename(6u64, "lastOfShard0"),
            UpdateOp::rename(9u64, "firstOfShard1"),
        ]);
        let mut s = s;
        s.submit(pul);
        let resolution = s.resolve().unwrap();
        assert_eq!(resolution.per_shard()[0].targets(), vec![NodeId::new(6)]);
        assert_eq!(resolution.per_shard()[1].targets(), vec![NodeId::new(9)]);
        s.commit_resolution(resolution).unwrap();
        assert!(s.serialize().contains("<lastOfShard0>"));
        assert!(s.serialize().contains("<firstOfShard1>"));
    }

    #[test]
    fn sibling_insertions_at_a_shard_boundary_match_the_oracle() {
        // ins→ on the last subtree of shard 0 and ins← on the first subtree
        // of shard 1 insert into the same gap: the sibling-gap reduction rule
        // (I18) merges them before the split, and the committed document must
        // match the single executor's exactly.
        for n in [1, 2, 4] {
            assert_equivalent(
                n,
                vec![
                    UpdateOp::ins_after(6u64, vec![Tree::element("afterB2")]),
                    UpdateOp::ins_before(9u64, vec![Tree::element("beforeB3")]),
                ],
            );
        }
    }

    #[test]
    fn root_targeted_ops_route_by_kind() {
        let mut s = sharded(4);
        let pul = s.pul_from_ops(vec![
            UpdateOp::rename(1u64, "library"),
            UpdateOp::ins_attributes(1u64, vec![Tree::attribute("edition", "2nd")]),
            UpdateOp::ins_first(1u64, vec![Tree::element("preface")]),
            UpdateOp::ins_last(1u64, vec![Tree::element("index")]),
        ]);
        s.submit(pul);
        let resolution = s.resolve().unwrap();
        // prepending + root-authority ops to the first shard, appending to the last
        assert_eq!(resolution.per_shard()[0].len(), 3);
        assert_eq!(resolution.per_shard()[3].len(), 1);
        assert!(resolution.per_shard()[1].is_empty());
        s.commit_resolution(resolution).unwrap();
        s.assert_consistent();
        let xml = s.serialize();
        assert!(xml.starts_with("<library year=\"2011\" edition=\"2nd\"><preface/>"), "{xml}");
        assert!(xml.ends_with("<index/></library>"), "{xml}");
        // and the whole thing matches the unsharded pipeline
        assert_equivalent(
            4,
            vec![
                UpdateOp::rename(1u64, "library"),
                UpdateOp::ins_attributes(1u64, vec![Tree::attribute("edition", "2nd")]),
                UpdateOp::ins_first(1u64, vec![Tree::element("preface")]),
                UpdateOp::ins_last(1u64, vec![Tree::element("index")]),
            ],
        );
    }

    #[test]
    fn whole_root_replacements_are_rejected() {
        for op in [
            UpdateOp::delete(1u64),
            UpdateOp::replace_node(1u64, vec![Tree::element("other")]),
            UpdateOp::replace_content(1u64, Some("flat".into())),
        ] {
            let mut s = sharded(2);
            let pul = s.pul_from_ops(vec![op]);
            s.submit(pul);
            let err = s.commit().unwrap_err();
            assert_eq!(err.code(), "XPUL-E05", "{err}");
            assert_eq!(s.version(), 0);
            s.assert_consistent();
        }
    }

    #[test]
    fn empty_shards_are_supported() {
        // more shards than top-level subtrees: shards 2 and 3 own empty slices
        let mut s =
            ShardedExecutor::parse("<lib><b1><t>A</t></b1><b2><t>B</t></b2></lib>", 4).unwrap();
        s.assert_consistent();
        assert!(s
            .shard(2)
            .document()
            .children(s.shard(2).document().root().unwrap())
            .unwrap()
            .is_empty());
        // appending to the root lands in the last (empty) shard
        let pul = s.pul_from_ops(vec![
            UpdateOp::rename(2u64, "book"),
            UpdateOp::ins_last(1u64, vec![Tree::element_with_text("b3", "C")]),
        ]);
        s.submit(pul);
        let resolution = s.resolve().unwrap();
        assert_eq!(resolution.per_shard()[3].len(), 1, "ins↘ on the root goes to the last shard");
        s.commit_resolution(resolution).unwrap();
        s.assert_consistent();
        let mut single = Executor::parse("<lib><b1><t>A</t></b1><b2><t>B</t></b2></lib>").unwrap();
        let pul = single.pul_from_ops(vec![
            UpdateOp::rename(2u64, "book"),
            UpdateOp::ins_last(1u64, vec![Tree::element_with_text("b3", "C")]),
        ]);
        single.submit(pul);
        single.commit().unwrap();
        assert_eq!(s.serialize(), single.serialize());
    }

    #[test]
    fn nodes_inserted_in_the_session_route_on_later_commits() {
        let mut s = sharded(2);
        let mut single = oracle();
        let ops = vec![
            UpdateOp::ins_last(9u64, vec![Tree::element_with_text("note", "draft")]),
            UpdateOp::ins_after(6u64, vec![Tree::element("extra")]),
        ];
        let pul = s.pul_from_ops(ops.clone());
        s.submit(pul);
        s.commit().unwrap();
        let pul = single.pul_from_ops(ops);
        single.submit(pul);
        single.commit().unwrap();

        // target the nodes the first commit created, locating them in each
        // session's own document (fresh-id minting may differ across layouts)
        let second = |doc: &Document| {
            let note = doc.find_element("note").unwrap();
            let extra = doc.find_element("extra").unwrap();
            vec![
                UpdateOp::rename(note, "annotation"),
                UpdateOp::ins_last(extra, vec![Tree::element_with_text("t", "E")]),
            ]
        };
        let reassembled = s.document();
        let note = reassembled.find_element("note").unwrap();
        let pul = s.pul_from_ops(second(&reassembled));
        s.submit(pul);
        let resolution = s.resolve().unwrap();
        // the note lives inside b3's subtree: shard 1, routed via the interval
        // of the label the patch assigned at the previous commit
        assert!(resolution.per_shard()[1].targets().contains(&note));
        s.commit_resolution(resolution).unwrap();
        s.assert_consistent();

        let pul = single.pul_from_ops(second(single.document()));
        single.submit(pul);
        single.commit().unwrap();
        assert_eq!(s.serialize(), single.serialize());
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn two_phase_commit_rolls_back_every_shard() {
        let mut s = sharded(2);
        let before: Vec<ExecutorCore> = (0..2).map(|k| s.shard(k).clone()).collect();
        // shard 0's rename applies first; shard 1's duplicate attribute
        // insertion fails mid-apply — the two-phase abort must also undo the
        // already-applied shard 0
        let pul = s.pul_from_ops(vec![
            UpdateOp::rename(3u64, "applied-then-undone"),
            UpdateOp::ins_attributes(
                12u64,
                vec![Tree::attribute("id", "1"), Tree::attribute("id", "2")],
            ),
        ]);
        s.submit(pul);
        let err = s.commit().unwrap_err();
        assert_eq!(err.code(), "XPUL-P03", "duplicate attribute is a dynamic error: {err}");
        for (k, oracle) in before.iter().enumerate() {
            assert!(
                s.shard(k).document().deep_eq(oracle.document()),
                "shard {k} document not restored"
            );
            assert!(
                s.shard(k).labeling().deep_eq(oracle.labeling()),
                "shard {k} labeling not restored"
            );
            assert_eq!(s.shard(k).version(), 0);
            assert!(!s.shard(k).document().journal_is_active(), "shard {k} journal left open");
        }
        assert_eq!(s.version(), 0);
        assert_eq!(s.pending(), 1, "the failed submission stays pending");
        s.assert_consistent();
        // the session stays fully usable
        let id = s.front.submissions[0].id;
        s.withdraw(id).unwrap();
        let pul = s.pul_from_ops(vec![UpdateOp::rename(3u64, "fine")]);
        s.submit(pul);
        s.commit().unwrap();
        assert!(s.serialize().contains("<fine>"));
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn stale_resolutions_and_withdrawn_submissions_are_rejected() {
        let mut s = sharded(2);
        let pul = s.pul_from_ops(vec![UpdateOp::rename(3u64, "a")]);
        s.submit(pul);
        let resolution = s.resolve().unwrap();
        s.commit().unwrap();
        let err = s.commit_resolution(resolution).unwrap_err();
        assert_eq!(err.code(), "XPUL-E01");

        let pul = s.pul_from_ops(vec![UpdateOp::rename(6u64, "b")]);
        let id = s.submit(pul);
        let resolution = s.resolve().unwrap();
        s.withdraw(id).unwrap();
        let err = s.commit_resolution(resolution).unwrap_err();
        assert_eq!(err.code(), "XPUL-E02");
    }

    #[test]
    fn conflicting_producers_reconcile_per_shard() {
        let mut s = sharded(2).policy(Policy::relaxed());
        // two producers rename the same node (shard 1) — a repeated
        // modification conflict solved by keeping one of them
        let p1 = s.pul_from_ops(vec![UpdateOp::rename(9u64, "first")]);
        let p2 = s.pul_from_ops(vec![UpdateOp::rename(9u64, "second")]);
        s.submit(p1);
        s.submit(p2);
        let resolution = s.resolve().unwrap();
        assert_eq!(resolution.conflicts().len(), 1);
        assert!(!resolution.is_conflict_free());
        assert_eq!(resolution.per_shard()[1].len(), 1, "one survivor after reconciliation");
        let report = s.commit_resolution(resolution).unwrap();
        assert_eq!(report.applied_ops, 1);
        assert_eq!(report.per_shard_ops, vec![0, 1]);
        assert!(report.journal.doc_entries > 0);
        s.assert_consistent();
    }

    #[test]
    fn wire_submissions_round_trip_through_the_router() {
        let mut s = sharded(4);
        let pul = s.pul_from_ops(vec![UpdateOp::rename(12u64, "renamed")]);
        let wire = pul::xmlio::pul_to_xml(&pul);
        s.submit_xml(&wire).unwrap();
        let report = s.commit().unwrap();
        assert_eq!(report.per_shard_ops, vec![0, 0, 0, 1], "b4 lives in the last shard");
        assert!(s.serialize().contains("<renamed>"));
    }
}
