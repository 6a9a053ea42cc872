//! The adapter between the benchmark and the system under test.
//!
//! Every call into `xmlpul` (and the crates it re-exports) goes through this
//! module, and nothing outside it names an `xmlpul::` path: a refactor that
//! merges or renames public API needs to touch this one file of the
//! benchmark first, and the workloads, the generator and the ladder keep
//! measuring the same things under the same metric names.
//!
//! Only today's public API is used — no span or counter is added inside the
//! system for the benchmark's sake.

use std::path::Path;

use xmlpul::pul::apply::{apply_pul, apply_pul_journaled};
use xmlpul::pul::xmlio;
use xmlpul::pul_core::{self, ReductionKind};
use xmlpul::pul_store::{Store, StoreOptions};
use xmlpul::workload::xmark::{generate, XmarkConfig};
use xmlpul::xqupdate::Path as XPath;

pub use xmlpul::pul::{ApplyOptions, Pul, UpdateOp};
pub use xmlpul::pul_core::Policy;
pub use xmlpul::xdm::{Document, NodeId, NodeKind, Tree};
pub use xmlpul::xlabel::Labeling;
pub use xmlpul::{
    Durable, DurableOptions, Executor, ExecutorCore, IngestConfig, IngestQueue, MetricsSnapshot,
    ShardedExecutor, Snapshot, SyncPolicy, Telemetry, Ticket,
};

/// Errors of the system under test, flattened to their display form: the
/// benchmark only ever counts and reports them.
pub type SutResult<T> = Result<T, String>;

fn flat<T, E: std::fmt::Display>(r: Result<T, E>) -> SutResult<T> {
    r.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// documents (xdm, xlabel, workload)
// ---------------------------------------------------------------------------

/// The XMark element names whose subtrees the generator treats as units.
pub const UNIT_NAMES: [&str; 5] = ["item", "person", "open_auction", "closed_auction", "category"];

/// An XMark-shaped document of about `nodes` nodes.
pub fn xmark(nodes: usize, seed: u64) -> Document {
    generate(&XmarkConfig { target_nodes: nodes, seed })
}

/// `xlabel`: assigns the labeling of a whole document.
pub fn assign_labels(doc: &Document) -> Labeling {
    Labeling::assign(doc)
}

/// `xdm`: plain serialization of a document.
pub fn serialize_doc(doc: &Document) -> String {
    xmlpul::xdm::writer::write_document(doc)
}

/// `xdm`: parses a plain serialization.
pub fn parse_doc(xml: &str) -> SutResult<Document> {
    flat(xmlpul::xdm::parser::parse_document(xml))
}

/// Invariant walkers over a document and its labeling.
pub fn assert_doc_consistent(doc: &Document, labeling: &Labeling) {
    doc.assert_consistent();
    labeling.assert_consistent(doc);
}

/// One unit subtree as the generator's model sees it.
pub struct UnitNodes {
    pub root: NodeId,
    /// Index of the top-level section (child of the document root) holding it.
    pub section: usize,
    /// Elements strictly below the unit root, in document order.
    pub elements: Vec<NodeId>,
    pub texts: Vec<NodeId>,
    pub attributes: Vec<NodeId>,
}

/// Scans the document once for its unit subtrees, in document order. This is
/// the only O(document) step of input generation.
pub fn scan_units(doc: &Document) -> Vec<UnitNodes> {
    let root = doc.root().expect("generated documents are rooted");
    let mut units = Vec::new();
    let sections = doc.children(root).expect("root is an element").to_vec();
    for (section, &top) in sections.iter().enumerate() {
        let mut stack = vec![top];
        while let Some(node) = stack.pop() {
            let name = doc.name(node).ok().flatten().unwrap_or("");
            if UNIT_NAMES.contains(&name) {
                let mut unit = UnitNodes {
                    root: node,
                    section,
                    elements: Vec::new(),
                    texts: Vec::new(),
                    attributes: Vec::new(),
                };
                for id in doc.preorder(node) {
                    match doc.kind(id).expect("preorder yields live nodes") {
                        NodeKind::Element if id != node => unit.elements.push(id),
                        NodeKind::Element => {}
                        NodeKind::Text => unit.texts.push(id),
                        NodeKind::Attribute => unit.attributes.push(id),
                    }
                }
                units.push(unit);
            } else if let Ok(children) = doc.children(node) {
                stack.extend(children.iter().rev().copied());
            }
        }
    }
    units.sort_by_key(|u| u.root);
    units
}

/// First identifier free for producer-chosen content.
pub fn next_free_id(doc: &Document) -> u64 {
    doc.next_id()
}

/// `<new><label>text</label></new>` with identifiers `first_id..first_id+3`
/// (root element, child element, text node).
pub fn content_tree(first_id: u64, text: &str) -> Tree {
    let mut doc = Document::with_first_id(first_id);
    let root = doc.new_element("new");
    let label = doc.new_element("label");
    let value = doc.new_text(text);
    doc.set_root(root).expect("fresh root");
    doc.append_child(root, label).expect("fresh child");
    doc.append_child(label, value).expect("fresh text");
    Tree::from_document(doc).expect("rooted fragment")
}

/// A one-node attribute tree with identifier `id`.
pub fn attribute_tree(id: u64, name: &str, value: &str) -> Tree {
    let mut doc = Document::with_first_id(id);
    let attr = doc.new_attribute(name, value);
    doc.set_root(attr).expect("fresh root");
    Tree::from_document(doc).expect("rooted fragment")
}

// ---------------------------------------------------------------------------
// pul (wire format, apply) and pul_core (the four reasoning stages)
// ---------------------------------------------------------------------------

/// Builds a PUL from operations, attaching the labels of its targets.
pub fn pul_from_ops(ops: Vec<UpdateOp>, labeling: &Labeling) -> Pul {
    Pul::from_ops(ops, labeling)
}

pub fn encode_pul(pul: &Pul) -> String {
    xmlio::pul_to_xml(pul)
}

pub fn decode_pul(wire: &str) -> SutResult<Pul> {
    flat(xmlio::pul_from_xml(wire))
}

pub fn merge_all(puls: &[Pul]) -> SutResult<Pul> {
    flat(Pul::merge_all(puls))
}

/// The producer identifier discipline (§4.1): parameter-tree identifiers are
/// preserved, so every run mints the identifiers the oracle minted.
pub fn producer_options() -> ApplyOptions {
    ApplyOptions { validate: true, preserve_content_ids: true }
}

pub fn reduce(pul: &Pul) -> Pul {
    pul_core::reduce_with(pul, ReductionKind::Deterministic)
}

/// Integration outcome: the detected conflicts are kept opaque, the count is
/// what the benchmark reports.
pub struct Integrated(pul_core::Integration);

impl Integrated {
    pub fn conflicts(&self) -> usize {
        self.0.conflicts.len()
    }
}

pub fn integrate(reduced: &[Pul]) -> Integrated {
    Integrated(pul_core::integrate(reduced))
}

pub fn reconcile(reduced: &[Pul], integration: &Integrated) -> SutResult<Pul> {
    let policies = vec![Policy::relaxed(); reduced.len()];
    flat(pul_core::reconcile_integration(reduced, &integration.0, &policies))
}

pub fn aggregate(sequence: &[Pul]) -> SutResult<Pul> {
    flat(pul_core::aggregate(sequence))
}

/// `pul::apply_pul`: application without label maintenance.
pub fn apply_plain(doc: &mut Document, pul: &Pul) -> SutResult<()> {
    flat(apply_pul(doc, pul, &producer_options())).map(drop)
}

/// `pul::apply_pul_journaled`: atomic application with incremental label
/// patching — what every commit path runs.
pub fn apply_journaled(doc: &mut Document, labeling: &mut Labeling, pul: &Pul) -> SutResult<()> {
    flat(apply_pul_journaled(doc, labeling, pul, &producer_options())).map(drop)
}

// ---------------------------------------------------------------------------
// sessions: ExecutorCore, Executor, ShardedExecutor
// ---------------------------------------------------------------------------

pub fn core(doc: Document, labeling: Labeling) -> ExecutorCore {
    let mut core = ExecutorCore::from_parts(doc, labeling);
    core.set_apply_options(producer_options());
    core
}

pub fn core_xml(core: &ExecutorCore) -> String {
    core.serialize()
}

pub fn core_commit(core: &mut ExecutorCore, pul: &Pul) -> SutResult<()> {
    flat(core.commit_pul(pul)).map(drop)
}

/// A bare session under the relaxed policy and the producer id discipline.
pub fn session(doc: Document, labeling: Labeling) -> Executor {
    Executor::from_core(ExecutorCore::from_parts(doc, labeling))
        .policy(Policy::relaxed())
        .apply_options(producer_options())
}

pub fn sharded(doc: Document, shards: usize) -> SutResult<ShardedExecutor> {
    Ok(flat(ShardedExecutor::new(doc, shards))?
        .policy(Policy::relaxed())
        .apply_options(producer_options()))
}

/// The session verbs the workloads drive, over both session kinds. The names
/// differ from the sessions' inherent methods on purpose, so a call can never
/// silently bypass the adapter.
pub trait Session: Clone + Send + 'static {
    type Resolved;
    fn submit_pul(&mut self, pul: Pul);
    fn submit_wire(&mut self, wire: &str) -> SutResult<()>;
    /// `resolve`: reasons on everything pending, without the document.
    fn resolve_round(&self) -> SutResult<Self::Resolved>;
    /// `commit_resolution`: applies what `resolve_round` returned; the new
    /// version.
    fn commit_resolved(&mut self, resolved: Self::Resolved) -> SutResult<u64>;
    fn commit_round(&mut self) -> SutResult<u64> {
        let resolved = self.resolve_round()?;
        self.commit_resolved(resolved)
    }
    fn current_version(&self) -> u64;
    fn to_xml(&self) -> String;
    fn pin(&self) -> Snapshot;
    fn check_consistent(&self);
}

impl Session for Executor {
    type Resolved = xmlpul::Resolution;
    fn submit_pul(&mut self, pul: Pul) {
        self.submit(pul);
    }
    fn submit_wire(&mut self, wire: &str) -> SutResult<()> {
        flat(self.submit_xml(wire)).map(drop)
    }
    fn resolve_round(&self) -> SutResult<Self::Resolved> {
        flat(self.resolve())
    }
    fn commit_resolved(&mut self, resolved: Self::Resolved) -> SutResult<u64> {
        flat(self.commit_resolution(resolved)).map(|report| report.version)
    }
    fn current_version(&self) -> u64 {
        self.version()
    }
    fn to_xml(&self) -> String {
        self.serialize()
    }
    fn pin(&self) -> Snapshot {
        self.snapshot()
    }
    fn check_consistent(&self) {
        self.assert_consistent()
    }
}

impl Session for ShardedExecutor {
    type Resolved = xmlpul::ShardedResolution;
    fn submit_pul(&mut self, pul: Pul) {
        self.submit(pul);
    }
    fn submit_wire(&mut self, wire: &str) -> SutResult<()> {
        flat(self.submit_xml(wire)).map(drop)
    }
    fn resolve_round(&self) -> SutResult<Self::Resolved> {
        flat(self.resolve())
    }
    fn commit_resolved(&mut self, resolved: Self::Resolved) -> SutResult<u64> {
        flat(self.commit_resolution(resolved)).map(|report| report.version)
    }
    fn current_version(&self) -> u64 {
        self.version()
    }
    fn to_xml(&self) -> String {
        self.serialize()
    }
    fn pin(&self) -> Snapshot {
        self.snapshot()
    }
    fn check_consistent(&self) {
        self.assert_consistent()
    }
}

/// Which shard holds each top-level section (child of the document root).
pub fn section_shards(session: &ShardedExecutor, doc: &Document) -> Vec<usize> {
    let root = doc.root().expect("generated documents are rooted");
    let sections = doc.children(root).expect("root is an element");
    sections
        .iter()
        .map(|&section| {
            (0..session.shard_count())
                .find(|&k| session.shard(k).document().contains(section))
                .unwrap_or(0)
        })
        .collect()
}

/// A one-operation PUL renaming the document root: it commits on any state a
/// stream leaves behind, because streams never touch the root.
pub fn root_rename(doc: &Document, labeling: &Labeling) -> Pul {
    let root = doc.root().expect("generated documents are rooted");
    Pul::from_ops(vec![UpdateOp::rename(root, "site_recovered")], labeling)
}

pub fn labeling_of(session: &Executor) -> &Labeling {
    session.labeling()
}

/// The PUL a commit of everything pending would apply.
pub fn resolve_pul(session: &Executor) -> SutResult<Pul> {
    flat(session.resolve()).map(|r| r.into_pul())
}

/// Submits a producer's sequential chain (aggregated on entry, Def. 13).
pub fn submit_sequence(session: &mut Executor, chain: &[Pul]) -> SutResult<()> {
    flat(session.submit_sequence(chain)).map(drop)
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

/// What the queue workloads' backends have in common.
pub trait Backend: xmlpul::IngestBackend {}
impl<T: xmlpul::IngestBackend> Backend for T {}

/// `IngestConfig::default()` (threshold 16, tick 2 ms, capacity 1024) with
/// the two switches the workloads set.
pub fn ingest_config(publish_snapshots: bool, telemetry: Telemetry) -> IngestConfig {
    IngestConfig { publish_snapshots, telemetry, ..IngestConfig::default() }
}

pub fn queue<B: Backend>(backend: B, config: IngestConfig) -> IngestQueue<B> {
    IngestQueue::with_config(backend, config)
}

pub fn enqueue_wire<B: Backend>(queue: &IngestQueue<B>, wire: &str) -> SutResult<Ticket> {
    flat(queue.enqueue_xml(wire))
}

/// Blocks until the ticket completes; the committed version on success.
pub fn wait_ticket(ticket: &Ticket) -> SutResult<u64> {
    flat(ticket.wait()).map(|outcome| outcome.version)
}

/// The ticket's outcome if it already completed.
pub fn poll_ticket(ticket: &Ticket) -> Option<SutResult<u64>> {
    ticket.try_outcome().map(|r| flat(r).map(|outcome| outcome.version))
}

pub fn queue_depth<B: Backend>(queue: &IngestQueue<B>) -> usize {
    queue.queued()
}

pub fn latest_snapshot<B: Backend>(queue: &IngestQueue<B>) -> Option<Snapshot> {
    queue.latest_snapshot()
}

pub fn close_queue<B: Backend>(queue: IngestQueue<B>) -> SutResult<B> {
    flat(queue.close())
}

// ---------------------------------------------------------------------------
// durable, pul_store
// ---------------------------------------------------------------------------

/// The default options under a chosen sync policy, with the WAL-size
/// checkpoint trigger scaled down with the rounds: 64 KiB where the default
/// is 1 MiB, so that a round of 100 submissions (about 130 KiB of WAL) still
/// completes a checkpoint cycle or two. The churn trigger and history
/// retention keep their defaults.
pub fn durable_options(sync: SyncPolicy) -> DurableOptions {
    DurableOptions { sync, checkpoint_wal_bytes: 64 << 10, ..DurableOptions::default() }
}

/// Options that never checkpoint on their own: the store holds exactly the
/// checkpoints the caller writes.
pub fn manual_checkpoint_options(sync: SyncPolicy) -> DurableOptions {
    DurableOptions {
        sync,
        checkpoint_wal_bytes: u64::MAX,
        checkpoint_dead_ratio: f64::INFINITY,
        ..DurableOptions::default()
    }
}

pub fn durable_create<B: xmlpul::DurableBackend>(
    dir: &Path,
    backend: B,
    opts: DurableOptions,
) -> SutResult<Durable<B>> {
    flat(Durable::create(dir, backend, opts))
}

pub fn durable_open<B: xmlpul::DurableBackend>(
    dir: &Path,
    opts: DurableOptions,
) -> SutResult<Durable<B>> {
    flat(Durable::open(dir, opts))
}

pub fn checkpoint<B: xmlpul::DurableBackend>(durable: &mut Durable<B>) -> SutResult<u64> {
    flat(durable.checkpoint())
}

/// Commits everything pending, then runs the checkpoint triggers — what the
/// ingest committer does between rounds. Returns the WAL length afterwards.
pub fn commit_durable(durable: &mut Durable<Executor>) -> SutResult<u64> {
    flat(durable.commit_durable())?;
    Ok(durable.wal_bytes())
}

pub fn read_at<B: xmlpul::DurableBackend>(durable: &Durable<B>, v: u64) -> SutResult<Snapshot> {
    flat(durable.read_at(v))
}

pub fn wal_bytes<B: xmlpul::DurableBackend>(durable: &Durable<B>) -> u64 {
    durable.wal_bytes()
}

pub fn checkpoints<B: xmlpul::DurableBackend>(durable: &Durable<B>) -> Vec<u64> {
    durable.checkpoints()
}

pub fn arm_durable<B: xmlpul::DurableBackend>(durable: &mut Durable<B>, telemetry: Telemetry) {
    durable.set_telemetry(telemetry)
}

/// Bytes of the WAL segments and of the checkpoint images in a store
/// directory — exact counts read from the file system.
pub fn store_bytes(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut wal, mut images) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let len = entry.metadata()?.len();
        if name.starts_with("wal-") {
            wal += len;
        } else if name.starts_with("ckpt-") {
            images += len;
        }
    }
    Ok((wal, images))
}

/// A bare `pul_store::Store` for the append/sync micro-rungs.
pub fn store_create(dir: &Path, sync: SyncPolicy) -> SutResult<Store> {
    flat(Store::create(dir, StoreOptions { sync, ..StoreOptions::default() }))
}

pub fn store_open(dir: &Path) -> SutResult<Store> {
    flat(Store::open(dir, StoreOptions::default()))
}

pub fn store_append(store: &mut Store, version: u64, payload: &[u8]) -> SutResult<()> {
    flat(store.append(version, payload))
}

/// Decodes the most recent checkpoint image; returns its shard count.
pub fn store_load_last_checkpoint(store: &Store) -> SutResult<usize> {
    let version = store.last_checkpoint().ok_or("store holds no checkpoint")?;
    flat(store.load_checkpoint(version)).map(|state| state.shards.len())
}

// ---------------------------------------------------------------------------
// snapshot reads
// ---------------------------------------------------------------------------

/// The fixed read query of the reader thread and of every `read_ms` probe.
pub struct ReadQuery(XPath);

impl ReadQuery {
    pub fn new() -> ReadQuery {
        ReadQuery(XPath::parse("//person/address/city").expect("fixed query parses"))
    }

    /// What one read does: evaluate the query over the pinned document and
    /// take the length of its serialization. Returns `(hits, bytes)`.
    pub fn read(&self, snapshot: &Snapshot) -> (usize, usize) {
        (self.0.select(snapshot.document()).len(), snapshot.serialized().len())
    }
}

pub fn snapshot_version(snapshot: &Snapshot) -> u64 {
    snapshot.version()
}

pub fn snapshot_text(snapshot: &Snapshot) -> &str {
    snapshot.serialized()
}

// ---------------------------------------------------------------------------
// telemetry
// ---------------------------------------------------------------------------

pub fn armed_telemetry() -> Telemetry {
    Telemetry::enabled()
}

pub fn disabled_telemetry() -> Telemetry {
    Telemetry::disabled()
}

pub fn metrics(telemetry: &Telemetry) -> MetricsSnapshot {
    telemetry.snapshot().unwrap_or_default()
}
