//! # xmlpul — Dynamic Reasoning on XML Updates
//!
//! A Rust reproduction of *F. Cavalieri, G. Guerrini, M. Mesiti — “Dynamic
//! Reasoning on XML Updates”, EDBT 2011*: a complete system for exchanging,
//! reasoning on and executing XQuery Update Facility **Pending Update Lists
//! (PULs)** without accessing the documents they refer to.
//!
//! The heart of the crate is the [`Executor`] session API — one façade for the
//! whole pipeline:
//!
//! ```text
//!  producers ──submit()──▶ ┌───────────────────────────────┐
//!  (PULs, wire XML,        │  Executor session              │
//!   sequences, queries)    │   reduce → integrate →         │──commit()──▶ Document'
//!                          │   reconcile → aggregate        │   (apply → log → patch)
//!                          └──────────resolve()─────────────┘
//!                                       │
//!                                       ▼
//!                            Resolution (PUL + conflict report)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use xmlpul::prelude::*;
//!
//! // The executor session owns the authoritative document and its labeling.
//! let mut session = Executor::parse(
//!     "<issue><paper><title>Old</title></paper></issue>").unwrap()
//!     .policy(Policy::relaxed())
//!     .reduction(ReductionStrategy::Deterministic);
//!
//! // Producers express updates as PULs — here through the XQuery Update
//! // front-end — and ship them over the wire.
//! let pul = session.produce(
//!     "rename node /issue/paper/title as \"heading\", \
//!      insert nodes <author>G.Guerrini</author> after /issue/paper/title").unwrap();
//! let wire = pul::xmlio::pul_to_xml(&pul);
//!
//! // The executor admits submissions, reasons on them without touching the
//! // document, and commits the resolution.
//! session.submit_xml(&wire).unwrap();
//! let resolution = session.resolve().unwrap();
//! assert!(resolution.is_conflict_free());
//! let report = session.commit_resolution(resolution).unwrap();
//! assert_eq!(report.version, 1);
//! assert!(session.serialize().contains("<heading>"));
//! assert!(session.serialize().contains("G.Guerrini"));
//! ```
//!
//! Everything fallible returns the unified [`Error`] with a stable
//! [`code`](Error::code); several updates that must land together go in as
//! one [`submit_sequence`](Executor::submit_sequence), the paper's
//! aggregation (Def. 13), and commit as one version; the paper's streaming
//! evaluator, [`pul::apply_streaming`], applies a
//! resolution's PUL in one pass over the identified serialization without
//! materialising the document; [`IngestQueue`] fronts an executor (single or
//! [sharded](ShardedExecutor)) with a group-commit submission queue for
//! multi-writer ingestion: whenever its pipeline thread is free it drains
//! everything queued and commits it as one aggregated PUL.
//!
//! ## Workspace layout
//!
//! | crate | contents |
//! |-------|----------|
//! | [`xdm`] | XML document model, parser/serializer, SAX events |
//! | [`xlabel`] | update-tolerant labeling scheme (Table 1 predicates) |
//! | [`pul`] | update primitives, PULs, semantics, in-memory & streaming evaluation, exchange format |
//! | [`pul_core`] | **the paper's contribution**: reduction, integration, reconciliation, aggregation |
//! | [`xqupdate`] | a miniature XQuery Update front-end producing PULs |
//! | [`workload`] | XMark-style documents and synthetic PUL generators |
//!
//! The free functions of `pul_core` remain available for operator-level work.
//! The historical reduction function zoo (`reduce`, `deterministic_reduce`,
//! `canonical_form`) has been removed: use [`ReductionStrategy`] (or
//! `pul_core::reduce_with` directly).

#![forbid(unsafe_code)]

pub use pul;
pub use pul_core;
pub use pul_store;
pub use workload;
pub use xdm;
pub use xlabel;
pub use xqupdate;

mod durable;
mod error;
mod executor;
mod front;
mod ingest;
mod observe;
mod resolution;
mod shard;
mod snapshot;

pub mod fixtures;

pub use durable::{Durable, DurableBackend, DurableOptions};
pub use error::{Error, Result};
pub use executor::{
    CommitReport, CompactionReport, Executor, ExecutorCore, ReductionStrategy, SessionSlabStats,
    SubmissionId,
};
pub use ingest::{IngestBackend, IngestConfig, IngestQueue, Ticket, TicketOutcome};
pub use observe::TelemetrySnapshot;
pub use pul_store::{
    site as fault_site, FaultKind, FaultPlan, FaultSpec, Faults, StoreError, SyncPolicy, Trigger,
};
pub use pul_telemetry::{
    Event, EventKind, HistogramSummary, Metrics, MetricsSnapshot, Telemetry, EVENT_JOURNAL_CAP,
};
pub use resolution::Resolution;
pub use shard::{ShardedCommitReport, ShardedExecutor, ShardedResolution};
pub use snapshot::Snapshot;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        CommitReport, CompactionReport, Durable, DurableOptions, Error, Event, EventKind, Executor,
        ExecutorCore, FaultKind, FaultPlan, Faults, IngestBackend, IngestConfig, IngestQueue,
        MetricsSnapshot, ReductionStrategy, Resolution, Result, SessionSlabStats,
        ShardedCommitReport, ShardedExecutor, ShardedResolution, Snapshot, SubmissionId,
        SyncPolicy, Telemetry, TelemetrySnapshot, Ticket, TicketOutcome, Trigger,
    };
    pub use pul::{ApplyOptions, OpClass, OpName, Pul, UpdateOp};
    pub use pul_core::{Conflict, ConflictType, Policy};
    pub use xdm::{Document, NodeId, NodeKind, Tree};
    pub use xlabel::{LabelInterval, Labeling, NodeLabel, OrderKey};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_session_is_usable() {
        let mut session = Executor::parse("<a><b>t</b></a>").unwrap();
        let b = session.document().find_element("b").unwrap();
        let pul = session.pul_from_ops(vec![UpdateOp::rename(b, "c")]);
        session.submit(pul);
        let resolution = session.resolve().unwrap();
        assert_eq!(resolution.resolved_ops(), 1);
        session.commit_resolution(resolution).unwrap();
        assert!(session.serialize().contains("<c>"));
        assert_eq!(session.version(), 1);
    }

    #[test]
    fn slab_stats_expose_churn() {
        let mut session = Executor::parse("<r><a/><b/><c/><d/></r>").unwrap();
        let before = session.slab_stats();
        assert_eq!(before.nodes.dead, 0);
        assert_eq!(
            before.nodes.live + before.nodes.spill,
            before.labels.live + before.labels.spill,
            "arena and labeling store the same population"
        );
        // churn: delete two subtrees, insert one — dead slots accumulate
        // because identifiers are never reused
        let a = session.document().find_element("a").unwrap();
        let b = session.document().find_element("b").unwrap();
        let c = session.document().find_element("c").unwrap();
        let pul = session.pul_from_ops(vec![
            UpdateOp::delete(a),
            UpdateOp::delete(b),
            UpdateOp::ins_last(c, vec![Tree::element("fresh")]),
        ]);
        session.submit(pul);
        session.commit().unwrap();
        let after = session.slab_stats();
        assert!(after.nodes.dead >= 2, "removed slots stay dead: {after:?}");
        assert!(after.labels.dead >= 2);
        assert!(after.nodes.dead_ratio() > 0.0);
        // the sharded façade aggregates across shards
        let sharded = ShardedExecutor::parse("<r><a/><b/><c/><d/></r>", 2).unwrap();
        let stats = sharded.slab_stats();
        assert!(stats.nodes.live >= 5, "root copies + subtrees: {stats:?}");
        assert_eq!(stats.nodes.spill, 0);
    }

    #[test]
    fn stale_resolutions_are_rejected() {
        let mut session = Executor::parse("<a><b>t</b></a>").unwrap();
        let b = session.document().find_element("b").unwrap();
        session.submit(Pul::from_ops(vec![UpdateOp::rename(b, "c")], session.labeling()));
        let resolution = session.resolve().unwrap();
        session.commit().unwrap();
        let err = session.commit_resolution(resolution).unwrap_err();
        assert_eq!(err.code(), "XPUL-E01");
    }
}
