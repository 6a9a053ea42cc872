//! # xdm — XML document model
//!
//! This crate provides the tree representation of XML documents used throughout
//! the workspace, following §2.1 of *Cavalieri, Guerrini, Mesiti — Dynamic
//! Reasoning on XML Updates (EDBT 2011)*.
//!
//! A document `D` is described by `(V, γ, λ, ν)`:
//!
//! * `V` — a set of nodes representing **elements**, **attributes** and **text**
//!   (element values);
//! * `γ` — a function associating with each node its children;
//! * `λ` — a labeling function giving element/attribute nodes a *name*;
//! * `ν` — a labeling function giving text/attribute nodes a *value*.
//!
//! Every node carries a unique identifier ([`NodeId`]) that is preserved upon
//! modification and never reused once the node is removed — the property
//! required by the paper for exchanging PULs across process boundaries (§4.1).
//!
//! The crate additionally provides:
//!
//! * [`Tree`] — standalone fragments used as parameters of update operations;
//! * an XML [`parser`] and [`writer`] built from scratch (no external XML
//!   dependencies), including an *identified* serialization that embeds node
//!   identifiers inside the document, mirroring the paper's prototype which
//!   stores identifiers and labels within the document;
//! * a binary node-stream [`codec`], the private encoding the durable store
//!   writes for documents and parameter trees;
//! * a SAX-style [`events`] module used by the streaming PUL evaluator;
//! * an apply [`journal`]: while it is open every mutator records the
//!   inverse of its effect, so a failed or abandoned update is rolled back in
//!   O(change) instead of restoring an O(document) snapshot clone.

#![forbid(unsafe_code)]

pub mod codec;
pub mod document;
pub mod error;
pub mod events;
pub mod journal;
pub mod node;
pub mod parser;
pub mod slab;
pub mod tree;
pub mod writer;

pub use document::{Document, OrderRel, SharedDocument};
pub use error::XdmError;
pub use events::{Event, EventReader};
pub use journal::JournalGuard;
pub use node::{NodeData, NodeId, NodeKind};
pub use slab::{IdSlab, SlabStats};
pub use tree::Tree;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, XdmError>;
