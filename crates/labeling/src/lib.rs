//! # xlabel — update-tolerant XML labeling scheme
//!
//! The reasoning algorithms of the paper never access the document: they only
//! need to check the structural relationships of **Table 1** between the target
//! nodes of update operations. This crate provides the labeling scheme used for
//! that purpose (§4.1):
//!
//! * [`OrderKey`] — dynamic binary-string order keys in the style of
//!   CDBS/CDQS (Li, Ling, Hu): totally ordered byte strings between which a new
//!   key can always be generated *without modifying any existing key*, which is
//!   what makes the labeling tolerant to updates;
//! * [`NodeLabel`] — a Zhang containment label (`start`/`end` interval +
//!   `level`) extended — exactly as described in §4.1 — with the node type, the
//!   parent identifier and the identifier of the left sibling, so that **all**
//!   the relationships of Table 1 can be evaluated in constant time;
//! * [`Labeling`] — assignment of labels to every node of a document, plus
//!   incremental label generation for nodes inserted by PUL application;
//! * [`LabelInterval`] — half-open slices of the key space, used by the
//!   sharded executor to route operations to the shard whose label interval
//!   contains their target;
//! * a binary [`codec`] for labels and for labeled documents (the durable
//!   store's checkpoint images).

#![forbid(unsafe_code)]

pub mod codec;
pub mod interval;
pub mod label;
pub mod labeling;
pub mod orderkey;

pub use interval::LabelInterval;
pub use label::NodeLabel;
pub use labeling::{Labeling, PatchReport};
pub use orderkey::OrderKey;
