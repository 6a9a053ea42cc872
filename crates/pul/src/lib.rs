//! # pul — Pending Update Lists
//!
//! This crate implements the update model of §2.2 of *Dynamic Reasoning on XML
//! Updates* (EDBT 2011):
//!
//! * the eleven update primitives of **Table 2** ([`UpdateOp`]), with their
//!   applicability conditions;
//! * [`Pul`] — an unordered list of operations, with operation
//!   **compatibility** (Def. 3), PUL **applicability** (Def. 4) and the W3C
//!   **merge** (Def. 5);
//! * PUL **semantics**: in-memory evaluation in the five stages prescribed by
//!   the XQuery Update Facility ([`apply`]), the **obtainable-document set**
//!   `O(∆, D)` together with PUL **equivalence** and **substitutability**
//!   (Def. 6, [`obtainable`]);
//! * a **streaming** evaluator ([`stream`]) that applies a PUL while scanning
//!   the identified serialization of a document, never materializing it
//!   (§4.3, Figure 6.a);
//! * the XML **exchange format** for PULs ([`xmlio`]), used to ship PULs
//!   between producers and the executor (§4), and its private binary twin
//!   ([`codec`]), the payload of the durable store's WAL records.

#![forbid(unsafe_code)]

pub mod apply;
pub mod codec;
pub mod error;
pub mod obtainable;
pub mod op;
pub mod pul;
pub mod stream;
pub mod xmlio;

pub use apply::{apply_pul, ApplyOptions, ApplyReport};
pub use error::PulError;
pub use obtainable::{equivalent, obtainable_documents, substitutable, ObtainableSet};
pub use op::{OpClass, OpName, UpdateOp};
pub use pul::Pul;
pub use stream::apply_streaming;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PulError>;
