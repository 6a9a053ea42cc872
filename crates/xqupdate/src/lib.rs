//! # xqupdate — a miniature XQuery Update Facility front-end
//!
//! The paper decouples *PUL production* (evaluating an XQuery Update expression
//! against a document) from *PUL execution*. The authors modified the Qizx
//! engine to emit PULs; since Qizx is not available, this crate provides a
//! compact, self-contained substitute: a parser and evaluator for the five
//! updating expressions of the XQuery Update Facility over a small XPath
//! subset, producing [`pul::Pul`] values ready to be serialized, exchanged and
//! reasoned upon.
//!
//! Supported syntax (one or more statements separated by `,`):
//!
//! ```text
//! insert nodes <author>G.Guerrini</author> as last into /issue/paper[2]/authors
//! insert nodes initPage="132" into /issue/paper[1]
//! insert nodes <year>2004</year> before /issue/paper[1]/title
//! delete nodes //paper[2]/abstract
//! replace node /issue/paper[1]/title with <title>New</title>
//! replace value of node /issue/paper[1]/title/text() with "Report on ..."
//! rename node /issue/paper[1] as "article"
//! ```
//!
//! Paths support `/` and `//` steps, element name tests, `*`, `@name`, `@*`,
//! `text()`, positional predicates `[n]` / `[last()]`, and attribute
//! comparisons `[@name = "v"]`, `[@n < 5]`, `[@id != 'x']` (operators `=`,
//! `!=`, `<`, `<=`, `>`, `>=`; numeric when both sides are numbers, string
//! otherwise).

#![forbid(unsafe_code)]

pub mod eval;
pub mod path;

pub use eval::{evaluate, XqError};
pub use path::{CmpOp, Path, Predicate};
