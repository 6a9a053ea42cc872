//! # pul-core — Dynamic reasoning on XML updates
//!
//! This crate implements the three PUL operators that constitute the main
//! contribution of *Cavalieri, Guerrini, Mesiti — Dynamic Reasoning on XML
//! Updates (EDBT 2011)*, §3–§4:
//!
//! * **Reduction** ([`reduce_with`]): collapse similar operations and remove
//!   operations whose effects are overridden (Fig. 2 rules, Def. 7), the
//!   **deterministic reduction** (Def. 8) and the unique **canonical form**
//!   (Def. 9, Prop. 1);
//! * **Integration** ([`integrate()`]) of *parallel* PULs, detecting the five
//!   conflict classes of Fig. 3 via Algorithm 1 (Defs. 10–11, Prop. 2), and
//!   **reconciliation** ([`reconcile()`]) under producer **policies**
//!   ([`policy`], §4.2, Algorithm 3, Def. 12);
//! * **Aggregation** ([`aggregate()`]) of *sequential* PULs into a single PUL
//!   cumulating their effects (Fig. 5 rules, Algorithm 2, Def. 13, Prop. 4).
//!
//! All three operators work exclusively on the PULs themselves: structural
//! relationships between target nodes are evaluated on the labels carried by
//! the PULs (Table 1), never by accessing the document.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod conflict;
pub mod integrate;
pub mod policy;
pub mod reconcile;
pub mod reduce;

pub use aggregate::{aggregate, aggregate_pair};
pub use conflict::{Conflict, ConflictType, OpRef};
pub use integrate::{integrate, Integration};
pub use policy::Policy;
pub use reconcile::{reconcile, reconcile_integration, ReconcileError};
pub use reduce::{reduce_naive, reduce_sweep_baseline, reduce_with, ReductionKind};
