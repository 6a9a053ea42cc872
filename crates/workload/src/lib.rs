//! # workload — synthetic documents and PULs for the experimental evaluation
//!
//! The paper's evaluation (§4.3) uses documents produced by the XMark data
//! generator and synthetic PULs "with a varying number of operations, equally
//! distributed among the operation types". This crate provides deterministic,
//! seeded equivalents:
//!
//! * [`xmark`] — an XMark-shaped auction-site document generator with a size
//!   knob (the documents have the same element vocabulary and fan-out shape as
//!   XMark, scaled to the requested node count);
//! * [`pulgen`] — synthetic PUL generators for the three experiment families:
//!   single PULs with a controllable rate of reducible operation pairs
//!   (Fig. 6.b), sequences of PULs with a controllable fraction of operations
//!   on newly inserted nodes (Fig. 6.c/6.d), and parallel PULs with injected
//!   conflicts of controlled size and type mix (Fig. 6.e).

#![forbid(unsafe_code)]

pub mod pulgen;
pub mod xmark;

pub use pulgen::{
    generate_parallel_puls, generate_pul, generate_sequential_puls, ParallelConfig, PulGenConfig,
    SequentialConfig,
};
pub use xmark::{generate as generate_xmark, XmarkConfig};
