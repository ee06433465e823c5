//! Experiment harness for the XRing reproduction.
//!
//! One function per paper artifact (see DESIGN.md §3):
//!
//! * [`tables::table1`] — Table I: 8-/16-node routers without PDNs.
//! * [`tables::table2`] — Table II: ORNoC vs XRing with PDNs, 8/16/32.
//! * [`tables::table3`] — Table III: ORing vs XRing, 16 nodes, with PDNs.
//! * [`tables::ablation_shortcuts`] / [`tables::ablation_pdn`] /
//!   [`tables::ablation_ring`] — the step-wise ablations of DESIGN.md
//!   E5–E7.
//!
//! The binaries `table1`, `table2`, `table3` and `ablation` print the
//! rows; `scaling` prints runtime and metrics against node count.

pub mod tables;

pub use tables::{
    ablation_pdn, ablation_ring, ablation_shortcuts, table1, table2, table3, RingContext,
};
