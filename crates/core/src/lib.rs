//! XRing: crosstalk-aware synthesis of wavelength-routed optical ring
//! routers (reproduction of Zheng et al., DATE 2023).
//!
//! The pipeline follows the paper's four steps:
//!
//! 1. [`ring`] — ring waveguide construction: a modified-TSP MILP over
//!    directed node-pair edges, with lazily separated geometric conflict
//!    and subtour constraints (Sec. III-A).
//! 2. [`shortcut`] — shortcuts between nodes suffering long ring detours,
//!    with CSE merging of crossing shortcuts (Sec. III-B).
//! 3. [`mapping`] + [`opening`] — #wl-capped wavelength assignment with
//!    arc-disjoint reuse, then ring openings at minimum-traffic nodes
//!    (Sec. III-C).
//! 4. [`pdn`] — a crossing-free binary-splitter-tree power distribution
//!    network threaded through the openings (Sec. III-D).
//!
//! [`synth::Synthesizer`] drives the whole flow through one step walk,
//! which [`incremental`] lets replay phases from an artifact store;
//! [`layout`] holds the realized-layout model and the
//! loss/crosstalk/power evaluation engine shared with the baseline
//! routers.
//!
//! # Example
//!
//! ```
//! use xring_core::{NetworkSpec, SynthesisOptions, Synthesizer};
//! use xring_phot::{CrosstalkParams, LossParams, PowerParams};
//!
//! let net = NetworkSpec::proton_8();
//! let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
//!     .synthesize(&net)?;
//! let report = design.report(
//!     "XRing/8",
//!     &LossParams::default(),
//!     Some(&CrosstalkParams::default()),
//!     &PowerParams::default(),
//! );
//! assert!(report.noise_free_fraction().expect("noise evaluated") > 0.9);
//! # Ok::<(), xring_core::SynthesisError>(())
//! ```

pub mod audit;
pub mod describe;
pub mod design;
pub mod error;
pub mod fault;
pub mod heuristics;
pub mod incremental;
pub mod layout;
pub mod mapping;
pub mod netspec;
pub mod opening;
pub mod options;
pub mod pdn;
pub mod ring;
pub mod shortcut;
pub mod sweep;
pub mod synth;
pub mod traffic;
pub mod variation;

pub use audit::{audit_design, audit_report_bounds, audit_structure, AuditReport, Invariant};
pub use design::{DegradationLevel, Provenance, RingSpacing, XRingDesign};
pub use error::SynthesisError;
pub use fault::{
    apply_fault, audit_degraded, audit_design_under_fault, enumerate_single_faults,
    protected_single_faults, verify_faults, verify_single_fault_survivability, DegradedDesign,
    DeviceFault, FaultAudit, RepairSummary, SpareConfig, SurvivabilityReport,
};
pub use incremental::{
    fnv1a64, ArtifactStore, IncrementalReport, MemoryArtifactStore, PhaseArtifact, PhaseId,
    PhaseKeys,
};
pub use layout::{Hop, LayoutModel, NoiseSource, Station, Waveguide};
pub use mapping::{map_signals, map_signals_with_traffic, MappingPlan, RouteKind, SignalRoute};
pub use netspec::{
    Floorplan, FloorplanForm, NetworkSpec, NodeId, MAX_COORD_UM, MAX_NODES, NAMED_FLOORPLANS,
};
pub use opening::{open_rings, OpeningStats};
pub use options::{design_key, Flag, Form, KeyRole, OptionField, OptionValue};
pub use pdn::{design_pdn, PdnDesign, SHORTCUT_GROUP};
pub use ring::{Direction, RingAlgorithm, RingBuilder, RingCycle, RingOutcome, RingStats};
pub use shortcut::{plan_shortcuts, Shortcut, ShortcutPlan};
pub use sweep::{pick_best_index, SweepObjective, SweepPoint, SweepResult};
pub use synth::{DegradationPolicy, SynthesisOptions, Synthesizer};
pub use traffic::Traffic;
pub use variation::{monte_carlo, SplitMix64, VariationSpec, VariationSummary};
pub use xring_milp::{ConvergenceSummary, FactorizationKind, LpBackendKind, PricingKind};
