//! Synthesis error type.

use crate::netspec::NAMED_FLOORPLANS;
use std::error::Error;
use std::fmt;
use xring_milp::SolveError;

/// Errors produced by the XRing synthesis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The network has fewer than 3 nodes; a ring needs at least 3.
    TooFewNodes {
        /// How many nodes were supplied.
        got: usize,
    },
    /// Two network nodes share the same position.
    DuplicateNodePositions {
        /// Indices of the colliding nodes.
        a: usize,
        /// Indices of the colliding nodes.
        b: usize,
    },
    /// An irregular floorplan asks for more nodes than its die has
    /// distinct 100 µm grid cells, so no placement exists.
    DieTooSmall {
        /// How many nodes were requested.
        nodes: usize,
        /// Distinct node sites on the die.
        cells: u64,
    },
    /// A [`Floorplan`](crate::Floorplan) with more than
    /// [`MAX_NODES`](crate::MAX_NODES) nodes, or any network with a
    /// coordinate beyond ±[`MAX_COORD_UM`](crate::MAX_COORD_UM).
    NetworkTooLarge {
        /// Which limit it exceeds.
        detail: String,
    },
    /// A name not in [`NAMED_FLOORPLANS`].
    UnknownNetwork {
        /// The name.
        name: String,
    },
    /// The ring-construction MILP failed.
    RingMilp(SolveError),
    /// A signal could not be mapped within the wavelength budget.
    WavelengthBudgetExceeded {
        /// The configured per-waveguide cap.
        max_wavelengths: usize,
        /// The configured cap on ring waveguides (0 = unlimited).
        max_waveguides: usize,
    },
    /// The synthesis wall-clock budget
    /// ([`SynthesisOptions::deadline`](crate::SynthesisOptions::deadline))
    /// expired before the pipeline completed. Checked cooperatively
    /// between pipeline steps and inside the ring-construction MILP.
    DeadlineExceeded,
    /// Ring construction broke down outside the MILP solver proper (the
    /// solution did not decode to one Hamiltonian cycle) — a structural failure
    /// that the degradation chain can recover from heuristically.
    RingConstruction {
        /// What broke.
        detail: String,
    },
    /// The post-synthesis auditor rejected the produced design. A design
    /// that fails its audit is never returned; under
    /// [`DegradationPolicy::Allow`](crate::DegradationPolicy::Allow) the
    /// chain falls back, otherwise this error surfaces.
    AuditFailed {
        /// The audit's failure summary.
        summary: String,
    },
    /// Spares were requested
    /// ([`SynthesisOptions::spares`](crate::SynthesisOptions::spares))
    /// but the exhaustive single-fault verification found a scenario the
    /// design does not survive. Non-degradable: falling back to a weaker
    /// ring algorithm cannot make an unsurvivable design survivable.
    SurvivabilityFailed {
        /// Scenarios that passed the post-failure audit.
        survived: usize,
        /// Scenarios enumerated.
        scenarios: usize,
        /// Description of the worst failing scenario.
        scenario: String,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::TooFewNodes { got } => {
                write!(f, "ring synthesis needs at least 3 nodes, got {got}")
            }
            SynthesisError::DuplicateNodePositions { a, b } => {
                write!(f, "nodes {a} and {b} share the same position")
            }
            SynthesisError::DieTooSmall { nodes, cells } => write!(
                f,
                "{nodes} nodes do not fit on the die's {cells} distinct 100 um sites"
            ),
            SynthesisError::NetworkTooLarge { detail } => write!(f, "{detail}"),
            SynthesisError::UnknownNetwork { name } => {
                let names: Vec<&str> = NAMED_FLOORPLANS.iter().map(|(n, _)| *n).collect();
                let (last, rest) = names.split_last().expect("named floorplans");
                let rest = rest.join(", ");
                write!(f, "unknown network \"{name}\" (expected {rest} or {last})")
            }
            SynthesisError::RingMilp(e) => write!(f, "ring-construction MILP failed: {e}"),
            SynthesisError::WavelengthBudgetExceeded {
                max_wavelengths,
                max_waveguides,
            } => write!(
                f,
                "signal mapping exceeded the budget of {max_wavelengths} wavelengths x {max_waveguides} waveguides"
            ),
            SynthesisError::DeadlineExceeded => {
                write!(f, "synthesis deadline expired before the pipeline completed")
            }
            SynthesisError::RingConstruction { detail } => {
                write!(f, "ring construction failed: {detail}")
            }
            SynthesisError::AuditFailed { summary } => {
                write!(f, "design audit failed: {summary}")
            }
            SynthesisError::SurvivabilityFailed {
                survived,
                scenarios,
                scenario,
            } => write!(
                f,
                "design is not single-fault survivable ({survived}/{scenarios} scenarios clean); worst: {scenario}"
            ),
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::RingMilp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for SynthesisError {
    fn from(e: SolveError) -> Self {
        match e {
            // A deadline interrupt inside the MILP is the pipeline's
            // deadline expiring, not a solver failure.
            SolveError::Interrupted { .. } => SynthesisError::DeadlineExceeded,
            e => SynthesisError::RingMilp(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        assert!(SynthesisError::TooFewNodes { got: 2 }
            .to_string()
            .contains("at least 3"));
        assert!(SynthesisError::DuplicateNodePositions { a: 1, b: 4 }
            .to_string()
            .contains("1"));
        let e = SynthesisError::DieTooSmall { nodes: 2, cells: 1 };
        assert!(e.to_string().contains("2 nodes"), "{e}");
        let e = SynthesisError::WavelengthBudgetExceeded {
            max_wavelengths: 4,
            max_waveguides: 2,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("2"));
    }

    #[test]
    fn robustness_errors_are_descriptive() {
        let e = SynthesisError::RingConstruction {
            detail: "zero cycles".to_owned(),
        };
        assert!(e.to_string().contains("zero cycles"));
        let e = SynthesisError::AuditFailed {
            summary: "ring-closed-cycle: edge 0 does not chain".to_owned(),
        };
        assert!(e.to_string().contains("audit"));
        assert!(e.to_string().contains("ring-closed-cycle"));
        let e = SynthesisError::SurvivabilityFailed {
            survived: 10,
            scenarios: 12,
            scenario: "segment-break(waveguide 0, edge 3)".to_owned(),
        };
        assert!(e.to_string().contains("10/12"));
        assert!(e.to_string().contains("segment-break"));
    }

    #[test]
    fn milp_errors_chain_as_source() {
        use std::error::Error as _;
        let e = SynthesisError::from(SolveError::Infeasible);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("MILP"));
    }

    #[test]
    fn interrupted_solves_map_to_deadline_exceeded() {
        let e = SynthesisError::from(SolveError::Interrupted { nodes: 3 });
        assert_eq!(e, SynthesisError::DeadlineExceeded);
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SynthesisError>();
    }
}
