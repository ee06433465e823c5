//! The end-to-end synthesis pipeline.

use crate::design::{realize, DegradationLevel, Provenance, RingSpacing, XRingDesign};
use crate::error::SynthesisError;
use crate::fault::SpareConfig;
use crate::incremental::{replay_phase, PhaseArtifact, PhaseId, Replay};
use crate::netspec::NetworkSpec;
use crate::opening::{open_rings, OpeningStats};
use crate::options::{option_table, positive, Flag, DESIGN, NON_SEMANTIC, RING, SHORTCUT};
use crate::pdn::design_pdn;
use crate::ring::{RingAlgorithm, RingBuilder};
use crate::shortcut::{plan_shortcuts, ShortcutPlan};
use crate::traffic::Traffic;
use std::time::{Duration, Instant};
use xring_geom::Point;
use xring_milp::{FactorizationKind, LpBackendKind, PricingKind};
use xring_phot::LossParams;

/// Seed of the deterministic objective perturbation used by the
/// degradation chain's retry step (see
/// [`RingBuilder::with_objective_perturbation`]).
const RETRY_PERTURBATION_SEED: u64 = 0x5EED_0FFA_11BA_CC01;

/// Whether [`Synthesizer::synthesize`] may fall back when exact synthesis
/// fails. The fallback chain is
/// `ExactMilp → RetryWithPerturbation → HeuristicRing → Err`, and every
/// produced design records the level reached in its
/// [`Provenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Never degrade: any failure surfaces as its [`SynthesisError`]
    /// (the default — existing callers see unchanged behaviour).
    #[default]
    Forbid,
    /// Walk the fallback chain on recoverable failures (MILP failure,
    /// deadline expiry, ring-construction breakdown, audit rejection).
    /// Non-recoverable failures (invalid network, wavelength budget
    /// exhaustion) still surface immediately.
    Allow,
    /// Skip the MILP entirely and build the ring heuristically; the
    /// design always records [`DegradationLevel::Heuristic`].
    ForceHeuristic,
}

impl DegradationPolicy {
    /// Every policy, in declaration order.
    pub const ALL: [DegradationPolicy; 3] = [
        DegradationPolicy::Forbid,
        DegradationPolicy::Allow,
        DegradationPolicy::ForceHeuristic,
    ];

    /// Stable lowercase name (the CLI flag spelling).
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationPolicy::Forbid => "forbid",
            DegradationPolicy::Allow => "allow",
            DegradationPolicy::ForceHeuristic => "force-heuristic",
        }
    }
}

impl std::str::FromStr for DegradationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "forbid" => Ok(DegradationPolicy::Forbid),
            "allow" => Ok(DegradationPolicy::Allow),
            "force-heuristic" => Ok(DegradationPolicy::ForceHeuristic),
            other => Err(format!(
                "unknown degradation policy '{other}' (expected forbid, allow or force-heuristic)"
            )),
        }
    }
}

option_table! {
    /// Configuration of the synthesis pipeline. The defaults reproduce the
    /// full XRing flow; individual steps can be disabled for ablations.
    ///
    /// Each field is one row of this table: type and default, key role,
    /// JSON field, builder, and command-line flag with its help (see
    /// [`crate::options`]).
    pub struct SynthesisOptions {
        /// Step-1 algorithm.
        ring_algorithm: RingAlgorithm = RingAlgorithm::Milp, role RING, json "ring_algorithm",
            cli Flag::Value("--ring") => "ring construction algorithm";
        /// `#wl`: maximum wavelengths per ring waveguide.
        max_wavelengths: usize = 16, parse positive, role DESIGN, json "max_wavelengths",
            cli Flag::Value("--wl") => "maximum wavelengths per ring waveguide (#wl)";
        /// Maximum ring waveguides (0 = unlimited).
        max_waveguides: usize = 0, role DESIGN, json "max_waveguides";
        /// Enable Step 2 (shortcut construction).
        shortcuts: bool = true, role SHORTCUT, json "shortcuts",
            cli Flag::Disable("--no-shortcuts") => "skip Step 2 (shortcut construction)";
        /// Enable ring openings (second half of Step 3).
        openings: bool = true, role DESIGN, json "openings",
            cli Flag::Disable("--no-openings") => "skip the ring openings of Step 3";
        /// Enable Step 4 (PDN synthesis); when false, reports omit laser
        /// power, matching Table I's no-PDN comparison.
        pdn: bool = true, role DESIGN, json "pdn",
            cli Flag::Disable("--no-pdn") => "skip Step 4 (PDN; reports omit laser power)";
        /// Ring-pair spacing constants.
        spacing: RingSpacing = RingSpacing::default(), role DESIGN;
        /// On-die coupling point of the off-chip laser.
        laser: Point = Point::new(-1_000, -1_000), role DESIGN;
        /// Which node pairs communicate (default: the paper's all-to-all).
        traffic: Traffic = Traffic::AllToAll, role DESIGN, json "traffic";
        /// Loss parameters (used during PDN design; evaluation may use the
        /// same or another set).
        loss: LossParams = LossParams::default(), role DESIGN;
        /// Wall-clock budget for the whole pipeline (`None` = unbounded).
        /// Checked cooperatively between steps and, most importantly, once
        /// per node inside the ring-construction branch-and-bound and every
        /// 32 simplex iterations inside its LP solves; expiry
        /// aborts with [`SynthesisError::DeadlineExceeded`]. The budget does
        /// not change the result of a synthesis that completes within it.
        deadline: Option<Duration> = None, role NON_SEMANTIC, json "deadline_ms";
        /// Whether failures may degrade to the fallback chain (default:
        /// [`DegradationPolicy::Forbid`]). The heuristic recovery step runs
        /// with the deadline waived — the budget is already spent and the
        /// heuristic is fast and bounded.
        degradation: DegradationPolicy = DegradationPolicy::Forbid, role DESIGN,
            json "degradation", with with_degradation, cli Flag::Value("--degradation") =>
            "on failure: fail (forbid); retry with a perturbed\n\
             objective, then fall back to the heuristic ring\n\
             (allow); or skip the MILP (force-heuristic)";
        /// LP backend for the ring MILP's relaxations (default: the revised
        /// simplex with warm starts; [`LpBackendKind::Dense`] is the
        /// reference tableau). The degradation chain's perturbed retry
        /// also switches to the dense backend, so a numerical failure in
        /// one LP kernel is never retried on the same kernel.
        lp_backend: LpBackendKind = LpBackendKind::Revised, role RING, json "lp_backend",
            with with_lp_backend, cli Flag::Value("--lp-backend") => "LP kernel of the ring MILP";
        /// Worker threads for the ring MILP's per-round node-batch LP
        /// solves (default 1). The search is deterministic: every setting
        /// produces the same design, objective, and progress stream — only
        /// wall-clock time changes.
        solver_threads: usize = 1, parse positive, role NON_SEMANTIC, json "solver_threads",
            with with_solver_threads, cli Flag::Value("--solver-threads") =>
            "branch-and-bound worker threads; any count\nyields the same design";
        /// Pricing rule for the revised simplex's primal phases (default
        /// Dantzig). Ignored by the dense reference backend.
        pricing: PricingKind = PricingKind::Dantzig, role RING, json "pricing", with with_pricing,
            cli Flag::Value("--pricing") => "pricing rule of the revised simplex";
        /// Basis factorization for the revised simplex (default sparse LU
        /// with bounded eta updates). Ignored by the dense backend.
        factorization: FactorizationKind = FactorizationKind::SparseLu, role RING,
            json "factorization", with with_factorization,
            cli Flag::Value("--factorization") => "basis factorization of the revised simplex";
        /// Spare resources for single-device-fault survivability (default:
        /// none). With `k_wavelengths > 0`, signal mapping is confined to
        /// `max_wavelengths - k_wavelengths` channels so the top `k` stay
        /// dark for repairs; with any spare provisioned, synthesis
        /// exhaustively verifies every single-fault scenario through the
        /// post-failure auditor and fails with
        /// [`SynthesisError::SurvivabilityFailed`] rather than return an
        /// unsurvivable design (see [`crate::fault`]).
        spares: SpareConfig = SpareConfig::default(), role DESIGN, json "spares",
            with with_spares, cli Flag::Value("--spares") =>
            "spare wavelength channels and MRRs per route;\n\
             synthesis then proves every single device fault\nsurvivable";
    }
}

impl SynthesisOptions {
    /// The full XRing pipeline with `#wl = max_wavelengths`.
    pub fn with_wavelengths(max_wavelengths: usize) -> Self {
        SynthesisOptions {
            max_wavelengths,
            ..Self::default()
        }
    }

    /// Table-I style options: no PDN (and hence no power column).
    pub fn without_pdn(mut self) -> Self {
        self.pdn = false;
        self
    }

    /// Caps the pipeline's wall-clock time (see
    /// [`deadline`](Self::deadline)).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// The XRing synthesizer.
///
/// # Example
///
/// ```
/// use xring_core::{NetworkSpec, Synthesizer, SynthesisOptions};
///
/// let net = NetworkSpec::proton_8();
/// let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
///     .synthesize(&net)?;
/// assert_eq!(design.layout.signals.len(), 56);
/// # Ok::<(), xring_core::SynthesisError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    options: SynthesisOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with the given options.
    pub fn new(options: SynthesisOptions) -> Self {
        Synthesizer { options }
    }

    /// The configured options.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Runs the full pipeline on `net`.
    ///
    /// Under the default [`DegradationPolicy::Forbid`] a failure in any
    /// step surfaces directly. Under [`DegradationPolicy::Allow`] a
    /// recoverable failure walks the fallback chain
    /// `ExactMilp → RetryWithPerturbation → HeuristicRing → Err`; the
    /// level reached is recorded in the design's
    /// [`Provenance`]. Every returned design
    /// — exact or degraded — has passed the post-synthesis audit
    /// ([`crate::audit`]); a design the auditor rejects is never
    /// returned.
    ///
    /// # Errors
    ///
    /// Propagates [`SynthesisError`] from any step (MILP failure,
    /// wavelength budget exhaustion, audit rejection) once the policy's
    /// chain is exhausted.
    pub fn synthesize(&self, net: &NetworkSpec) -> Result<XRingDesign, SynthesisError> {
        if self.options.degradation == DegradationPolicy::ForceHeuristic {
            let reason = "forced by degradation policy".to_owned();
            let forced = Attempt {
                waive_deadline: false,
                ..Attempt::heuristic(self, reason)
            };
            return self.walk(net, &forced, None);
        }
        self.walk(net, &Attempt::requested(self), None)
            .or_else(|err| self.degrade(net, err))
    }

    /// Continues the fallback chain after its exact step failed with
    /// `err`: under [`DegradationPolicy::Allow`] a degradable failure
    /// retries the MILP with a perturbed objective (unless the deadline
    /// is spent or the request never used the MILP), then builds the
    /// heuristic ring; otherwise `err` surfaces.
    pub(crate) fn degrade(
        &self,
        net: &NetworkSpec,
        err: SynthesisError,
    ) -> Result<XRingDesign, SynthesisError> {
        if self.options.degradation != DegradationPolicy::Allow || !degradable(&err) {
            return Err(err);
        }
        if !matches!(err, SynthesisError::DeadlineExceeded)
            && self.options.ring_algorithm == RingAlgorithm::Milp
        {
            xring_obs::counter("degradation.retries", 1);
            // The retry switches both the search path (perturbed
            // objective) and the LP kernel (dense reference backend): a
            // numerical failure is never replayed on the kernel that
            // produced it.
            let retry = Attempt {
                algorithm: RingAlgorithm::Milp,
                perturbation: Some(RETRY_PERTURBATION_SEED),
                lp_backend: LpBackendKind::Dense,
                waive_deadline: false,
                level: DegradationLevel::RetriedPerturbed,
                reason: Some(err.to_string()),
            };
            if let Ok(design) = self.walk(net, &retry, None) {
                return Ok(design);
            }
        }
        // Last resort: heuristic ring, deadline waived (the budget is
        // spent; the heuristic is fast and bounded).
        xring_obs::counter("degradation.heuristic_fallbacks", 1);
        self.walk(net, &Attempt::heuristic(self, err.to_string()), None)
    }

    /// The pipeline's one step walk: runs the four steps once under
    /// `attempt`'s overrides, audits the result and stamps its
    /// provenance. A design that fails its audit is discarded and
    /// reported as [`SynthesisError::AuditFailed`].
    ///
    /// With no `replay` every phase runs directly: a cold synthesis.
    /// With one, the ring and shortcut phases are replayed from its
    /// store by their keys when their artifacts are there, and persisted
    /// back when they are recomputed (see [`crate::incremental`]).
    /// Mapping, openings and PDN always run.
    pub(crate) fn walk(
        &self,
        net: &NetworkSpec,
        attempt: &Attempt,
        mut replay: Option<Replay<'_>>,
    ) -> Result<XRingDesign, SynthesisError> {
        let incremental = replay.is_some();
        let _span = if incremental {
            xring_obs::span("synth-incremental")
        } else {
            xring_obs::span_labelled("synth", attempt.level.as_str())
        };
        let t0 = Instant::now();
        let o = &self.options;
        let deadline = if attempt.waive_deadline {
            None
        } else {
            o.deadline.map(|budget| t0 + budget)
        };
        let check_deadline = || match deadline {
            Some(d) if Instant::now() >= d => Err(SynthesisError::DeadlineExceeded),
            _ => Ok(()),
        };

        // Step 1: ring construction.
        check_deadline()?;
        let ring = replay_phase(
            &mut replay,
            PhaseId::Ring,
            |a| match a {
                PhaseArtifact::Ring(ring) => Some(ring),
                _ => None,
            },
            PhaseArtifact::Ring,
            || {
                let _s = xring_obs::span("ring-milp");
                RingBuilder::new()
                    .with_algorithm(attempt.algorithm)
                    .with_deadline(deadline)
                    .with_objective_perturbation(attempt.perturbation)
                    .with_lp_backend(attempt.lp_backend)
                    .with_solver_threads(o.solver_threads)
                    .with_pricing(o.pricing)
                    .with_factorization(o.factorization)
                    .build(net)
            },
        )?;

        // Steps 2–4 are timed from here; the ring brings its own time.
        let steps = Instant::now();

        // Step 2: shortcuts.
        check_deadline()?;
        let shortcuts = replay_phase(
            &mut replay,
            PhaseId::Shortcut,
            |a| match a {
                PhaseArtifact::Shortcut(plan) => Some(plan),
                _ => None,
            },
            PhaseArtifact::Shortcut,
            || {
                Ok(if o.shortcuts {
                    let _s = xring_obs::span("shortcut");
                    plan_shortcuts(net, &ring.cycle)
                } else {
                    ShortcutPlan::empty()
                })
            },
        )?;

        // Step 3a: mapping. Spare wavelengths are reserved by mapping
        // into a reduced budget: the top `k_wavelengths` channels stay
        // dark until a fault repair claims them.
        check_deadline()?;
        let effective_wavelengths = o.max_wavelengths.saturating_sub(o.spares.k_wavelengths);
        if o.spares.k_wavelengths > 0 && effective_wavelengths == 0 {
            return Err(SynthesisError::WavelengthBudgetExceeded {
                max_wavelengths: o.max_wavelengths,
                max_waveguides: o.max_waveguides,
            });
        }
        let mut plan = {
            let _s = xring_obs::span("mapping");
            crate::mapping::map_signals_with_traffic(
                net,
                &ring.cycle,
                &shortcuts,
                &o.traffic,
                effective_wavelengths,
                o.max_waveguides,
            )?
        };

        // Step 3b: openings.
        check_deadline()?;
        let opening_stats = if o.openings {
            let _s = xring_obs::span("opening");
            open_rings(&ring.cycle, &mut plan, effective_wavelengths)
        } else {
            OpeningStats::default()
        };

        // Step 4: PDN.
        check_deadline()?;
        let pdn = o.pdn.then(|| {
            let _s = xring_obs::span("pdn");
            design_pdn(net, &ring.cycle, &plan, &shortcuts, &o.loss, o.laser)
        });

        let layout = {
            let _s = xring_obs::span("realize");
            realize(net, &ring.cycle, &shortcuts, &plan, pdn.as_ref(), o.spacing)
        };
        let design = XRingDesign {
            net: net.clone(),
            cycle: ring.cycle,
            shortcuts,
            plan,
            pdn,
            layout,
            ring_stats: ring.stats,
            opening_stats,
            elapsed: ring.elapsed + steps.elapsed(),
            provenance: Provenance::default(),
        };

        let wall_hist = if incremental {
            "synth.incremental.wall_us"
        } else {
            "synth.wall_us"
        };
        xring_obs::record_hist(wall_hist, t0.elapsed().as_micros() as u64);

        self.release(design, attempt.level, attempt.reason.clone())
    }

    /// Audits `design` and, with spares provisioned, proves it survives
    /// every single device fault the spares protect against; only then
    /// stamps its provenance and releases it. A dirty design is never
    /// returned.
    pub(crate) fn release(
        &self,
        mut design: XRingDesign,
        degradation: DegradationLevel,
        fallback_reason: Option<String>,
    ) -> Result<XRingDesign, SynthesisError> {
        let o = &self.options;
        let audit = crate::audit::audit_design(&design, &o.traffic, &o.loss);
        if !audit.is_clean() {
            return Err(SynthesisError::AuditFailed {
                summary: audit.summary(),
            });
        }
        if o.spares.any() {
            let _s = xring_obs::span("survivability-verify");
            let protected = crate::fault::protected_single_faults(&design, o.spares);
            let surv = crate::fault::verify_faults(&design, &protected, o, None);
            if !surv.fully_survivable() {
                return Err(SynthesisError::SurvivabilityFailed {
                    survived: surv.survived,
                    scenarios: surv.scenarios,
                    scenario: surv
                        .worst
                        .unwrap_or_else(|| "unidentified scenario".to_owned()),
                });
            }
        }
        design.provenance = Provenance {
            degradation,
            fallback_reason,
            audit,
        };
        Ok(design)
    }
}

/// One run of the pipeline within the fallback chain.
pub(crate) struct Attempt {
    algorithm: RingAlgorithm,
    perturbation: Option<u64>,
    lp_backend: LpBackendKind,
    waive_deadline: bool,
    level: DegradationLevel,
    reason: Option<String>,
}

impl Attempt {
    /// The as-requested attempt (no overrides): the chain's exact step.
    pub(crate) fn requested(synth: &Synthesizer) -> Attempt {
        Attempt {
            algorithm: synth.options.ring_algorithm,
            perturbation: None,
            lp_backend: synth.options.lp_backend,
            waive_deadline: false,
            level: DegradationLevel::Exact,
            reason: None,
        }
    }

    /// The heuristic-ring step, deadline waived, recording `reason`.
    fn heuristic(synth: &Synthesizer, reason: String) -> Attempt {
        Attempt {
            algorithm: RingAlgorithm::Heuristic,
            waive_deadline: true,
            level: DegradationLevel::Heuristic,
            reason: Some(reason),
            ..Attempt::requested(synth)
        }
    }
}

/// True when the fallback chain can recover from `e`: solver failures,
/// deadline expiry, construction breakdown and audit rejection are
/// recoverable; spec-level errors (too few nodes, duplicate positions,
/// wavelength budget exhaustion) are not — a different ring cannot fix
/// them honestly.
fn degradable(e: &SynthesisError) -> bool {
    matches!(
        e,
        SynthesisError::RingMilp(_)
            | SynthesisError::DeadlineExceeded
            | SynthesisError::RingConstruction { .. }
            | SynthesisError::AuditFailed { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_phot::{CrosstalkParams, PowerParams};

    #[test]
    fn full_pipeline_8_nodes() {
        let net = NetworkSpec::proton_8();
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&net)
            .expect("synthesized");
        let report = design.report(
            "XRing",
            &LossParams::default(),
            Some(&CrosstalkParams::default()),
            &PowerParams::default(),
        );
        assert_eq!(report.signal_count, 56);
        assert!(report.worst_il_db > 0.0);
        assert!(report.total_power_w.expect("pdn modelled") > 0.0);
    }

    #[test]
    fn no_pdn_mode_omits_power() {
        let net = NetworkSpec::proton_8();
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8).without_pdn())
            .synthesize(&net)
            .expect("synthesized");
        let report = design.report(
            "XRing",
            &LossParams::default(),
            None,
            &PowerParams::default(),
        );
        assert_eq!(report.total_power_w, None);
    }

    #[test]
    fn shortcut_ablation_increases_worst_il_on_16_nodes() {
        // "Shortcuts do not hurt worst IL" is a property of the
        // particular minimum-length tour the MILP returns, and psion_16
        // has several (the backends tie-break differently among equal
        // 32000-µm optima). Pin the dense reference backend so the
        // ablation compares the tour this test has always measured;
        // cross-backend objective equality is covered by the
        // lp_backend differential suite.
        let net = NetworkSpec::psion_16();
        let base = SynthesisOptions::with_wavelengths(14).with_lp_backend(LpBackendKind::Dense);
        let with = Synthesizer::new(base.clone())
            .synthesize(&net)
            .expect("with shortcuts");
        let without = Synthesizer::new(SynthesisOptions {
            shortcuts: false,
            ..base
        })
        .synthesize(&net)
        .expect("without shortcuts");
        let loss = LossParams::default();
        let p = PowerParams::default();
        let r_with = with.report("with", &loss, None, &p);
        let r_without = without.report("without", &loss, None, &p);
        assert!(
            r_with.worst_il_db <= r_without.worst_il_db + 1e-9,
            "shortcuts should not hurt: {} vs {}",
            r_with.worst_il_db,
            r_without.worst_il_db
        );
    }

    #[test]
    fn expired_deadline_aborts_synthesis() {
        let net = NetworkSpec::proton_8();
        let options = SynthesisOptions::with_wavelengths(8).with_deadline(Duration::ZERO);
        match Synthesizer::new(options).synthesize(&net) {
            Err(SynthesisError::DeadlineExceeded) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn exact_synthesis_records_clean_exact_provenance() {
        let net = NetworkSpec::proton_8();
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&net)
            .expect("synthesized");
        let p = &design.provenance;
        assert_eq!(p.degradation, crate::design::DegradationLevel::Exact);
        assert_eq!(p.fallback_reason, None);
        assert!(p.audit.is_clean(), "{}", p.audit.summary());
    }

    #[test]
    fn tiny_deadline_with_allow_policy_falls_back_to_heuristic() {
        // Satellite requirement: DeadlineExceeded triggers the heuristic
        // fallback and yields an audited, provenance-marked design.
        let net = NetworkSpec::proton_8();
        let options = SynthesisOptions::with_wavelengths(8)
            .with_deadline(Duration::ZERO)
            .with_degradation(DegradationPolicy::Allow);
        let design = Synthesizer::new(options)
            .synthesize(&net)
            .expect("fallback must produce a design");
        let p = &design.provenance;
        assert_eq!(p.degradation, crate::design::DegradationLevel::Heuristic);
        assert!(
            p.fallback_reason
                .as_deref()
                .unwrap_or("")
                .contains("deadline"),
            "{:?}",
            p.fallback_reason
        );
        assert!(p.audit.is_clean(), "{}", p.audit.summary());
        assert_eq!(design.layout.signals.len(), 56);
    }

    #[test]
    fn force_heuristic_policy_always_marks_heuristic_provenance() {
        let net = NetworkSpec::proton_8();
        let options = SynthesisOptions::with_wavelengths(8)
            .with_degradation(DegradationPolicy::ForceHeuristic);
        let design = Synthesizer::new(options).synthesize(&net).expect("ok");
        let p = &design.provenance;
        assert_eq!(p.degradation, crate::design::DegradationLevel::Heuristic);
        assert!(p.audit.is_clean());
        // Forcing the heuristic must match a direct heuristic-ring run.
        let direct = Synthesizer::new(SynthesisOptions {
            ring_algorithm: RingAlgorithm::Heuristic,
            ..SynthesisOptions::with_wavelengths(8)
        })
        .synthesize(&net)
        .expect("ok");
        assert_eq!(design.cycle, direct.cycle);
    }

    #[test]
    fn allow_policy_does_not_change_successful_exact_synthesis() {
        let net = NetworkSpec::proton_8();
        let exact = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&net)
            .expect("ok");
        let allowed = Synthesizer::new(
            SynthesisOptions::with_wavelengths(8).with_degradation(DegradationPolicy::Allow),
        )
        .synthesize(&net)
        .expect("ok");
        assert_eq!(exact.cycle, allowed.cycle);
        assert_eq!(exact.plan, allowed.plan);
        assert_eq!(
            allowed.provenance.degradation,
            crate::design::DegradationLevel::Exact
        );
    }

    #[test]
    fn non_degradable_errors_surface_even_under_allow() {
        // Wavelength budget exhaustion is a spec-level error the chain
        // must not mask with a heuristic ring.
        let net = NetworkSpec::psion_16();
        let options = SynthesisOptions {
            max_wavelengths: 1,
            max_waveguides: 1,
            ..SynthesisOptions::default()
        }
        .with_degradation(DegradationPolicy::Allow);
        match Synthesizer::new(options).synthesize(&net) {
            Err(SynthesisError::WavelengthBudgetExceeded { .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn degradation_policy_round_trips_through_strings() {
        for policy in [
            DegradationPolicy::Forbid,
            DegradationPolicy::Allow,
            DegradationPolicy::ForceHeuristic,
        ] {
            assert_eq!(policy.as_str().parse::<DegradationPolicy>(), Ok(policy));
        }
        assert!("exact".parse::<DegradationPolicy>().is_err());
    }

    #[test]
    fn lp_backend_defaults_to_revised_and_round_trips() {
        assert_eq!(
            SynthesisOptions::default().lp_backend,
            LpBackendKind::Revised
        );
        for kind in [LpBackendKind::Dense, LpBackendKind::Revised] {
            assert_eq!(kind.as_str().parse::<LpBackendKind>(), Ok(kind));
        }
        assert!("tableau".parse::<LpBackendKind>().is_err());
    }

    #[test]
    fn lp_backends_synthesize_identical_designs() {
        // The backend is an implementation detail of the relaxation
        // solver: both must produce the same ring and mapping.
        let net = NetworkSpec::proton_8();
        let revised = Synthesizer::new(
            SynthesisOptions::with_wavelengths(8).with_lp_backend(LpBackendKind::Revised),
        )
        .synthesize(&net)
        .expect("ok");
        let dense = Synthesizer::new(
            SynthesisOptions::with_wavelengths(8).with_lp_backend(LpBackendKind::Dense),
        )
        .synthesize(&net)
        .expect("ok");
        assert_eq!(revised.cycle, dense.cycle);
        assert_eq!(revised.plan, dense.plan);
    }

    #[test]
    fn generous_deadline_matches_unbounded_result() {
        let net = NetworkSpec::proton_8();
        let bounded = Synthesizer::new(
            SynthesisOptions::with_wavelengths(8).with_deadline(Duration::from_secs(3_600)),
        )
        .synthesize(&net)
        .expect("completes within budget");
        let unbounded = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&net)
            .expect("completes");
        assert_eq!(bounded.cycle, unbounded.cycle);
        assert_eq!(bounded.plan, unbounded.plan);
    }

    #[test]
    fn openings_reduce_noisy_signals() {
        let net = NetworkSpec::psion_16();
        let base = SynthesisOptions::with_wavelengths(14);
        let with = Synthesizer::new(base.clone()).synthesize(&net).expect("ok");
        let without = Synthesizer::new(SynthesisOptions {
            openings: false,
            ..base
        })
        .synthesize(&net)
        .expect("ok");
        let loss = LossParams::default();
        let xt = CrosstalkParams::default();
        let p = PowerParams::default();
        let r_with = with.report("with", &loss, Some(&xt), &p);
        let r_without = without.report("without", &loss, Some(&xt), &p);
        assert!(
            r_with.noisy_signal_count.expect("evaluated")
                <= r_without.noisy_signal_count.expect("evaluated")
        );
    }
}
