//! Incremental re-synthesis: phase-keyed artifacts and clean-prefix
//! replay.
//!
//! The pipeline's phases (ring construction, shortcut planning, signal
//! mapping, ring opening, PDN design) form a linear DAG: each phase
//! consumes the spec, a subset of the options, and the outputs of the
//! phases before it. The first two are the expensive ones (Step 1 solves
//! the ring MILP, Step 2 plans shortcuts over every node pair) and the
//! ones an edit usually leaves clean: traffic edits, `#wl` sweeps and
//! `xring edit` change only the inputs of Steps 3 and 4. So only the ring
//! and shortcut phases persist artifacts; mapping, opening and PDN always
//! run, exactly as in a cold synthesis.
//!
//! Because every phase is deterministic, a persisted phase's output is
//! fully determined by a *content hash of its actual inputs* — the
//! [`PhaseKeys`] of a `(spec, options)` pair. An edited spec shares the
//! keys of every persisted phase whose inputs did not change, and those
//! phases are replayed from an [`ArtifactStore`].
//!
//! There is one step walk for both entry points.
//! [`Synthesizer::synthesize`] runs it with no store, so every phase
//! runs directly; [`Synthesizer::synthesize_incremental`] runs it with
//! the caller's store, so the ring and shortcut phases are replayed by
//! their keys when their artifacts are there and persisted back when
//! they are recomputed.
//!
//! A phase runs one way whether it is replayed or not: when the ring
//! phase is dirty (a node moved, the LP backend changed), the ring MILP
//! is solved cold, exactly as in [`Synthesizer::synthesize`]. Replayed
//! artifacts are the verbatim outputs of such runs, so an incremental
//! design is bit-identical to a cold synthesis of the same
//! `(spec, options)`.
//!
//! Every assembled design still passes the full post-synthesis audit. If
//! the audit rejects a design assembled from cached artifacts (e.g. a
//! corrupted cache entry), the artifacts involved are evicted and the
//! request falls back to a cold [`Synthesizer::synthesize`] run. Any
//! other failure continues the [`DegradationPolicy`] chain after its
//! exact step, as in a cold run.

use crate::design::XRingDesign;
use crate::error::SynthesisError;
use crate::netspec::NetworkSpec;
use crate::options::{KeyRole, OptionValue};
use crate::ring::RingOutcome;
use crate::shortcut::{Shortcut, ShortcutPlan};
use crate::synth::{Attempt, DegradationPolicy, SynthesisOptions, Synthesizer};
use std::collections::HashMap;
use std::sync::Mutex;

/// One artifact-producing phase of the synthesis pipeline, in DAG order.
/// Steps 3 and 4 produce no artifact: they always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseId {
    /// Step 1: ring waveguide construction (the MILP).
    Ring,
    /// Step 2: shortcut planning.
    Shortcut,
}

impl PhaseId {
    /// Every artifact-producing phase, in pipeline order.
    pub const ALL: [PhaseId; 2] = [PhaseId::Ring, PhaseId::Shortcut];

    /// Stable name, matching the obs span emitted when the phase is
    /// recomputed.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseId::Ring => "ring-milp",
            PhaseId::Shortcut => "shortcut",
        }
    }

    /// Obs counter bumped when this phase is replayed from the store.
    pub fn hit_counter(self) -> &'static str {
        match self {
            PhaseId::Ring => "incremental.hit.ring-milp",
            PhaseId::Shortcut => "incremental.hit.shortcut",
        }
    }

    /// Obs counter bumped when this phase must be recomputed.
    pub fn miss_counter(self) -> &'static str {
        match self {
            PhaseId::Ring => "incremental.miss.ring-milp",
            PhaseId::Shortcut => "incremental.miss.shortcut",
        }
    }
}

/// FNV-1a (64-bit): a stable content hash, identical across processes
/// and platforms (no `DefaultHasher` seeding). Keys phase artifacts and
/// fingerprints request specs and golden designs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The resolved phase keys of a `(spec, options)` pair.
///
/// Each key hashes exactly the inputs its phase reads — the option rows
/// whose [`KeyRole`] names the phase (see [`crate::options`]), plus the
/// floorplan for the ring — chained to the key of the phase before it, so
/// a dirty ring key dirties the shortcut key too. The inputs of Steps 3
/// and 4 and the non-semantic rows (the deadline, the thread count) key
/// no phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseKeys {
    /// Step 1 key: node positions + the ring rows.
    pub ring: u64,
    /// Step 2 key: ring key + the shortcut rows.
    pub shortcut: u64,
}

impl PhaseKeys {
    /// Computes both keys for `(net, options)`.
    pub fn compute(net: &NetworkSpec, o: &SynthesisOptions) -> PhaseKeys {
        let mut keys = [0u64; PhaseId::ALL.len()];
        let mut upstream = 0u64;
        for (key, phase) in keys.iter_mut().zip(PhaseId::ALL) {
            // Phase tag, upstream key, then the phase's own inputs.
            let mut bytes = vec![phase as u8];
            upstream.key_bytes(&mut bytes);
            if phase == PhaseId::Ring {
                net.key_bytes(&mut bytes);
            }
            o.encode_key(|role| role == KeyRole::Phase(phase), &mut bytes);
            *key = fnv1a64(&bytes);
            upstream = *key;
        }
        let [ring, shortcut] = keys;
        PhaseKeys { ring, shortcut }
    }

    /// The key of one phase.
    pub fn of(&self, phase: PhaseId) -> u64 {
        match phase {
            PhaseId::Ring => self.ring,
            PhaseId::Shortcut => self.shortcut,
        }
    }

    /// Phases whose keys differ between `self` and `other` — the dirty
    /// set a re-synthesis must recompute (a dirty ring dirties the
    /// shortcut phase too, by key chaining).
    pub fn dirty_against(&self, other: &PhaseKeys) -> Vec<PhaseId> {
        PhaseId::ALL
            .into_iter()
            .filter(|p| self.of(*p) != other.of(*p))
            .collect()
    }
}

/// One persisted phase output.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // heap payloads dominate (see approx_bytes); boxing would only hide the inline part
pub enum PhaseArtifact {
    /// Step 1: the realized ring and its construction statistics.
    Ring(RingOutcome),
    /// Step 2 (empty when Step 2 was disabled).
    Shortcut(ShortcutPlan),
}

impl PhaseArtifact {
    /// Approximate heap footprint, for byte-budgeted stores.
    pub fn approx_bytes(&self) -> usize {
        let base = std::mem::size_of::<Self>();
        base + match self {
            PhaseArtifact::Ring(ring) => {
                // order + position_of + one L-route per edge.
                ring.cycle.len() * 96
            }
            PhaseArtifact::Shortcut(plan) => plan.shortcuts.len() * std::mem::size_of::<Shortcut>(),
        }
    }
}

/// Persistence for phase artifacts, keyed by `(phase, content key)`.
///
/// Implementations must return exactly what was stored (or nothing):
/// [`Synthesizer::synthesize_incremental`] audits every assembled design
/// and falls back to a cold run when a store returns garbage, but a
/// well-behaved store keeps the fast path fast. All methods take `&self`;
/// implementations handle their own locking.
pub trait ArtifactStore {
    /// Looks up the artifact of `phase` with content key `key`.
    fn get_artifact(&self, phase: PhaseId, key: u64) -> Option<PhaseArtifact>;
    /// Persists an artifact (may overwrite an existing entry, may also
    /// decline to store — e.g. when over budget).
    fn put_artifact(&self, phase: PhaseId, key: u64, artifact: PhaseArtifact);
    /// Drops an artifact, if present (used when an assembled design
    /// fails its audit).
    fn evict_artifact(&self, phase: PhaseId, key: u64);
}

/// A plain in-memory [`ArtifactStore`] (unbounded; used by tests — the
/// engine's byte-budgeted cache is the production store).
#[derive(Debug, Default)]
pub struct MemoryArtifactStore {
    map: Mutex<HashMap<(PhaseId, u64), PhaseArtifact>>,
}

impl MemoryArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored artifacts.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ArtifactStore for MemoryArtifactStore {
    fn get_artifact(&self, phase: PhaseId, key: u64) -> Option<PhaseArtifact> {
        self.map
            .lock()
            .expect("store lock")
            .get(&(phase, key))
            .cloned()
    }

    fn put_artifact(&self, phase: PhaseId, key: u64, artifact: PhaseArtifact) {
        self.map
            .lock()
            .expect("store lock")
            .insert((phase, key), artifact);
    }

    fn evict_artifact(&self, phase: PhaseId, key: u64) {
        self.map.lock().expect("store lock").remove(&(phase, key));
    }
}

/// What an incremental run reused, recomputed and fell back on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalReport {
    /// Phases replayed verbatim from the store.
    pub hits: Vec<PhaseId>,
    /// Persisted phases recomputed (the dirty ones).
    pub misses: Vec<PhaseId>,
    /// Whether the request was finished without the store: an
    /// artifact-assembled design failed its audit and was re-run as a
    /// cold synthesis, or the fallback chain took over after a
    /// degradable failure.
    pub fell_back_cold: bool,
}

impl IncrementalReport {
    /// Number of phases served from the store (0–2).
    pub fn phases_reused(&self) -> usize {
        self.hits.len()
    }
}

/// The store side of the step walk ([`Synthesizer::synthesize_incremental`]):
/// where each phase is replayed from and persisted to, under which keys.
pub(crate) struct Replay<'a> {
    store: &'a dyn ArtifactStore,
    keys: PhaseKeys,
    report: &'a mut IncrementalReport,
}

/// Runs one phase of the step walk. With no `replay`, `compute` runs
/// directly. With one, the phase's artifact is replayed from the store
/// when it is there; otherwise `compute` runs and its result is
/// persisted for the next edit.
pub(crate) fn replay_phase<T: Clone>(
    replay: &mut Option<Replay<'_>>,
    phase: PhaseId,
    unwrap: fn(PhaseArtifact) -> Option<T>,
    wrap: fn(T) -> PhaseArtifact,
    compute: impl FnOnce() -> Result<T, SynthesisError>,
) -> Result<T, SynthesisError> {
    let Some(r) = replay else {
        return compute();
    };
    let key = r.keys.of(phase);
    if let Some(value) = r.store.get_artifact(phase, key).and_then(unwrap) {
        xring_obs::counter("incremental.phase_hits", 1);
        xring_obs::counter(phase.hit_counter(), 1);
        r.report.hits.push(phase);
        return Ok(value);
    }
    xring_obs::counter("incremental.phase_misses", 1);
    xring_obs::counter(phase.miss_counter(), 1);
    r.report.misses.push(phase);
    let value = compute()?;
    r.store.put_artifact(phase, key, wrap(value.clone()));
    Ok(value)
}

impl Synthesizer {
    /// Re-synthesizes `net`, replaying the ring and shortcut phases from
    /// `store` when their keys are clean. Mapping, opening and PDN always
    /// run.
    ///
    /// Phase keys are content hashes of each phase's actual inputs
    /// ([`PhaseKeys::compute`]); a phase whose key is present in `store`
    /// is replayed verbatim, which keeps the assembled design
    /// bit-identical to a cold run of the same `(net, options)`. Phases
    /// recomputed here run exactly as in a cold run (a dirty ring is
    /// solved cold) and persist their artifacts back into `store`.
    ///
    /// Every assembled design passes the same audit (and, with spares
    /// provisioned, the same survivability verification) as a cold run.
    /// If the audit rejects a design built from cached artifacts, the
    /// artifacts are evicted and the request falls back to a cold
    /// [`Synthesizer::synthesize`] (reported via
    /// [`IncrementalReport::fell_back_cold`]). Any other failure is the
    /// exact step of the [`DegradationPolicy`] chain, which continues
    /// from there exactly as in [`Synthesizer::synthesize`].
    ///
    /// # Errors
    ///
    /// Propagates [`SynthesisError`] exactly like [`Self::synthesize`]
    /// once the fallback (when taken) is exhausted.
    pub fn synthesize_incremental(
        &self,
        net: &NetworkSpec,
        store: &dyn ArtifactStore,
    ) -> Result<(XRingDesign, IncrementalReport), SynthesisError> {
        let mut report = IncrementalReport::default();
        // A forced-heuristic pipeline bypasses the artifact store
        // entirely: phase keys hash the *requested* options, so its
        // (heuristic) artifacts would collide with exact-keyed ones.
        if self.options().degradation == DegradationPolicy::ForceHeuristic {
            report.misses = PhaseId::ALL.to_vec();
            return self.synthesize(net).map(|d| (d, report));
        }
        let keys = PhaseKeys::compute(net, self.options());
        // A corrupt artifact can make assembly panic (e.g. a cached ring
        // realized on a different floorplan leaves the layout internally
        // inconsistent). Contain the panic and treat it as an audit
        // rejection so the cold fallback below still protects the caller.
        let exact = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let replay = Replay {
                store,
                keys,
                report: &mut report,
            };
            self.walk(net, &Attempt::requested(self), Some(replay))
        }))
        .unwrap_or_else(|_| {
            Err(SynthesisError::AuditFailed {
                summary: "incremental assembly panicked (corrupt artifact?)".to_owned(),
            })
        });
        let err = match exact {
            Ok(design) => return Ok((design, report)),
            Err(err) => err,
        };
        let cache_suspect =
            !report.hits.is_empty() && matches!(err, SynthesisError::AuditFailed { .. });
        // Whatever finishes the request from here runs without the store.
        report.fell_back_cold = true;
        report.hits.clear();
        report.misses = PhaseId::ALL.to_vec();
        let design = if cache_suspect {
            // A design assembled from cached artifacts that fails its
            // audit may be the cache's fault, not the spec's: evict the
            // artifacts involved and prove it with a cold run.
            for phase in PhaseId::ALL {
                store.evict_artifact(phase, keys.of(phase));
            }
            xring_obs::counter("incremental.fallbacks", 1);
            self.synthesize(net)
        } else {
            self.degrade(net, err)
        }?;
        Ok((design, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netspec::NodeId;
    use crate::options::design_key;
    use crate::ring::RingBuilder;
    use crate::traffic::Traffic;
    use xring_geom::Point;

    #[test]
    fn fnv_hash_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"spec"), fnv1a64(b"spec"));
    }

    fn opts() -> SynthesisOptions {
        SynthesisOptions::with_wavelengths(8)
    }

    #[test]
    fn phase_keys_are_deterministic() {
        let net = NetworkSpec::proton_8();
        assert_eq!(
            PhaseKeys::compute(&net, &opts()),
            PhaseKeys::compute(&net, &opts())
        );
    }

    #[test]
    fn node_move_dirties_every_phase() {
        let net = NetworkSpec::proton_8();
        let mut positions = net.positions().to_vec();
        positions[3] = Point::new(positions[3].x + 100, positions[3].y);
        let moved = NetworkSpec::new(positions).expect("valid");
        let a = PhaseKeys::compute(&net, &opts());
        let b = PhaseKeys::compute(&moved, &opts());
        assert_eq!(a.dirty_against(&b), PhaseId::ALL.to_vec());
    }

    #[test]
    fn traffic_edit_dirties_only_the_design_key() {
        let net = NetworkSpec::proton_8();
        let a = PhaseKeys::compute(&net, &opts());
        let edited = SynthesisOptions {
            traffic: Traffic::NearestNeighbors(3),
            ..opts()
        };
        let b = PhaseKeys::compute(&net, &edited);
        assert_eq!(a.dirty_against(&b), vec![]);
        assert_ne!(design_key(&net, &opts()), design_key(&net, &edited));
    }

    #[test]
    fn loss_edit_dirties_only_the_design_key() {
        let net = NetworkSpec::proton_8();
        let a = PhaseKeys::compute(&net, &opts());
        let mut o = opts();
        o.loss.crossing_db += 0.01;
        let b = PhaseKeys::compute(&net, &o);
        assert_eq!(a.dirty_against(&b), vec![]);
        assert_ne!(design_key(&net, &opts()), design_key(&net, &o));
    }

    #[test]
    fn solver_knob_edits_dirty_the_ring_but_threads_do_not() {
        let net = NetworkSpec::proton_8();
        let a = PhaseKeys::compute(&net, &opts());
        let b = PhaseKeys::compute(&net, &opts().with_pricing(crate::PricingKind::Devex));
        assert_eq!(a.dirty_against(&b), PhaseId::ALL.to_vec());
        let c = PhaseKeys::compute(
            &net,
            &opts().with_factorization(crate::FactorizationKind::DenseEta),
        );
        assert_eq!(a.dirty_against(&c), PhaseId::ALL.to_vec());
        // The parallel search is deterministic: thread count cannot
        // change the result, so it must not dirty any phase.
        let d = PhaseKeys::compute(&net, &opts().with_solver_threads(8));
        assert_eq!(a.dirty_against(&d), vec![]);
    }

    #[test]
    fn deadline_does_not_dirty_anything() {
        let net = NetworkSpec::proton_8();
        let a = PhaseKeys::compute(&net, &opts());
        let b = PhaseKeys::compute(
            &net,
            &opts().with_deadline(std::time::Duration::from_secs(5)),
        );
        assert_eq!(a.dirty_against(&b), vec![]);
    }

    #[test]
    fn incremental_cold_then_hot_reuses_every_phase() {
        let net = NetworkSpec::proton_8();
        let store = MemoryArtifactStore::new();
        let synth = Synthesizer::new(opts());
        let (cold, r0) = synth
            .synthesize_incremental(&net, &store)
            .expect("cold run");
        assert_eq!(r0.misses, PhaseId::ALL.to_vec());
        assert_eq!(store.len(), 2);
        let (hot, r1) = synth.synthesize_incremental(&net, &store).expect("hot run");
        assert_eq!(r1.hits, PhaseId::ALL.to_vec());
        assert!(r1.misses.is_empty());
        assert_eq!(cold.describe(), hot.describe());
    }

    #[test]
    fn incremental_matches_cold_synthesize_bit_for_bit() {
        let net = NetworkSpec::proton_8();
        let store = MemoryArtifactStore::new();
        let synth = Synthesizer::new(opts());
        let (incremental, _) = synth
            .synthesize_incremental(&net, &store)
            .expect("incremental");
        let cold = synth.synthesize(&net).expect("cold");
        assert_eq!(incremental.describe(), cold.describe());
        assert_eq!(incremental.cycle, cold.cycle);
        assert_eq!(incremental.plan, cold.plan);
        assert_eq!(incremental.pdn, cold.pdn);
    }

    #[test]
    fn demand_edit_replays_ring_and_shortcut() {
        let net = NetworkSpec::proton_8();
        let store = MemoryArtifactStore::new();
        let synth = Synthesizer::new(opts());
        synth
            .synthesize_incremental(&net, &store)
            .expect("seed run");
        let edited = Synthesizer::new(SynthesisOptions {
            traffic: Traffic::Custom(
                net.signal_pairs()
                    .into_iter()
                    .filter(|(a, b)| !(a.0 == 0 && b.0 == 1))
                    .collect(),
            ),
            ..opts()
        });
        let keys = PhaseKeys::compute(&net, edited.options());
        assert_eq!(
            keys.dirty_against(&PhaseKeys::compute(&net, &opts())),
            vec![]
        );
        assert_ne!(
            design_key(&net, &opts()),
            design_key(&net, edited.options())
        );
        let (design, report) = edited
            .synthesize_incremental(&net, &store)
            .expect("edited run");
        assert_eq!(report.hits, vec![PhaseId::Ring, PhaseId::Shortcut]);
        assert!(report.misses.is_empty());
        // The edited design matches a cold synthesis of the edited spec.
        let cold = edited.synthesize(&net).expect("cold");
        assert_eq!(design.describe(), cold.describe());
        assert_eq!(design.plan, cold.plan);
    }

    #[test]
    fn corrupt_ring_artifact_falls_back_to_cold_synthesis() {
        let net = NetworkSpec::proton_8();
        let store = MemoryArtifactStore::new();
        let synth = Synthesizer::new(opts());
        synth
            .synthesize_incremental(&net, &store)
            .expect("seed run");
        // Swap the ring artifact for one realized on a different network:
        // the assembled design cannot pass its audit.
        let other = NetworkSpec::irregular(8, 6_000, 99).expect("valid");
        let wrong = RingBuilder::new().build(&other).expect("ring");
        let keys = PhaseKeys::compute(&net, synth.options());
        store.put_artifact(PhaseId::Ring, keys.ring, PhaseArtifact::Ring(wrong));
        let (design, report) = synth
            .synthesize_incremental(&net, &store)
            .expect("fallback");
        assert!(report.fell_back_cold);
        assert!(design.provenance.audit.is_clean());
        let cold = synth.synthesize(&net).expect("cold");
        assert_eq!(design.describe(), cold.describe());
    }

    #[test]
    fn node_move_resolves_the_ring_cold_and_matches_cold_synthesis() {
        // proton_16's ring MILP solves LPs (its heuristic incumbent is
        // not accepted outright), so the moved run exercises the solver.
        let net = NetworkSpec::proton_16();
        let store = MemoryArtifactStore::new();
        let synth = Synthesizer::new(SynthesisOptions::with_wavelengths(14));
        let (seed, _) = synth
            .synthesize_incremental(&net, &store)
            .expect("seed run");
        assert!(seed.ring_stats.lp_solves > 0);
        let mut positions = net.positions().to_vec();
        positions[5] = Point::new(positions[5].x + 200, positions[5].y + 100);
        let moved = NetworkSpec::new(positions).expect("valid");
        let (design, report) = synth
            .synthesize_incremental(&moved, &store)
            .expect("moved run");
        assert_eq!(report.misses, PhaseId::ALL.to_vec());
        assert!(!report.fell_back_cold);
        let cold = synth.synthesize(&moved).expect("cold");
        assert_eq!(design.describe(), cold.describe());
        assert_eq!(design.plan, cold.plan);
    }

    #[test]
    fn memory_store_round_trips_artifacts() {
        let store = MemoryArtifactStore::new();
        assert!(store.is_empty());
        store.put_artifact(
            PhaseId::Shortcut,
            7,
            PhaseArtifact::Shortcut(ShortcutPlan::empty()),
        );
        assert_eq!(store.len(), 1);
        assert!(matches!(
            store.get_artifact(PhaseId::Shortcut, 7),
            Some(PhaseArtifact::Shortcut(_))
        ));
        assert!(store.get_artifact(PhaseId::Ring, 7).is_none());
        store.evict_artifact(PhaseId::Shortcut, 7);
        assert!(store.is_empty());
    }

    #[test]
    fn artifact_bytes_scale_with_contents() {
        let net = NetworkSpec::psion_16();
        let store = MemoryArtifactStore::new();
        Synthesizer::new(SynthesisOptions::with_wavelengths(14))
            .synthesize_incremental(&net, &store)
            .expect("run");
        let keys = PhaseKeys::compute(&net, &SynthesisOptions::with_wavelengths(14));
        for phase in PhaseId::ALL {
            let artifact = store
                .get_artifact(phase, keys.of(phase))
                .expect("artifact stored");
            assert!(
                artifact.approx_bytes() >= std::mem::size_of::<PhaseArtifact>(),
                "{phase:?} bytes too small"
            );
        }
    }

    #[test]
    fn custom_traffic_key_covers_pair_identity() {
        let net = NetworkSpec::proton_8();
        let t1 = SynthesisOptions {
            traffic: Traffic::Custom(vec![(NodeId(0), NodeId(1))]),
            ..opts()
        };
        let t2 = SynthesisOptions {
            traffic: Traffic::Custom(vec![(NodeId(0), NodeId(2))]),
            ..opts()
        };
        assert_ne!(design_key(&net, &t1), design_key(&net, &t2));
    }
}
