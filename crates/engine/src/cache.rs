//! Content-addressed design cache.
//!
//! Two jobs produce the same design and report whenever their network,
//! synthesis options and evaluation parameters agree — synthesis is
//! deterministic. The cache keys on an exact byte encoding of those
//! inputs (no hashing, so no collision risk), produced by the option
//! table's key encoder ([`design_key`], see [`xring_core::options`])
//! plus the job's evaluation parameters. Excluded are:
//!
//! * the job **label** — it only decorates the report, so hits are
//!   relabelled on the way out;
//! * the option table's **non-semantic** rows, the deadline and the
//!   solver thread count. Neither alters a synthesis that completes
//!   exactly: the parallel search is deterministic, and a deadline is a
//!   hard stop. A job whose key is already cached therefore succeeds
//!   even with an expired deadline, because the budget caps synthesis
//!   work and a hit costs none.
//!
//! Because the deadline is not in the key, a design the deadline *did*
//! shape — degraded because the budget expired
//! ([`Provenance::degraded_by_deadline`](xring_core::Provenance::degraded_by_deadline))
//! — is never cached: the same inputs without the deadline would
//! synthesize exactly.
//!
//! # Memory bound
//!
//! By default the cache grows without bound — the historical behaviour,
//! right for one-shot batches whose working set is the job list itself.
//! Long-running consumers (the `xring-serve` daemon, parameter sweeps
//! that never repeat a point) construct it with
//! [`DesignCache::with_byte_budget`]: every entry is charged an
//! estimated deep size ([`approx_entry_bytes`]) and the least recently
//! *used* entries are evicted until the total fits the budget again.
//! Recency is bumped on hits, so a hot design survives a scan of cold
//! ones. Evictions are observable through
//! [`CacheCounter::LruEvictions`] / [`CacheCounter::EvictBytes`] and the
//! `cache.evict_bytes` counter.

//! # Phase artifacts
//!
//! Besides whole designs, the cache doubles as the engine's
//! [`ArtifactStore`]: each pipeline phase's output (ring, shortcuts,
//! mapping, opening, PDN) is stored under an `(phase, content key)`
//! address derived from [`PhaseKeys`](xring_core::PhaseKeys). Artifacts
//! share the byte budget and the recency queue with whole designs, so a
//! hot edit loop keeps its phase prefix resident while cold designs age
//! out. Unlike whole-design inserts (which keep the first entry so
//! shared `Arc`s stay canonical), artifact puts *overwrite*: the
//! replaced entry's bytes are released and its recency-queue pairs are
//! deduped on the spot, so byte accounting stays exact across
//! overwrites.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use xring_core::{design_key, ArtifactStore, OptionValue, PhaseArtifact, PhaseId, XRingDesign};
use xring_obs::{CounterRow, Counters, Series};
use xring_phot::RouterReport;

use crate::job::SynthesisJob;

/// The canonical cache key of a job: the exact key of its synthesis
/// inputs ([`design_key`]) followed by its evaluation parameters. Equal
/// keys imply equal designs and (label aside) equal reports.
pub fn canonical_key(job: &SynthesisJob) -> Vec<u8> {
    let mut k = design_key(&job.net, &job.options);
    job.loss.key_bytes(&mut k);
    job.xtalk.key_bytes(&mut k);
    job.power.key_bytes(&mut k);
    k
}

/// Estimated deep size of a cached entry (key + design + report), in
/// bytes. Deliberately an *estimate*: the point is a stable, deterministic
/// charge proportional to the design's real heap footprint so a byte
/// budget means something, not an exact allocator accounting. Per-element
/// constants are rounded up from the concrete struct sizes so the
/// estimate errs toward over-charging (the budget is a ceiling, not a
/// target).
pub fn approx_entry_bytes(key_len: usize, design: &XRingDesign, report: &RouterReport) -> usize {
    const PER_NODE: usize = 64; // position + cycle order/position/route rows
    const PER_SIGNAL: usize = 96; // SignalSpec fixed part + route entry
    const PER_HOP: usize = 64; // Hop: station indices, wavelength, geometry
    const PER_WAVEGUIDE: usize = 160; // polyline points + lane headers
    const PER_LANE: usize = 96; // lane occupancy vectors
    const PER_SHORTCUT: usize = 96;
    const PER_PDN_TREE: usize = 192;
    const PER_PDN_SENDER: usize = 48; // BTreeMap node for a sender loss
    const FIXED: usize = 1_024; // struct shells, provenance, stats

    let hops: usize = design.layout.signals.iter().map(|s| s.hops.len()).sum();
    let lanes: usize = design
        .plan
        .ring_waveguides
        .iter()
        .map(|w| w.lanes.len())
        .sum();
    let pdn = design.pdn.as_ref().map_or(0, |p| {
        p.trees.len() * PER_PDN_TREE
            + p.sender_loss_db.len() * PER_PDN_SENDER
            + p.crossed_waveguides.len() * 8
    });
    FIXED
        + key_len
        + design.net.len() * PER_NODE
        + design.layout.signals.len() * PER_SIGNAL
        + hops * PER_HOP
        + design.layout.waveguides.len() * PER_WAVEGUIDE
        + design.plan.routes.len() * PER_SIGNAL
        + lanes * PER_LANE
        + design.shortcuts.shortcuts.len() * PER_SHORTCUT
        + pdn
        + report.label.len()
        + std::mem::size_of::<RouterReport>()
}

/// What one cache slot holds: a whole design + report, or one pipeline
/// phase's artifact.
enum Payload {
    Design {
        design: Arc<XRingDesign>,
        report: RouterReport,
    },
    Artifact(PhaseArtifact),
}

/// One cached outcome plus its byte charge and recency stamp.
struct Entry {
    payload: Payload,
    bytes: usize,
    /// Recency sequence number; bumped on every hit. The recency queue
    /// holds `(seq, key)` pairs and entries whose stamp no longer
    /// matches are stale queue residue, skipped during eviction.
    seq: u64,
}

/// The byte address of a phase artifact: a tag byte, the phase, then the
/// content key — exactly 10 bytes. Canonical design keys encode at least
/// a node count plus three positions (> 50 bytes), so the two keyspaces
/// cannot collide.
fn artifact_key(phase: PhaseId, key: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(&[0xA5, phase as u8]);
    k.extend_from_slice(&key.to_le_bytes());
    k
}

/// The interior of the cache: map, recency queue and byte totals, all
/// under one lock so eviction decisions are consistent.
#[derive(Default)]
struct Inner {
    map: HashMap<Vec<u8>, Entry>,
    /// Lazy LRU queue: `(seq, key)` in bump order. A key may appear
    /// multiple times; only the pair matching the entry's current `seq`
    /// is live.
    recency: VecDeque<(u64, Vec<u8>)>,
    total_bytes: usize,
    next_seq: u64,
}

impl Inner {
    fn bump(&mut self, key: &[u8]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(entry) = self.map.get_mut(key) {
            entry.seq = seq;
            self.recency.push_back((seq, key.to_vec()));
        }
        // Stale pairs accumulate one per hit; compact when the queue is
        // far larger than the live map so it stays O(entries).
        if self.recency.len() > 4 * self.map.len() + 16 {
            let map = &self.map;
            self.recency
                .retain(|(seq, key)| map.get(key).is_some_and(|e| e.seq == *seq));
        }
    }

    fn remove(&mut self, key: &[u8]) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.total_bytes -= entry.bytes;
        Some(entry)
    }
}

/// The cache's counters, one row per `/metrics` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCounter {
    /// Whole-design lookups served from the cache.
    Hits,
    /// Whole-design lookups that found nothing usable.
    Misses,
    /// Corrupted entries evicted on read.
    Evictions,
    /// Entries evicted to fit the byte budget.
    LruEvictions,
    /// Estimated bytes reclaimed by budget evictions.
    EvictBytes,
    /// Phase-artifact hits across all phases.
    ArtifactHits,
    /// Phase-artifact misses across all phases.
    ArtifactMisses,
    /// Phase-artifact hits for one phase.
    PhaseHits(PhaseId),
    /// Phase-artifact misses for one phase.
    PhaseMisses(PhaseId),
}

impl CounterRow for CacheCounter {
    // The per-phase rows interleave hits and misses in pipeline order;
    // the global recorder sees only the two artifact totals.
    const TABLE: &'static [Series] = &[
        Series::forwarded("cache.hits"),
        Series::forwarded("cache.misses"),
        Series::forwarded("cache.evictions"),
        Series::forwarded("cache.lru_evictions"),
        Series::forwarded("cache.evict_bytes"),
        Series::forwarded("cache.artifact_hits"),
        Series::forwarded("cache.artifact_misses"),
        Series::local("cache.phase_hits.ring-milp"),
        Series::local("cache.phase_misses.ring-milp"),
        Series::local("cache.phase_hits.shortcut"),
        Series::local("cache.phase_misses.shortcut"),
        Series::local("cache.phase_hits.mapping"),
        Series::local("cache.phase_misses.mapping"),
        Series::local("cache.phase_hits.opening"),
        Series::local("cache.phase_misses.opening"),
        Series::local("cache.phase_hits.pdn"),
        Series::local("cache.phase_misses.pdn"),
    ];

    fn index(self) -> usize {
        match self {
            CacheCounter::Hits => 0,
            CacheCounter::Misses => 1,
            CacheCounter::Evictions => 2,
            CacheCounter::LruEvictions => 3,
            CacheCounter::EvictBytes => 4,
            CacheCounter::ArtifactHits => 5,
            CacheCounter::ArtifactMisses => 6,
            CacheCounter::PhaseHits(phase) => 7 + 2 * phase as usize,
            CacheCounter::PhaseMisses(phase) => 8 + 2 * phase as usize,
        }
    }
}

/// An in-memory, thread-safe design cache shared by every job an
/// [`Engine`](crate::Engine) runs (and, through an [`Arc`], across
/// engines — the serve daemon shares one cache over all requests). Only
/// successful syntheses are stored; designs are handed out as [`Arc`]s
/// so hits cost a pointer clone.
#[derive(Default)]
pub struct DesignCache {
    inner: Mutex<Inner>,
    /// Byte budget; `None` = unbounded (the historical behaviour).
    byte_budget: Option<usize>,
    /// Hit, miss and eviction counts since construction.
    pub counters: Counters<CacheCounter>,
}

impl std::fmt::Debug for DesignCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignCache")
            .field("len", &self.len())
            .field("bytes", &self.bytes())
            .field("byte_budget", &self.byte_budget)
            .field("counters", &self.counters)
            .finish()
    }
}

/// Whether a cached design still satisfies the invariants it was stored
/// with. Entries are validated on every read — a corrupted design (bit
/// rot, an injected fault, a bug elsewhere) must never be served.
fn entry_is_intact(design: &XRingDesign) -> bool {
    design.provenance.audit.is_clean()
        && design.layout.signals.len() == design.plan.routes.len()
        && design.layout.validate().is_ok()
}

impl DesignCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts least-recently-used entries once the
    /// estimated total size exceeds `budget` bytes. An entry larger than
    /// the whole budget is never cached at all (caching it would evict
    /// everything else for a single design).
    pub fn with_byte_budget(budget: usize) -> Self {
        DesignCache {
            byte_budget: Some(budget),
            ..Self::default()
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock")
    }

    /// Looks up `key`, counting a hit or miss. On a hit the cached report
    /// is relabelled to `label` (the label is not part of the key) and the
    /// entry's recency is bumped.
    ///
    /// The entry is validated before it is served: a design whose audit
    /// is not clean or whose layout no longer self-validates is *evicted*
    /// and the lookup counts as a miss, so the caller re-synthesizes and
    /// re-inserts a good entry. Validation runs outside the lock, on the
    /// entry's `Arc`, so concurrent lookups do not queue behind it.
    pub fn lookup(&self, key: &[u8], label: &str) -> Option<(Arc<XRingDesign>, RouterReport)> {
        let (design, mut report) = self.snapshot(key)?;
        if !entry_is_intact(&design) {
            self.evict_if_current(key, &design);
            return None;
        }
        self.counters.add(CacheCounter::Hits, 1);
        report.label = label.to_owned();
        Some((design, report))
    }

    /// The design entry at `key`, cloned under the lock with its recency
    /// bumped; a miss is counted when there is none.
    fn snapshot(&self, key: &[u8]) -> Option<(Arc<XRingDesign>, RouterReport)> {
        let mut inner = self.lock();
        let Some(Entry {
            payload: Payload::Design { design, report },
            ..
        }) = inner.map.get(key)
        else {
            self.counters.add(CacheCounter::Misses, 1);
            return None;
        };
        let found = (Arc::clone(design), report.clone());
        inner.bump(key);
        Some(found)
    }

    /// Evicts the entry at `key` after `stale` failed validation, unless
    /// the slot meanwhile holds another design (a concurrent lookup
    /// evicted it and a fresh one was inserted). Counts the miss either
    /// way.
    fn evict_if_current(&self, key: &[u8], stale: &Arc<XRingDesign>) {
        let mut inner = self.lock();
        let current = matches!(
            inner.map.get(key),
            Some(Entry { payload: Payload::Design { design, .. }, .. }) if Arc::ptr_eq(design, stale)
        );
        if current {
            inner.remove(key);
            self.counters.add(CacheCounter::Evictions, 1);
        }
        self.counters.add(CacheCounter::Misses, 1);
    }

    /// Stores a freshly synthesized design. Concurrent duplicate inserts
    /// (two workers racing on the same key) keep the first entry so
    /// already-shared `Arc`s stay canonical. Designs that fail the
    /// intactness check (unaudited, dirty audit, misaligned layout) are
    /// refused — the cache never holds an entry it would evict on read —
    /// and so are designs degraded by deadline expiry (see the module
    /// docs).
    ///
    /// Under a byte budget, inserting may evict least-recently-used
    /// entries until the estimated total fits again.
    pub fn insert(&self, key: Vec<u8>, design: Arc<XRingDesign>, report: RouterReport) {
        if !entry_is_intact(&design) || design.provenance.degraded_by_deadline() {
            return;
        }
        let bytes = approx_entry_bytes(key.len(), &design, &report);
        if self.byte_budget.is_some_and(|budget| bytes > budget) {
            return; // one oversize entry must not flush the whole cache
        }
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.recency.push_back((seq, key.clone()));
        inner.total_bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                payload: Payload::Design { design, report },
                bytes,
                seq,
            },
        );
        if let Some(budget) = self.byte_budget {
            self.evict_to_budget(&mut inner, budget);
        }
    }

    /// Pops stale and least-recently-used entries until the byte total
    /// fits `budget`. The just-inserted entry carries the highest `seq`,
    /// so it is considered last; oversize entries were refused before
    /// insertion, so the loop always terminates under budget.
    fn evict_to_budget(&self, inner: &mut Inner, budget: usize) {
        while inner.total_bytes > budget {
            let Some((seq, key)) = inner.recency.pop_front() else {
                return; // unreachable: bytes imply live entries
            };
            if inner.map.get(&key).is_none_or(|e| e.seq != seq) {
                continue; // stale residue of a later bump
            }
            let entry = inner.remove(&key).expect("live entry");
            self.counters.add(CacheCounter::LruEvictions, 1);
            self.counters
                .add(CacheCounter::EvictBytes, entry.bytes as u64);
        }
    }

    /// Estimated bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lock().total_bytes
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// Corrupts the entry at `key` in place (its mapped signals are
    /// cleared, desynchronizing layout and plan) and reports whether an
    /// entry was there. Fault-injection hook: the next lookup must detect
    /// the damage, evict the entry and fall through to re-synthesis.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn corrupt(&self, key: &[u8]) -> bool {
        let mut inner = self.lock();
        match inner.map.get_mut(key) {
            Some(Entry {
                payload: Payload::Design { design, .. },
                ..
            }) => {
                let mut broken = (**design).clone();
                broken.layout.signals.clear();
                *design = Arc::new(broken);
                true
            }
            _ => false,
        }
    }

    /// Corrupts the phase artifact at `(phase, key)` in place and reports
    /// whether an artifact was there. For the downstream phases the
    /// payload vectors are cleared, so a design assembled from the
    /// artifact cannot pass its audit; for the ring phase the exported
    /// basis is dropped (a performance-only corruption the warm-start
    /// path must tolerate). Fault-injection hook for the incremental
    /// path: the next re-synthesis that consumes a cleared artifact must
    /// detect the damage and fall back to a cold run.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn corrupt_artifact(&self, phase: PhaseId, key: u64) -> bool {
        let mut inner = self.lock();
        match inner.map.get_mut(&artifact_key(phase, key)) {
            Some(Entry {
                payload: Payload::Artifact(artifact),
                ..
            }) => {
                match artifact {
                    PhaseArtifact::Ring(ring) => ring.basis = None,
                    PhaseArtifact::Shortcut(plan) => plan.shortcuts.clear(),
                    PhaseArtifact::Mapping(plan) | PhaseArtifact::Opening((plan, _)) => {
                        plan.routes.clear()
                    }
                    PhaseArtifact::Pdn(pdn) => {
                        if let Some(p) = pdn {
                            p.sender_loss_db.clear();
                        }
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Number of distinct entries stored (designs and phase artifacts).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exported LP basis of the ring artifact stored under
    /// `ring_key`, if any — the warm-start hint for a ring-dirty
    /// re-synthesis. Unlike [`ArtifactStore::get_artifact`], this does
    /// not count a phase hit or miss (the caller is not *consuming* the
    /// artifact for its own phase, it is seeding a different key's
    /// solve), but it does bump the entry's recency.
    pub fn warm_basis_for(&self, ring_key: u64) -> Option<xring_core::Basis> {
        let addr = artifact_key(PhaseId::Ring, ring_key);
        let mut inner = self.lock();
        let basis = match inner.map.get(&addr) {
            Some(Entry {
                payload: Payload::Artifact(PhaseArtifact::Ring(ring)),
                ..
            }) => ring.basis.clone(),
            _ => None,
        };
        if basis.is_some() {
            inner.bump(&addr);
        }
        basis
    }
}

impl ArtifactStore for DesignCache {
    /// Phase-artifact lookup; counts a per-phase hit or miss and bumps
    /// the entry's recency on hit.
    fn get_artifact(&self, phase: PhaseId, key: u64) -> Option<PhaseArtifact> {
        let addr = artifact_key(phase, key);
        let mut inner = self.lock();
        match inner.map.get(&addr) {
            Some(Entry {
                payload: Payload::Artifact(artifact),
                ..
            }) => {
                let artifact = artifact.clone();
                self.counters.add(CacheCounter::PhaseHits(phase), 1);
                self.counters.add(CacheCounter::ArtifactHits, 1);
                inner.bump(&addr);
                Some(artifact)
            }
            _ => {
                self.counters.add(CacheCounter::PhaseMisses(phase), 1);
                self.counters.add(CacheCounter::ArtifactMisses, 1);
                None
            }
        }
    }

    /// Stores a phase artifact, *overwriting* any existing entry at the
    /// same address: the old entry's bytes are released and its stale
    /// recency pairs are deduped immediately, so byte accounting stays
    /// exact. Under a byte budget, an artifact larger than the whole
    /// budget is refused and eviction runs as for design inserts.
    fn put_artifact(&self, phase: PhaseId, key: u64, artifact: PhaseArtifact) {
        let addr = artifact_key(phase, key);
        let bytes = addr.len() + artifact.approx_bytes();
        if self.byte_budget.is_some_and(|budget| bytes > budget) {
            return;
        }
        let mut inner = self.lock();
        if inner.remove(&addr).is_some() {
            // Dedupe the overwritten key's queue pairs now rather than
            // leaving stale residue for compaction to find later.
            inner.recency.retain(|(_, k)| k != &addr);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.recency.push_back((seq, addr.clone()));
        inner.total_bytes += bytes;
        inner.map.insert(
            addr,
            Entry {
                payload: Payload::Artifact(artifact),
                bytes,
                seq,
            },
        );
        if let Some(budget) = self.byte_budget {
            self.evict_to_budget(&mut inner, budget);
        }
    }

    /// Drops a phase artifact (and its recency pairs), if present.
    fn evict_artifact(&self, phase: PhaseId, key: u64) {
        let addr = artifact_key(phase, key);
        let mut inner = self.lock();
        if inner.remove(&addr).is_some() {
            inner.recency.retain(|(_, k)| k != &addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xring_core::{NetworkSpec, SynthesisOptions, Traffic};

    fn job(label: &str, wl: usize) -> SynthesisJob {
        SynthesisJob::new(
            label,
            NetworkSpec::proton_8(),
            SynthesisOptions::with_wavelengths(wl),
        )
    }

    fn synthesized(j: &SynthesisJob) -> (Vec<u8>, Arc<XRingDesign>, RouterReport) {
        let key = canonical_key(j);
        let design = Arc::new(
            xring_core::Synthesizer::new(j.options.clone())
                .synthesize(&j.net)
                .expect("synthesized"),
        );
        let report = design.report(j.label.clone(), &j.loss, j.xtalk.as_ref(), &j.power);
        (key, design, report)
    }

    #[test]
    fn label_and_deadline_do_not_affect_the_key() {
        let a = canonical_key(&job("a", 8));
        let b = canonical_key(&job("b", 8));
        let c = canonical_key(&job("a", 8).with_deadline(Duration::from_secs(1)));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn every_synthesis_input_perturbs_the_key() {
        let base = canonical_key(&job("x", 8));
        assert_ne!(base, canonical_key(&job("x", 4)));
        let mut other = job("x", 8);
        other.options.shortcuts = false;
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.net = NetworkSpec::psion_16();
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.loss.crossing_db *= 2.0;
        assert_ne!(base, canonical_key(&other));
        let other = job("x", 8).without_crosstalk();
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.traffic = Traffic::NearestNeighbors(3);
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.degradation = xring_core::DegradationPolicy::Allow;
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.lp_backend = xring_core::LpBackendKind::Dense;
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.pricing = xring_core::PricingKind::Devex;
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.factorization = xring_core::FactorizationKind::DenseEta;
        assert_ne!(base, canonical_key(&other));
        // Thread count never changes the design (deterministic parallel
        // search), so it must NOT fragment the cache.
        let mut other = job("x", 8);
        other.options.solver_threads = 8;
        assert_eq!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.spares = xring_core::SpareConfig::uniform(1);
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.spares = xring_core::SpareConfig {
            k_wavelengths: 1,
            k_mrrs: 0,
        };
        assert_ne!(base, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.traffic = Traffic::Hotspot {
            hotspots: 2,
            seed: 9,
        };
        let hotspot = canonical_key(&other);
        assert_ne!(base, hotspot);
        other.options.traffic = Traffic::Hotspot {
            hotspots: 2,
            seed: 10,
        };
        assert_ne!(hotspot, canonical_key(&other));
        let mut other = job("x", 8);
        other.options.traffic = Traffic::Permutation { seed: 9 };
        assert_ne!(base, canonical_key(&other));
    }

    #[test]
    fn corrupted_entries_are_evicted_on_read() {
        let cache = DesignCache::new();
        let j = job("j", 4);
        let (key, design, report) = synthesized(&j);
        cache.insert(key.clone(), Arc::clone(&design), report.clone());
        assert!(cache.lookup(&key, "j").is_some());
        assert!(cache.bytes() > 0);

        assert!(cache.corrupt(&key));
        assert!(cache.lookup(&key, "j").is_none(), "corrupt entry served");
        assert_eq!(cache.counters.get(CacheCounter::Evictions), 1);
        assert_eq!(cache.len(), 0, "corrupt entry not removed");
        assert_eq!(cache.bytes(), 0, "corrupt eviction must release bytes");

        // Re-inserting a good design heals the slot.
        cache.insert(key.clone(), design, report);
        assert!(cache.lookup(&key, "j").is_some());
        assert_eq!(cache.counters.get(CacheCounter::Evictions), 1);
    }

    #[test]
    fn a_stale_failed_check_does_not_evict_a_fresh_entry() {
        let cache = DesignCache::new();
        let j = job("j", 4);
        let (key, design, report) = synthesized(&j);
        cache.insert(key.clone(), Arc::clone(&design), report.clone());
        assert!(cache.corrupt(&key));
        // Two lookups race on the corrupted entry: both take it...
        let (stale, _) = cache.snapshot(&key).expect("corrupted entry present");
        let (other, _) = cache.snapshot(&key).expect("corrupted entry present");
        assert!(!entry_is_intact(&stale));
        // ...the second evicts it, and a fresh design is re-inserted...
        cache.evict_if_current(&key, &other);
        assert_eq!(cache.len(), 0);
        cache.insert(key.clone(), Arc::clone(&design), report);
        // ...so the first one's late eviction must leave the fresh entry.
        cache.evict_if_current(&key, &stale);
        assert_eq!(cache.len(), 1, "fresh entry evicted by a stale check");
        assert_eq!(cache.counters.get(CacheCounter::Evictions), 1);
        let (served, _) = cache.lookup(&key, "j").expect("fresh entry served");
        assert!(Arc::ptr_eq(&served, &design));
    }

    #[test]
    fn unaudited_designs_are_refused() {
        let cache = DesignCache::new();
        let j = job("j", 4);
        let key = canonical_key(&j);
        let mut design = xring_core::Synthesizer::new(j.options.clone())
            .synthesize(&j.net)
            .expect("synthesized");
        let report = design.report("j", &j.loss, j.xtalk.as_ref(), &j.power);
        design.provenance.audit = Default::default(); // strip the audit
        cache.insert(key.clone(), Arc::new(design), report);
        assert_eq!(cache.len(), 0, "unaudited design was cached");
        assert!(cache.lookup(&key, "j").is_none());
    }

    #[test]
    fn hits_relabel_and_count() {
        let cache = DesignCache::new();
        let j = job("first", 4);
        let key = canonical_key(&j);
        assert!(cache.lookup(&key, "first").is_none());
        let (_, design, report) = synthesized(&j);
        cache.insert(key.clone(), design, report);
        let (_, hit) = cache.lookup(&key, "second").expect("hit");
        assert_eq!(hit.label, "second");
        assert_eq!(cache.counters.get(CacheCounter::Hits), 1);
        assert_eq!(cache.counters.get(CacheCounter::Misses), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Size three distinct entries with an unbounded cache first.
        let jobs: Vec<SynthesisJob> = [2usize, 4, 8]
            .iter()
            .map(|&wl| job(&format!("wl{wl}"), wl))
            .collect();
        let entries: Vec<_> = jobs.iter().map(synthesized).collect();
        let sizes: Vec<usize> = entries
            .iter()
            .map(|(k, d, r)| approx_entry_bytes(k.len(), d, r))
            .collect();

        // Budget fits the two largest entries but not all three.
        let budget = sizes[0] + sizes[1] + sizes[2] - sizes.iter().copied().min().unwrap() / 2;
        let cache = DesignCache::with_byte_budget(budget);
        assert_eq!(cache.byte_budget(), Some(budget));

        let (ka, da, ra) = &entries[0];
        let (kb, db, rb) = &entries[1];
        let (kc, dc, rc) = &entries[2];
        cache.insert(ka.clone(), Arc::clone(da), ra.clone());
        cache.insert(kb.clone(), Arc::clone(db), rb.clone());
        assert_eq!(cache.len(), 2);

        // Touch A so B becomes the least recently used entry...
        assert!(cache.lookup(ka, "bump").is_some());
        // ...then inserting C must evict B, not A.
        cache.insert(kc.clone(), Arc::clone(dc), rc.clone());
        assert!(cache.lookup(ka, "a").is_some(), "recently used A evicted");
        assert!(cache.lookup(kc, "c").is_some(), "fresh C evicted");
        assert!(cache.lookup(kb, "b").is_none(), "LRU B survived");
        assert!(cache.bytes() <= budget, "over budget after eviction");
        assert_eq!(cache.counters.get(CacheCounter::LruEvictions), 1);
        assert_eq!(
            cache.counters.get(CacheCounter::EvictBytes),
            sizes[1] as u64
        );
    }

    #[test]
    fn oversize_entries_are_never_cached() {
        let j = job("big", 4);
        let (key, design, report) = synthesized(&j);
        let cache = DesignCache::with_byte_budget(16); // far below any design
        cache.insert(key.clone(), design, report);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(
            cache.counters.get(CacheCounter::LruEvictions),
            0,
            "refusal is not an eviction"
        );
    }

    #[test]
    fn unbounded_cache_never_evicts_by_size() {
        let cache = DesignCache::new();
        assert_eq!(cache.byte_budget(), None);
        for wl in [2usize, 4, 8] {
            let j = job(&format!("wl{wl}"), wl);
            let (key, design, report) = synthesized(&j);
            cache.insert(key, design, report);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.counters.get(CacheCounter::LruEvictions), 0);
        assert!(cache.bytes() > 0);
    }

    fn shortcut_artifact(n: usize) -> PhaseArtifact {
        use xring_core::RingBuilder;
        let net = NetworkSpec::psion_16();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let mut plan = xring_core::plan_shortcuts(&net, &ring.cycle);
        plan.shortcuts.truncate(n);
        PhaseArtifact::Shortcut(plan)
    }

    #[test]
    fn counter_rows_name_their_own_series() {
        let name = |row: CacheCounter| CacheCounter::TABLE[row.index()].name;
        assert_eq!(name(CacheCounter::ArtifactMisses), "cache.artifact_misses");
        for phase in PhaseId::ALL {
            let phase_name = phase.as_str();
            let hits = format!("cache.phase_hits.{phase_name}");
            let misses = format!("cache.phase_misses.{phase_name}");
            assert_eq!(name(CacheCounter::PhaseHits(phase)), hits);
            assert_eq!(name(CacheCounter::PhaseMisses(phase)), misses);
        }
        assert_eq!(CacheCounter::TABLE.len(), 7 + 2 * PhaseId::ALL.len());
    }

    #[test]
    fn artifact_roundtrip_counts_phase_hits_and_misses() {
        let cache = DesignCache::new();
        assert!(cache.get_artifact(PhaseId::Shortcut, 7).is_none());
        assert_eq!(
            cache
                .counters
                .get(CacheCounter::PhaseMisses(PhaseId::Shortcut)),
            1
        );
        cache.put_artifact(PhaseId::Shortcut, 7, shortcut_artifact(2));
        assert!(matches!(
            cache.get_artifact(PhaseId::Shortcut, 7),
            Some(PhaseArtifact::Shortcut(_))
        ));
        assert_eq!(
            cache
                .counters
                .get(CacheCounter::PhaseHits(PhaseId::Shortcut)),
            1
        );
        assert_eq!(cache.counters.get(CacheCounter::ArtifactHits), 1);
        assert_eq!(cache.counters.get(CacheCounter::ArtifactMisses), 1);
        // Same content key under a different phase is a distinct address.
        assert!(cache.get_artifact(PhaseId::Ring, 7).is_none());
        assert_eq!(
            cache.counters.get(CacheCounter::PhaseMisses(PhaseId::Ring)),
            1
        );
        cache.evict_artifact(PhaseId::Shortcut, 7);
        assert!(cache.get_artifact(PhaseId::Shortcut, 7).is_none());
    }

    #[test]
    fn artifact_overwrite_keeps_byte_accounting_exact() {
        // The regression this guards: an overwrite that does not release
        // the replaced entry's bytes (or leaves stale recency pairs)
        // makes the byte total drift upward until the budget evicts
        // everything. Overwrite with a *smaller* artifact and check the
        // total shrinks to exactly the new entry's charge.
        let cache = DesignCache::new();
        let big = shortcut_artifact(4);
        let small = shortcut_artifact(0);
        let big_bytes = 10 + big.approx_bytes();
        let small_bytes = 10 + small.approx_bytes();
        assert!(big_bytes > small_bytes);

        cache.put_artifact(PhaseId::Shortcut, 1, big);
        assert_eq!(cache.bytes(), big_bytes);
        cache.put_artifact(PhaseId::Shortcut, 1, small);
        assert_eq!(cache.len(), 1, "overwrite must not duplicate the entry");
        assert_eq!(
            cache.bytes(),
            small_bytes,
            "overwrite leaked the replaced entry's bytes"
        );
        cache.evict_artifact(PhaseId::Shortcut, 1);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn artifact_overwrite_dedupes_recency_pairs() {
        let cache = DesignCache::new();
        for _ in 0..10 {
            cache.put_artifact(PhaseId::Shortcut, 1, shortcut_artifact(1));
        }
        let inner = cache.lock();
        let pairs = inner
            .recency
            .iter()
            .filter(|(_, k)| k == &artifact_key(PhaseId::Shortcut, 1))
            .count();
        assert_eq!(pairs, 1, "overwrites must dedupe the recency queue");
    }

    #[test]
    fn artifact_overwrite_under_budget_does_not_evict_live_neighbours() {
        // Stale recency pairs from overwrites used to be charged against
        // the budget walk; with dedupe-on-insert, repeatedly overwriting
        // one artifact must never push a live neighbour out.
        let a = shortcut_artifact(2);
        let b = shortcut_artifact(2);
        let budget = 2 * (10 + a.approx_bytes()) + 64;
        let cache = DesignCache::with_byte_budget(budget);
        cache.put_artifact(PhaseId::Shortcut, 1, a);
        for _ in 0..50 {
            cache.put_artifact(PhaseId::Shortcut, 2, b.clone());
        }
        assert!(
            cache.get_artifact(PhaseId::Shortcut, 1).is_some(),
            "live neighbour evicted by overwrite churn"
        );
        assert!(cache.bytes() <= budget);
        assert_eq!(cache.counters.get(CacheCounter::LruEvictions), 0);
    }

    #[test]
    fn artifacts_and_designs_share_the_byte_budget() {
        let j = job("shared", 4);
        let (key, design, report) = synthesized(&j);
        let design_bytes = approx_entry_bytes(key.len(), &design, &report);
        // Budget fits the design alone; a burst of artifacts must evict
        // it (shared accounting) rather than grow without bound.
        let cache = DesignCache::with_byte_budget(design_bytes + 256);
        cache.insert(key.clone(), design, report);
        assert!(cache.lookup(&key, "shared").is_some());
        for k in 0..64u64 {
            cache.put_artifact(PhaseId::Shortcut, k, shortcut_artifact(2));
        }
        assert!(cache.bytes() <= design_bytes + 256);
        assert!(
            cache.counters.get(CacheCounter::LruEvictions) > 0,
            "budget never enforced"
        );
    }

    #[test]
    fn corrupt_artifact_clears_payload() {
        let cache = DesignCache::new();
        cache.put_artifact(PhaseId::Shortcut, 3, shortcut_artifact(2));
        assert!(cache.corrupt_artifact(PhaseId::Shortcut, 3));
        match cache.get_artifact(PhaseId::Shortcut, 3) {
            Some(PhaseArtifact::Shortcut(plan)) => assert!(plan.shortcuts.is_empty()),
            other => panic!("expected corrupted shortcut artifact, got {other:?}"),
        }
        assert!(!cache.corrupt_artifact(PhaseId::Ring, 3));
    }

    #[test]
    fn recency_queue_compacts_under_repeated_hits() {
        let cache = DesignCache::with_byte_budget(usize::MAX);
        let j = job("hot", 2);
        let (key, design, report) = synthesized(&j);
        cache.insert(key.clone(), design, report);
        for _ in 0..1_000 {
            assert!(cache.lookup(&key, "hot").is_some());
        }
        let queue_len = cache.lock().recency.len();
        assert!(
            queue_len <= 4 * cache.len() + 16,
            "recency queue grew unboundedly: {queue_len}"
        );
    }
}
