//! Cross-session prepared-state cache: content-addressed factorizations and
//! assembled dual operators, shared by every tenant.
//!
//! The expensive part of a FETI job on a repeated mesh family is not the
//! PCPG iteration — it is the preprocessing: building the decomposition,
//! regularizing and factorizing every subdomain (symbolic analysis +
//! numeric Cholesky), and assembling the explicit `F̃ᵢ`. The decomposition
//! and the factorizations are a pure function of the mesh spec, so the
//! service keys a [`PreparedCache`] on a content hash of the spec alone and
//! reuses the prepared bundle across jobs, precisions, tenants and client
//! sessions. The assembled operators also depend on the backend (their
//! placements), but not on the working precision, which demotes them only
//! for a refined solve's inner applies. So the bundle keeps one set per
//! backend: the one the first job on that backend assembled, at either
//! precision. Determinism of the
//! preprocessing (pinned by the feti crate's bitwise reuse tests) makes a
//! warm solve bitwise identical to a cold one.

use std::collections::HashMap;
use std::sync::Arc;

use sc_core::SessionCacheStats;
use sc_fem::HeatProblem;
use sc_feti::{AssembledOperators, FetiOptions, SubdomainFactors};

use crate::protocol::{BackendTag, MeshSpec, WireName};

/// Everything preprocessing produces for one mesh spec.
///
/// Values are handed out as `Arc<PreparedSession>` from the cache, so an
/// in-flight job keeps its bundle alive even if the entry is evicted
/// mid-run (the LRU-correctness test pins this).
pub struct PreparedSession {
    /// The decomposed problem (mesh, gluing, loads).
    pub problem: Arc<HeatProblem>,
    /// Per-subdomain regularized factorizations, `Arc`-shared so they plug
    /// straight into [`sc_feti::FetiSolverBuilder::factors`].
    pub factors: Arc<Vec<SubdomainFactors>>,
    /// The assembled dual operators of the first job on each backend, with
    /// that job's placements; they plug straight into
    /// [`sc_feti::FetiSolverBuilder::operators`] at either precision. `None`
    /// under a backend: its operators made the bundle larger than the whole
    /// cache budget, so the bundle is kept without them and later jobs on
    /// that backend assemble without retrying the insert.
    pub operators: HashMap<BackendTag, Option<Arc<AssembledOperators>>>,
    /// Approximate resident size, charged against the cache byte budget:
    /// the problem and factors, plus the packed bytes of every operator set.
    pub bytes: usize,
}

impl PreparedSession {
    /// This bundle plus `operators` under `slot`, charged at their packed
    /// bytes (`None`: the mark of operators that do not fit, charged
    /// nothing); everything else is shared with `self`, not copied.
    pub fn with_operators(
        &self,
        slot: BackendTag,
        operators: Option<Arc<AssembledOperators>>,
    ) -> PreparedSession {
        let mut all = self.operators.clone();
        let bytes = self.bytes + operators.as_ref().map_or(0, |o| o.packed_bytes());
        all.insert(slot, operators);
        PreparedSession {
            problem: Arc::clone(&self.problem),
            factors: Arc::clone(&self.factors),
            operators: all,
            bytes,
        }
    }
}

/// The cache itself: content key → prepared bundle, a byte-budgeted LRU
/// that charges each bundle its [`PreparedSession::bytes`].
///
/// Bundles are `Arc`-shared, so an eviction only drops the cache's own
/// reference, never state a running job holds.
pub struct PreparedCache {
    /// Content key → (bundle, logical time of its last use).
    map: HashMap<u64, (Arc<PreparedSession>, u64)>,
    /// Monotonic logical clock stamping each use: no wall clock, so the LRU
    /// order, and with it the eviction traffic, repeats run to run.
    clock: u64,
    /// Hit, miss and eviction counters, resident bytes and the budget
    /// (`entries` is read off the map).
    stats: SessionCacheStats,
}

impl PreparedCache {
    /// Empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        PreparedCache {
            map: HashMap::new(),
            clock: 0,
            stats: SessionCacheStats {
                budget_bytes,
                ..SessionCacheStats::default()
            },
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<PreparedSession>> {
        self.clock += 1;
        match self.map.get_mut(&key) {
            Some((bundle, last_used)) => {
                *last_used = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(bundle))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert `bundle` under `key`, charging its `bytes` against the budget
    /// and evicting entries until it fits. The victim is the least recently
    /// used entry whose key is not in `keep` (the keys queued work is about
    /// to read); when every resident entry is kept, it is the least recently
    /// used one, so the budget always holds. Returns `false`, and changes
    /// nothing, when the bundle alone exceeds the budget: the job still
    /// runs, it just does not amortize. Re-inserting a key replaces the
    /// entry and its charge.
    pub fn insert(&mut self, key: u64, bundle: Arc<PreparedSession>, keep: &[u64]) -> bool {
        let s = &mut self.stats;
        if bundle.bytes > s.budget_bytes {
            return false;
        }
        self.clock += 1;
        if let Some((old, _)) = self.map.remove(&key) {
            s.bytes -= old.bytes;
        }
        while s.bytes + bundle.bytes > s.budget_bytes {
            let lru = self
                .map
                .iter()
                .min_by_key(|(k, (_, last_used))| (keep.contains(k), *last_used))
                .map(|(&k, _)| k)
                .expect("non-empty map whenever resident bytes exceed the remaining budget");
            let (evicted, _) = self.map.remove(&lru).expect("key from live iteration");
            s.bytes -= evicted.bytes;
            s.evictions += 1;
        }
        s.bytes += bundle.bytes;
        self.map.insert(key, (bundle, self.clock));
        true
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            entries: self.map.len(),
            ..self.stats
        }
    }
}

/// Content-address a job's mesh spec: dimension, resolution, decomposition
/// and gluing. The precision, the load `scale` and the backend placement
/// deliberately do **not** enter the key: the decomposition and the
/// factorizations do not depend on them (one bundle serves them all), and
/// the operators the backend does change are kept per backend inside the
/// bundle. The factorization options are the service-wide
/// [`FetiOptions::default`].
pub fn content_key(spec: &MeshSpec) -> u64 {
    const DOMAIN: &[u8] = b"sc_serve/prepared/v2";
    let gluing = spec.gluing.name().as_bytes();
    let (s0, s1, s2) = spec.subs;
    // FNV-1a: deterministic across runs and platforms (unlike the randomly
    // seeded std hasher), so a key is a stable identifier
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // every integer is 8 little-endian bytes; strings are length-prefixed
    absorb(&(DOMAIN.len() as u64).to_le_bytes());
    absorb(DOMAIN);
    for v in [usize::from(spec.dim), spec.cells, s0, s1, s2, gluing.len()] {
        absorb(&(v as u64).to_le_bytes());
    }
    absorb(gluing);
    h
}

/// Build the prepared bundle for a mesh spec — the cold path a cache miss
/// pays once per content key. It holds no operators yet.
pub fn prepare(spec: &MeshSpec) -> PreparedSession {
    let problem = if spec.dim == 2 {
        HeatProblem::build_2d(spec.cells, (spec.subs.0, spec.subs.1), spec.gluing)
    } else {
        HeatProblem::build_3d(spec.cells, spec.subs, spec.gluing)
    };
    let opts = FetiOptions::default();
    let factors = SubdomainFactors::build_all(&problem, opts.engine, opts.ordering);
    let bytes = approx_bytes(&problem, &factors);
    PreparedSession {
        problem: Arc::new(problem),
        factors,
        operators: HashMap::new(),
        bytes,
    }
}

/// Resident-size estimate of a prepared bundle: factor + gluing nonzeros at
/// 16 bytes each (8 value + ~8 amortized index; the gluing is `B̃ᵢᵀ` and its
/// split `P̂ᵢᵀ`, `Cᵢᵀ`), plus stiffness nonzeros for the retained problem.
///
/// It over-counts `L`: each factor's row indices are its class analysis's
/// one shared pattern, so a bundle really holds 8 bytes per `L` entry plus
/// one index array per pattern class. The 16-byte charge is kept so the
/// cache's budget, and with it the eviction traffic, stays what it was.
fn approx_bytes(problem: &HeatProblem, factors: &[SubdomainFactors]) -> usize {
    let mut b = 0;
    for f in factors {
        // 16 bytes per L entry, although its row indices are shared per class
        let gluing = f.bt_perm.nnz() + f.pt_perm.nnz() + f.ct.nnz();
        b += f.chol.symbolic().nnz() * 16 + gluing * 16;
    }
    for sd in &problem.subdomains {
        b += sd.k.nnz() * 16 + sd.bt.nnz() * 16 + sd.f.len() * 8;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::estimate_job_seconds;
    use sc_fem::Gluing;
    use std::sync::OnceLock;

    fn spec2d() -> MeshSpec {
        MeshSpec {
            dim: 2,
            cells: 4,
            subs: (2, 2, 1),
            gluing: Gluing::Redundant,
        }
    }

    #[test]
    fn content_key_separates_every_input() {
        // the key is a function of the mesh spec alone: a job's precision,
        // backend and load scale are not even parameters, so the f64 and
        // f32_refined jobs of one mesh share one bundle
        let base = spec2d();
        let k0 = content_key(&base);
        assert_eq!(k0, content_key(&base.clone()), "stable");

        let mut dim = base.clone();
        dim.dim = 3;
        let mut cells = base.clone();
        cells.cells = 5;
        let mut subs = [base.clone(), base.clone(), base.clone()];
        subs[0].subs = (3, 2, 1);
        subs[1].subs = (2, 3, 1);
        subs[2].subs = (2, 2, 2);
        let mut glue = base.clone();
        glue.gluing = Gluing::Chain;
        for (label, other) in [
            ("dim", &dim),
            ("cells", &cells),
            ("subs.0", &subs[0]),
            ("subs.1", &subs[1]),
            ("subs.2", &subs[2]),
            ("gluing", &glue),
        ] {
            assert_ne!(k0, content_key(other), "{label} must change the key");
        }
        assert_ne!(
            content_key(&subs[0]),
            content_key(&subs[1]),
            "field order must matter"
        );
    }

    #[test]
    fn content_keys_and_estimates_are_pinned() {
        // a key names a bundle and an estimate prices a tenant's DRR share:
        // neither may move a bit without a deliberate version bump
        let plane = MeshSpec {
            dim: 2,
            cells: 40,
            subs: (3, 3, 1),
            gluing: Gluing::Redundant,
        };
        let cube = MeshSpec {
            dim: 3,
            cells: 8,
            subs: (2, 2, 2),
            gluing: Gluing::Chain,
        };
        assert_eq!(content_key(&plane), 0x3df8_72d9_935b_4fad);
        assert_eq!(content_key(&cube), 0x3f6e_084a_dd6f_4143);
        // 0.002053011849650246 s and 0.005918126976 s
        assert_eq!(
            estimate_job_seconds(&plane).to_bits(),
            0x3f60_d17a_5814_e01f
        );
        assert_eq!(estimate_job_seconds(&cube).to_bits(), 0x3f78_3d9b_1d0c_44e1);
    }

    #[test]
    fn prepare_covers_every_subdomain_and_charges_bytes() {
        let prep = prepare(&spec2d());
        assert_eq!(prep.factors.len(), prep.problem.subdomains.len());
        assert_eq!(prep.factors.len(), 4);
        assert!(prep.bytes > 0, "a real bundle has a positive footprint");
        assert!(prep.operators.is_empty(), "nothing is assembled yet");
    }

    /// A bundle charged `bytes`; every fixture shares one tiny prepared
    /// problem.
    fn bundle(bytes: usize) -> Arc<PreparedSession> {
        static BASE: OnceLock<PreparedSession> = OnceLock::new();
        let base = BASE.get_or_init(|| prepare(&spec2d()));
        Arc::new(PreparedSession {
            problem: Arc::clone(&base.problem),
            factors: Arc::clone(&base.factors),
            operators: HashMap::new(),
            bytes,
        })
    }

    fn holds(cache: &mut PreparedCache, key: u64, bundle: &Arc<PreparedSession>) -> bool {
        cache.get(key).is_some_and(|b| Arc::ptr_eq(&b, bundle))
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let mut cache = PreparedCache::new(1024);
        assert!(cache.get(7).is_none());
        let b = bundle(100);
        assert!(cache.insert(7, Arc::clone(&b), &[]));
        assert!(holds(&mut cache, 7, &b), "hit after insert");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!((s.entries, s.bytes, s.budget_bytes), (1, 100, 1024));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let mut cache = PreparedCache::new(300);
        for key in 1..=3 {
            cache.insert(key, bundle(100), &[]);
        }
        // touch 1 so 2 becomes the LRU
        cache.get(1);
        assert!(cache.insert(4, bundle(100), &[]));
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn kept_entries_survive_until_everything_resident_is_kept() {
        let mut cache = PreparedCache::new(300);
        for key in 1..=3 {
            cache.insert(key, bundle(100), &[]);
        }
        // 1 is the LRU entry, but a queued job reads it: 2 goes instead
        assert!(cache.insert(4, bundle(100), &[1]));
        assert!(
            cache.get(2).is_none(),
            "LRU entry outside the keep set evicted"
        );
        assert!(cache.get(1).is_some(), "kept entry survives");
        // every resident entry kept: plain LRU, and the budget still holds
        assert!(cache.insert(5, bundle(200), &[1, 3, 4]));
        let s = cache.stats();
        assert!(
            s.bytes <= s.budget_bytes,
            "{} of {} bytes",
            s.bytes,
            s.budget_bytes
        );
        assert!(cache.get(3).is_none() && cache.get(4).is_none());
        assert!(cache.get(1).is_some() && cache.get(5).is_some());
    }

    #[test]
    fn oversized_bundle_is_not_cached_and_evicts_nothing() {
        let mut cache = PreparedCache::new(100);
        let resident = bundle(60);
        cache.insert(1, Arc::clone(&resident), &[]);
        assert!(!cache.insert(2, bundle(101), &[]));
        assert!(cache.get(2).is_none());
        // an over-budget re-insert of a resident key (a bundle grown by its
        // operators) keeps serving the old entry at its old charge
        assert!(!cache.insert(1, bundle(101), &[]));
        assert!(holds(&mut cache, 1, &resident), "resident entry untouched");
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 60, 0));
    }

    #[test]
    fn reinsert_replaces_byte_charge() {
        let mut cache = PreparedCache::new(100);
        cache.insert(1, bundle(80), &[]);
        let smaller = bundle(40);
        cache.insert(1, Arc::clone(&smaller), &[]);
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (1, 40));
        assert!(holds(&mut cache, 1, &smaller));
        // a larger charge that still fits replaces it the same way
        let larger = bundle(90);
        assert!(cache.insert(1, Arc::clone(&larger), &[]));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 90, 0));
        assert!(holds(&mut cache, 1, &larger));
    }

    #[test]
    fn evicted_bundle_survives_while_held() {
        let mut cache = PreparedCache::new(100);
        let b = bundle(100);
        cache.insert(1, Arc::clone(&b), &[]);
        let held = cache.get(1).expect("resident");
        cache.insert(2, bundle(100), &[]); // evicts key 1
        assert!(cache.get(1).is_none());
        assert!(Arc::ptr_eq(&held, &b), "in-use state outlives its eviction");
        assert_eq!(held.factors.len(), 4);
    }

    #[test]
    fn eviction_keeps_counters() {
        let mut cache = PreparedCache::new(100);
        cache.insert(1, bundle(10), &[]);
        cache.get(1);
        cache.insert(2, bundle(100), &[]); // evicts key 1
        assert!(cache.get(1).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (1, 100));
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 1));
    }
}
