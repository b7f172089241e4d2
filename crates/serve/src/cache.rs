//! Cross-session prepared-state cache: content-addressed factorizations and
//! assembled dual operators, shared by every tenant.
//!
//! The expensive part of a FETI job on a repeated mesh family is not the
//! PCPG iteration — it is the preprocessing: building the decomposition,
//! regularizing and factorizing every subdomain (symbolic analysis +
//! numeric Cholesky), and assembling the explicit `F̃ᵢ`. The decomposition
//! and the factorizations are a pure function of the mesh spec, so the
//! service keys a [`SessionCache`] on a content hash of the spec alone and
//! reuses the prepared bundle across jobs, precisions, tenants and client
//! sessions. The assembled operators also depend on the working precision
//! and the backend, so the bundle keeps one set per (precision, backend):
//! the one the first job of that pair assembled. Determinism of the
//! preprocessing (pinned by the feti crate's bitwise reuse tests) makes a
//! warm solve bitwise identical to a cold one.

use std::collections::HashMap;
use std::sync::Arc;

use sc_core::{ContentHasher, SessionCache};
use sc_fem::HeatProblem;
use sc_feti::{AssembledOperators, FetiOptions, SubdomainFactors};

use crate::protocol::{BackendTag, MeshSpec, PrecisionTag, WireName};

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
    /// The assembled dual operators of the first job of each (precision,
    /// backend), with that job's placements; they plug straight into
    /// [`sc_feti::FetiSolverBuilder::operators`].
    pub operators: HashMap<(PrecisionTag, BackendTag), Arc<AssembledOperators>>,
    /// Approximate resident size, charged against the cache byte budget:
    /// the problem and factors, plus the packed bytes of every operator set.
    pub bytes: usize,
}

impl PreparedSession {
    /// This bundle plus `operators` under `slot`, charged at their packed
    /// bytes; everything else is shared with `self`, not copied.
    pub fn with_operators(
        &self,
        slot: (PrecisionTag, BackendTag),
        operators: Arc<AssembledOperators>,
    ) -> PreparedSession {
        let mut all = self.operators.clone();
        let bytes = self.bytes + operators.packed_bytes();
        all.insert(slot, operators);
        PreparedSession {
            problem: Arc::clone(&self.problem),
            factors: Arc::clone(&self.factors),
            operators: all,
            bytes,
        }
    }
}

/// The cache itself: content key → prepared bundle, byte-budgeted LRU.
pub type PreparedCache = SessionCache<PreparedSession>;

/// Content-address a job's mesh spec: dimension, resolution, decomposition
/// and gluing. The precision, the load `scale` and the backend placement
/// deliberately do **not** enter the key: the decomposition and the
/// factorizations do not depend on them (one bundle serves them all), and
/// the operators they do change are kept per (precision, backend) inside
/// the bundle. The factorization options are the service-wide
/// [`FetiOptions::default`].
pub fn content_key(spec: &MeshSpec) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str("sc_serve/prepared/v2");
    h.write_u64(u64::from(spec.dim));
    h.write_usize(spec.cells);
    h.write_usize(spec.subs.0);
    h.write_usize(spec.subs.1);
    h.write_usize(spec.subs.2);
    h.write_str(spec.gluing.name());
    h.finish()
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
/// 16 bytes each (8 value + ~8 amortized index), plus stiffness nonzeros for
/// the retained problem.
///
/// It over-counts `L`: each factor's row indices are its class analysis's
/// one shared pattern, so a bundle really holds 8 bytes per `L` entry plus
/// one index array per pattern class. The 16-byte charge is kept so the
/// cache's budget, and with it the eviction traffic, stays what it was.
fn approx_bytes(problem: &HeatProblem, factors: &[SubdomainFactors]) -> usize {
    let mut b = 0;
    for f in factors {
        // 16 bytes per L entry, although its row indices are shared per class
        b += f.chol.symbolic().nnz() * 16 + f.bt_perm.nnz() * 16;
    }
    for sd in &problem.subdomains {
        b += sd.k.nnz() * 16 + sd.bt.nnz() * 16 + sd.f.len() * 8;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_fem::Gluing;

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
    }

    #[test]
    fn prepare_covers_every_subdomain_and_charges_bytes() {
        let prep = prepare(&spec2d());
        assert_eq!(prep.factors.len(), prep.problem.subdomains.len());
        assert_eq!(prep.factors.len(), 4);
        assert!(prep.bytes > 0, "a real bundle has a positive footprint");
        assert!(prep.operators.is_empty(), "nothing is assembled yet");
    }
}
