//! Cross-session prepared-state cache: content-addressed symbolic/numeric
//! factorizations, shared by every tenant.
//!
//! The expensive part of a FETI job on a repeated mesh family is not the
//! PCPG iteration — it is the preprocessing: building the decomposition and
//! regularizing and factorizing every subdomain (symbolic analysis +
//! numeric Cholesky). All of it is a pure function of *(mesh spec,
//! assembly config, precision)*, so the service keys a [`SessionCache`] on
//! a content hash of exactly those inputs and reuses the prepared bundle
//! across jobs, tenants, and client sessions. Determinism of the preprocessing (pinned by the feti crate's
//! bitwise reuse test) makes a warm solve bitwise identical to a cold one.

use std::sync::Arc;

use sc_core::{ContentHasher, SessionCache};
use sc_fem::HeatProblem;
use sc_feti::{FetiOptions, SubdomainFactors};

use crate::protocol::{MeshSpec, PrecisionTag, WireName};

/// Everything preprocessing produces for one mesh/config/precision key.
///
/// Values are handed out as `Arc<PreparedSession>` from the cache, so an
/// in-flight job keeps its bundle alive even if the entry is evicted
/// mid-run (the LRU-correctness test pins this).
pub struct PreparedSession {
    /// The decomposed problem (mesh, gluing, loads).
    pub problem: HeatProblem,
    /// Per-subdomain regularized factorizations, `Arc`-shared so they plug
    /// straight into [`sc_feti::FetiSolverBuilder::factors`].
    pub factors: Arc<Vec<SubdomainFactors>>,
    /// Approximate resident size, charged against the cache byte budget.
    pub bytes: usize,
}

/// The cache itself: content key → prepared bundle, byte-budgeted LRU.
pub type PreparedCache = SessionCache<PreparedSession>;

/// Content-address a job's preprocessing inputs.
///
/// Everything that changes the prepared state goes into the hash — mesh
/// spec (dimension, resolution, decomposition, gluing) and precision tag.
/// The load `scale` and the backend placement deliberately do **not**: they
/// change where/what is computed downstream, not the factorizations. The
/// factorization options are the service-wide [`FetiOptions::default`].
pub fn content_key(spec: &MeshSpec, precision: PrecisionTag) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str("sc_serve/prepared/v1");
    h.write_u64(u64::from(spec.dim));
    h.write_usize(spec.cells);
    h.write_usize(spec.subs.0);
    h.write_usize(spec.subs.1);
    h.write_usize(spec.subs.2);
    h.write_str(spec.gluing.name());
    h.write_str(precision.name());
    h.finish()
}

/// Build the prepared bundle for a mesh spec — the cold path a cache miss
/// pays once per content key.
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
        problem,
        factors,
        bytes,
    }
}

/// Resident-size estimate of a prepared bundle: factor + gluing nonzeros at
/// 16 bytes each (8 value + ~8 amortized index), plus stiffness nonzeros for
/// the retained problem.
fn approx_bytes(problem: &HeatProblem, factors: &[SubdomainFactors]) -> usize {
    let mut b = 0;
    for f in factors {
        // L's own values + row indices; the per-class shared analysis is uncharged
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
        let base = spec2d();
        let k0 = content_key(&base, PrecisionTag::F64);
        assert_eq!(k0, content_key(&base, PrecisionTag::F64), "stable");

        let mut cells = base.clone();
        cells.cells = 5;
        let mut subs = base.clone();
        subs.subs = (2, 3, 1);
        let mut glue = base.clone();
        glue.gluing = Gluing::Chain;
        for (label, other) in [
            ("cells", content_key(&cells, PrecisionTag::F64)),
            ("subs", content_key(&subs, PrecisionTag::F64)),
            ("gluing", content_key(&glue, PrecisionTag::F64)),
            ("precision", content_key(&base, PrecisionTag::F32Refined)),
        ] {
            assert_ne!(k0, other, "{label} must change the key");
        }
    }

    #[test]
    fn scale_and_backend_do_not_enter_the_key() {
        // The key is a function of MeshSpec/precision only; BackendTag is
        // not even a parameter. This test documents the contract by
        // constructing the key without any backend in scope.
        let _ = crate::protocol::BackendTag::Cluster;
        let a = content_key(&spec2d(), PrecisionTag::F64);
        let b = content_key(&spec2d(), PrecisionTag::F64);
        assert_eq!(a, b);
    }

    #[test]
    fn prepare_covers_every_subdomain_and_charges_bytes() {
        let prep = prepare(&spec2d());
        assert_eq!(prep.factors.len(), prep.problem.subdomains.len());
        assert_eq!(prep.factors.len(), 4);
        assert!(prep.bytes > 0, "a real bundle has a positive footprint");
    }
}
