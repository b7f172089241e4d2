//! Cross-session prepared-state cache: content-addressed symbolic/numeric
//! factorizations and block-cut resolutions, shared by every tenant.
//!
//! The expensive part of a FETI job on a repeated mesh family is not the
//! PCPG iteration — it is the preprocessing: building the decomposition,
//! regularizing and factorizing every subdomain (symbolic analysis +
//! numeric Cholesky) and resolving the stepped block partitions. All of it
//! is a pure function of *(mesh spec, assembly config, precision)*, so the
//! service keys a [`SessionCache`] on a content hash of exactly those
//! inputs and reuses the prepared bundle across jobs, tenants, and client
//! sessions. Determinism of the preprocessing (pinned by the feti crate's
//! bitwise reuse test) makes a warm solve bitwise identical to a cold one.

use std::sync::Arc;

use sc_core::{BlockCutsCache, ContentHasher, SessionCache};
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{FetiOptions, SubdomainFactors};

use crate::protocol::{GluingTag, MeshSpec, PrecisionTag};

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
    /// Shared block-cut resolutions for the explicit assembly kernels;
    /// warmed by the first assembly against this bundle, hit by the rest.
    pub cuts: BlockCutsCache,
    /// Approximate resident size, charged against the cache byte budget.
    pub bytes: usize,
}

/// The cache itself: content key → prepared bundle, byte-budgeted LRU.
pub type PreparedCache = SessionCache<PreparedSession>;

/// Content-address a job's preprocessing inputs.
///
/// Everything that changes the prepared state goes into the hash — mesh
/// spec (dimension, resolution, decomposition, gluing), precision tag, and
/// the factorization options that shape the symbolic analysis. The load
/// `scale` and the backend placement deliberately do **not**: they change
/// where/what is computed downstream, not the factorizations.
pub fn content_key(spec: &MeshSpec, precision: PrecisionTag, opts: &FetiOptions) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str("sc_serve/prepared/v1");
    h.write_u64(u64::from(spec.dim));
    h.write_usize(spec.cells);
    h.write_usize(spec.subs.0);
    h.write_usize(spec.subs.1);
    h.write_usize(spec.subs.2);
    h.write_str(match spec.gluing {
        GluingTag::Redundant => "redundant",
        GluingTag::Chain => "chain",
    });
    h.write_str(match precision {
        PrecisionTag::F64 => "f64",
        PrecisionTag::F32Refined => "f32_refined",
    });
    // Engine/ordering select the symbolic structure; tol/max_iter/precond
    // only steer PCPG and are excluded for the same reason as `scale`.
    h.write_str(&format!("{:?}", opts.engine));
    h.write_str(&format!("{:?}", opts.ordering));
    h.finish()
}

fn gluing_of(tag: GluingTag) -> Gluing {
    match tag {
        GluingTag::Redundant => Gluing::Redundant,
        GluingTag::Chain => Gluing::Chain,
    }
}

/// Build the prepared bundle for a mesh spec — the cold path a cache miss
/// pays once per content key.
pub fn prepare(spec: &MeshSpec, opts: &FetiOptions) -> PreparedSession {
    let problem = if spec.dim == 2 {
        HeatProblem::build_2d(
            spec.cells,
            (spec.subs.0, spec.subs.1),
            gluing_of(spec.gluing),
        )
    } else {
        HeatProblem::build_3d(spec.cells, spec.subs, gluing_of(spec.gluing))
    };
    let factors = SubdomainFactors::build_all(&problem, opts.engine, opts.ordering);
    let cuts = BlockCutsCache::new();
    let bytes = approx_bytes(&problem, &factors, &cuts);
    PreparedSession {
        problem,
        factors,
        cuts,
        bytes,
    }
}

/// Resident-size estimate of a prepared bundle: factor + gluing nonzeros at
/// 16 bytes each (8 value + ~8 amortized index), stiffness nonzeros for the
/// retained problem, plus the block-cut tables.
fn approx_bytes(
    problem: &HeatProblem,
    factors: &[SubdomainFactors],
    cuts: &BlockCutsCache,
) -> usize {
    let mut b = cuts.approx_bytes();
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

    fn spec2d() -> MeshSpec {
        MeshSpec {
            dim: 2,
            cells: 4,
            subs: (2, 2, 1),
            gluing: GluingTag::Redundant,
        }
    }

    #[test]
    fn content_key_separates_every_input() {
        let base = spec2d();
        let opts = FetiOptions::default();
        let k0 = content_key(&base, PrecisionTag::F64, &opts);
        assert_eq!(k0, content_key(&base, PrecisionTag::F64, &opts), "stable");

        let mut cells = base.clone();
        cells.cells = 5;
        let mut subs = base.clone();
        subs.subs = (2, 3, 1);
        let mut glue = base.clone();
        glue.gluing = GluingTag::Chain;
        for (label, other) in [
            ("cells", content_key(&cells, PrecisionTag::F64, &opts)),
            ("subs", content_key(&subs, PrecisionTag::F64, &opts)),
            ("gluing", content_key(&glue, PrecisionTag::F64, &opts)),
            (
                "precision",
                content_key(&base, PrecisionTag::F32Refined, &opts),
            ),
        ] {
            assert_ne!(k0, other, "{label} must change the key");
        }
    }

    #[test]
    fn scale_and_backend_do_not_enter_the_key() {
        // The key is a function of MeshSpec/precision/opts only; BackendTag
        // is not even a parameter. This test documents the contract by
        // constructing the key without any backend in scope.
        let opts = FetiOptions::default();
        let _ = crate::protocol::BackendTag::Cluster;
        let a = content_key(&spec2d(), PrecisionTag::F64, &opts);
        let b = content_key(&spec2d(), PrecisionTag::F64, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn prepare_covers_every_subdomain_and_charges_bytes() {
        let opts = FetiOptions::default();
        let prep = prepare(&spec2d(), &opts);
        assert_eq!(prep.factors.len(), prep.problem.subdomains.len());
        assert_eq!(prep.factors.len(), 4);
        assert!(prep.bytes > 0, "a real bundle has a positive footprint");
    }
}
