//! Sparse Cholesky factorization substrate.
//!
//! Plays the role of the two sparse solver libraries the paper builds on,
//! as two numeric engines behind one factor representation:
//!
//! - the **supernodal multifrontal** factorization ([`supernodal`], the
//!   default) is the MKL PARDISO analog — relaxed supernodes assembled into
//!   dense fronts and eliminated with Level-3 kernels;
//! - the **simplicial up-looking** factorization ([`simplicial`]) is the
//!   CHOLMOD analog — scalar, one row at a time; it shares no numeric code
//!   with the other engine and is the reference it is tested against.
//!
//! Both write the same thing: `L` as a plain CSC matrix with exactly the
//! pattern of the shared [`symbolic`] analysis (elimination tree + factor
//! pattern). So the factor can always be borrowed and handed to the GPU
//! Schur assembler (the property the paper needs from CHOLMOD, §4), every
//! triangular solve is `sc_sparse`'s CSC solve, and nothing downstream
//! depends on the engine. The symbolic/numeric split mirrors §2.2:
//! multi-step simulations pay the analysis — and the supernodal engine's
//! front partition — once.
//!
//! [`schur`] implements the *sparse-RHS* Schur complement — forward solves
//! restricted to the elimination-tree reach of each right-hand-side column —
//! which stands in for PARDISO's augmented incomplete factorization
//! (`expl_mkl` in the paper's Figure 9).

pub mod etree;
pub mod schur;
pub mod simplicial;
pub mod solver;
pub mod supernodal;
pub mod symbolic;

pub use etree::{etree, postorder};
pub use schur::{schur_from_factor, sparse_solve_reach};
pub use simplicial::{simplicial_factorize, FactorError};
pub use solver::{CholOptions, Engine, SparseCholesky, SparseCholeskyOf};
pub use supernodal::{supernodal_factorize, SupernodalSymbolic};
pub use symbolic::Symbolic;
