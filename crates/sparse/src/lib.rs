//! Sparse matrix substrate: COO/CSC/CSR storage, conversions, permutations,
//! triangular solves, and pattern analysis.
//!
//! Conventions used throughout the workspace:
//!
//! - **CSC** ([`Csc`]) is the primary format for factors and for the gluing
//!   matrix `B̃ᵀ` (whose columns correspond to Lagrange multipliers). Row
//!   indices inside each column are stored sorted.
//! - **CSR** ([`Csr`]) serves row-oriented products (`B x`, SpMV in the
//!   implicit dual operator).
//! - Symmetric matrices (FEM stiffness) are stored with **both** triangles so
//!   that SpMV, graph adjacency, and upper-triangle access for the symbolic
//!   factorization all come from one structure.
//! - Permutations are carried by [`Perm`], which stores both directions of the
//!   mapping to keep `old→new`/`new→old` confusion out of call sites.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod pattern;
pub mod perm;
pub mod trisolve;

pub use coo::{Coo, CooOf};
pub use csc::{Csc, CscOf};
pub use csr::{Csr, CsrOf};
pub use pattern::{column_pivots, is_stepped, stepped_fill_ratio, RowClosure};
pub use perm::Perm;
pub use trisolve::{
    csc_lower_solve, csc_lower_solve_mat, csc_lower_t_solve, fundamental_supernodes,
    supernodal_lower_solve, supernodal_lower_t_solve, SupernodeRuns,
};
