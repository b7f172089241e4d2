//! Sparse matrix substrate: COO/CSC storage, conversions, permutations,
//! triangular solves, and pattern analysis.
//!
//! Conventions used throughout the workspace:
//!
//! - **CSC** ([`Csc`]) is the primary format for factors and for the gluing
//!   matrix `B̃ᵀ` (whose columns correspond to Lagrange multipliers). Row
//!   indices inside each column are stored sorted.
//! - There is no row-major format: the row-oriented products of the dual
//!   operator (`B̃ x`) run through `sc_feti`'s binned boundary map, and
//!   [`CscOf::spmv_t`] covers the rest.
//! - Symmetric matrices (FEM stiffness) are stored with **both** triangles so
//!   that SpMV, graph adjacency, and upper-triangle access for the symbolic
//!   factorization all come from one structure.
//! - Permutations are carried by [`Perm`], which stores both directions of the
//!   mapping to keep `old→new`/`new→old` confusion out of call sites.

pub mod coo;
pub mod csc;
pub mod pattern;
pub mod perm;
pub mod trisolve;

pub use coo::{Coo, CooOf};
pub use csc::{Csc, CscOf, CscPattern, CscView};
pub use pattern::{column_pivots, is_stepped, stepped_fill_ratio, RowClosure};
pub use perm::Perm;
pub use trisolve::{
    csc_lower_solve, csc_lower_solve_mat, csc_lower_t_solve, fundamental_supernodes,
    supernodal_lower_solve, supernodal_lower_t_solve, SupernodeRuns,
};
