//! Input of the batched assembly drivers: a slice of [`BatchEntry`]s, each
//! one subdomain's Cholesky factor `L` and row-permuted gluing block `B̃ᵀ`,
//! both borrowed, and their [`AssemblyShape`]. Owned `(L, B̃ᵀ)` pairs and
//! references to entries are entries and take their shape when asked; the
//! FETI solver's factor bundles hand over the one they keep.

use crate::plan::AssemblyShape;
use sc_sparse::Csc;
use std::borrow::Cow;

/// One subdomain of the batched assembly.
///
/// Every accessor is called from any worker thread (hence `Sync`).
pub trait BatchEntry: Sync {
    /// The Cholesky factor (CSC, diag-first).
    fn factor(&self) -> &Csc;

    /// `B̃ᵀ`, rows already permuted into factor order.
    fn gluing(&self) -> &Csc;

    /// The [`AssemblyShape`] of the pair, which the drivers ask for once
    /// per subdomain; by default taken afresh.
    fn shape(&self) -> Cow<'_, AssemblyShape> {
        Cow::Owned(AssemblyShape::of(self.factor(), self.gluing()))
    }
}

/// References to entries are entries (a share of a batch is a `Vec` of
/// them).
impl<T: BatchEntry + ?Sized> BatchEntry for &T {
    fn factor(&self) -> &Csc {
        (**self).factor()
    }

    fn gluing(&self) -> &Csc {
        (**self).gluing()
    }

    fn shape(&self) -> Cow<'_, AssemblyShape> {
        (**self).shape()
    }
}

/// Owned `(L, B̃ᵀ)` pairs (the shape bench workloads carry).
impl BatchEntry for (Csc, Csc) {
    fn factor(&self) -> &Csc {
        &self.0
    }

    fn gluing(&self) -> &Csc {
        &self.1
    }
}
