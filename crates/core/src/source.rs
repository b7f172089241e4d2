//! Input abstraction of the batched assembly drivers: a [`BatchSource`]
//! yields, per subdomain, the Cholesky factor `L` and the row-permuted
//! gluing block `B̃ᵀ`, both borrowed, and their [`AssemblyShape`]. A slice
//! or vector of [`BatchEntry`]s is a source, and so is a reference to any
//! source. [`BatchItem`](crate::batch::BatchItem)s and owned `(L, B̃ᵀ)`
//! pairs take their shape when asked; the FETI solver's factor bundles hand
//! over the one they keep.

use crate::batch::BatchItemOf;
use crate::plan::AssemblyShape;
use sc_dense::Scalar;
use sc_sparse::CscOf;
use std::borrow::Cow;

/// Per-subdomain input of the batched assembly drivers, in working
/// precision `S` (`f64` by default — every historical `BatchSource` bound
/// resolves unchanged; the mixed-precision session path consumes
/// `BatchSource<f32>` sources built by casting).
///
/// Every accessor is called from any worker thread (hence `Sync`).
pub trait BatchSource<S: Scalar = f64>: Sync {
    /// Number of subdomains in the batch.
    fn len(&self) -> usize;

    /// Whether the batch is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Cholesky factor of subdomain `i` (CSC, diag-first).
    fn factor(&self, i: usize) -> &CscOf<S>;

    /// `B̃ᵢᵀ` of subdomain `i`, rows already permuted into factor order.
    fn gluing(&self, i: usize) -> &CscOf<S>;

    /// The [`AssemblyShape`] of subdomain `i`'s factor and gluing block,
    /// which the drivers ask for once per subdomain; by default taken afresh.
    fn shape(&self, i: usize) -> Cow<'_, AssemblyShape> {
        Cow::Owned(AssemblyShape::of(self.factor(i), self.gluing(i)))
    }
}

/// References to sources are sources (the drivers take them by value).
impl<S: Scalar, T: BatchSource<S> + ?Sized> BatchSource<S> for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn factor(&self, i: usize) -> &CscOf<S> {
        (**self).factor(i)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        (**self).gluing(i)
    }

    fn shape(&self, i: usize) -> Cow<'_, AssemblyShape> {
        (**self).shape(i)
    }
}

/// One subdomain of a slice source.
pub trait BatchEntry<S: Scalar = f64>: Sync {
    /// The Cholesky factor (CSC, diag-first).
    fn factor(&self) -> &CscOf<S>;

    /// `B̃ᵀ`, rows already permuted into factor order.
    fn gluing(&self) -> &CscOf<S>;

    /// The [`AssemblyShape`] of the pair; by default taken afresh.
    fn shape(&self) -> Cow<'_, AssemblyShape> {
        Cow::Owned(AssemblyShape::of(self.factor(), self.gluing()))
    }
}

/// References to entries are entries.
impl<S: Scalar, T: BatchEntry<S> + ?Sized> BatchEntry<S> for &T {
    fn factor(&self) -> &CscOf<S> {
        (**self).factor()
    }

    fn gluing(&self) -> &CscOf<S> {
        (**self).gluing()
    }

    fn shape(&self) -> Cow<'_, AssemblyShape> {
        (**self).shape()
    }
}

impl<S: Scalar> BatchEntry<S> for BatchItemOf<'_, S> {
    fn factor(&self) -> &CscOf<S> {
        self.l
    }

    fn gluing(&self) -> &CscOf<S> {
        self.bt
    }
}

/// Owned `(L, B̃ᵀ)` pairs (the shape bench workloads carry).
impl<S: Scalar> BatchEntry<S> for (CscOf<S>, CscOf<S>) {
    fn factor(&self) -> &CscOf<S> {
        &self.0
    }

    fn gluing(&self) -> &CscOf<S> {
        &self.1
    }
}

impl<S: Scalar, T: BatchEntry<S>> BatchSource<S> for [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn factor(&self, i: usize) -> &CscOf<S> {
        self[i].factor()
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        self[i].gluing()
    }

    fn shape(&self, i: usize) -> Cow<'_, AssemblyShape> {
        self[i].shape()
    }
}

/// A vector is a source wherever its slice is.
impl<S: Scalar, T: Sync> BatchSource<S> for Vec<T>
where
    [T]: BatchSource<S>,
{
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn factor(&self, i: usize) -> &CscOf<S> {
        self.as_slice().factor(i)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        self.as_slice().gluing(i)
    }

    fn shape(&self, i: usize) -> Cow<'_, AssemblyShape> {
        self.as_slice().shape(i)
    }
}
