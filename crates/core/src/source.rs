//! Input abstraction of the batched assembly drivers: a [`BatchSource`]
//! yields, per subdomain, the Cholesky factor `L` and the row-permuted
//! gluing block `B̃ᵀ`, both borrowed.
//!
//! Slices and vectors of [`BatchItem`](crate::batch::BatchItem)s and of owned
//! `(L, B̃ᵀ)` pairs are sources, and so is a reference to any source;
//! [`AssemblySession::assemble`](crate::AssemblySession::assemble) takes any
//! of them. A caller holding its factors elsewhere (the FETI solver's
//! factor bundles) borrows them into a `Vec<BatchItem>`.

use crate::batch::BatchItemOf;
use sc_dense::Scalar;
use sc_sparse::CscOf;

/// Per-subdomain input of the batched assembly drivers, in working
/// precision `S` (`f64` by default — every historical `BatchSource` bound
/// resolves unchanged; the mixed-precision session path consumes
/// `BatchSource<f32>` sources built by casting).
///
/// Both accessors are cheap borrows, called from any worker thread (hence
/// `Sync`).
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
}

impl<'a, S: Scalar> BatchSource<S> for [BatchItemOf<'a, S>] {
    fn len(&self) -> usize {
        <[BatchItemOf<'a, S>]>::len(self)
    }

    fn factor(&self, i: usize) -> &CscOf<S> {
        self[i].l
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        self[i].bt
    }
}

/// Owned `(L, B̃ᵀ)` pairs (the shape bench workloads carry) are a source
/// too — both matrices borrow from the slice.
impl<S: Scalar> BatchSource<S> for [(CscOf<S>, CscOf<S>)] {
    fn len(&self) -> usize {
        <[(CscOf<S>, CscOf<S>)]>::len(self)
    }

    fn factor(&self, i: usize) -> &CscOf<S> {
        &self[i].0
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        &self[i].1
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
}
