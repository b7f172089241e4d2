//! Permutations carried with both directions of the mapping.

/// A permutation of `0..n` storing `old_of_new` (the order in which old
/// indices appear) and its inverse `new_of_old`.
///
/// With `p = old_of_new`, the permuted object satisfies
/// `permuted[i_new] = original[p[i_new]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Perm {
    old_of_new: Vec<usize>,
    new_of_old: Vec<usize>,
}

impl Perm {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Perm {
            old_of_new: (0..n).collect(),
            new_of_old: (0..n).collect(),
        }
    }

    /// Build from the `old_of_new` direction; validates that the input is a
    /// permutation.
    pub fn from_old_of_new(old_of_new: Vec<usize>) -> Self {
        let n = old_of_new.len();
        let mut new_of_old = vec![usize::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            assert!(old < n, "index out of range");
            assert!(new_of_old[old] == usize::MAX, "duplicate index {old}");
            new_of_old[old] = new;
        }
        Perm {
            old_of_new,
            new_of_old,
        }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.old_of_new.len()
    }

    /// True iff the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.old_of_new.is_empty()
    }

    /// Old index at new position `i`.
    #[inline]
    pub fn old_of_new(&self, i: usize) -> usize {
        self.old_of_new[i]
    }

    /// New position of old index `i`.
    #[inline]
    pub fn new_of_old(&self, i: usize) -> usize {
        self.new_of_old[i]
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Perm {
        Perm {
            old_of_new: self.new_of_old.clone(),
            new_of_old: self.old_of_new.clone(),
        }
    }

    /// Composition: apply `self` first, then `other` (`result.old_of_new(i) =
    /// self.old_of_new(other.old_of_new(i))`).
    pub fn then(&self, other: &Perm) -> Perm {
        assert_eq!(self.len(), other.len());
        let old_of_new: Vec<usize> = (0..self.len())
            .map(|i| self.old_of_new(other.old_of_new(i)))
            .collect();
        Perm::from_old_of_new(old_of_new)
    }

    /// Apply to a vector: `out[new] = v[old_of_new(new)]`. Generic over the
    /// element type so mixed-precision paths can permute `f32` data.
    pub fn apply<S: Copy>(&self, v: &[S]) -> Vec<S> {
        assert_eq!(v.len(), self.len());
        self.old_of_new.iter().map(|&o| v[o]).collect()
    }

    /// Apply the inverse to a vector: `out[old] = v[new_of_old(old)]`.
    pub fn apply_inverse<S: Copy>(&self, v: &[S]) -> Vec<S> {
        assert_eq!(v.len(), self.len());
        self.new_of_old.iter().map(|&nw| v[nw]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_directions() {
        let p = Perm::from_old_of_new(vec![2, 0, 3, 1]);
        for i in 0..4 {
            assert_eq!(p.new_of_old(p.old_of_new(i)), i);
            assert_eq!(p.old_of_new(p.new_of_old(i)), i);
        }
    }

    #[test]
    fn apply_and_inverse_cancel() {
        let p = Perm::from_old_of_new(vec![1, 3, 0, 2]);
        let v = vec![10.0, 11.0, 12.0, 13.0];
        let w = p.apply(&v);
        assert_eq!(w, vec![11.0, 13.0, 10.0, 12.0]);
        assert_eq!(p.apply_inverse(&w), v);
    }

    #[test]
    fn inverse_swaps() {
        let p = Perm::from_old_of_new(vec![1, 2, 0]);
        let q = p.inverse();
        for i in 0..3 {
            assert_eq!(q.old_of_new(i), p.new_of_old(i));
        }
    }

    #[test]
    fn composition_applies_in_order() {
        let p = Perm::from_old_of_new(vec![1, 0, 2]);
        let q = Perm::from_old_of_new(vec![2, 1, 0]);
        let r = p.then(&q);
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(r.apply(&v), q.apply(&p.apply(&v)));
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn rejects_non_permutation() {
        Perm::from_old_of_new(vec![0, 0, 1]);
    }
}
