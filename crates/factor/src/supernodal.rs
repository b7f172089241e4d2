//! Multifrontal Cholesky over relaxed supernodes (the MKL PARDISO stand-in,
//! and the default numeric engine).
//!
//! The symbolic side ([`SupernodalSymbolic`]) starts from the fundamental
//! supernodes of a [`Symbolic`] analysis and amalgamates a child into its
//! assembly-tree parent while the merged front stays small or nearly full
//! (CHOLMOD's relaxation thresholds, `RELAX`). A front is then an ascending
//! list of pivot columns — not necessarily contiguous — followed by the
//! ascending below-diagonal rows of its last pivot.
//!
//! The numeric side ([`supernodal_factorize`]) walks the fronts in postorder
//! with one dense front buffer and one LIFO stack of packed update
//! triangles, both sized by the symbolic side, eliminates each front's
//! pivots with [`sc_dense::partial_cholesky_in_place`], and copies each
//! pivot column's *symbolic* rows into a CSC factor with exactly the
//! [`Symbolic`] pattern. The explicit zeros the amalgamation introduces live
//! only in the front buffer, so the result is interchangeable with
//! [`crate::simplicial_factorize`]'s — same pattern, values equal up to
//! rounding.

use crate::etree::{postorder, NONE};
use crate::simplicial::FactorError;
use crate::symbolic::Symbolic;
use sc_dense::{partial_cholesky_in_place, MatMutOf, Scalar};
use sc_sparse::{fundamental_supernodes, CscOf};
use std::sync::Arc;

/// Relaxed amalgamation thresholds `(max pivots, max percentage of explicit
/// zeros)` (CHOLMOD's defaults): a child merges into its parent when the
/// merged front meets any row. Small fronts merge whatever they cost —
/// per-front overhead dominates there — large ones only when nearly full.
const RELAX: [(usize, usize); 4] = [(4, 100), (16, 80), (48, 10), (usize::MAX, 5)];

/// Whether a front of `pivots` columns over `tail` further rows that holds
/// `nnz` structural factor entries is an acceptable merge under [`RELAX`].
fn relaxed(pivots: usize, tail: usize, nnz: usize) -> bool {
    let stored = pivots * (pivots + 1) / 2 + pivots * tail;
    let zeros = stored - nnz;
    RELAX
        .iter()
        .any(|&(max_pivots, percent)| pivots <= max_pivots && 100 * zeros < percent * stored)
}

/// Relaxed-supernode partition of the columns into fronts, numbered in
/// assembly-tree postorder (children before parents), plus the buffer sizes
/// the numeric phase needs.
#[derive(Clone, Debug)]
pub struct SupernodalSymbolic {
    /// Front `f` owns `cols[front_ptr[f]..front_ptr[f + 1]]`.
    front_ptr: Vec<usize>,
    /// Pivot columns, ascending within each front.
    cols: Vec<usize>,
    /// Assembly-tree parent of each front (`NONE` for roots).
    parent: Vec<usize>,
    /// Where each front's packed update triangle sits on the update stack.
    update_at: Vec<usize>,
    /// Order of the largest front.
    max_front: usize,
    /// High-water mark of the update stack, in scalars.
    stack_peak: usize,
}

impl SupernodalSymbolic {
    /// Number of fronts.
    pub fn nfronts(&self) -> usize {
        self.parent.len()
    }

    /// Pivot columns of front `f`, ascending.
    pub fn cols(&self, f: usize) -> &[usize] {
        &self.cols[self.front_ptr[f]..self.front_ptr[f + 1]]
    }

    /// Non-pivot rows of front `f`, ascending: the below-diagonal pattern of
    /// its last pivot column. `sym` must be the analysis `self` was built
    /// from.
    pub fn tail<'a>(&self, f: usize, sym: &'a Symbolic) -> &'a [usize] {
        &sym.col(self.cols[self.front_ptr[f + 1] - 1])[1..]
    }

    /// Assembly-tree parent of front `f` (`None` for a root). Always larger
    /// than `f`.
    pub fn parent(&self, f: usize) -> Option<usize> {
        Some(self.parent[f]).filter(|&p| p != NONE)
    }

    /// Build from a symbolic analysis: fundamental supernodes, relaxed
    /// amalgamation along the assembly tree, postorder numbering.
    pub fn from_symbolic(sym: &Symbolic) -> Self {
        let n = sym.n;
        let count = |j: usize| sym.col_ptr()[j + 1] - sym.col_ptr()[j];
        // fundamental supernodes: runs of columns with nested patterns (the
        // ones the triangular solves block over)
        let mut snode_of_col = Vec::with_capacity(n);
        let mut last_col = Vec::new();
        for run in fundamental_supernodes(sym.col_ptr(), sym.row_idx()) {
            snode_of_col.resize(run.end, last_col.len());
            last_col.push(run.end - 1);
        }
        let nsuper = last_col.len();
        let sparent: Vec<usize> = last_col
            .iter()
            .map(|&c| match sym.parent[c] {
                NONE => NONE,
                p => snode_of_col[p],
            })
            .collect();

        // relaxed amalgamation: supernodes in ascending order, so every
        // group is complete before it is offered to its (still unmerged)
        // parent; a group is named by its topmost member
        let mut pivots = vec![0usize; nsuper];
        let mut nnz = vec![0usize; nsuper];
        for (j, &s) in snode_of_col.iter().enumerate() {
            pivots[s] += 1;
            nnz[s] += count(j);
        }
        let mut top = vec![NONE; nsuper];
        for s in 0..nsuper {
            let ss = sparent[s];
            if ss == NONE {
                continue;
            }
            let (p, z) = (pivots[s] + pivots[ss], nnz[s] + nnz[ss]);
            if relaxed(p, count(last_col[ss]) - 1, z) {
                (pivots[ss], nnz[ss], top[s]) = (p, z, ss);
            }
        }
        for s in (0..nsuper).rev() {
            top[s] = match top[s] {
                NONE => s,
                ss => top[ss],
            };
        }

        // fronts = groups, numbered in postorder of the merged tree
        let tops: Vec<usize> = (0..nsuper).filter(|&s| top[s] == s).collect();
        let mut group = vec![NONE; nsuper];
        for (g, &s) in tops.iter().enumerate() {
            group[s] = g;
        }
        let gparent: Vec<usize> = tops
            .iter()
            .map(|&s| match sparent[s] {
                NONE => NONE,
                ss => group[top[ss]],
            })
            .collect();
        let post = postorder(&gparent);
        let nfronts = post.len();
        let mut front_of = vec![0usize; nfronts];
        let mut front_ptr = vec![0usize; nfronts + 1];
        for (f, &g) in post.iter().enumerate() {
            front_of[g] = f;
            front_ptr[f + 1] = front_ptr[f] + pivots[tops[g]];
        }
        let parent: Vec<usize> = post
            .iter()
            .map(|&g| match gparent[g] {
                NONE => NONE,
                pg => front_of[pg],
            })
            .collect();
        let mut next = front_ptr.clone();
        let mut cols = vec![0usize; n];
        for (j, &s) in snode_of_col.iter().enumerate() {
            let f = front_of[group[top[s]]];
            cols[next[f]] = j;
            next[f] += 1;
        }

        // lay out the update stack: in postorder a front's children are the
        // topmost live updates, and its own update takes their place
        let mut ssym = SupernodalSymbolic {
            front_ptr,
            cols,
            parent,
            update_at: vec![0; nfronts],
            max_front: 0,
            stack_peak: 0,
        };
        let mut live: Vec<usize> = Vec::new();
        let mut sp = 0;
        for f in 0..nfronts {
            let t = ssym.tail(f, sym).len();
            ssym.max_front = ssym.max_front.max(ssym.cols(f).len() + t);
            while let Some(ch) = live.pop_if(|ch| ssym.parent[*ch] == f) {
                sp = ssym.update_at[ch];
            }
            if t > 0 {
                live.push(f);
                ssym.update_at[f] = sp;
                sp += t * (t + 1) / 2;
                ssym.stack_peak = ssym.stack_peak.max(sp);
            }
        }
        ssym
    }
}

/// Numeric multifrontal factorization of the (permuted, full-symmetric)
/// matrix `a`: `L` as CSC with exactly the pattern of `sym`. On breakdown
/// the error names the first non-positive or non-finite pivot met in
/// postorder.
pub fn supernodal_factorize<S: Scalar>(
    a: &CscOf<S>,
    sym: &Symbolic,
    ssym: &SupernodalSymbolic,
) -> Result<CscOf<S>, FactorError> {
    let n = sym.n;
    assert_eq!(a.ncols(), n);
    assert_eq!(a.nrows(), n);
    let mut values = vec![S::ZERO; sym.nnz()];
    let mut front = vec![S::ZERO; ssym.max_front * ssym.max_front];
    // packed lower triangles of the updates waiting for their parent, at
    // `ssym.update_at`; a front's children are always the topmost live ones
    let mut stack = vec![S::ZERO; ssym.stack_peak];
    let mut live: Vec<usize> = Vec::with_capacity(ssym.nfronts());
    let mut pos = vec![0usize; n]; // global row -> front-local index
    let mut rel = vec![0usize; ssym.max_front]; // child tail -> front-local

    for f in 0..ssym.nfronts() {
        let cols = ssym.cols(f);
        let tail = ssym.tail(f, sym);
        let (p, nr) = (cols.len(), cols.len() + tail.len());
        for (local, &g) in cols.iter().chain(tail).enumerate() {
            pos[g] = local;
        }
        // a stale `pos` entry would silently misplace a row: every row
        // scattered below must map back to itself
        let in_front = |g: usize| cols.iter().chain(tail).nth(pos[g]) == Some(&g);
        let front = &mut front[..nr * nr];
        // only the lower triangle is ever read; the rest keeps stale data
        for j in 0..nr {
            front[j * nr + j..(j + 1) * nr].fill(S::ZERO);
        }
        // scatter the lower-triangle entries of A's pivot columns
        for (col, &c) in front.chunks_exact_mut(nr).zip(cols) {
            let (rows, vals) = a.col(c);
            let lower = rows.partition_point(|&i| i < c);
            for (&i, &v) in rows[lower..].iter().zip(&vals[lower..]) {
                debug_assert!(in_front(i), "entry of A outside the front");
                col[pos[i]] = v;
            }
        }
        // extend-add the children's update triangles, oldest first
        let first_child = live
            .iter()
            .rposition(|&ch| ssym.parent[ch] != f)
            .map_or(0, |i| i + 1);
        for &ch in &live[first_child..] {
            let ctail = ssym.tail(ch, sym);
            let rel = &mut rel[..ctail.len()];
            for (r, &g) in rel.iter_mut().zip(ctail) {
                debug_assert!(in_front(g), "child update row outside the front");
                *r = pos[g];
            }
            let mut update = &stack[ssym.update_at[ch]..];
            for (bj, &cj) in rel.iter().enumerate() {
                let (ucol, rest) = update.split_at(rel.len() - bj);
                let col = &mut front[cj * nr..(cj + 1) * nr];
                for (&ri, &u) in rel[bj..].iter().zip(ucol) {
                    col[ri] += u;
                }
                update = rest;
            }
        }
        live.truncate(first_child);
        // eliminate the pivots
        partial_cholesky_in_place(MatMutOf::from_parts(nr, nr, nr, front), p).map_err(|e| {
            FactorError {
                column: cols[e.pivot],
                value: e.value,
            }
        })?;
        // keep the symbolic rows of each pivot column
        for (col, &c) in front.chunks_exact(nr).zip(cols) {
            let span = sym.col_ptr()[c]..sym.col_ptr()[c + 1];
            for (dst, &g) in values[span.clone()].iter_mut().zip(&sym.row_idx()[span]) {
                *dst = col[pos[g]];
            }
        }
        // stack the update triangle for the parent
        if nr > p {
            live.push(f);
            let mut at = ssym.update_at[f];
            for j in p..nr {
                let src = &front[j * nr + j..(j + 1) * nr];
                stack[at..at + src.len()].copy_from_slice(src);
                at += src.len();
            }
        }
    }
    Ok(CscOf::from_pattern(n, n, Arc::clone(sym.pattern()), values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::analyze;
    use sc_sparse::Coo;

    #[test]
    fn relaxation_thresholds() {
        // four pivots merge whatever the zero share
        assert!(relaxed(4, 100, 4));
        // 16 pivots: < 80 % zeros
        assert!(relaxed(16, 0, 16 * 17 / 2 / 4));
        assert!(!relaxed(16, 0, 16));
        // 48 pivots: < 10 %; beyond: < 5 %
        assert!(!relaxed(48, 0, 48 * 49 / 2 * 8 / 10));
        assert!(relaxed(49, 0, 49 * 50 / 2 * 96 / 100));
        assert!(!relaxed(49, 0, 49 * 50 / 2 * 94 / 100));
    }

    #[test]
    fn buffers_cover_a_chain_and_a_star() {
        // tridiagonal: one chain; arrowhead: n - 1 leaves under one root
        for star in [false, true] {
            let n = 40;
            let mut c = Coo::new(n, n);
            for i in 0..n {
                c.push(i, i, n as f64);
                let j = if star { n - 1 } else { i + 1 };
                if i + 1 < n {
                    c.push(i, j, -1.0);
                    c.push(j, i, -1.0);
                }
            }
            let a = c.to_csc();
            let sym = analyze(&a);
            let ssym = SupernodalSymbolic::from_symbolic(&sym);
            assert!(ssym.max_front <= n && ssym.max_front >= 2);
            let l = supernodal_factorize(&a, &sym, &ssym).unwrap();
            let ls = crate::simplicial_factorize(&a, &sym).unwrap();
            let d = sc_dense::max_abs_diff(l.to_dense().as_ref(), ls.to_dense().as_ref());
            assert!(d < 1e-14, "star={star}: {d}");
        }
    }
}
