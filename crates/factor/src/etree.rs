//! Elimination tree and postorder (Davis, "Direct Methods", §4.1).

use sc_dense::Scalar;
use sc_sparse::CscOf;

/// Sentinel for "no parent" (tree root).
pub const NONE: usize = usize::MAX;

/// Elimination tree of a symmetric matrix given in full-symmetric CSC form
/// (only the upper-triangle entries `i < k` of each column `k` are used;
/// values are never read, so any element scalar is accepted).
///
/// `parent[k] == NONE` marks a root.
pub fn etree<S: Scalar>(a: &CscOf<S>) -> Vec<usize> {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "etree needs a square matrix");
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        let (rows, _) = a.col(k);
        for &row in rows {
            if row >= k {
                break; // sorted rows: rest is lower triangle
            }
            // Walk from `row` to the root of its current subtree, path
            // compressing ancestors to k.
            let mut i = row;
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Depth-first postorder of the forest given by `parent`.
///
/// Children are visited in ascending index order, so the postorder is
/// deterministic.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists (ascending by construction).
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for i in (0..n).rev() {
        let p = parent[i];
        if p != NONE {
            next[i] = head[p];
            head[p] = i;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for (root, &par) in parent.iter().enumerate() {
        if par != NONE {
            continue;
        }
        stack.push(root);
        while let Some(&v) = stack.last() {
            let child = head[v];
            if child == NONE {
                post.push(v);
                stack.pop();
            } else {
                head[v] = next[child];
                stack.push(child);
            }
        }
    }
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::{Coo, Csc};

    /// Arrowhead matrix: every column connected to the last.
    fn arrowhead(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i + 1 < n {
                c.push(i, n - 1, 1.0);
                c.push(n - 1, i, 1.0);
            }
        }
        c.to_csc()
    }

    #[test]
    fn arrowhead_etree_is_star_to_last() {
        let a = arrowhead(5);
        let p = etree(&a);
        assert_eq!(p, vec![4, 4, 4, 4, NONE]);
    }

    #[test]
    fn tridiagonal_etree_is_path() {
        let n = 6;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
                c.push(i + 1, i, -1.0);
            }
        }
        let p = etree(&c.to_csc());
        for (i, &pi) in p.iter().enumerate().take(n - 1) {
            assert_eq!(pi, i + 1);
        }
        assert_eq!(p[n - 1], NONE);
    }

    #[test]
    fn postorder_visits_children_before_parents() {
        let a = arrowhead(5);
        let parent = etree(&a);
        let post = postorder(&parent);
        assert_eq!(post.len(), 5);
        let mut pos = [0usize; 5];
        for (k, &v) in post.iter().enumerate() {
            pos[v] = k;
        }
        for v in 0..5 {
            if parent[v] != NONE {
                assert!(pos[v] < pos[parent[v]], "child after parent");
            }
        }
    }

    #[test]
    fn postorder_handles_forest() {
        // two disconnected paths
        let parent = vec![1, NONE, 3, NONE];
        let post = postorder(&parent);
        assert_eq!(post.len(), 4);
        assert!(post.contains(&0) && post.contains(&2));
    }
}
