//! The explicit assembly (paper §3) as a shape, a cut and a numeric phase.
//!
//! An [`AssemblyShape`] is what the assembly of one subdomain's `F̃` knows
//! from `(pattern(L), pattern(B̃ᵀ))` alone: the [`RowClosure`] of `B̃ᵀ`'s rows
//! (outside which `L⁻¹B̃ᵀ` is 0), and the stepped permutation of `B̃ᵀ`'s
//! columns with its pivots in closure rows. It takes no parameter, so it is
//! built once per subdomain, beside the factor (the FETI bundles keep
//! theirs). [`AssemblyPlan::cut`] turns it into an [`AssemblyPlan`] for one
//! resolved [`ScParams`]: the closure's column offsets into `L` and its row
//! renumbering, and from the pivots each TRSM block's width, split offsets
//! and live rows and the SYRK cuts, and so the launch list.
//! [`AssemblyPlan::launches`] prices that list without allocating anything:
//! it is what every backend consumes ([`Exec::submit`]), and the numeric
//! phase runs only when the backend computes.
//!
//! The TRSM solves `L Y = B̃ᵀ` in place on the dense stepped `Y`. The
//! baseline ([`TrsmVariant::Plain`]) is the original algorithm of \[9\]: one
//! solve with the whole factor. **Factor splitting** (Figure 3b) blocks the
//! factor along the diagonal: per block a solve restricted to the active
//! right-hand sides, then the update of the rows below, optionally
//! **pruned** to the panel's non-empty rows before a dense GEMM. The SYRK's
//! **input splitting** (Figure 4a) cuts `Y` into block rows, each non-zero
//! in its leading `w` columns only, so one SYRK updates the leading `w × w`
//! block of `F̃`. The paper's RHS splitting and output splitting are
//! deliberately absent: on every benchmark mesh they lose to these or are
//! within 0.5 % of them (the Table 1 search recorded in ROADMAP.md).
//!
//! The numeric phase ([`AssemblyPlan::assemble`]) walks the same launch
//! list and takes no backend. It reads `L`'s values in place through
//! [`CscView`]s: every stored row of a kept column is kept, so each column
//! of the closure's factor `L_c` is a contiguous slice of `L`. It drops `Y`
//! after the SYRK and writes the packed lower triangle of `F̃` in the
//! original multiplier order straight from the SYRK output. Neither the
//! shape nor the plan holds a value or a row index of `L`. The assembly is
//! `f64` throughout; the refined solve demotes the assembled triangle for
//! its inner applies afterwards.

use crate::assemble::ScParams;
use crate::exec::Exec;
use crate::stepped::{stepped_order, SteppedRhs};
use crate::tune::{resolve_block, BlockParam};
use sc_dense::{Mat, SymPackedOf, Trans};
use sc_gpu::KernelCost;
use sc_sparse::{pattern, Csc, CscView, Perm, RowClosure};

/// Storage format for the triangular factor inside TRSM kernels
/// ("factor storage" in the paper's §3.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FactorStorage {
    /// Keep factor (blocks) in CSC and call sparse kernels. Optimal for the
    /// very sparse 2D factors.
    #[default]
    Sparse,
    /// Densify the factor (blocks) and call dense kernels. Optimal in 3D.
    Dense,
}

/// TRSM algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsmVariant {
    /// Original algorithm of \[9\]: single TRSM over the whole factor.
    Plain,
    /// Factor splitting with the given factor-block parameter; `prune`
    /// compacts empty rows out of sub-diagonal blocks before the GEMM.
    FactorSplit {
        /// Diagonal block partition.
        block: BlockParam,
        /// Enable empty-row pruning for the GEMM update.
        prune: bool,
    },
}

/// SYRK algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyrkVariant {
    /// Original algorithm of \[9\]: one SYRK over the full `Y`.
    Plain,
    /// Input-matrix splitting into block rows.
    InputSplit(BlockParam),
}

/// Row blocks `(r0, r1, width)` of a stepped `rows × m` matrix with these
/// pivots: without a `block` one over all of it; split, `block`'s cuts, each
/// as wide as the columns pivoting above its end ("the width ... is dictated
/// by the right-most non-zero"), the empty ones dropped.
fn row_blocks(
    pivots: &[usize],
    rows: usize,
    m: usize,
    block: Option<BlockParam>,
) -> Vec<(usize, usize, usize)> {
    let Some(block) = block else {
        return vec![(0, rows, m)];
    };
    let width = |r1: usize| pivots.partition_point(|&p| p < r1);
    let cuts = resolve_block(block, rows);
    let blocks = cuts.windows(2).map(|w| (w[0], w[1], width(w[1])));
    blocks.filter(|&(.., width)| width > 0).collect()
}

/// One TRSM block: closure rows and columns `r0..r1`, the leading `width`
/// columns of `Y`.
#[derive(Clone, Debug)]
struct TrsmBlock {
    r0: usize,
    r1: usize,
    width: usize,
    /// Pruning: the panel's rows holding an entry, relative to `r1`.
    live: Vec<usize>,
}

/// One TRSM launch: [`AssemblyPlan::cost`] prices it,
/// [`AssemblyPlan::solve`] executes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Dense copy of block `b`'s diagonal block (`below`: of its panel).
    Densify {
        b: usize,
        below: bool,
    },
    /// Solve with block `b`'s diagonal block.
    Solve(usize),
    /// Copy of block `b`'s rows of `Y`, the right operand of the update.
    CopyTop(usize),
    /// `Y[r1.., ..] -= panel · Y[r0..r1, ..]`, sparse or dense.
    Update(usize),
    /// Pruning: the panel's live rows gathered dense, their product with
    /// block `b`'s rows of `Y`, and its scatter-subtraction.
    GatherLive(usize),
    GemmLive(usize),
    ScatterLive(usize),
}

/// The SYRK launches over `Y`'s row blocks (`(r0, r1, width)`, see
/// [`row_blocks`]). Input splitting accumulates into a zeroed `F̃`, the
/// plain SYRK overwrites it.
#[derive(Clone, Debug)]
struct SyrkPlan {
    cuts: Vec<(usize, usize, usize)>,
    accumulates: bool,
}

impl SyrkPlan {
    fn new(pivots: &[usize], rows: usize, m: usize, variant: SyrkVariant) -> Self {
        let block = match variant {
            SyrkVariant::Plain => None,
            SyrkVariant::InputSplit(block) => Some(block),
        };
        let cuts = row_blocks(pivots, rows, m, block);
        SyrkPlan {
            cuts,
            accumulates: block.is_some(),
        }
    }

    fn launches(&self) -> impl Iterator<Item = KernelCost> + '_ {
        let cuts = self.cuts.iter();
        cuts.map(|&(r0, r1, width)| KernelCost::syrk_of::<f64>(width, r1 - r0))
    }

    /// Each cut: `F̃[..w, ..w] (+)= Y[r0..r1, ..w]ᵀ Y[r0..r1, ..w]`.
    fn run(&self, y: &Mat, f: &mut Mat) {
        let beta = if self.accumulates { 1.0 } else { 0.0 };
        for &(r0, r1, width) in &self.cuts {
            let a = y.as_ref().sub(r0, 0, r1 - r0, width);
            sc_dense::syrk_t(1.0, a, beta, f.as_mut().into_sub(0, 0, width, width));
        }
    }
}

/// The parameter-free pattern data of one subdomain's explicit assembly
/// (module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssemblyShape {
    /// Stored entries of `L` and of `B̃ᵀ`.
    nnz_l: usize,
    nnz_bt: usize,
    closure: RowClosure,
    /// Column `j`'s first row, an `L` row (`n` when the column is empty).
    raw: Vec<usize>,
    /// Stepped column `s` is column `order.old_of_new(s)`, whose pivot is
    /// closure row `pivots[s]` (the closure's order when empty).
    order: Perm,
    pivots: Vec<usize>,
}

impl AssemblyShape {
    /// The shape of `l` (CSC, diagonal first, fill-reducing order) and `bt`
    /// (rows already in `l`'s order). Reads no values.
    pub fn of(l: &Csc, bt: &Csc) -> Self {
        assert_eq!(bt.nrows(), l.ncols(), "B̃ᵀ rows must live in factor space");
        let closure = RowClosure::of(l, bt.row_idx());
        let raw = pattern::pivots_or_end(bt);
        let (order, sorted) = stepped_order(&raw);
        // every pivot is a closure row; the empty columns' `n` maps past
        // the last one
        let cols = closure.cols();
        let pivots = sorted.iter().map(|&p| cols.partition_point(|&j| j < p));
        AssemblyShape {
            nnz_l: l.nnz(),
            nnz_bt: bt.nnz(),
            pivots: pivots.collect(),
            closure,
            raw,
            order,
        }
    }

    /// The closure of `B̃ᵀ`'s rows in `L`: the columns the stepped assembly
    /// solves with, and those Eq. 11's sweeps visit.
    pub fn closure(&self) -> &RowClosure {
        &self.closure
    }
}

/// One subdomain's explicit assembly under one resolved [`ScParams`]: its
/// [`AssemblyShape`] cut into TRSM blocks and SYRK cuts (module docs).
#[derive(Clone, Debug)]
pub struct AssemblyPlan {
    /// Order and stored entries of the `L` planned for, columns and stored
    /// entries of the `B̃ᵀ`.
    n: usize,
    nnz_l: usize,
    m: usize,
    nnz_bt: usize,
    /// Closure column `c` is `L`'s entries `begin[c]..end[c]`: the diagonal
    /// block's `begin[c]..split[c]`, the panel's `split[c]..end[c]`.
    begin: Vec<usize>,
    split: Vec<usize>,
    end: Vec<usize>,
    /// `L` row → closure row; `None` when the closure is all of `L`.
    renumber: Option<Vec<usize>>,
    /// Stepped column `s` is multiplier `order.old_of_new(s)`.
    order: Perm,
    storage: FactorStorage,
    blocks: Vec<TrsmBlock>,
    trsm: Vec<Op>,
    syrk: SyrkPlan,
}

impl AssemblyPlan {
    /// Plan the assembly of `F̃ = (L⁻¹B̃ᵀ)ᵀ(L⁻¹B̃ᵀ)` from the patterns of
    /// `l` and `bt` under `params`: the [`cut`](Self::cut) of their fresh
    /// [`AssemblyShape`].
    pub fn new(l: &Csc, bt: &Csc, params: &ScParams) -> Self {
        Self::cut(&AssemblyShape::of(l, bt), l, params)
    }

    /// The plan of `shape` under `params`. `l` must have the pattern the
    /// shape was taken from; only its row indices are read.
    ///
    /// With the stepped permutation on, the plan works on the shape's
    /// closure. Without it the pivots may be unsorted; the splitting
    /// kernels need sorted ones, so such a plan falls back to the plain
    /// variants (what the original algorithm does anyway).
    pub fn cut(shape: &AssemblyShape, l: &Csc, params: &ScParams) -> Self {
        let (s, n, m, col_ptr) = (shape, l.ncols(), shape.raw.len(), l.col_ptr());
        assert_eq!((n, l.nnz()), (s.closure.n(), s.nnz_l), "another pattern");
        let (closure, order, pivots) = if params.stepped_permutation {
            (Some(s.closure.cols()), s.order.clone(), &s.pivots)
        } else {
            (None, Perm::identity(m), &s.raw)
        };
        // a closure short of all of `L` is renumbered; otherwise the plan
        // works on all of `L`
        let (begin, end, renumber) = match closure {
            Some(cols) if cols.len() < n => {
                let mut renumber = vec![usize::MAX; n];
                cols.iter().enumerate().for_each(|(c, &j)| renumber[j] = c);
                let at = |off: usize| cols.iter().map(|&j| col_ptr[j + off]).collect();
                (at(0), at(1), Some(renumber))
            }
            _ => (col_ptr[..n].to_vec(), col_ptr[1..].to_vec(), None),
        };
        let (trsm, syrk) = if pivots.is_sorted() {
            (params.trsm, params.syrk)
        } else {
            (TrsmVariant::Plain, SyrkVariant::Plain)
        };
        let mut plan = AssemblyPlan {
            n,
            nnz_l: s.nnz_l,
            m,
            nnz_bt: s.nnz_bt,
            syrk: SyrkPlan::new(pivots, begin.len(), m, syrk),
            begin,
            split: end.clone(),
            end,
            renumber,
            order,
            storage: params.factor_storage,
            blocks: Vec::new(),
            trsm: Vec::new(),
        };
        plan.push_trsm(l, pivots, trsm);
        plan
    }

    /// Order of the factor the TRSM solves with: the closure's.
    pub(crate) fn closure_order(&self) -> usize {
        self.begin.len()
    }

    /// The closure row of `L` row `i`.
    fn row(&self, i: usize) -> usize {
        self.renumber.as_ref().map_or(i, |r| r[i])
    }

    /// The TRSM blocks and their launches; the plain solve is one block
    /// over the whole closure.
    fn push_trsm(&mut self, l: &Csc, pivots: &[usize], variant: TrsmVariant) {
        let rows = self.closure_order();
        let (block, prune) = match variant {
            TrsmVariant::Plain => (None, false),
            TrsmVariant::FactorSplit { block, prune } => (Some(block), prune),
        };
        let dense = self.storage == FactorStorage::Dense;
        for (r0, r1, width) in row_blocks(pivots, rows, self.m, block) {
            for c in (r0..r1).filter(|_| r1 < rows) {
                let col = &l.row_idx()[self.begin[c]..self.end[c]];
                self.split[c] = self.begin[c] + col.partition_point(|&i| self.row(i) < r1);
            }
            // the panel's rows holding an entry (paper: "pruning", analogous
            // to CHOLMOD's supernodal row compression)
            let mut held = vec![false; if prune { rows - r1 } else { 0 }];
            for c in (r0..r1).filter(|_| prune) {
                for &i in &l.row_idx()[self.split[c]..self.end[c]] {
                    held[self.row(i) - r1] = true;
                }
            }
            let live = (0..held.len()).filter(|&i| held[i]).collect();
            let b = self.blocks.len();
            self.blocks.push(TrsmBlock {
                r0,
                r1,
                width,
                live,
            });
            if dense {
                self.trsm.push(Op::Densify { b, below: false });
            }
            self.trsm.push(Op::Solve(b));
            if self.nnz(b, true) == 0 {
                continue;
            }
            if prune {
                self.trsm
                    .extend([Op::GatherLive(b), Op::GemmLive(b), Op::ScatterLive(b)]);
            } else {
                self.trsm.push(Op::CopyTop(b));
                if dense {
                    self.trsm.push(Op::Densify { b, below: true });
                }
                self.trsm.push(Op::Update(b));
            }
        }
    }

    /// Stored entries of block `b`'s diagonal block (`below`: of its panel).
    fn nnz(&self, b: usize, below: bool) -> usize {
        let cols = self.blocks[b].r0..self.blocks[b].r1;
        let (from, to) = if below {
            (&self.split, &self.end)
        } else {
            (&self.begin, &self.split)
        };
        cols.map(|c| to[c] - from[c]).sum()
    }

    /// The launch list, in launch order: the expansion of the stepped `B̃ᵀ`
    /// into the dense `Y`, the TRSM, the SYRK, and the packing of the
    /// triangle in the original multiplier order. What a backend takes for
    /// [`AssemblyPlan::assemble`], priced without allocating anything.
    pub fn launches(&self) -> Vec<KernelCost> {
        let expand = KernelCost::gather_of::<f64>(self.nnz_bt);
        let pack = KernelCost::gather_of::<f64>(self.m * self.m);
        let kernels = self.trsm_launches().chain(self.syrk.launches());
        [expand].into_iter().chain(kernels).chain([pack]).collect()
    }

    fn trsm_launches(&self) -> impl Iterator<Item = KernelCost> + '_ {
        self.trsm.iter().map(|&op| self.cost(op))
    }

    fn cost(&self, op: Op) -> KernelCost {
        let blk = |b: usize| &self.blocks[b];
        let order = |b: usize| blk(b).r1 - blk(b).r0;
        let sparse = self.storage == FactorStorage::Sparse;
        match op {
            Op::Densify { b, below } => KernelCost::gather_of::<f64>(self.nnz(b, below)),
            Op::Solve(b) if sparse => {
                KernelCost::trsm_sparse_of::<f64>(self.nnz(b, false), blk(b).width)
            }
            Op::Solve(b) => KernelCost::trsm_dense_of::<f64>(order(b), blk(b).width),
            Op::CopyTop(b) => KernelCost::gather_of::<f64>(order(b) * blk(b).width),
            Op::Update(b) if sparse => KernelCost::spmm_of::<f64>(self.nnz(b, true), blk(b).width),
            Op::Update(b) => {
                let below = self.closure_order() - blk(b).r1;
                KernelCost::gemm_of::<f64>(below, blk(b).width, order(b))
            }
            Op::GatherLive(b) => {
                KernelCost::gather_of::<f64>(self.nnz(b, true) + blk(b).live.len())
            }
            Op::GemmLive(b) => {
                KernelCost::gemm_of::<f64>(blk(b).live.len(), blk(b).width, order(b))
            }
            Op::ScatterLive(b) => KernelCost::gather_of::<f64>(blk(b).live.len() * blk(b).width),
        }
    }

    /// The numeric phase: `F̃`'s lower triangle, packed, in the original
    /// multiplier order. `l` and `bt` must have the patterns the plan was
    /// built from; their values are read in place.
    pub fn assemble(&self, l: &Csc, bt: &Csc) -> SymPackedOf<f64> {
        let shapes = (l.ncols(), l.nnz(), bt.ncols(), bt.nnz());
        assert_eq!(
            shapes,
            (self.n, self.nnz_l, self.m, self.nnz_bt),
            "another pattern"
        );
        let mut y = Mat::zeros(self.closure_order(), self.m);
        for s in 0..self.m {
            let (rows, vals) = bt.col(self.order.old_of_new(s));
            for (&i, &v) in rows.iter().zip(vals) {
                y[(self.row(i), s)] = v;
            }
        }
        self.solve(l, &mut y);
        let mut f = Mat::zeros(self.m, self.m);
        self.syrk.run(&y, &mut f);
        drop(y);
        // the "final phase" permutation: original entry (i, j) is stepped
        // entry (s(i), s(j)), read from the SYRK's lower triangle
        let s = |i: usize| self.order.new_of_old(i);
        SymPackedOf::from_lower_fn(self.m, |i, j| f[(s(i).max(s(j)), s(i).min(s(j)))])
    }

    /// The TRSM launches' numerics: `y` (closure order × `m`, stepped)
    /// becomes `L_c⁻¹ y`.
    fn solve(&self, l: &Csc, y: &mut Mat) {
        let rows = self.closure_order();
        // a densified block or gathered live panel; copied rows of `Y` or the
        // live panel's product
        let (mut dense, mut top) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
        for &op in &self.trsm {
            match op {
                Op::Densify { b, below } => dense = self.view(l, b, below).to_dense(),
                Op::Solve(b) => {
                    let blk = &self.blocks[b];
                    let ytop = y.as_mut().into_sub(blk.r0, 0, blk.r1 - blk.r0, blk.width);
                    match self.storage {
                        FactorStorage::Sparse => {
                            sc_sparse::csc_lower_solve_mat(self.view(l, b, false), ytop)
                        }
                        FactorStorage::Dense => sc_dense::trsm_lower_left(dense.as_ref(), ytop),
                    }
                }
                Op::CopyTop(b) => {
                    let blk = &self.blocks[b];
                    top = y.submatrix(blk.r0, 0, blk.r1 - blk.r0, blk.width);
                }
                Op::Update(b) => {
                    let blk = &self.blocks[b];
                    let mut ybot = y.as_mut().into_sub(blk.r1, 0, rows - blk.r1, blk.width);
                    let (a, t) = (dense.as_ref(), top.as_ref());
                    match self.storage {
                        FactorStorage::Sparse => {
                            self.view(l, b, true).spmm(-1.0, t, 1.0, &mut ybot)
                        }
                        FactorStorage::Dense => {
                            sc_dense::gemm(-1.0, a, Trans::No, t, Trans::No, 1.0, ybot)
                        }
                    }
                }
                Op::GatherLive(b) => {
                    let blk = &self.blocks[b];
                    let mut at = vec![usize::MAX; rows - blk.r1];
                    for (k, &i) in blk.live.iter().enumerate() {
                        at[i] = k;
                    }
                    let below = self.view(l, b, true);
                    dense = Mat::zeros(blk.live.len(), blk.r1 - blk.r0);
                    for c in 0..blk.r1 - blk.r0 {
                        let col = dense.col_mut(c);
                        below.col(c).for_each(|(i, v)| col[at[i]] = v);
                    }
                }
                Op::GemmLive(b) => {
                    let blk = &self.blocks[b];
                    top = Mat::zeros(blk.live.len(), blk.width);
                    let ytop = y.as_ref().sub(blk.r0, 0, blk.r1 - blk.r0, blk.width);
                    let a = dense.as_ref();
                    sc_dense::gemm(1.0, a, Trans::No, ytop, Trans::No, 0.0, top.as_mut());
                }
                Op::ScatterLive(b) => {
                    let blk = &self.blocks[b];
                    for c in 0..blk.width {
                        let (ycol, tcol) = (&mut y.col_mut(c)[blk.r1..], top.col(c));
                        for (&i, &t) in blk.live.iter().zip(tcol) {
                            ycol[i] -= t;
                        }
                    }
                }
            }
        }
    }

    /// Block `b`'s diagonal block (`below`: its panel) of `l`, in place.
    fn view<'a>(&'a self, l: &'a Csc, b: usize, below: bool) -> CscView<'a, f64> {
        let TrsmBlock { r0, r1, .. } = self.blocks[b];
        let (nrows, base, starts, ends) = if below {
            (self.closure_order() - r1, r1, &self.split, &self.end)
        } else {
            (r1 - r0, r0, &self.begin, &self.split)
        };
        let renumber = self.renumber.as_deref();
        l.view_of(nrows, &starts[r0..r1], &ends[r0..r1], renumber, base)
    }
}

/// Run the selected TRSM variant: on return `y` holds `L⁻¹ B̃ᵀ` (stepped
/// column order). `l` is the CSC factor (diag-first columns), not
/// restricted to a closure: the TRSM launches of an [`AssemblyPlan`] on all
/// of `l`, submitted to `exec` as one list; `y` is left untouched when the
/// backend does not compute.
pub fn run_trsm<E: Exec>(
    exec: &mut E,
    l: &Csc,
    stepped: &SteppedRhs,
    storage: FactorStorage,
    variant: TrsmVariant,
    y: &mut Mat,
) {
    assert_eq!(y.nrows(), l.ncols(), "Y row mismatch");
    assert_eq!(y.ncols(), stepped.ncols(), "Y column mismatch");
    let params = ScParams {
        trsm: variant,
        ..ScParams::original(storage)
    };
    let plan = AssemblyPlan::new(l, &stepped.bt, &params);
    if exec.submit(|| plan.trsm_launches().collect()) {
        plan.solve(l, y);
    }
}

/// Compute `f(lower) = Yᵀ Y` with the selected variant: the SYRK launches
/// of an [`AssemblyPlan`] over the stepped pivots, submitted to `exec` as
/// one list. `f` must be `m × m`; when the backend computes its lower
/// triangle is overwritten (the upper left untouched), otherwise nothing.
pub fn run_syrk<E: Exec>(
    exec: &mut E,
    y: &Mat,
    stepped: &SteppedRhs,
    variant: SyrkVariant,
    f: &mut Mat,
) {
    let m = y.ncols();
    assert_eq!((f.nrows(), f.ncols(), stepped.ncols()), (m, m, m));
    let plan = SyrkPlan::new(&stepped.pivots, y.nrows(), m, variant);
    if exec.submit(|| plan.launches().collect()) {
        if plan.accumulates {
            f.fill(0.0);
        }
        plan.run(y, f);
    }
}

#[cfg(test)]
mod trsm_tests {
    use super::*;
    use crate::exec::CpuExec;
    use sc_sparse::Coo;

    /// Random-ish sparse SPD lower factor with controlled density.
    fn sparse_factor(n: usize, seed: u64) -> Csc {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 2.0 + rnd());
            for i in (j + 1)..n {
                if rnd() < 0.15 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        c.to_csc()
    }

    /// Stepped RHS with roughly uniform pivots.
    fn stepped_rhs(n: usize, m: usize, seed: u64) -> SteppedRhs {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Coo::new(n, m);
        for j in 0..m {
            let pivot = ((rnd() * n as f64) as usize).min(n - 1);
            c.push(pivot, j, 1.0);
            // a few extra entries below the pivot
            for i in (pivot + 1)..n {
                if rnd() < 0.1 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        // scramble columns to exercise the permutation
        let mut order: Vec<usize> = (0..m).collect();
        for k in (1..m).rev() {
            let r = ((rnd() * (k + 1) as f64) as usize).min(k);
            order.swap(k, r);
        }
        let bt = c.to_csc().permute_cols(&Perm::from_old_of_new(order));
        SteppedRhs::new(&bt)
    }

    fn reference_solution(l: &Csc, stepped: &SteppedRhs) -> Mat {
        let mut y = stepped.to_dense();
        let ld = l.to_dense();
        sc_dense::trsm_lower_left(ld.as_ref(), y.as_mut());
        y
    }

    fn check_variant(variant: TrsmVariant, storage: FactorStorage) {
        let n = 37;
        let m = 19;
        let l = sparse_factor(n, 11);
        let stepped = stepped_rhs(n, m, 23);
        let expect = reference_solution(&l, &stepped);
        let mut y = stepped.to_dense();
        run_trsm(&mut CpuExec, &l, &stepped, storage, variant, &mut y);
        let d = sc_dense::max_abs_diff(y.as_ref(), expect.as_ref());
        assert!(d < 1e-9, "{variant:?} {storage:?}: diff {d}");
    }

    #[test]
    fn plain_matches_reference_both_storages() {
        check_variant(TrsmVariant::Plain, FactorStorage::Sparse);
        check_variant(TrsmVariant::Plain, FactorStorage::Dense);
    }

    #[test]
    fn factor_split_matches_reference() {
        for block in [
            BlockParam::Size(5),
            BlockParam::Size(16),
            BlockParam::Count(2),
        ] {
            for prune in [false, true] {
                check_variant(
                    TrsmVariant::FactorSplit { block, prune },
                    FactorStorage::Sparse,
                );
                check_variant(
                    TrsmVariant::FactorSplit { block, prune },
                    FactorStorage::Dense,
                );
            }
        }
    }

    #[test]
    fn block_size_one_still_correct() {
        check_variant(
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(1),
                prune: true,
            },
            FactorStorage::Dense,
        );
        check_variant(
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(1),
                prune: false,
            },
            FactorStorage::Sparse,
        );
    }

    #[test]
    fn empty_rhs_is_noop() {
        let n = 10;
        let l = sparse_factor(n, 3);
        let bt = Csc::zeros(n, 0);
        let stepped = SteppedRhs::new(&bt);
        let mut y = Mat::zeros(n, 0);
        run_trsm(
            &mut CpuExec,
            &l,
            &stepped,
            FactorStorage::Sparse,
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(10),
                prune: true,
            },
            &mut y,
        );
    }
}

#[cfg(test)]
mod syrk_tests {
    use super::*;
    use crate::exec::CpuExec;
    use sc_sparse::Coo;

    fn stepped_y(n: usize, m: usize, seed: u64) -> (SteppedRhs, Mat) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Coo::new(n, m);
        for j in 0..m {
            let pivot = ((rnd() * n as f64) as usize).min(n - 1);
            c.push(pivot, j, rnd() + 0.1);
            for i in (pivot + 1)..n {
                if rnd() < 0.4 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        let mut order: Vec<usize> = (0..m).collect();
        for k in (1..m).rev() {
            let r = ((rnd() * (k + 1) as f64) as usize).min(k);
            order.swap(k, r);
        }
        let bt = c.to_csc().permute_cols(&Perm::from_old_of_new(order));
        let stepped = SteppedRhs::new(&bt);
        // Y: dense stepped matrix — in the real pipeline this is the TRSM
        // output, which is dense BELOW the pivots; emulate by filling below
        // each pivot with pseudo-random values.
        let mut y = Mat::zeros(n, stepped.ncols());
        for j in 0..stepped.ncols() {
            for i in stepped.pivots[j]..n {
                y[(i, j)] = rnd() - 0.5;
            }
        }
        (stepped, y)
    }

    fn reference(y: &Mat) -> Mat {
        let m = y.ncols();
        let mut f = Mat::zeros(m, m);
        sc_dense::syrk_t(1.0, y.as_ref(), 0.0, f.as_mut());
        f
    }

    fn lower_diff(a: &Mat, b: &Mat) -> f64 {
        let m = a.nrows();
        let mut d = 0.0f64;
        for j in 0..m {
            for i in j..m {
                d = d.max((a[(i, j)] - b[(i, j)]).abs());
            }
        }
        d
    }

    fn check(variant: SyrkVariant) {
        let (stepped, y) = stepped_y(31, 17, 7);
        let expect = reference(&y);
        let mut f = Mat::from_fn(17, 17, |_, _| f64::NAN); // must be overwritten
        run_syrk(&mut CpuExec, &y, &stepped, variant, &mut f);
        let d = lower_diff(&f, &expect);
        assert!(d < 1e-12, "{variant:?}: diff {d}");
    }

    #[test]
    fn plain_matches_reference() {
        check(SyrkVariant::Plain);
    }

    #[test]
    fn input_split_matches_reference() {
        for block in [
            BlockParam::Size(3),
            BlockParam::Size(10),
            BlockParam::Count(4),
        ] {
            check(SyrkVariant::InputSplit(block));
        }
    }

    #[test]
    fn single_block_equals_plain() {
        let (stepped, y) = stepped_y(20, 9, 13);
        let mut f1 = Mat::zeros(9, 9);
        run_syrk(&mut CpuExec, &y, &stepped, SyrkVariant::Plain, &mut f1);
        let mut f2 = Mat::zeros(9, 9);
        run_syrk(
            &mut CpuExec,
            &y,
            &stepped,
            SyrkVariant::InputSplit(BlockParam::Count(1)),
            &mut f2,
        );
        assert!(lower_diff(&f1, &f2) < 1e-13);
    }

    #[test]
    fn handles_empty_columns() {
        // a stepped matrix with trailing empty columns (pivot == n)
        let n = 12;
        let mut c = Coo::new(n, 3);
        c.push(2, 0, 1.0);
        c.push(5, 1, 1.0);
        // column 2 empty
        let stepped = SteppedRhs::new(&c.to_csc());
        let mut y = Mat::zeros(n, 3);
        for j in 0..2 {
            for i in stepped.pivots[j]..n {
                y[(i, j)] = 1.0;
            }
        }
        let expect = reference(&y);
        for variant in [
            SyrkVariant::Plain,
            SyrkVariant::InputSplit(BlockParam::Size(4)),
        ] {
            let mut f = Mat::zeros(3, 3);
            run_syrk(&mut CpuExec, &y, &stepped, variant, &mut f);
            assert!(lower_diff(&f, &expect) < 1e-13, "{variant:?}");
        }
    }
}
