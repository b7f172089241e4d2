//! Offline shim for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the subset of the rayon API the workspace actually uses, backed
//! by `std::thread::scope`. Parallelism is real (one OS thread per chunk of
//! work, up to `available_parallelism`), deterministic in output ordering,
//! and panic-propagating — but there is no work-stealing pool: each parallel
//! combinator spawns short-lived scoped threads. For the workload shapes in
//! this workspace (coarse-grained per-subdomain tasks) that is sufficient.
//!
//! Supported surface:
//!
//! - `slice.par_iter()` / `vec.par_iter()` (via [`IntoParallelRefIterator`])
//! - `range.into_par_iter()` / `vec.into_par_iter()` (via [`IntoParallelIterator`])
//! - adapters: `map`, `enumerate`, `zip`, `with_min_len`
//! - consumers: `collect`, `for_each`, `sum`, `reduce`
//! - [`join`], `scope` (via `std::thread::scope`), [`current_num_threads`]

use std::ops::Range;

/// Everything call sites get from `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

/// Number of worker threads a parallel combinator will use at most,
/// honouring any cap installed by [`with_max_threads`]. The machine's
/// parallelism is read once per process, as rayon sizes its global pool
/// once: on Linux each `available_parallelism` call reads the cgroup files
/// (tens of µs), which every combinator would otherwise pay.
pub fn current_num_threads() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let avail = *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    match MAX_THREADS.with(|c| c.get()) {
        0 => avail,
        cap => avail.min(cap),
    }
}

thread_local! {
    /// Per-thread worker cap installed by [`with_max_threads`]
    /// (0 = uncapped). Shim-only extension: real rayon scopes thread counts
    /// through `ThreadPool::install`, which this offline shim does not carry.
    static MAX_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run `f` with parallel combinators on this thread capped at `max` worker
/// threads (`0` removes the cap). The cap nests and unwinds safely: the
/// previous value is restored when `f` returns **or panics**. This is the
/// shim's stand-in for running inside a sized `rayon::ThreadPool`.
pub fn with_max_threads<R>(max: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(MAX_THREADS.with(|c| c.replace(max)));
    f()
}

/// Run two closures, potentially in parallel, and return both results.
///
/// `b` runs on a scoped thread while `a` runs on the caller. Panics from
/// either side propagate to the caller, like rayon's `join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

/// The core parallel-iterator abstraction of the shim.
///
/// Unlike rayon's producer/consumer architecture, this is a simple *indexed
/// access* model: an iterator knows its length and can produce the item at
/// any index concurrently (`&self`). All adapters compose on top of that.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Exact number of items.
    fn pi_len(&self) -> usize;

    /// Produce the item at index `i`. Must be safe to call concurrently.
    fn pi_get(&self, i: usize) -> Self::Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Accepted for API compatibility; chunking here is always static.
    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self.pi_len(), &|i| f(self.pi_get(i)));
    }

    fn collect<C>(self) -> C
    where
        C: From<Vec<Self::Item>>,
    {
        C::from(drive(self.pi_len(), &|i| self.pi_get(i)))
    }

    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self.pi_len(), &|i| self.pi_get(i))
            .into_iter()
            .fold(identity(), &op)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        drive(self.pi_len(), &|i| self.pi_get(i)).into_iter().sum()
    }
}

/// Marker trait: every shim iterator is indexed.
pub trait IndexedParallelIterator: ParallelIterator {}
impl<T: ParallelIterator> IndexedParallelIterator for T {}

/// Evaluate `get(0..n)` with static chunking over scoped threads, preserving
/// index order in the output.
fn drive<T, G>(n: usize, get: &G) -> Vec<T>
where
    T: Send,
    G: Fn(usize) -> T + Sync,
{
    let workers = current_num_threads().min(n).max(1);
    if workers <= 1 || n <= 1 {
        return (0..n).map(get).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let lo = ci * chunk;
            s.spawn(move || {
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(get(lo + k));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("drive: worker left a slot unfilled"))
        .collect()
}

// ---------------------------------------------------------------------------
// sources
// ---------------------------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct RangeIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, i: usize) -> usize {
        self.start + i
    }
}

/// Parallel iterator that takes ownership of a `Vec<T>` (items are handed
/// out by index; `T: Clone` is avoided by using an internal `Option` store).
pub struct VecIter<T> {
    items: Vec<std::sync::Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.items.len()
    }
    fn pi_get(&self, i: usize) -> T {
        self.items[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("VecIter item taken twice")
    }
}

// ---------------------------------------------------------------------------
// adapters
// ---------------------------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, i: usize) -> R {
        (self.f)(self.base.pi_get(i))
    }
}

pub struct Enumerate<B> {
    base: B,
}

impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, i: usize) -> (usize, B::Item) {
        (i, self.base.pi_get(i))
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_get(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.pi_get(i), self.b.pi_get(i))
    }
}

// ---------------------------------------------------------------------------
// conversion traits
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter {
            items: self
                .into_iter()
                .map(|t| std::sync::Mutex::new(Some(t)))
                .collect(),
        }
    }
}

pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

/// `par_iter_mut` support: mutable chunks are dispatched index-wise.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

/// Parallel iterator over `&mut [T]`, implemented with raw-pointer indexing
/// guarded by the exclusive borrow held for `'a`.
pub struct SliceIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// Safety: each index is handed out at most once per drive() pass, and the
// exclusive borrow of the slice outlives the iterator.
unsafe impl<T: Send> Sync for SliceIterMut<'_, T> {}
unsafe impl<T: Send> Send for SliceIterMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        // Safety: distinct indices alias distinct elements; drive() touches
        // each index exactly once.
        unsafe { &mut *self.ptr.add(i) }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> SliceIterMut<'data, T> {
        SliceIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> SliceIterMut<'data, T> {
        self.as_mut_slice().par_iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_enumerate_compose() {
        let a = vec![1, 2, 3, 4];
        let b = vec![10, 20, 30, 40];
        let v: Vec<(usize, i32)> = a
            .par_iter()
            .zip(&b)
            .enumerate()
            .map(|(i, (x, y))| (i, x + y))
            .collect();
        assert_eq!(v, vec![(0, 11), (1, 22), (2, 33), (3, 44)]);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn for_each_counts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        items.par_iter().for_each(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_iter_mut_writes_all() {
        let mut v = vec![0usize; 100];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn owned_vec_into_par_iter_moves_items() {
        let v = vec!["a".to_string(), "b".to_string()];
        let out: Vec<String> = v.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(out, vec!["a!", "b!"]);
    }

    #[test]
    fn with_max_threads_caps_and_restores() {
        let unlimited = current_num_threads();
        let (inner, nested) = with_max_threads(1, || {
            (
                current_num_threads(),
                with_max_threads(0, current_num_threads),
            )
        });
        assert_eq!(inner, 1, "cap must apply inside the scope");
        assert_eq!(nested, unlimited, "0 must lift the cap while nested");
        assert_eq!(current_num_threads(), unlimited, "cap must be restored");
        // parallel combinators still produce correct, ordered output capped
        let v: Vec<usize> =
            with_max_threads(1, || (0..100).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v, (1..=100).collect::<Vec<_>>());
        // the cap must unwind with a panicking closure
        let caught = std::panic::catch_unwind(|| with_max_threads(1, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(
            current_num_threads(),
            unlimited,
            "cap must be restored across unwinding"
        );
    }
}
