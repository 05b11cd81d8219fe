//! Pooled tensor memory: size-classed free lists of exclusive pages.
//!
//! Every training iteration used to allocate fresh heap storage for activations,
//! gradients, GEMM and conv packing panels and merge buffers. This module keeps
//! those buffers alive between iterations instead: a checkout rounds the requested
//! length up to a power-of-two *size class* and pops an exclusive page from a free
//! list (the CubeCL `exclusive_pool` scheme — one owner per page, no sub-allocation),
//! and returning the buffer pushes the page back for the next iteration. After the
//! first round has touched every shape in the model, steady-state training serves all
//! tensor storage from the pool: zero heap allocations per iteration.
//!
//! Pooling changes where bytes live, never their values — every checkout is either
//! fully overwritten by its producer (`take_uninit`) or explicitly zeroed
//! (`take_zeroed`), so trajectories are bit-identical to the unpooled path. The
//! determinism suite pins that invariant by replaying the engine matrix with the pool
//! disabled (`RunConfig::tensor_pool = false`, which `experiment::run` applies through
//! [`set_enabled`]).
//!
//! # Threading
//!
//! Checkouts and returns go through a **thread-local** pool, so the hot path never
//! takes a lock. The rayon shim spawns fresh scoped threads per fan-out (there is no
//! persistent worker pool), which would strand every page a worker thread cached —
//! so when a thread exits, its local free lists drain into a global mutex-protected
//! *reservoir*, and a local miss refills from the reservoir before falling back to a
//! fresh heap allocation. Locking therefore happens only at thread death and on local
//! misses, both of which vanish in steady state on long-lived threads and degrade to
//! two short critical sections per thread lifetime on ephemeral ones.
//!
//! # Instrumentation
//!
//! Global relaxed counters record hits, reservoir refills, misses (fresh pages) and
//! cumulative page bytes — surfaced per round in `RoundRecord` and per bench case in
//! `BENCH_kernels.json` (schema v2, `allocs_per_iter`). [`CountingAlloc`] is a
//! `GlobalAlloc` wrapper around the system allocator that counts every heap
//! allocation; `kernel_bench` installs it as the global allocator and uses it,
//! together with the pool counters, as the probe behind the CI allocation gate
//! (steady-state `allocs_per_iter == 0` on the gated kernels), and the tier-1
//! allocation budget (`tests/alloc_budget.rs`) installs it to bound warm passes, kernel
//! calls and rounds.

#![allow(
    unsafe_code,
    reason = "audited: the counting global allocator; every block carries a SAFETY comment"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest page length in elements; requests below this round up to it.
pub const MIN_CLASS: usize = 64;

const MIN_SHIFT: u32 = MIN_CLASS.trailing_zeros();

/// Number of size classes tracked: `MIN_CLASS << i` for `i in 0..NUM_CLASSES`.
/// 48 classes starting at 64 elements cover every allocation a `usize` can index.
const NUM_CLASSES: usize = 48;

/// Rounds a requested buffer length up to its size class (the page length that will
/// actually back it): the next power of two, with a floor of [`MIN_CLASS`].
pub fn size_class(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

/// Largest size class that fits inside `capacity`, or `None` if the buffer is smaller
/// than the minimum page. Used on the return path so adopted foreign buffers (created
/// by `Vec` rather than the pool) can still join the free lists.
fn class_floor(capacity: usize) -> Option<usize> {
    if capacity < MIN_CLASS {
        return None;
    }
    Some(1usize << (usize::BITS - 1 - capacity.leading_zeros()))
}

fn class_index(class: usize) -> usize {
    (class.trailing_zeros() - MIN_SHIFT) as usize
}

// --- global counters -----------------------------------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static REFILLS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static PAGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's global counters (cumulative since process start, all
/// element types combined).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the calling thread's local free lists (lock-free).
    pub hits: u64,
    /// Checkouts served by pulling a page from the shared reservoir (one lock).
    pub refills: u64,
    /// Checkouts that allocated a fresh page from the heap.
    pub misses: u64,
    /// Pages ever created by the pool (== `misses`; pages are never freed back).
    pub pages: u64,
    /// Cumulative bytes of all pages ever created by the pool.
    pub bytes: u64,
}

impl PoolStats {
    /// Fraction of checkouts that avoided a heap allocation (hits + refills over all
    /// checkouts); 1.0 when nothing was checked out.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.refills + self.misses;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.refills) as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot (for per-round deltas).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            refills: self.refills - earlier.refills,
            misses: self.misses - earlier.misses,
            pages: self.pages - earlier.pages,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Current global pool counters.
pub fn stats() -> PoolStats {
    let misses = MISSES.load(Ordering::Relaxed);
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        refills: REFILLS.load(Ordering::Relaxed),
        misses,
        pages: misses,
        bytes: PAGE_BYTES.load(Ordering::Relaxed),
    }
}

// --- enable toggle -------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether checkouts go through the pool (on until [`set_enabled`] says otherwise).
/// Disabled, `take_*` degrade to plain `Vec` allocations and `recycle` to a plain
/// drop — the bit-identical oracle path.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the pool toggle process-wide (`RunConfig::tensor_pool` applies this, the
/// same pattern as `kernels::set_default_backend`). Pool on/off never changes values,
/// only allocation behaviour, so flipping it between runs is always safe.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// --- the pool ------------------------------------------------------------------------

/// Free lists of exclusive pages for one element type on one thread, keyed by size
/// class. Dropping the pool (thread exit) drains every page into the global reservoir.
pub struct LocalPool<T: Poolable> {
    classes: [Vec<Vec<T>>; NUM_CLASSES],
}

impl<T: Poolable> Default for LocalPool<T> {
    fn default() -> Self {
        LocalPool {
            classes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl<T: Poolable> Drop for LocalPool<T> {
    fn drop(&mut self) {
        let mut any = false;
        for list in &self.classes {
            if !list.is_empty() {
                any = true;
                break;
            }
        }
        if !any {
            return;
        }
        if let Ok(mut reservoir) = T::reservoir().lock() {
            for (idx, list) in self.classes.iter_mut().enumerate() {
                reservoir.classes[idx].append(list);
            }
        }
    }
}

/// Shared spill-over store pages drain to when a thread exits, and refill from on a
/// local miss. One per element type, behind a mutex touched only off the hot path.
pub struct Reservoir<T> {
    classes: [Vec<Vec<T>>; NUM_CLASSES],
}

impl<T> Default for Reservoir<T> {
    fn default() -> Self {
        Reservoir {
            classes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// Element types the pool can hold. Implementations wire a type to its thread-local
/// pool and global reservoir; `Default` supplies the fill value for zeroed pages
/// (`0.0` / `0`), and pages are created fully initialised so reuse is safe code only.
pub trait Poolable: Copy + Default + Send + 'static {
    /// The value debug builds fill pooled [`take_uninit`] checkouts with, so a read
    /// before the first write surfaces (`NaN` / `usize::MAX`) instead of silently
    /// reusing stale contents.
    const POISON: Self;
    /// Runs `f` against this thread's local pool; `None` if thread-local storage is
    /// already torn down (drops during thread exit degrade to plain frees).
    fn with_local<R>(f: impl FnOnce(&mut LocalPool<Self>) -> R) -> Option<R>;
    /// The global reservoir for this element type.
    fn reservoir() -> &'static Mutex<Reservoir<Self>>;
}

macro_rules! poolable {
    ($ty:ty, $poison:expr, $local:ident, $reservoir:ident) => {
        thread_local! {
            static $local: RefCell<LocalPool<$ty>> = RefCell::new(LocalPool::default());
        }
        static $reservoir: Mutex<Reservoir<$ty>> = Mutex::new(Reservoir {
            classes: [const { Vec::new() }; NUM_CLASSES],
        });
        impl Poolable for $ty {
            const POISON: Self = $poison;
            fn with_local<R>(f: impl FnOnce(&mut LocalPool<Self>) -> R) -> Option<R> {
                $local.try_with(|cell| f(&mut cell.borrow_mut())).ok()
            }
            fn reservoir() -> &'static Mutex<Reservoir<Self>> {
                &$reservoir
            }
        }
    };
}

poolable!(f32, f32::NAN, LOCAL_F32, RESERVOIR_F32);
poolable!(usize, usize::MAX, LOCAL_USIZE, RESERVOIR_USIZE);

/// Checks a page out of the pool for `len` elements with **unspecified contents**
/// (stale values from its previous owner). Only use when every element in `0..len` is
/// written before being read — the GEMM and conv pack panels and elementwise
/// producers all qualify. Contents are unspecified but always initialised memory, so
/// this is safe; it just isn't zeroed. Debug builds fill pooled pages with
/// [`Poolable::POISON`] while the disabled pool keeps handing out zeroes, so a
/// read-before-write makes the pool-on run diverge from the pool-off oracle instead of
/// hiding behind whatever the page held.
pub fn take_uninit<T: Poolable>(len: usize) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    if !enabled() {
        // Pool disabled = the deliberate oracle path
        return vec![T::default(); len];
    }
    let class = size_class(len);
    let page = T::with_local(|local| pop_page(local, class)).flatten();
    let mut page = match page {
        Some(page) => page,
        None => fresh_page(class),
    };
    page.truncate(len);
    if cfg!(debug_assertions) {
        page.fill(T::POISON);
    }
    page
}

/// Checks a page out of the pool and zero-fills it (`T::default()`), matching
/// `vec![0.0; len]` exactly.
pub fn take_zeroed<T: Poolable>(len: usize) -> Vec<T> {
    let mut page = take_uninit(len);
    page.fill(T::default());
    page
}

/// Returns a buffer to the calling thread's pool. Accepts any `Vec`, not just pooled
/// pages: the buffer joins the largest size class its capacity covers (buffers below
/// the minimum page size are simply dropped). The stored page is padded back to full
/// class length with `T::default()` so later checkouts stay safe code.
pub fn recycle<T: Poolable>(mut buf: Vec<T>) {
    if !enabled() {
        return;
    }
    let Some(class) = class_floor(buf.capacity()) else {
        return;
    };
    if buf.len() > class {
        buf.truncate(class);
    } else if buf.len() < class {
        buf.resize(class, T::default());
    }
    // If thread-local storage is gone (thread teardown), the page is just freed.
    T::with_local(move |local| local.classes[class_index(class)].push(buf));
}

fn pop_page<T: Poolable>(local: &mut LocalPool<T>, class: usize) -> Option<Vec<T>> {
    let idx = class_index(class);
    if let Some(page) = local.classes[idx].pop() {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Some(page);
    }
    let refilled = T::reservoir()
        .lock()
        .ok()
        .and_then(|mut reservoir| reservoir.classes[idx].pop());
    if refilled.is_some() {
        REFILLS.fetch_add(1, Ordering::Relaxed);
    }
    refilled
}

fn fresh_page<T: Poolable>(class: usize) -> Vec<T> {
    MISSES.fetch_add(1, Ordering::Relaxed);
    PAGE_BYTES.fetch_add((class * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
    // Cold path: pages are minted once, then recycled
    vec![T::default(); class]
}

// --- PoolBuf -------------------------------------------------------------------------

/// Owned pooled storage: a `Vec<T>` that returns itself to the pool on drop. `Tensor`
/// stores its elements in a `PoolBuf<f32>` so every temporary — activations,
/// gradients, merge staging — recycles automatically, with no explicit checkout /
/// return threading through call sites.
#[derive(Debug, Default)]
pub struct PoolBuf<T: Poolable = f32> {
    data: Vec<T>,
}

impl<T: Poolable> PoolBuf<T> {
    /// Pooled buffer with unspecified (but initialised) contents; see [`take_uninit`].
    pub fn uninit(len: usize) -> Self {
        PoolBuf {
            data: take_uninit(len),
        }
    }

    /// Pooled buffer filled with `T::default()`.
    pub fn zeroed(len: usize) -> Self {
        PoolBuf {
            data: take_zeroed(len),
        }
    }

    /// Adopts an existing `Vec` (no copy). On drop its storage joins the pool.
    pub fn from_vec(data: Vec<T>) -> Self {
        PoolBuf { data }
    }

    /// Pooled copy of a slice.
    pub fn copy_of(src: &[T]) -> Self {
        let mut buf = Self::uninit(src.len());
        buf.data.copy_from_slice(src);
        buf
    }

    /// Extracts the underlying `Vec` without recycling it (for callers that hand the
    /// buffer across an API that wants owned `Vec<T>`).
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }
}

impl<T: Poolable> Drop for PoolBuf<T> {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
}

impl<T: Poolable> Clone for PoolBuf<T> {
    fn clone(&self) -> Self {
        Self::copy_of(&self.data)
    }
}

impl<T: Poolable + PartialEq> PartialEq for PoolBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<T: Poolable> std::ops::Deref for PoolBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Poolable> std::ops::DerefMut for PoolBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Poolable> From<Vec<T>> for PoolBuf<T> {
    fn from(data: Vec<T>) -> Self {
        PoolBuf::from_vec(data)
    }
}

// --- allocation probe ----------------------------------------------------------------

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator. `kernel_bench` installs it via
/// `#[global_allocator]` and reads [`heap_allocs`] around a timed region to measure
/// `allocs_per_iter`; the allocation-budget test (`tests/alloc_budget.rs`) reads it the
/// same way to bound warm passes, kernel calls and rounds, and the fleet-scale tests
/// read [`heap_bytes`] to bound per-registered-client memory. The library never
/// installs it, so training binaries pay nothing.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters are relaxed
// atomic increments with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `GlobalAlloc::alloc`; upheld by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is passed through unchanged from our own caller, who
        // upholds the `GlobalAlloc` preconditions (non-zero size).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`; forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is passed through unchanged from our own caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::realloc`; forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        HEAP_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` was allocated by this allocator (which *is* `System` plus a
        // counter), with `layout`, and `new_size` is non-zero per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `GlobalAlloc::dealloc`; forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, per the trait contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Number of heap allocations (alloc / alloc_zeroed / realloc) observed by
/// [`CountingAlloc`] since process start. Always 0 unless a binary installed the
/// probe as its global allocator.
pub fn heap_allocs() -> u64 {
    HEAP_ALLOCS.load(Ordering::Relaxed)
}

/// Cumulative bytes requested from [`CountingAlloc`] since process start (reallocs
/// count their growth). Deallocations are deliberately not subtracted: the probe
/// measures allocation *work*, which is monotone and so safe to difference around a
/// measured region from any thread. Always 0 unless the probe is installed.
pub fn heap_bytes() -> u64 {
    HEAP_BYTES.load(Ordering::Relaxed)
}

/// Serialises tests (across this crate's modules) that assert on page identity or flip
/// the global toggle, so concurrent test threads can't interleave takes between them.
#[cfg(test)]
pub(crate) static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds [`POOL_TEST_LOCK`] with the pool switched on, and restores the switch on
    /// drop: the page-identity tests assert what the pool does, so they must run it even
    /// after another test of this process switched it off.
    struct PoolOn {
        was_enabled: bool,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl Drop for PoolOn {
        fn drop(&mut self) {
            set_enabled(self.was_enabled);
        }
    }

    fn lock() -> PoolOn {
        let lock = POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let was_enabled = enabled();
        set_enabled(true);
        PoolOn {
            was_enabled,
            _lock: lock,
        }
    }

    #[test]
    fn size_class_rounds_up_to_power_of_two_with_floor() {
        assert_eq!(size_class(0), MIN_CLASS);
        assert_eq!(size_class(1), MIN_CLASS);
        assert_eq!(size_class(MIN_CLASS), MIN_CLASS);
        assert_eq!(size_class(MIN_CLASS + 1), MIN_CLASS * 2);
        assert_eq!(size_class(1000), 1024);
        assert_eq!(size_class(1024), 1024);
        assert_eq!(size_class(1025), 2048);
    }

    #[test]
    fn class_floor_is_largest_class_within_capacity() {
        assert_eq!(class_floor(MIN_CLASS - 1), None);
        assert_eq!(class_floor(MIN_CLASS), Some(MIN_CLASS));
        assert_eq!(class_floor(100), Some(64));
        assert_eq!(class_floor(4096), Some(4096));
        assert_eq!(class_floor(5000), Some(4096));
    }

    // Property over a sweep of lengths: the class always covers the request, is a
    // power of two, and never over-allocates past 2x (above the minimum page).
    #[test]
    fn size_class_bounds_property() {
        for len in (0..4096).chain((1 << 20) - 3..(1 << 20) + 3) {
            let class = size_class(len);
            assert!(class >= len.max(MIN_CLASS));
            assert!(class.is_power_of_two());
            if len > MIN_CLASS {
                assert!(class < len * 2, "class {class} over-allocates for {len}");
            }
        }
    }

    #[test]
    fn checkout_reuses_recycled_page_on_same_thread() {
        let _guard = lock();
        let mut buf = take_uninit::<f32>(777);
        buf[0] = 1.5;
        let ptr = buf.as_ptr();
        recycle(buf);
        // Same class, smaller request: same page comes back (LIFO), truncated.
        let again = take_uninit::<f32>(600);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 600);
        recycle(again);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let _guard = lock();
        let mut buf = take_uninit::<f32>(128);
        buf.fill(7.0);
        recycle(buf);
        let zeroed = take_zeroed::<f32>(128);
        assert!(zeroed.iter().all(|&v| v == 0.0));
        recycle(zeroed);
    }

    #[test]
    fn recycle_adopts_foreign_vec_and_pads_to_class() {
        let _guard = lock();
        // Capacity 100 floors to class 64; the next 64-element checkout reuses it.
        let mut foreign = Vec::with_capacity(100);
        foreign.extend(std::iter::repeat_n(3.0f32, 10));
        let ptr = foreign.as_ptr();
        recycle(foreign);
        let back = take_uninit::<f32>(64);
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.len(), 64);
        recycle(back);
    }

    #[test]
    fn pages_survive_thread_exit_via_reservoir() {
        let _guard = lock();
        // An exotic length no other test touches, so the reservoir page is ours.
        let len = 3_000_001;
        let ptr = std::thread::spawn(move || {
            let buf = take_uninit::<f32>(len);
            let ptr = buf.as_ptr() as usize;
            recycle(buf);
            ptr
        })
        .join()
        .unwrap();
        // The worker's local pool drained to the reservoir on thread exit; our local
        // list has no page of this class, so the take refills from the reservoir.
        let before = stats();
        let back = take_uninit::<f32>(len);
        assert_eq!(back.as_ptr() as usize, ptr);
        assert_eq!(stats().since(&before).refills, 1);
        recycle(back);
    }

    #[test]
    fn local_pools_are_isolated_across_shim_fanout() {
        let _guard = lock();
        // Prime this thread's pool with a recognisable page of an exotic class.
        let len = 5_000_017;
        let buf = take_uninit::<f32>(len);
        let ptr = buf.as_ptr() as usize;
        recycle(buf);
        // The rayon shim fans out onto fresh scoped threads (on multi-core hosts; on a
        // single core it degrades to an inline loop). Model the multi-core case
        // directly: none of the workers may see the main thread's local page — it sits
        // in *our* local list, not the reservoir, so their takes come from the
        // reservoir or the heap.
        let ptrs: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let buf = take_uninit::<f32>(len);
                        let p = buf.as_ptr() as usize;
                        recycle(buf);
                        p
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ptrs.iter().all(|&p| p != ptr));
        // And the page is still here for us.
        let back = take_uninit::<f32>(len);
        assert_eq!(back.as_ptr() as usize, ptr);
        recycle(back);
    }

    #[test]
    fn disabled_pool_allocates_plainly_and_drops_on_recycle() {
        let _guard = lock();
        set_enabled(false);
        let before = stats();
        let buf = take_uninit::<f32>(512);
        assert_eq!(buf.len(), 512);
        assert!(
            buf.iter().all(|&v| v == 0.0),
            "disabled take is vec![0.0; n]"
        );
        recycle(buf);
        let delta = stats().since(&before);
        assert_eq!((delta.hits, delta.refills, delta.misses), (0, 0, 0));
    }

    #[test]
    fn debug_builds_poison_pooled_uninit_checkouts() {
        let _guard = lock();
        let mut buf = take_uninit::<f32>(256);
        buf.fill(7.0);
        recycle(buf);
        let stale = take_uninit::<f32>(256);
        let idx = take_uninit::<usize>(256);
        if cfg!(debug_assertions) {
            assert!(stale.iter().all(|v| v.is_nan()));
            assert!(idx.iter().all(|&i| i == usize::MAX));
        }
        recycle(stale);
        recycle(idx);
    }

    #[test]
    fn zero_length_checkout_never_touches_the_pool() {
        let before = stats();
        let buf = take_uninit::<f32>(0);
        assert!(buf.is_empty());
        recycle(buf);
        let delta = stats().since(&before);
        assert_eq!(delta.misses, 0);
    }

    #[test]
    fn usize_pages_pool_independently_of_f32() {
        let _guard = lock();
        let idx = take_uninit::<usize>(900);
        let ptr = idx.as_ptr();
        recycle(idx);
        let back = take_uninit::<usize>(900);
        assert_eq!(back.as_ptr(), ptr);
        recycle(back);
    }

    #[test]
    fn poolbuf_drop_recycles_and_clone_copies() {
        let _guard = lock();
        let mut a = PoolBuf::<f32>::zeroed(300);
        a[7] = 4.25;
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b[7], 4.25);
        let ptr = a.as_ptr();
        drop(a);
        let c = PoolBuf::<f32>::uninit(300);
        assert_eq!(c.as_ptr(), ptr, "drop returned the page for reuse");
    }

    #[test]
    fn hit_rate_reads_one_when_idle_and_tracks_reuse() {
        let empty = PoolStats::default();
        assert_eq!(empty.hit_rate(), 1.0);
        let busy = PoolStats {
            hits: 3,
            refills: 1,
            misses: 1,
            pages: 1,
            bytes: 4096,
        };
        assert!((busy.hit_rate() - 0.8).abs() < 1e-12);
    }
}
