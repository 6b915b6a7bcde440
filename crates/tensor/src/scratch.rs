//! A reusable buffer arena for the training hot path.
//!
//! Every training batch needs the same temporaries as the previous one:
//! packed GEMM panels, padded convolution planes, layer outputs, gradient
//! buffers. Allocating them anew per batch is exactly the overhead the
//! PyTorchFI-extension work (Gräfe et al.) identifies as dominating
//! large-scale fault-injection campaigns. [`Scratch`] is a checkout /
//! check-in pool of buffers: once the pool is warm — after the first batch
//! — steady-state training performs zero heap allocations in the
//! dense/conv hot path.
//!
//! Three element pools back the arena:
//!
//! * raw `f32` checkouts ([`Scratch::take`]) are [`AlignedVec`]s whose base
//!   address is 32-byte aligned, so the AVX2 kernels' 8-lane accesses to
//!   packed GEMM panels never straddle a cache line;
//! * [`Tensor`] checkouts ([`Scratch::tensor_uninit`]) reuse plain
//!   `Vec<f32>` buffers (tensors are `Vec`-backed);
//! * `u32` checkouts ([`Scratch::take_u32`]) serve max-pool argmax caches.
//!
//! # Ownership rules
//!
//! * Kernels borrow short-lived temporaries via [`Scratch::take`]; the
//!   returned [`ScratchBuf`] checks itself back in on drop (RAII).
//! * Layer outputs are full [`Tensor`]s drawn with
//!   [`Scratch::tensor_uninit`] / [`Scratch::tensor_zeroed`]; whoever ends
//!   up owning such a tensor may hand its buffer back with
//!   [`Scratch::recycle`] — or simply drop it (correct, just not reused).
//! * `tensor_uninit` buffers hold stale values from earlier batches; the
//!   caller must overwrite every element before reading any. Kernels that
//!   accumulate (`+=`) must start from [`Scratch::tensor_zeroed`].
//! * The pool is size-agnostic: a buffer checked in at one shape may be
//!   handed out at another. Capacity is reused, lengths are adjusted.
//!
//! The pool is bounded ([`Scratch::MAX_POOLED`] buffers per element type);
//! check-ins beyond the bound free the buffer instead of growing the pool.

use crate::align::{AlignedVec, SIMD_ALIGN};
use crate::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A shareable handle on a [`Scratch`] arena.
///
/// Layers hold one of these (see `Layer::bind_scratch` in `tdfm-nn`), so an
/// arena can be threaded through a whole network and a training loop.
pub type ScratchHandle = Arc<Scratch>;

/// Counters describing how well an arena is being reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Checkouts served from the pool (no heap allocation).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently parked in the pool.
    pub pooled: u64,
}

impl ScratchStats {
    /// Total checkouts.
    pub fn checkouts(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Best-fit checkout: the smallest pooled buffer whose capacity covers
/// `len`, or — when none suffices — the largest, so its backing allocation
/// grows and keeps circulating instead of piling up undersized.
fn best_fit<T>(pool: &mut Vec<T>, len: usize, cap: impl Fn(&T) -> usize) -> Option<T> {
    let mut best: Option<(usize, usize)> = None;
    for (i, buf) in pool.iter().enumerate() {
        let c = cap(buf);
        if c >= len && best.is_none_or(|(_, bc)| c < bc) {
            best = Some((i, c));
        }
    }
    match best {
        Some((i, _)) => Some(pool.swap_remove(i)),
        None => {
            let largest = (0..pool.len()).max_by_key(|&i| cap(&pool[i]));
            largest.map(|i| pool.swap_remove(i))
        }
    }
}

/// A bounded checkout/check-in pool of reusable buffers.
///
/// Thread-safe: kernels running on worker threads check buffers out and in
/// concurrently. The lock is held only for the (short) pool scan, never
/// while a buffer is in use.
#[derive(Debug, Default)]
pub struct Scratch {
    f32_pool: Mutex<Vec<AlignedVec>>,
    tensor_pool: Mutex<Vec<Vec<f32>>>,
    u32_pool: Mutex<Vec<Vec<u32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Scratch {
    /// Most buffers retained per element type; check-ins beyond this are
    /// freed rather than pooled.
    pub const MAX_POOLED: usize = 128;

    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared arena.
    ///
    /// Code without an explicitly bound arena (one-off kernel calls,
    /// evaluation passes) draws from this one, so buffer reuse happens by
    /// default across the whole process.
    pub fn shared() -> &'static ScratchHandle {
        static SHARED: OnceLock<ScratchHandle> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(Scratch::new()))
    }

    /// Reuse counters for this arena.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pooled: (self.f32_pool.lock().expect("scratch pool poisoned").len()
                + self
                    .tensor_pool
                    .lock()
                    .expect("scratch pool poisoned")
                    .len()
                + self.u32_pool.lock().expect("scratch pool poisoned").len())
                as u64,
        }
    }

    fn checkout_aligned(&self, len: usize) -> AlignedVec {
        let picked = {
            let mut pool = self.f32_pool.lock().expect("scratch pool poisoned");
            // tdfm-lint: allow(lock-held-across-call, best_fit only scans the locked pool itself; it takes no lock and cannot block)
            best_fit(&mut pool, len, AlignedVec::capacity)
        };
        let mut buf = match picked {
            Some(buf) => {
                if buf.capacity() >= len {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                AlignedVec::new()
            }
        };
        buf.resize_stale(len);
        debug_assert!(
            len == 0 || (buf.as_slice().as_ptr() as usize).is_multiple_of(SIMD_ALIGN),
            "scratch checkout must be {SIMD_ALIGN}-byte aligned"
        );
        buf
    }

    fn checkin_aligned(&self, mut buf: AlignedVec) {
        let mut pool = self.f32_pool.lock().expect("scratch pool poisoned");
        if pool.len() < Self::MAX_POOLED {
            buf.clear();
            pool.push(buf);
        }
    }

    fn checkout_tensor_vec(&self, len: usize) -> Vec<f32> {
        let picked = {
            let mut pool = self.tensor_pool.lock().expect("scratch pool poisoned");
            // tdfm-lint: allow(lock-held-across-call, best_fit only scans the locked pool itself; it takes no lock and cannot block)
            best_fit(&mut pool, len, |b: &Vec<f32>| b.capacity())
        };
        match picked {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                // A pooled buffer keeps its stale prefix; only a grown
                // tail is zero-filled.
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    fn checkin_tensor_vec(&self, buf: Vec<f32>) {
        let mut pool = self.tensor_pool.lock().expect("scratch pool poisoned");
        if pool.len() < Self::MAX_POOLED {
            pool.push(buf);
        }
    }

    /// Checks out an `f32` buffer of exactly `len` elements, 32-byte
    /// aligned for the vector kernels.
    ///
    /// Contents are unspecified: a reused buffer keeps the values of its
    /// previous checkout, and only never-written elements are zeroed.
    /// Overwrite before reading. Use [`Scratch::take_zeroed`] when the
    /// caller accumulates.
    pub fn take(&self, len: usize) -> ScratchBuf<'_> {
        ScratchBuf {
            owner: self,
            buf: self.checkout_aligned(len),
        }
    }

    /// [`Scratch::take`], with the buffer guaranteed zero-filled.
    pub fn take_zeroed(&self, len: usize) -> ScratchBuf<'_> {
        let mut b = self.take(len);
        b.buf.as_mut_slice().fill(0.0);
        b
    }

    /// Checks out a `u32` buffer of exactly `len` elements (max-pool
    /// argmax caches). Contents are unspecified.
    pub fn take_u32(&self, len: usize) -> ScratchBufU32<'_> {
        let picked = {
            let mut pool = self.u32_pool.lock().expect("scratch pool poisoned");
            // tdfm-lint: allow(lock-held-across-call, best_fit only scans the locked pool itself; it takes no lock and cannot block)
            best_fit(&mut pool, len, |b: &Vec<u32>| b.capacity())
        };
        let buf = match picked {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                buf.resize(len, 0);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0; len]
            }
        };
        ScratchBufU32 { owner: self, buf }
    }

    /// A tensor whose buffer comes from the pool, contents unspecified.
    ///
    /// Every element must be written before it is read; kernels that store
    /// with `=` (the packed GEMM, pooling, element-wise maps) can use this
    /// directly.
    pub fn tensor_uninit(&self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(self.checkout_tensor_vec(n), dims)
    }

    /// A zero-filled tensor whose buffer comes from the pool.
    pub fn tensor_zeroed(&self, dims: &[usize]) -> Tensor {
        let mut t = self.tensor_uninit(dims);
        t.fill(0.0);
        t
    }

    /// Checks a tensor's buffer back into the pool.
    ///
    /// Taking ownership guarantees no live reference can observe the buffer
    /// being reused; recycling a tensor the arena never produced is fine
    /// (its buffer simply joins the pool).
    pub fn recycle(&self, tensor: Tensor) {
        self.checkin_tensor_vec(tensor.into_vec());
    }

    /// Checks a raw `u32` buffer back into the pool.
    pub fn recycle_u32(&self, buf: Vec<u32>) {
        let mut pool = self.u32_pool.lock().expect("scratch pool poisoned");
        if pool.len() < Self::MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// RAII checkout of an aligned `f32` buffer; checks itself back in on drop.
#[derive(Debug)]
pub struct ScratchBuf<'a> {
    owner: &'a Scratch,
    buf: AlignedVec,
}

impl ScratchBuf<'_> {
    /// Allocated capacity of the underlying buffer.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl std::ops::Deref for ScratchBuf<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.buf.as_slice()
    }
}

impl std::ops::DerefMut for ScratchBuf<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.buf.as_mut_slice()
    }
}

impl Drop for ScratchBuf<'_> {
    fn drop(&mut self) {
        if self.buf.capacity() > 0 {
            self.owner.checkin_aligned(std::mem::take(&mut self.buf));
        }
    }
}

/// RAII checkout of a `u32` buffer; checks itself back in on drop.
#[derive(Debug)]
pub struct ScratchBufU32<'a> {
    owner: &'a Scratch,
    buf: Vec<u32>,
}

impl ScratchBufU32<'_> {
    /// Detaches the buffer from the RAII guard.
    pub fn into_vec(mut self) -> Vec<u32> {
        std::mem::take(&mut self.buf)
    }
}

impl std::ops::Deref for ScratchBufU32<'_> {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchBufU32<'_> {
    fn deref_mut(&mut self) -> &mut [u32] {
        &mut self.buf
    }
}

impl Drop for ScratchBufU32<'_> {
    fn drop(&mut self) {
        if self.buf.capacity() > 0 {
            self.owner.recycle_u32(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_then_drop_is_a_hit_next_time() {
        let s = Scratch::new();
        {
            let _b = s.take(64);
        }
        assert_eq!(s.stats().misses, 1);
        {
            let _b = s.take(64);
        }
        let st = s.stats();
        assert_eq!(st.misses, 1, "second checkout must reuse the buffer");
        assert_eq!(st.hits, 1);
    }

    #[test]
    fn checkouts_are_32_byte_aligned() {
        let s = Scratch::new();
        for len in [1usize, 7, 8, 64, 1000, 4097] {
            let b = s.take(len);
            assert_eq!(
                b.as_ptr() as usize % SIMD_ALIGN,
                0,
                "take({len}) must hand out a {SIMD_ALIGN}-byte-aligned buffer"
            );
        }
        // Pooled round trips stay aligned too.
        let again = s.take(4097);
        assert_eq!(again.as_ptr() as usize % SIMD_ALIGN, 0);
    }

    #[test]
    fn take_reuses_stale_contents_and_take_zeroed_clears_them() {
        let s = Scratch::new();
        s.take(64).fill(7.0);
        assert!(
            s.take(64).iter().all(|&x| x == 7.0),
            "a pooled checkout is not rewritten"
        );
        assert!(s.take_zeroed(64).iter().all(|&x| x == 0.0));
        // Past the buffer's high-water mark, new elements read zero.
        s.take(16).fill(3.0);
        let b = s.take(80);
        assert!(b[64..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let s = Scratch::new();
        // Warm the raw pool with a large and a small buffer (checked out
        // simultaneously so the small one is not served by the large).
        let warm_big = s.take(1000);
        let warm_small = s.take(10);
        drop(warm_big);
        drop(warm_small);
        let b = s.take(8);
        // The 10-element buffer serves the request; the 1000 stays pooled.
        assert!(b.len() == 8 && b.capacity() < 1000);
        drop(b);
        let misses_before = s.stats().misses;
        let big = s.take(900);
        assert_eq!(
            s.stats().misses,
            misses_before,
            "1000-cap buffer serves 900"
        );
        assert!(big.capacity() >= 1000);
    }

    #[test]
    fn u32_pool_best_fit_matches() {
        let s = Scratch::new();
        // Two index buffers of different sizes, checked out together so
        // the small one is not served by the large.
        let big = s.take_u32(1000);
        let small = s.take_u32(10);
        drop(big);
        drop(small);
        // The 10-element buffer serves the request; the 1000 stays pooled.
        let b = s.take_u32(8);
        assert!(b.len() == 8 && b.into_vec().capacity() < 1000);
        let big = s.take_u32(900);
        assert_eq!(s.stats().misses, 2, "1000-cap buffer serves 900");
        assert!(big.into_vec().capacity() >= 1000);
    }

    #[test]
    fn tensor_uninit_reuses_stale_contents_and_tensor_zeroed_clears_them() {
        let s = Scratch::new();
        s.recycle(Tensor::from_vec(vec![7.0; 64], &[64]));
        let t = s.tensor_uninit(&[64]);
        assert!(
            t.data().iter().all(|&x| x == 7.0),
            "a pooled tensor checkout is not rewritten"
        );
        s.recycle(t);
        assert!(s.tensor_zeroed(&[8, 8]).data().iter().all(|&x| x == 0.0));
        // A shorter checkout keeps the stale prefix; growing past the
        // buffer's last length zero-fills only the new tail.
        s.recycle(Tensor::from_vec(vec![3.0; 64], &[64]));
        let short = s.tensor_uninit(&[16]);
        assert!(short.data().iter().all(|&x| x == 3.0));
        s.recycle(short);
        let grown = s.tensor_uninit(&[80]);
        assert!(grown.data()[..16].iter().all(|&x| x == 3.0));
        assert!(grown.data()[16..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tensor_pool_best_fit_matches() {
        let s = Scratch::new();
        s.recycle(Tensor::zeros(&[1000]));
        s.recycle(Tensor::zeros(&[10]));
        let t = s.tensor_uninit(&[8]);
        assert!(t.data().len() == 8 && t.into_vec().capacity() < 1000);
        let big = s.tensor_uninit(&[900]);
        assert_eq!(s.stats().misses, 0);
        assert!(big.into_vec().capacity() >= 1000);
    }

    #[test]
    fn undersized_buffers_are_grown_not_abandoned() {
        let s = Scratch::new();
        drop(s.take(4)); // one miss: seeds the pool
        let b = s.take(100); // a second miss (growth) but reuses the slot
        assert_eq!(b.len(), 100);
        assert_eq!(s.stats().misses, 2);
        drop(b);
        assert_eq!(s.stats().pooled, 1, "grown buffer returns to the pool");
        let c = s.take(100);
        assert_eq!(s.stats().hits, 1);
        assert!(c.capacity() >= 100);
    }

    #[test]
    fn tensors_round_trip_through_the_pool() {
        let s = Scratch::new();
        let t = s.tensor_zeroed(&[3, 4]);
        assert_eq!(t.shape().dims(), &[3, 4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        s.recycle(t);
        let t2 = s.tensor_uninit(&[2, 6]);
        assert_eq!(t2.numel(), 12);
        assert_eq!(s.stats().hits, 1, "same capacity, different shape");
    }

    #[test]
    fn pool_is_bounded() {
        let s = Scratch::new();
        for _ in 0..(Scratch::MAX_POOLED + 10) {
            s.recycle(Tensor::zeros(&[8]));
        }
        assert_eq!(s.stats().pooled, Scratch::MAX_POOLED as u64);
    }

    #[test]
    fn u32_buffers_pool_too() {
        let s = Scratch::new();
        {
            let _a = s.take_u32(16);
        }
        let b = s.take_u32(16);
        assert_eq!(b.len(), 16);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn shared_arena_is_a_singleton() {
        let a = Scratch::shared();
        let b = Scratch::shared();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn concurrent_checkouts_are_safe() {
        let s = Scratch::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let mut b = s.take(32);
                        b[0] = 1.0;
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.checkouts(), 400);
        assert!(st.pooled <= 4);
    }
}
