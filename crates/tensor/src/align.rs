//! A 32-byte-aligned, growable `f32` buffer for the [`Scratch`] arena.
//!
//! AVX2 works on 32-byte vectors; when a buffer's base address is 32-byte
//! aligned, none of the 8-lane loads in the packed GEMM panels straddle a
//! cache line. `Vec<f32>` only guarantees 4-byte
//! alignment, so the arena's raw checkouts use this type instead. The
//! kernels still use unaligned load instructions — alignment here is a
//! performance property, never a safety requirement.
//!
//! [`Scratch`]: crate::scratch::Scratch
#![allow(unsafe_code, reason = "an aligned buffer owns a raw allocation")]

use std::alloc::{alloc, dealloc, Layout};

/// Alignment (bytes) of every non-empty [`AlignedVec`] allocation.
pub const SIMD_ALIGN: usize = 32;

/// A `Vec<f32>`-alike whose backing allocation is 32-byte aligned.
///
/// Supports exactly the operations the scratch pool needs: resize (new
/// elements zeroed, like `Vec::resize(_, 0.0)`), resize that keeps stale
/// contents, slice access, capacity queries. Growth preserves the live
/// prefix.
///
/// The first `init` elements of the allocation have been written at some
/// point (`len <= init <= cap`); only those are ever exposed, so a
/// length reset by [`AlignedVec::clear`] can be undone by
/// [`AlignedVec::resize_stale`] without re-zeroing.
#[derive(Debug)]
pub struct AlignedVec {
    ptr: *mut f32,
    len: usize,
    init: usize,
    cap: usize,
}

// SAFETY: AlignedVec uniquely owns its allocation (no aliasing, no
// interior mutability); moving it between threads moves plain f32 data.
unsafe impl Send for AlignedVec {}
// SAFETY: shared references only permit reads of the owned buffer.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            len: 0,
            init: 0,
            cap: 0,
        }
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let mut v = Self::new();
        v.resize_zeroed(len);
        v
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f32>(), SIMD_ALIGN)
            .expect("aligned buffer layout overflow")
    }

    /// Elements currently live.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Sets the length to `len`, zeroing any newly exposed elements —
    /// exactly `Vec::resize(len, 0.0)` semantics (a shrink keeps the
    /// truncated bytes; regrowing re-zeroes them before exposure).
    pub fn resize_zeroed(&mut self, len: usize) {
        let old = self.len.min(len);
        self.resize_stale(len);
        self.as_mut_slice()[old..].fill(0.0);
    }

    /// Sets the length to `len`, keeping whatever the elements held
    /// before (stale values from an earlier use, or zeros). Only elements
    /// never written before are zeroed, so a pooled buffer is reused
    /// without a full rewrite.
    pub fn resize_stale(&mut self, len: usize) {
        if len > self.cap {
            self.grow(len);
        }
        if len > self.init {
            // SAFETY: init < len <= cap, so [init, len) lies inside the
            // allocation; writing zeros initialises it.
            unsafe { std::ptr::write_bytes(self.ptr.add(self.init), 0, len - self.init) };
            self.init = len;
        }
        self.len = len;
    }

    fn grow(&mut self, want: usize) {
        debug_assert!(want > self.cap);
        // SAFETY: layout has non-zero size (want > cap >= 0 so want >= 1).
        let new_ptr = unsafe { alloc(Self::layout(want)) } as *mut f32;
        assert!(!new_ptr.is_null(), "aligned allocation failed");
        if self.len > 0 {
            // SAFETY: both regions are valid for `len` elements and
            // distinct allocations (nonoverlapping).
            unsafe { std::ptr::copy_nonoverlapping(self.ptr, new_ptr, self.len) };
        }
        self.release();
        self.ptr = new_ptr;
        self.init = self.len;
        self.cap = want;
    }

    fn release(&mut self) {
        if self.cap > 0 {
            // SAFETY: ptr was allocated with exactly this layout.
            unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.cap)) };
            self.ptr = std::ptr::null_mut();
            self.init = 0;
            self.cap = 0;
        }
    }

    /// Drops all live elements (length zero; capacity retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The live elements.
    pub fn as_slice(&self) -> &[f32] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr is valid for len initialised f32s (init >= len > 0).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The live elements, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: ptr is valid for len initialised f32s (init >= len) and
        // uniquely owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        self.release();
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_32_byte_aligned() {
        for len in [1usize, 7, 8, 63, 64, 1000] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % SIMD_ALIGN, 0, "len {len}");
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn growth_preserves_prefix_and_zeroes_the_rest() {
        let mut v = AlignedVec::zeroed(4);
        v.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        v.resize_zeroed(100);
        assert_eq!(&v[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert!(v[4..].iter().all(|&x| x == 0.0));
        assert_eq!(v.as_slice().as_ptr() as usize % SIMD_ALIGN, 0);
    }

    #[test]
    fn clear_then_resize_reexposes_zeroes() {
        let mut v = AlignedVec::zeroed(8);
        v.as_mut_slice().fill(9.0);
        v.clear();
        assert!(v.is_empty());
        v.resize_zeroed(8);
        assert!(v.iter().all(|&x| x == 0.0), "stale values must not leak");
    }

    #[test]
    fn resize_stale_keeps_written_values_and_zeroes_the_rest() {
        let mut v = AlignedVec::zeroed(8);
        v.as_mut_slice().fill(9.0);
        v.clear();
        v.resize_stale(6);
        assert!(v.iter().all(|&x| x == 9.0), "stale prefix reused as is");
        v.resize_stale(8);
        assert!(v.iter().all(|&x| x == 9.0), "within the high-water mark");
        v.resize_stale(6);
        v.resize_stale(12); // grows: keeps the 6 live values only
        assert!(v[..6].iter().all(|&x| x == 9.0));
        assert!(
            v[6..].iter().all(|&x| x == 0.0),
            "never-exposed tail zeroed"
        );
        v.clear();
        v.resize_stale(100); // grows: nothing live to keep
        assert!(v.iter().all(|&x| x == 0.0), "fresh allocation zeroed");
        assert_eq!(v.as_slice().as_ptr() as usize % SIMD_ALIGN, 0);
    }

    #[test]
    fn shrink_then_regrow_within_capacity() {
        let mut v = AlignedVec::zeroed(16);
        v.as_mut_slice().fill(5.0);
        v.resize_zeroed(4);
        assert_eq!(v.len(), 4);
        v.resize_zeroed(16);
        assert!(v.iter().all(|&x| x == 0.0 || x == 5.0));
        assert!(v[4..].iter().all(|&x| x == 0.0), "regrown tail re-zeroed");
    }
}
