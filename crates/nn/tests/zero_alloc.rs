//! Proof that the dense/conv hot path allocates nothing per batch.
//!
//! A counting global allocator wraps the system allocator; the test warms the
//! scratch arena with a few forward/backward passes, switches the counter on,
//! and asserts that further passes perform zero heap allocations, and that
//! evaluation forwards do not either. It walks two stacks: conv → relu →
//! max-pool down to a convolution over 1×1 planes, then flatten → dense;
//! and the convolution kinds of MobileNet and ResNet (depthwise at stride 1
//! and 2, pointwise, a strided 3×3 convolution and a strided 1×1
//! projection).
//!
//! The test pins the thread count to 1 so the parallel helpers take their
//! inline (allocation-free) serial path, and it uses a private scratch arena
//! so concurrently-running tests cannot donate or steal buffers.
//!
//! The gate flag and counter live in `tdfm_obs::memory` (shared with run
//! manifests); only the unavoidable unsafe shim around the `System`
//! allocator lives here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

use tdfm_nn::layer::{Layer, Mode};
use tdfm_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sequential};
use tdfm_obs::memory;
use tdfm_tensor::ops::Conv2dSpec;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{parallel, Scratch, Tensor};

/// Counts allocations (and growing reallocations) while the
/// `tdfm_obs::memory` gate is open. Deallocations are deliberately not
/// counted: returning warm buffers is fine, taking new ones is the bug
/// this test exists to catch.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to the `System` allocator and only
// adds side-effect-free atomic bookkeeping, so `GlobalAlloc`'s contract
// (layout fidelity, no unwinding, no allocator reentrancy) is exactly
// `System`'s, which upholds it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        memory::note_alloc();
        // SAFETY: `layout` is the caller's, forwarded untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `alloc`/`realloc` above, which
        // always return `System` pointers with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        memory::note_alloc();
        // SAFETY: `ptr`/`layout` come from this allocator's own alloc path
        // (which is `System`'s), and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warms `net` with training passes, then requires that training passes
/// and evaluation forwards allocate nothing.
fn assert_steady_state_allocates_nothing(
    name: &str,
    mut net: Sequential,
    x: &Tensor,
    grad: &Tensor,
) {
    let arena = Arc::new(Scratch::new());
    net.bind_scratch(&arena);
    // Warm up: the first passes fill the scratch arena and size the
    // per-layer mask/dims buffers.
    for _ in 0..3 {
        let y = net.forward(x, Mode::Train);
        let gx = net.backward(grad);
        arena.recycle(y);
        arena.recycle(gx);
    }

    memory::reset_allocations();
    memory::set_counting(true);
    for _ in 0..2 {
        let y = net.forward(x, Mode::Train);
        let gx = net.backward(grad);
        arena.recycle(y);
        arena.recycle(gx);
    }
    memory::set_counting(false);

    let allocs = memory::allocations();
    assert_eq!(
        allocs, 0,
        "{name}: steady-state forward/backward passes performed {allocs} heap allocations"
    );
    assert!(arena.stats().hits > 0, "{name}: arena was never used");

    // Evaluation forwards of the same stack: the first drops the Train
    // caches into the arena, after which inference allocates nothing.
    arena.recycle(net.forward(x, Mode::Eval));
    memory::reset_allocations();
    memory::set_counting(true);
    for _ in 0..2 {
        let y = net.forward(x, Mode::Eval);
        arena.recycle(y);
    }
    memory::set_counting(false);
    let allocs = memory::allocations();
    assert_eq!(
        allocs, 0,
        "{name}: steady-state evaluation forwards performed {allocs} heap allocations"
    );
}

/// A spec with the given stride, padding and groups.
fn spec(stride: usize, pad: usize, groups: usize) -> Conv2dSpec {
    Conv2dSpec {
        stride,
        pad,
        groups,
    }
}

// One test, so no other test allocates while the counter is on.
#[test]
fn steady_state_conv_dense_passes_do_not_allocate() {
    parallel::set_num_threads(1);
    let mut rng = Rng::seed_from(0x5EED);

    // The last stage is VGG's deep end at smoke scale: a padded 3×3
    // convolution over 1×1 planes, 36 taps on one pixel.
    let vgg = Sequential::new()
        .push(Conv2d::new(1, 2, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(2, 4, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 4, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(Flatten::new())
        .push(Dense::new(4, 2, &mut rng));
    let x = Tensor::randn(&[4, 1, 4, 4], 1.0, &mut rng);
    assert_steady_state_allocates_nothing("vgg", vgg, &x, &Tensor::ones(&[4, 2]));

    // MobileNet's and ResNet's kinds on 8x8 inputs, over a ragged lane
    // block of samples: depthwise 3x3 at stride 1, pointwise, depthwise at
    // stride 2 (to 4x4), a strided 3x3 convolution (to 2x2) and a strided
    // 1x1 projection (to 1x1).
    let kinds = Sequential::new()
        .push(Conv2d::new(4, 4, 3, spec(1, 1, 4), &mut rng))
        .push(ReLU::new())
        .push(Conv2d::new(4, 8, 1, spec(1, 0, 1), &mut rng))
        .push(ReLU::new())
        .push(Conv2d::new(8, 8, 3, spec(2, 1, 8), &mut rng))
        .push(ReLU::new())
        .push(Conv2d::new(8, 8, 3, spec(2, 1, 1), &mut rng))
        .push(ReLU::new())
        .push(Conv2d::new(8, 4, 1, spec(2, 0, 1), &mut rng))
        .push(Flatten::new())
        .push(Dense::new(4, 2, &mut rng));
    let x = Tensor::randn(&[10, 4, 8, 8], 1.0, &mut rng);
    assert_steady_state_allocates_nothing("mobilenet/resnet", kinds, &x, &Tensor::ones(&[10, 2]));
}
