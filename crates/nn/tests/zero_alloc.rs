//! Proof that every model's training and evaluation passes allocate
//! nothing once warm.
//!
//! A counting global allocator wraps the system allocator. For each of the
//! seven `ModelKind`s, on three input shapes and class counts and at every
//! SIMD level this machine has, the test warms a freshly built network's scratch arena
//! with training passes, switches the counter on, and asserts that further
//! training passes (forward and backward), training steps whose backward
//! pass stops at the first layer with parameters (the trainer's,
//! `Network::backward_params`) and evaluation forwards perform zero heap
//! allocations, and that a warm `Network::logits` call over three
//! mini-batches allocates only the logits it returns.
//!
//! Built through `ModelKind::build`, the models reach every kernel the
//! study trains through: VGG's padded 3×3 convolution over 1×1 planes,
//! MobileNet's depthwise convolutions at stride 1 and 2 and its pointwise
//! ones, ResNet's strided 3×3 convolution and strided 1×1 projection, max
//! and global-average pooling, batch norm, dropout, and the packed and
//! direct GEMM behind the dense heads. A batch of 10 leaves a ragged lane
//! block. Every public kernel entry in `ops::{conv,gemm,matmul,pool}` is
//! reached, except `ops::matmul`, the tests' reference product.
//!
//! The test pins the thread count to 1 so the parallel helpers take their
//! inline (allocation-free) serial path, and it gives each network a
//! private scratch arena so concurrently-running tests cannot donate or
//! steal buffers.
//!
//! The gate flag and counter live in `tdfm_obs::memory` (shared with run
//! manifests); only the unavoidable unsafe shim around the `System`
//! allocator lives here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::{Mode, Network};
use tdfm_obs::memory;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
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

/// Training passes before counting starts. The arena fills in fewer: the
/// last pass that allocated was the 13th (ResNet50 on 1×16×16 inputs;
/// ResNet18 the 10th, every other model the 7th or earlier), the same at
/// every SIMD level.
const WARMUP: usize = 16;

/// Samples per pass: one full lane block of eight and a ragged one.
const BATCH: usize = 10;

/// Mini-batch of the `Network::logits` check: three chunks of a batch.
const LOGITS_BATCH: usize = 4;

/// The input shapes and class counts: CIFAR-like colour, greyscale large
/// enough that VGG pools down to 1×1 planes one stage earlier, and that
/// greyscale with Pneumonia's two classes, whose heads are too narrow for
/// the packed GEMM and take the direct loops (`gemm_direct*`).
const CASES: [((usize, usize, usize), usize); 3] =
    [((3, 8, 8), 10), ((1, 16, 16), 10), ((1, 16, 16), 2)];

/// Heap allocations made by `passes` calls of `pass`.
fn allocations(passes: usize, mut pass: impl FnMut()) -> u64 {
    memory::reset_allocations();
    memory::set_counting(true);
    for _ in 0..passes {
        pass();
    }
    memory::set_counting(false);
    memory::allocations()
}

/// Warms `net` with training passes, then requires that training passes
/// and evaluation forwards allocate nothing.
fn assert_steady_state_allocates_nothing(name: &str, mut net: Network, x: &Tensor) {
    let arena = Arc::new(Scratch::new());
    net.bind_scratch(&arena);
    let grad = Tensor::ones(&[BATCH, net.classes()]);
    let mut train = || {
        let y = net.forward(x, Mode::Train);
        let gx = net.backward(&grad);
        arena.recycle(y);
        arena.recycle(gx);
    };
    for _ in 0..WARMUP {
        train();
    }
    let allocs = allocations(2, &mut train);
    assert_eq!(
        allocs, 0,
        "{name}: steady-state forward/backward passes performed {allocs} heap allocations"
    );
    assert!(arena.stats().hits > 0, "{name}: arena was never used");

    // The trainer's backward pass, which stops at the first layer that
    // holds parameters, draws its own buffers: warm them, then count.
    let mut step = || {
        let y = net.forward(x, Mode::Train);
        net.backward_params(&grad);
        arena.recycle(y);
    };
    for _ in 0..WARMUP {
        step();
    }
    let allocs = allocations(2, &mut step);
    assert_eq!(
        allocs, 0,
        "{name}: steady-state training steps (trainer backward) performed {allocs} heap allocations"
    );

    // Evaluation forwards of the same network: the first drops the Train
    // caches into the arena, after which inference allocates nothing.
    arena.recycle(net.forward(x, Mode::Eval));
    let allocs = allocations(2, || arena.recycle(net.forward(x, Mode::Eval)));
    assert_eq!(
        allocs, 0,
        "{name}: steady-state evaluation forwards performed {allocs} heap allocations"
    );

    // Batched inference over three mini-batches (4, 4 and 2 samples):
    // once warm, the logits tensor it returns is its only allocation.
    let _ = net.logits(x, LOGITS_BATCH);
    let allocs = allocations(1, || drop(net.logits(x, LOGITS_BATCH)));
    assert_eq!(
        allocs, 1,
        "{name}: a warm logits call performed {allocs} heap allocations, not only its result"
    );
}

// One test, so no other test allocates while the counter is on (and
// `force_simd`, a process global, changes under no other test).
#[test]
fn every_model_trains_and_evaluates_without_allocating() {
    parallel::set_num_threads(1);
    for level in available_levels() {
        force_simd(Some(level));
        for (in_shape, classes) in CASES {
            let (c, h, w) = in_shape;
            let x = Tensor::randn(&[BATCH, c, h, w], 1.0, &mut Rng::seed_from(0x5EED));
            for kind in ModelKind::ALL {
                let cfg = ModelConfig {
                    in_shape,
                    classes,
                    width: 4,
                    seed: 7,
                };
                let name = format!("{kind} on {c}x{h}x{w}, {classes} classes, at {level:?}");
                assert_steady_state_allocates_nothing(&name, kind.build(&cfg), &x);
            }
        }
    }
    force_simd(None);
}
