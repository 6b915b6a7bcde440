//! A small data-parallel runtime built on std scoped threads.
//!
//! The TDFM study replaces the paper's GPU cluster with CPU threads: the
//! convolution and matmul kernels split their output across worker threads,
//! and ensemble members train on separate threads. Work below a threshold is
//! run inline to avoid thread overhead on the study's many small kernels.
//!
//! # Two-level thread budget
//!
//! The experiment grid adds an *outer* level of parallelism (whole cells /
//! repetitions on worker threads). To keep outer × inner from
//! oversubscribing the machine, outer workers wrap their work in
//! [`with_inner_threads`], which scopes a per-thread cap on the kernel
//! thread count. The cap is thread-local, so kernel parallelism on one
//! outer worker never constrains another.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Estimated total work (elements x per-element cost) below which a kernel
/// runs serially. Scoped worker threads cost tens of microseconds to spawn,
/// so small kernels are cheaper inline.
///
/// Set at the measured crossover (DESIGN.md, "Kernel threads"): on a
/// 2-core AVX2 host, convolution, matmul and pooling calls at the seven
/// models' shapes ran slower at 2 threads than serially up to 2^19 work
/// (median 0.97x there) and faster from 2^20 (median 1.09x).
pub const SERIAL_THRESHOLD: usize = 1 << 20;

/// Hard ceiling on worker threads, whatever the configuration source.
pub const MAX_THREADS: usize = 64;

/// Default cap when the count comes from `available_parallelism` — the
/// kernels stop scaling past this for the study's tensor sizes.
pub const DEFAULT_AUTO_CAP: usize = 16;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread kernel-thread cap installed by [`with_inner_threads`]
    /// (0 = no cap installed).
    static INNER_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads the runtime will use on the current thread.
///
/// Resolution order:
///
/// 1. a scoped inner budget installed by [`with_inner_threads`] (used by
///    outer-level experiment parallelism),
/// 2. a process-wide value set by [`set_num_threads`],
/// 3. the `TDFM_THREADS` environment variable,
/// 4. the machine's available parallelism, capped at
///    [`DEFAULT_AUTO_CAP`] (16).
///
/// Every source is additionally clamped to [`MAX_THREADS`] (64).
///
/// `TDFM_THREADS` is read **once per process**, the first time resolution
/// reaches it, and the parse is cached — this function sits on every
/// kernel's hot path, and `std::env::var` costs a lock plus a UTF-8 walk.
/// Changing the variable after that first read has no effect; use
/// [`set_num_threads`] for runtime control. The `available_parallelism`
/// fallback is cached the same way (it is a syscall).
pub fn num_threads() -> usize {
    let inner = INNER_BUDGET.with(Cell::get);
    if inner > 0 {
        return inner.min(MAX_THREADS);
    }
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    if let Some(n) = threads_from_env() {
        return n;
    }
    auto_threads()
}

/// The cached `available_parallelism` fallback; resolved at most once per
/// process. `num_threads` sits on every kernel's hot path, and
/// `available_parallelism` is a syscall (`sched_getaffinity` on Linux) —
/// calling it per kernel cost ~2.7x on one-epoch fits when `TDFM_THREADS`
/// was unset, while the env/override paths (both cached) stayed fast.
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(DEFAULT_AUTO_CAP))
            .unwrap_or(1)
    })
}

/// The cached `TDFM_THREADS` parse; resolved at most once per process.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Reads `TDFM_THREADS` on first call and caches the result; `None` when
/// unset, unparsable or zero.
#[expect(
    clippy::disallowed_methods,
    reason = "documented read-once config site: TDFM_THREADS (README \"Parallelism\")"
)]
fn threads_from_env() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| parse_thread_env(std::env::var("TDFM_THREADS").ok().as_deref()))
}

/// Parses a `TDFM_THREADS` value, clamping to [`MAX_THREADS`]. `None` when
/// absent, unparsable or zero.
fn parse_thread_env(value: Option<&str>) -> Option<usize> {
    match value?.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n.min(MAX_THREADS)),
        _ => None,
    }
}

/// Overrides the worker-thread count for this process (0 restores defaults).
///
/// Benchmarks use this to pin thread counts for stable measurements.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs `f` with the kernel thread count capped at `n` on this thread.
///
/// This is the inner half of the two-level thread budget: when experiment
/// cells run on outer worker threads, each worker calls
/// `with_inner_threads(total / outer_workers, ...)` so that nested kernel
/// parallelism does not oversubscribe the machine. The cap is restored on
/// exit (including on unwind) and is inherited by nothing — threads spawned
/// inside `f` resolve their own budget.
///
/// Passing `n = 0` removes any cap for the duration of `f`.
pub fn with_inner_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INNER_BUDGET.with(|cell| cell.set(self.0));
        }
    }
    let previous = INNER_BUDGET.with(|cell| {
        let previous = cell.get();
        cell.set(n.min(MAX_THREADS));
        previous
    });
    let _restore = Restore(previous);
    f()
}

/// Splits `data` into `chunk`-sized pieces and runs `f(chunk_index, piece)`
/// on worker threads. The final piece may be shorter.
///
/// This is how kernels write disjoint slices of one output buffer (e.g. one
/// image of a batch per task) without locks.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    work_per_item: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "chunk size must be positive");
    let work = data_work(data.len(), work_per_item);
    let pieces = data.chunks_mut(chunk).enumerate();
    fan_out(work, pieces, |(i, piece)| f(i, piece));
}

/// [`parallel_chunks_mut`] over two buffers at once: piece `i` of `a`
/// (`chunk_a` long) and piece `i` of `b` (`chunk_b` long) go to the same
/// task, as `f(i, piece_a, piece_b)`. Work is estimated from `a`.
///
/// Kernels with two outputs per element (max pooling's value and winning
/// index) write both in one pass this way.
///
/// # Panics
///
/// Panics if a chunk size is zero or the buffers hold different numbers
/// of pieces.
pub fn parallel_zip_chunks_mut<A: Send, B: Send>(
    a: &mut [A],
    chunk_a: usize,
    b: &mut [B],
    chunk_b: usize,
    work_per_item: usize,
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    assert!(chunk_a > 0 && chunk_b > 0, "chunk size must be positive");
    assert_eq!(
        a.len().div_ceil(chunk_a),
        b.len().div_ceil(chunk_b),
        "zipped buffers must split into the same number of pieces"
    );
    let work = data_work(a.len(), work_per_item);
    let pieces = a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate();
    fan_out(work, pieces, |(i, (pa, pb))| f(i, pa, pb));
}

/// Estimated work of a kernel over `len` elements.
fn data_work(len: usize, work_per_item: usize) -> usize {
    len.saturating_mul(work_per_item.max(1))
}

/// The threads a kernel of `work` estimated units fans out to: one below
/// [`SERIAL_THRESHOLD`], else [`num_threads`].
pub(crate) fn threads_for(work: usize) -> usize {
    if work < SERIAL_THRESHOLD {
        1
    } else {
        num_threads()
    }
}

/// Runs `f` over `items`: inline below [`SERIAL_THRESHOLD`] work or at one
/// thread, otherwise on scoped workers that pop items from a shared queue.
fn fan_out<I: Send>(work: usize, items: impl Iterator<Item = I>, f: impl Fn(I) + Sync) {
    let threads = threads_for(work);
    if threads <= 1 {
        items.for_each(f);
        return;
    }
    let items: Vec<I> = items.collect();
    let items = Mutex::new(items);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let f = &f;
            let items = &items;
            scope.spawn(move || loop {
                let item = items.lock().expect("queue lock poisoned").pop();
                match item {
                    Some(item) => f(item),
                    None => break,
                }
            });
        }
    });
}

#[cfg(test)]
#[allow(
    unsafe_code,
    reason = "the env-mutation tests call `set_var`; the crate root denies unsafe_code, so this opt-in stays visible and test-scoped"
)]
mod tests {
    use super::*;

    /// `num_threads` resolution reads process-global state (the override
    /// and `TDFM_THREADS`), so tests touching it serialise on this lock.
    static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_chunks_mut_writes_disjoint() {
        let mut data = vec![0usize; 10_000];
        // Work over the threshold, so the pieces really fan out.
        parallel_chunks_mut(&mut data, 100, SERIAL_THRESHOLD, |i, piece| {
            for x in piece {
                *x = i;
            }
        });
        for (j, &x) in data.iter().enumerate() {
            assert_eq!(x, j / 100);
        }
    }

    #[test]
    fn parallel_zip_chunks_mut_pairs_pieces() {
        let mut a = vec![0usize; 10_000];
        let mut b = vec![0u8; 2_500];
        with_inner_threads(2, || {
            let work = SERIAL_THRESHOLD;
            parallel_zip_chunks_mut(&mut a, 100, &mut b, 25, work, |i, pa, pb| {
                pa.fill(i);
                pb.fill(i as u8);
            });
        });
        assert!(a.iter().enumerate().all(|(j, &x)| x == j / 100));
        assert!(b.iter().enumerate().all(|(j, &x)| x == (j / 25) as u8));
    }

    #[test]
    fn small_work_runs_inline() {
        // Must not deadlock or thread-spawn for tiny inputs.
        let mut data = vec![0u8; 4];
        parallel_chunks_mut(&mut data, 2, 1, |i, piece| piece.fill(i as u8));
        assert_eq!(data, vec![0, 0, 1, 1]);
    }

    #[test]
    fn thread_override_roundtrip() {
        let _guard = GLOBAL_CONFIG.lock().unwrap();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn env_var_parse_accepts_counts_and_rejects_garbage() {
        // The parse itself is pure; `threads_from_env` caches its result in
        // a `OnceLock`, so the parser is what the env-var contract tests.
        assert_eq!(parse_thread_env(Some("5")), Some(5));
        assert_eq!(parse_thread_env(Some(" 12 ")), Some(12));
        // Values above the hard ceiling clamp to MAX_THREADS.
        assert_eq!(parse_thread_env(Some("4096")), Some(MAX_THREADS));
        // Garbage, zero and absence fall through to the auto default.
        assert_eq!(parse_thread_env(Some("zero")), None);
        assert_eq!(parse_thread_env(Some("0")), None);
        assert_eq!(parse_thread_env(None), None);
    }

    #[test]
    fn env_var_is_read_once_per_process() {
        let _guard = GLOBAL_CONFIG.lock().unwrap();
        set_num_threads(0);
        let resolved = num_threads(); // forces the one-time env read
        #[expect(
            clippy::disallowed_methods,
            reason = "saves the variable so the test can restore it"
        )]
        let original = std::env::var("TDFM_THREADS").ok();
        // SAFETY: serialised by GLOBAL_CONFIG; no other thread reads the
        // environment concurrently in this test binary.
        unsafe {
            std::env::set_var("TDFM_THREADS", "61");
        }
        assert_eq!(
            num_threads(),
            resolved,
            "env changes after startup are inert"
        );
        // SAFETY: serialised by GLOBAL_CONFIG; no other thread reads the
        // environment concurrently in this test binary.
        unsafe {
            std::env::set_var("TDFM_THREADS", "62");
        }
        assert_eq!(num_threads(), resolved);
        // SAFETY: same serialisation as above; this restores the variable
        // to its pre-test value before the lock is released.
        unsafe {
            match &original {
                Some(v) => std::env::set_var("TDFM_THREADS", v),
                None => std::env::remove_var("TDFM_THREADS"),
            }
        }
        // `set_num_threads` still overrides the cached value.
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
    }

    #[test]
    fn inner_budget_is_scoped_and_restored() {
        let _guard = GLOBAL_CONFIG.lock().unwrap();
        set_num_threads(8);
        let inside = with_inner_threads(2, num_threads);
        assert_eq!(inside, 2);
        assert_eq!(num_threads(), 8, "budget must be restored on exit");
        // Nested scopes restore the outer scope's budget, not the default.
        with_inner_threads(4, || {
            assert_eq!(num_threads(), 4);
            with_inner_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 4);
        });
        // A zero budget removes the cap for the duration of the scope.
        with_inner_threads(2, || {
            with_inner_threads(0, || assert_eq!(num_threads(), 8));
        });
        set_num_threads(0);
    }

    #[test]
    fn inner_budget_is_per_thread() {
        with_inner_threads(2, || {
            let other = std::thread::scope(|s| s.spawn(num_threads).join().unwrap());
            assert_ne!(other, 0);
            // The spawned thread resolves its own budget; ours stays 2.
            assert_eq!(num_threads(), 2);
            let _ = other;
        });
    }
}
