//! Steady-state stepping performs **zero heap allocation**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up step has grown every scratch buffer (the batched filter's
//! per-worker FFT arenas, the tendency sweeps' per-worker staged-quotient
//! and tendency rows, column sums, exchange staging, state scratch),
//! further serial steps must not allocate at all at one worker.  At two
//! workers spawning scoped threads allocates by design — a few
//! bookkeeping objects of tens of bytes per spawn — so there the assertion
//! is on size: nothing as large as the smallest scratch buffer (a tendency
//! row, 8 bytes a longitude) may be allocated, i.e. no arena or row buffer
//! is grown or rebuilt in steady state.  The
//! message mailbox hands out fresh `Vec`s on receive, so the multi-rank
//! paths are excluded.
//!
//! This test gets its own binary so the global allocator hook cannot leak
//! into unrelated tests.  It is also the only `unsafe` in the workspace
//! (every crate is `#![forbid(unsafe_code)]`): a `GlobalAlloc` impl cannot
//! be written without it.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` — same layout/pointer contract,
// no additional invariants; the counter bump is allocation-free atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
        // layout); forwarded to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Self::alloc`, i.e. by `System`,
        // with the same `layout` — exactly what `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` come from `Self::alloc` (backed by
        // `System`) and the caller upholds `realloc`'s non-zero `new_size`
        // contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count and largest request of three steady-state serial steps
/// at `workers` pool workers (model built, warmed two steps, then counted).
fn steady_state_allocs(workers: usize) -> (u64, usize, usize) {
    use agcm_core::init;
    use agcm_core::pool;
    use agcm_core::serial::{Iteration, SerialModel};
    use agcm_core::ModelConfig;

    pool::with_workers(workers, || {
        let cfg = ModelConfig::test_small();
        let mut m = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        // warm-up: grows every lazily-sized scratch buffer exactly once
        m.run(2);

        // sanity: the hook really counts (a deliberate allocation registers)
        COUNTING.store(true, Ordering::SeqCst);
        let probe: Vec<u64> = std::hint::black_box((0..17).collect());
        COUNTING.store(false, Ordering::SeqCst);
        assert!(probe.len() == 17 && ALLOCS.load(Ordering::SeqCst) > 0);
        assert!(LARGEST.load(Ordering::SeqCst) >= 17 * 8);
        ALLOCS.store(0, Ordering::SeqCst);
        LARGEST.store(0, Ordering::SeqCst);
        drop(probe);

        COUNTING.store(true, Ordering::SeqCst);
        m.run(3);
        COUNTING.store(false, Ordering::SeqCst);

        assert!(!m.state.has_nan());
        (
            ALLOCS.load(Ordering::SeqCst),
            LARGEST.load(Ordering::SeqCst),
            m.geom().nx,
        )
    })
}

// one test function: the counters are process-global, and the test
// harness would run two functions concurrently
#[test]
fn steady_state_steps_do_not_allocate() {
    let (n, _, _) = steady_state_allocs(1);
    assert_eq!(n, 0, "steady-state stepping allocated {n} times");

    // two workers: every band of the batched filter and of the tendency
    // sweeps has its own warmed buffers; the smallest any scratch holds is
    // one tendency row of the sweeps (8 bytes a longitude; a staged
    // quotient row is three points longer, a filter circle twice as big),
    // thread-spawn bookkeeping is smaller
    let (n, largest, nx) = steady_state_allocs(2);
    assert!(n > 0, "two workers must have spawned pool threads");
    assert!(
        largest < 8 * nx,
        "steady-state stepping at 2 workers allocated {largest} bytes at once \
         (smallest scratch buffer: {} bytes)",
        8 * nx
    );
}
