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
//! message mailbox hands out fresh `Vec`s on receive, so a multi-rank step
//! cannot be allocation-free; there the assertion is that the walk over
//! the step program adds nothing to what its exchanges allocate on their
//! own — measured by replaying the program's exchanges, and only those,
//! through an exchanger of the same shape.
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

/// Allocations of `STEPS` steady-state Algorithm 2 steps on a two-rank
/// thread world, and of the same number of replays of the program's
/// exchanges alone (both ranks counted, both windows bracketed by the same
/// barriers).
fn alg2_step_allocs_vs_its_exchanges() -> (u64, u64) {
    use agcm_comm::Universe;
    use agcm_core::init;
    use agcm_core::par::{with_fields, CaModel, HaloExchanger, StepOp};
    use agcm_core::{pool, ModelConfig, State};
    use agcm_mesh::{Decomposition, ProcessGrid};
    const STEPS: usize = 10;

    let counted = |comm: &agcm_comm::Communicator, work: &mut dyn FnMut()| {
        comm.barrier().unwrap();
        if comm.rank() == 0 {
            ALLOCS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
        }
        comm.barrier().unwrap();
        work();
        comm.barrier().unwrap();
        COUNTING.store(false, Ordering::SeqCst);
        comm.barrier().unwrap();
        ALLOCS.load(Ordering::SeqCst)
    };
    let counts = Universe::run(2, move |comm| {
        pool::with_workers(1, || {
            let cfg = ModelConfig {
                ny: 24,
                ..ModelConfig::test_medium()
            };
            let pgrid = ProcessGrid::yz(2, 1).unwrap();
            // a fused rung: overlapped exchanges, split kernels, deep halos
            let mut m = CaModel::with_groups(&cfg, pgrid, comm, (3, true, 3)).unwrap();
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
            for _ in 0..3 {
                m.step(comm).unwrap();
            }
            let stepping = counted(comm, &mut || {
                for _ in 0..STEPS {
                    m.step(comm).unwrap();
                }
            });

            // the program's exchanges and nothing else
            let program = m.program().to_vec();
            let decomp = Decomposition::new(cfg.extents(), pgrid).unwrap();
            let mut exchanger = HaloExchanger::new(decomp, comm.rank());
            let mut st = State::like(&m.state);
            let mut replay = |exchanger: &mut HaloExchanger| {
                for op in &program {
                    if let StepOp::Exchange(x) = op {
                        with_fields(x.fields, &mut st, &mut m.engine.diag, |f| {
                            exchanger.exchange(comm, x.depth, f)
                        })
                        .unwrap();
                    }
                }
            };
            for _ in 0..3 {
                replay(&mut exchanger);
            }
            let exchanging = counted(comm, &mut || {
                for _ in 0..STEPS {
                    replay(&mut exchanger);
                }
            });
            (stepping, exchanging)
        })
    });
    counts[0]
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

    // Algorithm 2 on two ranks: the interpreter adds no allocation of its
    // own to the message buffers of its exchanges.  The two windows see the
    // transport's queues at different fill levels, so allow them to differ
    // by less than one allocation a step per rank (2 ranks x 10 steps).
    let (stepping, exchanging) = alg2_step_allocs_vs_its_exchanges();
    assert!(exchanging > 0, "exchanges allocate their message buffers");
    assert!(
        stepping < exchanging + 20,
        "10 Algorithm 2 steps allocated {stepping} times, their exchanges alone {exchanging}"
    );
}
