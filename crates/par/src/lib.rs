//! Deterministic data-parallel execution for the Env2Vec workspace.
//!
//! Scoped fan-out of whole jobs on `std::thread::scope` — no persistent
//! pool, no external dependencies — built around one contract:
//!
//! > **Parallel results are bit-identical to sequential results, for any
//! > thread count.**
//!
//! Three rules make that hold:
//!
//! 1. **Fixed decomposition.** Chunk boundaries ([`chunk_ranges`]) are a
//!    function of the problem size and the chunk length only — never of
//!    the thread count. The same work units exist whether one thread or
//!    sixteen execute them.
//! 2. **Fixed-order reduction.** [`par_map_reduce`] folds partial results
//!    in ascending chunk order, and [`par_map`] returns outputs in input
//!    order, regardless of completion order. Float addition is not
//!    associative; fixing the association fixes the bits.
//! 3. **Independent units.** Callers may only spawn jobs that share no
//!    mutable state (disjoint outputs, or pure functions of explicit
//!    seeds); purity is the caller's obligation.
//!
//! Scheduling is deliberately unobservable: which thread runs a job and
//! in what order affects wall-clock time only.
//!
//! # Job grain
//!
//! `par` fans out whole jobs only: one model fit or one build chain in
//! the evaluation harness, one file chunk in `envlint`. Each takes a
//! millisecond or more, so starting threads per call costs nothing
//! measurable and no pool outlives a call. The numeric kernels
//! underneath (`linalg`, `nn`) are sequential; at the model's shapes a
//! matrix product is cheaper than handing its row blocks to threads.
//! Long-lived work (the server's accept loop and connections) runs on
//! [`spawn_detached`] threads.
//!
//! # Execution
//!
//! [`par_map`] runs its items on the caller plus up to
//! `max_threads() − 1` scoped threads, each claiming the next index
//! from one shared counter until none is left. [`scope`] queues the
//! jobs its body spawns and runs them through `par_map` once the body
//! returns. There is one path at every thread count: at one thread the
//! same loop runs on the caller alone, and a thread the OS refuses
//! leaves its share to the others.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] resolves, in order: the innermost
//! [`with_thread_limit`] on this thread, the process-wide
//! [`set_threads`] value (the `repro --threads` flag), the
//! `ENV2VEC_THREADS` environment variable, and finally
//! `std::thread::available_parallelism()`.
//!
//! # Nesting
//!
//! A `par_map` or `scope` opened inside a job, or on a
//! [`spawn_detached`] thread, runs all its jobs on the calling thread:
//! fan-out inside fan-out would oversubscribe the machine.
//!
//! # Panics
//!
//! A panicking job does not stop its siblings: every job runs, then the
//! payload of the lowest-indexed panicking job is re-raised on the
//! calling thread — the same payload at every thread count.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use env2vec_telemetry::locks::TrackedMutex;

/// Environment variable consulted when no explicit thread count is set.
pub const THREADS_ENV_VAR: &str = "ENV2VEC_THREADS";

/// Process-wide thread limit; 0 means "not set".
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Innermost `with_thread_limit` on this thread; 0 means "not set".
    static LOCAL_LIMIT: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread runs `par` jobs, and on `spawn_detached`
    /// threads: a `par_map` or `scope` opened here stays on this thread.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

fn default_parallelism() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(value) = std::env::var(THREADS_ENV_VAR) {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Sets the process-wide thread limit (e.g. from `repro --threads`).
///
/// Values are clamped to at least 1. Takes precedence over
/// `ENV2VEC_THREADS` and `available_parallelism`, but is itself
/// overridden by an active [`with_thread_limit`].
pub fn set_threads(n: usize) {
    THREAD_LIMIT.store(n.max(1), Ordering::Relaxed);
}

/// Runs `f` with the current thread's limit set to `n`, restoring the
/// previous limit afterwards (also on panic).
pub fn with_thread_limit<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_LIMIT.with(|l| l.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_LIMIT.with(|l| l.replace(n.max(1))));
    f()
}

/// The effective thread count for scopes opened on this thread.
pub fn max_threads() -> usize {
    let local = LOCAL_LIMIT.with(Cell::get);
    if local != 0 {
        return local;
    }
    let global = THREAD_LIMIT.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    default_parallelism()
}

/// Handle for spawning jobs inside a [`scope`] call.
///
/// Jobs may borrow from the scope's environment (`'env`): they all run,
/// and finish, before [`scope`] returns.
pub struct Scope<'env> {
    jobs: RefCell<Vec<Box<dyn FnOnce() + Send + 'env>>>,
}

impl<'env> Scope<'env> {
    /// Queues `f` to run once the scope body returns. Completion order
    /// across jobs is unspecified; determinism must come from the caller
    /// writing to disjoint destinations.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.jobs.borrow_mut().push(Box::new(f));
    }

    /// Like [`Scope::spawn`], wrapping the job in an [`env2vec_obs`] span
    /// recorded on whichever thread executes it.
    pub fn spawn_named<F>(&self, name: impl Into<String>, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let name = name.into();
        self.spawn(move || {
            let _span = env2vec_obs::collector().start(name, Vec::new());
            f();
        });
    }
}

/// Opens a fork/join scope: `f` spawns jobs, they run through
/// [`par_map`] once `f` returns, and `scope` returns after every job has
/// finished. A job's panic is re-raised here on the calling thread.
pub fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let scope = Scope {
        jobs: RefCell::new(Vec::new()),
    };
    let result = f(&scope);
    par_map(scope.jobs.into_inner(), |_, job| job());
    result
}

/// Runs `f` on a thread named `name` with no join point: the call
/// returns at once and `f` may outlive the caller. Meant for long-lived
/// jobs — the server's accept loop and connection handlers.
///
/// A scope `f` opens stays on its thread, as inside a job. A panic in
/// `f` ends only its own thread. Returns an error when the OS refuses
/// the thread; `f` then never runs.
pub fn spawn_detached<F>(name: impl Into<String>, f: F) -> std::io::Result<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            IN_JOB.with(|flag| flag.set(true));
            f();
        })
        .map(drop)
}

/// A write-once cell for collecting job results in a fixed order.
///
/// Jobs `set` into their own slot; after the scope joins, the owner
/// `take`s the slots in input order — completion order never leaks into
/// the assembled output.
pub struct Slot<T>(TrackedMutex<Option<T>>);

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Slot(TrackedMutex::new("par.slot", None))
    }

    /// Stores a value, replacing any previous one.
    pub fn set(&self, value: T) {
        *self.0.lock() = Some(value);
    }

    /// Removes and returns the stored value.
    pub fn take(&self) -> Option<T> {
        self.0.lock().take()
    }
}

/// Creates `n` empty slots.
pub fn slots<T>(n: usize) -> Vec<Slot<T>> {
    (0..n).map(|_| Slot::new()).collect()
}

/// Splits `0..len` into ranges of `chunk_len` (last one possibly short).
///
/// Boundaries depend only on `len` and `chunk_len` — never on the thread
/// count — which is what keeps chunked float reductions bit-identical
/// across thread counts.
pub fn chunk_ranges(len: usize, chunk_len: usize) -> Vec<Range<usize>> {
    let chunk = chunk_len.max(1);
    (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// Applies `f` to every item in parallel, returning outputs in input
/// order. `f` receives the item's index alongside the item.
///
/// Items run on the caller plus up to `max_threads() − 1` scoped
/// threads (none inside a job). Every item runs even if some panic; the
/// payload of the lowest-indexed panicking item is then re-raised here.
/// Each item counts once in the `par_jobs_total` metric.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let inputs: Vec<Slot<I>> = items
        .into_iter()
        .map(|item| Slot(TrackedMutex::new("par.slot", Some(item))))
        .collect();
    let outputs: Vec<Slot<std::thread::Result<O>>> = slots(inputs.len());
    // Only claims indices: items and outputs pass through the slots'
    // locks, and the thread scope's join orders them before the reads
    // below.
    let next = AtomicUsize::new(0);
    let jobs_total = env2vec_obs::metrics().counter("par_jobs_total");
    let work = || {
        let outer = IN_JOB.with(|flag| flag.replace(true));
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = inputs.get(i).and_then(Slot::take) else {
                break;
            };
            outputs[i].set(catch_unwind(AssertUnwindSafe(|| f(i, item))));
            jobs_total.inc();
        }
        IN_JOB.with(|flag| flag.set(outer));
    };
    let threads = if IN_JOB.with(Cell::get) {
        1
    } else {
        max_threads().min(inputs.len())
    };
    std::thread::scope(|s| {
        for k in 1..threads {
            // A refused thread leaves its share to the others; the
            // caller's own loop below can finish every item alone.
            let _ = std::thread::Builder::new()
                .name(format!("par-worker-{k}"))
                .spawn_scoped(s, work);
        }
        work();
    });
    outputs
        .into_iter()
        .map(|slot| {
            // envlint: allow(no-panic) — every index below the item count
            // is claimed by exactly one loop, which fills its slot before
            // the thread scope above joins.
            match slot.take().expect("par_map item ran") {
                Ok(output) => output,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect()
}

/// Maps fixed chunks of `0..len` in parallel, then folds the partial
/// results **in ascending chunk order** on the calling thread.
///
/// Returns `None` when `len == 0`. Because both the chunk boundaries and
/// the fold order are independent of the thread count, a non-associative
/// `reduce` (float accumulation) still yields bit-identical results for
/// 1 vs N threads.
pub fn par_map_reduce<T, M, R>(len: usize, chunk_len: usize, map: M, reduce: R) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    R: Fn(T, T) -> T,
{
    par_map(chunk_ranges(len, chunk_len), |_, range| map(range))
        .into_iter()
        .reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Condvar};
    use std::time::Duration;

    use env2vec_telemetry::locks;

    #[test]
    fn chunk_boundaries_ignore_thread_count() {
        let expected = vec![0..4, 4..8, 8..10];
        assert_eq!(chunk_ranges(10, 4), expected);
        for threads in [1, 2, 8] {
            with_thread_limit(threads, || {
                assert_eq!(chunk_ranges(10, 4), expected);
            });
        }
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(3, 0), vec![0..1, 1..2, 2..3]);
        assert_eq!(chunk_ranges(4, 100), vec![0..4]);
    }

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 4] {
            with_thread_limit(threads, || {
                let out = par_map((0..64).collect(), |i, x: i64| {
                    assert_eq!(i as i64, x);
                    x * x
                });
                assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<i64>>());
            });
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // Sum in an order where float addition's non-associativity shows:
        // mixing magnitudes makes any reassociation change the bits.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize % 1_000_003) as f64).exp2() * 1e-300)
            .collect();
        let run = |threads: usize| {
            with_thread_limit(threads, || {
                par_map_reduce(
                    values.len(),
                    128,
                    |range| values[range].iter().sum::<f64>(),
                    |a, b| a + b,
                )
                .expect("non-empty")
            })
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads).to_bits(), one.to_bits(), "{threads} threads");
        }
        assert_eq!(
            par_map_reduce(0, 8, |_| 0.0f64, |a, b| a + b),
            None,
            "empty input"
        );
    }

    #[test]
    fn scope_joins_before_returning() {
        let counter = AtomicU64::new(0);
        with_thread_limit(4, || {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panic_propagates_to_scope_owner_after_all_jobs_finish() {
        for threads in [1, 4] {
            let finished = AtomicU64::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_thread_limit(threads, || {
                    scope(|s| {
                        s.spawn(|| panic!("job boom"));
                        for _ in 0..20 {
                            s.spawn(|| {
                                finished.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }));
            let payload = result.expect_err("job panic must propagate");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("panic payload is the original message");
            assert_eq!(message, "job boom");
            // The panic must not leak other jobs: every sibling still ran.
            assert_eq!(finished.load(Ordering::Relaxed), 20, "{threads} threads");
            // And nothing is poisoned: the next scope works normally.
            let after: Vec<i32> =
                with_thread_limit(threads, || par_map(vec![1, 2, 3], |_, x| x * 10));
            assert_eq!(after, vec![10, 20, 30]);
        }
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        with_thread_limit(4, || {
            scope(|outer| {
                for _ in 0..8 {
                    outer.spawn(|| {
                        // A scope opened inside a job runs on that job's
                        // thread and must complete without fanning out.
                        scope(|inner| {
                            for _ in 0..8 {
                                inner.spawn(|| {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn with_thread_limit_restores_on_panic() {
        let before = max_threads();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_limit(3, || {
                assert_eq!(max_threads(), 3);
                panic!("inner");
            })
        }));
        assert!(result.is_err());
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn spawn_named_records_worker_spans() {
        let collector = env2vec_obs::collector();
        let before = collector.len();
        with_thread_limit(4, || {
            scope(|s| {
                for i in 0..4 {
                    s.spawn_named(format!("par-test/job{i}"), move || {
                        std::hint::black_box(i);
                    });
                }
            });
        });
        let records = collector.records();
        assert!(records.len() >= before + 4);
        for i in 0..4 {
            let name = format!("par-test/job{i}");
            let record = records
                .iter()
                .find(|r| r.name == name)
                .expect("worker span recorded");
            // Worker jobs are roots on their executing thread; a sibling
            // span open elsewhere must never become their parent.
            assert_eq!(record.parent, 0, "{name}");
        }
    }

    #[test]
    fn detached_job_runs_and_nested_scopes_run_inline() {
        let (tx, rx) = std::sync::mpsc::channel();
        spawn_detached("par-test/detached-once", move || {
            let here = std::thread::current().id();
            let ran_on = with_thread_limit(4, || {
                par_map((0..16).collect(), |_, _: u32| std::thread::current().id())
            });
            tx.send((here, ran_on)).unwrap();
        })
        .expect("spawn_detached");
        let (here, ran_on) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("detached job must run without any scope joining it");
        assert_eq!(ran_on.len(), 16);
        assert!(ran_on.iter().all(|id| *id == here), "{ran_on:?}");
    }

    #[test]
    fn scopes_complete_while_detached_threads_block() {
        // Three long-lived "connections" stay blocked for the whole run
        // of short scopes below; every scope must still finish.
        let release = Arc::new((TrackedMutex::new("par.test.release", false), Condvar::new()));
        let started = Arc::new(std::sync::Barrier::new(4));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let (release, started, done_tx) =
                (Arc::clone(&release), Arc::clone(&started), done_tx.clone());
            spawn_detached("par-test/blocking-conn", move || {
                started.wait();
                let (lock, cv) = &*release;
                let mut open = lock.lock();
                while !*open {
                    open = locks::wait(cv, open);
                }
                drop(open);
                done_tx.send(()).unwrap();
            })
            .expect("spawn_detached");
        }
        started.wait();
        with_thread_limit(4, || {
            for round in 0..200 {
                let out = par_map((0..16).collect(), |_, x: i64| x + round);
                assert_eq!(out.len(), 16);
            }
        });
        assert!(done_rx.try_recv().is_err(), "blockers are still blocked");
        let (lock, cv) = &*release;
        *lock.lock() = true;
        cv.notify_all();
        for _ in 0..3 {
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("released detached threads finish");
        }
    }

    #[test]
    fn slot_set_take_round_trip() {
        let slot = Slot::new();
        assert_eq!(slot.take(), None);
        slot.set(7);
        slot.set(8);
        assert_eq!(slot.take(), Some(8));
        assert_eq!(slot.take(), None);
    }
}
