//! Deterministic data-parallel execution for the Env2Vec workspace.
//!
//! A from-scratch scoped worker pool — `std::thread` plus a hand-rolled
//! mpmc channel, no external dependencies — built around one contract:
//!
//! > **Parallel results are bit-identical to sequential results, for any
//! > worker count.**
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
//! Scheduling is deliberately unobservable: which worker runs a job and
//! in what order affects wall-clock time only.
//!
//! # Job grain
//!
//! The pool fans out whole jobs only: one model fit or one build chain
//! in the evaluation harness, one file chunk in `envlint`, one
//! connection in the server. The numeric kernels underneath (`linalg`,
//! `nn`) are sequential; at the model's shapes a matrix product is
//! cheaper than handing its row blocks to workers.
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
//! A scope opened on a pool worker (e.g. a `par_map` inside an eval job)
//! runs its jobs inline on that worker: the pool is finite, so
//! blocking a worker on jobs that need a worker can deadlock, and nested
//! fan-out would oversubscribe the machine anyway. With `threads = 1`
//! everything runs inline on the caller and the pool is never touched.
//!
//! # Panics
//!
//! A panicking job does not abort the process or poison the pool: the
//! first panic payload is captured, every remaining job of the scope
//! still runs to completion (the borrows a scope hands out must not
//! outlive it, even on unwind), and the payload is re-raised from
//! [`scope`] on the spawning thread.

mod chan;
mod pool;

pub use pool::{detached_jobs, spawned_workers};

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

use env2vec_telemetry::locks::{self, TrackedMutex};

/// Environment variable consulted when no explicit thread count is set.
pub const THREADS_ENV_VAR: &str = "ENV2VEC_THREADS";

/// Process-wide thread limit; 0 means "not set".
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Innermost `with_thread_limit` on this thread; 0 means "not set".
    static LOCAL_LIMIT: Cell<usize> = const { Cell::new(0) };
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

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

struct ScopeState {
    /// Spawned-but-unfinished job count, with a condvar for the owner to
    /// wait on. Tracked locks recover poison — scope bookkeeping data
    /// (a counter, an `Option` payload) is valid after any partial
    /// update, and job panics are already funnelled through
    /// `catch_unwind`, so propagating poison would only turn a reported
    /// panic into a second, less informative one.
    pending: TrackedMutex<usize>,
    done: Condvar,
    /// First panic payload raised by a job of this scope.
    panic: TrackedMutex<Option<PanicPayload>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: TrackedMutex::new("par.scope.pending", 0),
            done: Condvar::new(),
            panic: TrackedMutex::new("par.scope.panic", None),
        }
    }
}

/// Handle for spawning jobs inside a [`scope`] call.
///
/// The `'env` lifetime lets jobs borrow from the scope's environment —
/// the pool erases the lifetime internally, and `scope` does not return
/// until every job has finished, so the borrows stay valid.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    inline: bool,
    /// This scope's queue tag; the owner help-steals only jobs carrying
    /// it (never another scope's, never a long-lived detached job).
    tag: u64,
    /// Invariant over `'env`, mirroring `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

/// Scope tags start at 1; 0 is [`pool::TAG_DETACHED`].
static NEXT_SCOPE_TAG: AtomicU64 = AtomicU64::new(1);

impl<'env> Scope<'env> {
    /// Runs `f` on the pool (or inline for single-threaded/nested
    /// scopes). Completion order across jobs is unspecified; determinism
    /// must come from the caller writing to disjoint destinations.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.inline {
            f();
            return;
        }
        *self.state.pending.lock() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the only thing done with the transmuted box is calling
        // it once. `scope` cannot return before `pending` drops to zero —
        // the completion guard waits even while unwinding — so the call
        // happens while every `'env` borrow captured by the closure is
        // still live, and the box is dropped by then.
        let job: pool::Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        pool::submit(
            self.tag,
            Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    let mut slot = state.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                let mut pending = state.pending.lock();
                *pending -= 1;
                if *pending == 0 {
                    state.done.notify_all();
                }
            }),
        );
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

/// Waits for all of a scope's jobs, helping to drain the queue.
///
/// Lives in a `Drop` impl so the wait happens even when the scope body
/// panics — the safety of `Scope::spawn`'s lifetime erasure depends on
/// it.
struct Completion<'a> {
    state: &'a ScopeState,
    tag: u64,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        // Run this scope's queued jobs on this thread instead of
        // sleeping: with k workers the scope owner is the (k+1)-th
        // executor, and if the OS refused us workers entirely this loop
        // alone completes the scope (no deadlock by construction). The
        // steal is tag-filtered — dequeuing a foreign job here would at
        // best delay another scope and at worst block this one for the
        // lifetime of a long-lived detached job (a server connection
        // handler), which is how the pre-tag pool could wedge a short
        // `par_map` behind an open TCP connection.
        loop {
            if *self.state.pending.lock() == 0 {
                return;
            }
            match pool::try_steal_tagged(self.tag) {
                Some(job) => job(),
                None => break,
            }
        }
        // Queue drained of our jobs; the rest are in flight on workers.
        let mut pending = self.state.pending.lock();
        while *pending > 0 {
            pending = locks::wait(&self.state.done, pending);
        }
    }
}

/// Opens a fork/join scope: `f` spawns jobs, and `scope` returns only
/// after every job has completed. The first panic raised by a job is
/// re-raised here on the calling thread.
pub fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let threads = max_threads();
    let inline = threads <= 1 || pool::on_worker_thread();
    let scope = Scope {
        state: Arc::new(ScopeState::new()),
        inline,
        tag: NEXT_SCOPE_TAG.fetch_add(1, Ordering::Relaxed),
        _env: PhantomData,
    };
    if !inline {
        // `threads - 1` workers for this scope's fan-out, plus one per
        // live detached job: long-lived jobs (server connection
        // handlers) occupy a worker for their whole life and must not
        // eat the batch capacity this scope was promised.
        pool::ensure_workers(threads - 1 + pool::detached_jobs());
        env2vec_obs::metrics().counter("par_scopes_total").inc();
    }
    let result = {
        let _completion = Completion {
            state: &scope.state,
            tag: scope.tag,
        };
        f(&scope)
    };
    let payload = scope.state.panic.lock().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    result
}

/// Runs `f` on the pool with no join point: the call returns
/// immediately and the job may outlive the caller (it still cannot
/// outlive the process — workers are daemons).
///
/// Designed for **long-lived** jobs — server accept loops, connection
/// handlers — which break the assumptions scopes are built on, so they
/// get their own contract:
///
/// - each live detached job grows the pool by one worker, so detached
///   jobs never consume the `threads - 1` batch capacity [`scope`]
///   promises its caller;
/// - scope owners never help-steal a detached job (the queue is tagged),
///   so a short `par_map` cannot block behind an open connection;
/// - a panic inside `f` is caught by the worker's backstop and leaves
///   the pool (and the detached-job accounting) serviceable;
/// - `f` executes with worker semantics: scopes opened inside it run
///   inline, exactly like a scope job would.
///
/// The job's execution is wrapped in an [`env2vec_obs`] span named
/// `name`. Returns an error only when the OS refuses both pool growth
/// and a dedicated fallback thread — in that case `f` never runs.
pub fn spawn_detached<F>(name: impl Into<String>, f: F) -> std::io::Result<()>
where
    F: FnOnce() + Send + 'static,
{
    pool::spawn_detached_job(name.into(), Box::new(f))
}

/// A write-once cell for collecting job results in a fixed order.
///
/// Workers `set` into their own slot; after the scope joins, the owner
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
/// across worker counts.
pub fn chunk_ranges(len: usize, chunk_len: usize) -> Vec<Range<usize>> {
    let chunk = chunk_len.max(1);
    (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// Applies `f` to every item in parallel, returning outputs in input
/// order. `f` receives the item's index alongside the item.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let out = slots(items.len());
    scope(|s| {
        for (i, item) in items.into_iter().enumerate() {
            let slot = &out[i];
            let f = &f;
            s.spawn(move || slot.set(f(i, item)));
        }
    });
    out.into_iter()
        .map(|slot| {
            // envlint: allow(no-panic) — an empty slot would mean a job
            // never ran; scope() joins every job and re-raises job panics
            // before control can reach this point.
            slot.take().expect("par_map job completed")
        })
        .collect()
}

/// Maps fixed chunks of `0..len` in parallel, then folds the partial
/// results **in ascending chunk order** on the calling thread.
///
/// Returns `None` when `len == 0`. Because both the chunk boundaries and
/// the fold order are independent of the worker count, a non-associative
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
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_limit(4, || {
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
        assert_eq!(finished.load(Ordering::Relaxed), 20);
        // And the pool is not poisoned: the next scope works normally.
        let after: Vec<i32> = with_thread_limit(4, || par_map(vec![1, 2, 3], |_, x| x * 10));
        assert_eq!(after, vec![10, 20, 30]);
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        with_thread_limit(4, || {
            scope(|outer| {
                for _ in 0..8 {
                    outer.spawn(|| {
                        // Nested scope on a pool worker (or inline on the
                        // owner) must complete without waiting on the
                        // finite pool.
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
        // Pool metrics are published once real workers exist.
        if spawned_workers() > 0 {
            let samples = env2vec_obs::metrics().snapshot();
            assert!(samples.iter().any(|s| s.name == "par_pool_workers"));
        }
    }

    /// Polls `cond` for up to ~2s; detached-job completion is
    /// asynchronous by design, so tests wait for the accounting to
    /// settle instead of assuming it is instant.
    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..2000 {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        cond()
    }

    /// Serialises the tests that spawn detached jobs or read
    /// [`detached_jobs`]: each compares the process-wide live count with
    /// a baseline that another test's jobs would move. A detached job's
    /// accounting settles after its test returns, so taking the lock also
    /// waits (bounded) for the previous holder's jobs to drain.
    fn detached_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failing test poisons the lock (and may leave its jobs
        // blocked); the `()` it guards cannot be inconsistent, and each
        // test measures its own baseline, so later tests carry on.
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        wait_until(|| detached_jobs() == 0);
        guard
    }

    #[test]
    fn detached_job_runs_and_accounting_settles() {
        let _detached = detached_test_lock();
        let (tx, rx) = std::sync::mpsc::channel();
        spawn_detached("par-test/detached-once", move || {
            tx.send(42u32).unwrap();
        })
        .expect("spawn_detached");
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)),
            Ok(42),
            "detached job must run without any scope joining it"
        );
    }

    #[test]
    fn scopes_complete_while_detached_jobs_block() {
        // Regression for the help-stealing protocol: a long-lived
        // detached job sits queued/running while short scopes come and
        // go. Before tagged stealing, a scope owner could pop the
        // long-lived job off the shared queue and block inside
        // `Completion::drop` until the "connection" closed; with tags it
        // may only run its own jobs, so every scope below must finish
        // while the blocker is still alive.
        let _detached = detached_test_lock();
        let release = Arc::new((TrackedMutex::new("par.test.release", false), Condvar::new()));
        let baseline = detached_jobs();
        for _ in 0..3 {
            let release = Arc::clone(&release);
            spawn_detached("par-test/blocking-conn", move || {
                let (lock, cv) = &*release;
                let mut open = lock.lock();
                while !*open {
                    open = locks::wait(cv, open);
                }
            })
            .expect("spawn_detached");
        }
        assert!(
            wait_until(|| detached_jobs() >= baseline + 3),
            "detached jobs should be accounted as live"
        );
        with_thread_limit(4, || {
            for round in 0..200 {
                let out = par_map((0..16).collect(), |_, x: i64| x + round);
                assert_eq!(out.len(), 16);
            }
        });
        // Still blocked — the scopes above cannot have stolen them.
        assert!(detached_jobs() >= baseline + 3);
        let (lock, cv) = &*release;
        *lock.lock() = true;
        cv.notify_all();
        assert!(
            wait_until(|| detached_jobs() <= baseline),
            "released detached jobs should drain from the accounting"
        );
    }

    #[test]
    fn panicking_detached_job_leaves_pool_serviceable() {
        let _detached = detached_test_lock();
        let baseline = detached_jobs();
        spawn_detached("par-test/detached-boom", || panic!("detached boom"))
            .expect("spawn_detached");
        assert!(
            wait_until(|| detached_jobs() <= baseline),
            "panic must still decrement the live-detached count"
        );
        // The pool keeps scheduling: scopes and further detached jobs
        // both work after the panic.
        let after: Vec<i32> = with_thread_limit(4, || par_map(vec![1, 2, 3], |_, x| x * 2));
        assert_eq!(after, vec![2, 4, 6]);
        let (tx, rx) = std::sync::mpsc::channel();
        spawn_detached("par-test/detached-after-boom", move || {
            tx.send(7u32).unwrap();
        })
        .expect("spawn_detached");
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(7));
    }

    #[test]
    fn soak_scope_reuse_with_live_server_jobs() {
        // Server-shaped soak: a detached "accept loop" serves requests
        // over a channel for the whole test while the main thread runs
        // thousands of short scopes, interleaved with requests to the
        // live job. Completion of this test at all is the assertion —
        // the pre-tag pool could wedge a scope behind the server job.
        let _detached = detached_test_lock();
        let (req_tx, req_rx) = std::sync::mpsc::channel::<(u64, std::sync::mpsc::Sender<u64>)>();
        spawn_detached("par-test/soak-server", move || {
            while let Ok((value, reply)) = req_rx.recv() {
                let _ = reply.send(value * 2);
            }
        })
        .expect("spawn_detached");
        with_thread_limit(2, || {
            for round in 0..2000u64 {
                scope(|s| {
                    s.spawn(|| {
                        std::hint::black_box(round);
                    });
                });
                if round % 100 == 0 {
                    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                    req_tx.send((round, reply_tx)).unwrap();
                    assert_eq!(
                        reply_rx.recv_timeout(std::time::Duration::from_secs(5)),
                        Ok(round * 2)
                    );
                }
            }
        });
        drop(req_tx);
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
