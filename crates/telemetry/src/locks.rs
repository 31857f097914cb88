//! Named lock wrappers with an opt-in runtime lock-order sanitizer.
//!
//! [`TrackedMutex`] / [`TrackedRwLock`] are the workspace's standard
//! locks for concurrent subsystems (`par`'s result slots, the TSDB map,
//! the alarm store, the `obs` span and metrics registries, histogram
//! exemplar slots). They come in two builds, switched by the
//! `lock-sanitizer` cargo feature:
//!
//! - **off (default)**: `#[inline]` newtypes over `std::sync` that
//!   recover poison via `PoisonError::into_inner` (the workspace
//!   convention: a panicked writer's data is re-validated by the reader,
//!   matching real parking_lot's no-poisoning semantics). The `name`
//!   argument is discarded at compile time — zero overhead.
//!
//! - **on**: every lock instance gets a process-unique id; each thread
//!   keeps a stack of held ids; a global acquisition-order graph records
//!   the edge `held → acquired` the first time each pair nests. Before
//!   adding an edge the sanitizer checks (DFS) whether the *reverse*
//!   order is already reachable — if so, two code paths nest the same
//!   locks in opposite orders, the classic ABBA deadlock, and it panics
//!   naming both orders: the locks held right now and the held-stack
//!   recorded when the conflicting edge was first seen. Re-acquiring a
//!   lock already held by the same thread panics too (self-deadlock for
//!   `Mutex`, writer-starvation deadlock for `RwLock`).
//!
//! Condvar waits release the mutex, so [`wait`] unregisters the guard's
//! id for the duration of the wait and re-registers it on wake —
//! without that, the sanitizer would report phantom nesting for every
//! producer that signals a sleeping consumer.
//!
//! The sanitizer catches *ordering* bugs even when the unlucky
//! interleaving never happens in the test run: it needs each nesting
//! order to be exercised once, on any thread, not the actual collision.

pub use imp::{wait, TrackedMutex, TrackedRwLock};

#[cfg(not(feature = "lock-sanitizer"))]
mod imp {
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

    /// A named mutex; the name is dropped in this build.
    pub struct TrackedMutex<T> {
        inner: Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value`; `name` only matters to the sanitizer build.
        pub const fn new(name: &'static str, value: T) -> Self {
            let _ = name;
            TrackedMutex {
                inner: Mutex::new(value),
            }
        }

        /// Locks, recovering the data from a poisoned mutex.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// A named rwlock; the name is dropped in this build.
    pub struct TrackedRwLock<T> {
        inner: RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// Wraps `value`; `name` only matters to the sanitizer build.
        pub const fn new(name: &'static str, value: T) -> Self {
            let _ = name;
            TrackedRwLock {
                inner: RwLock::new(value),
            }
        }

        /// Acquires a shared read guard, recovering from poison.
        #[inline]
        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires an exclusive write guard, recovering from poison.
        #[inline]
        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Blocks on `cv` releasing `guard`, recovering from poison on wake.
    #[inline]
    pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    // Opaque Debug (no lock taken, no `T: Debug` bound) so containers
    // holding locks can keep their derived impls.
    impl<T> std::fmt::Debug for TrackedMutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("TrackedMutex")
        }
    }

    impl<T> std::fmt::Debug for TrackedRwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("TrackedRwLock")
        }
    }
}

#[cfg(feature = "lock-sanitizer")]
mod imp {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock, PoisonError, RwLock};

    /// Process-unique lock-instance ids, assigned on first acquisition
    /// (so `new` stays `const` and statics keep working).
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// The acquisition-order graph shared by every tracked lock.
    static REGISTRY: OnceLock<Mutex<OrderGraph>> = OnceLock::new();

    thread_local! {
        /// Ids of the locks this thread currently holds, in acquisition
        /// order (innermost last).
        static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    #[derive(Default)]
    struct OrderGraph {
        /// `edges[a]` contains `b` ⇔ some thread acquired `b` while
        /// holding `a`: the order "a before b" has been observed.
        edges: BTreeMap<u64, BTreeSet<u64>>,
        /// Lock names for messages.
        names: BTreeMap<u64, &'static str>,
        /// For each first-seen edge, the held-stack rendering at the
        /// moment it was recorded — the "other stack" in cycle reports.
        contexts: BTreeMap<(u64, u64), String>,
    }

    impl OrderGraph {
        fn name(&self, id: u64) -> &'static str {
            self.names.get(&id).copied().unwrap_or("?")
        }

        /// Whether `to` is reachable from `from` along recorded edges.
        fn reachable(&self, from: u64, to: u64) -> bool {
            let mut stack = vec![from];
            let mut seen = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = self.edges.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        }

        fn held_stack_rendering(&self, held: &[u64], acquiring: u64) -> String {
            let mut names: Vec<String> = held
                .iter()
                .map(|&h| format!("`{}`", self.name(h)))
                .collect();
            names.push(format!("`{}`", self.name(acquiring)));
            format!(
                "[{}] on thread {:?}",
                names.join(" -> "),
                std::thread::current().name().unwrap_or("<unnamed>")
            )
        }
    }

    fn registry() -> &'static Mutex<OrderGraph> {
        REGISTRY.get_or_init(|| Mutex::new(OrderGraph::default()))
    }

    /// Records the acquisition of lock `id`, panicking on a reentrant
    /// acquisition or on the first lock-order cycle.
    fn on_acquire(id: u64, name: &'static str) {
        let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
        if held.contains(&id) {
            // envlint: allow(no-panic) — panicking on hazard is the
            // sanitizer's contract; a reentrant acquisition would
            // deadlock for real without it.
            panic!("lock-sanitizer: reentrant acquisition of `{name}` — the thread already holds this lock");
        }
        {
            let mut graph = registry().lock().unwrap_or_else(PoisonError::into_inner);
            graph.names.insert(id, name);
            for &h in &held {
                if graph.reachable(id, h) {
                    let current = graph.held_stack_rendering(&held, id);
                    // The other stack: the context recorded for an edge
                    // on the existing `id -> ... -> h` path (the direct
                    // edge in the common two-lock case).
                    let reverse = graph
                        .contexts
                        .get(&(id, h))
                        .cloned()
                        .or_else(|| {
                            graph
                                .contexts
                                .iter()
                                .find(|((from, to), _)| {
                                    (*from == id || graph.reachable(id, *from))
                                        && (*to == h || graph.reachable(*to, h))
                                })
                                .map(|(_, ctx)| ctx.clone())
                        })
                        .unwrap_or_else(|| "<context not recorded>".to_string());
                    let held_name = graph.name(h);
                    // envlint: allow(no-panic) — panicking with both
                    // stacks' lock names on the first cycle is the
                    // sanitizer's entire purpose.
                    panic!(
                        "lock-sanitizer: lock-order cycle — acquiring `{name}` while holding `{held_name}`, \
                         but the reverse order was already observed.\n  this stack:  {current}\n  other stack: {reverse}"
                    );
                }
            }
            for &h in &held {
                if graph.edges.entry(h).or_default().insert(id) {
                    let ctx = graph.held_stack_rendering(&held, id);
                    graph.contexts.insert((h, id), ctx);
                }
            }
        }
        HELD.with(|h| h.borrow_mut().push(id));
    }

    /// Records the release of lock `id` (out-of-order drops are fine).
    fn on_release(id: u64) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&x| x == id) {
                held.remove(pos);
            }
        });
    }

    /// A named mutex whose acquisitions feed the order graph.
    pub struct TrackedMutex<T> {
        id: OnceLock<u64>,
        name: &'static str,
        inner: Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// Wraps `value` under `name` (shown in sanitizer reports).
        pub const fn new(name: &'static str, value: T) -> Self {
            TrackedMutex {
                id: OnceLock::new(),
                name,
                inner: Mutex::new(value),
            }
        }

        fn id(&self) -> u64 {
            *self
                .id
                .get_or_init(|| NEXT_ID.fetch_add(1, Ordering::Relaxed))
        }

        /// Locks, recording the acquisition; recovers from poison.
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            let id = self.id();
            on_acquire(id, self.name);
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            TrackedMutexGuard {
                id,
                name: self.name,
                inner: Some(inner),
            }
        }
    }

    /// Guard of a [`TrackedMutex`]; releases its id on drop.
    pub struct TrackedMutexGuard<'a, T> {
        id: u64,
        name: &'static str,
        /// `Some` except transiently inside [`wait`], which hands the
        /// inner guard to the condvar while the thread sleeps.
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // envlint: allow(no-panic) — `inner` is only `None` inside
            // `wait`, which owns the guard by value; no deref can race
            // that window.
            self.inner.as_deref().expect("guard present outside wait")
        }
    }

    impl<T> DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            let inner = self.inner.as_deref_mut();
            // envlint: allow(no-panic) — same invariant as `deref`.
            inner.expect("guard present outside wait")
        }
    }

    impl<T> Drop for TrackedMutexGuard<'_, T> {
        fn drop(&mut self) {
            on_release(self.id);
        }
    }

    /// A named rwlock whose acquisitions feed the order graph. Read and
    /// write acquisitions share the lock's id: ordering hazards are
    /// direction-independent (a reader blocks a writer and vice versa).
    pub struct TrackedRwLock<T> {
        id: OnceLock<u64>,
        name: &'static str,
        inner: RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// Wraps `value` under `name` (shown in sanitizer reports).
        pub const fn new(name: &'static str, value: T) -> Self {
            TrackedRwLock {
                id: OnceLock::new(),
                name,
                inner: RwLock::new(value),
            }
        }

        fn id(&self) -> u64 {
            *self
                .id
                .get_or_init(|| NEXT_ID.fetch_add(1, Ordering::Relaxed))
        }

        /// Acquires a shared read guard, recording the acquisition.
        pub fn read(&self) -> TrackedReadGuard<'_, T> {
            let id = self.id();
            on_acquire(id, self.name);
            TrackedReadGuard {
                id,
                inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Acquires an exclusive write guard, recording the acquisition.
        pub fn write(&self) -> TrackedWriteGuard<'_, T> {
            let id = self.id();
            on_acquire(id, self.name);
            TrackedWriteGuard {
                id,
                inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Read guard of a [`TrackedRwLock`].
    pub struct TrackedReadGuard<'a, T> {
        id: u64,
        inner: std::sync::RwLockReadGuard<'a, T>,
    }

    impl<T> Deref for TrackedReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> Drop for TrackedReadGuard<'_, T> {
        fn drop(&mut self) {
            on_release(self.id);
        }
    }

    /// Write guard of a [`TrackedRwLock`].
    pub struct TrackedWriteGuard<'a, T> {
        id: u64,
        inner: std::sync::RwLockWriteGuard<'a, T>,
    }

    impl<T> Deref for TrackedWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for TrackedWriteGuard<'_, T> {
        fn drop(&mut self) {
            on_release(self.id);
        }
    }

    // Opaque Debug (no lock taken, no `T: Debug` bound) so containers
    // holding locks can keep their derived impls.
    impl<T> std::fmt::Debug for TrackedMutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "TrackedMutex({})", self.name)
        }
    }

    impl<T> std::fmt::Debug for TrackedRwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "TrackedRwLock({})", self.name)
        }
    }

    /// Blocks on `cv` releasing `guard`'s mutex; the guard's id leaves
    /// the thread's held stack for the duration of the sleep (the mutex
    /// really is unlocked) and re-registers on wake.
    pub fn wait<'a, T>(
        cv: &Condvar,
        mut guard: TrackedMutexGuard<'a, T>,
    ) -> TrackedMutexGuard<'a, T> {
        // envlint: allow(no-panic) — `inner` is always present on a
        // caller-supplied guard; only this function vacates it.
        let inner = guard.inner.take().expect("guard present entering wait");
        on_release(guard.id);
        let woken = cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        on_acquire(guard.id, guard.name);
        guard.inner = Some(woken);
        guard
    }
}
