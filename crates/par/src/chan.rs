//! Minimal multi-producer/multi-consumer job channel.
//!
//! `std::sync::mpsc` is single-consumer, so the pool's queue is a
//! `TrackedMutex<VecDeque>` + `Condvar` pair. Poisoning is recovered
//! rather than propagated: the queue holds only boxed closures and a
//! panicking producer/consumer cannot leave it in a torn state, so the
//! lock data is always valid. Under the `lock-sanitizer` feature the
//! queue lock participates in the process-wide acquisition-order graph.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};

use env2vec_telemetry::locks::{self, TrackedMutex};

struct Shared<T> {
    queue: TrackedMutex<VecDeque<T>>,
    ready: Condvar,
}

/// Sending half; cloneable across producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues a value and wakes one blocked receiver.
    pub fn send(&self, value: T) {
        self.shared.queue.lock().push_back(value);
        self.shared.ready.notify_one();
    }
}

/// Receiving half; cloneable across consumers.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value is available.
    pub fn recv(&self) -> T {
        let mut queue = self.shared.queue.lock();
        loop {
            if let Some(value) = queue.pop_front() {
                return value;
            }
            queue = locks::wait(&self.shared.ready, queue);
        }
    }

    /// Pops a value if one is immediately available.
    #[cfg(test)]
    pub fn try_recv(&self) -> Option<T> {
        self.shared.queue.lock().pop_front()
    }

    /// Pops the oldest queued value matching `pred`, skipping (and
    /// leaving in place) everything else. Lets a scope owner help-steal
    /// its own jobs without dequeuing another scope's — or a long-lived
    /// detached job it would then block on.
    pub fn try_recv_where(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let mut queue = self.shared.queue.lock();
        let index = queue.iter().position(pred)?;
        queue.remove(index)
    }

    /// Number of queued values at this instant.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shared.queue.lock().len()
    }
}

/// Creates a connected mpmc channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: TrackedMutex::new("par.chan.queue", VecDeque::new()),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = channel();
        tx.send(1);
        tx.send(2);
        tx.send(3);
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv(), 2);
        assert_eq!(rx.recv(), 3);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn try_recv_where_pops_oldest_match_and_preserves_the_rest() {
        let (tx, rx) = channel();
        tx.send((0u64, "conn-a"));
        tx.send((1u64, "job-1"));
        tx.send((0u64, "conn-b"));
        tx.send((1u64, "job-2"));
        // A tag-1 steal skips the tag-0 entries entirely.
        assert_eq!(rx.try_recv_where(|(t, _)| *t == 1), Some((1, "job-1")));
        assert_eq!(rx.try_recv_where(|(t, _)| *t == 1), Some((1, "job-2")));
        assert_eq!(rx.try_recv_where(|(t, _)| *t == 1), None);
        // The skipped entries are still queued, in their original order.
        assert_eq!(rx.recv(), (0, "conn-a"));
        assert_eq!(rx.recv(), (0, "conn-b"));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv());
        }
        sender.join().unwrap();
        // Single producer, single consumer: FIFO order is preserved.
        assert_eq!(got, (0..100).collect::<Vec<i32>>());
    }
}
