//! Bounded per-subscriber event queues for the `subscribe` request.
//!
//! Each subscriber connection owns one [`SubscriberQueue`]. Producers
//! (worker threads emitting job-lifecycle events, the accept loop
//! emitting shed events) call [`offer`](SubscriberQueue::offer), which
//! only ever takes a short mutex — it never touches a socket, so a
//! stalled consumer cannot stall the server. The queue is **drop-newest**
//! like [`vrl_obs::EventRing`]: once full, new frames are counted in
//! [`dropped`](SubscriberQueue::dropped) and discarded, and the consumer
//! is told about the gap (a `SubNext::Gap`) the next time it drains dry —
//! a slow subscriber sees a bounded, honest stream, never an unbounded
//! buffer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What [`SubscriberQueue::next`] yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubNext {
    /// A queued event frame, oldest first.
    Frame(String),
    /// Frames were dropped since the consumer last heard about it;
    /// carries the cumulative drop count. Emitted only once per drop
    /// batch, after the retained frames drain.
    Gap(u64),
    /// Nothing arrived within the wait window; the consumer should
    /// re-check its own liveness conditions and call again.
    Idle,
    /// The queue was closed and fully drained; no more frames will come.
    Closed,
}

#[derive(Debug)]
struct SubInner {
    queue: VecDeque<String>,
    /// Frames discarded because the queue was full (cumulative).
    dropped: u64,
    /// The drop count last surfaced to the consumer as a `Gap`.
    reported: u64,
    closed: bool,
}

/// A bounded drop-newest frame queue decoupling event producers from
/// one subscriber's socket. See the module docs for the contract.
#[derive(Debug)]
pub struct SubscriberQueue {
    inner: Mutex<SubInner>,
    readable: Condvar,
    capacity: usize,
}

fn lock_recover<'a>(mutex: &'a Mutex<SubInner>) -> MutexGuard<'a, SubInner> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SubscriberQueue {
    /// A queue holding at most `capacity` frames (minimum 1).
    pub fn bounded(capacity: usize) -> SubscriberQueue {
        SubscriberQueue {
            inner: Mutex::new(SubInner {
                queue: VecDeque::new(),
                dropped: 0,
                reported: 0,
                closed: false,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues one frame for the consumer. Returns `false` when the
    /// frame was dropped — the queue is full or closed. Never blocks on
    /// anything but the internal mutex.
    pub fn offer(&self, frame: &str) -> bool {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return false;
        }
        if inner.queue.len() >= self.capacity {
            inner.dropped += 1;
            // Wake the consumer anyway so it can surface the gap.
            self.readable.notify_one();
            return false;
        }
        inner.queue.push_back(frame.to_owned());
        self.readable.notify_one();
        true
    }

    /// Marks the queue closed and wakes the consumer. Already-queued
    /// frames (and a pending gap) still drain; then `next` yields
    /// [`SubNext::Closed`].
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.readable.notify_all();
    }

    /// Takes the next item, waiting up to `wait` for one to arrive.
    /// Retained frames drain oldest-first; a drop batch is surfaced as
    /// one [`SubNext::Gap`] after the frames it postdates.
    pub fn next(&self, wait: Duration) -> SubNext {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(frame) = inner.queue.pop_front() {
                return SubNext::Frame(frame);
            }
            if inner.dropped > inner.reported {
                inner.reported = inner.dropped;
                return SubNext::Gap(inner.dropped);
            }
            if inner.closed {
                return SubNext::Closed;
            }
            let (guard, timeout) = self
                .readable
                .wait_timeout(inner, wait)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if timeout.timed_out() {
                // Final re-check (an offer may have raced the timeout),
                // then report idleness so the caller can re-assess.
                if inner.queue.is_empty() && inner.dropped == inner.reported {
                    return if inner.closed {
                        SubNext::Closed
                    } else {
                        SubNext::Idle
                    };
                }
            }
        }
    }

    /// Cumulative frames dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        lock_recover(&self.inner).dropped
    }

    /// Frames currently queued (bounded by [`capacity`](Self::capacity)).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).queue.len()
    }

    /// Whether no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drops_newest_keeps_oldest_and_counts() {
        let q = SubscriberQueue::bounded(2);
        assert!(q.offer("a"));
        assert!(q.offer("b"));
        assert!(!q.offer("c"));
        assert!(!q.offer("d"));
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next(Duration::ZERO), SubNext::Frame("a".to_owned()));
        assert_eq!(q.next(Duration::ZERO), SubNext::Frame("b".to_owned()));
        // The gap surfaces once, after the retained frames.
        assert_eq!(q.next(Duration::ZERO), SubNext::Gap(2));
        assert_eq!(q.next(Duration::ZERO), SubNext::Idle);
    }

    #[test]
    fn close_drains_then_terminates() {
        let q = SubscriberQueue::bounded(4);
        q.offer("x");
        q.close();
        assert!(!q.offer("y"), "offers after close are refused");
        assert_eq!(q.next(Duration::ZERO), SubNext::Frame("x".to_owned()));
        assert_eq!(q.next(Duration::ZERO), SubNext::Closed);
    }

    #[test]
    fn memory_stays_bounded_under_flood() {
        let q = SubscriberQueue::bounded(8);
        for i in 0..10_000 {
            q.offer(&format!("frame-{i}"));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.dropped(), 10_000 - 8);
    }

    #[test]
    fn waiting_consumer_wakes_on_offer() {
        let q = Arc::new(SubscriberQueue::bounded(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next(Duration::from_secs(10)))
        };
        // Give the consumer a moment to park, then wake it.
        std::thread::sleep(Duration::from_millis(20));
        q.offer("wake");
        assert_eq!(consumer.join().unwrap(), SubNext::Frame("wake".to_owned()));
    }
}
