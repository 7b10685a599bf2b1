//! The bounded ingestion queue between translation threads and the
//! ingestion worker.
//!
//! Producers ([`TemplarService::submit_sql`](crate::TemplarService::submit_sql))
//! never block: a full queue fails fast with
//! [`ServiceError::QueueFull`], which bounds
//! the memory the serving process can spend on un-ingested log entries no
//! matter how far the worker falls behind.  The single consumer (the
//! worker) blocks with a timeout so it can also wake up for time-based
//! snapshot refreshes.

use crate::error::ServiceError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct QueueState {
    entries: VecDeque<String>,
    closed: bool,
}

/// A bounded MPSC queue of raw SQL strings.
#[derive(Debug)]
pub struct IngestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
}

impl IngestQueue {
    pub fn new(capacity: usize) -> Self {
        IngestQueue {
            state: Mutex::new(QueueState {
                entries: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue one entry without blocking.
    pub fn submit(&self, sql: String) -> Result<(), ServiceError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServiceError::ShuttingDown);
        }
        if state.entries.len() >= self.capacity {
            return Err(ServiceError::QueueFull);
        }
        state.entries.push_back(sql);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue up to `max` entries, waiting at most `timeout` for the first
    /// one.  Returns an empty vector on timeout or when the queue is closed
    /// and drained.
    ///
    /// The wait loops on the condvar against an absolute deadline: condvar
    /// waits are allowed to wake spuriously (and `notify_all` from `close`
    /// races benignly with late producers), so a single `wait_timeout` would
    /// both return an empty batch early *and* shorten the effective
    /// deadline — spinning the worker loop faster than its configured
    /// refresh interval.  Waking with no entries before the deadline goes
    /// back to sleep for exactly the time that remains.
    pub fn drain(&self, max: usize, timeout: Duration) -> Vec<String> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        while state.entries.is_empty() && !state.closed {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            if remaining.is_zero() {
                break;
            }
            let (next, _timed_out) = self
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| {
                    let (guard, timeout_result) = e.into_inner();
                    (guard, timeout_result)
                });
            state = next;
        }
        let take = state.entries.len().min(max.max(1));
        state.entries.drain(..take).collect()
    }

    /// Close the queue: producers start failing with `ShuttingDown`, the
    /// consumer drains what is left.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn submit_fails_fast_at_capacity() {
        let q = IngestQueue::new(2);
        q.submit("a".into()).unwrap();
        q.submit("b".into()).unwrap();
        assert!(matches!(q.submit("c".into()), Err(ServiceError::QueueFull)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_takes_in_fifo_order_with_batch_cap() {
        let q = IngestQueue::new(8);
        for s in ["a", "b", "c"] {
            q.submit(s.into()).unwrap();
        }
        let batch = q.drain(2, Duration::from_millis(1));
        assert_eq!(batch, vec!["a".to_string(), "b".to_string()]);
        let rest = q.drain(10, Duration::from_millis(1));
        assert_eq!(rest, vec!["c".to_string()]);
    }

    #[test]
    fn drain_times_out_when_empty() {
        let q = IngestQueue::new(8);
        let start = Instant::now();
        let batch = q.drain(4, Duration::from_millis(20));
        assert!(batch.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    /// Regression: `drain` used to issue a single `wait_timeout`, so any
    /// wakeup without entries — a spurious one, or a racing `notify_all` —
    /// returned an empty batch before the deadline and shortened the
    /// worker's sleep.  The loop must absorb such wakeups and keep waiting
    /// out the full deadline.
    #[test]
    fn spurious_wakeups_do_not_end_the_wait_early() {
        let q = Arc::new(IngestQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let start = Instant::now();
                let batch = q.drain(4, Duration::from_millis(200));
                (batch, start.elapsed())
            })
        };
        // Hammer the condvar with entry-less notifications well before the
        // deadline — exactly what a spurious wakeup looks like to `drain`.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(5));
            q.not_empty.notify_all();
        }
        let (batch, waited) = consumer.join().unwrap();
        assert!(batch.is_empty(), "no entries were ever enqueued");
        assert!(
            waited >= Duration::from_millis(150),
            "an entry-less wakeup must not end the wait early (waited {waited:?})"
        );
    }

    /// A real entry arriving after a burst of spurious wakeups is still
    /// delivered promptly — the loop re-checks the queue on every wake.
    #[test]
    fn entries_after_spurious_wakeups_are_still_delivered() {
        let q = Arc::new(IngestQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.drain(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(5));
        q.not_empty.notify_all(); // spurious
        std::thread::sleep(Duration::from_millis(5));
        q.submit("real".into()).unwrap();
        assert_eq!(consumer.join().unwrap(), vec!["real".to_string()]);
    }

    #[test]
    fn close_rejects_producers_and_wakes_consumer() {
        let q = Arc::new(IngestQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.drain(4, Duration::from_secs(30)))
        };
        // Give the consumer a moment to park, then close.
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
        assert!(matches!(
            q.submit("x".into()),
            Err(ServiceError::ShuttingDown)
        ));
    }

    #[test]
    fn waiting_consumer_gets_the_entry() {
        let q = Arc::new(IngestQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.drain(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.submit("hello".into()).unwrap();
        assert_eq!(consumer.join().unwrap(), vec!["hello".to_string()]);
    }
}
