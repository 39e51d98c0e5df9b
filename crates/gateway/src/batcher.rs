//! Dynamic micro-batching: a pure, clock-parameterised state machine.
//!
//! The batcher is the queueing policy only — no threads, no sockets, no
//! `Instant`. Time is a `u64` microsecond counter supplied by the caller,
//! so the property suite drives it with a simulated clock and asserts the
//! policy invariants without a single real sleep:
//!
//! * **admission** — at most [`BatchPolicy::queue_capacity`] requests are
//!   pending; an offer beyond that is *shed* (the server answers it with an
//!   `OVERLOADED` frame instead of buffering without bound);
//! * **batch bound** — an emitted batch never exceeds
//!   [`BatchPolicy::max_batch_size`];
//! * **work conservation** — there is no coalescing window: whenever the
//!   consumer is free and something is pending, [`MicroBatcher::take_into`]
//!   hands over everything pending, up to a full batch. Batches form from
//!   the requests that arrive while the previous batch is being scored.
//!   With `queue_capacity <= max_batch_size` every admitted request is
//!   therefore emitted within one batch service time of its arrival, and
//!   at once when the consumer is idle — the property tests prove both
//!   over random arrival patterns.
//!
//! The server (`server.rs`) drives this machine with the real clock:
//! connection handlers offer admitted requests, and one dispatcher thread
//! sleeps while the queue is empty and, each time it is free, drains one
//! batch and hands it to the scoring backend as a single engine batch.

use std::collections::VecDeque;

/// Micro-batching policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Largest batch handed to the scoring pool in one call.
    pub max_batch_size: usize,
    /// Bound on pending (admitted but not yet batched) requests. Offers
    /// beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    /// Batches of up to 32, 256 pending requests.
    fn default() -> Self {
        BatchPolicy { max_batch_size: 32, queue_capacity: 256 }
    }
}

impl BatchPolicy {
    /// Clamps degenerate values to their minimum legal settings
    /// (`max_batch_size >= 1`, `queue_capacity >= 1`).
    pub fn sanitized(self) -> BatchPolicy {
        BatchPolicy {
            max_batch_size: self.max_batch_size.max(1),
            queue_capacity: self.queue_capacity.max(1),
        }
    }
}

/// One pending entry: the item plus its admission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending<T> {
    /// The admitted item (the server stores whole requests here).
    pub item: T,
    /// Microsecond timestamp of admission, on the caller's clock.
    pub arrived_us: u64,
}

/// The dynamic micro-batcher state machine. Generic over the queued item so
/// tests can drive it with plain ids.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    policy: BatchPolicy,
    pending: VecDeque<Pending<T>>,
}

impl<T> MicroBatcher<T> {
    /// A new, empty batcher under `policy` (sanitized).
    pub fn new(policy: BatchPolicy) -> MicroBatcher<T> {
        MicroBatcher { policy: policy.sanitized(), pending: VecDeque::new() }
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admission control: queues the item, or gives it back when the queue
    /// is at capacity (`Err` = shed; the caller answers `OVERLOADED`).
    pub fn offer(&mut self, item: T, now_us: u64) -> Result<(), T> {
        if self.pending.len() >= self.policy.queue_capacity {
            return Err(item);
        }
        self.pending.push_back(Pending { item, arrived_us: now_us });
        Ok(())
    }

    /// Moves the oldest `<= max_batch_size` entries, FIFO, onto the end of
    /// `out` (a buffer the caller reuses across batches). The caller
    /// decides *when* — normally whenever its scoring pool is free and the
    /// queue is not empty.
    pub fn take_into(&mut self, out: &mut Vec<Pending<T>>) {
        let n = self.pending.len().min(self.policy.max_batch_size);
        out.extend(self.pending.drain(..n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(max_batch: usize, cap: usize) -> MicroBatcher<u32> {
        MicroBatcher::new(BatchPolicy { max_batch_size: max_batch, queue_capacity: cap })
    }

    fn take(b: &mut MicroBatcher<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        b.take_into(&mut out);
        out.into_iter().map(|p| p.item).collect()
    }

    #[test]
    fn takes_full_batches_then_the_partial_rest_fifo() {
        let mut b = batcher(3, 10);
        for i in 0..5u32 {
            assert!(b.offer(i, 10 + i as u64).is_ok());
        }
        assert_eq!(take(&mut b), vec![0, 1, 2]);
        assert_eq!(b.len(), 2);
        // No window to wait out: the partial remainder goes next.
        assert_eq!(take(&mut b), vec![3, 4]);
        assert!(b.is_empty());
        assert_eq!(take(&mut b), Vec::<u32>::new());
    }

    #[test]
    fn take_into_appends_and_keeps_arrival_times() {
        let mut b = batcher(4, 4);
        assert!(b.offer(7, 123).is_ok());
        let mut out = vec![Pending { item: 1, arrived_us: 5 }];
        b.take_into(&mut out);
        let kept = Pending { item: 1, arrived_us: 5 };
        assert_eq!(out, vec![kept, Pending { item: 7, arrived_us: 123 }]);
    }

    #[test]
    fn sheds_above_capacity_and_recovers() {
        let mut b = batcher(8, 2);
        assert!(b.offer(1, 0).is_ok());
        assert!(b.offer(2, 0).is_ok());
        assert_eq!(b.offer(3, 0), Err(3), "third offer must be shed, not buffered");
        let _ = take(&mut b);
        assert!(b.offer(3, 5).is_ok(), "capacity frees up after a take");
    }

    #[test]
    fn degenerate_policy_is_sanitized() {
        let mut b = batcher(0, 0);
        assert!(b.offer(1, 0).is_ok(), "capacity clamps to 1");
        assert_eq!(b.offer(2, 0), Err(2));
        assert_eq!(take(&mut b), vec![1], "batch size clamps to 1");
    }
}
