//! Lock-free bounded MPMC ring buffer for trace events.
//!
//! A fixed array of slots, each guarded by a sequence number (the classic
//! bounded-queue protocol): producers claim a slot by CAS on the enqueue
//! cursor and publish by storing `pos + 1` into the slot's sequence;
//! consumers claim by CAS on the dequeue cursor and release by storing
//! `pos + capacity`. No operation ever blocks on a lock, so instrumented
//! hot paths (pool misses under the pool mutex, kernel workers) pay one CAS
//! per event and can never deadlock against each other or the drainer.
//!
//! The queue **drops the newest** event when full (the producer reports
//! failure and the tracer counts it) rather than overwriting history:
//! bounded memory, bounded producer work, and an explicit `dropped`
//! counter beat silently losing an unknowable prefix of the timeline.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

/// Bounded lock-free multi-producer multi-consumer queue.
pub(crate) struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enq: AtomicUsize,
    deq: AtomicUsize,
}

// SAFETY: slots are only accessed by the thread that won the corresponding
// CAS, between its claim and its sequence publish; the seq protocol orders
// those accesses (Acquire on observe, Release on publish).
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring with capacity `cap` rounded up to a power of two (min 2).
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(None),
            })
            .collect();
        Ring {
            slots,
            mask: cap - 1,
            enq: AtomicUsize::new(0),
            deq: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueue `value`; returns it back when the ring is full.
    pub(crate) fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enq.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot is free for this position: claim it.
                match self.enq.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive claim
                        // over the slot until the seq store below publishes.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                // The slot still holds an unconsumed value from one lap
                // ago: the ring is full.
                return Err(value);
            } else {
                pos = self.enq.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue the oldest value, if any.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut pos = self.deq.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.deq.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive claim
                        // over the slot until the seq store below releases
                        // it for the next lap.
                        let value = unsafe { (*slot.value.get()).take() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return value;
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                // Nothing published at this position yet: empty.
                return None;
            } else {
                pos = self.deq.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let r = Ring::new(8);
        for i in 0..5 {
            r.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects_newest() {
        let r = Ring::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(99), Err(99));
        assert_eq!(r.pop(), Some(0), "oldest survives");
        r.push(4).unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<u8>::new(5).capacity(), 8);
        assert_eq!(Ring::<u8>::new(0).capacity(), 2);
    }

    #[test]
    fn wraps_many_laps() {
        let r = Ring::new(4);
        for i in 0..1000 {
            r.push(i).unwrap();
            assert_eq!(r.pop(), Some(i));
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let r = Arc::new(Ring::new(1 << 12));
        let threads = 4;
        let per = 500;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        r.push(t * per + i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = vec![false; threads * per];
        while let Some(v) = r.pop() {
            assert!(!seen[v], "duplicate value {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "every pushed value drains");
    }
}
