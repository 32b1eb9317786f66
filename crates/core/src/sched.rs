//! Discrete-event scheduler core.
//!
//! A minimal, fully deterministic event queue: a binary heap ordered by
//! `(time_ms, seq)` where `seq` is a monotonic insertion counter. Two events
//! at the same simulated instant therefore fire in the order they were
//! scheduled — the tie-break is part of the contract, not an accident of
//! heap layout. Nothing here consults wall clocks or ambient randomness;
//! simulated time is whatever the driver pushes.
//!
//! The queue is the substrate of [`crate::fleet`]'s long-horizon soak, but
//! it is deliberately payload-generic so boot-storm scripts, chaos drivers
//! or future `bootsim`/`cluster` schedulers can reuse it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One event popped from the queue: when it was scheduled to fire, its
/// insertion sequence number, and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Simulated fire time, in milliseconds.
    pub time_ms: u64,
    /// Monotonic insertion counter — the deterministic tie-break.
    pub seq: u64,
    pub event: E,
}

/// Heap entry. Ordering reads *only* `(time_ms, seq)`: the payload never
/// participates, so `E` needs no `Ord` bound and equal-time events pop in
/// insertion order.
struct Entry<E> {
    time_ms: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time_ms, self.seq) == (other.time_ms, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ms, self.seq).cmp(&(other.time_ms, other.seq))
    }
}

/// Deterministic discrete-event queue over payloads of type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at simulated `time_ms`. Returns the sequence number
    /// assigned (useful for logging / debugging schedules).
    pub fn push(&mut self, time_ms: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time_ms,
            seq,
            event,
        }));
        seq
    }

    /// Pop the next event: smallest `time_ms`, ties by insertion order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|Reverse(e)| Scheduled {
            time_ms: e.time_ms,
            seq: e.seq,
            event: e.event,
        })
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(5, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_the_tie_break() {
        let mut q = EventQueue::new();
        q.push(2, "late-1");
        q.push(1, "early");
        assert_eq!(q.pop().unwrap().event, "early");
        // Pushed after a pop but at the same time as late-1: fires second.
        q.push(2, "late-2");
        assert_eq!(q.pop().unwrap().event, "late-1");
        assert_eq!(q.pop().unwrap().event, "late-2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn seq_numbers_are_monotonic_across_pops() {
        let mut q = EventQueue::new();
        let a = q.push(1, ());
        q.pop();
        let b = q.push(1, ());
        assert!(b > a, "seq survives pops: {a} then {b}");
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
