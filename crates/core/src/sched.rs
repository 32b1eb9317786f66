//! Discrete-event scheduler core.
//!
//! A minimal, fully deterministic event queue: an ordered map keyed by
//! `(time_ms, seq)` where `seq` is a monotonic insertion counter. Two events
//! at the same simulated instant therefore fire in the order they were
//! scheduled — the tie-break is the key itself. Nothing here consults wall
//! clocks or ambient randomness; simulated time is whatever the driver
//! pushes.
//!
//! The queue is the substrate of [`crate::fleet`]'s long-horizon soak, but
//! it is deliberately payload-generic so boot-storm scripts, chaos drivers
//! or future `bootsim`/`cluster` schedulers can reuse it.

use std::collections::BTreeMap;

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

/// Deterministic discrete-event queue over payloads of type `E`.
pub struct EventQueue<E> {
    /// Keyed by `(time_ms, seq)`: the payload never participates in the
    /// order, so `E` needs no `Ord` bound.
    events: BTreeMap<(u64, u64), E>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at simulated `time_ms`. Returns the sequence number
    /// assigned (useful for logging / debugging schedules).
    pub fn push(&mut self, time_ms: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((time_ms, seq), event);
        seq
    }

    /// Pop the next event: smallest `time_ms`, ties by insertion order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.events
            .pop_first()
            .map(|((time_ms, seq), event)| Scheduled {
                time_ms,
                seq,
                event,
            })
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
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
