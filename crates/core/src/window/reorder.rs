//! Bounded-disorder reorder buffer for the event-time ingest front end.
//!
//! A real ingest plane never delivers arrivals in perfect timestamp
//! order. The engine's answer (DESIGN.md §13) is a per-stream
//! [`ReorderBuffer`] that holds arrivals until the cross-stream watermark
//! guarantees no earlier timestamp can still show up, then releases them
//! in `(timestamp, entry sequence)` order. The buffer itself is policy-free:
//! it stores, orders, and releases. The watermark formula, the disorder
//! bound `K`, and the late-drop accounting all live in the engine that
//! owns the buffers.
//!
//! Ordering contract: entries are released in ascending `(ts, entry_seq)`
//! order, where `entry_seq` is the caller-supplied admission number. Two
//! arrivals carrying the same timestamp therefore come back out in the
//! exact order they went in, which is what makes a disordered run replay
//! the in-order run tuple-for-tuple once lateness is covered by the bound.

use mstream_types::VTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One buffered arrival: the timestamp key, the admission tiebreak, and
/// the caller's payload.
struct Entry<T> {
    ts: VTime,
    entry_seq: u64,
    item: T,
}

// The heap orders on (ts, entry_seq) only; the payload never participates.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts && self.entry_seq == other.entry_seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want pop() = minimum.
        (other.ts, other.entry_seq).cmp(&(self.ts, self.entry_seq))
    }
}

/// A min-ordered holding buffer: arrivals go in tagged with their
/// timestamp and an admission sequence, and come back out in ascending
/// `(ts, entry_seq)` order as the owner's watermark advances.
pub struct ReorderBuffer<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer.
    pub fn new() -> Self {
        ReorderBuffer {
            heap: BinaryHeap::new(),
        }
    }

    /// Admits one arrival. `entry_seq` must be unique per buffered entry
    /// and reflect admission order (the engine uses a global admission
    /// counter so same-timestamp arrivals replay in arrival order).
    pub fn push(&mut self, ts: VTime, entry_seq: u64, item: T) {
        self.heap.push(Entry {
            ts,
            entry_seq,
            item,
        });
    }

    /// The `(ts, entry_seq)` key of the earliest buffered entry.
    pub fn peek_key(&self) -> Option<(VTime, u64)> {
        self.heap.peek().map(|e| (e.ts, e.entry_seq))
    }

    /// Removes and returns the earliest buffered entry.
    pub fn pop(&mut self) -> Option<(VTime, u64, T)> {
        self.heap.pop().map(|e| (e.ts, e.entry_seq, e.item))
    }

    /// Buffered entry count.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer holds nothing.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_timestamp_order() {
        let mut b = ReorderBuffer::new();
        b.push(VTime::from_micros(30), 0, "c");
        b.push(VTime::from_micros(10), 1, "a");
        b.push(VTime::from_micros(20), 2, "b");
        assert_eq!(b.len(), 3);
        assert_eq!(b.peek_key(), Some((VTime::from_micros(10), 1)));
        assert_eq!(b.pop(), Some((VTime::from_micros(10), 1, "a")));
        assert_eq!(b.pop(), Some((VTime::from_micros(20), 2, "b")));
        assert_eq!(b.pop(), Some((VTime::from_micros(30), 0, "c")));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn equal_timestamps_release_in_admission_order() {
        let mut b = ReorderBuffer::new();
        let t = VTime::from_micros(5);
        for seq in [7u64, 3, 9, 4] {
            b.push(t, seq, seq);
        }
        let mut out = Vec::new();
        while let Some((ts, seq, item)) = b.pop() {
            assert_eq!(ts, t);
            assert_eq!(seq, item);
            out.push(seq);
        }
        assert_eq!(out, vec![3, 4, 7, 9], "ties break by admission sequence");
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut b = ReorderBuffer::new();
        b.push(VTime::from_micros(4), 0, 4u64);
        b.push(VTime::from_micros(2), 1, 2);
        assert_eq!(b.pop(), Some((VTime::from_micros(2), 1, 2)));
        b.push(VTime::from_micros(1), 2, 1);
        b.push(VTime::from_micros(3), 3, 3);
        assert_eq!(b.pop(), Some((VTime::from_micros(1), 2, 1)));
        assert_eq!(b.pop(), Some((VTime::from_micros(3), 3, 3)));
        assert_eq!(b.pop(), Some((VTime::from_micros(4), 0, 4)));
    }
}
