//! Window and queue storage for the multi-way join engine.
//!
//! The paper's model (§2, Figure 1) gives each stream `S_i` a fixed-size
//! buffer for its sliding window `W_i`, plus a single bounded input queue in
//! front of the join operator. Both structures shed by *priority*: when
//! full, the resident element with the least priority is dismissed before it
//! expires. That demands a store supporting, simultaneously:
//!
//! * O(log n) **evict-min** by priority (a priority queue — paper §4,
//!   "we employ a technique called priority queue"),
//! * O(1) amortized **expiration** in arrival order (time- or tuple-based),
//! * O(1) **probe** by join-attribute value (hash indexes used by the
//!   n-way join),
//! * O(log n) **priority rebuild** per element at tumbling-epoch rollover.
//!
//! [`WindowStore`] composes an arena ([`arena::Arena`]), an indexed 4-ary
//! heap ([`heap::IndexedHeap`]), per-attribute hash indexes and an arrival
//! deque to provide exactly that. [`ShedQueue`] reuses the same pieces for
//! the input queue, whose victims are chosen by priority, at random, or by
//! age depending on the shedding policy.

//!
//! ```
//! use mstream_types::{SeqNo, StreamId, Tuple, VTime, Value, WindowSpec};
//! use mstream_window::{Eviction, WindowStore};
//!
//! // A 60s window indexed on attribute 0, with room for two tuples.
//! let mut w = WindowStore::new(WindowSpec::secs(60), vec![0], 2);
//! let t = |seq, val, score| {
//!     (Tuple::new(StreamId(0), VTime::ZERO, SeqNo(seq), vec![Value(val)]), score)
//! };
//! let (a, s) = t(0, 7, 5.0);
//! w.insert(a, s);
//! let (b, s) = t(1, 7, 1.0);
//! w.insert(b, s);
//! // The window is full: the lowest-priority resident is dismissed.
//! let (c, s) = t(2, 8, 3.0);
//! match w.insert(c, s).eviction {
//!     Eviction::Evicted(victim) => assert_eq!(victim.seq, SeqNo(1)),
//!     Eviction::None => unreachable!(),
//! }
//! assert_eq!(w.probe(0, Value(7)).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod heap;
pub mod index;
pub mod queue;
pub mod reorder;
pub mod store;
#[cfg(test)]
mod store_model;

pub use arena::{Arena, Slot};
pub use heap::IndexedHeap;
pub use index::{Candidates, FlatIndex};
pub use queue::{QueueVictim, ShedQueue};
pub use reorder::ReorderBuffer;
pub use store::{Eviction, InsertOutcome, JoinCol, WindowStore};
