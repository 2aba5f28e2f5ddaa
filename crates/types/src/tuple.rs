//! Stream tuples.

use crate::row::Row;
use crate::schema::StreamId;
use crate::time::VTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A globally unique, monotonically increasing arrival sequence number.
///
/// Sequence numbers double as tie-breakers (two tuples can share a virtual
/// timestamp) and as the "timestamp" of tuple-based windows (paper §4.1:
/// a tuple-based window is modelled as a time-based window where one tuple
/// arrives per time unit — the sequence number *is* that time unit).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The sequence number after this one.
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl fmt::Debug for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A timestamped row flowing on one input stream.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    /// The stream this tuple arrived on.
    pub stream: StreamId,
    /// Arrival time in virtual time.
    pub ts: VTime,
    /// Global arrival sequence number (assigned by the source/driver).
    pub seq: SeqNo,
    /// Attribute values, positionally matching the stream's schema
    /// (stored inline for arities up to [`crate::ROW_INLINE`]).
    pub values: Row,
}

impl Tuple {
    /// Builds a tuple from raw parts.
    pub fn new(stream: StreamId, ts: VTime, seq: SeqNo, values: impl Into<Row>) -> Self {
        Tuple {
            stream,
            ts,
            seq,
            values: values.into(),
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{:?}@{:.3}s{:?}",
            self.stream,
            self.seq,
            self.ts.as_secs_f64(),
            self.values
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t() -> Tuple {
        Tuple::new(
            StreamId(1),
            VTime::from_secs(3),
            SeqNo(7),
            vec![Value(10), Value(20)],
        )
    }

    #[test]
    fn accessors() {
        let t = t();
        assert_eq!(t.values[0], Value(10));
        assert_eq!(t.values[1], Value(20));
        assert_eq!(t.values.len(), 2);
        assert_eq!(t.stream, StreamId(1));
    }

    #[test]
    #[should_panic]
    fn out_of_range_attr_panics() {
        let _ = t().values[2];
    }

    #[test]
    fn seqno_next_increments() {
        assert_eq!(SeqNo(0).next(), SeqNo(1));
        assert!(SeqNo(1) < SeqNo(2));
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", t());
        assert!(s.contains("S1"), "{s}");
        assert!(s.contains("#7"), "{s}");
    }
}
