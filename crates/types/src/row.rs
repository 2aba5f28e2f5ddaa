//! Inline attribute rows.

use crate::value::Value;
use serde::{json, Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// Attribute count a [`Row`] stores inline before spilling to the heap.
///
/// The paper's workloads (and every schema in this repo) carry 2–4
/// attributes per stream, so the common case pays no allocation at all.
pub const ROW_INLINE: usize = 4;

/// A stream tuple's attribute values: a small-vector of [`Value`]s.
///
/// Rows up to [`ROW_INLINE`] values live inline in the enclosing
/// [`crate::Tuple`] (no heap allocation, `Clone` is a plain copy); wider
/// schemas spill to a `Vec<Value>` and behave exactly like before. `Row`
/// dereferences to `&[Value]`, so indexing, iteration, `len()` and slice
/// coercion all work as they did when `Tuple::values` was a `Vec`.
///
/// Serialization is a plain sequence, wire-compatible with `Vec<Value>`
/// (existing JSON/CSV artifacts parse unchanged).
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [Value; ROW_INLINE] },
    Spill(Vec<Value>),
}

impl Row {
    /// The empty row.
    #[inline]
    pub const fn new() -> Self {
        Row(Repr::Inline {
            len: 0,
            buf: [Value(0); ROW_INLINE],
        })
    }

    /// Builds a row by copying a slice (inline when it fits).
    #[inline]
    pub(crate) fn from_slice(values: &[Value]) -> Self {
        if values.len() <= ROW_INLINE {
            let mut buf = [Value(0); ROW_INLINE];
            buf[..values.len()].copy_from_slice(values);
            Row(Repr::Inline {
                len: values.len() as u8,
                buf,
            })
        } else {
            Row(Repr::Spill(values.to_vec()))
        }
    }

    /// Builds a row from raw value words (inline when it fits): the
    /// sharded data plane's decode, which a variable-length slice copy
    /// would send through `memcpy`.
    #[inline]
    pub fn from_raw(words: &[u64]) -> Self {
        if words.len() <= ROW_INLINE {
            let mut buf = [Value(0); ROW_INLINE];
            for (value, &word) in buf.iter_mut().zip(words) {
                *value = Value(word);
            }
            Row(Repr::Inline {
                len: words.len() as u8,
                buf,
            })
        } else {
            Row(Repr::Spill(words.iter().map(|&w| Value(w)).collect()))
        }
    }

    /// Appends a value, spilling to the heap past [`ROW_INLINE`].
    pub fn push(&mut self, value: Value) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                if (*len as usize) < ROW_INLINE {
                    buf[*len as usize] = value;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(ROW_INLINE + 1);
                    vec.extend_from_slice(&buf[..]);
                    vec.push(value);
                    self.0 = Repr::Spill(vec);
                }
            }
            Repr::Spill(vec) => vec.push(value),
        }
    }

    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spill(vec) => vec,
        }
    }

    /// True when the row is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Row {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Default for Row {
    #[inline]
    fn default() -> Self {
        Row::new()
    }
}

impl From<Vec<Value>> for Row {
    #[inline]
    fn from(values: Vec<Value>) -> Self {
        if values.len() <= ROW_INLINE {
            Row::from_slice(&values)
        } else {
            Row(Repr::Spill(values))
        }
    }
}

impl From<&[Value]> for Row {
    #[inline]
    fn from(values: &[Value]) -> Self {
        Row::from_slice(values)
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    #[inline]
    fn from(values: [Value; N]) -> Self {
        Row::from_slice(&values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut row = Row::new();
        for v in iter {
            row.push(v);
        }
        row
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Row {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Row {}

impl PartialEq<Vec<Value>> for Row {
    #[inline]
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Row> for Vec<Value> {
    #[inline]
    fn eq(&self, other: &Row) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Value]> for Row {
    #[inline]
    fn eq(&self, other: &[Value]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Row {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for Row {
    fn to_json_value(&self) -> json::Value {
        self.as_slice().to_json_value()
    }
}

impl Deserialize for Row {
    fn from_json_value(v: &json::Value) -> std::result::Result<Self, json::DeError> {
        Ok(Vec::<Value>::from_json_value(v)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: u64) -> Vec<Value> {
        (0..n).map(Value).collect()
    }

    #[test]
    fn inline_up_to_four_then_spills() {
        for n in 0..=4 {
            assert!(Row::from(vals(n)).is_inline(), "arity {n} must be inline");
        }
        assert!(!Row::from(vals(5)).is_inline(), "arity 5 must spill");
        for n in 0..=6 {
            let words: Vec<u64> = (0..n).collect();
            let row = Row::from_raw(&words);
            assert_eq!((row.is_inline(), row.as_slice()), (n <= 4, vals(n).as_slice()));
        }
    }

    #[test]
    fn push_crosses_the_spill_boundary() {
        let mut row = Row::new();
        for i in 0..6u64 {
            row.push(Value(i));
            assert_eq!(row.len(), i as usize + 1);
            assert_eq!(row.is_inline(), row.len() <= ROW_INLINE);
        }
        assert_eq!(row, vals(6));
    }

    #[test]
    fn slice_semantics_match_vec() {
        let row = Row::from(vals(3));
        assert_eq!(row[1], Value(1));
        assert_eq!(row.len(), 3);
        assert_eq!(row.iter().count(), 3);
        assert_eq!((&row).into_iter().count(), 3);
        let slice: &[Value] = &row;
        assert_eq!(slice, vals(3).as_slice());
        assert!(Row::new().is_empty());
    }

    #[test]
    fn equality_ignores_representation() {
        // Same contents, one inline and one forced to spill via shrink.
        let mut spilled = Row::from(vals(5));
        assert!(!spilled.is_inline());
        spilled = Row(Repr::Spill(vals(3)));
        assert_eq!(spilled, Row::from(vals(3)));
        assert_eq!(spilled, vals(3));
        assert_eq!(vals(3), spilled);
    }

    #[test]
    fn collects_from_iterators() {
        let row: Row = (0..3).map(Value).collect();
        assert_eq!(row, vals(3));
        let wide: Row = (0..7).map(Value).collect();
        assert_eq!(wide, vals(7));
        assert!(!wide.is_inline());
    }

    #[test]
    fn debug_matches_vec_format() {
        assert_eq!(format!("{:?}", Row::from(vals(2))), format!("{:?}", vals(2)));
    }

    #[test]
    fn serde_is_wire_compatible_with_vec() {
        for n in [0u64, 3, 6] {
            let row = Row::from(vals(n));
            let json = serde_json::to_string(&row).unwrap();
            assert_eq!(json, serde_json::to_string(&vals(n)).unwrap());
            let back: Row = serde_json::from_str(&json).unwrap();
            assert_eq!(back, row);
            let as_vec: Vec<Value> = serde_json::from_str(&json).unwrap();
            assert_eq!(as_vec, row);
        }
    }

    #[test]
    fn hash_agrees_with_equality() {
        use std::collections::HashSet;
        let set: HashSet<Row> = [Row::from(vals(2)), Row::from(vals(2)), Row::from(vals(3))]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }
}
