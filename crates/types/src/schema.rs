//! Stream naming: identifiers, schemas and the catalog.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one of the `n` input streams of a multi-way join.
///
/// Stream ids are dense indexes `0..n` assigned by the [`Catalog`] in
/// registration order, which lets every per-stream structure in the engine
/// be a plain `Vec` indexed by `StreamId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The dense index of this stream.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A reference to one attribute of one stream, e.g. `R2.A1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrRef {
    /// The stream the attribute belongs to.
    pub stream: StreamId,
    /// The positional index of the attribute within the stream's schema.
    pub attr: usize,
}

impl AttrRef {
    /// Convenience constructor.
    #[inline]
    pub fn new(stream: StreamId, attr: usize) -> Self {
        AttrRef { stream, attr }
    }
}

impl fmt::Debug for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.A{}", self.stream, self.attr)
    }
}

/// The schema of one input stream: a name plus ordered attribute names.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSchema {
    /// Human-readable stream name (e.g. `"R1"`, `"Oct03"`).
    pub name: String,
    /// Ordered attribute names (e.g. `["A1", "A2"]`).
    pub attrs: Vec<String>,
}

impl StreamSchema {
    /// Builds a schema from a name and attribute names.
    pub fn new(name: impl Into<String>, attrs: &[&str]) -> Self {
        StreamSchema {
            name: name.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Resolves an attribute name to its positional index.
    pub(crate) fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a == name)
    }
}

/// The set of streams participating in a query, in `StreamId` order.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Catalog {
    streams: Vec<StreamSchema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a stream and returns its dense id.
    pub fn add_stream(&mut self, schema: StreamSchema) -> StreamId {
        let id = StreamId(self.streams.len());
        self.streams.push(schema);
        id
    }

    /// Number of registered streams.
    #[inline]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no streams are registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The schema of `id`, if registered.
    pub fn schema(&self, id: StreamId) -> Option<&StreamSchema> {
        self.streams.get(id.0)
    }

    /// Resolves `"R2.A1"`-style dotted names into an [`AttrRef`].
    pub fn resolve(&self, dotted: &str) -> Result<AttrRef> {
        let (stream_name, attr_name) = dotted
            .split_once('.')
            .ok_or_else(|| Error::UnknownAttribute(dotted.to_string()))?;
        let (idx, schema) = self
            .streams
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == stream_name)
            .ok_or_else(|| Error::UnknownStream(stream_name.to_string()))?;
        let attr = schema
            .attr_index(attr_name)
            .ok_or_else(|| Error::UnknownAttribute(dotted.to_string()))?;
        Ok(AttrRef::new(StreamId(idx), attr))
    }

    /// Iterates over `(StreamId, &StreamSchema)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamSchema)> {
        self.streams
            .iter()
            .enumerate()
            .map(|(i, s)| (StreamId(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        c
    }

    #[test]
    fn dense_ids_in_registration_order() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        let a = c.add_stream(StreamSchema::new("A", &["x"]));
        let b = c.add_stream(StreamSchema::new("B", &["y"]));
        assert_eq!(a, StreamId(0));
        assert_eq!(b, StreamId(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.schema(a).unwrap().name, "A");
        assert!(c.schema(StreamId(5)).is_none());
    }

    #[test]
    fn resolve_dotted_names() {
        let c = demo_catalog();
        let r = c.resolve("R2.A1").unwrap();
        assert_eq!(r, AttrRef::new(StreamId(1), 0));
        let r = c.resolve("R3.A2").unwrap();
        assert_eq!(r, AttrRef::new(StreamId(2), 1));
    }

    #[test]
    fn resolve_errors() {
        let c = demo_catalog();
        assert!(matches!(c.resolve("nope"), Err(Error::UnknownAttribute(_))));
        assert!(matches!(c.resolve("R9.A1"), Err(Error::UnknownStream(_))));
        assert!(matches!(c.resolve("R1.A9"), Err(Error::UnknownAttribute(_))));
    }

    #[test]
    fn schema_helpers() {
        let s = StreamSchema::new("R1", &["A1", "A2"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attr_index("A2"), Some(1));
        assert_eq!(s.attr_index("zz"), None);
    }

    #[test]
    fn iter_yields_all() {
        let c = demo_catalog();
        let names: Vec<_> = c.iter().map(|(_, s)| s.name.clone()).collect();
        assert_eq!(names, vec!["R1", "R2", "R3"]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(StreamId(2).to_string(), "S2");
        assert_eq!(format!("{:?}", AttrRef::new(StreamId(1), 0)), "S1.A0");
    }
}
