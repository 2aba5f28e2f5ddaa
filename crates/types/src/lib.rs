//! Core types shared by every crate in the `mstream-shed` workspace.
//!
//! This crate deliberately has no knowledge of joins, sketches or shedding
//! policies; it only defines the vocabulary the rest of the system speaks:
//!
//! * [`Value`] — a discrete attribute value (join keys live in small
//!   discretized domains, as in the paper's evaluation).
//! * [`VTime`] / [`VDur`] — virtual time, microsecond-granular, used by the
//!   deterministic discrete-event simulation.
//! * [`Tuple`] — a timestamped row of values tagged with its source stream.
//! * [`Row`] — a tuple's attribute values, stored inline (no heap
//!   allocation) for arities up to [`ROW_INLINE`].
//! * [`StreamId`], [`AttrRef`], [`StreamSchema`], [`Catalog`] — naming.
//! * [`JoinQuery`] — a conjunctive multi-way equi-join over sliding windows,
//!   i.e. the query class the paper's load shedder targets.
//! * [`splitmix64`] / [`WordHasher`] / [`WordBuild`] — the one bit mixer
//!   and the word hasher under every table an arrival looks up.
//!
//! All types are plain data: `Clone`, `Debug`, and (where it makes sense)
//! `serde`-serializable so experiment configurations and results can be
//! persisted as JSON artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hash;
mod query;
mod row;
mod schema;
mod time;
mod tuple;
mod value;

pub use error::{Error, Result};
pub use hash::{splitmix64, WordBuild, WordHasher};
pub use query::{EquiPredicate, JoinQuery, Partitioning, QueryId, WindowSpec};
pub use row::{Row, ROW_INLINE};
pub use schema::{AttrRef, Catalog, StreamId, StreamSchema};
pub use time::{VDur, VTime};
pub use tuple::{SeqNo, Tuple};
pub use value::Value;
