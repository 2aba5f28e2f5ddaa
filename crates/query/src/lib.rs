//! A small CQL-style continuous-query language for windowed multi-way
//! equi-joins — the query class of Law & Zaniolo (ICDE 2007).
//!
//! The paper's host system (Stream Mill) exposes continuous queries in an
//! SQL dialect; this crate provides the equivalent front door for the
//! reproduction: a hand-written lexer + recursive-descent parser that turns
//!
//! ```sql
//! SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS],
//!               R2(A1, A2) [RANGE 500 SECONDS],
//!               R3(A1, A2) [RANGE 500 SECONDS]
//! WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1
//! ```
//!
//! into a validated [`mstream_types::JoinQuery`]. Window clauses accept
//! `RANGE <n> {SECONDS|MINUTES|HOURS}` (time-based) and `ROWS <n>`
//! (tuple-based, paper §4.1); omitting the clause on a stream reuses the
//! previous stream's window (and the first stream must have one).
//!
//! ```
//! use mstream_query::parse_query;
//!
//! let query = parse_query(
//!     "SELECT * FROM L(k, v) [ROWS 100], R(k, v) WHERE L.k = R.k",
//! ).unwrap();
//! assert_eq!(query.n_streams(), 2);
//! assert_eq!(query.predicates().len(), 1);
//! ```
//!
//! Errors carry the offending position and a human-readable message:
//!
//! ```
//! use mstream_query::parse_query;
//! let err = parse_query("SELECT * FROM R1(A1) [RANGE 10 SECONDS] WHERE R1.A9 = R1.A1")
//!     .unwrap_err();
//! assert!(err.to_string().contains("A9"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;

pub use parser::{parse_query, ParseError};
