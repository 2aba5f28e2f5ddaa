//! Plain-text trace serialization: replaying external data through the
//! engine and persisting generated workloads.
//!
//! The format is a minimal CSV dialect, one arrival per line:
//!
//! ```csv
//! # any line starting with '#' is a comment; '# drift' marks a shift
//! stream,value,value,...
//! 0,17,42
//! 1,17,3
//! # drift
//! 2,9,9
//! ```
//!
//! The first column is the destination stream index; remaining columns are
//! the attribute values in schema order. Rows may have different arities
//! only if their streams' schemas do.

use crate::trace::Trace;
use mstream_types::{StreamId, Value};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// A malformed trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceIoError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceIoError {}

/// Writes `trace` in the CSV dialect (with `# drift` markers): every
/// marker at an index goes before that row, repeated markers included, and
/// markers at the end of the trace go after the last row.
pub fn write_trace<W: Write>(trace: &Trace, mut out: W) -> std::io::Result<()> {
    let mut drifts = trace.drift_points.iter().peekable();
    for (i, item) in trace.items.iter().enumerate() {
        while drifts.next_if(|&&d| d <= i).is_some() {
            writeln!(out, "# drift")?;
        }
        write!(out, "{}", item.stream.index())?;
        for v in &item.values {
            write!(out, ",{}", v.raw())?;
        }
        writeln!(out)?;
    }
    for _ in drifts {
        writeln!(out, "# drift")?;
    }
    Ok(())
}

/// Renders `trace` to a CSV string.
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("trace CSV is ASCII")
}

/// Parses a trace from a reader.
pub fn read_trace<R: Read>(input: R) -> Result<Trace, TraceIoError> {
    let mut trace = Trace::new();
    for (idx, line) in BufReader::new(input).lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| TraceIoError {
            line: line_no,
            message: format!("read error: {e}"),
        })?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if comment.trim().eq_ignore_ascii_case("drift") {
                trace.mark_drift();
            }
            continue;
        }
        let mut fields = line.split(',');
        let stream_txt = fields.next().expect("split yields at least one field");
        let stream: usize = stream_txt.trim().parse().map_err(|_| TraceIoError {
            line: line_no,
            message: format!("bad stream index `{stream_txt}`"),
        })?;
        let values = fields
            .map(|f| {
                f.trim()
                    .parse::<u64>()
                    .map(Value)
                    .map_err(|_| TraceIoError {
                        line: line_no,
                        message: format!("bad value `{f}`"),
                    })
            })
            .collect::<Result<Vec<Value>, _>>()?;
        if values.is_empty() {
            return Err(TraceIoError {
                line: line_no,
                message: "a row needs at least one attribute value".into(),
            });
        }
        trace.push(StreamId(stream), values);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_small_trace() {
        let mut t = Trace::new();
        t.push(StreamId(0), vec![Value(17), Value(42)]);
        t.push(StreamId(1), vec![Value(17), Value(3)]);
        t.mark_drift();
        t.push(StreamId(2), vec![Value(9), Value(9)]);
        let csv = trace_to_csv(&t);
        assert!(csv.contains("0,17,42\n"));
        assert!(csv.contains("# drift\n"));
        let back = read_trace(csv.as_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn tolerates_comments_blanks_and_spaces() {
        let csv = "# header comment\n\n 0 , 5 \n# note\n1,6\n";
        let t = read_trace(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.items[0].values, vec![Value(5)]);
        assert!(t.drift_points.is_empty());
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let err = read_trace("0,1\nx,2\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad stream index"));
        let err = read_trace("0,1\n1,abc\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad value"));
        let err = read_trace("7\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("at least one attribute"));
    }

    proptest! {
        /// Any generated trace round-trips through CSV bit-for-bit, drift
        /// markers included: repeated ones, one before the first row and
        /// ones after the last.
        #[test]
        fn csv_round_trip(items in proptest::collection::vec((0usize..4, 0u64..100, 0u64..100), 0..100),
                          drift_at in proptest::collection::vec(0usize..=100, 0..6)) {
            let mut t = Trace::new();
            let mut drift: Vec<usize> = drift_at.into_iter().map(|d| d.min(items.len())).collect();
            drift.sort_unstable();
            let mut marks = drift.iter().peekable();
            for (i, (s, a, b)) in items.iter().enumerate() {
                while marks.next_if(|&&d| d == i).is_some() {
                    t.mark_drift();
                }
                t.push(StreamId(*s), vec![Value(*a), Value(*b)]);
            }
            for _ in marks {
                t.mark_drift();
            }
            prop_assert_eq!(&t.drift_points, &drift);
            let back = read_trace(trace_to_csv(&t).as_bytes()).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}
