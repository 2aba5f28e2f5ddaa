//! Aggregates and accuracy metrics over join-output streams.
//!
//! The paper's random-sampling evaluation (§5.2.1, Figure 7) measures how
//! well a shed join's output supports downstream analytics:
//!
//! * a **windowed AVG** over one attribute of the join result, compared to
//!   the same average over the exact result (relative error), and
//! * the **quartiles** of the result distribution, compared quartile-by-
//!   quartile (average quantile difference) — a direct probe of whether the
//!   sample's frequency distribution matches the true result's.
//!
//! This crate provides the machinery: time-bucketed value collectors
//! ([`BucketSeries`], [`HistBuckets`]), exact quantiles ([`quartiles`],
//! [`Hist::quantile`]), comparison metrics ([`relative_error`],
//! [`SeriesComparison`]) and a classical reservoir
//! sampler ([`Reservoir`]) for downstream mining consumers (paper §6's
//! future-work direction, exercised by the `stream_mining` example).

//!
//! ```
//! use mstream_agg::Hist;
//!
//! let mut h = Hist::new();
//! for v in [1u64, 3, 3, 5, 9] {
//!     h.add(v);
//! }
//! assert_eq!(h.mean(), Some(4.2));
//! assert_eq!(h.quantile(0.5), Some(3.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hist;
mod quantile;
mod reservoir;
mod series;

pub use error::{relative_error, SeriesComparison};
pub use hist::{Hist, HistBuckets};
pub use quantile::quartiles;
pub use reservoir::Reservoir;
pub use series::BucketSeries;
