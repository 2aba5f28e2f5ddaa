//! AGMS sketching for multi-way join-size and tuple-productivity estimation.
//!
//! This crate implements the estimation substrate of Law & Zaniolo (ICDE'07),
//! which itself builds on Dobra, Garofalakis, Gehrke & Rastogi (SIGMOD'02)
//! and Alon, Gibbons, Matias & Szegedy (PODS'99):
//!
//! * [`FourWiseHash`] — a four-wise independent ±1 family built from a
//!   degree-3 polynomial over the Mersenne prime `2^61 − 1`.
//! * [`AtomicSketch`] — per-relation atomic sketch
//!   `X_k = Σ_t Π_{j ∈ attrs(R_k) ∩ θ} ξ_{j, t[j]}`.
//! * [`SketchBank`] — `s1 × s2` independent copies of the atomic sketches of
//!   every stream, combined by median-of-means into
//!   - the multi-way COUNT estimate `E[Π_k X_k] = |W_1 ⋈ … ⋈ W_n|`, and
//!   - the per-tuple productivity `prod(t) = ξ_i(t) · Π_{k≠i} X_k`
//!     (the COUNT of the join with `W_i = {t}`), which is the priority
//!     signal every sketch-based shedding policy consumes.
//! * [`TumblingSketches`] — the paper's tumbling-window discipline: sketches
//!   accumulate over epochs of length `n` (defaulting to the join-window
//!   length `p`); productivity queries are answered from the *previous*
//!   epoch so each tuple is scored at most twice in its lifetime.
//! * [`FreqTable`] / [`PartnerFrequency`] — exact per-window value-frequency
//!   tables, the state behind the `Bjoin`/`Prob` baseline (and the space
//!   cost the paper's complexity comparison charges it with).
//! * [`SignFamilies`] / [`SignCache`] / [`kernel`] — the flat
//!   structure-of-arrays hot path beneath [`SketchBank`]: hash coefficients
//!   stored copy-major per predicate, ±1 signs evaluated once per
//!   `(predicate, value)` into bit-packed `u64` vectors (memoized, XOR-
//!   combined across incident predicates), and contiguous counter/product
//!   kernels that keep every estimate bit-identical to the original
//!   array-of-structs implementation.

//!
//! ```
//! use mstream_sketch::{BankConfig, SketchBank};
//! use mstream_types::{Catalog, JoinQuery, StreamId, StreamSchema, Value, WindowSpec};
//!
//! let mut c = Catalog::new();
//! c.add_stream(StreamSchema::new("L", &["k"]));
//! c.add_stream(StreamSchema::new("R", &["k"]));
//! let query = JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap();
//!
//! let mut bank = SketchBank::new(&query, BankConfig { s1: 400, s2: 1, seed: 7 });
//! for _ in 0..50 {
//!     bank.update(StreamId(1), &[Value(3)]); // 50 R-tuples with k = 3
//! }
//! // A fresh L-tuple with k = 3 would join ~50 partners; k = 4 none.
//! let hot = bank.productivity(StreamId(0), &[Value(3)]);
//! let cold = bank.productivity(StreamId(0), &[Value(4)]);
//! assert!((hot - 50.0).abs() < 20.0, "hot = {hot}");
//! assert!(hot > cold.max(0.0));
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// tightly-scoped allow on `kernel::avx2`, whose only unsafety is the
// `target_feature` calling contract (discharged by runtime CPU detection).
// Everything else in the crate stays safe; `scripts/check.sh` counts the
// allows.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod bank;
pub mod freq;
pub mod hash;
pub mod kernel;
pub mod score_cache;
pub mod signs;
pub mod tumbling;

pub use atomic::AtomicSketch;
pub use bank::{median_of_means_into, median_of_means_slice, BankConfig, SketchBank};
pub use freq::{FreqTable, PartnerFrequency, SpaceSaving, TumblingFreq};
pub use hash::FourWiseHash;
pub use kernel::LANES;
pub use score_cache::{ScoreCache, ScoreCacheStats, ScoreKey};
pub use signs::{SignCache, SignCacheStats, SignFamilies};
pub use tumbling::{EpochSpec, TumblingSketches};
