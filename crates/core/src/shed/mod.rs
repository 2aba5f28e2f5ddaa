//! Load-shedding priority policies (paper §3 and §5).
//!
//! Every shedding decision in the paper's model — window eviction and queue
//! eviction — reduces to a **priority** per tuple: when a buffer is full,
//! the resident with the least priority is dismissed. A policy computes a
//! window resident's priority in two steps ([`ShedPolicy`]): a **score**
//! read from the estimation state, which the tuple's slot caches at
//! admission and at every rescoring pass, then a **priority** of that
//! score and the tuple's produced-so-far count, recomputed on every credit
//! without touching the estimation state:
//!
//! | Policy       | Cached score of `t` on `S_i`                       | Priority              |
//! |--------------|----------------------------------------------------|-----------------------|
//! | [`MSketch`]  | `max(prod(t), 0)`, sketch-estimated productivity   | the score             |
//! | `MSketchRs`  | `e = (n−1)·max(prod(t), 0)`, expected output       | `1 − produced(t) / e` |
//! | `Age`        | remaining lifetime × `max(prod(t), 0)`             | the score             |
//! | `Bjoin`      | partner frequency of `t`'s value on its first pair | the score             |
//! | `RandomLoad` | uniform random draw                                | the score             |
//! | `Fifo`       | arrival sequence number (drop-oldest)              | the score             |
//!
//! MSketch-RS's priority is the fraction of its expected output still to
//! come.
//!
//! The engine supplies a [`PriorityCtx`] carrying whichever state the
//! policy declares it needs ([`ShedPolicy::requirements`]): tumbling
//! sketches for productivity, exact partner-frequency tables for the
//! binary-join baselines, produced-so-far counters for random sampling.

pub(crate) use crate::context::{PriorityCtx, Requirements};
pub(crate) use crate::policies::{clamp_score, MSketch, ShedPolicy};
