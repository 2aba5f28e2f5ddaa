//! Load-shedding priority policies (paper §3 and §5).
//!
//! Every shedding decision in the paper's model — window eviction and queue
//! eviction — reduces to a **priority score** per tuple: when a buffer is
//! full, the resident with the least score is dismissed. The policies
//! differ only in how the score is computed:
//!
//! | Policy        | Window score of tuple `t` on `S_i`                      |
//! |---------------|---------------------------------------------------------|
//! | [`MSketch`]   | `max(prod(t), 0)` — sketch-estimated productivity       |
//! | `MSketchRs`   | `1 − produced(t) / ((n−1)·prod(t))` — remaining fraction|
//! | `Age`         | remaining lifetime × `max(prod(t), 0)`                  |
//! | `Bjoin`       | Π partner-window frequency of `t`'s join values (Prob applied pairwise) |
//! | `RandomLoad`  | uniform random draw                                     |
//! | `Fifo`        | arrival sequence number (drop-oldest)                   |
//!
//! The engine supplies a [`PriorityCtx`] carrying whichever state the
//! policy declares it needs ([`ShedPolicy::requirements`]): tumbling
//! sketches for productivity, exact partner-frequency tables for the
//! binary-join baselines, produced-so-far counters for random sampling.

pub(crate) use crate::context::{PriorityCtx, Requirements};
pub(crate) use crate::policies::{clamp_score, MSketch, ShedPolicy};
