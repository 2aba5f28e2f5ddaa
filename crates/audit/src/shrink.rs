//! Greedy delta-debugging shrinker for failing audit cases.

use crate::gen::{Case, Trace};
use crate::run::run_case_on;
use std::ops::Range;

/// Greedily minimises `trace` while `fails` holds: drops contiguous chunks
/// of arrivals (halving the chunk size down to single arrivals), then
/// single churn events, keeping every removal after which `fails` still
/// holds. A churn event stays attached to the arrival it precedes; when
/// that arrival is dropped it moves to the next surviving one.
///
/// The result is 1-minimal with respect to single-arrival removal, not
/// necessarily globally minimal. A trace that does not fail is returned
/// whole (the failure may have needed, say, the full trace's shuffle).
pub fn shrink(trace: &Trace, mut fails: impl FnMut(&Trace) -> bool) -> Trace {
    let mut current = trace.clone();
    if !fails(&current) {
        return current;
    }
    let mut chunk = (current.arrivals.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < current.arrivals.len() {
            let candidate = without(&current, i..(i + chunk).min(current.arrivals.len()));
            if !candidate.arrivals.is_empty() && fails(&candidate) {
                current = candidate; // The same index now holds fresh content.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    let mut e = 0;
    while e < current.churn.len() {
        let mut candidate = current.clone();
        candidate.churn.remove(e);
        if fails(&candidate) {
            current = candidate;
        } else {
            e += 1;
        }
    }
    current
}

/// `trace` without the arrivals at `cut`, churn positions remapped.
fn without(trace: &Trace, cut: Range<usize>) -> Trace {
    let mut arrivals = trace.arrivals.clone();
    arrivals.drain(cut.clone());
    let remap = |at: usize| match at {
        at if at < cut.start => at,
        at if at < cut.end => cut.start,
        at => at - cut.len(),
    };
    let churn = trace
        .churn
        .iter()
        .map(|(at, e)| (remap(*at), e.clone()))
        .collect();
    Trace { arrivals, churn }
}

/// Shrinks the trace of a failing `case` against the whole audit (any
/// failure counts, not only the original one). Silence the panic hook
/// first: invariant violations surface as panics, dozens of times.
pub fn shrink_case(case: &Case) -> Trace {
    shrink(&case.trace, |trace| run_case_on(case, trace).is_err())
}
