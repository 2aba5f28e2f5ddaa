//! N-way probe execution against window stores.
//!
//! The probe kernel is iterative (an explicit frame stack instead of
//! recursion) and hoists everything loop-invariant out of the candidate
//! loops: each step's drive value and its residual-predicate left-hand
//! values are computed once per frame, not re-derived through a
//! `bound_value` call per candidate, and a candidate tuple is dereferenced
//! only when the step actually has residual checks. The 2- and 3-stream
//! shapes the benchmarks exercise get specialized fast paths (single-step,
//! two-step star, two-step chain); plans with residual predicates or more
//! steps run the general kernel. All variants enumerate matches in exactly
//! the order of the original recursive kernel (`probe_each_recursive`, kept
//! in this module's tests as the differential reference), so results are
//! bit-identical.
//!
//! What the kernels deliver is a [`Run`] — the innermost level of the probe
//! tree, all of whose rows share every binding but the last — not a row:
//! [`probe_runs_in`] is the one enumerator, and a consumer that counts or
//! credits per tuple never pays per result row. [`Run::for_each_row`] is
//! where rows exist; [`probe_each`], [`probe_each_in`] and [`probe_count`]
//! are instantiations.

use crate::plan::{PlanStep, ProbePlan};
use mstream_types::{StreamId, Tuple, Value};
use mstream_window::{Slot, WindowStore};

/// Resolves a query-local stream id to the window store backing it.
///
/// The single-query engines keep their stores in a dense `Vec` indexed by
/// stream, so a plain slice implements this directly. The multi-query
/// engine owns one store table shared by all registered queries and hands
/// each query a *mapped* view (query-local stream `k` → some shared store),
/// which is why the probe kernels and [`Bindings`] reach stores through
/// this trait instead of indexing a slice.
pub trait StoreLookup {
    /// The window store holding tuples of query-local stream `stream`.
    fn store(&self, stream: StreamId) -> &WindowStore;
}

impl StoreLookup for &[WindowStore] {
    #[inline]
    fn store(&self, stream: StreamId) -> &WindowStore {
        &self[stream.index()]
    }
}

/// A zero-copy view of one join match: the arriving tuple plus one bound
/// window tuple per other stream.
pub struct Bindings<'a> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    /// `slots[k]` = the bound window slot of stream `k` (`None` for the
    /// origin stream).
    slots: &'a [Option<Slot>],
    stores: &'a dyn StoreLookup,
}

impl<'a> Bindings<'a> {
    /// The value of `attr` on `stream` within this match.
    pub fn value(&self, stream: StreamId, attr: usize) -> Value {
        if stream == self.origin {
            self.origin_tuple.values[attr]
        } else {
            let slot = self.slots[stream.index()].expect("stream bound in match");
            self.stores
                .store(stream)
                .tuple(slot)
                .expect("bound slot is live")
                .values[attr]
        }
    }

    /// The bound window slot of `stream` (`None` for the origin stream).
    pub fn slot(&self, stream: StreamId) -> Option<Slot> {
        self.slots[stream.index()]
    }

    /// The full bound tuple of `stream` (the arriving tuple for the origin
    /// stream). Lets consumers identify matches by arrival identity — e.g.
    /// the differential audit harness keys result rows on per-stream
    /// sequence numbers.
    pub fn tuple(&self, stream: StreamId) -> &Tuple {
        if stream == self.origin {
            self.origin_tuple
        } else {
            let slot = self.slots[stream.index()].expect("stream bound in match");
            self.stores
                .store(stream)
                .tuple(slot)
                .expect("bound slot is live")
        }
    }

    /// The arrival sequence number of the tuple bound on `stream`.
    pub fn seq(&self, stream: StreamId) -> mstream_types::SeqNo {
        self.tuple(stream).seq
    }

    /// The arriving tuple that triggered this probe.
    pub fn origin_tuple(&self) -> &Tuple {
        self.origin_tuple
    }

    /// The arriving tuple's stream.
    pub fn origin(&self) -> StreamId {
        self.origin
    }

    /// Number of streams participating in the match (the query's stream
    /// count).
    pub fn n_streams(&self) -> usize {
        self.slots.len()
    }
}

/// The innermost level of the probe tree: every stream but the last plan
/// step's is bound (the *prefix*), and the last step's surviving candidates
/// — a contiguous stretch of one index bucket, as the two
/// [`mstream_window::Candidates::parts`] slices — each complete one match.
///
/// A run is what the probe kernels deliver ([`probe_runs_in`]). A consumer
/// that only counts reads [`Run::len`]; one that credits per tuple reads
/// the prefix ([`Run::slot`]) once and the run's own slots
/// ([`Run::slots`]); one that needs the matches themselves calls
/// [`Run::for_each_row`], the only place a per-row [`Bindings`] is built.
/// A run is never empty.
pub struct Run<'a> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    /// The prefix: `slots[k]` = the bound window slot of stream `k`, `None`
    /// for the origin and — outside [`Run::for_each_row`] — for `stream`.
    slots: &'a mut [Option<Slot>],
    stores: &'a dyn StoreLookup,
    /// The last plan step's stream, whose candidates this run lists.
    stream: StreamId,
    head: &'a [Slot],
    tail: &'a [Slot],
}

impl<'a> Run<'a> {
    /// Number of matches in this run (at least 1).
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a run is never empty
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// The stream whose window slots this run lists (the plan's last step).
    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The run's own slots — live in [`Run::stream`]'s store — in bucket
    /// order: the slot of the `i`-th row [`Run::for_each_row`] builds.
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = Slot> + 'a {
        self.head.iter().chain(self.tail).copied()
    }

    /// The window slot every match of this run binds on `stream`: `None`
    /// for the origin stream and for the run's own stream.
    #[inline]
    pub fn slot(&self, stream: StreamId) -> Option<Slot> {
        self.slots[stream.index()]
    }

    /// Invokes `on_match` for each match of this run, in bucket order.
    #[inline]
    pub fn for_each_row<F: FnMut(&Bindings<'_>)>(&mut self, mut on_match: F) {
        let si = self.stream.index();
        // One chained loop, not one per slice: most runs are a few slots
        // long, and two unrolled loops cost a short run more in prologue
        // than they save a long one (EXPERIMENTS.md, "The probe delivers
        // runs").
        for slot in self.slots() {
            self.slots[si] = Some(slot);
            on_match(&Bindings {
                origin: self.origin,
                origin_tuple: self.origin_tuple,
                slots: self.slots,
                stores: self.stores,
            });
        }
        self.slots[si] = None;
    }
}

/// One probe in flight — what all of its runs share: the arriving tuple
/// and the stream it stands for, the stores, and the plan's last stream,
/// whose slots every run lists.
struct Probe<'a, L> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    stores: &'a L,
    last: StreamId,
}

impl<L: StoreLookup> Probe<'_, L> {
    /// Hands the candidates `(head, tail)` under the prefix `slots` to
    /// `on_run` — unless there are none — and returns how many there were.
    #[inline]
    fn deliver<F: FnMut(&mut Run<'_>)>(
        &self,
        slots: &mut [Option<Slot>],
        (head, tail): (&[Slot], &[Slot]),
        on_run: &mut F,
    ) -> u64 {
        let len = head.len() + tail.len();
        if len > 0 {
            // A fresh `Run` per delivery: built from values already in
            // registers, it need not exist in memory once `on_run` is
            // inlined.
            on_run(&mut Run {
                origin: self.origin,
                origin_tuple: self.origin_tuple,
                slots,
                stores: self.stores,
                stream: self.last,
                head,
                tail,
            });
        }
        len as u64
    }

    /// [`Probe::deliver`] for a last step with residual predicates: each
    /// maximal stretch of either slice whose slots pass `keep` is one run.
    fn deliver_passing<F: FnMut(&mut Run<'_>)>(
        &self,
        slots: &mut [Option<Slot>],
        (head, tail): (&[Slot], &[Slot]),
        mut keep: impl FnMut(Slot) -> bool,
        on_run: &mut F,
    ) -> u64 {
        let mut count = 0;
        for part in [head, tail] {
            let mut start = 0;
            for (i, &slot) in part.iter().enumerate() {
                if !keep(slot) {
                    count += self.deliver(slots, (&part[start..i], &[]), on_run);
                    start = i + 1;
                }
            }
            count += self.deliver(slots, (&part[start..], &[]), on_run);
        }
        count
    }
}

/// Enumerates every combination of window tuples joining with
/// `origin_tuple`, invoking `on_match` per combination. Returns the count.
///
/// `stores[k]` must be the window of stream `k`; the origin's own store is
/// never probed (the paper's operator probes *before* inserting the
/// arriving tuple into its window).
pub fn probe_each<F: FnMut(&Bindings<'_>)>(
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &[WindowStore],
    on_match: F,
) -> u64 {
    debug_assert_eq!(plan.origin(), origin_tuple.stream);
    probe_each_in(plan, origin_tuple, &stores, on_match)
}

/// [`probe_each`] over any [`StoreLookup`]: every row of every run
/// [`probe_runs_in`] delivers, in order.
pub fn probe_each_in<L: StoreLookup, F: FnMut(&Bindings<'_>)>(
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &L,
    mut on_match: F,
) -> u64 {
    probe_runs_in(plan, origin_tuple, stores, |run| {
        run.for_each_row(&mut on_match)
    })
}

/// Counts join combinations without inspecting them.
pub fn probe_count(plan: &ProbePlan, origin_tuple: &Tuple, stores: &[WindowStore]) -> u64 {
    debug_assert_eq!(plan.origin(), origin_tuple.stream);
    probe_runs_in(plan, origin_tuple, &stores, |_| {})
}

/// Binding slots [`probe_runs_in`] keeps on the stack.
const INLINE_SLOTS: usize = 8;

/// The one match enumerator: walks the probe tree of `origin_tuple` and
/// hands `on_run` each non-empty [`Run`] in the recursive kernel's match
/// order. Returns the number of matches — the sum of the run lengths.
///
/// `stores.store(k)` must be the window of the plan's query-local stream
/// `k`. `origin_tuple` stands for `plan.origin()` whatever its own `stream`
/// tag says — the multi-query plane probes with the arriving tuple under
/// its global tag.
pub fn probe_runs_in<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    plan: &ProbePlan,
    origin_tuple: &Tuple,
    stores: &L,
    mut on_run: F,
) -> u64 {
    let steps = plan.steps();
    // Every step binds one stream, so a plan spans `steps + 1` streams.
    // The binding slots live on the stack for every join width seen in
    // practice (this runs once per arrival); wider plans spill to the heap.
    let n_streams = steps.len() + 1;
    let mut inline = [None; INLINE_SLOTS];
    let mut spill = Vec::new();
    let slots: &mut [Option<Slot>] = if n_streams <= INLINE_SLOTS {
        &mut inline[..n_streams]
    } else {
        spill.resize(n_streams, None);
        &mut spill
    };
    let last = steps.last().expect("a join plan has at least one step");
    let probe = Probe {
        origin: plan.origin(),
        origin_tuple,
        stores,
        last: last.stream,
    };
    match steps {
        [step] => probe_1(step, &probe, slots, &mut on_run),
        [s0, s1] if s0.residual.is_empty() && s1.residual.is_empty() => {
            probe_2(s0, s1, &probe, slots, &mut on_run)
        }
        _ => probe_n(steps, &probe, slots, &mut on_run),
    }
}

/// Single probe step (2-stream query). The drive value comes straight off
/// the arriving tuple; candidates need dereferencing only when residual
/// predicates exist (and their left-hand values are hoisted — at step 0
/// only the origin is bound).
fn probe_1<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    step: &PlanStep,
    probe: &Probe<'_, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    debug_assert_eq!(step.drive_stream, probe.origin, "step 0 is driven by the origin");
    let origin_tuple = probe.origin_tuple;
    let store = probe.stores.store(step.stream);
    let cands = store.probe(step.probe_attr, origin_tuple.values[step.drive_attr]);
    if step.residual.is_empty() {
        return probe.deliver(slots, cands.parts(), on_run);
    }
    // Residual left-hand sides are all origin attributes here: hoist.
    let res: Vec<(Value, usize)> = step
        .residual
        .iter()
        .map(|&(bs, ba, ca)| {
            debug_assert_eq!(bs, probe.origin);
            (origin_tuple.values[ba], ca)
        })
        .collect();
    let keep = |slot| {
        let t = store.tuple(slot).expect("probed slot is live");
        res.iter().all(|&(v, ca)| t.values[ca] == v)
    };
    probe.deliver_passing(slots, cands.parts(), keep, on_run)
}

/// Two residual-free probe steps (3-stream acyclic query). Star shapes
/// (both steps driven by the origin) hoist the second candidate list out of
/// the outer loop entirely; chain shapes dereference the outer candidate
/// once for its drive value and never touch the inner candidates' tuples.
fn probe_2<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    s0: &PlanStep,
    s1: &PlanStep,
    probe: &Probe<'_, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    let origin_tuple = probe.origin_tuple;
    debug_assert_eq!(s0.drive_stream, probe.origin, "step 0 is driven by the origin");
    let store0 = probe.stores.store(s0.stream);
    let store1 = probe.stores.store(s1.stream);
    let c0 = store0.probe(s0.probe_attr, origin_tuple.values[s0.drive_attr]);
    let i0 = s0.stream.index();
    let mut count = 0u64;
    if s1.drive_stream == probe.origin {
        // Star: the inner candidate list does not depend on the outer slot.
        let c1 = store1.probe(s1.probe_attr, origin_tuple.values[s1.drive_attr]);
        if !c1.is_empty() {
            for slot0 in c0.iter() {
                slots[i0] = Some(slot0);
                count += probe.deliver(slots, c1.parts(), on_run);
            }
        }
    } else {
        // Chain: the inner probe is keyed by the outer candidate's tuple.
        debug_assert_eq!(s1.drive_stream, s0.stream, "drive stream bound at step 0");
        for slot0 in c0.iter() {
            let t0 = store0.tuple(slot0).expect("probed slot is live");
            let c1 = store1.probe(s1.probe_attr, t0.values[s1.drive_attr]);
            slots[i0] = Some(slot0);
            count += probe.deliver(slots, c1.parts(), on_run);
        }
    }
    slots[i0] = None;
    count
}

/// One suspended enumeration level of the general kernel: a step's
/// candidate list (inline head + spill tail), the resume cursor, and where
/// this step's hoisted residual values start in the shared scratch.
struct Frame<'a> {
    head: &'a [Slot],
    tail: &'a [Slot],
    cursor: usize,
    res_base: usize,
}

impl<'a> Frame<'a> {
    #[inline]
    fn next(&mut self) -> Option<Slot> {
        let c = self.cursor;
        self.cursor += 1;
        if c < self.head.len() {
            Some(self.head[c])
        } else {
            self.tail.get(c - self.head.len()).copied()
        }
    }
}

/// The general iterative kernel: an explicit depth-first frame stack over
/// the plan's steps. Entering a frame computes the step's drive value and
/// hoists its residual left-hand values once; the candidate loop then only
/// dereferences tuples for steps that actually carry residual checks.
fn probe_n<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    steps: &[PlanStep],
    probe: &Probe<'_, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    let (origin, origin_tuple, stores) = (probe.origin, probe.origin_tuple, probe.stores);
    let mut count = 0u64;
    let mut frames: Vec<Frame<'_>> = Vec::with_capacity(steps.len());
    // Hoisted residual `(left-hand value, candidate attr)` pairs for all
    // active frames; `res_base` marks each frame's span.
    let mut res: Vec<(Value, usize)> = Vec::new();
    let enter = |step: &PlanStep,
                 slots: &[Option<Slot>],
                 res: &mut Vec<(Value, usize)>|
     -> Frame<'_> {
        let drive = bound_value(
            origin,
            origin_tuple,
            stores,
            slots,
            step.drive_stream,
            step.drive_attr,
        );
        let res_base = res.len();
        for &(bs, ba, ca) in &step.residual {
            res.push((
                bound_value(origin, origin_tuple, stores, slots, bs, ba),
                ca,
            ));
        }
        let (head, tail) = stores
            .store(step.stream)
            .probe(step.probe_attr, drive)
            .parts();
        Frame {
            head,
            tail,
            cursor: 0,
            res_base,
        }
    };
    frames.push(enter(&steps[0], slots, &mut res));
    while let Some(depth) = frames.len().checked_sub(1) {
        let step = &steps[depth];
        let store = stores.store(step.stream);
        if depth + 1 == steps.len() {
            // Innermost level: every surviving candidate is a match — the
            // whole frame (last frames are always fresh, so the cursor is
            // at 0) is one run, or one per passing stretch when the step
            // carries residual checks, instead of a stack round-trip per
            // match.
            let f = frames.pop().expect("frame at current depth");
            let rvals = &res[f.res_base..];
            if rvals.is_empty() {
                count += probe.deliver(slots, (f.head, f.tail), on_run);
            } else {
                let keep = |slot| {
                    let t = store.tuple(slot).expect("probed slot is live");
                    rvals.iter().all(|&(v, ca)| t.values[ca] == v)
                };
                count += probe.deliver_passing(slots, (f.head, f.tail), keep, on_run);
            }
            res.truncate(f.res_base);
            continue;
        }
        let chosen = {
            let f = frames.last_mut().expect("frame at current depth");
            let rvals = &res[f.res_base..];
            let mut chosen = None;
            while let Some(slot) = f.next() {
                if rvals.is_empty() {
                    chosen = Some(slot);
                    break;
                }
                let t = store.tuple(slot).expect("probed slot is live");
                if rvals.iter().all(|&(v, ca)| t.values[ca] == v) {
                    chosen = Some(slot);
                    break;
                }
            }
            chosen
        };
        match chosen {
            Some(slot) => {
                slots[step.stream.index()] = Some(slot);
                let f = enter(&steps[depth + 1], slots, &mut res);
                frames.push(f);
            }
            None => {
                slots[step.stream.index()] = None;
                let f = frames.pop().expect("frame at current depth");
                res.truncate(f.res_base);
            }
        }
    }
    count
}

/// Reads an attribute of a bound stream (origin or already-probed window).
fn bound_value<L: StoreLookup>(
    origin: StreamId,
    origin_tuple: &Tuple,
    stores: &L,
    slots: &[Option<Slot>],
    stream: StreamId,
    attr: usize,
) -> Value {
    if stream == origin {
        origin_tuple.values[attr]
    } else {
        let slot = slots[stream.index()].expect("drive stream bound before use");
        stores
            .store(stream)
            .tuple(slot)
            .expect("bound slot is live")
            .values[attr]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, JoinQuery, SeqNo, StreamSchema, VTime, WindowSpec};
    use proptest::prelude::*;

    /// The original recursive probe kernel, retained verbatim as the
    /// differential reference: the iterative kernels must visit the exact
    /// same matches in the exact same order.
    fn probe_each_recursive<F: FnMut(&Bindings<'_>)>(
        plan: &ProbePlan,
        origin_tuple: &Tuple,
        stores: &[WindowStore],
        mut on_match: F,
    ) -> u64 {
        debug_assert_eq!(plan.origin(), origin_tuple.stream);
        let mut slots: Vec<Option<Slot>> = vec![None; stores.len()];
        let mut count = 0u64;
        recurse(
            plan,
            0,
            origin_tuple,
            stores,
            &mut slots,
            &mut count,
            &mut on_match,
        );
        count
    }

    fn recurse<F: FnMut(&Bindings<'_>)>(
        plan: &ProbePlan,
        step_idx: usize,
        origin_tuple: &Tuple,
        stores: &[WindowStore],
        slots: &mut Vec<Option<Slot>>,
        count: &mut u64,
        on_match: &mut F,
    ) {
        if step_idx == plan.steps().len() {
            *count += 1;
            let bindings = Bindings {
                origin: plan.origin(),
                origin_tuple,
                slots,
                stores: &stores,
            };
            on_match(&bindings);
            return;
        }
        let step = &plan.steps()[step_idx];
        let drive_value = bound_value(
            plan.origin(),
            origin_tuple,
            &stores,
            slots,
            step.drive_stream,
            step.drive_attr,
        );
        let store = &stores[step.stream.index()];
        let candidates = store.probe(step.probe_attr, drive_value);
        for slot in candidates.iter() {
            let tuple = store.tuple(slot).expect("probed slot is live");
            let residual_ok = step.residual.iter().all(|&(bs, ba, ca)| {
                bound_value(plan.origin(), origin_tuple, &stores, slots, bs, ba) == tuple.values[ca]
            });
            if !residual_ok {
                continue;
            }
            slots[step.stream.index()] = Some(slot);
            recurse(
                plan,
                step_idx + 1,
                origin_tuple,
                stores,
                slots,
                count,
                on_match,
            );
            slots[step.stream.index()] = None;
        }
    }

    fn chain3() -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(500),
        )
        .unwrap()
    }

    fn stores_for(q: &JoinQuery) -> Vec<WindowStore> {
        (0..q.n_streams())
            .map(|s| {
                WindowStore::new(
                    q.window(StreamId(s)),
                    q.join_attrs(StreamId(s)),
                    1_000,
                )
            })
            .collect()
    }

    fn tup(stream: usize, seq: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(stream),
            VTime::ZERO,
            SeqNo(seq),
            vec![Value(a), Value(b)],
        )
    }

    #[test]
    fn chain_probe_counts_combinations() {
        let q = chain3();
        let mut stores = stores_for(&q);
        // W2: two tuples (5, 8); W3: three tuples with A1=8.
        stores[1].insert(tup(1, 0, 5, 8), 0.0);
        stores[1].insert(tup(1, 1, 5, 8), 0.0);
        stores[2].insert(tup(2, 2, 8, 1), 0.0);
        stores[2].insert(tup(2, 3, 8, 2), 0.0);
        stores[2].insert(tup(2, 4, 8, 3), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        // Arriving R1 tuple with A1=5 joins 2 R2-tuples × 3 R3-tuples.
        let t = tup(0, 9, 5, 0);
        assert_eq!(probe_count(&plan, &t, &stores), 6);
        // Non-matching arrival produces nothing.
        let t = tup(0, 10, 6, 0);
        assert_eq!(probe_count(&plan, &t, &stores), 0);
    }

    /// A chain one stream wider than the inline slot array holds, plus the
    /// origin: R1.A2 = R2.A1, R2.A2 = R3.A1, …
    fn wide_chain() -> JoinQuery {
        let names: Vec<String> = (1..=INLINE_SLOTS + 2).map(|i| format!("R{i}")).collect();
        let mut c = Catalog::new();
        for name in &names {
            c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
        }
        let preds: Vec<(String, String)> = names
            .windows(2)
            .map(|w| (format!("{}.A2", w[0]), format!("{}.A1", w[1])))
            .collect();
        let pred_refs: Vec<(&str, &str)> =
            preds.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
        JoinQuery::from_names(c, &pred_refs, WindowSpec::secs(500)).unwrap()
    }

    #[test]
    fn wide_chain_spills_binding_slots_to_the_heap() {
        // Every binding of the spilled slot array stays visible.
        let q = wide_chain();
        let n = q.n_streams();
        let mut stores = stores_for(&q);
        for (s, store) in stores.iter_mut().enumerate().skip(1) {
            // Stream s holds (s, s + 1); the last one twice.
            store.insert(tup(s, s as u64, s as u64, s as u64 + 1), 0.0);
        }
        stores[n - 1].insert(tup(n - 1, 99, n as u64 - 1, 0), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        let mut rows = 0;
        let count = probe_each(&plan, &tup(0, 100, 0, 1), &stores, |b| {
            assert_eq!(b.n_streams(), n);
            for s in 1..n {
                assert_eq!(b.value(StreamId(s), 0), Value(s as u64));
            }
            rows += 1;
        });
        assert_eq!((count, rows), (2, 2));
    }

    #[test]
    fn probe_from_middle_stream() {
        let q = chain3();
        let mut stores = stores_for(&q);
        stores[0].insert(tup(0, 0, 7, 0), 0.0);
        stores[0].insert(tup(0, 1, 7, 0), 0.0);
        stores[2].insert(tup(2, 2, 4, 0), 0.0);
        let plan = ProbePlan::new(&q, StreamId(1));
        // R2 tuple (7, 4): matches both R1 tuples and the R3 tuple.
        assert_eq!(probe_count(&plan, &tup(1, 9, 7, 4), &stores), 2);
        // R2 tuple (7, 5): right side empty -> nothing.
        assert_eq!(probe_count(&plan, &tup(1, 10, 7, 5), &stores), 0);
    }

    #[test]
    fn bindings_expose_values_and_slots() {
        let q = chain3();
        let mut stores = stores_for(&q);
        stores[1].insert(tup(1, 0, 5, 8), 0.0);
        stores[2].insert(tup(2, 1, 8, 42), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        let t = tup(0, 9, 5, 77);
        let mut seen = Vec::new();
        let count = probe_each(&plan, &t, &stores, |b| {
            assert_eq!(b.origin(), StreamId(0));
            assert_eq!(b.origin_tuple().seq, SeqNo(9));
            assert_eq!(b.value(StreamId(0), 1), Value(77));
            assert_eq!(b.value(StreamId(1), 1), Value(8));
            assert_eq!(b.value(StreamId(2), 1), Value(42));
            assert!(b.slot(StreamId(0)).is_none());
            assert!(b.slot(StreamId(1)).is_some());
            seen.push(b.slot(StreamId(2)).unwrap());
        });
        assert_eq!(count, 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(stores[2].tuple(seen[0]).unwrap().values[1], Value(42));
    }

    #[test]
    fn triangle_residual_filters_matches() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        let q = JoinQuery::from_names(
            c,
            &[
                ("R1.A1", "R2.A1"),
                ("R2.A2", "R3.A1"),
                ("R3.A2", "R1.A2"),
            ],
            WindowSpec::secs(500),
        )
        .unwrap();
        let mut stores = stores_for(&q);
        stores[1].insert(tup(1, 0, 1, 2), 0.0);
        // Two R3 candidates match R2.A2 = R3.A1 = 2, but only one closes
        // the cycle R3.A2 = R1.A2 = 9.
        stores[2].insert(tup(2, 1, 2, 9), 0.0);
        stores[2].insert(tup(2, 2, 2, 8), 0.0);
        let plan = ProbePlan::new(&q, StreamId(0));
        let t = tup(0, 9, 1, 9);
        assert_eq!(probe_count(&plan, &t, &stores), 1);
    }

    #[test]
    fn exhaustive_against_nested_loops() {
        // Brute-force cross-check on small random-ish relations.
        let q = chain3();
        let mut stores = stores_for(&q);
        let mut seq = 0;
        let mut w: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 3];
        for s in 0..3usize {
            for i in 0..20u64 {
                let (a, b) = ((i * 7 + s as u64) % 5, (i * 3 + s as u64) % 4);
                stores[s].insert(tup(s, seq, a, b), 0.0);
                w[s].push((a, b));
                seq += 1;
            }
        }
        let plans = ProbePlan::all(&q);
        for (s, plan) in plans.iter().enumerate() {
            let t = tup(s, 999, 2, 3);
            let got = probe_count(plan, &t, &stores);
            // Nested-loop reference with W_s replaced by {t}.
            let (ta, tb) = (2u64, 3u64);
            let mut expect = 0u64;
            let r1: Vec<(u64, u64)> = if s == 0 { vec![(ta, tb)] } else { w[0].clone() };
            let r2: Vec<(u64, u64)> = if s == 1 { vec![(ta, tb)] } else { w[1].clone() };
            let r3: Vec<(u64, u64)> = if s == 2 { vec![(ta, tb)] } else { w[2].clone() };
            for &(a1, _) in &r1 {
                for &(b1, b2) in &r2 {
                    if a1 == b1 {
                        for &(c1, _) in &r3 {
                            if b2 == c1 {
                                expect += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(got, expect, "origin {s}");
        }
    }

    #[test]
    fn iterative_matches_recursive_order() {
        // The three dispatch shapes (chain-from-end = probe_2 chain,
        // middle-origin = probe_2 star, triangle = probe_n with residuals)
        // must all enumerate matches in the recursive kernel's order.
        let q = chain3();
        let mut stores = stores_for(&q);
        let mut seq = 0;
        for (s, store) in stores.iter_mut().enumerate() {
            for i in 0..15u64 {
                store.insert(tup(s, seq, (i * 5 + s as u64) % 4, (i * 3) % 4), 0.0);
                seq += 1;
            }
        }
        for plan in ProbePlan::all(&q) {
            let t = tup(plan.origin().index(), 999, 2, 3);
            let mut got = Vec::new();
            let n1 = probe_each(&plan, &t, &stores, |b| {
                got.push((0..3).map(|k| b.seq(StreamId(k))).collect::<Vec<_>>());
            });
            let mut want = Vec::new();
            let n2 = probe_each_recursive(&plan, &t, &stores, |b| {
                want.push((0..3).map(|k| b.seq(StreamId(k))).collect::<Vec<_>>());
            });
            assert_eq!(n1, n2);
            assert_eq!(got, want, "match order diverged (origin {:?})", plan.origin());
        }
    }

    /// The query shapes the differential proptest draws from.
    fn query(shape: usize) -> JoinQuery {
        let names = ["R1", "R2", "R3", "R4"];
        let mk = |n: usize| {
            let mut c = Catalog::new();
            for &name in &names[..n] {
                c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
            }
            c
        };
        let w = WindowSpec::secs(500);
        match shape {
            // chain2: one predicate, single-step plans.
            0 => JoinQuery::from_names(mk(2), &[("R1.A1", "R2.A1")], w).unwrap(),
            // chain3: two-step chain from the ends, star from the middle.
            1 => JoinQuery::from_names(mk(3), &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], w).unwrap(),
            // star3: R1 in the middle — two-step star from R1.
            2 => JoinQuery::from_names(mk(3), &[("R1.A1", "R2.A1"), ("R1.A2", "R3.A1")], w).unwrap(),
            // triangle: cyclic, one residual predicate.
            3 => JoinQuery::from_names(
                mk(3),
                &[
                    ("R1.A1", "R2.A1"),
                    ("R2.A2", "R3.A1"),
                    ("R3.A2", "R1.A2"),
                ],
                w,
            )
            .unwrap(),
            // chain4: three-step plans through the general kernel.
            4 => JoinQuery::from_names(
                mk(4),
                &[
                    ("R1.A1", "R2.A1"),
                    ("R2.A2", "R3.A1"),
                    ("R3.A2", "R4.A1"),
                ],
                w,
            )
            .unwrap(),
            // cycle4: 4-cycle — three plan steps plus a residual closing edge.
            5 => JoinQuery::from_names(
                mk(4),
                &[
                    ("R1.A1", "R2.A1"),
                    ("R2.A2", "R3.A1"),
                    ("R3.A2", "R4.A1"),
                    ("R4.A2", "R1.A2"),
                ],
                w,
            )
            .unwrap(),
            // wide chain: binding slots spill to the heap.
            _ => wide_chain(),
        }
    }

    /// `q`'s windows holding `data`, dealt round-robin across its streams.
    fn filled_stores(q: &JoinQuery, data: &[(u64, u64)]) -> Vec<WindowStore> {
        let n = q.n_streams();
        let mut stores = stores_for(q);
        for (i, &(a, b)) in data.iter().enumerate() {
            stores[i % n].insert(tup(i % n, i as u64, a, b), 0.0);
        }
        stores
    }

    /// Every stream's bound sequence number: one match, identified.
    fn seqs(b: &Bindings<'_>) -> Vec<SeqNo> {
        (0..b.n_streams()).map(|k| b.seq(StreamId(k))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random chain, star and cyclic queries with random window
        /// contents, `probe_each` visits the exact same matches in the
        /// exact same order as the recursive kernel from every origin —
        /// single-step, two-step star, two-step chain and the general
        /// frame-stack kernel (3+ steps, residual predicates, spilled
        /// binding slots) alike.
        #[test]
        fn iterative_kernel_matches_recursive(
            shape in 0usize..7,
            // Small value domain so joins actually fan out.
            data in proptest::collection::vec((0u64..4, 0u64..4), 10..80),
            probe_vals in (0u64..4, 0u64..4),
        ) {
            let q = query(shape);
            let stores = filled_stores(&q, &data);
            for plan in ProbePlan::all(&q) {
                let origin = plan.origin().index();
                let t = tup(origin, 9999, probe_vals.0, probe_vals.1);
                let mut got = Vec::new();
                let n1 = probe_each(&plan, &t, &stores, |b| got.push(seqs(b)));
                let mut want = Vec::new();
                let n2 = probe_each_recursive(&plan, &t, &stores, |b| want.push(seqs(b)));
                prop_assert_eq!(n1, n2, "match count (shape {}, origin {})", shape, origin);
                prop_assert_eq!(&got, &want, "match order (shape {}, origin {})", shape, origin);
                prop_assert_eq!(n1 as usize, got.len());
            }
        }

        /// The runs `probe_runs_in` delivers tile the recursive kernel's
        /// matches: their rows, in delivery order, are its matches one for
        /// one; their lengths add up to the returned count and to
        /// `probe_count`; none is empty; each lists live slots of the
        /// plan's last stream, which — like the origin — its prefix leaves
        /// unbound while every other stream is bound.
        #[test]
        fn runs_tile_the_recursive_matches(
            shape in 0usize..7,
            data in proptest::collection::vec((0u64..4, 0u64..4), 10..80),
            probe_vals in (0u64..4, 0u64..4),
        ) {
            let q = query(shape);
            let stores = filled_stores(&q, &data);
            for plan in ProbePlan::all(&q) {
                let origin = plan.origin();
                let last = plan.steps().last().unwrap().stream;
                let t = tup(origin.index(), 9999, probe_vals.0, probe_vals.1);
                let mut got = Vec::new();
                let mut lens = 0u64;
                let total = probe_runs_in(&plan, &t, &stores.as_slice(), |run| {
                    assert!(run.len() > 0, "empty run delivered");
                    assert_eq!(run.stream(), last);
                    for k in (0..q.n_streams()).map(StreamId) {
                        let free = k == origin || k == last;
                        assert_eq!(run.slot(k).is_none(), free, "prefix binding of {k}");
                    }
                    let slots: Vec<Slot> = run.slots().collect();
                    assert_eq!(slots.len(), run.len());
                    for &slot in &slots {
                        assert!(stores[last.index()].tuple(slot).is_some(), "dead slot in run");
                    }
                    let mut rows = slots.iter();
                    run.for_each_row(|b| {
                        assert_eq!(b.slot(last), rows.next().copied(), "row order within run");
                        got.push(seqs(b));
                    });
                    assert!(rows.next().is_none(), "fewer rows than the run's length");
                    assert!(run.slot(last).is_none(), "run's stream left bound");
                    lens += run.len() as u64;
                });
                let mut want = Vec::new();
                let n = probe_each_recursive(&plan, &t, &stores, |b| want.push(seqs(b)));
                prop_assert_eq!(total, n, "match count (shape {}, origin {})", shape, origin);
                prop_assert_eq!(lens, n, "run lengths (shape {}, origin {})", shape, origin);
                prop_assert_eq!(probe_count(&plan, &t, &stores), n);
                prop_assert_eq!(&got, &want, "match order (shape {}, origin {})", shape, origin);
            }
        }
    }
}
