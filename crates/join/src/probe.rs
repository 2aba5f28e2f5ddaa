//! N-way probe execution against window stores.
//!
//! The probe kernel is iterative (an explicit frame stack instead of
//! recursion) and hoists everything loop-invariant out of the candidate
//! loops: each step's hash index is resolved once per probe, its drive
//! value and its residual-predicate left-hand values are computed once per
//! frame, not re-derived through a `bound_value` call per candidate, and a
//! candidate tuple is dereferenced only when the step actually has residual
//! checks or drives the next one. The frame stack, the hoisted values and
//! the binding slots live on the stack (eight entries each; wider plans
//! spill), so a probe allocates nothing. The 2- and 3-stream shapes the
//! benchmarks exercise get short fast paths (one or two residual-free
//! steps); plans with residual predicates or more steps run the general
//! kernel. All variants enumerate matches in exactly the order of the
//! original recursive kernel (`probe_each_recursive`, kept in this
//! module's tests as the differential reference), so results are
//! bit-identical.
//!
//! What the kernels deliver is a [`Run`] — the two innermost levels of the
//! probe tree: a stretch of consecutive outer candidates that drive the
//! last step to one and the same inner candidate list, times that list —
//! not a row: [`probe_runs_in`] is the one enumerator, and a consumer that
//! counts or credits per tuple is called once per block, not once per
//! result row or per outer candidate (under intra-window skew nearly all
//! of a probe's outer candidates share their inner list).
//! [`Run::for_each_row`] is where rows exist; [`probe_each`],
//! [`probe_each_in`] and [`probe_count`] are instantiations.

use crate::plan::{PlanStep, ProbePlan};
use mstream_types::{StreamId, Tuple, Value};
use mstream_window::{FlatIndex, Slot, WindowStore};

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

/// The two innermost levels of the probe tree, as one block of matches.
///
/// Every stream but the last two plan steps' is bound (the *prefix*). The
/// last step's surviving candidates — the *inner list*, a contiguous
/// stretch of one index bucket, as the two
/// [`mstream_window::Candidates::parts`] slices — each complete one match
/// with each slot of the *outer stretch*: consecutive candidates of the
/// step before it that all drive the last step to that same inner list
/// (they carry the same drive value, or the last step is not driven by
/// their stream at all). The run stands for outer × inner matches,
/// outer-major: exactly the rows, in exactly the order, the recursive
/// kernel enumerates between the stretch's first candidate and its last.
///
/// A run has no outer stretch — [`Run::outer_stream`] is `None`, the step
/// before the last is bound in the prefix like any other, and the run is
/// the innermost level alone — when the plan has one step, or when its
/// last step carries residual predicates: those may read the outer tuple,
/// so which inner candidates survive is not shared between outer ones.
///
/// A run is what the probe kernels deliver ([`probe_runs_in`]). A consumer
/// that only counts reads [`Run::len`]; one that credits per tuple reads
/// the prefix ([`Run::slot`]) once, the inner list ([`Run::slots`]) once
/// and the outer stretch ([`Run::outer_slots`]) once; one that needs the
/// matches themselves calls [`Run::for_each_row`], the only place a
/// per-row [`Bindings`] is built. A run is never empty.
pub struct Run<'a> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    /// The prefix: `slots[k]` = the bound window slot of stream `k`, `None`
    /// for the origin and — outside [`Run::for_each_row`] — for `stream`
    /// and `outer_stream`.
    slots: &'a mut [Option<Slot>],
    stores: &'a dyn StoreLookup,
    /// The last plan step's stream, whose candidates this run lists.
    stream: StreamId,
    head: &'a [Slot],
    tail: &'a [Slot],
    /// The stream of the step before the last, if this run blocks it.
    outer_stream: Option<StreamId>,
    /// The outer stretch (both empty without an `outer_stream`).
    outer_head: &'a [Slot],
    outer_tail: &'a [Slot],
}

impl<'a> Run<'a> {
    /// Number of matches in this run (at least 1):
    /// [`Run::outer_len`] × [`Run::inner_len`].
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a run is never empty
    pub fn len(&self) -> usize {
        self.outer_len() * self.inner_len()
    }

    /// Number of slots in the inner list (at least 1): the matches each
    /// outer candidate completes.
    #[inline]
    pub fn inner_len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Number of outer candidates sharing the inner list (at least 1): the
    /// length of the outer stretch, or 1 for a run without one — its one
    /// outer candidate is bound in the prefix (or is the arriving tuple).
    #[inline]
    pub fn outer_len(&self) -> usize {
        // A stretch is never empty, so 0 only ever means "no stretch".
        (self.outer_head.len() + self.outer_tail.len()).max(1)
    }

    /// The stream whose window slots the inner list holds (the plan's last
    /// step).
    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The inner list — live slots of [`Run::stream`]'s store — in bucket
    /// order: within each outer candidate's rows, the slot of the `i`-th
    /// row [`Run::for_each_row`] builds.
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = Slot> + 'a {
        self.head.iter().chain(self.tail).copied()
    }

    /// The stream whose window slots the outer stretch holds (the plan's
    /// step before the last), or `None` for a run without one.
    #[inline]
    pub fn outer_stream(&self) -> Option<StreamId> {
        self.outer_stream
    }

    /// The outer stretch — live slots of [`Run::outer_stream`]'s store — in
    /// bucket order; empty for a run without one.
    #[inline]
    pub fn outer_slots(&self) -> impl Iterator<Item = Slot> + 'a {
        self.outer_head.iter().chain(self.outer_tail).copied()
    }

    /// The window slot every match of this run binds on `stream`: `None`
    /// for the origin stream, for the run's own stream and for its outer
    /// stream.
    #[inline]
    pub fn slot(&self, stream: StreamId) -> Option<Slot> {
        self.slots[stream.index()]
    }

    /// Invokes `on_match` for each match of this run: outer candidate by
    /// outer candidate, each one's rows in the inner list's bucket order.
    #[inline(always)] // see `Probe::deliver`
    pub fn for_each_row<F: FnMut(&Bindings<'_>)>(&mut self, mut on_match: F) {
        let Some(outer) = self.outer_stream else {
            return self.inner_rows(&mut on_match);
        };
        for slot in self.outer_slots() {
            self.slots[outer.index()] = Some(slot);
            self.inner_rows(&mut on_match);
        }
        self.slots[outer.index()] = None;
    }

    /// The rows of one outer candidate, bound in `slots` by the caller.
    #[inline(always)] // see `Probe::deliver`
    fn inner_rows<F: FnMut(&Bindings<'_>)>(&mut self, on_match: &mut F) {
        let si = self.stream.index();
        // One chained loop, not one per slice: most inner lists are a few
        // slots long, and two unrolled loops cost a short one more in
        // prologue than they save a long one (EXPERIMENTS.md, "The probe
        // delivers runs").
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

/// The two slices of a candidate list ([`mstream_window::Candidates::parts`]).
type Parts<'a> = (&'a [Slot], &'a [Slot]);

/// No outer stretch: what a delivery of the innermost level alone passes.
const NO_OUTER: Parts<'static> = (&[], &[]);

/// One probe in flight — what all of its runs share: the arriving tuple
/// and the stream it stands for, the stores, the plan's last stream, whose
/// slots every run's inner list holds, and the stream before it if the
/// plan's runs carry outer stretches.
struct Probe<'a, L> {
    origin: StreamId,
    origin_tuple: &'a Tuple,
    stores: &'a L,
    last: StreamId,
    outer: Option<StreamId>,
}

impl<L: StoreLookup> Probe<'_, L> {
    /// Hands the matches `outer` × `inner` under the prefix `slots` to
    /// `on_run` — unless `inner` is empty — and returns how many there
    /// are. `outer` is a stretch of `self.outer`'s candidates, or
    /// [`NO_OUTER`] when the plan blocks no outer level.
    ///
    /// Forced inline — as are [`Frame::open`], [`Probe::deliver_passing`],
    /// [`Probe::deliver_blocks`], [`Run::for_each_row`] and the row
    /// closure of [`probe_each_in`]: the kernels must compile to one
    /// function per instantiation, in which no `Run` exists in memory.
    /// Split up, the optimizer can no longer prove that a row loop's
    /// writes to the binding slots leave alone what the row callback
    /// reaches through a pointer, and a count a row reader keeps is
    /// re-loaded and re-stored every row instead of living in a register
    /// (the benchmark's row drive: 1.85 → 2.35 ns a row; leaving any one
    /// of them to the compiler brought that back — EXPERIMENTS.md, "The
    /// probe delivers blocks").
    #[inline(always)]
    fn deliver<F: FnMut(&mut Run<'_>)>(
        &self,
        slots: &mut [Option<Slot>],
        outer: Parts<'_>,
        inner: Parts<'_>,
        on_run: &mut F,
    ) -> u64 {
        debug_assert_eq!(self.outer.is_some(), outer.0.len() + outer.1.len() > 0);
        if inner.0.len() + inner.1.len() == 0 {
            return 0;
        }
        // A fresh `Run` per delivery: built from values already in
        // registers, it need not exist in memory once `on_run` is inlined.
        let mut run = Run {
            origin: self.origin,
            origin_tuple: self.origin_tuple,
            slots,
            stores: self.stores,
            stream: self.last,
            head: inner.0,
            tail: inner.1,
            outer_stream: self.outer,
            outer_head: outer.0,
            outer_tail: outer.1,
        };
        on_run(&mut run);
        run.len() as u64
    }

    /// [`Probe::deliver`] for a last step with residual predicates: each
    /// maximal stretch of either slice whose slots pass `keep` is one run,
    /// under one outer candidate — bound in `slots` — at a time. Forced
    /// inline for [`Probe::deliver`]'s reason.
    #[inline(always)]
    fn deliver_passing<F: FnMut(&mut Run<'_>)>(
        &self,
        slots: &mut [Option<Slot>],
        (head, tail): Parts<'_>,
        mut keep: impl FnMut(Slot) -> bool,
        on_run: &mut F,
    ) -> u64 {
        let mut count = 0;
        for part in [head, tail] {
            let mut start = 0;
            for (i, &slot) in part.iter().enumerate() {
                if !keep(slot) {
                    count += self.deliver(slots, NO_OUTER, (&part[start..i], &[]), on_run);
                    start = i + 1;
                }
            }
            count += self.deliver(slots, NO_OUTER, (&part[start..], &[]), on_run);
        }
        count
    }

    /// The plan's last two levels under the prefix `slots`: `cands` are the
    /// candidates of `outer` (the step before the last), `rvals` its
    /// hoisted residual checks, and `last` — residual-free — is probed once
    /// per delivery instead of once per outer candidate. Consecutive
    /// passing candidates with one drive value for `last` are one stretch;
    /// a candidate failing `rvals`, a change of value and the seam between
    /// the two slices of `cands` each end it. Forced inline for
    /// [`Probe::deliver`]'s reason.
    #[inline(always)]
    fn deliver_blocks<F: FnMut(&mut Run<'_>)>(
        &self,
        outer: &PlanStep,
        last: &PlanStep,
        cands: Parts<'_>,
        rvals: &[(Value, usize)],
        slots: &mut [Option<Slot>],
        on_run: &mut F,
    ) -> u64 {
        debug_assert!(last.residual.is_empty() && self.outer == Some(outer.stream));
        if cands.0.is_empty() && cands.1.is_empty() {
            return 0;
        }
        let index = self.stores.store(last.stream).index_on(last.probe_attr);
        // Star: `last` is driven from the prefix, so every outer candidate
        // shares one inner list. Chain: each drives with its own value.
        let shared = (last.drive_stream != outer.stream).then(|| {
            let (stream, attr) = (last.drive_stream, last.drive_attr);
            bound_value(self.origin, self.origin_tuple, self.stores, slots, stream, attr)
        });
        if let (Some(drive), true) = (shared, rvals.is_empty()) {
            // ... and all of them pass: the whole level is one delivery.
            return self.deliver(slots, cands, index.probe(drive.0).parts(), on_run);
        }
        let store = self.stores.store(outer.stream);
        // A chain's candidates each drive `last` with their own value of
        // `last.drive_attr` — a join attribute of theirs, so read from the
        // store's column, not through the candidate's tuple. Only for a
        // chain: the attribute indexes the drive stream's schema, and a
        // star's outer tuples may be narrower than that.
        let col = shared.is_none().then(|| store.join_col(last.drive_attr));
        // The value a candidate drives `last` with, if it passes `rvals`.
        let drive_of = |slot| {
            let passes = rvals.is_empty() || {
                let t = store.tuple(slot).expect("probed slot is live");
                rvals.iter().all(|&(v, ca)| t.values[ca] == v)
            };
            match (passes, col) {
                (false, _) => None,
                (true, Some(col)) => Some(col.get(slot)),
                (true, None) => shared,
            }
        };
        let mut count = 0;
        for part in [cands.0, cands.1] {
            // `part[start..i]` is the open stretch, driving with `open`;
            // `None` while the candidates since `start` have all failed, as
            // the end of the slice does.
            let (mut start, mut open) = (0, None);
            for i in 0..=part.len() {
                let drive = part.get(i).and_then(|&slot| drive_of(slot));
                if drive != open {
                    if let Some(drive) = open {
                        let inner = index.probe(drive.0).parts();
                        count += self.deliver(slots, (&part[start..i], &[]), inner, on_run);
                    }
                    (start, open) = (i, drive);
                }
            }
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
    probe_runs_in(
        plan,
        origin_tuple,
        stores,
        // Forced inline for `Probe::deliver`'s reason.
        #[inline(always)]
        |run: &mut Run<'_>| run.for_each_row(&mut on_match),
    )
}

/// Counts join combinations without inspecting them.
pub fn probe_count(plan: &ProbePlan, origin_tuple: &Tuple, stores: &[WindowStore]) -> u64 {
    debug_assert_eq!(plan.origin(), origin_tuple.stream);
    probe_runs_in(plan, origin_tuple, &stores, |_| {})
}

/// Entries of each per-probe scratch array — binding slots, frames, hoisted
/// residual values — [`probe_runs_in`] keeps on the stack.
const INLINE_SLOTS: usize = 8;

/// `n` copies of `fill` to scribble on: a prefix of `inline` when they fit
/// there, `spill` grown to hold them otherwise. A probe runs once per
/// arrival, and every join width seen in practice fits inline.
fn scratch<'a, T: Clone>(
    n: usize,
    fill: T,
    inline: &'a mut [T; INLINE_SLOTS],
    spill: &'a mut Vec<T>,
) -> &'a mut [T] {
    if n <= INLINE_SLOTS {
        &mut inline[..n]
    } else {
        spill.resize(n, fill);
        spill
    }
}

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
    let (mut inline, mut spill) = ([None; INLINE_SLOTS], Vec::new());
    let slots = scratch(steps.len() + 1, None, &mut inline, &mut spill);
    let (last, before) = steps.split_last().expect("a join plan has at least one step");
    let probe = Probe {
        origin: plan.origin(),
        origin_tuple,
        stores,
        last: last.stream,
        // The last two levels are delivered as blocks unless residual
        // checks on the last step tie its survivors to the outer tuple.
        outer: match before.last() {
            Some(outer) if last.residual.is_empty() => Some(outer.stream),
            _ => None,
        },
    };
    match steps {
        [step] if step.residual.is_empty() => probe_1(step, &probe, slots, &mut on_run),
        [s0, s1] if s0.residual.is_empty() && s1.residual.is_empty() => {
            probe_2(s0, s1, &probe, slots, &mut on_run)
        }
        _ => probe_n(steps, &probe, slots, &mut on_run),
    }
}

/// A single residual-free probe step (2-stream query): the drive value
/// comes straight off the arriving tuple and no candidate is dereferenced.
fn probe_1<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    step: &PlanStep,
    probe: &Probe<'_, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    debug_assert_eq!(step.drive_stream, probe.origin, "step 0 is driven by the origin");
    let drive = probe.origin_tuple.values[step.drive_attr];
    let cands = probe.stores.store(step.stream).probe(step.probe_attr, drive);
    probe.deliver(slots, NO_OUTER, cands.parts(), on_run)
}

/// Two residual-free probe steps (3-stream acyclic query): the whole probe
/// tree is its last two levels, so step 0's candidates go straight to
/// [`Probe::deliver_blocks`] — one delivery in all for a star (both steps
/// driven by the origin), one per stretch of equal drive values for a
/// chain — and no inner candidate's tuple is ever touched.
fn probe_2<L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    s0: &PlanStep,
    s1: &PlanStep,
    probe: &Probe<'_, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    debug_assert_eq!(s0.drive_stream, probe.origin, "step 0 is driven by the origin");
    let drive = probe.origin_tuple.values[s0.drive_attr];
    let c0 = probe.stores.store(s0.stream).probe(s0.probe_attr, drive);
    probe.deliver_blocks(s0, s1, c0.parts(), &[], slots, on_run)
}

/// One enumeration level of the general kernel: the step's hash index and,
/// while the level is open, its candidate list (inline head + spill tail),
/// the resume cursor, and where the step's hoisted residual values start in
/// the shared scratch.
#[derive(Clone, Copy, Default)]
struct Frame<'a> {
    /// Resolved when the level is first opened, then kept for the probe.
    index: Option<&'a FlatIndex>,
    head: &'a [Slot],
    tail: &'a [Slot],
    cursor: usize,
    res_base: usize,
}

impl<'a> Frame<'a> {
    /// Opens the level for `step` under the bindings in `slots`: computes
    /// the step's drive value, lists its candidates, and hoists its
    /// residual left-hand values onto `res[res_len..]`. Returns the new
    /// `res_len`. Forced inline for [`Probe::deliver`]'s reason.
    #[inline(always)]
    fn open<L: StoreLookup>(
        &mut self,
        step: &PlanStep,
        probe: &Probe<'a, L>,
        slots: &[Option<Slot>],
        res: &mut [(Value, usize)],
        res_len: usize,
    ) -> usize {
        let stores = probe.stores;
        let value =
            |stream, attr| bound_value(probe.origin, probe.origin_tuple, stores, slots, stream, attr);
        let index = *self
            .index
            .get_or_insert_with(|| stores.store(step.stream).index_on(step.probe_attr));
        let drive = value(step.drive_stream, step.drive_attr);
        (self.head, self.tail) = index.probe(drive.0).parts();
        self.cursor = 0;
        self.res_base = res_len;
        for (r, &(bs, ba, ca)) in res[res_len..].iter_mut().zip(&step.residual) {
            *r = (value(bs, ba), ca);
        }
        res_len + step.residual.len()
    }

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
/// the plan's steps. Opening a level computes the step's drive value and
/// hoists its residual left-hand values once; the candidate loop then only
/// dereferences tuples for steps that actually carry residual checks. The
/// stack stops short of the leaves: the last level is delivered whole —
/// one run, or one per passing stretch — and, when the plan blocks them,
/// the last two together ([`Probe::deliver_blocks`]).
fn probe_n<'a, L: StoreLookup, F: FnMut(&mut Run<'_>)>(
    steps: &[PlanStep],
    probe: &Probe<'a, L>,
    slots: &mut [Option<Slot>],
    on_run: &mut F,
) -> u64 {
    let stores = probe.stores;
    let last = &steps[steps.len() - 1];
    // The depth whose level is delivered instead of walked.
    let leaf = steps.len() - if probe.outer.is_some() { 2 } else { 1 };
    let (mut inline, mut spill) = ([Frame::default(); INLINE_SLOTS], Vec::new());
    let frames = scratch(leaf + 1, Frame::default(), &mut inline, &mut spill);
    // Hoisted residual `(left-hand value, candidate attr)` pairs of the
    // open levels, one step's after another's; `res_base` marks each span.
    let n_res = steps.iter().map(|s| s.residual.len()).sum();
    let (mut inline, mut spill) = ([(Value(0), 0); INLINE_SLOTS], Vec::new());
    let res = scratch(n_res, (Value(0), 0), &mut inline, &mut spill);
    let mut res_len = frames[0].open(&steps[0], probe, slots, res, 0);
    let mut count = 0u64;
    let mut depth = 0;
    loop {
        let step = &steps[depth];
        let store = stores.store(step.stream);
        let f = &mut frames[depth];
        let rvals = &res[f.res_base..res_len];
        let passes = |slot| {
            let t = store.tuple(slot).expect("probed slot is live");
            rvals.iter().all(|&(v, ca)| t.values[ca] == v)
        };
        let chosen = if depth < leaf {
            loop {
                match f.next() {
                    Some(slot) if rvals.is_empty() || passes(slot) => break Some(slot),
                    Some(_) => {}
                    None => break None,
                }
            }
        } else {
            // Every surviving candidate completes a match (or, blocked,
            // opens a last level whose every candidate does): delivered at
            // once, with no stack round-trip per match.
            let cands = (f.head, f.tail);
            count += if probe.outer.is_some() {
                probe.deliver_blocks(step, last, cands, rvals, slots, on_run)
            } else if rvals.is_empty() {
                probe.deliver(slots, NO_OUTER, cands, on_run)
            } else {
                probe.deliver_passing(slots, cands, passes, on_run)
            };
            None
        };
        match chosen {
            Some(slot) => {
                slots[step.stream.index()] = Some(slot);
                depth += 1;
                res_len = frames[depth].open(&steps[depth], probe, slots, res, res_len);
            }
            None => {
                slots[step.stream.index()] = None;
                res_len = f.res_base;
                match depth.checked_sub(1) {
                    Some(up) => depth = up,
                    None => return count,
                }
            }
        }
    }
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

    /// A tuple of `q`'s `stream`, as wide as its schema: `a, b, a, b, …`.
    fn tup_of(q: &JoinQuery, stream: usize, seq: u64, a: u64, b: u64) -> Tuple {
        let arity = q.catalog().schema(StreamId(stream)).unwrap().arity();
        let values: Vec<Value> = [a, b].into_iter().cycle().take(arity).map(Value).collect();
        Tuple::new(StreamId(stream), VTime::ZERO, SeqNo(seq), values)
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

    /// The query shapes the differential proptests cover.
    const SHAPES: usize = 12;

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
            6 => wide_chain(),
            // triangle with a tail on its last-bound corner: from R1 and R2
            // the step before the last carries the residual and the last is
            // a chain step off it.
            7 => JoinQuery::from_names(
                mk(4),
                &[
                    ("R1.A1", "R2.A1"),
                    ("R2.A2", "R3.A1"),
                    ("R3.A2", "R1.A2"),
                    ("R3.A2", "R4.A1"),
                ],
                w,
            )
            .unwrap(),
            // triangle with a tail on R1: from R1 the last step is driven
            // by the origin, past a step with a residual.
            8 => JoinQuery::from_names(
                mk(4),
                &[
                    ("R1.A1", "R2.A1"),
                    ("R2.A2", "R3.A1"),
                    ("R3.A2", "R1.A2"),
                    ("R1.A1", "R4.A1"),
                ],
                w,
            )
            .unwrap(),
            // pair: two predicates between two streams — single-step plans
            // whose one step carries a residual.
            9 => JoinQuery::from_names(mk(2), &[("R1.A1", "R2.A1"), ("R1.A2", "R2.A2")], w).unwrap(),
            // wide middle: R2 is indexed on its first and fourth attributes
            // only, so from R1 each R2 candidate drives R3 with the second
            // value of its key-column row, from schema attribute 3.
            11 => {
                let mut c = Catalog::new();
                c.add_stream(StreamSchema::new("R1", &["A1"]));
                c.add_stream(StreamSchema::new("R2", &["A1", "A2", "A3", "A4"]));
                c.add_stream(StreamSchema::new("R3", &["A1"]));
                JoinQuery::from_names(c, &[("R1.A1", "R2.A1"), ("R2.A4", "R3.A1")], w).unwrap()
            }
            // mixed arities: from R1 the outer step (R2, two attributes)
            // carries a residual and the last (R3) is driven by the
            // origin's fourth — an index no outer tuple has.
            _ => {
                let mut c = Catalog::new();
                c.add_stream(StreamSchema::new("R1", &["A1", "A2", "A3", "A4"]));
                c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
                c.add_stream(StreamSchema::new("R3", &["A1"]));
                let preds = [("R1.A1", "R2.A1"), ("R1.A2", "R2.A2"), ("R1.A4", "R3.A1")];
                JoinQuery::from_names(c, &preds, w).unwrap()
            }
        }
    }

    /// `q`'s windows holding `data`, dealt round-robin across its streams.
    fn filled_stores(q: &JoinQuery, data: &[(u64, u64)]) -> Vec<WindowStore> {
        let n = q.n_streams();
        let mut stores = stores_for(q);
        for (i, &(a, b)) in data.iter().enumerate() {
            stores[i % n].insert(tup_of(q, i % n, i as u64, a, b), 0.0);
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
            shape in 0..SHAPES,
            // Small value domain so joins actually fan out.
            data in proptest::collection::vec((0u64..4, 0u64..4), 10..80),
            probe_vals in (0u64..4, 0u64..4),
        ) {
            let q = query(shape);
            let stores = filled_stores(&q, &data);
            for plan in ProbePlan::all(&q) {
                let origin = plan.origin().index();
                let t = tup_of(&q, origin, 9999, probe_vals.0, probe_vals.1);
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
        /// matches, over every query shape and value domains of 1 to 4
        /// values (few values: long stretches of outer candidates driving
        /// one inner list; many: stretches cut at every other candidate).
        /// Their rows, in delivery order, are its matches one for one;
        /// their lengths — outer × inner — add up to the returned count
        /// and to `probe_count`; none is empty; each lists live slots of
        /// the plan's last stream and, if it has an outer stretch, of the
        /// stream before it, which — like the origin — its prefix leaves
        /// unbound while every other stream is bound. Plans that block
        /// their last two levels do form stretches longer than one
        /// candidate; the others deliver none at all.
        #[test]
        fn runs_tile_the_recursive_matches(
            domain in 1u64..=4,
            data in proptest::collection::vec((0u64..4, 0u64..4), 20..80),
            probe_vals in (0u64..4, 0u64..4),
        ) {
            for shape in 0..SHAPES {
                let q = query(shape);
                let n = q.n_streams();
                // Keep the fan-out of a level near 6 (2 on the wide
                // chain) whatever the domain: windows hold this many
                // tuples a value.
                let per_value = if n > 4 { 2 } else { 6 };
                let data: Vec<(u64, u64)> = data
                    .iter()
                    .take(n * per_value * domain as usize)
                    .map(|&(a, b)| (a % domain, b % domain))
                    .collect();
                let stores = filled_stores(&q, &data);
                for plan in ProbePlan::all(&q) {
                    let origin = plan.origin();
                    let (last, before) = plan.steps().split_last().unwrap();
                    let blocked = !before.is_empty() && last.residual.is_empty();
                    let outer = blocked.then(|| before.last().unwrap().stream);
                    let t = tup_of(&q, origin.index(), 9999, probe_vals.0 % domain, probe_vals.1 % domain);
                    let mut got = Vec::new();
                    let mut lens = 0u64;
                    let mut longest_stretch = 0;
                    let total = probe_runs_in(&plan, &t, &stores.as_slice(), |run| {
                        assert!(run.len() > 0, "empty run delivered");
                        assert_eq!(run.stream(), last.stream);
                        assert_eq!(run.outer_stream(), outer);
                        for k in (0..n).map(StreamId) {
                            let free = k == origin || k == last.stream || Some(k) == outer;
                            assert_eq!(run.slot(k).is_none(), free, "prefix binding of {k}");
                        }
                        let inner: Vec<Slot> = run.slots().collect();
                        let stretch: Vec<Slot> = run.outer_slots().collect();
                        assert_eq!(inner.len(), run.inner_len());
                        assert_eq!(stretch.len().max(1), run.outer_len());
                        assert_eq!(stretch.is_empty(), outer.is_none());
                        assert_eq!(run.len(), run.outer_len() * run.inner_len());
                        for &slot in &inner {
                            assert!(stores[last.stream.index()].tuple(slot).is_some(), "dead inner slot");
                        }
                        for &slot in &stretch {
                            assert!(stores[outer.unwrap().index()].tuple(slot).is_some(), "dead outer slot");
                        }
                        // Outer-major: each outer candidate's rows walk
                        // the whole inner list before the next one's.
                        let mut rows = 0;
                        run.for_each_row(|b| {
                            assert_eq!(b.slot(last.stream), Some(inner[rows % inner.len()]), "inner order");
                            if let Some(o) = outer {
                                assert_eq!(b.slot(o), Some(stretch[rows / inner.len()]), "outer order");
                            }
                            rows += 1;
                            got.push(seqs(b));
                        });
                        assert_eq!(rows, run.len(), "rows built vs the run's length");
                        assert!(run.slot(last.stream).is_none(), "run's stream left bound");
                        assert!(outer.map_or(true, |o| run.slot(o).is_none()), "outer stream left bound");
                        lens += run.len() as u64;
                        longest_stretch = longest_stretch.max(stretch.len());
                    });
                    let mut want = Vec::new();
                    let rows = probe_each_recursive(&plan, &t, &stores, |b| want.push(seqs(b)));
                    prop_assert_eq!(total, rows, "match count (shape {}, origin {})", shape, origin);
                    prop_assert_eq!(lens, rows, "run lengths (shape {}, origin {})", shape, origin);
                    prop_assert_eq!(probe_count(&plan, &t, &stores), rows);
                    prop_assert_eq!(&got, &want, "match order (shape {}, origin {})", shape, origin);
                    // One value everywhere: every window's (two or more)
                    // tuples are candidates, all driving one inner list.
                    if blocked && domain == 1 {
                        prop_assert!(longest_stretch > 1, "no stretch formed (shape {}, origin {})", shape, origin);
                    }
                }
            }
        }
    }
}
