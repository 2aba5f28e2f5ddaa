//! Multi-way sliding-window equi-join queries.
//!
//! The query class the paper targets (§2) is
//!
//! ```sql
//! SELECT * FROM S1 [WINDOW p1], ..., Sn [WINDOW pn] WHERE theta
//! ```
//!
//! where `theta` is a conjunction of equi-join predicates whose graph
//! connects all `n` streams. [`JoinQuery`] captures exactly that, validates
//! it once at construction, and pre-computes the per-stream predicate
//! incidence lists the join executor and the sketch estimator both need.

use crate::error::{Error, Result};
use crate::schema::{AttrRef, Catalog, StreamId};
use crate::time::VDur;
use serde::{Deserialize, Serialize};

/// Handle for one standing query registered with a multi-query engine.
///
/// Ids are dense and assigned in registration order by the engine builder;
/// a query added at runtime receives the next unused id. Ids are never
/// reused within one engine's lifetime, so a [`QueryId`] stays a stable key
/// for sinks, reports and metrics even after other queries are removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id a single-query engine emits under (registration index 0).
    pub const SOLO: QueryId = QueryId(0);

    /// The dense registration index of this query.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for QueryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// How each stream's sliding window is bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Keep tuples whose age is below the given span (`p`-seconds window).
    Time(VDur),
    /// Keep the most recent `count` tuples (paper §4.1).
    Tuples(u64),
}

impl WindowSpec {
    /// A `p`-seconds time-based window.
    pub fn secs(p: u64) -> Self {
        WindowSpec::Time(VDur::from_secs(p))
    }
}

/// One equi-join predicate `left = right` between two distinct streams.
///
/// Each predicate identifies a *join-attribute pair* `j ∈ theta`; the sketch
/// layer assigns one four-wise-independent ±1 family per predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EquiPredicate {
    /// Left-hand attribute.
    pub left: AttrRef,
    /// Right-hand attribute.
    pub right: AttrRef,
}

impl EquiPredicate {
    /// Convenience constructor.
    pub fn new(left: AttrRef, right: AttrRef) -> Self {
        EquiPredicate { left, right }
    }
}

/// Whether (and how) a query's arrivals can be hash-partitioned across
/// independent join workers with no cross-partition probes.
///
/// A query is key-partitionable exactly when every equi-predicate lies in a
/// single attribute-equivalence class: all attributes a result row must
/// agree on collapse to one join key, so routing each arrival by the value
/// of its stream's class attribute sends every potential match partner to
/// the same partition. The paper's chain query `R1.A1 = R2.A1 AND
/// R2.A2 = R3.A1` is *not* partitionable (R2 joins through two distinct
/// attributes), while `R1.A1 = R2.A1 AND R2.A1 = R3.A1` is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// All predicates share one attribute class; a tuple of stream `s`
    /// routes by the value of attribute `key_attrs[s]`.
    ByKey {
        /// The partition attribute of each stream, indexed by stream.
        key_attrs: Vec<usize>,
    },
    /// The predicate graph spans multiple attribute classes; any partition
    /// of one class separates match partners joined through another, so
    /// execution must stay on a single worker.
    Single {
        /// Human-readable explanation, surfaced in run reports.
        reason: String,
    },
}

impl Partitioning {
    /// The per-stream partition attributes, when partitionable.
    #[cfg(test)]
    pub(crate) fn key_attrs(&self) -> Option<&[usize]> {
        match self {
            Partitioning::ByKey { key_attrs } => Some(key_attrs),
            Partitioning::Single { .. } => None,
        }
    }

    /// The degradation reason, when not partitionable.
    #[cfg(test)]
    pub(crate) fn reason(&self) -> Option<&str> {
        match self {
            Partitioning::ByKey { .. } => None,
            Partitioning::Single { reason } => Some(reason),
        }
    }
}

/// A validated multi-way sliding-window equi-join query.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JoinQuery {
    catalog: Catalog,
    predicates: Vec<EquiPredicate>,
    windows: Vec<WindowSpec>,
    /// `incidence[s]` = list of `(predicate index, attr on s)` for stream `s`.
    incidence: Vec<Vec<(usize, usize)>>,
}

impl JoinQuery {
    /// Builds and validates a query with the same window on every stream
    /// (the simplification the paper adopts: `p = p_i` for all `i`).
    pub fn uniform(
        catalog: Catalog,
        predicates: Vec<EquiPredicate>,
        window: WindowSpec,
    ) -> Result<Self> {
        let n = catalog.len();
        Self::new(catalog, predicates, vec![window; n])
    }

    /// Builds and validates a query with per-stream windows.
    pub fn new(
        catalog: Catalog,
        predicates: Vec<EquiPredicate>,
        windows: Vec<WindowSpec>,
    ) -> Result<Self> {
        let n = catalog.len();
        if n < 2 {
            return Err(Error::TooFewStreams(n));
        }
        if windows.len() != n {
            return Err(Error::InvalidConfig(format!(
                "{} window specs for {} streams",
                windows.len(),
                n
            )));
        }
        for pred in &predicates {
            for side in [pred.left, pred.right] {
                let s = side.stream.index();
                if s >= n {
                    return Err(Error::StreamOutOfRange {
                        stream: s,
                        n_streams: n,
                    });
                }
                let arity = self_arity(&catalog, side.stream);
                if side.attr >= arity {
                    return Err(Error::AttrOutOfRange {
                        stream: s,
                        attr: side.attr,
                        arity,
                    });
                }
            }
            if pred.left.stream == pred.right.stream {
                return Err(Error::SelfJoinPredicate(pred.left.stream.index()));
            }
        }
        if !connected(n, &predicates) {
            return Err(Error::DisconnectedJoinGraph);
        }
        let mut incidence = vec![Vec::new(); n];
        for (pi, pred) in predicates.iter().enumerate() {
            incidence[pred.left.stream.index()].push((pi, pred.left.attr));
            incidence[pred.right.stream.index()].push((pi, pred.right.attr));
        }
        Ok(JoinQuery {
            catalog,
            predicates,
            windows,
            incidence,
        })
    }

    /// Parses predicates given as dotted-name pairs, e.g.
    /// `[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")]`.
    pub fn from_names(
        catalog: Catalog,
        preds: &[(&str, &str)],
        window: WindowSpec,
    ) -> Result<Self> {
        let predicates = preds
            .iter()
            .map(|(l, r)| {
                Ok(EquiPredicate::new(
                    catalog.resolve(l)?,
                    catalog.resolve(r)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        Self::uniform(catalog, predicates, window)
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of streams `n`.
    pub fn n_streams(&self) -> usize {
        self.catalog.len()
    }

    /// All equi-join predicates (conjunction `theta`).
    pub fn predicates(&self) -> &[EquiPredicate] {
        &self.predicates
    }

    /// The window spec of `stream`.
    pub fn window(&self, stream: StreamId) -> WindowSpec {
        self.windows[stream.index()]
    }

    /// All per-stream window specs.
    pub fn windows(&self) -> &[WindowSpec] {
        &self.windows
    }

    /// `(predicate index, attribute on stream)` pairs incident to `stream`.
    ///
    /// This is the set `j ∈ attrs(R_k) ∩ theta` over which the sketch layer
    /// multiplies ±1 variables, and the set of hash indexes the window store
    /// maintains for probing.
    pub fn incident(&self, stream: StreamId) -> &[(usize, usize)] {
        &self.incidence[stream.index()]
    }

    /// Distinct attribute indexes of `stream` that participate in theta.
    pub fn join_attrs(&self, stream: StreamId) -> Vec<usize> {
        let mut attrs: Vec<usize> = self.incidence[stream.index()]
            .iter()
            .map(|&(_, a)| a)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Whether all per-stream windows are tuple-based.
    pub fn all_tuple_based(&self) -> bool {
        self.windows
            .iter()
            .all(|w| matches!(w, WindowSpec::Tuples(_)))
    }

    /// The largest time-based window span, if any window is time-based.
    pub fn max_time_window(&self) -> Option<VDur> {
        self.windows
            .iter()
            .filter_map(|w| match w {
                WindowSpec::Time(d) => Some(*d),
                WindowSpec::Tuples(_) => None,
            })
            .max()
    }

    /// Analyzes the equi-predicate graph for hash-partitionability.
    ///
    /// Runs union-find over `(stream, attribute)` nodes, merging the two
    /// sides of every predicate. If all predicates land in one equivalence
    /// class the query is [`Partitioning::ByKey`]; each stream's partition
    /// attribute is its smallest attribute index in that class (connectivity
    /// of the join graph guarantees every stream has one). Otherwise the
    /// result is [`Partitioning::Single`] with the offending stream named.
    pub fn partitioning(&self) -> Partitioning {
        let arity: Vec<usize> = (0..self.n_streams())
            .map(|s| self_arity(&self.catalog, StreamId(s)))
            .collect();
        // Flat node ids: (stream, attr) -> offsets[stream] + attr.
        let mut offsets = vec![0usize; self.n_streams() + 1];
        for s in 0..self.n_streams() {
            offsets[s + 1] = offsets[s] + arity[s];
        }
        let mut parent: Vec<usize> = (0..offsets[self.n_streams()]).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let node = |r: AttrRef| offsets[r.stream.index()] + r.attr;
        for pred in &self.predicates {
            let (a, b) = (node(pred.left), node(pred.right));
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
        let class = find(&mut parent, node(self.predicates[0].left));
        for pred in &self.predicates {
            for side in [pred.left, pred.right] {
                if find(&mut parent, node(side)) != class {
                    // Name a stream joined through two classes for the
                    // report; by connectivity at least one exists.
                    let culprit = (0..self.n_streams())
                        .find(|&s| {
                            let roots: Vec<usize> = self.incidence[s]
                                .iter()
                                .map(|&(_, a)| find(&mut parent, offsets[s] + a))
                                .collect();
                            roots.windows(2).any(|w| w[0] != w[1])
                        })
                        .unwrap_or(side.stream.index());
                    let name = self
                        .catalog
                        .schema(StreamId(culprit))
                        .map(|sch| sch.name.clone())
                        .unwrap_or_else(|| format!("stream {culprit}"));
                    return Partitioning::Single {
                        reason: format!(
                            "predicates span multiple join-attribute classes \
                             ({name} joins through two distinct attributes)"
                        ),
                    };
                }
            }
        }
        let key_attrs = (0..self.n_streams())
            .map(|s| {
                (0..arity[s])
                    .find(|&a| find(&mut parent, offsets[s] + a) == class)
                    .expect("connected join graph reaches every stream")
            })
            .collect();
        Partitioning::ByKey { key_attrs }
    }
}

fn self_arity(catalog: &Catalog, stream: StreamId) -> usize {
    catalog.schema(stream).map(|s| s.arity()).unwrap_or(0)
}

/// Union-find connectivity check over the predicate graph.
fn connected(n: usize, predicates: &[EquiPredicate]) -> bool {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for pred in predicates {
        let (a, b) = (pred.left.stream.index(), pred.right.stream.index());
        if a < n && b < n {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    let root0 = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StreamSchema;

    fn catalog3() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        c
    }

    /// The paper's evaluation query: R1 ⋈ R2 ⋈ R3 on R1.A1=R2.A1, R2.A2=R3.A1.
    fn paper_query() -> JoinQuery {
        JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(500),
        )
        .unwrap()
    }

    #[test]
    fn paper_query_validates() {
        let q = paper_query();
        assert_eq!(q.n_streams(), 3);
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.window(StreamId(0)), WindowSpec::secs(500));
    }

    #[test]
    fn incidence_lists() {
        let q = paper_query();
        // R1 touches predicate 0 via A1.
        assert_eq!(q.incident(StreamId(0)), &[(0, 0)]);
        // R2 touches predicate 0 via A1 and predicate 1 via A2.
        assert_eq!(q.incident(StreamId(1)), &[(0, 0), (1, 1)]);
        // R3 touches predicate 1 via A1.
        assert_eq!(q.incident(StreamId(2)), &[(1, 0)]);
        assert_eq!(q.join_attrs(StreamId(1)), vec![0, 1]);
    }

    #[test]
    fn rejects_single_stream() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        let err = JoinQuery::uniform(c, vec![], WindowSpec::secs(1)).unwrap_err();
        assert_eq!(err, Error::TooFewStreams(1));
    }

    #[test]
    fn rejects_disconnected_graph() {
        // Only R1-R2 joined; R3 dangles -> cross product.
        let err = JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R2.A1")],
            WindowSpec::secs(1),
        )
        .unwrap_err();
        assert_eq!(err, Error::DisconnectedJoinGraph);
    }

    #[test]
    fn rejects_self_join_predicate() {
        let err = JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R1.A2"), ("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(1),
        )
        .unwrap_err();
        assert_eq!(err, Error::SelfJoinPredicate(0));
    }

    #[test]
    fn rejects_bad_attr() {
        let c = catalog3();
        let bad = EquiPredicate::new(
            AttrRef::new(StreamId(0), 5),
            AttrRef::new(StreamId(1), 0),
        );
        let ok = EquiPredicate::new(
            AttrRef::new(StreamId(1), 1),
            AttrRef::new(StreamId(2), 0),
        );
        let err = JoinQuery::uniform(c, vec![bad, ok], WindowSpec::secs(1)).unwrap_err();
        assert!(matches!(err, Error::AttrOutOfRange { attr: 5, .. }));
    }

    #[test]
    fn rejects_bad_stream_index() {
        let c = catalog3();
        let bad = EquiPredicate::new(
            AttrRef::new(StreamId(7), 0),
            AttrRef::new(StreamId(1), 0),
        );
        let err = JoinQuery::uniform(c, vec![bad], WindowSpec::secs(1)).unwrap_err();
        assert!(matches!(err, Error::StreamOutOfRange { stream: 7, .. }));
    }

    #[test]
    fn per_stream_windows_and_helpers() {
        let q = JoinQuery::new(
            catalog3(),
            vec![
                EquiPredicate::new(AttrRef::new(StreamId(0), 0), AttrRef::new(StreamId(1), 0)),
                EquiPredicate::new(AttrRef::new(StreamId(1), 1), AttrRef::new(StreamId(2), 0)),
            ],
            vec![
                WindowSpec::secs(100),
                WindowSpec::secs(200),
                WindowSpec::Tuples(50),
            ],
        )
        .unwrap();
        assert_eq!(q.max_time_window(), Some(VDur::from_secs(200)));
        assert!(!q.all_tuple_based());
    }

    #[test]
    fn paper_chain_is_not_partitionable() {
        // R2 joins via A1 (pred 0) and A2 (pred 1): two attribute classes.
        let p = paper_query().partitioning();
        assert_eq!(p.key_attrs(), None);
        let reason = p.reason().expect("degrade reason");
        assert!(reason.contains("R2"), "{reason}");
    }

    #[test]
    fn single_attribute_chain_partitions_by_key() {
        let q = JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")],
            WindowSpec::secs(10),
        )
        .unwrap();
        assert_eq!(
            q.partitioning(),
            Partitioning::ByKey {
                key_attrs: vec![0, 0, 0]
            }
        );
    }

    #[test]
    fn mixed_attrs_in_one_class_still_partition() {
        // R3 participates through A2 even though the others use A1; all
        // predicates still collapse to one equivalence class.
        let q = JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A2")],
            WindowSpec::secs(10),
        )
        .unwrap();
        assert_eq!(
            q.partitioning(),
            Partitioning::ByKey {
                key_attrs: vec![0, 0, 1]
            }
        );
    }

    #[test]
    fn pair_query_with_two_predicates_is_not_partitionable() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v"]));
        c.add_stream(StreamSchema::new("R", &["k", "v"]));
        let q = JoinQuery::from_names(
            c,
            &[("L.k", "R.k"), ("L.v", "R.v")],
            WindowSpec::secs(5),
        )
        .unwrap();
        assert!(q.partitioning().reason().is_some());
    }

    /// Enumerates every non-shardable query shape alongside the exact
    /// degrade-reason string it reports: (1) the paper's chain (middle
    /// stream bridges two attribute classes), (2) a pair query with two
    /// independent predicates, (3) a star whose hub fans out through
    /// distinct attributes, (4) a four-stream double chain whose interior
    /// streams each bridge classes (the lowest-indexed culprit is named).
    /// The sharded engine surfaces these strings verbatim (when broadcast
    /// mode is off), so their wording is pinned here.
    #[test]
    fn degrade_reasons_enumerate_non_shardable_shapes() {
        let reason = |q: &JoinQuery| q.partitioning().reason().unwrap().to_owned();

        let chain = paper_query();
        assert_eq!(
            reason(&chain),
            "predicates span multiple join-attribute classes \
             (R2 joins through two distinct attributes)"
        );

        let mut pair_cat = Catalog::new();
        pair_cat.add_stream(StreamSchema::new("L", &["k", "v"]));
        pair_cat.add_stream(StreamSchema::new("R", &["k", "v"]));
        let pair = JoinQuery::from_names(
            pair_cat,
            &[("L.k", "R.k"), ("L.v", "R.v")],
            WindowSpec::secs(5),
        )
        .unwrap();
        assert_eq!(
            reason(&pair),
            "predicates span multiple join-attribute classes \
             (L joins through two distinct attributes)"
        );

        let mut star_cat = Catalog::new();
        star_cat.add_stream(StreamSchema::new("Hub", &["a", "b"]));
        star_cat.add_stream(StreamSchema::new("S1", &["k"]));
        star_cat.add_stream(StreamSchema::new("S2", &["k"]));
        let star = JoinQuery::from_names(
            star_cat,
            &[("Hub.a", "S1.k"), ("Hub.b", "S2.k")],
            WindowSpec::secs(5),
        )
        .unwrap();
        assert_eq!(
            reason(&star),
            "predicates span multiple join-attribute classes \
             (Hub joins through two distinct attributes)"
        );

        let mut four_cat = Catalog::new();
        for name in ["R1", "R2", "R3", "R4"] {
            four_cat.add_stream(StreamSchema::new(name, &["A1", "A2"]));
        }
        let double_chain = JoinQuery::from_names(
            four_cat,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R4.A1")],
            WindowSpec::secs(5),
        )
        .unwrap();
        assert_eq!(
            reason(&double_chain),
            "predicates span multiple join-attribute classes \
             (R2 joins through two distinct attributes)",
            "the lowest-indexed bridging stream is named"
        );
    }

    #[test]
    fn cyclic_single_class_partitions() {
        let q = JoinQuery::from_names(
            catalog3(),
            &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1"), ("R3.A1", "R1.A1")],
            WindowSpec::secs(10),
        )
        .unwrap();
        assert!(q.partitioning().key_attrs().is_some());
    }

    #[test]
    fn mismatched_window_count_rejected() {
        let err = JoinQuery::new(
            catalog3(),
            vec![
                EquiPredicate::new(AttrRef::new(StreamId(0), 0), AttrRef::new(StreamId(1), 0)),
                EquiPredicate::new(AttrRef::new(StreamId(1), 1), AttrRef::new(StreamId(2), 0)),
            ],
            vec![WindowSpec::secs(1)],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }
}
