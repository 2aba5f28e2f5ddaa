//! The parsed query representation, prior to semantic validation.

use mstream_types::VDur;

/// A window clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WindowAst {
    /// `[RANGE n SECONDS|MINUTES|HOURS]`
    Range(VDur),
    /// `[ROWS n]`
    Rows(u64),
}

/// One `FROM` item: a stream with an inline schema and optional window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RelationAst {
    /// Stream name.
    pub name: String,
    /// Attribute names in schema order.
    pub attrs: Vec<String>,
    /// The window clause, if given (otherwise inherited from the previous
    /// relation in the list).
    pub window: Option<WindowAst>,
    /// Byte offset of the relation name (for error reporting).
    pub pos: usize,
}

/// A fully parsed `SELECT * FROM ... WHERE ...` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct QueryAst {
    /// The `FROM` list, in order.
    pub relations: Vec<RelationAst>,
    /// The conjunctive equi-join predicates as dotted-name pairs, each with
    /// the byte offset of its left-hand side.
    pub predicates: Vec<(String, String, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_types_are_plain_data() {
        let rel = RelationAst {
            name: "R1".into(),
            attrs: vec!["A1".into()],
            window: Some(WindowAst::Rows(10)),
            pos: 14,
        };
        let q = QueryAst {
            relations: vec![rel.clone()],
            predicates: vec![("R1.A1".into(), "R1.A1".into(), 40)],
        };
        assert_eq!(q.relations[0], rel);
        assert_eq!(WindowAst::Rows(10), rel.window.unwrap());
    }
}
