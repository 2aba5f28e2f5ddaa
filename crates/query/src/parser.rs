//! Recursive-descent parser and semantic translation to [`JoinQuery`].

use crate::ast::{QueryAst, RelationAst, WindowAst};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use mstream_types::{Catalog, JoinQuery, StreamSchema, VDur, WindowSpec};
use std::fmt;

/// A parse or validation failure, with the byte offset it points at.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the query text.
    pub pos: usize,
}

impl ParseError {
    fn new(message: impl Into<String>, pos: usize) -> Self {
        ParseError {
            message: message.into(),
            pos,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at offset {})", self.message, self.pos)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(format!("unexpected character `{}`", e.ch), e.pos)
    }
}

/// Parses a query string all the way to a validated [`JoinQuery`].
pub fn parse_query(src: &str) -> Result<JoinQuery, ParseError> {
    let ast = parse_ast(src)?;
    to_join_query(&ast)
}

/// Parses a query string to its [`QueryAst`] (no semantic validation).
pub(crate) fn parse_ast(src: &str) -> Result<QueryAst, ParseError> {
    let tokens = tokenize(src)?;
    Parser { tokens, at: 0 }.query()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        let t = self.bump();
        if &t.kind == kind {
            Ok(t)
        } else {
            Err(ParseError::new(
                format!("expected {kind}, found {}", t.kind),
                t.pos,
            ))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token, ParseError> {
        self.expect(&TokenKind::Keyword(kw.to_string()))
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, usize), ParseError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(name) => Ok((name, t.pos)),
            other => Err(ParseError::new(
                format!("expected {what}, found {other}"),
                t.pos,
            )),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().kind == TokenKind::Keyword(kw.to_string()) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// query := SELECT '*' FROM relation (',' relation)* WHERE pred (AND pred)*
    fn query(&mut self) -> Result<QueryAst, ParseError> {
        self.expect_keyword("SELECT")?;
        self.expect(&TokenKind::Star)?;
        self.expect_keyword("FROM")?;
        let mut relations = vec![self.relation()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            relations.push(self.relation()?);
        }
        self.expect_keyword("WHERE")?;
        let mut predicates = vec![self.predicate()?];
        while self.eat_keyword("AND") {
            predicates.push(self.predicate()?);
        }
        let t = self.peek();
        if t.kind != TokenKind::Eof {
            return Err(ParseError::new(
                format!("expected AND or end of query, found {}", t.kind),
                t.pos,
            ));
        }
        Ok(QueryAst {
            relations,
            predicates,
        })
    }

    /// relation := IDENT '(' IDENT (',' IDENT)* ')' window?
    fn relation(&mut self) -> Result<RelationAst, ParseError> {
        let (name, pos) = self.expect_ident("a stream name")?;
        self.expect(&TokenKind::LParen)?;
        let mut attrs = vec![self.expect_ident("an attribute name")?.0];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            attrs.push(self.expect_ident("an attribute name")?.0);
        }
        self.expect(&TokenKind::RParen)?;
        let window = if self.peek().kind == TokenKind::LBracket {
            Some(self.window()?)
        } else {
            None
        };
        Ok(RelationAst {
            name,
            attrs,
            window,
            pos,
        })
    }

    /// window := '[' RANGE NUMBER unit ']' | '[' ROWS NUMBER ']'
    fn window(&mut self) -> Result<WindowAst, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let t = self.bump();
        let ast = match &t.kind {
            TokenKind::Keyword(k) if k == "RANGE" => {
                let n = self.number()?;
                let unit = self.bump();
                let secs = match &unit.kind {
                    TokenKind::Keyword(u) if u == "SECONDS" || u == "SECOND" => n,
                    TokenKind::Keyword(u) if u == "MINUTES" || u == "MINUTE" => n * 60,
                    TokenKind::Keyword(u) if u == "HOURS" || u == "HOUR" => n * 3600,
                    other => {
                        return Err(ParseError::new(
                            format!("expected SECONDS, MINUTES or HOURS, found {other}"),
                            unit.pos,
                        ))
                    }
                };
                if secs == 0 {
                    return Err(ParseError::new("window length must be positive", t.pos));
                }
                WindowAst::Range(VDur::from_secs(secs))
            }
            TokenKind::Keyword(k) if k == "ROWS" => {
                let n = self.number()?;
                if n == 0 {
                    return Err(ParseError::new("ROWS window must be positive", t.pos));
                }
                WindowAst::Rows(n)
            }
            other => {
                return Err(ParseError::new(
                    format!("expected RANGE or ROWS, found {other}"),
                    t.pos,
                ))
            }
        };
        self.expect(&TokenKind::RBracket)?;
        Ok(ast)
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Number(n) => Ok(n),
            other => Err(ParseError::new(
                format!("expected a number, found {other}"),
                t.pos,
            )),
        }
    }

    /// pred := IDENT '.' IDENT '=' IDENT '.' IDENT
    fn predicate(&mut self) -> Result<(String, String, usize), ParseError> {
        let (ls, pos) = self.expect_ident("a stream name")?;
        self.expect(&TokenKind::Dot)?;
        let (la, _) = self.expect_ident("an attribute name")?;
        self.expect(&TokenKind::Equals)?;
        let (rs, _) = self.expect_ident("a stream name")?;
        self.expect(&TokenKind::Dot)?;
        let (ra, _) = self.expect_ident("an attribute name")?;
        Ok((format!("{ls}.{la}"), format!("{rs}.{ra}"), pos))
    }
}

/// Translates a parsed AST to a validated [`JoinQuery`].
pub(crate) fn to_join_query(ast: &QueryAst) -> Result<JoinQuery, ParseError> {
    let mut catalog = Catalog::new();
    let mut windows = Vec::with_capacity(ast.relations.len());
    let mut last_window: Option<WindowAst> = None;
    for rel in &ast.relations {
        if catalog.iter().any(|(_, s)| s.name == rel.name) {
            return Err(ParseError::new(
                format!("stream `{}` listed twice in FROM", rel.name),
                rel.pos,
            ));
        }
        let attrs: Vec<&str> = rel.attrs.iter().map(String::as_str).collect();
        catalog.add_stream(StreamSchema::new(rel.name.clone(), &attrs));
        let window = rel.window.or(last_window).ok_or_else(|| {
            ParseError::new(
                format!(
                    "stream `{}` has no window clause and none to inherit; \
                     write e.g. `[RANGE 500 SECONDS]` or `[ROWS 100]`",
                    rel.name
                ),
                rel.pos,
            )
        })?;
        last_window = Some(window);
        windows.push(match window {
            WindowAst::Range(d) => WindowSpec::Time(d),
            WindowAst::Rows(n) => WindowSpec::Tuples(n),
        });
    }
    let mut predicates = Vec::with_capacity(ast.predicates.len());
    for (left, right, pos) in &ast.predicates {
        let l = catalog
            .resolve(left)
            .map_err(|e| ParseError::new(e.to_string(), *pos))?;
        let r = catalog
            .resolve(right)
            .map_err(|e| ParseError::new(e.to_string(), *pos))?;
        predicates.push(mstream_types::EquiPredicate::new(l, r));
    }
    JoinQuery::new(catalog, predicates, windows)
        .map_err(|e| ParseError::new(e.to_string(), 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::StreamId;

    const PAPER_QUERY: &str = "SELECT * FROM R1(A1, A2) [RANGE 500 SECONDS], \
                               R2(A1, A2), R3(A1, A2) \
                               WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";

    #[test]
    fn parses_the_paper_query() {
        let q = parse_query(PAPER_QUERY).unwrap();
        assert_eq!(q.n_streams(), 3);
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.window(StreamId(0)), WindowSpec::secs(500));
        // Windows inherit from the previous relation.
        assert_eq!(q.window(StreamId(2)), WindowSpec::secs(500));
        assert_eq!(q.catalog().schema(StreamId(1)).unwrap().name, "R2");
    }

    #[test]
    fn parses_rows_and_time_units() {
        let q = parse_query(
            "SELECT * FROM L(k) [ROWS 64], R(k) [RANGE 2 MINUTES] WHERE L.k = R.k",
        )
        .unwrap();
        assert_eq!(q.window(StreamId(0)), WindowSpec::Tuples(64));
        assert_eq!(q.window(StreamId(1)), WindowSpec::secs(120));
        let q = parse_query("SELECT * FROM L(k) [RANGE 1 HOUR], R(k) WHERE L.k = R.k").unwrap();
        assert_eq!(q.window(StreamId(0)), WindowSpec::secs(3600));
    }

    #[test]
    fn keywords_any_case() {
        let q = parse_query(
            "select * from L(k) [range 10 seconds], R(k) where L.k = R.k",
        )
        .unwrap();
        assert_eq!(q.n_streams(), 2);
    }

    #[test]
    fn missing_first_window_is_an_error() {
        let err = parse_query("SELECT * FROM L(k), R(k) WHERE L.k = R.k").unwrap_err();
        assert!(err.message.contains("no window clause"), "{err}");
    }

    #[test]
    fn unknown_attribute_reports_name_and_offset() {
        let src = "SELECT * FROM L(k) [ROWS 5], R(k) WHERE L.zz = R.k";
        let err = parse_query(src).unwrap_err();
        assert!(err.message.contains("L.zz"), "{err}");
        assert_eq!(&src[err.pos..err.pos + 1], "L");
    }

    #[test]
    fn duplicate_stream_rejected() {
        let err =
            parse_query("SELECT * FROM L(k) [ROWS 5], L(k) WHERE L.k = L.k").unwrap_err();
        assert!(err.message.contains("listed twice"), "{err}");
    }

    #[test]
    fn disconnected_join_rejected() {
        let err = parse_query(
            "SELECT * FROM A(x) [ROWS 5], B(x), C(x) WHERE A.x = B.x AND A.x = B.x",
        )
        .unwrap_err();
        assert!(err.message.contains("cross product"), "{err}");
    }

    #[test]
    fn syntax_errors_point_at_the_token() {
        let src = "SELECT * FROM L(k) [ROWS 5], R(k) WHERE L.k == R.k";
        let err = parse_query(src).unwrap_err();
        assert!(err.message.contains("expected"), "{err}");
        assert_eq!(&src[err.pos..err.pos + 1], "=");
        let err = parse_query("SELECT * FROM L(k) [ROWS zero] WHERE L.k = L.k").unwrap_err();
        assert!(err.message.contains("expected a number"), "{err}");
    }

    #[test]
    fn zero_windows_rejected() {
        assert!(parse_query("SELECT * FROM L(k) [ROWS 0], R(k) WHERE L.k = R.k").is_err());
        assert!(
            parse_query("SELECT * FROM L(k) [RANGE 0 SECONDS], R(k) WHERE L.k = R.k").is_err()
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_query(
            "SELECT * FROM L(k) [ROWS 5], R(k) WHERE L.k = R.k GROUP",
        )
        .unwrap_err();
        assert!(err.message.contains("expected AND or end"), "{err}");
    }

    #[test]
    fn ast_is_inspectable() {
        let ast = parse_ast(PAPER_QUERY).unwrap();
        assert_eq!(ast.relations.len(), 3);
        assert_eq!(ast.relations[0].attrs, vec!["A1", "A2"]);
        assert!(ast.relations[1].window.is_none());
        assert_eq!(ast.predicates[0].0, "R1.A1");
    }
}
