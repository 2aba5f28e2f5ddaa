//! Tokenizer for the query language.

use std::fmt;

/// A lexical token with its byte offset in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

/// The token kinds of the query language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// A keyword (uppercased): SELECT, FROM, WHERE, AND, RANGE, ROWS,
    /// SECONDS, MINUTES, HOURS.
    Keyword(String),
    /// An identifier (stream or attribute name), case preserved.
    Ident(String),
    /// An unsigned integer literal.
    Number(u64),
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Ident(i) => write!(f, "identifier `{i}`"),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Equals => write!(f, "`=`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Eof => write!(f, "end of query"),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "RANGE", "ROWS", "SECONDS", "SECOND", "MINUTES", "MINUTE",
    "HOURS", "HOUR",
];

/// A character that was not expected by the tokenizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LexError {
    /// The unexpected character.
    pub ch: char,
    /// Its byte offset.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected character `{}` at offset {}", self.ch, self.pos)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, appending a trailing [`TokenKind::Eof`].
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let pos = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '*' => {
                tokens.push(Token { kind: TokenKind::Star, pos });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, pos });
                i += 1;
            }
            '.' => {
                tokens.push(Token { kind: TokenKind::Dot, pos });
                i += 1;
            }
            '=' => {
                tokens.push(Token { kind: TokenKind::Equals, pos });
                i += 1;
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LParen, pos });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RParen, pos });
                i += 1;
            }
            '[' => {
                tokens.push(Token { kind: TokenKind::LBracket, pos });
                i += 1;
            }
            ']' => {
                tokens.push(Token { kind: TokenKind::RBracket, pos });
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // Overflow on absurd literals is a lex error at this char.
                let text = &src[start..i];
                let n: u64 = text.parse().map_err(|_| LexError { ch: c, pos })?;
                tokens.push(Token { kind: TokenKind::Number(n), pos });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_string())
                };
                tokens.push(Token { kind, pos });
            }
            other => return Err(LexError { ch: other, pos }),
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: src.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_the_paper_query() {
        let ks = kinds("SELECT * FROM R1(A1) [RANGE 500 SECONDS] WHERE R1.A1 = R1.A1");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT".into()));
        assert_eq!(ks[1], TokenKind::Star);
        assert_eq!(ks[2], TokenKind::Keyword("FROM".into()));
        assert_eq!(ks[3], TokenKind::Ident("R1".into()));
        assert!(ks.contains(&TokenKind::Number(500)));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive_identifiers_are_not() {
        let ks = kinds("select From myStream");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT".into()));
        assert_eq!(ks[1], TokenKind::Keyword("FROM".into()));
        assert_eq!(ks[2], TokenKind::Ident("myStream".into()));
    }

    #[test]
    fn underscore_identifiers() {
        let ks = kinds("net_flows._dst2");
        assert_eq!(ks[0], TokenKind::Ident("net_flows".into()));
        assert_eq!(ks[1], TokenKind::Dot);
        assert_eq!(ks[2], TokenKind::Ident("_dst2".into()));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let ts = tokenize("ab  =").unwrap();
        assert_eq!(ts[0].pos, 0);
        assert_eq!(ts[1].pos, 4);
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = tokenize("SELECT #").unwrap_err();
        assert_eq!(err.ch, '#');
        assert_eq!(err.pos, 7);
    }

    #[test]
    fn whitespace_variants() {
        let ks = kinds("a\t\n b");
        assert_eq!(ks.len(), 3); // a, b, EOF
    }
}
