//! SQL tokenizer for the Spider subset.
//!
//! Case-insensitive keywords, single-quoted strings (with `''` escaping, and we also
//! accept double-quoted strings because LLM output frequently uses them for values),
//! integer/float literals, identifiers (optionally backtick-quoted), punctuation and
//! comparison operators.

use crate::error::ParseError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword, upper-cased (`SELECT`, `FROM`, ...).
    Keyword(&'static str),
    /// Identifier (table/column/alias/function name), original case preserved.
    Ident(String),
    /// String literal, unquoted content.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Punctuation or operator symbol (`(`, `)`, `,`, `.`, `*`, `=`, `<=`, ...).
    Sym(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// All recognized keywords. Anything else alphabetic lexes as an identifier.
pub const KEYWORDS: &[&str] = &[
    "SELECT",
    "DISTINCT",
    "FROM",
    "JOIN",
    "ON",
    "AS",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "LIMIT",
    "AND",
    "OR",
    "NOT",
    "IN",
    "LIKE",
    "BETWEEN",
    "INTERSECT",
    "UNION",
    "EXCEPT",
    "ASC",
    "DESC",
    "COUNT",
    "MAX",
    "MIN",
    "SUM",
    "AVG",
    "NULL",
    "IS",
    "INNER",
    "LEFT",
    "OUTER",
    "ALL",
    // DML (write path)
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CONFLICT",
    "DO",
    "NOTHING",
];

fn keyword_of(word: &str) -> Option<&'static str> {
    let upper = word.to_ascii_uppercase();
    KEYWORDS.iter().find(|k| **k == upper).copied()
}

/// Tokenize `input` into a vector of tokens.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            // Non-ASCII is only legal inside string literals (handled below, where the
            // content is copied char-wise); anywhere else it is a lex error.
            c if !c.is_ascii() => {
                return Err(ParseError::new(format!(
                    "unexpected non-ASCII byte 0x{:02x} outside string literal",
                    bytes[i]
                )))
            }
            c if c.is_whitespace() => i += 1,
            ';' => i += 1,
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(ParseError::new(format!(
                            "unterminated string literal starting at byte {i}"
                        )));
                    }
                    let cj = bytes[j] as char;
                    if cj == quote {
                        // Doubled quote is an escaped quote.
                        if j + 1 < bytes.len() && bytes[j + 1] as char == quote {
                            s.push(quote);
                            j += 2;
                            continue;
                        }
                        break;
                    }
                    // Strings may contain multi-byte UTF-8; copy char-wise.
                    let ch = input[j..].chars().next().unwrap();
                    s.push(ch);
                    j += ch.len_utf8();
                }
                toks.push(Token::Str(s));
                i = j + 1;
            }
            '`' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] as char != '`' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError::new("unterminated quoted identifier"));
                }
                toks.push(Token::Ident(input[i + 1..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() {
                    let cj = bytes[j] as char;
                    if cj.is_ascii_digit() {
                        j += 1;
                    } else if cj == '.'
                        && !is_float
                        && j + 1 < bytes.len()
                        && (bytes[j + 1] as char).is_ascii_digit()
                    {
                        is_float = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..j];
                if is_float {
                    toks.push(Token::Float(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid float literal `{text}`"))
                    })?));
                } else {
                    toks.push(Token::Int(text.parse().map_err(|_| {
                        ParseError::new(format!("invalid integer literal `{text}`"))
                    })?));
                }
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    // ASCII only: a byte of a multi-byte character read as a
                    // `char` may be alphanumeric, and the word would end
                    // inside that character.
                    let cj = bytes[j] as char;
                    if cj.is_ascii_alphanumeric() || cj == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[i..j];
                match keyword_of(word) {
                    Some(k) => toks.push(Token::Keyword(k)),
                    None => toks.push(Token::Ident(word.to_string())),
                }
                i = j;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    toks.push(Token::Sym("<="));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] as char == '>' {
                    toks.push(Token::Sym("!="));
                    i += 2;
                } else {
                    toks.push(Token::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    toks.push(Token::Sym(">="));
                    i += 2;
                } else {
                    toks.push(Token::Sym(">"));
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    toks.push(Token::Sym("!="));
                    i += 2;
                } else {
                    return Err(ParseError::new("unexpected `!`"));
                }
            }
            '=' => {
                toks.push(Token::Sym("="));
                i += 1;
            }
            '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '%' => {
                let s: &'static str = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    _ => "%",
                };
                toks.push(Token::Sym(s));
                i += 1;
            }
            other => {
                return Err(ParseError::new(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_keywords_case_insensitively() {
        let toks = tokenize("select Country FROM tv_channel").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Ident("Country".into()),
                Token::Keyword("FROM"),
                Token::Ident("tv_channel".into()),
            ]
        );
    }

    #[test]
    fn lexes_operators_and_numbers() {
        let toks = tokenize("a <= 20 AND b <> 1.5 OR c != 'x'").unwrap();
        assert!(toks.contains(&Token::Sym("<=")));
        // `<>` normalizes to `!=`.
        assert_eq!(toks.iter().filter(|t| **t == Token::Sym("!=")).count(), 2);
        assert!(toks.contains(&Token::Int(20)));
        assert!(toks.contains(&Token::Float(1.5)));
        assert!(toks.contains(&Token::Str("x".into())));
    }

    #[test]
    fn lexes_quoted_strings_with_escapes() {
        let toks = tokenize("WHERE name = 'O''Brien'").unwrap();
        assert!(toks.contains(&Token::Str("O'Brien".into())));
        let toks = tokenize("WHERE name = \"Sky Radio\"").unwrap();
        assert!(toks.contains(&Token::Str("Sky Radio".into())));
    }

    #[test]
    fn lexes_backtick_identifiers() {
        let toks = tokenize("SELECT `order` FROM t").unwrap();
        assert_eq!(toks[1], Token::Ident("order".into()));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("SELECT 'oops").is_err());
        assert!(tokenize("SELECT `oops").is_err());
        assert!(tokenize("SELECT a ! b").is_err());
        assert!(tokenize("SELECT €").is_err());
        // A non-ASCII character inside a word ends it and is an error.
        for sql in ["SELECT naïve FROM t", "SELECT aé FROM t", "SELECT aµ FROM t"] {
            assert!(tokenize(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn dotted_and_starred() {
        let toks = tokenize("SELECT T1.* , COUNT(*) FROM t AS T1;").unwrap();
        assert!(toks.contains(&Token::Sym(".")));
        assert!(toks.contains(&Token::Sym("*")));
        assert!(toks.contains(&Token::Keyword("COUNT")));
        // trailing semicolon dropped
        assert!(!toks.iter().any(|t| matches!(t, Token::Sym(s) if *s == ";")));
    }

    #[test]
    fn lexes_dml_keywords() {
        let toks = tokenize("insert into t values (1) on conflict do nothing").unwrap();
        for k in ["INSERT", "INTO", "VALUES", "ON", "CONFLICT", "DO", "NOTHING"] {
            assert!(toks.contains(&Token::Keyword(k)), "missing keyword {k}");
        }
        let toks = tokenize("Update t Set a = 1 WHERE b = 2").unwrap();
        assert!(toks.contains(&Token::Keyword("UPDATE")));
        assert!(toks.contains(&Token::Keyword("SET")));
        let toks = tokenize("DELETE FROM t").unwrap();
        assert!(toks.contains(&Token::Keyword("DELETE")));
    }

    #[test]
    fn unicode_in_strings_is_preserved() {
        let toks = tokenize("WHERE name = 'Ş€π'").unwrap();
        assert!(toks.contains(&Token::Str("Ş€π".into())));
    }
}
