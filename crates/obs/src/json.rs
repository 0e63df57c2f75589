//! The workspace's one JSON codec: [`quote`] escapes every string an artifact
//! writes, [`join`] writes the comma-separated body of an array or object,
//! and [`parse`] reads any document back into a [`Value`] tree.
//!
//! Numbers are formatted at each call site: `{:?}` for floats that must
//! round-trip, fixed precision where an artifact already uses it. A parsed
//! number keeps its source text until [`Value::as_num`] reads it at the width
//! the caller asks for.
//!
//! Decoding is total: any input yields a value or an `Err`, never a panic.
//! Nesting deeper than [`MAX_DEPTH`] is an error, so a hostile line cannot
//! overflow the stack of the thread that parses it.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// The deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, a report with its metrics, nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// `s` as a JSON string literal, quotes included: `"`, `\` and control
/// characters are escaped (`\n`, `\r`, `\t`, else `\u00XX`), everything else
/// is copied.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `items` to `out` separated by commas, each through `write`: the
/// body of a JSON array or object, without its brackets.
pub fn join<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut write: impl FnMut(&mut String, I::Item) -> fmt::Result,
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item).expect("writing to a String cannot fail");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A string, unescaped.
    Str(String),
    /// A number's source text, checked to be a valid `f64` literal.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// An array.
    Array(Vec<Value>),
    /// An object; a repeated key is a parse error.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object's fields; `what` names the value in the error.
    pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Value>, String> {
        match self {
            Value::Object(m) => Ok(m),
            _ => Err(format!("{what}: expected object")),
        }
    }

    /// The array's items; `what` names the value in the error.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(v) => Ok(v),
            _ => Err(format!("{what}: expected array")),
        }
    }

    /// The string, cloned; `what` names the value in the error.
    pub fn as_string(&self, what: &str) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("{what}: expected string")),
        }
    }

    /// The boolean; `what` names the value in the error.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }

    /// The number read as `T` (any integer width or float), so a value out
    /// of `T`'s range is an error; `what` names the value in the error.
    pub fn as_num<T: FromStr>(&self, what: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        match self {
            Value::Num(s) => s.parse().map_err(|e| format!("{what}: {e}")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parse one JSON document. Whitespace may surround it; anything else after
/// it is an error, as is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != byte {
            return Err(format!(
                "expected `{}` at byte {}, got `{}`",
                byte as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let value = if open == b'{' { self.parse_object() } else { self.parse_array() };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                c => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, got `{}`",
                        self.pos, c as char
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, got `{}`",
                        self.pos, c as char
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let len = utf8_len(b)?;
                    let start = self.pos - 1;
                    let chunk =
                        self.bytes.get(start..start + len).ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed. A high
    /// surrogate followed by `\u` and a low surrogate is one character
    /// outside the Basic Multilingual Plane; any other surrogate is an error.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.parse_hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.parse_hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(format!("\\u{code:04x} is not followed by a low surrogate"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or_else(|| format!("invalid \\u{code:04x}"))
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        // `from_str_radix` alone would also take a leading `+`.
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
            .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a value at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // Validate it is a number now so type errors surface at parse time.
        text.parse::<f64>().map_err(|e| format!("bad number `{text}`: {e}"))?;
        Ok(Value::Num(text.to_string()))
    }
}

fn utf8_len(first: u8) -> Result<usize, String> {
    match first {
        0x00..=0x7f => Ok(1),
        0xc0..=0xdf => Ok(2),
        0xe0..=0xef => Ok(3),
        0xf0..=0xf7 => Ok(4),
        other => Err(format!("invalid UTF-8 lead byte {other:#x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(quote("plain é 😀"), "\"plain é 😀\"");
        assert_eq!(quote("a\"b\\c\nd\re\tf"), "\"a\\\"b\\\\c\\nd\\re\\tf\"");
        assert_eq!(quote("\0\u{1f}\u{7f}"), "\"\\u0000\\u001f\u{7f}\"");
        assert_eq!(quote(""), "\"\"");
        let text = "tab\there \"quoted\" \\ back\u{1}slash";
        assert_eq!(parse(&quote(text)), Ok(Value::Str(text.into())));
    }

    #[test]
    fn join_separates_items_with_commas() {
        let mut out = String::from("[");
        join(&mut out, [1, 2, 3], |out, n| write!(out, "{n}"));
        out.push(']');
        assert_eq!(out, "[1,2,3]");
        let mut empty = String::new();
        join(&mut empty, Vec::<u8>::new(), |out, n| write!(out, "{n}"));
        assert_eq!(empty, "");
    }

    #[test]
    fn parses_every_kind_of_value() {
        let value = parse(" {\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"d\"}} ")
            .expect("parses");
        let obj = value.as_object("doc").unwrap();
        let items = obj["a"].as_array("a").unwrap();
        assert_eq!(items[0].as_num::<u64>("n"), Ok(1));
        assert_eq!(items[1].as_num::<f64>("x"), Ok(-2500.0));
        assert!(items[1].as_num::<i64>("x").is_err(), "a float is not an integer");
        assert_eq!(items[2].as_bool("t"), Ok(true));
        assert!(items[4].is_null());
        assert_eq!(obj["b"].as_object("b").unwrap()["c"].as_string("c"), Ok("d".into()));
        assert_eq!(items[2].as_num::<u64>("t"), Err("t: expected number".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "nul",
            "1x",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "{1:2}",
            "[] []",
            "-",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(Value::Str("😀".into())));
        assert_eq!(parse("\"a\\uD834\\uDD1Eb\""), Ok(Value::Str("a𝄞b".into())));
        assert_eq!(parse("\"\\u00e9\\u4e2d\""), Ok(Value::Str("é中".into())));
        // A lone, reversed or unpaired surrogate stays an error.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\u",
            "\"\\ud83d\\",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // The stack of a thread `purple-serve` spawns per TCP connection.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
                    let err = parse(&deep).expect_err("deep nesting accepted");
                    assert!(err.contains("nesting deeper than 64"), "{err}");
                }
            })
            .expect("spawn");
        deep.join().expect("parsing deep nesting panicked");
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }
}
