//! A minimal, dependency-free JSON parser: the workspace's one JSON
//! reader.
//!
//! It reads untrusted JSON in three places: the server's client request
//! lines, `facile client`'s reply lines, and the replies of external
//! predictor subprocesses (`facile-engine`'s `ext:` adapters). The
//! bench gate reads committed bench files through it too. So this
//! module implements the subset of a JSON parser those callers need:
//! full value parsing with source spans, a recursion depth cap, and
//! typed errors instead of panics on any input.
//!
//! Every parsed [`Value`] remembers its byte span in the input line, so
//! protocol code can echo a request `id` or forward a nested object
//! (e.g. a prediction row) *verbatim* — byte-identical to how it
//! appeared on the wire — without re-serializing it.
//!
//! Parsing takes time linear in the line length, whatever the line
//! holds: every byte is looked at a bounded number of times, and string
//! content is copied in runs between escapes rather than re-decoded per
//! character. The ratio tests below pin this (a 512 KiB line may take
//! at most 16× as long as a 64 KiB one), because the server reads
//! request lines of up to `max_line_bytes` from untrusted clients and
//! `facile client` parses reply lines of any size.

use std::fmt;

/// Maximum nesting depth accepted (arrays/objects). Protocol messages
/// are nearly flat; the cap exists so a hostile `[[[[…` line errors out
/// instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value with its byte span in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The parsed content.
    pub kind: Kind,
    /// Byte range of this value in the source line (for verbatim echo).
    pub span: (usize, usize),
}

/// The content of a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON numbers are parsed as `f64`).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs (duplicate keys are kept;
    /// lookup returns the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` on other kinds or a missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match &self.kind {
            Kind::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match &self.kind {
            Kind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match &self.kind {
            Kind::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match &self.kind {
            Kind::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match &self.kind {
            Kind::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The verbatim source text of this value.
    #[must_use]
    pub fn raw<'a>(&self, src: &'a str) -> &'a str {
        &src[self.span.0..self.span.1]
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
/// A [`ParseError`] locating the first malformed byte.
pub fn parse(src: &str) -> Result<Value, ParseError> {
    Parser::new(src).document()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Decode string content one character at a time, as the parser
    /// once did: the reference the run-copying decoder is tested against.
    #[cfg(test)]
    per_char: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            #[cfg(test)]
            per_char: false,
        }
    }

    fn document(mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(v)
    }

    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn lit(&mut self, word: &str, kind: Kind) -> Result<Kind, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(kind)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let start = self.pos;
        let kind = match self.peek() {
            Some(b'n') => self.lit("null", Kind::Null)?,
            Some(b't') => self.lit("true", Kind::Bool(true))?,
            Some(b'f') => self.lit("false", Kind::Bool(false))?,
            Some(b'"') => Kind::Str(self.string()?),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        items.push(self.value(depth + 1)?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                }
                Kind::Arr(items)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.expect(b':', "expected ':'")?;
                        self.skip_ws();
                        members.push((key, self.value(depth + 1)?));
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.err("expected ',' or '}'")),
                        }
                    }
                }
                Kind::Obj(members)
            }
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        };
        Ok(Value {
            kind,
            span: (start, self.pos),
        })
    }

    fn number(&mut self) -> Result<Kind, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(ParseError {
                at: int_start,
                reason: "leading zero in number",
            });
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits, sign, dot, and exponent are ASCII");
        let n: f64 = text.parse().map_err(|_| ParseError {
            at: start,
            reason: "number out of range",
        })?;
        if !n.is_finite() {
            return Err(ParseError {
                at: start,
                reason: "number out of range",
            });
        }
        Ok(Kind::Num(n))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            // hex4 leaves pos after the last digit; the
                            // shared increment below is skipped.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                #[cfg(test)]
                Some(_) if self.per_char => {
                    // Copy one UTF-8 character, re-validating the rest
                    // of the line each time (quadratic; reference only).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("input came from a &str");
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte. All three are
                    // ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `u32::from_str_radix` would also take
        // a leading `+`.
        let mut cp = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            cp = cp * 16 + digit;
        }
        self.pos = end;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{assert_ratio, Clock};
    use proptest::prelude::*;

    /// The reference: the same parser with per-character string copying.
    fn parse_per_char(src: &str) -> Result<Value, ParseError> {
        let mut p = Parser::new(src);
        p.per_char = true;
        p.document()
    }

    /// One piece of string content: plain ASCII, multi-byte UTF-8, every
    /// escape (including well-formed, lone and mismatched surrogates,
    /// invalid and truncated ones), or a raw control byte.
    fn fragment(kind: u8, n: u32) -> String {
        const WIDE: [char; 6] = ['é', 'ß', '€', '中', '😀', '\u{10FFFF}'];
        const ESCAPES: [&str; 8] = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
        match kind {
            0 => "abcdefghij"
                .chars()
                .cycle()
                .take(n as usize % 40 + 1)
                .collect(),
            1 => WIDE[n as usize % WIDE.len()]
                .to_string()
                .repeat(n as usize % 3 + 1),
            2 => ESCAPES[n as usize % ESCAPES.len()].to_string(),
            3 => format!("\\u{:04x}", n * 67 % 0x1_0000),
            4 => "\\ud83d\\ude00".to_string(),
            5 => [
                "\\ud800",
                "\\udc00",
                "\\ud800x",
                "\\ud800\\u0041",
                "\\uDBFF\\uDFFF",
            ][n as usize % 5]
                .to_string(),
            6 => ["\\q", "\\u12", "\\u+041", "\\uzzzz", "\\"][n as usize % 5].to_string(),
            _ => char::from_u32(n % 0x20).expect("ASCII").to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run-copying decoder returns exactly what the per-character
        /// reference returns — the same value with the same spans, or
        /// the same error at the same byte — on strings built from every
        /// kind of content, in a value and in an object key, terminated
        /// or cut off at any character.
        #[test]
        fn string_runs_match_the_per_char_reference(
            pieces in proptest::collection::vec((0u8..8, 0u32..1_000_000), 0..24),
            layout in 0u8..3,
            cut in proptest::option::of(0usize..400),
        ) {
            let content: String = pieces.iter().map(|&(k, n)| fragment(k, n)).collect();
            let line = match layout {
                0 => format!("\"{content}\""),
                1 => format!("{{\"{content}\": [\"{content}\", 1]}}"),
                _ => format!("[\"x\", \"{content}\"]"),
            };
            // Cutting at a char boundary gives unterminated strings and
            // truncated escapes.
            let end = cut.map_or(line.len(), |c| {
                (0..=c.min(line.len())).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(0)
            });
            let line = &line[..end];
            prop_assert_eq!(parse(line), parse_per_char(line), "line {:?}", line);
        }
    }

    /// A linear parser takes 8× as long on a line 8× longer; the bound
    /// leaves 2× for noise, where a quadratic one would take 64×. The
    /// small line is timed eight times over.
    fn assert_linear(small: &str, large: &str) {
        let parses = |line: &str| assert!(parse(line).is_ok(), "line parses");
        assert_ratio(
            Clock::Thread,
            &format!("{} B vs {} B", large.len(), small.len()),
            16.0,
            (8, |_| parses(small)),
            (1, |_| parses(large)),
        );
    }

    #[test]
    fn one_string_line_parses_in_linear_time() {
        let line = |bytes: usize| format!("\"{}\"", "abcdé€".repeat(bytes / 9));
        assert_linear(&line(64 << 10), &line(512 << 10));
    }

    #[test]
    fn reply_line_of_rows_parses_in_linear_time() {
        // Rows of about 512 bytes, shaped like `--detail full` reply
        // rows: 128 rows make a 64 KiB line, 1024 rows a 512 KiB one.
        let reply = |rows: usize| {
            let row = format!(
                "{{\"block\":\"4801c8480fafd0\",\"uarch\":\"SKL\",\"predictor\":\"facile\",\
                 \"status\":\"ok\",\"cycles\":1.25,\"bounds\":{{\"ports\":1.0,\"dec\":0.75}},\
                 \"explanation\":\"{}\"}}",
                "port 1 \\\"imul\\\" \\u00b5op\\n".repeat(14)
            );
            let rows = vec![row.as_str(); rows];
            format!("{{\"ok\":true,\"rows\":[{}]}}", rows.join(","))
        };
        let (small, large) = (reply(128), reply(1024));
        assert!(
            (60 << 10..70 << 10).contains(&small.len()),
            "{}",
            small.len()
        );
        assert_linear(&small, &large);
    }

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"op":"predict","n":1.5,"ok":true,"x":null,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("predict"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("x").unwrap().kind, Kind::Null);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn spans_echo_verbatim() {
        let src = r#"{"id": {"k": [1, "two"]}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("id").unwrap().raw(src), r#"{"k": [1, "two"]}"#);
        assert_eq!(v.raw(src), src);
    }

    #[test]
    fn escapes_resolve() {
        let v = parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A😀"));
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01x",
            "\"\\q\"",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "\"\\ud800\"",
            "1e999",
            "\"\\u+041\"",
            "01",
            "-01",
            "00",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
