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
//! A reader that only needs those spans calls [`skim`] instead: it runs
//! the same parser over the line, so it accepts and rejects exactly what
//! [`parse`] does (same error byte, same reason), but builds nothing. It
//! returns the top-level object's key and value spans and the element
//! spans of its array members; [`unescape`] and [`unescape_into`] decode
//! a string literal found at one of them. `facile client` reads each
//! reply this way and writes the rows straight from their spans.
//!
//! Parsing takes time linear in the line length, whatever the line
//! holds: every byte is looked at a bounded number of times, and string
//! content is copied in runs between escapes rather than re-decoded per
//! character. The ratio tests below pin this (a 512 KiB line may take
//! at most 16× as long as a 64 KiB one), because the server reads
//! request lines of up to `max_line_bytes` from untrusted clients and
//! `facile client` skims reply lines of any size.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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
    Parser::<false>::new(src).document()
}

/// What [`skim`] returns: the spans of a validated line's top level,
/// read through [`Skim::get`] and [`Skim::elements`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Skim {
    /// The members of a top-level object in source order, duplicates
    /// kept; empty when the line holds any other value.
    members: Vec<Member>,
    /// The element spans of every array-valued member, one run per
    /// member (each member's range indexes it).
    elements: Vec<(usize, usize)>,
}

/// One member of a skimmed top-level object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Byte range of the key's string literal, quotes included.
    key: (usize, usize),
    /// Byte range of the value.
    value: (usize, usize),
    /// Where the value's element spans sit in the skim's list, if it
    /// is an array.
    elements: Option<Range<usize>>,
}

impl Member {
    /// The verbatim source text of the value.
    #[must_use]
    pub fn raw<'a>(&self, src: &'a str) -> &'a str {
        &src[self.value.0..self.value.1]
    }

    /// The value's string content, if it is a string (borrowed from
    /// `src` when it holds no escape).
    #[must_use]
    pub fn as_str<'a>(&self, src: &'a str) -> Option<Cow<'a, str>> {
        unescape(self.raw(src)).ok()
    }
}

impl Skim {
    /// The first member whose key, escapes resolved, is `key` (as
    /// [`Value::get`] finds it).
    #[must_use]
    pub fn get(&self, src: &str, key: &str) -> Option<&Member> {
        self.members.iter().find(|m| {
            let lit = &src[m.key.0..m.key.1];
            if lit.contains('\\') {
                unescape(lit).is_ok_and(|k| k == key)
            } else {
                lit[1..lit.len() - 1] == *key
            }
        })
    }

    /// The element spans of `member`'s value, if it is an array.
    #[must_use]
    pub fn elements(&self, member: &Member) -> Option<&[(usize, usize)]> {
        member.elements.clone().map(|r| &self.elements[r])
    }
}

/// Validate one complete JSON value exactly as [`parse`] does and return
/// its top-level spans, building no value below them.
///
/// # Errors
/// The [`ParseError`] that [`parse`] returns for the same line.
pub fn skim(src: &str) -> Result<Skim, ParseError> {
    let mut p = Parser::<true>::new(src);
    p.document()?;
    Ok(p.skim)
}

/// The content of the JSON string literal `lit` (quotes included),
/// borrowed from it when it holds no escape.
///
/// # Errors
/// A [`ParseError`] when `lit` is not exactly one well-formed string
/// literal.
pub fn unescape(lit: &str) -> Result<Cow<'_, str>, ParseError> {
    if lit.contains('\\') {
        let mut out = String::new();
        unescape_into(lit, &mut out)?;
        return Ok(Cow::Owned(out));
    }
    let mut p = Parser::<true>::new(lit);
    p.string_into(None)?;
    p.at_end()?;
    Ok(Cow::Borrowed(&lit[1..lit.len() - 1]))
}

/// Append the content of the JSON string literal `lit` (quotes
/// included) to `out`, so a caller decoding many strings can reuse one
/// buffer.
///
/// # Errors
/// A [`ParseError`] when `lit` is not exactly one well-formed string
/// literal; `out` is then left as it was.
pub fn unescape_into(lit: &str, out: &mut String) -> Result<(), ParseError> {
    let len = out.len();
    let mut p = Parser::<true>::new(lit);
    let read = p.string_into(Some(out)).and_then(|()| p.at_end());
    if read.is_err() {
        out.truncate(len);
    }
    read
}

/// The one JSON grammar. `SKIM` picks at compile time whether it builds
/// values ([`parse`]) or only validates and records the top level's
/// spans ([`skim`]), so `parse` pays no branch for the skim.
struct Parser<'a, const SKIM: bool> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// With `SKIM` ([`skim`]), the top level's spans, recorded in place
    /// of building any value; empty for [`parse`].
    skim: Skim,
    /// Whether the document is an object, so a skim records the
    /// elements of the arrays one level down (its member values).
    top_object: bool,
    /// Decode string content one character at a time, as the parser
    /// once did: the reference the run-copying decoder is tested against.
    #[cfg(test)]
    per_char: bool,
}

impl<'a, const SKIM: bool> Parser<'a, SKIM> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            skim: Skim::default(),
            top_object: false,
            #[cfg(test)]
            per_char: false,
        }
    }

    fn document(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        self.top_object = self.peek() == Some(b'{');
        let v = self.value(0)?;
        self.skip_ws();
        self.at_end()?;
        Ok(v)
    }

    fn at_end(&self) -> Result<(), ParseError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after value"))
        }
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
                        let item = self.value(depth + 1)?;
                        if !SKIM {
                            items.push(item);
                        } else if depth == 1 && self.top_object {
                            self.skim.elements.push(item.span);
                        }
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
                        let key_start = self.pos;
                        let key = self.string()?;
                        let key_span = (key_start, self.pos);
                        self.skip_ws();
                        self.expect(b':', "expected ':'")?;
                        self.skip_ws();
                        let first = self.skim.elements.len();
                        let value = self.value(depth + 1)?;
                        if !SKIM {
                            members.push((key, value));
                        } else if depth == 0 {
                            let elements = matches!(value.kind, Kind::Arr(_))
                                .then(|| first..self.skim.elements.len());
                            self.skim.members.push(Member {
                                key: key_span,
                                value: value.span,
                                elements,
                            });
                        }
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

    /// A string literal's content; empty (and unallocated) when
    /// skimming.
    fn string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        self.string_into((!SKIM).then_some(&mut out))?;
        Ok(out)
    }

    /// Read a string literal, appending its content to `out` if given;
    /// without one it is only validated.
    fn string_into(&mut self, mut out: Option<&mut String>) -> Result<(), ParseError> {
        self.expect(b'"', "expected '\"'")?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            self.unicode_escape()?
                        }
                        escape => {
                            let c = match escape {
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                Some(b'/') => '/',
                                Some(b'b') => '\u{8}',
                                Some(b'f') => '\u{c}',
                                Some(b'n') => '\n',
                                Some(b'r') => '\r',
                                Some(b't') => '\t',
                                _ => return Err(self.err("invalid escape")),
                            };
                            self.pos += 1;
                            c
                        }
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                #[cfg(test)]
                Some(_) if self.per_char => {
                    // Copy one UTF-8 character, re-validating the rest
                    // of the line each time (quadratic; reference only).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("input came from a &str");
                    let c = s.chars().next().expect("non-empty");
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
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
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(&self.src[self.pos..run]);
                    }
                    self.pos = run;
                }
            }
        }
    }

    /// The character a `\u` escape names, read from just after the
    /// `u`: a high surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))
        } else if (0xDC00..0xE000).contains(&cp) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))
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
        let mut p = Parser::<false>::new(src);
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

    /// Append one generated JSON value to `out`, steered by `choices`:
    /// literals, numbers (`1e999` among them), strings of every
    /// [`fragment`] kind, and arrays and objects down to `depth` 0.
    fn value_from(choices: &mut impl Iterator<Item = (u8, u32)>, depth: u8, out: &mut String) {
        const NUMBERS: [&str; 8] = ["0", "-1.5", "12e-3", "1E+2", "1e999", "-0", "3.25", "7"];
        let Some((k, n)) = choices.next() else {
            out.push_str("null");
            return;
        };
        let string = |out: &mut String, n: u32| {
            out.push('"');
            out.push_str(&fragment((n % 8) as u8, n / 8));
            out.push('"');
        };
        match k {
            0 => out.push_str(["null", "true", "false"][n as usize % 3]),
            1 => out.push_str(NUMBERS[n as usize % NUMBERS.len()]),
            2 | 3 => string(out, n),
            4 | 5 if depth > 0 => {
                out.push('[');
                for i in 0..n % 4 {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    value_from(choices, depth - 1, out);
                }
                out.push(']');
            }
            6 | 7 if depth > 0 => {
                out.push('{');
                for i in 0..n % 4 {
                    if i > 0 {
                        out.push(',');
                    }
                    // Keys repeat, and some are spelled with escapes.
                    match (n >> (2 + i)) % 4 {
                        0 => out.push_str("\"rows\""),
                        1 => out.push_str("\"\\u006fk\""),
                        _ => string(out, n.rotate_left(i)),
                    }
                    out.push_str(" : ");
                    value_from(choices, depth - 1, out);
                }
                out.push('}');
            }
            _ => out.push('1'),
        }
    }

    /// `skim` agrees with `parse` on `line`: the same error, or, for an
    /// object, the same members, each with its key, value span and (for
    /// arrays) element spans.
    fn assert_skim_matches_parse(line: &str) {
        match (parse(line), skim(line)) {
            (Err(p), Err(s)) => assert_eq!(p, s, "line {line:?}"),
            (Ok(v), Ok(s)) => {
                let members = match &v.kind {
                    Kind::Obj(members) => members.as_slice(),
                    _ => &[],
                };
                assert_eq!(members.len(), s.members.len(), "line {line:?}");
                for ((key, value), m) in members.iter().zip(&s.members) {
                    let lit = &line[m.key.0..m.key.1];
                    assert_eq!(unescape(lit).as_deref(), Ok(key.as_str()), "line {line:?}");
                    assert_eq!(line[m.key.1..m.value.0].trim(), ":", "line {line:?}");
                    assert_eq!(value.span, m.value, "line {line:?}");
                    let elements: Option<Vec<_>> =
                        value.as_arr().map(|a| a.iter().map(|e| e.span).collect());
                    assert_eq!(elements.as_deref(), s.elements(m), "line {line:?}");
                    assert_eq!(m.as_str(line).as_deref(), value.as_str(), "line {line:?}");
                    let first = s.get(line, key).expect("every key is found");
                    assert_eq!(Some(&first.value), v.get(key).map(|f| &f.span));
                }
            }
            (p, s) => panic!("line {line:?}: parse gave {p:?}, skim gave {s:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `skim` and `parse` agree on generated documents, reply-shaped
        /// lines and values nested 63 to 66 deep, before and after byte
        /// mutations: truncation, an inserted or replaced byte from the
        /// grammar's own, and a deleted byte.
        #[test]
        fn skim_agrees_with_parse(
            choices in proptest::collection::vec((0u8..9, 0u32..1_000_000), 0..40),
            layout in 0u8..3,
            mutations in proptest::collection::vec((0u8..4, 0usize..2_000, 0usize..16), 0..3),
        ) {
            const BYTES: &[u8; 16] = b"\"\\{}[],:0e-u \x01ab";
            let mut choices = choices.into_iter();
            let mut line = String::new();
            match layout {
                0 => value_from(&mut choices, 4, &mut line),
                1 => {
                    line.push_str("{\"ok\":true,\"id\":\"q7\",\"rows\":[");
                    for i in 0..3 {
                        if i > 0 {
                            line.push(',');
                        }
                        value_from(&mut choices, 3, &mut line);
                    }
                    line.push_str("],\"code\":\"overloaded\"}");
                }
                _ => {
                    let depth = 63 + choices.len() % 4;
                    line.push_str(&"[".repeat(depth));
                    value_from(&mut choices, 1, &mut line);
                    line.push_str(&"]".repeat(depth));
                }
            }
            assert_skim_matches_parse(&line);
            let mut bytes = line.into_bytes();
            for (op, at, b) in mutations {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.truncate(at),
                    1 => bytes.insert(at, BYTES[b]),
                    2 if at < bytes.len() => bytes[at] = BYTES[b],
                    _ if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.push(BYTES[b]),
                }
            }
            // A mutation may split a multi-byte character; such a line
            // never reaches a reader, which takes `&str`.
            if let Ok(line) = String::from_utf8(bytes) {
                assert_skim_matches_parse(&line);
            }
        }
    }

    #[test]
    fn skim_reads_a_reply_without_building_it() {
        let src = r#" {"ok":true, "id":"q\u0031", "rows":[{"a":[1]}, "x\"y"], "rows":5} "#;
        let s = skim(src).unwrap();
        assert_eq!(s.get(src, "ok").map(|m| m.raw(src)), Some("true"));
        assert_eq!(
            s.get(src, "id").and_then(|m| m.as_str(src)).as_deref(),
            Some("q1")
        );
        let rows = s.get(src, "rows").expect("the first rows member");
        let rows: Vec<&str> = s
            .elements(rows)
            .unwrap()
            .iter()
            .map(|&(a, b)| &src[a..b])
            .collect();
        assert_eq!(rows, [r#"{"a":[1]}"#, r#""x\"y""#]);
        let mut buf = String::from(">");
        unescape_into(rows[1], &mut buf).unwrap();
        assert_eq!(buf, ">x\"y");
        assert!(unescape_into(rows[0], &mut buf).is_err());
        assert_eq!(buf, ">x\"y", "a failed decode leaves the buffer as it was");
        assert!(matches!(unescape("\"plain\""), Ok(Cow::Borrowed("plain"))));
        assert!(unescape("\"a\" ").is_err());
        assert_eq!(skim("[[1]]").unwrap().members, []);
        assert_eq!(skim("1e999"), Err(parse("1e999").unwrap_err()));
    }

    /// A linear reader takes 8× as long on a line 8× longer; the bound
    /// leaves 2× for noise, where a quadratic one would take 64×. The
    /// small line is timed eight times over.
    fn assert_linear(small: &str, large: &str, reads: fn(&str) -> bool) {
        let reads = |line: &str| assert!(reads(line), "line reads");
        assert_ratio(
            Clock::Thread,
            &format!("{} B vs {} B", large.len(), small.len()),
            16.0,
            (8, |_| reads(small)),
            (1, |_| reads(large)),
        );
    }

    fn parses(line: &str) -> bool {
        parse(line).is_ok()
    }

    fn skims(line: &str) -> bool {
        skim(line).is_ok()
    }

    #[test]
    fn one_string_line_parses_in_linear_time() {
        let line = |bytes: usize| format!("\"{}\"", "abcdé€".repeat(bytes / 9));
        assert_linear(&line(64 << 10), &line(512 << 10), parses);
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
        assert_linear(&small, &large, parses);
    }

    /// The reply-line ratio check, on the reader `facile client` uses.
    #[test]
    fn reply_line_of_rows_skims_in_linear_time() {
        let reply = |rows: usize| {
            let row = format!(
                "{{\"block\":\"4801c8480fafd0\",\"status\":\"ok\",\"cycles\":1.25,\
                 \"bounds\":{{\"ports\":1.0,\"dec\":0.75}},\"explanation\":\"{}\"}}",
                "port 1 \\\"imul\\\" \\u00b5op\\n".repeat(15)
            );
            let rows = vec![row.as_str(); rows];
            format!(
                "{{\"ok\":true,\"id\":\"q1\",\"rows\":[{}]}}",
                rows.join(",")
            )
        };
        let (small, large) = (reply(128), reply(1024));
        assert!(
            (60 << 10..70 << 10).contains(&small.len()),
            "{}",
            small.len()
        );
        let s = skim(&large).expect("reply skims");
        let rows = s.get(&large, "rows").expect("rows member");
        assert_eq!(s.elements(rows).map(<[_]>::len), Some(1024));
        assert_linear(&small, &large, skims);
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
