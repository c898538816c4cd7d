//! A hand-rolled JSON value, parser and writer.
//!
//! The vendored `serde` is an offline stub without `serde_json`, so the
//! service speaks JSON through this module — the same discipline as
//! `power::PowerBreakdown::to_json`, extended with a parser for the inbound
//! direction.
//!
//! The one deliberate design decision is that **numbers are kept as raw
//! text** ([`Json::Num`] holds the unparsed token). The protocol carries
//! 64-bit seeds and raw IEEE-754 bit patterns as integers; routing them
//! through `f64` (what a conventional JSON value does) would silently round
//! everything above 2^53 and break the bit-exact checkpoint contract. Callers
//! decode a number as `u64`, `i64`, `usize` or `f64` at the use site — and
//! encode from the exact source type — so nothing is lost in transit.

use std::fmt;

/// A parsed JSON document (or a document under construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (see the module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved; lookups are linear, which is
    /// fine for protocol-sized objects.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input at the point of failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---------------------------------------------------------------- build

    /// A number from a `u64`, losslessly.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `usize`, losslessly.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `f64`. Uses Rust's shortest round-tripping `Display`
    /// form, so `as_f64` recovers the exact value; non-finite values become
    /// `null` (JSON has no representation for them).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            let text = format!("{v}");
            // `Display` omits the decimal point for integral values; that is
            // still a valid JSON number, so keep it as is.
            Json::Num(text)
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    // ----------------------------------------------------------------- read

    /// Object member lookup (`None` on non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decodes a number token as `u64` (exact; rejects signs, fractions and
    /// exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `usize` (exact).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` when this is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // ---------------------------------------------------------------- parse

    /// Parses one JSON document. Trailing content (other than whitespace) is
    /// an error, so a protocol line cannot smuggle a second message.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    // ---------------------------------------------------------------- write

    /// Serialises to a single-line JSON string (the NDJSON wire form; no
    /// embedded newlines, so one value is always one line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out`, escaped for embedding between JSON quotes (the
/// `power` crate's escaping rules: quotes, backslashes and control
/// characters, the latter as lower-case `\u00xx`). Runs of plain text are
/// copied in one step; every escaped byte is ASCII, so the slice bounds
/// always fall on character boundaries.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte != b'"' && byte != b'\\' && byte >= 0x20 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
}

/// Nesting depth bound: protocol messages and checkpoint files are a few
/// levels deep, so anything past this is hostile or corrupt input, rejected
/// before it can exhaust the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next delimiter in one
            // step. Every delimiter is ASCII, so both ends of the run are
            // character boundaries of the already-validated `&str`: the
            // slice needs no re-validation, and decoding stays linear in the
            // length of the line.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            // Combine UTF-16 surrogate pairs; a lone
                            // surrogate is malformed input.
                            let c = if (0xd800..0xdc00).contains(&first) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&first) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Reads four hex digits, advancing past them; returns the code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let value = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("malformed number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("malformed number (empty exponent)"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_numbers_survive_unrounded() {
        // Above 2^53: a float-backed JSON value would corrupt this.
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_line(), "18446744073709551615");
    }

    #[test]
    fn f64_round_trips_through_display() {
        for x in [0.1, 1.0 / 3.0, 2.5e-300, f64::MIN_POSITIVE, 1e308] {
            let line = Json::f64(x).to_line();
            assert_eq!(Json::parse(&line).unwrap().as_f64(), Some(x), "{line}");
        }
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let doc = r#"{"type":"submit","job":{"circuit":"s27","seed":1997,"opts":[1,2,3],"deep":{"a":null}}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("seed").and_then(Json::as_u64), Some(1997));
        assert_eq!(job.get("opts").and_then(Json::as_arr).unwrap().len(), 3);
        assert!(job.get("deep").unwrap().get("a").unwrap().is_null());
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" backslash \\ newline \n tab \t unicode \u{263a} nul-ish \u{0001}";
        let line = Json::str(original).to_line();
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some(original));
        // Standard escape forms parse too.
        assert_eq!(
            Json::parse(r#""aA\n\t\/\b\f\r""#).unwrap().as_str(),
            Some("aA\n\t/\u{8}\u{c}\r")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01x",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "{}{}",
            "[1] extra",
            "\u{0007}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn encoder_output_is_pinned_byte_for_byte() {
        // All 32 control characters take the lower-case `\u00xx` form,
        // quote and backslash their two-character escapes; DEL and
        // multi-byte UTF-8 (2, 3 and 4 bytes) pass through raw.
        let controls: String = (0u8..0x20).map(char::from).collect();
        assert_eq!(
            Json::str(controls).to_line(),
            concat!(
                r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
                r#"\u0008\u0009\u000a\u000b\u000c\u000d\u000e\u000f"#,
                r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
                r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
            )
        );
        assert_eq!(
            Json::str("a\"b\\c\u{7f}d\u{e9}\u{263a}\u{1f600}").to_line(),
            "\"a\\\"b\\\\c\u{7f}d\u{e9}\u{263a}\u{1f600}\""
        );
        // Keys go through the same encoder.
        assert_eq!(
            Json::obj(vec![("k\"\n", Json::str("\u{1}"))]).to_line(),
            r#"{"k\"\u000a":"\u0001"}"#
        );
        assert_eq!(Json::str("").to_line(), r#""""#);
    }

    #[test]
    fn string_runs_split_at_escapes_and_multibyte_characters() {
        for (line, expected) in [
            (r#""""#, ""),
            (r#""\n""#, "\n"),
            (r#""\nab""#, "\nab"),
            (r#""ab\n""#, "ab\n"),
            (r#""a\"b\\c""#, "a\"b\\c"),
            (r#""\\\\\\""#, "\\\\\\"),
            ("\"\u{e9}\\u00e9\u{e9}\"", "\u{e9}\u{e9}\u{e9}"),
            ("\"\u{263a}\\t\u{263a}\"", "\u{263a}\t\u{263a}"),
            ("\"\u{1f600}\\u0041\u{1f600}\"", "\u{1f600}A\u{1f600}"),
            (r#""x\ud83d\ude00y""#, "x\u{1f600}y"),
            (
                "\"\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}\"",
                "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
            ),
        ] {
            assert_eq!(
                Json::parse(line).unwrap().as_str(),
                Some(expected),
                "{line}"
            );
        }
        let obj = Json::parse("{\"\u{e9}\\n\":\"v\\u263a\u{263a}\"}").unwrap();
        assert_eq!(
            obj.get("\u{e9}\n").and_then(Json::as_str),
            Some("v\u{263a}\u{263a}")
        );
    }

    #[test]
    fn error_offsets_at_the_end_of_long_runs() {
        let run = "a".repeat(100_000);
        let wide = "\u{e9}\u{263a}\u{1f600}".repeat(10_000); // 90 000 bytes
        let cases: Vec<(String, &str, usize)> = vec![
            (
                format!("\"{run}\u{1}\""),
                "raw control character in string",
                100_001,
            ),
            (
                format!("\"{run}\n\""),
                "raw control character in string",
                100_001,
            ),
            (
                format!("\"{wide}\u{1f}\""),
                "raw control character in string",
                90_001,
            ),
            (
                format!("[\"x\",\"{run}\t"),
                "raw control character in string",
                100_006,
            ),
            (format!("\"{run}"), "unterminated string", 100_001),
            (format!("\"{wide}"), "unterminated string", 90_001),
            (format!("{{\"{run}"), "unterminated string", 100_002),
            (format!("\"{run}\\"), "unterminated escape", 100_002),
            (format!("\"{wide}\\q{run}\""), "invalid escape", 90_003),
            (format!("\"{run}\\u12"), "truncated \\u escape", 100_003),
        ];
        for (line, message, offset) in cases {
            let error = Json::parse(&line).unwrap_err();
            assert_eq!((error.message.as_str(), error.offset), (message, offset));
        }
    }

    /// A character drawn from a mix that keeps every encoder branch busy:
    /// ASCII (control characters included), the escaped and DEL bytes, and
    /// 2-, 3- and 4-byte UTF-8.
    fn mixed_char(v: u32) -> char {
        const SPECIAL: [char; 8] = ['"', '\\', '/', '\u{7f}', '\n', '\t', '\u{0}', 'u'];
        match v % 4 {
            0 => char::from((v / 4 % 128) as u8),
            1 => SPECIAL[(v / 4 % 8) as usize],
            2 => char::from_u32(0x80 + v / 4 % 0xd780).unwrap(),
            _ => char::from_u32(v / 4 % 0x11_0000).unwrap_or('\u{10fff0}'),
        }
    }

    /// A character biased to JSON's structural bytes, for fuzzing the parser.
    fn structural_char(v: u32) -> char {
        const ALPHABET: &[u8] = br#"{}[]":,\ nulltruefalse0123456789.-+eEu"#;
        match v % 3 {
            0 | 1 => char::from(ALPHABET[(v / 3) as usize % ALPHABET.len()]),
            _ => mixed_char(v / 3),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any string survives the wire form unchanged, whatever mix of
        /// plain runs, escapes and multi-byte characters it holds.
        #[test]
        fn json_any_string_round_trips(
            chars in collection::vec(0u32..u32::MAX, 0usize..200),
        ) {
            let original: String = chars.into_iter().map(mixed_char).collect();
            let line = Json::str(original.clone()).to_line();
            prop_assert_eq!(Json::parse(&line).unwrap(), Json::Str(original));
        }

        /// Arbitrary text, and every prefix of a valid line, parses to a
        /// value or an error and never panics; a value re-encodes to a line
        /// that parses back to itself.
        #[test]
        fn json_arbitrary_text_never_panics(
            chars in collection::vec(0u32..u32::MAX, 0usize..80),
            cut in 0usize..1000,
        ) {
            let text: String = chars.into_iter().map(structural_char).collect();
            let valid = Json::obj(vec![("k", Json::Arr(vec![Json::str(text.clone()), Json::u64(7)]))]).to_line();
            let mut cut = cut % (valid.len() + 1);
            while !valid.is_char_boundary(cut) {
                cut -= 1;
            }
            for input in [text.as_str(), &valid[..cut]] {
                if let Ok(value) = Json::parse(input) {
                    prop_assert_eq!(Json::parse(&value.to_line()).unwrap(), value);
                }
            }
        }
    }

    #[test]
    fn lookup_is_none_off_type() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_str().is_none());
        assert!(v.as_u64().is_none());
    }
}
