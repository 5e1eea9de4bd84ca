//! A small, self-contained JSON value with a writer and a strict parser.
//!
//! Every JSON the workspace reads or writes goes through this module: the
//! service's newline-delimited wire frames, the `--json` sweep and
//! experiment exports, and the Chrome-trace export. Values convert to and
//! from [`Json`] explicitly, so the protocol round-trips bit-exactly with no
//! external dependency.
//!
//! Scope: the full JSON data model (null, booleans, numbers, strings with
//! escapes, arrays, objects), with integers kept exact in `i64` and
//! everything else in `f64`. The parser follows RFC 8259's grammar exactly,
//! so it rejects leading zeros, bare fractions and exponents, `+` in `\u`
//! escapes, and numbers that overflow `f64`. Object key order is preserved
//! (insertion order), which is what makes "bit-identical responses" a
//! meaningful assertion in the tests.

use std::fmt;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is integral and fits `i64`, kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as built/parsed.
    Obj(Vec<(String, Json)>),
}

/// Why a frame failed to parse, with the byte offset of the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub pos: usize,
    /// What was expected or found.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object from label/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact integer payload (including floats with zero fraction).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.2e18 => Some(*n as i64),
            _ => None,
        }
    }

    /// Non-negative integer payload.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Numeric payload, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True when this is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    /// Compact single-line rendering (no interior newlines — NDJSON-safe by
    /// construction, because strings escape control characters).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                    if n.fract() == 0.0 && !out.ends_with(['.', 'e']) {
                        // `format!("{}", 2.0)` prints "2"; keep it a float on
                        // the wire so round-trips stay type-stable.
                        if !out[out
                            .rfind(|c: char| !c.is_ascii_digit() && c != '-')
                            .map_or(0, |i| i + 1)..]
                            .contains('.')
                        {
                            out.push_str(".0");
                        }
                    }
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than emit
                    // an unparseable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
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
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Strict parse of exactly one JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        i64::try_from(i)
            .map(Json::Int)
            .unwrap_or(Json::Num(i as f64))
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i)
            .map(Json::Int)
            .unwrap_or(Json::Num(i as f64))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth bound: frames are flat request/response objects, so any
/// input deeper than this is hostile or broken, not a real request.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
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
            Some(b'"') => self.string().map(Json::Str),
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
                _ => return Err(self.err("expected ',' or ']'")),
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape digits"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number overflows f64")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (input, want) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("2.5", Json::Num(2.5)),
            ("1e3", Json::Num(1000.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            let parsed = Json::parse(input).unwrap();
            assert_eq!(parsed, want, "{input}");
            assert_eq!(Json::parse(&parsed.render()).unwrap(), want, "{input}");
        }
    }

    #[test]
    fn nested_objects_preserve_key_order() {
        let v = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c", Json::obj(vec![("x", Json::str("y"))])),
        ]);
        let line = v.render();
        assert_eq!(line, r#"{"b":1,"a":[null,true],"c":{"x":"y"}}"#);
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{00e9}\u{1F600}";
        let line = Json::Str(s.to_string()).render();
        assert!(!line.contains('\n'), "NDJSON-safe: {line:?}");
        assert_eq!(Json::parse(&line).unwrap(), Json::Str(s.to_string()));
        // Surrogate-pair escapes parse back to the astral char.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn floats_stay_floats_on_the_wire() {
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::Int(2).render(), "2");
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[01x]",
            "\"\\q\"",
            "\"\\u12\"",
            "nan",
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            "1.e5",
            "1e",
            "-",
            "\"\\u+041\"",
            "1e400",
            "-1e400",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// One step of a splitmix64 stream.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A rendered request frame, the base of the mutated fuzz inputs.
    fn request_frame() -> String {
        Json::obj(vec![
            ("id", Json::Int(7)),
            ("deadline_ms", Json::Int(250)),
            ("request", Json::str("fault-campaign")),
            ("u", Json::Int(3)),
            ("p", Json::Int(3)),
            ("design", Json::str("time-optimal")),
            ("mode", Json::str("monte-carlo")),
            // One byte away from `1e400`, which overflows `f64`.
            ("seed", Json::Int(10400)),
            ("trials", Json::Int(128)),
            ("rate", Json::Num(0.05)),
            ("tags", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("note", Json::str("tab\t \"quoted\" \u{1}")),
        ])
        .render()
    }

    /// The input of fuzz case `seed`: by `seed % 3`, up to 24 random bytes
    /// over a JSON alphabet, a single-byte mutation of `frame`, or such a
    /// mutation truncated at a random length.
    fn fuzz_input(seed: u64, frame: &str) -> String {
        const ALPHABET: &[u8] = b"{}[]:,\"\\/ \t\n-+.eE0123456789abcdefABCDEFnulltrsu\x01\x7f";
        let mut state = seed;
        let mut pick = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        let mut bytes = match seed % 3 {
            0 => {
                let len = pick(25);
                (0..len).map(|_| ALPHABET[pick(ALPHABET.len())]).collect()
            }
            _ => {
                let mut bytes = frame.as_bytes().to_vec();
                let at = pick(bytes.len());
                bytes[at] = ALPHABET[pick(ALPHABET.len())];
                bytes
            }
        };
        if seed % 3 == 2 {
            bytes.truncate(pick(bytes.len() + 1));
        }
        String::from_utf8(bytes).expect("the alphabet and the frame are ASCII")
    }

    #[test]
    fn fuzzed_inputs_never_panic_and_accepted_values_round_trip() {
        let frame = request_frame();
        for i in 0..120_000u64 {
            let seed = 0x1993_0000 + i;
            let input = fuzz_input(seed, &frame);
            let parsed = std::panic::catch_unwind(|| Json::parse(&input))
                .unwrap_or_else(|_| panic!("seed {seed:#x}: parse panicked on {input:?}"));
            if let Ok(value) = parsed {
                let line = value.render();
                assert_eq!(
                    Json::parse(&line),
                    Ok(value),
                    "seed {seed:#x}: {input:?} re-rendered as {line:?}"
                );
            }
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let bomb = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn getters() {
        let v = Json::parse(r#"{"n":3,"f":1.5,"s":"x","b":true,"a":[1],"o":{}}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("o").is_some_and(Json::is_obj));
        assert!(v.get("missing").is_none());
    }
}
