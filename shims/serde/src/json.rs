//! The JSON data model behind the serde shim: a pull [`Reader`] that
//! typed `Deserialize` impls decode from directly, a [`Value`] tree for
//! callers that want a whole untyped document, and a deterministic
//! [`Writer`].

use std::borrow::Cow;
use std::fmt;
use std::io;

/// A parsed JSON value. Integers are kept apart from floats so `u64`
/// round trips losslessly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a decimal point or exponent.
    Num(f64),
    /// A negative integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Numeric value as `u64` if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `i64` if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Looks a key up in an object's entries.
pub fn find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl crate::Serialize for Value {
    fn serialize_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.write_null(),
            Value::Bool(b) => w.write_bool(*b),
            Value::Num(n) => w.write_f64(*n),
            Value::Int(i) => w.write_i64(*i),
            Value::UInt(u) => w.write_u64(*u),
            Value::Str(s) => w.write_str(s),
            Value::Array(items) => {
                w.begin_array();
                for v in items {
                    v.serialize_json(w);
                }
                w.end_array();
            }
            Value::Object(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.key(k);
                    v.serialize_json(w);
                }
                w.end_object();
            }
        }
    }
}

impl crate::Deserialize for Value {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}

/// A JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Writer

/// How many bytes of text a streaming [`Writer`] gathers before it
/// hands them to its sink.
pub const WRITE_CHUNK: usize = 64 * 1024;

/// Streams JSON text with automatic comma/indent management.
///
/// Generated `Serialize` impls drive this with `begin_object`/`key`/
/// scalar-write calls; the writer tracks container nesting so the output
/// is always syntactically valid and byte-deterministic. A writer made
/// with [`Writer::new`] builds the whole text in memory; one made with
/// [`Writer::streaming`] passes it on to an `io::Write` about
/// [`WRITE_CHUNK`] bytes at a time, so it never holds the whole
/// document.
pub struct Writer<'w> {
    out: String,
    pretty: bool,
    /// One entry per open container: whether it already holds a value.
    stack: Vec<bool>,
    after_key: bool,
    /// Where full chunks of `out` go; with none, `out` is the document.
    sink: Option<&'w mut dyn io::Write>,
    /// The sink's first error. Nothing more is written after it.
    error: Option<io::Error>,
}

impl<'w> Writer<'w> {
    /// Creates a writer that builds the text in memory; `pretty`
    /// enables two-space indentation.
    pub fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            stack: Vec::new(),
            after_key: false,
            sink: None,
            error: None,
        }
    }

    /// Creates a compact writer that streams its text into `sink`.
    /// Call [`Writer::finish`] to write the rest and see any error.
    pub fn streaming(sink: &'w mut dyn io::Write) -> Self {
        Self {
            out: String::with_capacity(WRITE_CHUNK),
            sink: Some(sink),
            ..Self::new(false)
        }
    }

    /// Finishes writing and returns the JSON text (of a writer made
    /// with [`Writer::new`]).
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes whatever a streaming writer still holds and returns the
    /// sink's first error, if it had one.
    pub fn finish(mut self) -> io::Result<()> {
        self.drain();
        self.error.map_or(Ok(()), Err)
    }

    /// Hands the buffered text to the sink, if there is one; after the
    /// sink's first error the text is dropped.
    fn drain(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        if self.error.is_none() {
            if let Err(e) = sink.write_all(self.out.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.out.clear();
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Comma/indent bookkeeping before a value or key is emitted.
    fn pre_value(&mut self) {
        if self.out.len() >= WRITE_CHUNK {
            self.drain();
        }
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_values) = self.stack.last_mut() {
            if *has_values {
                self.out.push(',');
            }
            *has_values = true;
            if self.pretty {
                self.newline_indent();
            }
        }
    }

    fn close(&mut self, delim: char) {
        let had_values = self.stack.pop().unwrap_or(false);
        if self.pretty && had_values {
            self.newline_indent();
        }
        self.out.push(delim);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next write supplies its value.
    pub fn key(&mut self, key: &str) {
        self.pre_value();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Writes `null`.
    pub fn write_null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    /// Writes a bool.
    pub fn write_bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn write_u64(&mut self, v: u64) {
        use fmt::Write;
        self.pre_value();
        write!(self.out, "{v}").expect("writing to String cannot fail");
    }

    /// Writes a signed integer.
    pub fn write_i64(&mut self, v: i64) {
        use fmt::Write;
        self.pre_value();
        write!(self.out, "{v}").expect("writing to String cannot fail");
    }

    /// Writes a float using Rust's shortest round-trip representation;
    /// non-finite values become `null` (matching serde_json).
    pub fn write_f64(&mut self, v: f64) {
        use fmt::Write;
        self.pre_value();
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to String cannot fail");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes an escaped string.
    pub fn write_str(&mut self, v: &str) {
        self.pre_value();
        write_escaped(&mut self.out, v);
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Reader

/// The deepest container nesting [`Reader::value`] builds a tree for;
/// anything deeper is an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document into a [`Value`] tree.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// What a field absent from its object decodes to: whatever `null`
/// decodes to (`NaN` for floats, `None` for options), and for any other
/// type a missing-field error naming `field` of `ty`.
pub fn missing<T: crate::Deserialize>(ty: &str, field: &str) -> Result<T, Error> {
    T::deserialize_json(&mut Reader::new("null"))
        .map_err(|_| Error::msg(format!("missing field `{field}` in {ty}")))
}

/// A pull cursor over one JSON text.
///
/// Typed decoders ask it for exactly the token they expect next — a
/// number, a string, the entries of an object — so a document decodes
/// in one pass with no intermediate tree, and object keys and
/// escape-free strings are borrowed from the input. Every method skips
/// leading whitespace and leaves the cursor just past what it read;
/// errors carry the byte offset where decoding stopped.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// The next non-whitespace byte, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Consumes a `null` if one comes next.
    pub fn eat_null(&mut self) -> bool {
        self.skip_ws();
        self.eat_keyword("null")
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.eat_keyword("true") {
            Ok(true)
        } else if self.eat_keyword("false") {
            Ok(false)
        } else {
            Err(self.mismatch("bool"))
        }
    }

    /// Reads a number as `f64` (integers widen).
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.number_as("number", Value::as_f64)
    }

    /// Reads a number that is a non-negative integer (`1.0` counts).
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.number_as("unsigned integer", Value::as_u64)
    }

    /// Reads a number that is an integer (`-1.0` counts).
    pub fn i64(&mut self) -> Result<i64, Error> {
        self.number_as("integer", Value::as_i64)
    }

    /// Reads a string: borrowed from the input unless it holds escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err(self.mismatch("string"));
        }
        self.pos += 1;
        // The unescaped run being read, and the text before it once an
        // escape forced a copy. `"` and `\` are ASCII, so every cut is
        // a char boundary.
        let mut run = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            match self.byte() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    let text = decoded.get_or_insert_with(String::new);
                    text.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    self.escape(text)?;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads an array, calling `item` once per element; `item` must
    /// consume exactly one value.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.open(b'[', "array")?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads an object, calling `entry` with each key in source order;
    /// `entry` must consume exactly one value (the entry's).
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.open(b'{', "object")?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            entry(self, &key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Consumes one value of any shape after checking its syntax as
    /// strictly as [`Reader::value`] would. Numbers are checked against
    /// the grammar but never converted, so skipping a section costs a
    /// scan of its bytes. Iterative, so no nesting depth can overflow
    /// the stack.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        // The containers open around the cursor, innermost last: `true`
        // for an object.
        let mut open: Vec<bool> = Vec::new();
        loop {
            self.skip_ws();
            match self.byte() {
                Some(b'{') => {
                    self.pos += 1;
                    if !self.eat(b'}') {
                        open.push(true);
                        self.key()?;
                        continue;
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    if !self.eat(b']') {
                        open.push(false);
                        continue;
                    }
                }
                Some(b'"') => {
                    self.str()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.scan_number("value")?;
                }
                _ => {
                    if !(self.eat_keyword("null")
                        || self.eat_keyword("true")
                        || self.eat_keyword("false"))
                    {
                        return Err(self.mismatch("value"));
                    }
                }
            }
            // A value just ended: close every container it completed.
            loop {
                let Some(&in_object) = open.last() else {
                    return Ok(());
                };
                if self.more(if in_object { b'}' } else { b']' })? {
                    if in_object {
                        self.key()?;
                    }
                    break;
                }
                open.pop();
            }
        }
    }

    /// Reads one value of any shape into a [`Value`] tree, refusing
    /// containers nested deeper than [`MAX_DEPTH`].
    pub fn value(&mut self) -> Result<Value, Error> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.byte() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))),
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(|r, key| {
                    entries.push((key.to_owned(), r.value_at(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value_at(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.str()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number("value"),
            _ if self.eat_keyword("null") => Ok(Value::Null),
            _ if self.eat_keyword("true") => Ok(Value::Bool(true)),
            _ if self.eat_keyword("false") => Ok(Value::Bool(false)),
            _ => Err(self.mismatch("value")),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Consumes `delim` if it is the next non-whitespace byte.
    fn eat(&mut self, delim: u8) -> bool {
        self.skip_ws();
        if self.byte() == Some(delim) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn open(&mut self, delim: u8, expected: &str) -> Result<(), Error> {
        if self.eat(delim) {
            Ok(())
        } else {
            Err(self.mismatch(expected))
        }
    }

    /// After a container element: `true` past a `,`, `false` past the
    /// closing delimiter.
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(Error::msg(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )))
        }
    }

    /// An object key and the `:` after it.
    fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.str()?;
        if self.eat(b':') {
            Ok(key)
        } else {
            Err(Error::msg(format!("expected `:` at byte {}", self.pos)))
        }
    }

    /// The escape after a `\` inside a string.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(esc) = self.byte() else {
            return Err(Error::msg("unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = self
                    .src
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                self.pos += 4;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| Error::msg("invalid \\u escape"))?;
                // Surrogate pairs are not produced by our writer; map
                // lone surrogates to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(Error::msg(format!("invalid escape `\\{}`", other as char))),
        }
        Ok(())
    }

    /// Scans one number by the JSON grammar (RFC 8259 §6) without
    /// converting it, and returns its text and whether it has a fraction
    /// or an exponent. Leading zeros (`01`), a `.` or exponent without
    /// digits (`1.`, `1.e5`, `1e`) and a number running into another
    /// number character (`1.2.3`) are errors. Decoding and
    /// [`Reader::skip_value`] share it, so skipping accepts exactly
    /// what decoding does.
    fn scan_number(&mut self, expected: &str) -> Result<(&'a str, bool), Error> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let digits = |from: usize| {
            from + bytes[from..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count()
        };
        let mut end = start + usize::from(bytes.get(start) == Some(&b'-'));
        match bytes.get(end) {
            Some(b'0') => end += 1,
            Some(b'1'..=b'9') => end = digits(end + 1),
            _ if end == start => return Err(self.mismatch(expected)),
            _ => return Err(self.invalid_number(start)),
        }
        let mut is_float = false;
        if bytes.get(end) == Some(&b'.') {
            let frac_end = digits(end + 1);
            if frac_end == end + 1 {
                return Err(self.invalid_number(start));
            }
            (end, is_float) = (frac_end, true);
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let exp_start = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            let exp_end = digits(exp_start);
            if exp_end == exp_start {
                return Err(self.invalid_number(start));
            }
            (end, is_float) = (exp_end, true);
        }
        if bytes.get(end).copied().is_some_and(is_number_byte) {
            return Err(self.invalid_number(start));
        }
        self.pos = end;
        Ok((&self.src[start..end], is_float))
    }

    /// "invalid number `…` at byte N", quoting the run of number
    /// characters at `start`.
    fn invalid_number(&self, start: usize) -> Error {
        let rest = &self.src[start..];
        let run = rest.bytes().take_while(|&b| is_number_byte(b)).count();
        Error::msg(format!("invalid number `{}` at byte {start}", &rest[..run]))
    }

    /// Reads a number as [`Value::UInt`], [`Value::Int`] or
    /// [`Value::Num`]: integers without a fraction or exponent stay
    /// exact, everything else goes through `f64`.
    fn number(&mut self, expected: &str) -> Result<Value, Error> {
        let (text, is_float) = self.scan_number(expected)?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| {
            let start = self.pos - text.len();
            Error::msg(format!("invalid number `{text}` at byte {start}"))
        })
    }

    fn number_as<T>(
        &mut self,
        expected: &str,
        convert: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<T, Error> {
        self.skip_ws();
        let start = self.pos;
        let n = self.number(expected)?;
        convert(&n).ok_or_else(|| {
            Error::msg(format!(
                "expected {expected}, found `{}` at byte {start}",
                &self.src[start..self.pos]
            ))
        })
    }

    /// "expected X, found Y at byte N" for the token at the cursor.
    fn mismatch(&self, expected: &str) -> Error {
        let rest = &self.src[self.pos..];
        let found = match rest.as_bytes().first() {
            None => "end of input".to_owned(),
            Some(b'{') => "object".to_owned(),
            Some(b'[') => "array".to_owned(),
            Some(b'"') => "string".to_owned(),
            Some(b'-' | b'0'..=b'9') => "number".to_owned(),
            _ if rest.starts_with("null") => "null".to_owned(),
            _ if rest.starts_with("true") || rest.starts_with("false") => "bool".to_owned(),
            _ => format!("`{}`", rest.chars().next().unwrap_or_default()),
        };
        Error::msg(format!(
            "expected {expected}, found {found} at byte {}",
            self.pos
        ))
    }
}

/// A byte that can occur in a JSON number.
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}
