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
    /// The kind of the I/O error this is, if it is one.
    io: Option<io::ErrorKind>,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            io: None,
        }
    }

    /// An error of the reader or writer underneath.
    pub fn io(e: &io::Error) -> Self {
        Self {
            msg: e.to_string(),
            io: Some(e.kind()),
        }
    }

    /// The kind of the underlying I/O error, if this is one.
    pub fn io_error_kind(&self) -> Option<io::ErrorKind> {
        self.io
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.io {
            Some(_) => write!(f, "JSON error: io error: {}", self.msg),
            None => write!(f, "JSON error: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// An I/O error keeps its kind and message; any other error is
/// `InvalidData`.
impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        match e.io {
            Some(kind) => io::Error::new(kind, e.msg),
            None => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

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

/// How many bytes of text a [`Reader`] over an `io::Read` holds at a
/// time. A single token longer than this grows the window.
pub const READ_WINDOW: usize = 256 * 1024;

/// Parses a complete JSON document into a [`Value`] tree.
pub fn parse(input: &str) -> Result<Value, Error> {
    Reader::new(input).document()
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
/// in one pass with no intermediate tree, and escape-free strings are
/// borrowed from the text. Every method skips leading whitespace and
/// leaves the cursor just past what it read; errors carry the absolute
/// byte offset where decoding stopped.
///
/// The cursor scans a window of the text. Over a `&str`
/// ([`Reader::new`]) the window is the whole text, borrowed. Over an
/// `io::Read` ([`Reader::from_read`]) it holds about [`READ_WINDOW`]
/// bytes: a token that runs to the window's end drops the text before
/// it, reads more into one reusable buffer, and is scanned again. Each
/// read is checked to be UTF-8 before it joins the window.
pub struct Reader<'a> {
    /// The text from absolute offset `base` on.
    text: Cow<'a, str>,
    /// The cursor, an index into `text`.
    pos: usize,
    base: usize,
    /// The stream behind an owned window, until its end or first error.
    src: Option<&'a mut dyn io::Read>,
    /// `raw[raw_start..raw_end]` was read but is not in the window yet:
    /// what did not fit, or the start of a code point split across
    /// reads.
    raw: Vec<u8>,
    raw_start: usize,
    raw_end: usize,
    /// The stream's first failure: an I/O error or invalid UTF-8.
    io_error: Option<Error>,
    /// Spare key buffers: each open object holds one for its keys.
    keys: Vec<String>,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            text: Cow::Borrowed(src),
            pos: 0,
            base: 0,
            src: None,
            raw: Vec::new(),
            raw_start: 0,
            raw_end: 0,
            io_error: None,
            keys: Vec::new(),
        }
    }

    /// A cursor at the start of what `src` reads.
    pub fn from_read(src: &'a mut dyn io::Read) -> Self {
        Self {
            text: Cow::Owned(String::with_capacity(READ_WINDOW)),
            src: Some(src),
            raw: vec![0; READ_WINDOW],
            ..Self::new("")
        }
    }

    /// Reads one whole document as `T`: the value, then nothing but
    /// whitespace to the end of the input. As with `read_to_string`, an
    /// input that cannot be read or is not UTF-8 is an I/O error
    /// wherever the fault lies, so after any other error the rest of
    /// the input is read and checked too.
    pub fn document<T: crate::Deserialize>(mut self) -> Result<T, Error> {
        let value = T::deserialize_json(&mut self).and_then(|v| self.finish().map(|()| v));
        if value.is_err() {
            loop {
                self.pos = self.text.len();
                if !self.fill() {
                    break;
                }
            }
        }
        self.io_error.take().map_or(value, Err)
    }

    /// Ends the document: only whitespace may follow the value read.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "trailing characters at byte {}",
                self.offset()
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

    /// Reads a string: borrowed from the window unless it holds escapes.
    pub fn str(&mut self) -> Result<Cow<'_, str>, Error> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err(self.mismatch("string"));
        }
        // Find the closing quote first, so that the window is refilled
        // before anything is decoded. A refill moves the string to the
        // window's start; the scan goes on where it stopped.
        let (mut len, mut escaped) = (1, false);
        loop {
            let bytes = &self.text.as_bytes()[self.pos..];
            while len < bytes.len() {
                match bytes[len] {
                    b'"' => break,
                    b'\\' => (len, escaped) = (len + 2, true),
                    _ => len += 1,
                }
            }
            if len < bytes.len() {
                break;
            }
            if !self.fill() {
                return Err(Error::msg("unterminated string"));
            }
        }
        let content = self.pos + 1..self.pos + len;
        self.pos += len + 1;
        let content = &self.text[content];
        if !escaped {
            return Ok(Cow::Borrowed(content));
        }
        let mut text = String::with_capacity(content.len());
        unescape(content, &mut text)?;
        Ok(Cow::Owned(text))
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
        // Reading the entry's value may refill the window under its key,
        // so the key is copied out, into one buffer per open object.
        let mut key = self.keys.pop().unwrap_or_default();
        loop {
            key.clear();
            key.push_str(&self.str()?);
            self.colon()?;
            entry(self, &key)?;
            if !self.more(b'}')? {
                self.keys.push(key);
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
                        self.str()?;
                        self.colon()?;
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
                        self.str()?;
                        self.colon()?;
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
                self.offset()
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
            Some(b'-' | b'0'..=b'9') => self.number_as("value", |n| Some(n.clone())),
            _ if self.eat_keyword("null") => Ok(Value::Null),
            _ if self.eat_keyword("true") => Ok(Value::Bool(true)),
            _ if self.eat_keyword("false") => Ok(Value::Bool(false)),
            _ => Err(self.mismatch("value")),
        }
    }

    /// The absolute input offset of the cursor.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Adds at least one character of the stream to the window, first
    /// dropping the text before the cursor. Returns `false`, leaving
    /// the window as it was, at the end of the input, and always for a
    /// borrowed window.
    ///
    /// Text goes into the window as far as it fits, and the window
    /// grows only when the unread text and the next character do not
    /// fit. So where the reads split the input changes neither the
    /// window's size nor what is allocated.
    fn fill(&mut self) -> bool {
        let (Some(src), Cow::Owned(text)) = (self.src.as_mut(), &mut self.text) else {
            return false;
        };
        loop {
            let pending = &self.raw[self.raw_start..self.raw_end];
            let room = text.capacity() - (text.len() - self.pos);
            let fits = &pending[..pending.len().min(room)];
            let valid = match std::str::from_utf8(fits) {
                Ok(valid) => valid,
                // A code point cut by the end of `fits`.
                Err(e) if e.error_len().is_none() => {
                    std::str::from_utf8(&fits[..e.valid_up_to()]).unwrap_or_default()
                }
                Err(_) => return self.fail(invalid_utf8()),
            };
            if !valid.is_empty() {
                text.drain(..self.pos);
                self.base += self.pos;
                self.pos = 0;
                text.push_str(valid);
                self.raw_start += valid.len();
                return true;
            }
            if pending.len() > room {
                // One token fills the window: double it.
                text.reserve(text.capacity());
                continue;
            }
            // Nothing is pending but the start of a code point: read.
            self.raw.copy_within(self.raw_start..self.raw_end, 0);
            self.raw_end -= self.raw_start;
            self.raw_start = 0;
            match src.read(&mut self.raw[self.raw_end..]) {
                Ok(0) if self.raw_end > 0 => return self.fail(invalid_utf8()),
                Ok(0) => {
                    self.src = None;
                    return false;
                }
                Ok(n) => self.raw_end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.fail(e),
            }
        }
    }

    /// Ends the stream at its first failure, which
    /// [`Reader::document`] reports in place of whatever error the
    /// early end causes.
    fn fail(&mut self, e: io::Error) -> bool {
        self.io_error = Some(Error::io(&e));
        self.src = None;
        false
    }

    /// Fills the window until it holds `n` bytes past the cursor or the
    /// input ends.
    fn lookahead(&mut self, n: usize) {
        while self.text.len() - self.pos < n && self.fill() {}
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            self.pos += rest
                .iter()
                .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
                .count();
            if self.pos < self.text.len() || !self.fill() {
                return;
            }
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.lookahead(kw.len());
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
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
                close as char,
                self.offset()
            )))
        }
    }

    /// The `:` after an object key.
    fn colon(&mut self) -> Result<(), Error> {
        if self.eat(b':') {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `:` at byte {}",
                self.offset()
            )))
        }
    }

    /// Scans the number at the cursor by the JSON grammar without
    /// converting it (see [`number_extent`]), moves the cursor past it
    /// and returns where it lies in the window and whether it has a
    /// fraction or an exponent. Decoding and [`Reader::skip_value`]
    /// share it, so skipping accepts exactly what decoding does.
    fn scan_number(&mut self, expected: &str) -> Result<(usize, usize, bool), Error> {
        self.skip_ws();
        if !matches!(self.byte(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.mismatch(expected));
        }
        loop {
            let bytes = self.text.as_bytes();
            let (end, is_float) = number_extent(bytes, self.pos);
            // A number that runs to the window's end may go on past it.
            if end == bytes.len() && self.fill() {
                continue;
            }
            let Some(is_float) = is_float else {
                return Err(self.invalid_number());
            };
            let start = self.pos;
            self.pos = end;
            return Ok((start, end, is_float));
        }
    }

    /// "invalid number `…` at byte N", quoting the run of number
    /// characters at the cursor.
    fn invalid_number(&mut self) -> Error {
        let run = loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().take_while(|&&b| is_number_byte(b)).count();
            if run < rest.len() || !self.fill() {
                break run;
            }
        };
        Error::msg(format!(
            "invalid number `{}` at byte {}",
            &self.text[self.pos..self.pos + run],
            self.offset()
        ))
    }

    /// Reads a number and converts it with `convert`, through a
    /// [`Value::UInt`], [`Value::Int`] or [`Value::Num`]: integers
    /// without a fraction or exponent stay exact, everything else goes
    /// through `f64`.
    fn number_as<T>(
        &mut self,
        expected: &str,
        convert: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<T, Error> {
        let (start, end, is_float) = self.scan_number(expected)?;
        let text = &self.text[start..end];
        let at = self.base + start;
        let mut n = None;
        if !is_float {
            n = (text.parse::<u64>().map(Value::UInt))
                .or_else(|_| text.parse::<i64>().map(Value::Int))
                .ok();
        }
        let n = match n {
            Some(n) => n,
            None => text
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| Error::msg(format!("invalid number `{text}` at byte {at}")))?,
        };
        convert(&n)
            .ok_or_else(|| Error::msg(format!("expected {expected}, found `{text}` at byte {at}")))
    }

    /// "expected X, found Y at byte N" for the token at the cursor.
    fn mismatch(&mut self, expected: &str) -> Error {
        self.lookahead("false".len());
        let rest = &self.text[self.pos..];
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
            self.offset()
        ))
    }
}

/// The error `read_to_string` gives for input that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// Scans the number at `bytes[start]`, a `-` or a digit, by the JSON
/// grammar (RFC 8259 §6). Returns the index of the first byte not
/// taken and, if the bytes before it are a number, whether it has a
/// fraction or an exponent. Leading zeros (`01`), a `.` or exponent
/// without digits (`1.`, `1.e5`, `1e`) and a number running into
/// another number character (`1.2.3`) are not numbers. The index is
/// `bytes.len()` exactly when more bytes could change the answer.
fn number_extent(bytes: &[u8], start: usize) -> (usize, Option<bool>) {
    let digits = |from: usize| {
        from + bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut end = start + usize::from(bytes[start] == b'-');
    match bytes.get(end) {
        Some(b'0') => end += 1,
        Some(b'1'..=b'9') => end = digits(end + 1),
        _ => return (end, None),
    }
    let mut is_float = false;
    if bytes.get(end) == Some(&b'.') {
        let frac_end = digits(end + 1);
        if frac_end == end + 1 {
            return (frac_end, None);
        }
        (end, is_float) = (frac_end, true);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let exp_start = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
        let exp_end = digits(exp_start);
        if exp_end == exp_start {
            return (exp_end, None);
        }
        (end, is_float) = (exp_end, true);
    }
    if bytes.get(end).copied().is_some_and(is_number_byte) {
        return (end, None);
    }
    (end, Some(is_float))
}

/// Appends `content`, the text between a string's quotes, to `out` with
/// its escapes decoded. A UTF-16 surrogate pair, `\ud83d\ude00`
/// for U+1F600, is one character (RFC 8259 §7); a lone surrogate
/// becomes U+FFFD.
fn unescape(content: &str, out: &mut String) -> Result<(), Error> {
    let mut rest = content;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut escape = rest[at + 1..].chars();
        let Some(esc) = escape.next() else {
            return Err(Error::msg("unterminated escape"));
        };
        rest = escape.as_str();
        match esc {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let code = hex4(rest)?;
                rest = &rest[4..];
                let low = rest.strip_prefix("\\u").and_then(|r| hex4(r).ok());
                let c = match (code, low) {
                    (0xD800..=0xDBFF, Some(low @ 0xDC00..=0xDFFF)) => {
                        rest = &rest[6..];
                        char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                    }
                    _ => char::from_u32(code),
                };
                out.push(c.unwrap_or('\u{fffd}'));
            }
            other => return Err(Error::msg(format!("invalid escape `\\{other}`"))),
        }
    }
    out.push_str(rest);
    Ok(())
}

/// The code unit of the four hex digits a `\u` escape starts `s` with.
fn hex4(s: &str) -> Result<u32, Error> {
    let hex = s
        .get(..4)
        .ok_or_else(|| Error::msg("truncated \\u escape"))?;
    u32::from_str_radix(hex, 16).map_err(|_| Error::msg("invalid \\u escape"))
}

/// A byte that can occur in a JSON number.
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}
