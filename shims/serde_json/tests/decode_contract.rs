//! The typed decode contract: what `from_str` accepts and rejects for
//! derived structs and enums, std containers and scalars, and where the
//! untyped `parse` stops nesting; and that `to_writer` streams the same
//! bytes as `to_string`.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, parse, to_string, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u32,
    power: f64,
    note: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Flagged {
    id: u32,
    #[serde(default)]
    tags: Vec<u32>,
    #[serde(skip)]
    cache: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Point,
    Line,
    Rect { width: u32, height: f64 },
}

#[test]
fn missing_fields_read_as_null() {
    // f64 becomes NaN and Option becomes None ...
    let r: Record = from_str(r#"{"id":7}"#).unwrap();
    assert_eq!(r.id, 7);
    assert!(r.power.is_nan());
    assert_eq!(r.note, None);
    // ... and any other type is an error naming the field.
    let err = from_str::<Record>(r#"{"power":1.5}"#)
        .unwrap_err()
        .to_string();
    assert!(err.contains("missing field `id`"), "{err}");
    // An explicit null decodes the same way as an absent key.
    let r: Record = from_str(r#"{"id":7,"power":null,"note":null}"#).unwrap();
    assert!(r.power.is_nan());
    assert_eq!(r.note, None);
    assert!(from_str::<Record>(r#"{"id":null}"#).is_err());
}

#[test]
fn default_and_skip_fields() {
    let f: Flagged = from_str(r#"{"id":1}"#).unwrap();
    assert_eq!(
        f,
        Flagged {
            id: 1,
            tags: vec![],
            cache: 0
        }
    );
    // A present default field decodes; a skipped field ignores its key.
    let f: Flagged = from_str(r#"{"cache":9,"tags":[4,5],"id":1}"#).unwrap();
    assert_eq!(
        f,
        Flagged {
            id: 1,
            tags: vec![4, 5],
            cache: 0
        }
    );
    // Skipping still checks the syntax of what it skips.
    assert!(from_str::<Flagged>(r#"{"id":1,"cache":[1,}"#).is_err());
    // A skipped field is never written.
    assert_eq!(
        to_string(&Flagged {
            id: 2,
            tags: vec![],
            cache: 3
        })
        .unwrap(),
        r#"{"id":2,"tags":[]}"#
    );
}

#[test]
fn first_duplicate_key_wins() {
    let r: Record = from_str(r#"{"id":1,"power":2.0,"id":3}"#).unwrap();
    assert_eq!(r.id, 1);
    // A later duplicate is only syntax-checked, not decoded ...
    let r: Record = from_str(r#"{"id":1,"power":2.0,"id":"three"}"#).unwrap();
    assert_eq!(r.id, 1);
    // ... but malformed syntax there is still an error.
    assert!(from_str::<Record>(r#"{"id":1,"power":2.0,"id":[}"#).is_err());
}

#[test]
fn unknown_keys_are_skipped_after_a_syntax_check() {
    let ok = r#"{"id":1,"extra":{"a":[1,-2.5e3,{"b":null}],"c":"é\"","d":true},"power":3.0}"#;
    let r: Record = from_str(ok).unwrap();
    assert_eq!((r.id, r.power), (1, 3.0));
    for bad in [
        r#"{"id":1,"extra":[1,2}"#,
        r#"{"id":1,"extra":{"a":tru}}"#,
        r#"{"id":1,"extra":{"a" 1}}"#,
        r#"{"id":1,"extra":{"a":1,"b" 2}}"#,
        r#"{"id":1,"extra":{"a":1,2:3}}"#,
        r#"{"id":1,"extra":"\q"}"#,
        r#"{"id":1,"extra":1.2.3}"#,
        r#"{"id":1,"extra":-}"#,
        r#"{"id":1,"extra":[1,]}"#,
        r#"{"id":1,"extra":{"a":1,}}"#,
        r#"{"id":1,"extra":"unterminated}"#,
        r#"{"id":1,"extra":}"#,
    ] {
        assert!(from_str::<Record>(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn numbers_follow_the_json_grammar() {
    // RFC 8259 rejects leading zeros and a `.` or exponent without
    // digits; decoding a known field and skipping an unknown key agree.
    for bad in [
        "01", "-01", "00", "1.", "0.", "1.e5", "1e", "1e+", "-", "+1", ".5", "1.2.3",
    ] {
        let known = format!(r#"{{"id":1,"power":{bad}}}"#);
        assert!(from_str::<Record>(&known).is_err(), "decoded {known}");
        let unknown = format!(r#"{{"id":1,"extra":[{bad}],"power":0.5}}"#);
        assert!(from_str::<Record>(&unknown).is_err(), "skipped {unknown}");
        assert!(parse(bad).is_err(), "parsed {bad}");
    }
    for good in [
        "0", "-0", "0.5", "-0.0", "10", "1e5", "1E-7", "2.5e+3", "1e16",
    ] {
        let known = format!(r#"{{"id":1,"power":{good}}}"#);
        let r: Record = from_str(&known).unwrap();
        assert_eq!(r.power, good.parse::<f64>().unwrap(), "{good}");
        let unknown = format!(r#"{{"id":1,"extra":[{good}],"power":0.5}}"#);
        assert!(from_str::<Record>(&unknown).is_ok(), "{unknown}");
    }
}

#[test]
fn trailing_characters_are_rejected() {
    assert!(from_str::<Record>("{\"id\":1} \n\t").is_ok());
    let err = from_str::<Record>(r#"{"id":1} x"#).unwrap_err().to_string();
    assert!(err.contains("trailing characters at byte 9"), "{err}");
    assert!(from_str::<u32>("1 2").is_err());
    assert!(from_str::<Vec<u32>>("[1]]").is_err());
    assert!(parse("{} {}").is_err());
}

#[test]
fn enums_decode_both_forms() {
    assert_eq!(from_str::<Shape>(r#""Line""#).unwrap(), Shape::Line);
    let rect = Shape::Rect {
        width: 2,
        height: 1.5,
    };
    let text = to_string(&rect).unwrap();
    assert_eq!(text, r#"{"Rect":{"width":2,"height":1.5}}"#);
    assert_eq!(from_str::<Shape>(&text).unwrap(), rect);
    // The first entry picks the variant; later entries are skipped.
    assert_eq!(
        from_str::<Shape>(r#"{"Rect":{"height":1.5,"width":2},"Point":{}}"#).unwrap(),
        rect
    );
    assert_eq!(
        from_str::<Vec<Shape>>(r#"["Point",{"Rect":{"width":1,"height":0.5}}]"#).unwrap(),
        vec![
            Shape::Point,
            Shape::Rect {
                width: 1,
                height: 0.5
            }
        ]
    );
    for bad in [
        r#""Circle""#,
        r#"{"Circle":{}}"#,
        r#"{}"#,
        r#"{"Point":{}}"#,
        r#"{"Rect":[2,1.5]}"#,
        r#"{"Rect":{"height":1.5}}"#,
        "3",
    ] {
        assert!(from_str::<Shape>(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn tuples_need_their_exact_length() {
    assert_eq!(from_str::<(u32, f64)>("[1, 2.5]").unwrap(), (1, 2.5));
    assert_eq!(from_str::<(u32, u32, u32)>("[1,2,3]").unwrap(), (1, 2, 3));
    for bad in ["[1]", "[]", "[1,2.5,3]"] {
        let err = from_str::<(u32, f64)>(bad).unwrap_err().to_string();
        assert!(err.contains("expected array of length 2"), "{bad}: {err}");
    }
    assert!(from_str::<[u32; 2]>("[1,2,3]").is_err());
    assert_eq!(from_str::<[u32; 2]>("[1,2]").unwrap(), [1, 2]);
}

#[test]
fn integer_fields_accept_integral_floats_only() {
    assert_eq!(from_str::<u32>("1.0").unwrap(), 1);
    assert_eq!(from_str::<u32>("2e3").unwrap(), 2000);
    assert_eq!(from_str::<i32>("-1.0").unwrap(), -1);
    for bad in ["-1", "1.5", "4294967296", "\"1\"", "null", "true"] {
        assert!(from_str::<u32>(bad).is_err(), "u32 accepted {bad}");
    }
    assert!(from_str::<u8>("256").is_err());
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
}

#[test]
fn floats_decode_bit_exact() {
    for x in [
        0.1f64,
        -0.0,
        1e-308,
        5e-324,
        1.7976931348623157e308,
        123456.789,
        -2.5e-7,
    ] {
        let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
    }
    // An integer without fraction or exponent widens exactly, as before:
    // `-0` is the integer zero.
    assert_eq!(from_str::<f64>("-0").unwrap().to_bits(), 0.0f64.to_bits());
    assert_eq!(
        from_str::<f64>("9007199254740993").unwrap(),
        9007199254740992.0
    );
}

#[test]
fn escaped_keys_and_strings() {
    // An escaped key matches its field: `\u0069d` is `id`.
    let r: Record = from_str(r#"{"\u0069d":4,"n\u006fte":"a\"b\\c\/d\n\té\ud800"}"#).unwrap();
    assert_eq!(r.id, 4);
    assert_eq!(r.note.as_deref(), Some("a\"b\\c/d\n\té\u{fffd}"));
    let odd = "quote \" backslash \\ newline \n tab \t bell \u{7} é 🚀";
    let back: String = from_str(&to_string(odd).unwrap()).unwrap();
    assert_eq!(back, odd);
    for bad in [r#""\x""#, r#""\u12""#, r#""\uzzzz""#, r#""abc"#, r#""\"#] {
        assert!(from_str::<String>(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn maps_and_sets() {
    use std::collections::{HashMap, HashSet};
    let m: HashMap<u32, f64> = from_str(r#"{"1":0.5,"2":1.5,"1":2.5}"#).unwrap();
    // A map keeps the last of a repeated key.
    assert_eq!(m.get(&1), Some(&2.5));
    assert_eq!(m.len(), 2);
    assert!(from_str::<HashMap<u32, f64>>(r#"{"x":1}"#).is_err());
    let s: HashSet<u32> = from_str("[3,1,3]").unwrap();
    assert_eq!(to_string(&s).unwrap(), "[1,3]");
}

#[test]
fn parse_limits_nesting_depth() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(serde::json::MAX_DEPTH)).is_ok());
    let err = parse(&nested(serde::json::MAX_DEPTH + 1))
        .unwrap_err()
        .to_string();
    assert!(err.contains("nesting deeper than"), "{err}");
    // Far deeper input is the same clean error, not a stack overflow.
    assert!(parse(&"[".repeat(200_000)).is_err());
    assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    // Typed decoding of a Value goes through the same limit.
    assert!(from_str::<Value>(&nested(1_000)).is_err());
}

#[test]
fn skipping_is_iterative() {
    let depth = 200_000;
    let deep = format!(
        r#"{{"id":1,"extra":{}{{"k":{}}}{},"power":0.5}}"#,
        "[".repeat(depth),
        "[".repeat(depth) + &"]".repeat(depth),
        "]".repeat(depth)
    );
    let r: Record = from_str(&deep).unwrap();
    assert_eq!((r.id, r.power), (1, 0.5));
    let unbalanced = format!(r#"{{"id":1,"extra":{}}}"#, "[".repeat(depth));
    assert!(from_str::<Record>(&unbalanced).is_err());
}

#[test]
fn parse_round_trips_a_document() {
    let text = r#"{"a":[1,-2,3.5,true,null,"s"],"b":{"c":{}},"d":[]}"#;
    let v = parse(text).unwrap();
    assert_eq!(to_string(&v).unwrap(), text);
    assert_eq!(from_str::<Value>(text).unwrap(), v);
    assert_eq!(
        serde_json::find(v.as_object().unwrap(), "d"),
        Some(&Value::Array(vec![]))
    );
}

#[test]
fn to_writer_streams_the_bytes_of_to_string() {
    let chunk = serde::json::WRITE_CHUNK;
    let doc: Vec<Record> = (0..chunk as u32 / 4)
        .map(|id| Record {
            id,
            power: f64::from(id) * 0.1,
            note: (id % 3 == 0).then(|| "x".repeat(id as usize % 97)),
        })
        .collect();
    let text = to_string(&doc).unwrap();
    assert!(text.len() > 8 * chunk, "{} bytes", text.len());

    /// Keeps what it is given and the size of the largest write.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        largest_write: usize,
    }
    impl std::io::Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.largest_write = self.largest_write.max(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut sink = Recorder::default();
    serde_json::to_writer(&mut sink, &doc).unwrap();
    assert!(sink.bytes == text.as_bytes());
    // The text arrives in chunks: the writer never held the document.
    assert!(sink.largest_write <= 2 * chunk, "{}", sink.largest_write);
}

#[test]
fn to_writer_reports_a_failing_sink() {
    /// Accepts `room` bytes, then fails every write.
    struct Full {
        room: usize,
        written: usize,
    }
    impl std::io::Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written >= self.room {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.room - self.written);
            self.written += n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let doc = vec![1.5f64; serde::json::WRITE_CHUNK];
    let mut sink = Full {
        room: serde::json::WRITE_CHUNK / 2,
        written: 0,
    };
    let err = serde_json::to_writer(&mut sink, &doc)
        .unwrap_err()
        .to_string();
    assert!(err.contains("disk full"), "{err}");
    assert_eq!(sink.written, serde::json::WRITE_CHUNK / 2);
    // A sink that fails only at the end is an error too.
    let mut sink = Full {
        room: 4,
        written: 0,
    };
    assert!(serde_json::to_writer(&mut sink, &[1u32, 2, 3]).is_err());
}
