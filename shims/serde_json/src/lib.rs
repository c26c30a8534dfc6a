//! Offline stand-in for the real `serde_json` crate, built on the
//! workspace's `serde` shim. Provides the handful of entry points the
//! workspace uses: `to_string`, `to_string_pretty`, `to_writer`,
//! `from_str`, `from_reader`, plus the [`Value`]/[`Error`] types.

pub use serde::json::{find, parse, Error, Value};

use serde::json::{Reader, Writer};

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::new(false);
    value.serialize_json(&mut w);
    Ok(w.into_string())
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::new(true);
    value.serialize_json(&mut w);
    Ok(w.into_string())
}

/// Serializes a value as compact JSON into an `io::Write`, in chunks of
/// about [`serde::json::WRITE_CHUNK`] bytes: the whole text is never
/// held in memory. The same bytes as [`to_string`].
pub fn to_writer<W: std::io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let mut w = Writer::streaming(&mut writer);
    value.serialize_json(&mut w);
    w.finish().map_err(|e| Error::io(&e))
}

/// Decodes a value from a JSON string in one pass; anything but
/// whitespace after the value is an error.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    Reader::new(s).document()
}

/// Decodes a value from a JSON reader in one pass, through a window of
/// about [`serde::json::READ_WINDOW`] bytes: the whole text is never
/// held in memory. Accepts and rejects what [`from_str`] does, with
/// the same messages; input that cannot be read or is not UTF-8 is an
/// error of [`Error::io_error_kind`] `Some`.
pub fn from_reader<R: std::io::Read, T: serde::Deserialize>(mut reader: R) -> Result<T, Error> {
    Reader::from_read(&mut reader).document()
}
