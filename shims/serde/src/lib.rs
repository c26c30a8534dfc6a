//! Offline stand-in for the real `serde` crate.
//!
//! The container this workspace builds in has no access to a crates.io
//! mirror, so `serde` is provided as a local path crate via
//! `[patch.crates-io]`. It is deliberately *not* a generic
//! serializer-framework: the workspace only ever serializes to and from
//! JSON, so the two traits here speak the in-crate [`json`] data model
//! directly. [`Serialize`] drives a [`json::Writer`]; [`Deserialize`]
//! pulls tokens from a [`json::Reader`] cursor, so a typed decode walks
//! the text once and builds its `Vec`s and structs directly, with no
//! intermediate [`json::Value`] tree. The derive macros (re-exported
//! from the sibling `serde_derive` shim) generate impls against this
//! surface, and the `serde_json` shim provides the usual
//! `to_string`/`from_str` entry points on top.
//!
//! Determinism note: everything serializes in declaration/insertion
//! order, and unordered collections (`HashSet`) are sorted before
//! writing, so serializing the same value twice always produces
//! identical bytes — the property the workspace's determinism tests
//! rely on.

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// A value that can write itself to a JSON [`json::Writer`].
pub trait Serialize {
    /// Appends `self` to the writer as one JSON value.
    fn serialize_json(&self, w: &mut json::Writer);
}

/// A value that can decode itself from a JSON [`json::Reader`].
pub trait Deserialize: Sized {
    /// Reads exactly one JSON value from the cursor and builds `Self`.
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, w: &mut json::Writer) {
        (**self).serialize_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, w: &mut json::Writer) {
        (**self).serialize_json(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        T::deserialize_json(r).map(Box::new)
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, w: &mut json::Writer) {
                w.write_u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
                let u = r.u64()?;
                <$t>::try_from(u).map_err(|_| {
                    json::Error::msg(format!("{u} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, w: &mut json::Writer) {
                w.write_i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
                let i = r.i64()?;
                <$t>::try_from(i).map_err(|_| {
                    json::Error::msg(format!("{i} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.write_f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        // Non-finite floats serialize as JSON null; round them back to
        // NaN so summary structs survive a round trip.
        if r.eat_null() {
            Ok(f64::NAN)
        } else {
            r.f64()
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.write_f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        f64::deserialize_json(r).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.write_bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        r.bool()
    }
}

impl Serialize for str {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.write_str(self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.write_str(self);
    }
}

impl Deserialize for String {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        r.str().map(std::borrow::Cow::into_owned)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, w: &mut json::Writer) {
        w.begin_array();
        for item in self {
            item.serialize_json(w);
        }
        w.end_array();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, w: &mut json::Writer) {
        self.as_slice().serialize_json(w);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        let items = Vec::<T>::deserialize_json(r)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| json::Error::msg(format!("expected array of {N} elements, found {got}")))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, w: &mut json::Writer) {
        self.as_slice().serialize_json(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::deserialize_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<K, V> Serialize for std::collections::HashMap<K, V>
where
    K: std::fmt::Display + Ord + std::hash::Hash + Eq,
    V: Serialize,
{
    fn serialize_json(&self, w: &mut json::Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.begin_object();
        for (k, v) in entries {
            w.key(&k.to_string());
            v.serialize_json(w);
        }
        w.end_object();
    }
}

impl<K, V> Deserialize for std::collections::HashMap<K, V>
where
    K: std::str::FromStr + std::hash::Hash + Eq,
    V: Deserialize,
{
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        // A repeated key overwrites the earlier entry.
        let mut map = Self::new();
        r.object(|r, k| {
            let key = k
                .parse::<K>()
                .map_err(|_| json::Error::msg(format!("invalid map key {k:?}")))?;
            map.insert(key, V::deserialize_json(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, w: &mut json::Writer) {
        match self {
            Some(x) => x.serialize_json(w),
            None => w.write_null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        if r.eat_null() {
            Ok(None)
        } else {
            T::deserialize_json(r).map(Some)
        }
    }
}

macro_rules! impl_tuple {
    ($len:literal; $($t:ident $slot:ident : $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, w: &mut json::Writer) {
                w.begin_array();
                $(self.$idx.serialize_json(w);)+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
                $(let mut $slot = None;)+
                let mut len = 0usize;
                r.array(|r| {
                    match len {
                        $($idx => $slot = Some($t::deserialize_json(r)?),)+
                        _ => r.skip_value()?,
                    }
                    len += 1;
                    Ok(())
                })?;
                match ($($slot,)+) {
                    ($(Some($slot),)+) if len == $len => Ok(($($slot,)+)),
                    _ => Err(json::Error::msg(format!(
                        "expected array of length {}, found {len}", $len
                    ))),
                }
            }
        }
    };
}
impl_tuple!(2; A a: 0, B b: 1);
impl_tuple!(3; A a: 0, B b: 1, C c: 2);
impl_tuple!(4; A a: 0, B b: 1, C c: 2, D d: 3);

impl<T> Serialize for std::collections::HashSet<T>
where
    T: Serialize + Ord,
{
    fn serialize_json(&self, w: &mut json::Writer) {
        // Sorted so identical sets always serialize to identical bytes.
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.begin_array();
        for item in items {
            item.serialize_json(w);
        }
        w.end_array();
    }
}

impl<T> Deserialize for std::collections::HashSet<T>
where
    T: Deserialize + Eq + std::hash::Hash,
{
    fn deserialize_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        let mut items = Self::new();
        r.array(|r| {
            items.insert(T::deserialize_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}
