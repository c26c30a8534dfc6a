//! Offline stand-in for the real `serde_derive` proc-macro crate.
//!
//! The workspace builds in an environment with no registry access, so
//! `serde`/`serde_derive` are provided as local path crates via
//! `[patch.crates-io]`. This derive supports exactly the shapes the
//! workspace uses:
//!
//! * structs with named fields (honouring `#[serde(default)]` and
//!   `#[serde(skip)]` on fields),
//! * single-field tuple structs (always serialized transparently, as
//!   with `#[serde(transparent)]`),
//! * enums with unit variants (serialized as the variant name string),
//! * enums with struct variants (externally tagged:
//!   `{"Variant": {...fields...}}`).
//!
//! Anything else (generics, multi-field tuple structs, newtype enum
//! variants) panics at compile time with a clear message, which is the
//! signal to extend this shim.
//!
//! A derived `Deserialize` pulls its value from a `json::Reader` in one
//! pass: an object decodes through a loop that dispatches each key to
//! its field's slot.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Clone)]
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    skip: bool,
    default: bool,
}

enum Shape {
    NamedStruct(Vec<Field>),
    Newtype,
    Enum(Vec<(String, Option<Vec<Field>>)>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Flags found in `#[serde(...)]` attributes.
#[derive(Default)]
struct SerdeFlags {
    skip: bool,
    default: bool,
    transparent: bool,
}

/// Skips attributes starting at `tokens[i]`, accumulating serde flags.
/// Returns the index of the first non-attribute token.
fn skip_attrs(tokens: &[TokenTree], mut i: usize, flags: &mut SerdeFlags) -> usize {
    while let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if let Some(TokenTree::Ident(id)) = inner.first() {
                if id.to_string() == "serde" {
                    if let Some(TokenTree::Group(args)) = inner.get(1) {
                        for t in args.stream() {
                            if let TokenTree::Ident(word) = t {
                                match word.to_string().as_str() {
                                    "skip" => flags.skip = true,
                                    "default" => flags.default = true,
                                    "transparent" => flags.transparent = true,
                                    other => panic!(
                                        "serde_derive shim: unsupported serde attribute `{other}`"
                                    ),
                                }
                            }
                        }
                    }
                }
            }
            i += 2;
        } else {
            break;
        }
    }
    i
}

/// Skips an optional `pub` / `pub(...)` visibility qualifier.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Parses the body of `{ ... }` as named fields.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut flags = SerdeFlags::default();
        i = skip_attrs(&tokens, i, &mut flags);
        if i >= tokens.len() {
            break;
        }
        i = skip_vis(&tokens, i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive shim: expected field name, found `{other}`"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after `{name}`, found `{other}`"),
        }
        // The type: everything until a comma at angle-bracket depth 0.
        let ty_start = i;
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let ty = tokens[ty_start..i]
            .iter()
            .cloned()
            .collect::<TokenStream>()
            .to_string();
        i += 1;
        fields.push(Field {
            name,
            ty,
            skip: flags.skip,
            default: flags.default,
        });
    }
    fields
}

/// Counts fields of a tuple struct body `( ... )`.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    let mut trailing_comma = false;
    for t in stream {
        any = true;
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if !any {
        0
    } else {
        commas + 1 - usize::from(trailing_comma)
    }
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Option<Vec<Field>>)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut flags = SerdeFlags::default();
        i = skip_attrs(&tokens, i, &mut flags);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive shim: expected variant name, found `{other}`"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                i += 1;
                Some(f)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: newtype enum variant `{name}` is unsupported")
            }
            _ => None,
        };
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push((name, fields));
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut flags = SerdeFlags::default();
    let mut i = skip_attrs(&tokens, 0, &mut flags);
    i = skip_vis(&tokens, i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, found `{other}`"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, found `{other}`"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic item `{name}` is unsupported");
        }
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                match count_tuple_fields(g.stream()) {
                    1 => Shape::Newtype,
                    n => panic!(
                        "serde_derive shim: tuple struct `{name}` with {n} fields is unsupported"
                    ),
                }
            }
            _ => panic!("serde_derive shim: unit struct `{name}` is unsupported"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde_derive shim: malformed enum `{name}`"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    };
    Item { name, shape }
}

fn wrap_impl(trait_body: String) -> TokenStream {
    format!("#[automatically_derived]\n#[allow(unused, clippy::all)]\n{trait_body}")
        .parse()
        .expect("serde_derive shim generated invalid Rust")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Newtype => "::serde::Serialize::serialize_json(&self.0, w);".to_string(),
        Shape::NamedStruct(fields) => {
            let mut b = String::from("w.begin_object();");
            for f in fields.iter().filter(|f| !f.skip) {
                b.push_str(&format!(
                    "w.key(\"{n}\"); ::serde::Serialize::serialize_json(&self.{n}, w);",
                    n = f.name
                ));
            }
            b.push_str("w.end_object();");
            b
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, fields) in variants {
                match fields {
                    None => arms.push_str(&format!("{name}::{v} => w.write_str(\"{v}\"),")),
                    Some(fs) => {
                        let pat: Vec<&str> = fs
                            .iter()
                            .filter(|f| !f.skip)
                            .map(|f| f.name.as_str())
                            .collect();
                        let mut inner =
                            format!("w.begin_object(); w.key(\"{v}\"); w.begin_object();");
                        for n in &pat {
                            inner.push_str(&format!(
                                "w.key(\"{n}\"); ::serde::Serialize::serialize_json({n}, w);"
                            ));
                        }
                        inner.push_str("w.end_object(); w.end_object();");
                        arms.push_str(&format!(
                            "{name}::{v} {{ {fields_pat} .. }} => {{ {inner} }},",
                            fields_pat = pat.iter().map(|n| format!("{n},")).collect::<String>()
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    wrap_impl(format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize_json(&self, w: &mut ::serde::json::Writer) {{ {body} }}\n\
         }}"
    ))
}

/// An expression that reads one object into `ctor { ..fields }` (a
/// struct or a struct variant of `ty`). It is a key-dispatch loop over
/// the object's entries with one slot per field: the first occurrence
/// of a key wins, and repeated, unknown and `#[serde(skip)]` keys are
/// skipped after a syntax check. A missing field decodes as `null`
/// would (see `json::missing`) unless it is `#[serde(default)]`.
fn named_fields_decode(ty: &str, ctor: &str, fields: &[Field]) -> String {
    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut slots = String::new();
    let mut arms = String::new();
    for f in &live {
        let (n, t) = (&f.name, &f.ty);
        slots.push_str(&format!(
            "let mut __{n}: ::core::option::Option<{t}> = ::core::option::Option::None;"
        ));
        arms.push_str(&format!(
            "\"{n}\" if __{n}.is_none() => __{n} = \
             ::core::option::Option::Some(::serde::Deserialize::deserialize_json(r)?),"
        ));
    }
    let mut init = String::new();
    for f in fields {
        let n = &f.name;
        init.push_str(&if f.skip {
            format!("{n}: ::core::default::Default::default(),")
        } else if f.default {
            format!("{n}: __{n}.unwrap_or_default(),")
        } else {
            format!(
                "{n}: match __{n} {{ ::core::option::Option::Some(v) => v, \
                 ::core::option::Option::None => ::serde::json::missing(\"{ty}\", \"{n}\")? }},"
            )
        });
    }
    format!(
        "{{ {slots} r.object(|r, key| {{ match key {{ {arms} _ => r.skip_value()?, }} \
         ::core::result::Result::Ok(()) }})?; {ctor} {{ {init} }} }}"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let err = "::core::result::Result::Err(::serde::json::Error::msg";
    let body = match &item.shape {
        Shape::Newtype => format!(
            "::core::result::Result::Ok({name}(::serde::Deserialize::deserialize_json(r)?))"
        ),
        Shape::NamedStruct(fields) => format!(
            "::core::result::Result::Ok({})",
            named_fields_decode(name, name, fields)
        ),
        Shape::Enum(variants) => {
            // Unit variants are strings; struct variants are externally
            // tagged, `{"Variant": {..fields..}}`, decided by the first
            // entry (any further entries are skipped).
            let mut b = String::new();
            let unit: String = variants
                .iter()
                .filter(|(_, f)| f.is_none())
                .map(|(v, _)| format!("\"{v}\" => ::core::result::Result::Ok({name}::{v}),"))
                .collect();
            if !unit.is_empty() {
                b.push_str(&format!(
                    "if r.peek() == ::core::option::Option::Some(b'\"') {{ \
                     return match &*r.str()? {{ {unit} other => {err}(format!(\
                     \"unknown variant `{{other}}` for {name}\"))) }}; }}"
                ));
            }
            let structured: String = variants
                .iter()
                .filter_map(|(v, f)| {
                    let decode = named_fields_decode(name, &format!("{name}::{v}"), f.as_ref()?);
                    Some(format!("\"{v}\" => {decode},"))
                })
                .collect();
            if structured.is_empty() {
                b.push_str(&format!("{err}(\"expected string variant for {name}\"))"));
            } else {
                b.push_str(&format!(
                    "let mut out: ::core::option::Option<Self> = ::core::option::Option::None;\
                     r.object(|r, tag| {{ if out.is_some() {{ return r.skip_value(); }} \
                     out = ::core::option::Option::Some(match tag {{ {structured} other => \
                     return {err}(format!(\"unknown variant `{{other}}` for {name}\"))), }}); \
                     ::core::result::Result::Ok(()) }})?;\
                     out.ok_or_else(|| ::serde::json::Error::msg(\"empty enum object for {name}\"))"
                ));
            }
            b
        }
    };
    wrap_impl(format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize_json(r: &mut ::serde::json::Reader<'_>) -> \
         ::core::result::Result<Self, ::serde::json::Error> {{ {body} }}\n\
         }}"
    ))
}
