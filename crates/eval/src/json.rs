//! The JSON text of the experiment dumps under `target/experiments/`.
//!
//! A result writes itself straight into a `String` through [`ToJson`];
//! there is no intermediate value tree. The layout is pretty-printed:
//! two-space indent, `": "` after each key, object members in declaration
//! order, and `[]` / `{}` for an empty array or object. Floats print with
//! `{:?}`, so they always carry a `.` or an exponent, and non-finite
//! floats print as `null`. `json_object!` lists a struct's dumped fields.

use std::fmt::Write;

/// A value that writes itself as pretty-printed JSON.
pub trait ToJson {
    /// Appends `self` to `out`. `depth` is the nesting level of the value:
    /// the lines inside an array or object are indented one level deeper.
    fn write_json(&self, out: &mut String, depth: usize);
}

/// The pretty-printed JSON text of `value`.
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

/// Implements [`ToJson`] for a struct as an object of the listed fields,
/// in the order given.
macro_rules! json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, depth: usize) {
                $crate::json::write_object(
                    out,
                    depth,
                    &[$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),+],
                );
            }
        }
    };
}

pub(crate) use json_object;

/// Writes an object of `(key, value)` members: the body of every
/// `json_object!` impl.
pub(crate) fn write_object(out: &mut String, depth: usize, members: &[(&str, &dyn ToJson)]) {
    write_seq(
        out,
        depth,
        ('{', '}'),
        members,
        |(key, value), out, depth| {
            write_string(key, out);
            out.push_str(": ");
            value.write_json(out, depth);
        },
    );
}

fn write_seq<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&T, &mut String, usize),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        write_item(item, out, depth + 1);
    }
    newline(out, depth);
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _depth: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_to_json!(u32, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _depth: usize) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _depth: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _depth: usize) {
        write_string(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_str().write_json(out, depth);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, depth: usize) {
        (**self).write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_seq(out, depth, ('[', ']'), self, |item, out, depth| {
            item.write_json(out, depth);
        });
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Inner {
        flag: bool,
        values: Vec<f64>,
    }

    struct Outer {
        name: String,
        count: usize,
        inner: Inner,
        empty: Vec<u32>,
    }

    json_object!(Inner { flag, values });
    json_object!(Outer {
        name,
        count,
        inner,
        empty,
    });

    #[test]
    fn nested_objects_and_arrays_indent_two_spaces() {
        let value = Outer {
            name: "x".into(),
            count: 3,
            inner: Inner {
                flag: true,
                values: vec![1.5, 2.0],
            },
            empty: Vec::new(),
        };
        assert_eq!(
            to_json(&value),
            "{\n  \"name\": \"x\",\n  \"count\": 3,\n  \"inner\": {\n    \"flag\": true,\n    \
             \"values\": [\n      1.5,\n      2.0\n    ]\n  },\n  \"empty\": []\n}"
        );
        assert_eq!(
            to_json(&[[1u32], [2]]),
            "[\n  [\n    1\n  ],\n  [\n    2\n  ]\n]"
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(
            to_json("say \"hi\"\\\n\u{1}\t"),
            r#""say \"hi\"\\\n\u0001\t""#
        );
        assert_eq!(to_json("\u{1f}é"), "\"\\u001fé\"");
    }

    #[test]
    fn floats_keep_a_decimal_marker() {
        assert_eq!(to_json(&2.0f64), "2.0");
        assert_eq!(to_json(&-0.25f64), "-0.25");
        assert_eq!(to_json(&1e21f64), "1e21");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(
            to_json(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            "[\n  null,\n  null,\n  null\n]"
        );
    }
}
