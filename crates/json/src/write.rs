//! Compact and pretty JSON writers, matching `serde_json`'s output for the
//! value shapes this workspace produces.

use crate::{Number, Value};
use std::fmt::Write as _;

/// Serialises a value with no whitespace: `{"a":[1,2]}`.
pub fn write_compact(value: &Value) -> String {
    let mut out = String::new();
    compact(value, &mut out);
    out
}

/// Serialises a value with 2-space indentation, the `serde_json` pretty
/// layout (empty arrays/objects stay on one line).
pub fn write_pretty(value: &Value) -> String {
    let mut out = String::new();
    pretty(value, 0, &mut out);
    out
}

fn compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                compact(item, out);
            }
            out.push('}');
        }
    }
}

fn pretty(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(key, out);
                out.push_str(": ");
                pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => compact(other, out),
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(n: Number, out: &mut String) {
    match n {
        Number::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Number::F64(v) => write_float(v, out),
        Number::F32(v) => {
            // Serialised in f32 shortest form, like serde_json does for
            // f32 values; non-finite floats become null. Callers that must
            // not launder (checkpoints) serialise raw bits, not floats —
            // see tdfm-nn's SavedModel `params_bits`.
            if v.is_finite() {
                let start = out.len();
                let _ = write!(out, "{v}");
                ensure_float_marker(start, out);
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        ensure_float_marker(start, out);
    } else {
        out.push_str("null");
    }
}

/// `Display` prints `1` for `1.0`; serde_json prints `1.0`. Append `.0`
/// when the rendered text has no fraction or exponent.
fn ensure_float_marker(start: usize, out: &mut String) {
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn floats_keep_a_decimal_marker() {
        let mut out = String::new();
        write_number(Number::F64(1.0), &mut out);
        assert_eq!(out, "1.0");
        out.clear();
        write_number(Number::F32(0.1), &mut out);
        assert_eq!(out, "0.1");
        out.clear();
        write_number(Number::F64(f64::NAN), &mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let doc = parse(r#"{"a":[1,2.5,"x"],"b":{},"c":[]}"#).unwrap();
        assert_eq!(write_compact(&doc), r#"{"a":[1,2.5,"x"],"b":{},"c":[]}"#);
        let pretty = write_pretty(&doc);
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2.5,\n    \"x\"\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
        assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn strings_escape_controls() {
        let mut out = String::new();
        write_string("a\"b\\c\n\u{0001}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
