//! The telemetry layer's one hand-rolled JSON writer (no external deps):
//! the metrics snapshot and the Chrome-trace export both quote strings
//! through [`push_string`].

use std::fmt::Write as _;

/// `"key":` in the document under construction, after a comma unless it
/// opens its object.
pub(super) fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":");
}

pub(super) fn push_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    let _ = write!(out, "{value}");
}

pub(super) fn push_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_string(out, value);
}

/// `s` as a JSON string: quoted, with `"`, `\` and control characters
/// escaped.
pub(super) fn push_string(out: &mut String, s: &str) {
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

/// [`push_string`] into a fresh `String`, for `format!` templates.
pub(super) fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}
