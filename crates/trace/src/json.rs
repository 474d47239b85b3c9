//! The engine's one JSON writer (the workspace has no serde). Every stats
//! document — `ExecStats`, the metrics snapshot, the cache block, the
//! server's stats endpoint, `reproduce --stats-json` — and the Chrome
//! trace export are written through it, so they share one string escaper
//! and one comma rule.
//!
//! Objects and arrays are written by closures, which keeps brackets
//! balanced; the writer places commas itself:
//!
//! ```
//! let doc = vida_trace::json::object(|w| {
//!     w.key("hits").int(3u64);
//!     w.key("rate").float(0.75, 2);
//!     w.key("tags").array(|w| w.string("a\"b"));
//! });
//! assert_eq!(doc, r#"{"hits":3,"rate":0.75,"tags":["a\"b"]}"#);
//! ```

use std::fmt::{Display, Write as _};

/// Integer types the writer prints verbatim.
pub trait Int: Display {}

macro_rules! int_types {
    ($($t:ty),*) => { $(impl Int for $t {})* };
}
int_types!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Appends one JSON value to a string; [`object`] returns the text.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// True after a complete value or member: the next one needs a comma.
    comma: bool,
}

/// Write one top-level object and return its text.
pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(body);
    w.out
}

impl JsonWriter {
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.nested('{', '}', body);
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.nested('[', ']', body);
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.value().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// A string literal: `"`, `\` and every char below U+0020 are escaped.
    pub fn string(&mut self, s: &str) {
        let out = self.value();
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

    pub fn int(&mut self, v: impl Int) {
        let _ = write!(self.value(), "{v}");
    }

    /// `v` with exactly `decimals` digits after the point; `null` when `v`
    /// is not finite (JSON has no NaN or infinity).
    pub fn float(&mut self, v: f64, decimals: usize) {
        if v.is_finite() {
            let _ = write!(self.value(), "{v:.decimals$}");
        } else {
            self.null();
        }
    }

    pub fn bool(&mut self, v: bool) {
        self.value().push_str(if v { "true" } else { "false" });
    }

    pub fn null(&mut self) {
        self.value().push_str("null");
    }

    /// An already-serialized JSON value, embedded as is.
    pub fn raw(&mut self, json: &str) {
        self.value().push_str(json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut w = JsonWriter::default();
        w.string(s);
        w.out
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("\r\t\u{1f}\u{7f}"), "\"\\r\\t\\u001f\u{7f}\"");
    }

    #[test]
    fn commas_separate_members_and_elements_at_every_depth() {
        let doc = object(|w| {
            w.key("a").int(1u8);
            w.key("b").array(|w| {
                w.int(-2i64);
                w.object(|_| {});
                w.array(|w| w.bool(true));
                w.null();
            });
            w.key("c").raw("{\"x\":0}");
            w.key("d").float(2.0 / 3.0, 4);
            w.key("e").float(f64::NAN, 3);
        });
        assert_eq!(
            doc,
            "{\"a\":1,\"b\":[-2,{},[true],null],\"c\":{\"x\":0},\"d\":0.6667,\"e\":null}"
        );
    }
}
