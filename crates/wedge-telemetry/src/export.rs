//! The hand-rolled JSON writer (the offline build has no serde), with
//! correct string escaping — shared by [`crate::TelemetrySnapshot::to_json`]
//! and by `wedge_bench::report`'s `BENCH_*.json` artifact emitters, which
//! previously each rolled their own (inconsistently escaped) emitter.

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A minimal streaming JSON object/array writer.
///
/// ```
/// use wedge_telemetry::JsonWriter;
/// let mut w = JsonWriter::object();
/// w.field_str("bench", "listener");
/// w.field_u64("shards", 4);
/// w.nested("speedup", |w| w.field_f64("vs_single", 3.25));
/// assert_eq!(
///     w.finish(),
///     r#"{"bench":"listener","shards":4,"speedup":{"vs_single":3.25}}"#
/// );
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    first: bool,
}

impl JsonWriter {
    /// Start a top-level object.
    pub fn object() -> JsonWriter {
        JsonWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape_json(name));
        self.buf.push_str("\":");
    }

    /// A string field (escaped).
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        self.buf.push_str(&escape_json(value));
        self.buf.push('"');
    }

    /// An unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.buf.push_str(&value.to_string());
    }

    /// A float field, rendered with enough precision to round-trip the
    /// interesting range (JSON has no NaN/Inf: they render as `null`).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// A boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// A nested object field, built by `fill`.
    pub fn nested(&mut self, name: &str, fill: impl FnOnce(&mut JsonWriter)) {
        self.key(name);
        let mut inner = JsonWriter::object();
        fill(&mut inner);
        self.buf.push_str(&inner.finish());
    }

    /// An array field, built by `fill` (empty `fill` renders `[]`).
    pub(crate) fn field_arr(&mut self, name: &str, fill: impl FnOnce(&mut JsonArrayWriter)) {
        self.key(name);
        let mut arr = JsonArrayWriter {
            buf: String::from("["),
            first: true,
        };
        fill(&mut arr);
        arr.buf.push(']');
        self.buf.push_str(&arr.buf);
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// The array half of [`JsonWriter`]: append items inside a
/// `JsonWriter::field_arr` callback.
#[derive(Debug)]
pub(crate) struct JsonArrayWriter {
    buf: String,
    first: bool,
}

impl JsonArrayWriter {
    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    /// Append an object item, built by `fill`.
    pub(crate) fn item_obj(&mut self, fill: impl FnOnce(&mut JsonWriter)) {
        self.sep();
        let mut inner = JsonWriter::object();
        fill(&mut inner);
        self.buf.push_str(&inner.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(escape_json(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain µs"), "plain µs");
    }

    #[test]
    fn writer_produces_well_formed_nested_objects() {
        let mut w = JsonWriter::object();
        w.field_str("name", "needs \"escaping\"");
        w.field_u64("n", 42);
        w.field_bool("ok", true);
        w.field_f64("ratio", 2.5);
        w.field_f64("bad", f64::NAN);
        w.nested("inner", |w| {
            w.field_u64("x", 1);
            w.field_u64("y", 2);
        });
        let json = w.finish();
        assert_eq!(
            json,
            r#"{"name":"needs \"escaping\"","n":42,"ok":true,"ratio":2.5,"bad":null,"inner":{"x":1,"y":2}}"#
        );
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonWriter::object().finish(), "{}");
    }

    #[test]
    fn arrays_hold_objects() {
        let mut w = JsonWriter::object();
        w.field_arr("empty", |_| {});
        w.field_arr("objs", |a| {
            a.item_obj(|w| w.field_str("s", "a\"b"));
            a.item_obj(|w| w.field_u64("x", 7));
        });
        assert_eq!(w.finish(), r#"{"empty":[],"objs":[{"s":"a\"b"},{"x":7}]}"#);
    }
}
