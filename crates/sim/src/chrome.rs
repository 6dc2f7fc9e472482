//! Chrome `trace_event` JSON export (Perfetto / `chrome://tracing`).
//!
//! Serializes a `Tracer`'s spans and a [`MetricsRegistry`]'s gauge series
//! into the [Trace Event Format]: every actor becomes a named thread track
//! of complete (`"ph":"X"`) events, every gauge becomes a counter
//! (`"ph":"C"`) track. Each span's causal id rides in `args`, so one
//! message's journey can be followed across thread tracks by its `causal`
//! value.
//!
//! The encoder is hand-rolled (the workspace deliberately has no serde) and
//! fully deterministic: timestamps are emitted as exact decimal microseconds
//! derived from integer picoseconds — no floating point — so a fixed-seed
//! run exports byte-identical JSON, which the golden-trace test pins down.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::metrics::MetricsRegistry;
use crate::time::SimTime;
use crate::trace::Tracer;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Exact decimal microseconds from picoseconds (no floating point, so the
/// output is bit-stable): `1_234_567 ps` → `"1.234567"`.
fn us(ps: u64) -> String {
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_string()
    }
}

fn ts(t: SimTime) -> String {
    us(t.since(SimTime::ZERO).as_ps())
}

/// Renders the tracer + metrics state as a Chrome trace_event JSON document.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) (drag-and-drop) or
/// `chrome://tracing`. Thread tracks carry the actor names; counter tracks
/// carry gauge series; span `args` carry `causal` (message id) when set.
pub fn chrome_trace_json(tr: &Tracer, metrics: &MetricsRegistry) -> String {
    let mut ev: Vec<String> = Vec::new();
    // Process + thread naming metadata. One pid (the sim); one tid per actor.
    ev.push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ncs-sim\"}}"
            .to_string(),
    );
    for (i, name) in tr.actors().iter().enumerate() {
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{i}}}}}"
        ));
    }
    // Spans as complete events.
    for (idx, s) in tr.spans().iter().enumerate() {
        let mut args = String::new();
        if s.causal != 0 {
            args.push_str(&format!("\"causal\":{},", s.causal));
        }
        args.push_str(&format!("\"span\":{idx}"));
        ev.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            s.actor.index(),
            esc(s.label),
            esc(s.kind.name()),
            ts(s.t0),
            us(s.t1.since(s.t0).as_ps()),
        ));
    }
    // Gauge series as counter tracks.
    for ((name, idx), series) in metrics.gauges() {
        for &(t, v) in series.samples() {
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"name\":\"{}[{idx}]\",\"ts\":{},\
                 \"args\":{{\"value\":{v}}}}}",
                esc(name),
                ts(t),
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in ev.iter().enumerate() {
        out.push_str(e);
        if i + 1 != ev.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use crate::trace::SpanKind;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn microsecond_encoding_is_exact() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1_000_000), "1");
        assert_eq!(us(1_234_567), "1.234567");
        assert_eq!(us(1_500_000), "1.5");
        assert_eq!(us(800), "0.0008");
    }

    #[test]
    fn export_contains_spans_counters_and_metadata() {
        let mut tr = Tracer::new();
        tr.enable();
        let a = tr.intern("n0/t0");
        tr.span_full(a, SpanKind::Comm, "send", t(0), t(3), 5);
        tr.span_full(a, SpanKind::Comm, "wire", t(1), t(2), 5);
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 2, t(1), 4);
        let json = chrome_trace_json(&tr, &m);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"causal\":5"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("depth[2]"));
        // Balanced top-level document.
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut tr = Tracer::new();
            tr.enable();
            let a = tr.intern("n1/send");
            tr.span_on(a, SpanKind::Overhead, "ctx-switch", t(2), t(4));
            let mut m = MetricsRegistry::new();
            m.gauge_set("q", 0, t(2), 1);
            chrome_trace_json(&tr, &m)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\ny");
    }

    /// Minimal JSON value for the parse-back test below. Hand-rolled
    /// because the workspace deliberately has no serde: the point is to
    /// prove the export is *well-formed JSON*, not merely
    /// substring-matching.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl<'a> Parser<'a> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b.get(self.i), Some(&c), "expected {:?}", c as char);
            self.i += 1;
        }

        fn peek(&mut self) -> u8 {
            self.ws();
            self.b[self.i]
        }

        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut kv = Vec::new();
                    if self.peek() != b'}' {
                        loop {
                            let k = self.string();
                            self.eat(b':');
                            kv.push((k, self.value()));
                            if self.peek() != b',' {
                                break;
                            }
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Json::Obj(kv)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    if self.peek() != b']' {
                        loop {
                            items.push(self.value());
                            if self.peek() != b',' {
                                break;
                            }
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Json::Arr(items)
                }
                b'"' => Json::Str(self.string()),
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                b'n' => {
                    self.i += 4;
                    Json::Null
                }
                _ => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                    Json::Num(s.parse().expect("bad number"))
                }
            }
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            loop {
                match self.b[self.i] {
                    b'"' => {
                        self.i += 1;
                        return out;
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.b[self.i] {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                let hex =
                                    std::str::from_utf8(&self.b[self.i + 1..self.i + 5]).unwrap();
                                let cp = u32::from_str_radix(hex, 16).unwrap();
                                out.push(char::from_u32(cp).unwrap());
                                self.i += 4;
                            }
                            c => panic!("bad escape \\{}", c as char),
                        }
                        self.i += 1;
                    }
                    _ => {
                        // Multi-byte UTF-8 sequences pass through verbatim.
                        let s = std::str::from_utf8(&self.b[self.i..]).unwrap();
                        let c = s.chars().next().unwrap();
                        assert!((c as u32) >= 0x20, "unescaped control char");
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }
    }

    fn parse_json(s: &str) -> Json {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing garbage after JSON document");
        v
    }

    #[test]
    fn hostile_labels_survive_a_json_round_trip() {
        // Every dynamic string sink: actor (thread_name), span label (name),
        // and gauge name (counter track) — all carrying `"`, `\`, and `\n`.
        let actor_name = "evil \"actor\"\nline2\\end";
        let label = "span \"quoted\"\nnewline\ttab";
        let gauge = "g\"auge\n";
        let mut tr = Tracer::new();
        tr.enable();
        let a = tr.intern(actor_name);
        tr.span_on(a, SpanKind::Comm, label, t(1), t(2));
        let mut m = MetricsRegistry::new();
        m.gauge_set(gauge, 0, t(1), 7);
        let json = chrome_trace_json(&tr, &m);

        let doc = parse_json(&json);
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| {
                if e.get("ph").and_then(Json::as_str) == Some("M") {
                    e.get("args")?.get("name")?.as_str()
                } else {
                    None
                }
            })
            .collect();
        assert!(names.contains(&actor_name), "thread_name mangled: {names:?}");
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("span event missing");
        assert_eq!(span.get("name").and_then(Json::as_str), Some(label));
        assert_eq!(span.get("cat").and_then(Json::as_str), Some("comm"));
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .expect("counter event missing");
        assert_eq!(
            counter.get("name").and_then(Json::as_str),
            Some(&*format!("{gauge}[0]"))
        );
    }

    #[test]
    fn golden_shaped_export_parses_clean() {
        // The well-behaved case must also be valid JSON end to end.
        let mut tr = Tracer::new();
        tr.enable();
        let a = tr.intern("n0/t0");
        tr.span_full(a, SpanKind::Comm, "send", t(0), t(3), 5);
        tr.span_full(a, SpanKind::Comm, "wire", t(1), t(2), 5);
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 2, t(1), 4);
        parse_json(&chrome_trace_json(&tr, &m));
    }
}
