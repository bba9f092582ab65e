//! Structural validator for Chrome/Perfetto trace JSON.
//!
//! The tracer's [`to_chrome_json`](confluence_core::telemetry::TraceReport::to_chrome_json)
//! export is consumed by external viewers, so CI needs a loadability
//! check that doesn't depend on one. This module carries a minimal JSON
//! parser (the workspace is dependency-free by design) plus the checks a
//! viewer would trip over: a `traceEvents` array of objects, phase tags
//! with their required fields, non-negative slice durations, and every
//! flow-arrow terminus (`ph:"f"`) preceded by a matching start
//! (`ph:"s"`) with the same id.

use std::collections::HashSet;

/// A parsed JSON value (just enough for trace validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected {:?}", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

/// Parse a JSON document (rejects trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after document"));
    }
    Ok(value)
}

/// What a validated trace contains, for reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete slices (`ph:"X"`).
    pub slices: usize,
    /// Instant markers (`ph:"i"`).
    pub instants: usize,
    /// Flow-arrow starts (`ph:"s"`).
    pub flow_starts: usize,
    /// Flow-arrow termini (`ph:"f"`).
    pub flow_ends: usize,
    /// `thread_name` metadata records (`ph:"M"`).
    pub threads: usize,
}

fn field_num(event: &Json, key: &str, index: usize) -> Result<f64, String> {
    event
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event {index}: missing numeric {key:?}"))
}

fn field_str<'a>(event: &'a Json, key: &str, index: usize) -> Result<&'a str, String> {
    event
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event {index}: missing string {key:?}"))
}

/// Validate Chrome-trace JSON text; returns counters on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("root object has no \"traceEvents\"")?;
    let events = match events {
        Json::Arr(items) => items,
        _ => return Err("\"traceEvents\" is not an array".into()),
    };
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut open_flows: HashSet<u64> = HashSet::new();
    for (index, event) in events.iter().enumerate() {
        if !matches!(event, Json::Obj(_)) {
            return Err(format!("event {index}: not an object"));
        }
        let phase = field_str(event, "ph", index)?;
        field_num(event, "pid", index)?;
        field_num(event, "tid", index)?;
        match phase {
            "M" => {
                stats.threads += 1;
                field_str(event, "name", index)?;
            }
            "X" => {
                stats.slices += 1;
                field_str(event, "name", index)?;
                field_num(event, "ts", index)?;
                let dur = field_num(event, "dur", index)?;
                if dur < 0.0 {
                    return Err(format!("event {index}: negative slice duration {dur}"));
                }
            }
            "i" => {
                stats.instants += 1;
                field_str(event, "name", index)?;
                field_num(event, "ts", index)?;
            }
            "s" | "f" => {
                field_str(event, "name", index)?;
                field_num(event, "ts", index)?;
                let id = field_num(event, "id", index)? as u64;
                if phase == "s" {
                    stats.flow_starts += 1;
                    open_flows.insert(id);
                } else {
                    stats.flow_ends += 1;
                    // Events are emitted in wave order, so the binding
                    // start must already have appeared.
                    if !open_flows.contains(&id) {
                        return Err(format!("event {index}: flow end with unopened id {id}"));
                    }
                    if field_str(event, "bp", index)? != "e" {
                        return Err(format!("event {index}: flow end without bp:\"e\""));
                    }
                }
            }
            other => return Err(format!("event {index}: unknown phase {other:?}")),
        }
    }
    if stats.events > 0 && stats.threads == 0 {
        return Err("no thread_name metadata for a non-empty trace".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse_json(r#"{"a":[1,-2.5,"x\n",true,null],"b":{"c":3e2}}"#).unwrap();
        let arr = doc.get("a").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2.5));
                assert_eq!(items[2], Json::Str("x\n".into()));
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Null);
            }
            _ => panic!("expected array"),
        }
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_num(), Some(300.0));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn accepts_a_minimal_trace() {
        let text = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"a"}},
            {"ph":"X","pid":1,"tid":0,"name":"fire","ts":0,"dur":5},
            {"ph":"s","pid":1,"tid":0,"name":"wave","cat":"wave","id":7,"ts":0},
            {"ph":"f","pid":1,"tid":0,"name":"wave","cat":"wave","id":7,"ts":3,"bp":"e"},
            {"ph":"i","pid":1,"tid":0,"name":"enqueue","ts":2,"s":"t"}
        ],"displayTimeUnit":"ms"}"#;
        let stats = validate_chrome_trace(text).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.slices, 1);
        assert_eq!(stats.flow_starts, 1);
        assert_eq!(stats.flow_ends, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn rejects_unbound_flow_ends_and_negative_durations() {
        let unbound = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"thread_name"},
            {"ph":"f","pid":1,"tid":0,"name":"wave","id":9,"ts":3,"bp":"e"}
        ]}"#;
        assert!(validate_chrome_trace(unbound).unwrap_err().contains("unopened id"));
        let negative = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"thread_name"},
            {"ph":"X","pid":1,"tid":0,"name":"fire","ts":0,"dur":-1}
        ]}"#;
        assert!(validate_chrome_trace(negative).unwrap_err().contains("negative"));
    }

    #[test]
    fn validates_a_real_tracer_export() {
        use confluence_core::telemetry::{TraceConfig, Tracer};
        use confluence_core::actors::{Collector, VecSource};
        use confluence_core::engine::Engine;
        use confluence_core::graph::WorkflowBuilder;
        use confluence_core::window::WindowSpec;
        use confluence_core::Token;
        use std::sync::Arc;

        let collector = Collector::new();
        let mut b = WorkflowBuilder::new("demo");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1), Token::Int(2)]));
        let k = b.add_actor("sink", collector.actor());
        b.link_windowed((s, "out"), (k, "in"), WindowSpec::each_event()).unwrap();
        let workflow = b.build().unwrap();
        let tracer = Arc::new(Tracer::for_workflow(&workflow, TraceConfig::default()));
        let mut engine = Engine::new(workflow).with_tracer(tracer);
        engine.run().unwrap();
        let report = engine.trace_report().unwrap();
        let stats = validate_chrome_trace(&report.to_chrome_json()).unwrap();
        assert!(stats.slices > 0, "expected fire slices, got {stats:?}");
        assert!(stats.threads > 0);
    }
}
