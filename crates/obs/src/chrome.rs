//! Chrome Trace Event export.
//!
//! Emits the JSON Object Format of the Trace Event specification —
//! loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Each obs track becomes one `tid` with a
//! `thread_name` metadata record, every finished span becomes a
//! complete (`"ph":"X"`) event with microsecond timestamps, and
//! aggregate slices carry `"aggregate":true` plus their call count in
//! `args`. The writer is hand-rolled so this crate stays
//! dependency-free; this crate's `tests/trace_roundtrip.rs` round-trips
//! the output through its test-local JSON parser as a validity gate.

use crate::span::{SpanRecord, Tracer};

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Microseconds with nanosecond precision kept as three decimals.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn span_event(s: &SpanRecord, pid: u32, out: &mut String) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"path\":\"{}\",\"calls\":{}",
        escape(&s.name),
        if s.aggregate { "aggregate" } else { "span" },
        micros(s.start_nanos),
        micros(s.duration_nanos()),
        pid,
        s.track,
        escape(&s.path),
        s.calls,
    ));
    if s.aggregate {
        out.push_str(",\"aggregate\":true");
    }
    out.push_str("}}");
}

/// Render a tracer's finished spans as Chrome Trace Event JSON.
///
/// `process_name` labels the single process (`pid` 0); track labels
/// become thread names.
pub fn chrome_trace_json(tracer: &Tracer, process_name: &str) -> String {
    let pid = 0u32;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };

    push_sep(&mut out, &mut first);
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        pid,
        escape(process_name)
    ));
    for (tid, label) in tracer.tracks().iter().enumerate() {
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            tid,
            escape(label)
        ));
    }
    for span in tracer.finished() {
        push_sep(&mut out, &mut first);
        span_event(&span, pid, &mut out);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_contains_metadata_and_spans() {
        let tracer = Tracer::new();
        tracer.name_track("main");
        {
            let _g = tracer.span("compute \"quoted\"");
            tracer.add_aggregate("kernel", 4, 2_500);
        }
        let json = chrome_trace_json(&tracer, "galactos");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"main\""));
        assert!(json.contains("compute \\\"quoted\\\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"aggregate\":true"));
        // Aggregate duration: 2500 ns = 2.500 µs.
        assert!(json.contains("\"dur\":2.500"));
    }

    #[test]
    fn micros_keeps_nanosecond_precision() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_007), "1000.007");
    }
}
