//! Chrome-trace export round-trips through a standard JSON parser.
//!
//! `galactos-obs` hand-emits Chrome Trace Event JSON; the test-local
//! [`json`] module hand-rolls a parser. Feeding the first to the second
//! pins that the emitted trace is well-formed standard JSON, and that
//! the structure (metadata events, complete events, microsecond
//! timestamps, span args) is what Perfetto expects.

mod json;

use galactos_obs::chrome::chrome_trace_json;
use galactos_obs::ObsSession;
use json::Json;

fn str_field<'a>(event: &'a Json, key: &str) -> Option<&'a str> {
    match event.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn chrome_trace_round_trips_through_the_bench_parser() {
    let obs = ObsSession::enabled();
    obs.tracer.name_track("roundtrip main");
    {
        let _outer = obs.tracer.span("compute");
        {
            let _inner = obs.tracer.span("tree_build");
        }
        // An aggregate slice with a path-unfriendly name: escaping must
        // survive the round trip.
        obs.tracer
            .add_aggregate("kernel \"hot\" \\ loop", 64, 1_500);
    }
    // A second track from a worker thread (spans bind their thread to
    // a fresh track on first touch).
    let tracer = &obs.tracer;
    std::thread::scope(|s| {
        s.spawn(move || {
            let _g = tracer.span("worker chunk");
        });
    });

    let text = chrome_trace_json(&obs.tracer, "galactos test");
    let doc = Json::parse(&text).expect("emitted trace must be valid JSON");

    assert_eq!(
        doc.get("displayTimeUnit"),
        Some(&Json::Str("ms".to_string()))
    );
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };

    let metadata: Vec<&Json> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("M"))
        .collect();
    assert!(
        metadata
            .iter()
            .any(|e| str_field(e, "name") == Some("process_name")),
        "process_name metadata present"
    );
    assert!(
        metadata
            .iter()
            .any(|e| str_field(e, "name") == Some("thread_name")),
        "thread_name metadata present"
    );

    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("X"))
        .collect();
    let names: Vec<&str> = complete
        .iter()
        .filter_map(|e| str_field(e, "name"))
        .collect();
    assert!(names.contains(&"compute"));
    assert!(names.contains(&"tree_build"));
    assert!(
        names.contains(&"kernel \"hot\" \\ loop"),
        "escaped name survives: {names:?}"
    );
    assert!(names.contains(&"worker chunk"));

    for event in &complete {
        // ts/dur are non-negative decimal microseconds; the parser
        // reads them back as numbers (Int when whole, Num otherwise).
        for key in ["ts", "dur"] {
            match event.get(key) {
                Some(Json::Int(_)) => {}
                Some(Json::Num(x)) => assert!(*x >= 0.0, "{key} must be non-negative"),
                other => panic!("{key} must be numeric, got {other:?}"),
            }
        }
        let args = event.get("args").expect("span args present");
        assert!(
            matches!(args.get("path"), Some(Json::Str(_))),
            "args.path present"
        );
    }

    // Two distinct tracks → two thread_name metadata records.
    assert!(
        metadata
            .iter()
            .filter(|e| str_field(e, "name") == Some("thread_name"))
            .count()
            >= 2,
        "main and worker tracks both named"
    );
}
