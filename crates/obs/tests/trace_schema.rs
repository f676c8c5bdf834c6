//! End-to-end trace test: enable tracing via `GROUPSA_TRACE`, emit
//! spans and events through the public API, then parse the resulting
//! JSONL file with `groupsa-json` and validate it against the schema.
//!
//! This lives in its own integration-test binary (own process) because
//! the trace sink is process-global and latches its configuration on
//! first use: the environment variable must be set before any
//! instrumentation point runs, and sibling test binaries must not see
//! it. Everything therefore happens inside ONE `#[test]`.

use groupsa_json::Json;
use groupsa_obs::schema::validate_trace;
use groupsa_obs::{emit, enabled, global, maybe_timer, span, to_json};

#[test]
fn emitted_trace_validates_against_schema() {
    let path = std::env::temp_dir().join(format!("groupsa-obs-schema-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Must precede every obs call in this process: the sink latches on
    // first use.
    std::env::set_var(groupsa_obs::TRACE_ENV, &path);
    assert!(enabled(), "tracing must be on once GROUPSA_TRACE points at a writable path");

    // Nested spans with payload fields.
    {
        let outer = span!("fit", "threads" => 2usize);
        assert!(!outer.is_noop());
        for round in 0..2u64 {
            let _inner = span!("group_epoch", "round" => round);
        }
    }

    // A histogram-backed timer (records into the global registry).
    {
        let hist = global().histogram("test.timer_us");
        let _t = maybe_timer(&hist);
        assert!(maybe_timer(&hist).is_some());
    }

    // One event of every remaining kind, through the public emitter.
    emit(
        "epoch",
        &[
            ("stage", to_json(&"user")),
            ("epoch", to_json(&0usize)),
            ("loss", to_json(&0.69f64)),
            ("lr", to_json(&0.01f64)),
            ("seconds", to_json(&0.25f64)),
            ("examples", to_json(&128usize)),
            ("examples_per_sec", to_json(&512.0f64)),
            ("forward_us", to_json(&100u64)),
            ("backward_us", to_json(&200u64)),
            ("merge_us", to_json(&30u64)),
            ("step_us", to_json(&40u64)),
        ],
    );
    emit(
        "window",
        &[
            ("stage", to_json(&"group")),
            ("round", to_json(&3u64)),
            ("start", to_json(&0usize)),
            ("len", to_json(&32usize)),
            ("forward_us", to_json(&10u64)),
            ("backward_us", to_json(&20u64)),
            ("merge_us", to_json(&3u64)),
            ("step_us", to_json(&4u64)),
        ],
    );
    emit(
        "request",
        &[
            ("id", to_json(&7u64)),
            ("outcome", to_json(&"ok")),
            ("queue_us", to_json(&15u64)),
            ("score_us", to_json(&120u64)),
        ],
    );
    emit("metrics", &[("registry", to_json(&global().snapshot()))]);
    emit("run", &[("label", to_json(&"trace-schema-test"))]);

    // Spans from another thread must interleave safely and restart
    // their own nesting depth.
    std::thread::Builder::new()
        .name("obs-test-worker".into())
        .spawn(|| {
            let _s = span!("worker_span");
        })
        .unwrap()
        .join()
        .unwrap();

    // Parse + schema-validate the file we just wrote.
    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    let summary = validate_trace(&text).expect("every emitted line must satisfy the schema");
    assert_eq!(summary.count("span"), 4, "fit + 2 epochs + worker span");
    assert_eq!(summary.count("epoch"), 1);
    assert_eq!(summary.count("window"), 1);
    assert_eq!(summary.count("request"), 1);
    assert_eq!(summary.count("metrics"), 1);
    assert_eq!(summary.count("run"), 1);

    // Structural details beyond the generic schema: seq is strictly
    // increasing, inner spans precede their parent (emitted on drop)
    // with depth 1, and the timed histogram made it into the metrics
    // dump.
    let events: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let seqs: Vec<f64> = events.iter().map(|e| e.get("seq").unwrap().as_f64().unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[1] > w[0]), "seq must be monotone: {seqs:?}");

    let spans: Vec<&Json> =
        events.iter().filter(|e| e.get("kind").unwrap().as_str() == Some("span")).collect();
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("group_epoch"));
    assert_eq!(spans[0].get("depth").unwrap().as_f64(), Some(1.0));
    assert_eq!(spans[0].get("round").unwrap().as_f64(), Some(0.0));
    let fit = spans.iter().find(|s| s.get("name").unwrap().as_str() == Some("fit")).unwrap();
    assert_eq!(fit.get("depth").unwrap().as_f64(), Some(0.0));
    assert_eq!(fit.get("threads").unwrap().as_f64(), Some(2.0));
    let worker = spans.iter().find(|s| s.get("name").unwrap().as_str() == Some("worker_span")).unwrap();
    assert_eq!(worker.get("depth").unwrap().as_f64(), Some(0.0), "fresh thread starts at depth 0");
    assert_eq!(worker.get("thread").unwrap().as_str(), Some("obs-test-worker"));

    let metrics = events.iter().find(|e| e.get("kind").unwrap().as_str() == Some("metrics")).unwrap();
    let hists = metrics.get("registry").unwrap().get("histograms").unwrap().as_array().unwrap();
    let timer = hists
        .iter()
        .find(|h| h.get("name").unwrap().as_str() == Some("test.timer_us"))
        .expect("timed histogram must appear in the registry dump");
    assert!(timer.get("histogram").unwrap().get("count").unwrap().as_f64().unwrap() >= 1.0);

    let _ = std::fs::remove_file(&path);
}
