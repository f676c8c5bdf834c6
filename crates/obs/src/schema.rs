//! The trace-file contract: what a `GROUPSA_TRACE` JSONL file must
//! contain, and a validator for it.
//!
//! Every line is one JSON object with the common fields
//!
//! | field    | type   | meaning                                   |
//! |----------|--------|-------------------------------------------|
//! | `kind`   | string | event kind (table below)                  |
//! | `seq`    | number | per-process monotone sequence number      |
//! | `t_us`   | number | µs since the trace file was opened        |
//! | `thread` | string | emitting thread's name (or id)            |
//!
//! and kind-specific required fields:
//!
//! | kind      | required fields                                                   |
//! |-----------|-------------------------------------------------------------------|
//! | `span`    | `name`:str, `dur_us`:num, `depth`:num                             |
//! | `epoch`   | `stage`:{user,group,mix}, `epoch`, `loss`, `lr`, `seconds`, `examples`, `examples_per_sec`, `forward_us`, `backward_us`, `merge_us`, `step_us` |
//! | `window`  | `stage`:str, `round`, `start`, `len`, `forward_us`, `backward_us`, `merge_us`, `step_us` |
//! | `request_record` | `conn`, `id`, `arrival_us`, `queue_us`, `batch`, `score_us`, `write_us`, `total_us`:num, `outcome`:{ok,error,expired,shed,rejected} |
//! | `metrics` | `registry`:object with `counters`/`gauges`/`histograms` arrays    |
//! | `stats`   | `stats`:object                                                    |
//! | `run`     | `label`:str                                                       |
//!
//! Events may carry extra fields beyond these (spans attach their
//! payload fields, epochs may add context); validation checks presence
//! and type of the required set, and rejects unknown kinds so the
//! schema table above stays the single source of truth.

use groupsa_json::Json;

/// Per-kind event counts of a validated trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total validated events.
    pub events: usize,
    /// `(kind, count)` pairs, sorted by kind.
    pub kinds: Vec<(String, usize)>,
}

impl TraceSummary {
    /// How many events of `kind` the trace contained.
    pub fn count(&self, kind: &str) -> usize {
        self.kinds.iter().find(|(k, _)| k == kind).map_or(0, |(_, n)| *n)
    }
}

fn require<'a>(obj: &'a Json, field: &str) -> Result<&'a Json, String> {
    obj.get(field).ok_or_else(|| format!("missing required field '{field}'"))
}

fn require_number(obj: &Json, field: &str) -> Result<f64, String> {
    require(obj, field)?
        .as_f64()
        .ok_or_else(|| format!("field '{field}' must be a number"))
}

fn require_string<'a>(obj: &'a Json, field: &str) -> Result<&'a str, String> {
    require(obj, field)?
        .as_str()
        .ok_or_else(|| format!("field '{field}' must be a string"))
}

fn require_string_in(obj: &Json, field: &str, allowed: &[&str]) -> Result<(), String> {
    let v = require_string(obj, field)?;
    if allowed.contains(&v) {
        Ok(())
    } else {
        Err(format!("field '{field}' must be one of {allowed:?}, found '{v}'"))
    }
}

fn require_numbers(obj: &Json, fields: &[&str]) -> Result<(), String> {
    for f in fields {
        require_number(obj, f)?;
    }
    Ok(())
}

/// Validates one parsed event object, returning its kind.
pub fn validate_event(event: &Json) -> Result<String, String> {
    if !matches!(event, Json::Object(_)) {
        return Err(format!("event must be an object, found {}", event.kind()));
    }
    let kind = require_string(event, "kind")?.to_string();
    require_number(event, "seq")?;
    require_number(event, "t_us")?;
    require_string(event, "thread")?;
    match kind.as_str() {
        "span" => {
            require_string(event, "name")?;
            require_numbers(event, &["dur_us", "depth"])?;
        }
        "epoch" => {
            require_string_in(event, "stage", &["user", "group", "mix"])?;
            require_numbers(
                event,
                &[
                    "epoch",
                    "loss",
                    "lr",
                    "seconds",
                    "examples",
                    "examples_per_sec",
                    "forward_us",
                    "backward_us",
                    "merge_us",
                    "step_us",
                ],
            )?;
        }
        "window" => {
            require_string(event, "stage")?;
            require_numbers(
                event,
                &["round", "start", "len", "forward_us", "backward_us", "merge_us", "step_us"],
            )?;
        }
        "request_record" => {
            require_string_in(event, "outcome", &["ok", "error", "expired", "shed", "rejected"])?;
            require_numbers(
                event,
                &["conn", "id", "arrival_us", "queue_us", "batch", "score_us", "write_us", "total_us"],
            )?;
        }
        "metrics" => {
            let registry = require(event, "registry")?;
            for table in ["counters", "gauges", "histograms"] {
                require(registry, table)?
                    .as_array()
                    .ok_or_else(|| format!("registry.{table} must be an array"))?;
            }
        }
        "stats" => {
            let stats = require(event, "stats")?;
            if !matches!(stats, Json::Object(_)) {
                return Err("field 'stats' must be an object".to_string());
            }
        }
        "run" => {
            require_string(event, "label")?;
        }
        other => return Err(format!("unknown event kind '{other}'")),
    }
    Ok(kind)
}

/// Validates a whole JSONL trace (one event per non-empty line),
/// returning per-kind counts. The first invalid line fails the whole
/// file, with its line number in the error.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Json::parse(line).map_err(|e| format!("line {}: not JSON: {e}", lineno + 1))?;
        let kind = validate_event(&event).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        summary.events += 1;
        match summary.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => summary.kinds.push((kind, 1)),
        }
    }
    summary.kinds.sort();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(kind: &str, extra: &str) -> String {
        let comma = if extra.is_empty() { "" } else { "," };
        format!("{{\"kind\":\"{kind}\",\"seq\":0,\"t_us\":12.5,\"thread\":\"main\"{comma}{extra}}}")
    }

    /// The required fields of a `request_record`, with `id` and
    /// `outcome` spliced in verbatim.
    fn record(id: &str, outcome: &str) -> String {
        format!(
            "\"conn\":1,\"id\":{id},\"outcome\":\"{outcome}\",\"arrival_us\":0,\"queue_us\":0,\"batch\":0,\
             \"score_us\":0,\"write_us\":0,\"total_us\":0"
        )
    }

    #[test]
    fn valid_events_of_every_kind_pass() {
        let lines = [
            base("span", "\"name\":\"fit\",\"dur_us\":10,\"depth\":0,\"round\":3"),
            base(
                "epoch",
                "\"stage\":\"user\",\"epoch\":0,\"loss\":0.69,\"lr\":0.01,\"seconds\":0.5,\
                 \"examples\":100,\"examples_per_sec\":200,\"forward_us\":1,\"backward_us\":2,\
                 \"merge_us\":3,\"step_us\":4",
            ),
            base(
                "window",
                "\"stage\":\"group\",\"round\":1,\"start\":0,\"len\":32,\"forward_us\":1,\
                 \"backward_us\":2,\"merge_us\":3,\"step_us\":4",
            ),
            base(
                "request_record",
                "\"conn\":2,\"id\":7,\"outcome\":\"shed\",\"arrival_us\":10,\"queue_us\":0,\"batch\":0,\
                 \"score_us\":0,\"write_us\":0,\"total_us\":3,\"slow\":false",
            ),
            base("metrics", "\"registry\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}"),
            base("stats", "\"stats\":{\"submitted\":1}"),
            base("run", "\"label\":\"serve_bench\""),
        ];
        let text = lines.join("\n");
        let summary = validate_trace(&text).expect("all kinds must validate");
        assert_eq!(summary.events, 7);
        assert_eq!(summary.count("span"), 1);
        assert_eq!(summary.count("epoch"), 1);
        assert_eq!(summary.count("request_record"), 1);
        assert_eq!(summary.count("absent"), 0);
    }

    #[test]
    fn request_record_outcome_is_one_of_five_names() {
        for outcome in ["ok", "error", "expired", "shed", "rejected"] {
            validate_trace(&base("request_record", &record("1", outcome))).unwrap();
        }
        let err = validate_trace(&base("request_record", &record("1", "dropped"))).unwrap_err();
        assert!(err.contains("outcome"), "{err}");
    }

    #[test]
    fn request_record_requires_a_connection_key() {
        let without_conn = record("1", "ok").replacen("\"conn\":1,", "", 1);
        let err = validate_trace(&base("request_record", &without_conn)).unwrap_err();
        assert!(err.contains("conn"), "{err}");
    }

    #[test]
    fn missing_required_field_is_rejected_with_line_number() {
        let text = format!("{}\n{}", base("run", "\"label\":\"x\""), base("span", "\"dur_us\":10,\"depth\":0"));
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("name"), "{err}");
    }

    #[test]
    fn wrong_type_unknown_kind_and_bad_enum_are_rejected() {
        let wrong_type = base("request_record", &record("\"seven\"", "ok"));
        assert!(validate_trace(&wrong_type).is_err());
        // Retired kinds: workers pop one job at a time, so there is no
        // per-drain `batch`; `request_record` carries every field of the
        // old `request` event, and the final `stats` event both windows
        // of the old `window_snapshot`.
        assert!(validate_trace(&base("batch", "\"n\":4,\"form_us\":2")).is_err());
        let request = "\"id\":1,\"outcome\":\"ok\",\"queue_us\":1,\"score_us\":1";
        assert!(validate_trace(&base("request", request)).is_err());
        assert!(validate_trace(&base("window_snapshot", "\"window_s\":10")).is_err());
        assert!(validate_trace(&base("teapot", "")).is_err());
        let bad_outcome = base("request_record", &record("1", "dropped"));
        let err = validate_trace(&bad_outcome).unwrap_err();
        assert!(err.contains("outcome"), "{err}");
        assert!(validate_trace("not json").is_err());
    }

    #[test]
    fn missing_common_fields_are_rejected() {
        assert!(validate_trace("{\"kind\":\"run\",\"label\":\"x\"}").is_err());
        assert!(validate_trace("{\"seq\":0,\"t_us\":0,\"thread\":\"t\"}").is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = format!("\n{}\n\n", base("run", "\"label\":\"x\""));
        assert_eq!(validate_trace(&text).unwrap().events, 1);
    }
}
