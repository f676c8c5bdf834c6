//! Prometheus-style text exposition: a renderer for metrics pages and
//! a parser for validating them.
//!
//! The format is the familiar line protocol — `# TYPE name kind`
//! headers followed by `name{label="value",…} value` samples;
//! histograms expand to cumulative `name_bucket{le="…"}` samples plus
//! `name_sum` / `name_count` — restricted to what this workspace needs
//! (no `# HELP`, no exemplars, no escaped quotes inside label values).
//! The serve crate renders its `MetricsDump` page through
//! [`Exposition`]; `serve_bench` and tier-1 validate the page through
//! [`parse`]; `obs_top` renders its dashboard from the parsed samples,
//! recovering raw histogram buckets through
//! [`ParsedPage::histogram_buckets`] so it can diff two pages.
//!
//! Metric names are sanitised through [`sanitize`] (`.` and any other
//! non-`[a-zA-Z0-9_]` byte become `_`), so a dotted name like
//! `engine.queue_us` exposes as `engine_queue_us`.

use crate::registry::{bucket_upper, HistogramSnapshot, NUM_BUCKETS};

/// Rewrites `name` into the exposition charset: `[a-zA-Z0-9_]`, with
/// every other byte (dots, say) replaced by `_`.
pub fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// An exposition page under construction. Emits one `# TYPE` header
/// per metric name (the first time the name appears) and tracks the
/// declared names so callers can assert coverage.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    names: Vec<String>,
}

impl Exposition {
    /// An empty page.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Metric names declared so far (sanitised, in declaration order).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn declare(&mut self, name: &str, kind: &str) -> bool {
        if self.names.iter().any(|n| n == name) {
            return false;
        }
        self.names.push(name.to_string());
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        true
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (key, val)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(key);
                self.out.push_str("=\"");
                // Keep the parser trivial: strip the two bytes the
                // quoting cannot carry.
                self.out.extend(val.chars().filter(|&c| c != '"' && c != '\\'));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// Emits a counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        let name = sanitize(name);
        self.declare(&name, "counter");
        self.sample(&name, &[], value as f64);
    }

    /// Emits a gauge sample.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let name = sanitize(name);
        self.declare(&name, "gauge");
        self.sample(&name, &[], value);
    }

    /// Emits a labelled gauge sample; repeated names share one `# TYPE`
    /// header (e.g. the same gauge at `stat="last"` and `stat="max"`).
    pub fn labeled_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let name = sanitize(name);
        self.declare(&name, "gauge");
        self.sample(&name, labels, value);
    }

    /// Emits a full histogram: cumulative `_bucket{le="…"}` samples
    /// over the workspace's log₂ buckets (empty buckets elided — the
    /// closing `+Inf` carries the total), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, snapshot: &HistogramSnapshot) {
        let name = sanitize(name);
        self.declare(&name, "histogram");
        let mut cumulative = 0u64;
        for (i, count) in snapshot.buckets.iter().enumerate() {
            cumulative += count;
            if *count == 0 {
                continue; // elide empty buckets; `+Inf` closes the series
            }
            let le = bucket_upper(i).to_string();
            self.sample(&format!("{name}_bucket"), &[("le", le.as_str())], cumulative as f64);
        }
        self.sample(&format!("{name}_bucket"), &[("le", "+Inf")], snapshot.count as f64);
        self.sample(&format!("{name}_sum"), &[], snapshot.sum as f64);
        self.sample(&format!("{name}_count"), &[], snapshot.count as f64);
    }

    /// The finished page text.
    pub fn render(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// Sample name (may carry a `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs, in order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// A parsed exposition page: declared types plus every sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedPage {
    /// `(name, kind)` per `# TYPE` header, in order.
    pub types: Vec<(String, String)>,
    /// Every sample line, in order.
    pub samples: Vec<ParsedSample>,
}

impl ParsedPage {
    /// Whether the page declares metric `name` (via its `# TYPE`
    /// header).
    pub fn declares(&self, name: &str) -> bool {
        self.types.iter().any(|(n, _)| n == name)
    }

    /// The first sample value for exactly `name` with no label filter.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// The first sample value for `name` carrying the given label pair.
    pub fn value_with(&self, name: &str, label: (&str, &str)) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == label.0 && v == label.1))
            .map(|s| s.value)
    }

    /// Every sample for `name`, in page order.
    pub fn all(&self, name: &str) -> Vec<&ParsedSample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The per-bucket counts of histogram `name`, [`NUM_BUCKETS`] long,
    /// rebuilt from its cumulative `_bucket{le}` samples: the inverse
    /// of [`Exposition::histogram`], so the buckets it elided come back
    /// as zeros. `None` when the page has no such histogram, or a bound
    /// is not one of the log₂ bucket bounds, or the counts decrease.
    pub fn histogram_buckets(&self, name: &str) -> Option<Vec<u64>> {
        let samples = self.all(&format!("{name}_bucket"));
        if samples.is_empty() {
            return None;
        }
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut below = 0u64;
        for sample in samples {
            let le = sample.labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v.as_str())?;
            if le == "+Inf" {
                continue; // the total; every observation sits in a finite bucket
            }
            let upper: u64 = le.parse().ok()?;
            let bucket = (0..NUM_BUCKETS).find(|&i| bucket_upper(i) == upper)?;
            let cumulative = sample.value as u64;
            buckets[bucket] = cumulative.checked_sub(below)?;
            below = cumulative;
        }
        Some(buckets)
    }
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let eq = rest.find("=\"").ok_or_else(|| format!("label without =\": '{rest}'"))?;
        let key = rest[..eq].trim_start_matches(',').to_string();
        let after = &rest[eq + 2..];
        let close = after.find('"').ok_or_else(|| format!("unterminated label value: '{rest}'"))?;
        labels.push((key, after[..close].to_string()));
        rest = &after[close + 1..];
    }
    Ok(labels)
}

/// Parses an exposition page, validating the line grammar: every
/// non-comment line must be `name[{labels}] value` with a numeric
/// value, every `# TYPE` must name a known kind. Returns the first
/// offending line in the error.
pub fn parse(text: &str) -> Result<ParsedPage, String> {
    let mut page = ParsedPage::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let fail = |what: &str| format!("line {}: {what}: '{line}'", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim().split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().ok_or_else(|| fail("TYPE without a name"))?;
                let kind = parts.next().ok_or_else(|| fail("TYPE without a kind"))?;
                if !["counter", "gauge", "histogram"].contains(&kind) {
                    return Err(fail("unknown metric kind"));
                }
                page.types.push((name.to_string(), kind.to_string()));
            }
            continue;
        }
        let (head, value) = line.rsplit_once(' ').ok_or_else(|| fail("no value"))?;
        let value: f64 = value.parse().map_err(|_| fail("value is not a number"))?;
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| fail("unterminated labels"))?;
                (name, parse_labels(body).map_err(|e| fail(&e))?)
            }
            None => (head, Vec::new()),
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(fail("bad metric name"));
        }
        page.samples.push(ParsedSample { name: name.to_string(), labels, value });
    }
    Ok(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Histogram;

    #[test]
    fn render_then_parse_roundtrips() {
        let mut e = Exposition::new();
        e.counter("serve.submitted_total", 42);
        e.gauge("queue_depth", 3.5);
        e.labeled_gauge("window_req_per_s", &[("window", "10s")], 120.25);
        e.labeled_gauge("window_req_per_s", &[("window", "60s")], 80.0);
        let h = Histogram::new();
        h.record(8);
        h.record(1000);
        e.histogram("latency_us", &h.snapshot());
        let text = e.render();
        let page = parse(&text).expect("rendered pages must parse");
        assert!(page.declares("serve_submitted_total"), "dots sanitised");
        assert_eq!(page.value("serve_submitted_total"), Some(42.0));
        assert_eq!(page.value("queue_depth"), Some(3.5));
        assert_eq!(page.value_with("window_req_per_s", ("window", "10s")), Some(120.25));
        assert_eq!(page.value_with("window_req_per_s", ("window", "60s")), Some(80.0));
        assert_eq!(page.value("latency_us_count"), Some(2.0));
        assert_eq!(page.value("latency_us_sum"), Some(1008.0));
        assert_eq!(page.value_with("latency_us_bucket", ("le", "+Inf")), Some(2.0));
        // One TYPE header per name, even with two labelled samples.
        assert_eq!(page.types.iter().filter(|(n, _)| n == "window_req_per_s").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut e = Exposition::new();
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        e.histogram("lat", &h.snapshot());
        let page = parse(&e.render()).unwrap();
        // 8 µs lands in bucket 4 (upper bound 16): cumulative 90 there.
        assert_eq!(page.value_with("lat_bucket", ("le", "16")), Some(90.0));
        assert_eq!(page.value_with("lat_bucket", ("le", "1024")), Some(100.0));
        assert_eq!(page.value_with("lat_bucket", ("le", "+Inf")), Some(100.0));
        // Cumulative counts never decrease in page order.
        let buckets = page.all("lat_bucket");
        assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
    }

    #[test]
    fn histogram_buckets_invert_the_elided_cumulative_series() {
        let h = Histogram::new();
        // Buckets 0, 1, 10 and 20 full, every bucket between them empty.
        for (value, times) in [(0, 2), (1, 3), (1000, 5), (1_000_000, 7)] {
            for _ in 0..times {
                h.record(value);
            }
        }
        let snapshot = h.snapshot();
        let mut e = Exposition::new();
        e.histogram("lat", &snapshot);
        e.histogram("idle", &Histogram::new().snapshot());
        let page = parse(&e.render()).unwrap();
        assert_eq!(page.histogram_buckets("lat"), Some(snapshot.buckets));
        assert_eq!(page.histogram_buckets("idle"), Some(vec![0; NUM_BUCKETS]));
        assert_eq!(page.histogram_buckets("absent"), None);
        assert_eq!(parse("x_bucket{le=\"3\"} 1\n").unwrap().histogram_buckets("x"), None);
    }

    #[test]
    fn malformed_pages_are_rejected_with_line_numbers() {
        assert!(parse("name_only\n").is_err());
        assert!(parse("bad-name 1\n").is_err());
        assert!(parse("x{le=\"1\" 2\n").is_err(), "unterminated labels");
        assert!(parse("x nan_text\n").is_err());
        let err = parse("good 1\n# TYPE t teapot\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn sanitize_keeps_the_exposition_charset() {
        assert_eq!(sanitize("engine.queue_us"), "engine_queue_us");
        assert_eq!(sanitize("ok_name_9"), "ok_name_9");
        assert_eq!(sanitize("a b/c"), "a_b_c");
    }
}
