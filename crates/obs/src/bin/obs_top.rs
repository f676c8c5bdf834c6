//! `obs_top` — a refreshing terminal dashboard over a live
//! `groupsa-serve` instance.
//!
//! ```text
//! obs_top --addr HOST:PORT [--interval-ms N] [--iterations N] [--plain true]
//! ```
//!
//! Each tick sends one `MetricsDump` request over the NDJSON/TCP
//! protocol, parses the Prometheus-style page through
//! [`groupsa_obs::expo::parse`], and renders windowed rates, lifetime
//! totals, stage latencies, and the most recent slow requests. With
//! `--iterations 0` (the default) it refreshes forever at
//! `--interval-ms` (default 1000); `--iterations 1` is the one-shot
//! mode tier-1 uses to prove the page renders end-to-end. `--plain
//! true` suppresses the ANSI clear-screen between frames (for logs and
//! transcripts).
//!
//! The server keeps only lifetime counters and histograms; the window
//! lines are derived here, as Prometheus derives `rate()` and
//! `histogram_quantile()`. A baseline page is fetched on connect and
//! the first frame is drawn one interval later, so even a one-shot run
//! shows real rates. The pages of the last 60 s are kept, and each
//! window (10 s, 60 s) is drawn against the oldest kept page inside
//! it: rates are `_total` differences over the elapsed seconds, p50 and
//! p95 come from the difference of the two pages' latency buckets.
//!
//! The protocol frames are built and parsed through `groupsa-json`
//! directly (`{"MetricsDump":{"id":N}}` out, `{"Metrics":{...}}`
//! back), so the dashboard needs no dependency on the serve crate.

use groupsa_obs::expo::{self, ParsedPage};
use groupsa_obs::percentile;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The windows drawn, as (label, length); the longest one bounds the
/// page history.
const WINDOWS: [(&str, Duration); 2] =
    [("10s", Duration::from_secs(10)), ("60s", Duration::from_secs(60))];

/// The end-to-end latency histogram the window quantiles come from.
const LATENCY: &str = "groupsa_serve_latency_us";

/// Polled pages with their arrival instants, oldest first.
type History = VecDeque<(Instant, ParsedPage)>;

fn parse_flags() -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument `{key}` (flags are --key value)"));
        };
        let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// One `MetricsDump` round trip: send the request line, read the
/// response line, unwrap and parse the page.
fn fetch_page(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, id: u64) -> Result<ParsedPage, String> {
    let request = format!("{{\"MetricsDump\":{{\"id\":{id}}}}}\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    stream.flush().map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    if n == 0 {
        return Err("server closed the connection".into());
    }
    let json = groupsa_json::Json::parse(&line).map_err(|e| format!("bad response: {e}"))?;
    let metrics = json
        .get("Metrics")
        .ok_or_else(|| format!("expected a Metrics response, got: {}", line.trim()))?;
    let text = metrics
        .get("page")
        .and_then(|p| p.as_str())
        .ok_or_else(|| "Metrics response without a page".to_string())?;
    expo::parse(text).map_err(|e| format!("exposition did not parse: {e}"))
}

fn value(page: &ParsedPage, name: &str) -> f64 {
    page.value(name).unwrap_or(0.0)
}

/// Rates and latency quantiles over one window.
#[derive(Debug, PartialEq)]
struct WindowRates {
    req_per_s: f64,
    ok_per_s: f64,
    shed_per_s: f64,
    limited_per_s: f64,
    p50_us: u64,
    p95_us: u64,
}

/// The window between two pages `elapsed_s` seconds apart: counter
/// differences per second, and p50/p95 of the latency-bucket
/// difference (the same rank rule as the lifetime percentiles).
fn window_rates(old: &ParsedPage, new: &ParsedPage, elapsed_s: f64) -> WindowRates {
    let rate = |name: &str| {
        if elapsed_s > 0.0 {
            (value(new, name) - value(old, name)).max(0.0) / elapsed_s
        } else {
            0.0
        }
    };
    let before = old.histogram_buckets(LATENCY).unwrap_or_default();
    let delta: Vec<u64> = new
        .histogram_buckets(LATENCY)
        .unwrap_or_default()
        .iter()
        .enumerate()
        .map(|(i, &n)| n.saturating_sub(before.get(i).copied().unwrap_or(0)))
        .collect();
    let total = delta.iter().sum();
    WindowRates {
        req_per_s: rate("groupsa_serve_submitted_total"),
        ok_per_s: rate("groupsa_serve_completed_total"),
        shed_per_s: rate("groupsa_serve_shed_total"),
        limited_per_s: rate("groupsa_serve_limited_total"),
        p50_us: percentile(&delta, total, 0.50),
        p95_us: percentile(&delta, total, 0.95),
    }
}

/// Renders one frame from the newest page in `history`, each window
/// line against the oldest page inside that window.
fn render(history: &History, addr: &str, tick: u64) -> String {
    let mut out = String::new();
    let Some(newest) = history.back() else {
        return out;
    };
    let (now, page) = newest;
    let line = |out: &mut String, text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    line(&mut out, format!("obs_top — {addr} (tick {tick})"));
    for (label, length) in WINDOWS {
        // The newest page is always inside, so this always finds one.
        let (at, old) = history
            .iter()
            .find(|(at, _)| now.saturating_duration_since(*at) <= length)
            .unwrap_or(newest);
        let w = window_rates(old, page, now.saturating_duration_since(*at).as_secs_f64());
        line(
            &mut out,
            format!(
                "  window {label:>3}: {:8.1} req/s  {:7.1} ok/s  {:5.1} shed/s  {:5.1} limited/s  p50 {:>6}µs  p95 {:>6}µs",
                w.req_per_s, w.ok_per_s, w.shed_per_s, w.limited_per_s, w.p50_us, w.p95_us,
            ),
        );
    }
    line(
        &mut out,
        format!(
            "  totals: submitted {}  completed {}  errors {}  expired {}  shed {}  rejected {}  limited {}",
            value(page, "groupsa_serve_submitted_total"),
            value(page, "groupsa_serve_completed_total"),
            value(page, "groupsa_serve_errors_total"),
            value(page, "groupsa_serve_expired_total"),
            value(page, "groupsa_serve_shed_total"),
            value(page, "groupsa_serve_rejected_total"),
            value(page, "groupsa_serve_limited_total"),
        ),
    );
    line(
        &mut out,
        format!(
            "  queue: depth {} (max {})  connections {} (max {})  reloads {}",
            page.value_with("groupsa_serve_queue_depth", ("stat", "last")).unwrap_or(0.0),
            page.value_with("groupsa_serve_queue_depth", ("stat", "max")).unwrap_or(0.0),
            page.value_with("groupsa_serve_open_connections", ("stat", "last")).unwrap_or(0.0),
            page.value_with("groupsa_serve_open_connections", ("stat", "max")).unwrap_or(0.0),
            value(page, "groupsa_serve_reloads_total"),
        ),
    );
    let stage = |name: &str| {
        let count = value(page, &format!("{name}_count"));
        let mean = if count == 0.0 { 0.0 } else { value(page, &format!("{name}_sum")) / count };
        format!("mean {mean:.0}µs/{count:.0}")
    };
    line(
        &mut out,
        format!(
            "  stages: queue {}  score {}  write {}  total {}",
            stage("groupsa_serve_queue_wait_us"),
            stage("groupsa_serve_score_us"),
            stage("groupsa_serve_write_us"),
            stage("groupsa_serve_latency_us"),
        ),
    );
    line(
        &mut out,
        format!(
            "  telemetry: sample 1/{}  ring pushed {}",
            value(page, "groupsa_obs_sample_every"),
            value(page, "groupsa_obs_ring_pushed_total"),
        ),
    );
    let slow = page.all("groupsa_serve_slow_request_us");
    line(&mut out, format!("  slow requests ({}):", slow.len()));
    for sample in slow.iter().rev().take(8) {
        let label = |key: &str| {
            sample
                .labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
        };
        line(
            &mut out,
            format!(
                "    id={:<8} outcome={:<8} total={}µs (queue {}µs, score {}µs, write {}µs)",
                label("id"),
                label("outcome"),
                sample.value,
                label("queue_us"),
                label("score_us"),
                label("write_us"),
            ),
        );
    }
    out
}

fn run() -> Result<(), String> {
    let flags = parse_flags()?;
    let addr = flags.get("addr").ok_or("--addr HOST:PORT is required")?.clone();
    let interval_ms: u64 =
        flags.get("interval-ms").map_or(Ok(1000), |v| v.parse().map_err(|_| "--interval-ms"))?;
    let iterations: u64 =
        flags.get("iterations").map_or(Ok(0), |v| v.parse().map_err(|_| "--iterations"))?;
    let plain: bool =
        flags.get("plain").map_or(Ok(false), |v| v.parse().map_err(|_| "--plain"))?;

    let mut stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
    let baseline = fetch_page(&mut stream, &mut reader, 0)?;
    let mut history: History = VecDeque::from([(Instant::now(), baseline)]);
    let mut tick = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(interval_ms));
        tick += 1;
        let page = fetch_page(&mut stream, &mut reader, tick)?;
        let now = Instant::now();
        let longest = WINDOWS[WINDOWS.len() - 1].1;
        while history.front().is_some_and(|(at, _)| now.saturating_duration_since(*at) > longest) {
            history.pop_front();
        }
        history.push_back((now, page));
        let frame = render(&history, &addr, tick);
        let mut stdout = std::io::stdout().lock();
        if !plain {
            // Clear and home between frames, like top(1).
            let _ = stdout.write_all(b"\x1b[2J\x1b[H");
        }
        stdout.write_all(frame.as_bytes()).map_err(|e| format!("stdout: {e}"))?;
        stdout.flush().map_err(|e| format!("stdout: {e}"))?;
        if iterations != 0 && tick >= iterations {
            return Ok(());
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_top: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_obs::expo::Exposition;
    use groupsa_obs::Histogram;

    /// A page carrying the four rate counters and the latency histogram.
    fn page(counts: [u64; 4], latency: &Histogram) -> ParsedPage {
        let mut e = Exposition::new();
        let names = [
            "groupsa_serve_submitted_total",
            "groupsa_serve_completed_total",
            "groupsa_serve_shed_total",
            "groupsa_serve_limited_total",
        ];
        for (name, count) in names.into_iter().zip(counts) {
            e.counter(name, count);
        }
        e.histogram(LATENCY, &latency.snapshot());
        expo::parse(&e.render()).unwrap()
    }

    #[test]
    fn windows_diff_counters_and_latency_buckets_between_two_pages() {
        let latency = Histogram::new();
        for _ in 0..50 {
            latency.record(100_000); // slow traffic before the window
        }
        let old = page([100, 90, 5, 1], &latency);
        for _ in 0..100 {
            latency.record(100);
        }
        for _ in 0..10 {
            latency.record(5_000);
        }
        let new = page([300, 280, 15, 3], &latency);

        let w = window_rates(&old, &new, 10.0);
        assert_eq!(
            w,
            WindowRates {
                req_per_s: 20.0,
                ok_per_s: 19.0,
                shed_per_s: 1.0,
                limited_per_s: 0.2,
                p50_us: 128,  // 100 µs lands in (64,128]
                p95_us: 8192, // rank 105 of 110 is a 5 ms request
            }
        );
        // The lifetime p95 still sees the slow burst; the window does not.
        assert_eq!(latency.snapshot().p95, 131_072);

        let t0 = Instant::now();
        let history: History = VecDeque::from([(t0, old), (t0 + Duration::from_secs(10), new)]);
        let frame = render(&history, "test", 1);
        assert!(frame.contains("window 10s:     20.0 req/s"), "{frame}");
        assert!(frame.contains("p50    128µs  p95   8192µs"), "{frame}");
    }

    #[test]
    fn a_window_with_no_elapsed_time_reads_zero() {
        let latency = Histogram::new();
        latency.record(100);
        let only = page([7, 7, 0, 0], &latency);
        let w = window_rates(&only, &only, 0.0);
        assert_eq!((w.req_per_s, w.p50_us, w.p95_us), (0.0, 0, 0));
    }
}
