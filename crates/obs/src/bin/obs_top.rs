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
//! The protocol frames are built and parsed through `groupsa-json`
//! directly (`{"MetricsDump":{"id":N}}` out, `{"Metrics":{...}}`
//! back), so the dashboard needs no dependency on the serve crate.

use groupsa_obs::expo::{self, ParsedPage};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

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
/// response line, unwrap the page text.
fn fetch_page(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, id: u64) -> Result<String, String> {
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
    metrics
        .get("page")
        .and_then(|p| p.as_str())
        .map(str::to_string)
        .ok_or_else(|| "Metrics response without a page".into())
}

fn value(page: &ParsedPage, name: &str) -> f64 {
    page.value(name).unwrap_or(0.0)
}

fn windowed(page: &ParsedPage, name: &str, window: &str) -> f64 {
    page.value_with(name, ("window", window)).unwrap_or(0.0)
}

fn render(page: &ParsedPage, addr: &str, tick: u64) -> String {
    let mut out = String::new();
    let line = |out: &mut String, text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    line(&mut out, format!("obs_top — {addr} (tick {tick})"));
    for window in ["10s", "60s"] {
        line(
            &mut out,
            format!(
                "  window {window:>3}: {:8.1} req/s  {:7.1} ok/s  {:5.1} shed/s  {:5.1} limited/s  p50 {:>6}µs  p95 {:>6}µs",
                windowed(page, "groupsa_serve_window_submitted_per_s", window),
                windowed(page, "groupsa_serve_window_completed_per_s", window),
                windowed(page, "groupsa_serve_window_shed_per_s", window),
                windowed(page, "groupsa_serve_window_limited_per_s", window),
                windowed(page, "groupsa_serve_window_p50_latency_us", window),
                windowed(page, "groupsa_serve_window_p95_latency_us", window),
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
            "  telemetry: sample 1/{}  ring pushed {}  dropped {}",
            value(page, "groupsa_obs_sample_every"),
            value(page, "groupsa_obs_ring_pushed_total"),
            value(page, "groupsa_obs_ring_dropped_total"),
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
    let mut tick = 0u64;
    loop {
        tick += 1;
        let text = fetch_page(&mut stream, &mut reader, tick)?;
        let page = expo::parse(&text).map_err(|e| format!("exposition did not parse: {e}"))?;
        let frame = render(&page, &addr, tick);
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
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
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
