//! Structured span tracing and the `GROUPSA_TRACE` JSONL emitter.
//!
//! The trace sink is process-global and initialised lazily from the
//! `GROUPSA_TRACE` environment variable on first use. When the
//! variable is unset (the default), [`enabled`] is a single atomic
//! load, [`Span::enter`] returns an inert guard without reading the
//! clock, and [`emit`] returns immediately — the disabled path does no
//! allocation, no I/O, and (by construction) never touches an RNG, so
//! tracing cannot perturb training determinism.
//!
//! When enabled, every call appends one JSON object per line to the
//! trace file. Lines are written with a single `write_all` under a
//! mutex (no buffering), so the file is valid JSONL even if the
//! process is killed mid-run and needs no flush-at-exit hook.
//!
//! Spans nest per thread: a thread-local depth counter stamps each
//! span event with its nesting level, and span events are emitted on
//! drop (so a parent's `dur_us` covers its children, which appear
//! earlier in the file).

use groupsa_json::Json;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The environment variable that turns tracing on: its value is the
/// JSONL output path.
pub const TRACE_ENV: &str = "GROUPSA_TRACE";

struct Sink {
    file: Mutex<std::fs::File>,
    start: Instant,
    seq: AtomicU64,
}

static SINK: OnceLock<Option<Sink>> = OnceLock::new();

fn sink() -> Option<&'static Sink> {
    SINK.get_or_init(|| {
        let path = match std::env::var(TRACE_ENV) {
            Ok(p) if !p.trim().is_empty() => p,
            _ => return None,
        };
        if let Some(parent) = Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::File::create(&path) {
            Ok(file) => Some(Sink { file: Mutex::new(file), start: Instant::now(), seq: AtomicU64::new(0) }),
            Err(e) => {
                eprintln!("groupsa-obs: cannot open {TRACE_ENV}={path}: {e}; tracing disabled");
                None
            }
        }
    })
    .as_ref()
}

/// Whether tracing is on for this process (`GROUPSA_TRACE` was set to
/// an openable path when the first instrumentation point ran). The
/// fast path after initialisation is one atomic load.
pub fn enabled() -> bool {
    sink().is_some()
}

/// Converts any serialisable value to a [`Json`] field payload —
/// helper the [`span!`](crate::span) macro expands to.
pub fn to_json<T: groupsa_json::ToJson>(value: &T) -> Json {
    value.to_json()
}

thread_local! {
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

fn thread_label() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", current.id()),
    }
}

fn write_event(s: &Sink, kind: &str, fields: &[(&str, Json)]) {
    let mut members: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 4);
    members.push(("kind".to_string(), Json::String(kind.to_string())));
    members.push(("seq".to_string(), Json::Number(s.seq.fetch_add(1, Ordering::Relaxed) as f64)));
    members.push(("t_us".to_string(), Json::Number(s.start.elapsed().as_micros() as f64)));
    members.push(("thread".to_string(), Json::String(thread_label())));
    for (name, value) in fields {
        members.push((name.to_string(), value.clone()));
    }
    let mut line = Json::Object(members).to_compact_string();
    line.push('\n');
    // Tracing is best-effort; recover a poisoned sink rather than let
    // an unrelated panic cascade into every traced thread.
    let mut file = s.file.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = file.write_all(line.as_bytes());
}

/// Emits one event line (no-op when tracing is disabled). The common
/// fields `kind`/`seq`/`t_us`/`thread` are added automatically.
pub fn emit(kind: &str, fields: &[(&str, Json)]) {
    if let Some(s) = sink() {
        write_event(s, kind, fields);
    }
}

struct SpanLive {
    name: &'static str,
    start: Instant,
    depth: u64,
    fields: Vec<(&'static str, Json)>,
}

/// A scoped timer that emits a `span` event when dropped. Create with
/// [`Span::enter`] or the [`span!`](crate::span) macro; inert (and
/// nearly free) when tracing is disabled.
pub struct Span {
    live: Option<SpanLive>,
}

impl Span {
    /// Opens a span. `fields` are extra payload members attached to
    /// the emitted event.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Json)>) -> Span {
        if !enabled() {
            return Span { live: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span { live: Some(SpanLive { name, start: Instant::now(), depth, fields }) }
    }

    /// An inert span — what the [`span!`](crate::span) macro returns
    /// on the disabled path, without building its field vector.
    pub fn disabled() -> Span {
        Span { live: None }
    }

    /// `true` when this span does nothing (tracing disabled).
    pub fn is_noop(&self) -> bool {
        self.live.is_none()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if let Some(s) = sink() {
            let mut fields: Vec<(&str, Json)> = Vec::with_capacity(live.fields.len() + 3);
            fields.push(("name", Json::String(live.name.to_string())));
            fields.push(("dur_us", Json::Number(live.start.elapsed().as_micros() as f64)));
            fields.push(("depth", Json::Number(live.depth as f64)));
            fields.extend(live.fields);
            write_event(s, "span", &fields);
        }
    }
}

/// Opens a [`Span`] guard: `span!("group_epoch", "round" => round)`.
/// The first argument is the span name; the rest are
/// `"key" => value` payload fields (any `ToJson` value).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, Vec::new())
    };
    ($name:expr, $($key:literal => $value:expr),+ $(,)?) => {
        // Gate before building the field vector: the disabled path
        // must not allocate or serialise anything.
        if $crate::enabled() {
            $crate::Span::enter($name, vec![$(($key, $crate::to_json(&$value))),+])
        } else {
            $crate::Span::disabled()
        }
    };
}
