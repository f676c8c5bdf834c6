//! The load generator's wire side: pregenerated request lines, reply
//! validation, the in-process server, and the open- and closed-loop
//! drivers. The generator uses at most two threads and two
//! connections at a time.

use crate::clock;
use groupsa_core::Recommendation;
use groupsa_obs::TelemetryConfig;
use groupsa_serve::{
    server, Engine, EngineConfig, FrozenModel, Request, Response, ServeMode, ServerConfig, StatsSnapshot,
    Target,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Items asked for per request.
pub const K: usize = 10;

/// Ids at or above `base + CONTROL_OFFSET` are control requests
/// (`Stats`, `MetricsDump`, `Reload`); below, recommendation requests.
const CONTROL_OFFSET: u64 = 500_000_000;

/// How long a reader waits for the next reply before declaring the
/// rest missing.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Every `SAMPLE_EVERY`-th valid reply (by sequence number, up to
/// `MAX_SAMPLES` per connection) is kept for the bit comparison
/// against a direct `FrozenModel::recommend` call.
const SAMPLE_EVERY: usize = 53;
const MAX_SAMPLES: usize = 12;

/// Reply lines kept per connection for the protocol-layer timings.
const MAX_KEPT_LINES: usize = 2000;

/// The content of one recommendation request (its id is assigned when
/// it is sent).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Who the items are for.
    pub target: Target,
    /// Items asked for.
    pub k: usize,
    /// Exclude the target's training interactions.
    pub exclude_seen: bool,
    /// Group scoring path.
    pub mode: ServeMode,
    /// Per-request deadline; 0 = none.
    pub deadline_ms: u64,
}

impl Spec {
    /// The wire request for this content under `id`.
    pub fn request(&self, id: u64) -> Request {
        Request::Recommend {
            id,
            target: self.target,
            k: self.k,
            exclude_seen: self.exclude_seen,
            mode: self.mode,
            deadline_ms: self.deadline_ms,
        }
    }

    /// Whether the engine may coalesce this request with others (a user
    /// target scanning the whole catalog).
    pub fn coalescible(&self) -> bool {
        matches!(self.target, Target::User { .. }) && !self.exclude_seen
    }
}

/// The serialised prefix every recommendation line shares; the id
/// follows it, then the per-spec tail.
const ID_HEAD: &str = "{\"Recommend\":{\"id\":";

/// Pregenerated request content: specs plus their serialised line
/// tails, so sending a request is a copy and an integer format.
pub struct Pool {
    specs: Vec<Spec>,
    tails: Vec<String>,
}

impl Pool {
    /// Serialises every spec once.
    pub fn new(specs: Vec<Spec>) -> Result<Self, String> {
        if specs.is_empty() {
            return Err("empty request pool".into());
        }
        let head = format!("{ID_HEAD}0");
        let tails = specs
            .iter()
            .map(|s| {
                let text = groupsa_json::to_string(&s.request(0));
                text.strip_prefix(&head)
                    .map(|tail| format!("{tail}\n"))
                    .ok_or_else(|| format!("request encoding changed shape: {text}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { specs, tails })
    }

    /// The spec at `idx` (wrapping).
    pub fn spec(&self, idx: usize) -> &Spec {
        &self.specs[idx % self.specs.len()]
    }

    /// Appends the NDJSON line for spec `idx` under `id` to `out`.
    pub fn line(&self, idx: usize, id: u64, out: &mut String) {
        out.push_str(ID_HEAD);
        let _ = write!(out, "{id}");
        out.push_str(&self.tails[idx % self.tails.len()]);
    }
}

/// A non-recommendation request riding the same connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Control {
    /// Metrics snapshot.
    Stats,
    /// Prometheus-style page.
    MetricsDump,
    /// Hot-swap to a snapshot directory.
    Reload(String),
}

impl Control {
    fn request(&self, id: u64) -> Request {
        match self {
            Control::Stats => Request::Stats { id },
            Control::MetricsDump => Request::MetricsDump { id },
            Control::Reload(dir) => Request::Reload { id, dir: dir.clone() },
        }
    }

    fn answered_by(&self, reply: &Response) -> bool {
        match (self, reply) {
            (Control::Stats, Response::Stats { .. }) | (Control::Reload(_), Response::Reloaded { .. }) => true,
            (Control::MetricsDump, Response::Metrics { page, .. }) => !page.is_empty(),
            _ => false,
        }
    }
}

/// Validates replies against the served model's universe.
pub struct Checker<'a> {
    /// The served model.
    pub frozen: &'a FrozenModel,
    /// Whether `exclude_seen` can be checked (full context present).
    pub memory_backed: bool,
}

impl Checker<'_> {
    /// Checks one recommendation list: at most `k` items, scores
    /// finite and non-increasing, items in the catalog and distinct,
    /// and (on memory-backed worlds) none the target already saw when
    /// `exclude_seen` was asked for.
    pub fn check_items(&self, spec: &Spec, items: &[Recommendation]) -> Result<(), String> {
        if items.len() > spec.k {
            return Err(format!("{} items for k = {}", items.len(), spec.k));
        }
        let ctx = self.frozen.context();
        for (i, r) in items.iter().enumerate() {
            if !r.score.is_finite() {
                return Err(format!("non-finite score {}", r.score));
            }
            if r.item >= ctx.num_items {
                return Err(format!("item {} outside the {}-item catalog", r.item, ctx.num_items));
            }
            if items[..i].iter().any(|p| p.item == r.item) {
                return Err(format!("item {} listed twice", r.item));
            }
            if i > 0 && items[i - 1].score < r.score {
                return Err(format!("scores not descending at rank {i}"));
            }
            if self.memory_backed && spec.exclude_seen {
                let seen = match spec.target {
                    Target::User { id } => ctx.user_item_graph.has_interaction(id, r.item),
                    Target::Group { id } => ctx.group_item_graph.has_interaction(id, r.item),
                };
                if seen {
                    return Err(format!("item {} already seen by {:?} despite exclude_seen", r.item, spec.target));
                }
            }
        }
        Ok(())
    }
}

/// What one reply line turned out to be.
#[derive(Debug, PartialEq, Eq)]
pub enum Absorbed {
    /// A valid recommendation list.
    Valid,
    /// A typed error reply (refusal, shed, expiry, model error).
    Refused,
    /// A control reply (answered or refused).
    Control,
    /// Anything else: unparseable, unknown or repeated id, wrong kind,
    /// or a list that failed validation.
    Invalid,
}

/// One connection's send/receive record.
pub struct Ledger {
    /// Id of sequence number 0 on this connection.
    pub base: u64,
    /// Pool index of each recommendation request.
    pub spec: Vec<usize>,
    /// When each recommendation request was written.
    pub sent: Vec<Instant>,
    /// When its reply arrived.
    pub recv: Vec<Option<Instant>>,
    /// Whether that reply was a valid list.
    pub valid: Vec<bool>,
    /// Control requests in send order, with their send instants.
    pub controls: Vec<(Control, Instant)>,
    /// Whether each control got its expected reply.
    pub control_ok: Vec<Option<bool>>,
    /// Typed error replies to recommendation requests.
    pub refused: usize,
    /// Descriptions of invalid replies.
    pub invalid: Vec<String>,
    /// `(pool index, items)` of sampled valid replies.
    pub samples: Vec<(usize, Vec<Recommendation>)>,
    /// Raw recommendation reply lines, when kept.
    pub kept_lines: Vec<String>,
    keep_lines: bool,
}

impl Ledger {
    /// An empty ledger for ids starting at `base`.
    pub fn new(base: u64, keep_lines: bool) -> Self {
        Self {
            base,
            spec: Vec::new(),
            sent: Vec::new(),
            recv: Vec::new(),
            valid: Vec::new(),
            controls: Vec::new(),
            control_ok: Vec::new(),
            refused: 0,
            invalid: Vec::new(),
            samples: Vec::new(),
            kept_lines: Vec::new(),
            keep_lines,
        }
    }

    /// Requests written (recommendations and controls).
    pub fn attempted(&self) -> usize {
        self.sent.len() + self.controls.len()
    }

    /// Requests without a valid answer: typed errors, failed controls,
    /// invalid replies and missing replies.
    pub fn failed(&self) -> usize {
        let missing = self.recv.iter().filter(|r| r.is_none()).count();
        let bad_controls = self.control_ok.iter().filter(|ok| **ok != Some(true)).count();
        self.refused + missing + bad_controls + self.invalid.len()
    }

    /// Replies that never arrived.
    pub fn missing(&self) -> usize {
        self.recv.iter().filter(|r| r.is_none()).count() + self.control_ok.iter().filter(|ok| ok.is_none()).count()
    }

    /// Id of recommendation sequence number `seq`.
    pub fn id_of(&self, seq: usize) -> u64 {
        self.base + seq as u64
    }

    /// Sequence number of a recommendation id on this connection.
    pub fn seq_of(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.base).filter(|s| *s < CONTROL_OFFSET).map(|s| s as usize)
    }

    /// Validates and records one reply line received at `at`.
    pub fn absorb(&mut self, line: &str, at: Instant, pool: &Pool, checker: &Checker<'_>) -> Absorbed {
        let reply = match groupsa_json::from_str::<Response>(line) {
            Ok(r) => r,
            Err(e) => return self.reject(format!("unparseable reply ({e}): {line}")),
        };
        let id = match &reply {
            Response::Recommend { id, .. }
            | Response::Stats { id, .. }
            | Response::Metrics { id, .. }
            | Response::Error { id, .. }
            | Response::Reloaded { id }
            | Response::Bye { id } => *id,
        };
        if let Some(c) = id.checked_sub(self.base + CONTROL_OFFSET) {
            let c = c as usize;
            let ok = match (self.controls.get(c), self.control_ok.get(c)) {
                (Some((control, _)), Some(None)) => control.answered_by(&reply),
                _ => return self.reject(format!("reply for unknown or repeated control id {id}")),
            };
            if !ok && !matches!(reply, Response::Error { .. }) {
                return self.reject(format!("control id {id} answered with the wrong kind: {line}"));
            }
            self.control_ok[c] = Some(ok);
            return Absorbed::Control;
        }
        let Some(seq) = self.seq_of(id).filter(|&s| s < self.sent.len() && self.recv[s].is_none()) else {
            return self.reject(format!("reply for unknown or repeated id {id}"));
        };
        self.recv[seq] = Some(at);
        match reply {
            Response::Recommend { items, .. } => {
                let idx = self.spec[seq];
                if let Err(e) = checker.check_items(pool.spec(idx), &items) {
                    return self.reject(format!("id {id}: {e}"));
                }
                self.valid[seq] = true;
                if seq % SAMPLE_EVERY == 0 && self.samples.len() < MAX_SAMPLES {
                    self.samples.push((idx, items));
                }
                if self.keep_lines && self.kept_lines.len() < MAX_KEPT_LINES {
                    self.kept_lines.push(line.to_string());
                }
                Absorbed::Valid
            }
            Response::Error { .. } => {
                self.refused += 1;
                Absorbed::Refused
            }
            _ => self.reject(format!("id {id} answered with a non-recommendation reply: {line}")),
        }
    }

    fn reject(&mut self, why: String) -> Absorbed {
        self.invalid.push(why);
        Absorbed::Invalid
    }

    /// Records the next recommendation (pool index `idx`), sent at `at`.
    fn note_sent(&mut self, at: Instant, idx: usize) {
        self.spec.push(idx);
        self.sent.push(at);
        self.recv.push(None);
        self.valid.push(false);
    }

    fn note_control(&mut self, control: Control, at: Instant) -> u64 {
        let id = self.base + CONTROL_OFFSET + self.controls.len() as u64;
        self.controls.push((control, at));
        self.control_ok.push(None);
        id
    }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Sends one request on a fresh connection and returns its reply.
pub fn roundtrip(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    let (mut stream, mut reader) = connect(addr)?;
    let mut line = groupsa_json::to_string(request);
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| format!("reply: {e}"))?;
    groupsa_json::from_str::<Response>(reply.trim_end()).map_err(|e| format!("unparseable reply ({e}): {reply}"))
}

/// Asks the server for its metrics snapshot.
pub fn fetch_stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    match roundtrip(addr, &Request::Stats { id: 1 })? {
        Response::Stats { stats, .. } => Ok(stats),
        other => Err(format!("Stats answered with {other:?}")),
    }
}

/// An in-process server: engine plus NDJSON/TCP front end on an
/// ephemeral loopback port.
pub struct Host {
    /// Where it listens.
    pub addr: SocketAddr,
    /// The engine behind it (telemetry records, reloads).
    pub engine: Arc<Engine>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Host {
    /// Binds `127.0.0.1:0` and serves `frozen` with two workers.
    pub fn start(frozen: Arc<FrozenModel>, telemetry: TelemetryConfig) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let engine =
            Engine::start(frozen, EngineConfig { workers: 2, telemetry: Some(telemetry), ..EngineConfig::default() });
        let served = Arc::clone(&engine);
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server::run_with(listener, served, ServerConfig::default()))
            .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(Self { addr, engine, thread: Some(thread) })
    }

    /// Sends `Shutdown`, expects `Bye`, and joins the server thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = roundtrip(self.addr, &Request::Shutdown { id: 2 });
        let joined = self.join();
        match reply? {
            Response::Bye { .. } => joined,
            other => Err(format!("Shutdown answered with {other:?}")),
        }
    }

    fn join(&mut self) -> Result<(), String> {
        match self.thread.take() {
            Some(t) => match t.join() {
                Ok(result) => result.map_err(|e| format!("server: {e}")),
                Err(_) => Err("server thread panicked".into()),
            },
            None => Ok(()),
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = roundtrip(self.addr, &Request::Shutdown { id: 3 });
            let _ = self.join();
        }
    }
}

/// An open-loop schedule: send offsets for recommendations (consecutive
/// pool indices) and for control requests.
pub struct OpenPlan {
    /// Offset of each recommendation from the phase start.
    pub at: Vec<Duration>,
    /// Offset and content of each control request.
    pub controls: Vec<(Duration, Control)>,
}

/// What an open-loop phase recorded.
pub struct OpenRun {
    /// Per-request record.
    pub ledger: Ledger,
    /// The schedule's time zero.
    pub start: Instant,
    /// Scheduled offsets (copied from the plan).
    pub at: Vec<Duration>,
}

impl OpenRun {
    /// Wire-to-wire latency of every valid reply, in ms, timed from the
    /// request's scheduled send time.
    pub fn latencies_ms(&self) -> Vec<f64> {
        (0..self.at.len())
            .filter(|&s| self.ledger.valid[s])
            .filter_map(|s| self.ledger.recv[s].map(|r| (r - (self.start + self.at[s])).as_secs_f64() * 1e3))
            .collect()
    }

    /// How late the generator wrote each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.ledger
            .sent
            .iter()
            .zip(&self.at)
            .map(|(&sent, &at)| sent.saturating_duration_since(self.start + at).as_secs_f64() * 1e3)
            .collect()
    }

    /// The backlog bound for this schedule: `seconds` of its offered
    /// requests, and at least `floor`.
    pub fn backlog_bound(&self, seconds: f64, floor: usize) -> usize {
        let span = self.at.last().map_or(0.0, |d| d.as_secs_f64());
        let rate = if span > 0.0 { self.at.len() as f64 / span } else { 0.0 };
        ((rate * seconds) as usize).max(floor)
    }

    /// Most requests outstanding (written, not yet answered) at any
    /// send instant — the backlog the open loop built.
    pub fn max_backlog(&self) -> usize {
        let mut recv: Vec<Instant> = self.ledger.recv.iter().flatten().copied().collect();
        recv.sort();
        let mut answered = 0;
        let mut worst = 0;
        for (i, &sent) in self.ledger.sent.iter().enumerate() {
            while answered < recv.len() && recv[answered] <= sent {
                answered += 1;
            }
            worst = worst.max((i + 1).saturating_sub(answered));
        }
        worst
    }
}

/// Runs an open-loop phase on one connection: a writer thread follows
/// the schedule, a reader thread validates replies as they arrive.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    checker: &Checker<'_>,
    plan: &OpenPlan,
    first: usize,
    base: u64,
    keep_lines: bool,
) -> Result<OpenRun, String> {
    let (stream, mut reader) = connect(addr)?;
    let mut ledger = Ledger::new(base, keep_lines);
    ledger.spec = (first..first + plan.at.len()).collect();
    for (_, control) in &plan.controls {
        // Control ids are fixed by schedule position; send instants are
        // overwritten by the writer.
        ledger.note_control(control.clone(), clock::now());
    }
    ledger.recv = vec![None; plan.at.len()];
    ledger.valid = vec![false; plan.at.len()];
    // Placeholder send instants so the reader can accept any scheduled
    // id; the writer's real instants replace them after the join.
    ledger.sent = vec![clock::now(); plan.at.len()];
    let start = clock::now() + Duration::from_millis(20);
    let expected = plan.at.len() + plan.controls.len();

    let (written, ledger) = std::thread::scope(|s| {
        let writer = s.spawn(move || write_schedule(stream, pool, plan, first, base, start));
        let reader = s.spawn(move || {
            let mut line = String::new();
            for _ in 0..expected {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = clock::now();
                        ledger.absorb(line.trim_end(), at, pool, checker);
                    }
                }
            }
            ledger
        });
        (writer.join(), reader.join())
    });
    let mut ledger = ledger.map_err(|_| "open-loop reader panicked".to_string())?;
    let (sent, control_sent) = written.map_err(|_| "open-loop writer panicked".to_string())??;
    ledger.sent = sent;
    for (slot, at) in ledger.controls.iter_mut().zip(control_sent) {
        slot.1 = at;
    }
    Ok(OpenRun { ledger, start, at: plan.at.clone() })
}

type Written = Result<(Vec<Instant>, Vec<Instant>), String>;

fn write_schedule(mut stream: TcpStream, pool: &Pool, plan: &OpenPlan, first: usize, base: u64, start: Instant) -> Written {
    let mut sent = Vec::with_capacity(plan.at.len());
    let mut control_sent = Vec::with_capacity(plan.controls.len());
    let mut line = String::new();
    let (mut i, mut c) = (0, 0);
    while i < plan.at.len() || c < plan.controls.len() {
        let control_next = c < plan.controls.len() && (i >= plan.at.len() || plan.controls[c].0 <= plan.at[i]);
        let due = start + if control_next { plan.controls[c].0 } else { plan.at[i] };
        let now = clock::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        line.clear();
        let at = clock::now();
        if control_next {
            let id = base + CONTROL_OFFSET + c as u64;
            line.push_str(&groupsa_json::to_string(&plan.controls[c].1.request(id)));
            line.push('\n');
            control_sent.push(at);
            c += 1;
        } else {
            pool.line(first + i, base + i as u64, &mut line);
            sent.push(at);
            i += 1;
        }
        stream.write_all(line.as_bytes()).map_err(|e| format!("open-loop send: {e}"))?;
    }
    Ok((sent, control_sent))
}

/// A closed-loop phase: each connection keeps `window` requests in
/// flight; connection 0 also sends `controls` in turn every
/// `control_every`.
pub struct ClosedPlan {
    /// Requests in flight per connection.
    pub window: usize,
    /// Phase length.
    pub duration: Duration,
    /// Control cadence on connection 0 (`None`: no controls).
    pub control_every: Option<Duration>,
    /// Controls cycled through at that cadence.
    pub controls: Vec<Control>,
}

/// What a closed-loop phase recorded.
pub struct ClosedRun {
    /// One ledger per connection.
    pub ledgers: Vec<Ledger>,
    /// Valid recommendation replies received before the phase ended.
    pub valid_in_phase: usize,
    /// Phase length in seconds.
    pub seconds: f64,
    /// When the phase ended (replies after it are validated, not timed).
    pub end: Instant,
    /// Process CPU seconds used during the phase.
    pub cpu_s: f64,
    /// The pool index after the last one sent.
    pub next_spec: usize,
}

impl ClosedRun {
    /// Write-to-reply latency of every valid recommendation reply that
    /// arrived within the phase, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ledgers
            .iter()
            .flat_map(|l| {
                (0..l.sent.len())
                    .filter(|&s| l.valid[s])
                    .filter_map(move |s| l.recv[s].filter(|&r| r <= self.end).map(|r| (r - l.sent[s]).as_secs_f64() * 1e3))
            })
            .collect()
    }
}

/// Runs a closed-loop phase on two connections, one thread each. Both
/// draw the next request from one shared sequence, starting at pool
/// index `first`, so together they send a contiguous run of the pool.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    checker: &Checker<'_>,
    plan: &ClosedPlan,
    first: usize,
    bases: [u64; 2],
    keep_lines: bool,
) -> Result<ClosedRun, String> {
    let conns = [connect(addr)?, connect(addr)?];
    let cpu0 = crate::stats::cpu_seconds()?;
    let start = clock::now();
    let end = start + plan.duration;
    let next = Mutex::new(first);
    let next = &next;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, (stream, reader))| {
                let ledger = Ledger::new(bases[c], keep_lines);
                let controls = if c == 0 { plan.control_every.map(|every| (every, &plan.controls[..])) } else { None };
                s.spawn(move || drive_window(stream, reader, ledger, next, pool, checker, plan.window, end, controls))
            })
            .collect();
        let now = clock::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        let cpu1 = crate::stats::cpu_seconds();
        (handles.into_iter().map(|h| h.join()).collect::<Vec<_>>(), cpu1)
    });
    let (joined, cpu1) = results;
    let mut ledgers = Vec::new();
    let mut valid_in_phase = 0;
    for j in joined {
        let (ledger, valid) = j.map_err(|_| "closed-loop connection thread panicked".to_string())??;
        valid_in_phase += valid;
        ledgers.push(ledger);
    }
    let next_spec = *next.lock().map_err(|_| "closed-loop sequence lock poisoned".to_string())?;
    Ok(ClosedRun { ledgers, valid_in_phase, seconds: plan.duration.as_secs_f64(), end, cpu_s: cpu1? - cpu0, next_spec })
}

#[allow(clippy::too_many_arguments)]
fn drive_window(
    mut stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    mut ledger: Ledger,
    next: &Mutex<usize>,
    pool: &Pool,
    checker: &Checker<'_>,
    window: usize,
    end: Instant,
    controls: Option<(Duration, &[Control])>,
) -> Result<(Ledger, usize), String> {
    let mut line = String::new();
    let mut outstanding = 0usize;
    let send_next = |ledger: &mut Ledger, stream: &mut TcpStream, line: &mut String| -> Result<(), String> {
        let idx = {
            let mut n = next.lock().map_err(|_| "closed-loop sequence lock poisoned".to_string())?;
            *n += 1;
            *n - 1
        };
        let seq = ledger.sent.len();
        line.clear();
        pool.line(idx, ledger.id_of(seq), line);
        ledger.note_sent(clock::now(), idx);
        stream.write_all(line.as_bytes()).map_err(|e| format!("closed-loop send: {e}"))
    };
    for _ in 0..window {
        send_next(&mut ledger, &mut stream, &mut line)?;
        outstanding += 1;
    }
    let mut next_control = controls.map(|(every, _)| clock::now() + every);
    let mut valid_in_phase = 0;
    let mut reply = String::new();
    while outstanding > 0 {
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => break, // the rest count as missing
            Ok(_) => {}
        }
        let at = clock::now();
        outstanding -= 1;
        if ledger.absorb(reply.trim_end(), at, pool, checker) == Absorbed::Valid && at <= end {
            valid_in_phase += 1;
        }
        if at >= end {
            continue;
        }
        if let (Some((every, cycle)), Some(due)) = (controls, next_control) {
            if at >= due && !cycle.is_empty() {
                let control = cycle[ledger.controls.len() % cycle.len()].clone();
                let id = ledger.note_control(control.clone(), at);
                line.clear();
                line.push_str(&groupsa_json::to_string(&control.request(id)));
                line.push('\n');
                stream.write_all(line.as_bytes()).map_err(|e| format!("closed-loop send: {e}"))?;
                outstanding += 1;
                next_control = Some(due + every);
            }
        }
        send_next(&mut ledger, &mut stream, &mut line)?;
        outstanding += 1;
    }
    Ok((ledger, valid_in_phase))
}
