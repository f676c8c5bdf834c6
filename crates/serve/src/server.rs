//! NDJSON-over-TCP front end for the [`Engine`], with per-connection
//! request pipelining.
//!
//! One connection = one client; each line is a [`Request`], each reply
//! a [`Response`] on its own line. Reads and writes are decoupled: the
//! connection thread parses lines and submits them to the engine
//! without waiting for answers, while a dedicated writer thread drains
//! a response channel — so a client may keep many requests in flight
//! and match replies to requests by the echoed `id`. Responses arrive
//! in **completion order**, not submission order; `Stats`, `Reloaded`
//! and `Bye` replies ride the same channel, so every line a connection
//! ever receives comes from one writer.
//!
//! The accept loop polls a non-blocking listener, reaping finished
//! connection threads as it goes (the server's thread count tracks
//! *live* connections, not historical ones — visible as the
//! `open_connections` gauge). A `Shutdown` request flips a shared
//! stop flag: the loop stops admitting, refuses any backlogged
//! connection attempts with an explicit `engine is shutting down`
//! error line, gives live connections a grace period to finish, then
//! severs lingering sockets so `run` always returns.
//!
//! Optional per-connection token-bucket rate limiting
//! ([`ServerConfig::rate_limit`]) answers over-budget requests with
//! `rate limited` *before* they reach the engine — limited requests
//! are never counted as submitted.
//!
//! A request line is at most [`MAX_LINE_BYTES`] long: a longer line is
//! answered with a typed `bad request` naming the cap and the
//! connection is closed, so a client that never sends a newline cannot
//! grow server memory. A line that is not UTF-8 is answered with a
//! typed `bad request`, like unparseable JSON, and the connection keeps
//! reading.

use crate::admission::TokenBucket;
use crate::engine::{Engine, Outbound};
use crate::error::ServeError;
use crate::protocol::{Request, Response};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls when idle. Short
/// enough that accept latency is invisible next to scoring work; long
/// enough that an idle server burns no measurable CPU.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How long shutdown waits for live connections to finish on their own
/// before severing their sockets.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// The longest request line the server reads, newline excluded. Real
/// requests are a few hundred bytes; the cap bounds what one
/// connection can make the server buffer.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Connection-layer policy knobs (the engine has its own
/// [`crate::engine::EngineConfig`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {
    /// Per-connection sustained request budget (requests/second);
    /// `0` disables rate limiting.
    pub rate_limit: u64,
    /// Burst capacity on top of `rate_limit` (tokens; `0` means
    /// "same as the rate").
    pub rate_burst: u64,
}

/// Serves `engine` on `listener` with default connection policy (no
/// rate limiting) until a client sends `Shutdown`. Returns after every
/// connection has been answered or severed and the engine has drained.
pub fn run(listener: TcpListener, engine: Arc<Engine>) -> io::Result<()> {
    run_with(listener, engine, ServerConfig::default())
}

/// [`run`], with explicit [`ServerConfig`].
pub fn run_with(listener: TcpListener, engine: Arc<Engine>, cfg: ServerConfig) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    // Each live connection keeps its join handle plus a spare stream
    // handle, so shutdown can sever sockets whose clients never hang
    // up (a blocking `read_line` only returns once the socket dies).
    let mut live: Vec<(std::thread::JoinHandle<()>, Option<TcpStream>)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue; // socket already dead
                }
                let spare = stream.try_clone().ok();
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                match std::thread::Builder::new().name("serve-conn".into()).spawn(move || {
                    handle_connection(stream, &engine, &stop, cfg);
                }) {
                    Ok(handle) => live.push((handle, spare)),
                    Err(_) => {
                        // Out of threads: refuse rather than hang the
                        // client on an unserved connection.
                        if let Some(mut s) = spare {
                            let _ = send(&mut s, &ServeError::ShuttingDown.into_response(0));
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_finished(&mut live, &engine);
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Listener broke: sever everything so `run` can report
                // the error instead of hanging on live connections.
                stop.store(true, Ordering::SeqCst);
                finish(live, &engine);
                engine.shutdown();
                return Err(e);
            }
        }
    }
    // Stop flag is up. Anything still sitting in the accept backlog is
    // a legitimate client that lost the race with shutdown — answer it
    // with a typed refusal instead of silently dropping the socket.
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = send(&mut stream, &ServeError::ShuttingDown.into_response(0));
                let _ = stream.shutdown(Shutdown::Both);
            }
            Err(_) => break, // WouldBlock (backlog empty) or a dead listener
        }
    }
    finish(live, &engine);
    engine.shutdown();
    Ok(())
}

/// Joins finished connection threads and refreshes the
/// `open_connections` gauge. Called on every idle poll tick, so the
/// handle list tracks live connections instead of growing one entry
/// per connection for the lifetime of the server.
fn reap_finished(live: &mut Vec<(std::thread::JoinHandle<()>, Option<TcpStream>)>, engine: &Engine) {
    let mut still = Vec::with_capacity(live.len());
    for (handle, spare) in live.drain(..) {
        if handle.is_finished() {
            let _ = handle.join(); // finished: joins without blocking
        } else {
            still.push((handle, spare));
        }
    }
    *live = still;
    engine.metrics().note_open_connections(live.len());
}

/// Shutdown path for live connections: wait out a grace period, sever
/// whatever is left (unblocking readers parked in `read_line`), then
/// join every thread.
fn finish(mut live: Vec<(std::thread::JoinHandle<()>, Option<TcpStream>)>, engine: &Engine) {
    let deadline = Instant::now() + SHUTDOWN_GRACE;
    while Instant::now() < deadline {
        reap_finished(&mut live, engine);
        if live.is_empty() {
            return;
        }
        std::thread::sleep(ACCEPT_POLL);
    }
    for (handle, spare) in live {
        if let Some(stream) = spare {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = handle.join();
    }
    engine.metrics().note_open_connections(0);
}

/// Runs one pipelined connection to completion.
///
/// The calling thread is the reader: it parses each line and either
/// answers it structurally (admission refusals, `Stats`, `Reload`,
/// `Shutdown`) or hands it to the engine — in both cases the response
/// travels through `tx` to the writer thread, which owns the socket's
/// write half. Dropping `tx` after the last line means the writer
/// naturally drains every in-flight response before hanging up: the
/// channel only disconnects once the engine has answered everything
/// this connection submitted.
///
/// The writer is also the final telemetry stage: when telemetry is
/// enabled it times each serialize-and-write, feeds the write
/// histogram, and files the [`Outbound`]'s pending lifecycle record —
/// the only point that knows when the response bytes actually left.
fn handle_connection(stream: TcpStream, engine: &Arc<Engine>, stop: &AtomicBool, cfg: ServerConfig) {
    let writer_stream = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Outbound>();
    let writer_engine = Arc::clone(engine);
    let writer = std::thread::Builder::new().name("serve-conn-writer".into()).spawn(move || {
        let mut stream = writer_stream;
        for outbound in rx {
            // One immutable-bool load when telemetry is off; the timed
            // path only exists for sampled/slow-capturing servers.
            let t0 = writer_engine.telemetry().enabled().then(Instant::now);
            let sent = send(&mut stream, &outbound.response);
            if let Some(t0) = t0 {
                let elapsed = t0.elapsed();
                writer_engine.metrics().note_write(elapsed);
                if let Some(pending) = outbound.record {
                    let (record, sampled) = pending.finish(elapsed);
                    writer_engine.telemetry().observe(record, sampled);
                }
            }
            if sent.is_err() {
                // Client stopped reading: sever the read half too so
                // the reader notices, then drain the channel so
                // in-flight submitters never block on a full pipe.
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
        }
    });
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut bucket = (cfg.rate_limit > 0).then(|| {
        TokenBucket::new(
            cfg.rate_limit,
            if cfg.rate_burst > 0 { cfg.rate_burst } else { cfg.rate_limit },
        )
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // One byte past the cap is enough to tell an over-long line;
        // the trailing newline, if any, parses as JSON whitespace.
        buf.clear();
        match reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
            // End of stream, or the client went away mid-line (or was
            // severed).
            Ok(0) | Err(_) => break,
            Ok(n) if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                // The rest of the line is never read: refuse it and
                // close the connection.
                let refusal = ServeError::BadRequest {
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                }
                .into_response(0);
                let _ = tx.send(Outbound::plain(refusal));
                break;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            // The line boundary is known, so refuse this line alone.
            let refusal = ServeError::BadRequest { message: "request line is not UTF-8".into() }
                .into_response(0);
            if tx.send(Outbound::plain(refusal)).is_err() {
                break;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match groupsa_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                let refusal = ServeError::BadRequest { message: e.to_string() }.into_response(0);
                if tx.send(Outbound::plain(refusal)).is_err() {
                    break;
                }
                continue;
            }
        };
        let id = request.id();
        if let Some(bucket) = bucket.as_mut() {
            if !bucket.admit(Instant::now()) {
                engine.metrics().note_limited();
                if tx.send(Outbound::plain(ServeError::RateLimited.into_response(id))).is_err() {
                    break;
                }
                continue;
            }
        }
        match request {
            Request::Stats { id } => {
                if tx.send(Outbound::plain(Response::Stats { id, stats: engine.stats() })).is_err()
                {
                    break;
                }
            }
            Request::MetricsDump { id } => {
                // Rendered on the reader thread, like `Stats`: the page
                // is a point-in-time snapshot and never blocks workers.
                let page = engine.exposition();
                if tx.send(Outbound::plain(Response::Metrics { id, page })).is_err() {
                    break;
                }
            }
            Request::Reload { id, dir } => {
                // Synchronous on the reader thread: later lines from
                // this connection see the new model, and in-flight
                // requests finish on whichever snapshot their job
                // pinned.
                let response = match engine.reload_from_snapshot(&dir) {
                    Ok(()) => Response::Reloaded { id },
                    Err(message) => ServeError::Reload { message }.into_response(id),
                };
                if tx.send(Outbound::plain(response)).is_err() {
                    break;
                }
            }
            Request::Shutdown { id } => {
                stop.store(true, Ordering::SeqCst);
                let _ = tx.send(Outbound::plain(Response::Bye { id }));
                break;
            }
            request => match request.into_recommend() {
                Some(req) => engine.submit_streamed(req, tx.clone()),
                // Unreachable today (every variant is matched above),
                // but a future Request variant must degrade to an
                // error reply, not a server panic.
                None => {
                    let refusal = ServeError::BadRequest {
                        message: "unsupported operation".into(),
                    }
                    .into_response(id);
                    if tx.send(Outbound::plain(refusal)).is_err() {
                        break;
                    }
                }
            },
        }
    }
    // Close the reader's sender; once every in-flight job's clone is
    // gone too, the writer drains and exits. Joining it guarantees no
    // response is abandoned half-written when the thread retires.
    drop(tx);
    let _ = writer.join();
}

fn send(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut text = groupsa_json::to_string(response);
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}
