//! Load generator for the `groupsa-serve` subsystem.
//!
//! Two modes, picked by the flag that names the target:
//!
//! * **TCP** (`--addr HOST:PORT`): drives a running `groupsa-serve`
//!   over NDJSON, validating every response (echoed id, ≤ k items,
//!   descending scores). Learns the id universe from a `Stats`
//!   request, so it works against any dataset. `--pipeline true`
//!   writes every request line before reading any response and
//!   matches replies by id — the pipelined wire path. `--reload DIR`
//!   first hot-swaps the server onto a snapshot directory (expects
//!   `Reloaded`) and then benches against the swapped model. With
//!   `--shutdown true` it finishes by asking the server to exit (and
//!   expects `Bye`) — this is the tier-1 smoke path. Exits nonzero on
//!   any malformed response. `--metrics true` additionally fetches a
//!   `MetricsDump` after the bench and fails unless the page parses
//!   and declares every contract metric.
//! * **Snapshot scale** (`--users N`): streams an `N`-user synthetic
//!   universe straight into a sharded binary snapshot (never holding
//!   the universe in memory), opens it lazily through
//!   `FrozenModel::from_snapshot` with a stub context, serves a mixed
//!   workload from it, and writes write/open timings, resident table
//!   bytes, disk bytes and peak RSS to
//!   `results/serve_bench_snapshot.json`. `--memory-budget-mb` turns
//!   the million-scale memory claim into a hard gate: the bench exits
//!   nonzero if peak RSS exceeds the budget.
//!
//! ```text
//! serve_bench --addr HOST:PORT [--clients N] [--requests N] [--k N]
//!             [--pipeline true|false] [--metrics true|false]
//!             [--reload DIR] [--shutdown true|false]
//! serve_bench --users N [--items N] [--groups N] [--snapshot DIR]
//!             [--shards N] [--quant f32|f16|i8] [--chunk N]
//!             [--clients N] [--requests N] [--k N]
//!             [--memory-budget-mb N] [--save true|false]
//! ```
//! `--requests` is the per-client request count; it, `--clients` and
//! the universe sizes must be positive. A flag the chosen mode does
//! not know is a usage error. `--save false` skips writing the results
//! JSON.
//!
//! The snapshot report carries a `schema_version` (like
//! `BENCH_kernels.json`), and an existing results file is
//! schema-validated before it is overwritten.

use groupsa_bench::output::RESULT_SCHEMA_VERSION;
use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::StreamConfig;
use groupsa_json::impl_json_struct;
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::metrics::EXPOSITION_METRICS;
use groupsa_serve::protocol::{RecommendRequest, Request, Response, ServeMode, Target};
use groupsa_serve::FrozenModel;
use groupsa_snapshot::{Quant, SnapshotMeta, SnapshotWriter};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------- CLI

const USAGE: &str = "usage: serve_bench --addr HOST:PORT [--clients N] [--requests N] [--k N] \
[--pipeline true|false] [--metrics true|false] [--reload DIR] [--shutdown true|false]
       serve_bench --users N [--items N] [--groups N] [--snapshot DIR] [--shards N] \
[--quant f32|f16|i8] [--chunk N] [--clients N] [--requests N] [--k N] [--memory-budget-mb N] \
[--save true|false]";

/// The flags each mode understands; the mode is named by its first entry.
const TCP_FLAGS: &[&str] = &["addr", "clients", "requests", "k", "pipeline", "metrics", "reload", "shutdown"];
const SNAPSHOT_FLAGS: &[&str] = &[
    "users",
    "items",
    "groups",
    "snapshot",
    "shards",
    "quant",
    "chunk",
    "clients",
    "requests",
    "k",
    "memory-budget-mb",
    "save",
];

/// Counts that must be positive when given: zero clients or requests
/// would leave nothing to measure, a zero universe nothing to serve.
const POSITIVE_FLAGS: &[&str] = &["clients", "requests", "users", "items", "groups", "chunk"];

/// Parses `--key value` pairs and checks them against the mode that
/// `--addr` or `--users` selects.
fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args.into_iter();
    while let Some(key) = args.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument `{key}` (flags are --key value)\n{USAGE}"));
        };
        let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let known = if flags.contains_key("addr") {
        TCP_FLAGS
    } else if flags.contains_key("users") {
        SNAPSHOT_FLAGS
    } else {
        return Err(format!("pick a mode with --addr or --users\n{USAGE}"));
    };
    let mut names: Vec<&String> = flags.keys().collect();
    names.sort();
    if let Some(name) = names.into_iter().find(|name| !known.contains(&name.as_str())) {
        return Err(format!("unknown flag --{name} for the --{} mode\n{USAGE}", known[0]));
    }
    for key in POSITIVE_FLAGS {
        if num(&flags, key, 1usize)? == 0 {
            return Err(format!("--{key} must be positive"));
        }
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

// ----------------------------------------------------------- workload

/// Deterministic mixed workload over a known-valid id universe.
fn workload(n: usize, per_client_offset: usize, k: usize, users: usize, groups: usize) -> Vec<RecommendRequest> {
    let modes = [
        ServeMode::Voting,
        ServeMode::FastAverage,
        ServeMode::FastLeastMisery,
        ServeMode::FastMaxSatisfaction,
    ];
    (0..n)
        .map(|j| {
            let i = per_client_offset + j;
            let target = if i % 3 == 0 {
                Target::Group { id: (i * 7) % groups.max(1) }
            } else {
                Target::User { id: (i * 11) % users.max(1) }
            };
            RecommendRequest {
                id: (i + 1) as u64,
                target,
                k,
                exclude_seen: i % 2 == 0,
                mode: modes[i % modes.len()],
                deadline_ms: 0,
            }
        })
        .collect()
}

/// Validates one recommend response against its request; returns the
/// failure reason, if any.
fn validate(req: &RecommendRequest, resp: &Response) -> Result<(), String> {
    match resp {
        Response::Recommend { id, items } => {
            if *id != req.id {
                return Err(format!("response id {id} != request id {}", req.id));
            }
            if items.len() > req.k {
                return Err(format!("{} items for k={}", items.len(), req.k));
            }
            for w in items.windows(2) {
                // NaN never outranks a real score, so >= with NaN-last
                // ordering reduces to: not (prev < next).
                if w[0].score < w[1].score {
                    return Err(format!("scores not descending: {} < {}", w[0].score, w[1].score));
                }
            }
            Ok(())
        }
        Response::Error { error, .. } => Err(format!("server error: {error}")),
        other => Err(format!("unexpected response kind: {other:?}")),
    }
}

// ----------------------------------------------------- result payload

/// One measured configuration.
#[derive(Clone, Debug)]
struct RunResult {
    workers: usize,
    clients: usize,
    requests: u64,
    elapsed_ms: f64,
    throughput_rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    mean_us: f64,
}

impl_json_struct!(RunResult {
    workers,
    clients,
    requests,
    elapsed_ms,
    throughput_rps,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
});

/// The snapshot-scale report (`results/serve_bench_snapshot.json`):
/// how long the streamed write and the lazy open took, how many bytes
/// stay resident versus live on disk, and what the engine sustained
/// serving out of the snapshot.
#[derive(Clone, Debug)]
struct SnapshotReport {
    schema_version: u64,
    num_users: usize,
    num_items: usize,
    num_groups: usize,
    dim: usize,
    shards: u64,
    quant: String,
    chunk_users: usize,
    snapshot_id: String,
    snapshot_write_s: f64,
    snapshot_open_ms: f64,
    snapshot_disk_bytes: u64,
    /// Bytes the lazy backing keeps resident (presence bitmap + group
    /// index) — the floor the serving process pays per snapshot.
    resident_table_bytes: u64,
    /// What the same tables would occupy fully materialised in f32.
    full_table_bytes: u64,
    /// Peak RSS of this process (VmHWM), 0 where /proc is unavailable.
    peak_rss_bytes: u64,
    memory_budget_bytes: u64,
    k: usize,
    runs: Vec<RunResult>,
}

impl_json_struct!(SnapshotReport {
    schema_version,
    num_users,
    num_items,
    num_groups,
    dim,
    shards,
    quant,
    chunk_users,
    snapshot_id,
    snapshot_write_s,
    snapshot_open_ms,
    snapshot_disk_bytes,
    resident_table_bytes,
    full_table_bytes,
    peak_rss_bytes,
    memory_budget_bytes,
    k,
    runs,
});

/// Exact percentiles from raw per-request latencies (µs): p50, p95,
/// p99 and the mean.
fn exact_percentiles(latencies: &mut [u64]) -> Result<(u64, u64, u64, f64), String> {
    if latencies.is_empty() {
        return Err("no requests completed, so there are no latencies to summarise".into());
    }
    latencies.sort_unstable();
    let pick = |q: f64| {
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    Ok((pick(0.50), pick(0.95), pick(0.99), mean))
}

// ------------------------------------------------------ snapshot scale

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface does not exist.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Streams `users` synthetic users into a sharded binary snapshot,
/// opens it lazily, and serves a mixed workload out of it — the
/// million-scale path, measured instead of asserted.
fn snapshot_scale(flags: &HashMap<String, String>) -> Result<(), String> {
    let users: usize = num(flags, "users", 1_000_000)?;
    let items: usize = num(flags, "items", 50_000)?;
    let groups: usize = num(flags, "groups", 10_000)?;
    let shards: u32 = num(flags, "shards", 16)?;
    let chunk: usize = num(flags, "chunk", 65_536)?;
    let clients: usize = num(flags, "clients", 4)?;
    let per_client: usize = num(flags, "requests", 64)?;
    let k: usize = num(flags, "k", 10)?;
    let budget_mb: u64 = num(flags, "memory-budget-mb", 1024)?;
    let save = !matches!(flags.get("save").map(String::as_str), Some("false"));
    let quant = match flags.get("quant").map(String::as_str) {
        None => Quant::F32,
        Some(name) => Quant::from_name(name).map_err(|e| format!("--quant: {e}"))?,
    };
    let dir: PathBuf = match flags.get("snapshot") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("groupsa-serve-bench-snap-{}", std::process::id())),
    };

    let mut cfg = GroupSaConfig::tiny();
    cfg.embed_dim = 16;
    let model = GroupSa::new(cfg, users, items);
    let dim = model.user_embedding_table().cols();
    let stream = StreamConfig::serving(77, users, items, groups);
    println!(
        "snapshot scale: {users} users, {items} items, {groups} groups, dim {dim}, \
         {shards} shard(s), {} encoding, chunk {chunk}",
        quant.name()
    );

    // 1. Stream the universe into the snapshot, chunk by chunk. The
    // latent table never exists in memory: each chunk's latents are
    // computed, written and dropped.
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let meta = SnapshotMeta { num_users: users, num_items: items, num_groups: groups, dim, shards, quant };
    let mut writer = SnapshotWriter::create(&dir, meta).map_err(|e| e.to_string())?;
    let mut present_users = 0u64;
    for chunk_profiles in stream.user_chunks(chunk) {
        for p in &chunk_profiles {
            let latent = model.user_latent_from_lists(p.user, &p.top_items, &p.top_friends);
            present_users += latent.is_some() as u64;
            writer.push_user(latent.as_ref().map(|m| m.as_slice())).map_err(|e| e.to_string())?;
        }
    }
    let members = stream.all_group_members();
    let mut group_rep_rows = 0u64;
    for m in &members {
        let reps = model.member_reps_from_parts(m, None, |u| {
            let p = stream.user_profile(u);
            model.user_latent_from_lists(u, &p.top_items, &p.top_friends)
        });
        group_rep_rows += reps.rows() as u64;
        writer.push_group(&reps).map_err(|e| e.to_string())?;
    }
    let snapshot_id = writer.finish().map_err(|e| e.to_string())?;
    let write_s = started.elapsed().as_secs_f64();
    let disk = dir_bytes(&dir);
    println!(
        "  wrote snapshot {snapshot_id:016x} in {write_s:.1}s: {present_users}/{users} users \
         with latents, {group_rep_rows} group rep rows, {:.1} MiB on disk",
        disk as f64 / (1024.0 * 1024.0)
    );

    // 2. Open it lazily behind a stub context — exactly what a serving
    // process at this scale would hold.
    let opened = Instant::now();
    let ctx = DataContext::serving_stub(users, items, members);
    let frozen = Arc::new(FrozenModel::from_snapshot(model, ctx, &dir)?);
    let open_ms = opened.elapsed().as_secs_f64() * 1e3;
    let resident = frozen.resident_table_bytes() as u64;
    let full_bytes = (users as u64 + group_rep_rows) * dim as u64 * 4;
    println!(
        "  opened in {open_ms:.1} ms; resident table bytes {} ({:.4}% of the {:.1} MiB f32 tables)",
        resident,
        resident as f64 / full_bytes as f64 * 100.0,
        full_bytes as f64 / (1024.0 * 1024.0)
    );

    // 3. Serve a mixed workload straight off the snapshot.
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = Engine::start(Arc::clone(&frozen), EngineConfig { workers, ..EngineConfig::default() });
        let started = Instant::now();
        let mut handles = Vec::new();
        for c in 0..clients {
            let engine = Arc::clone(&engine);
            let reqs = workload(per_client, c * per_client, k, users, groups);
            handles.push(std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(reqs.len());
                for req in reqs {
                    let t = Instant::now();
                    let resp = engine.submit(req.clone());
                    latencies.push(t.elapsed().as_micros() as u64);
                    validate(&req, &resp)?;
                }
                Ok::<Vec<u64>, String>(latencies)
            }));
        }
        let mut latencies = Vec::new();
        for handle in handles {
            latencies.extend(handle.join().map_err(|_| "client thread panicked".to_string())??);
        }
        let elapsed = started.elapsed();
        engine.shutdown();
        let (p50, p95, p99, mean) = exact_percentiles(&mut latencies)?;
        let total = latencies.len() as u64;
        let run = RunResult {
            workers,
            clients,
            requests: total,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            throughput_rps: total as f64 / elapsed.as_secs_f64(),
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            mean_us: mean,
        };
        println!(
            "  workers={} clients={} requests={} throughput={:.0} req/s p50={}us p95={}us p99={}us",
            run.workers, run.clients, run.requests, run.throughput_rps, run.p50_us, run.p95_us, run.p99_us
        );
        runs.push(run);
    }

    // 4. The memory claim, enforced.
    let peak = peak_rss_bytes();
    let budget = budget_mb * 1024 * 1024;
    if peak > 0 {
        println!(
            "  peak RSS {:.1} MiB (budget {budget_mb} MiB)",
            peak as f64 / (1024.0 * 1024.0)
        );
        if peak > budget {
            return Err(format!(
                "peak RSS {} bytes exceeds the {budget_mb} MiB memory budget",
                peak
            ));
        }
    } else {
        println!("  peak RSS unavailable on this platform; budget not enforced");
    }

    if save {
        groupsa_bench::output::check_schema("serve_bench_snapshot", RESULT_SCHEMA_VERSION)?;
        let report = SnapshotReport {
            schema_version: RESULT_SCHEMA_VERSION,
            num_users: users,
            num_items: items,
            num_groups: groups,
            dim,
            shards: shards as u64,
            quant: quant.name().to_string(),
            chunk_users: chunk,
            snapshot_id: format!("{snapshot_id:016x}"),
            snapshot_write_s: write_s,
            snapshot_open_ms: open_ms,
            snapshot_disk_bytes: disk,
            resident_table_bytes: resident,
            full_table_bytes: full_bytes,
            peak_rss_bytes: peak,
            memory_budget_bytes: budget,
            k,
            runs,
        };
        let path =
            groupsa_bench::output::save_json("serve_bench_snapshot", &report).map_err(|e| e.to_string())?;
        println!("[saved {}]", path.display());
    } else {
        println!("[--save false: skipped results/serve_bench_snapshot.json]");
    }
    if flags.get("snapshot").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

// ------------------------------------------------------------ TCP mode

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        Ok(Self { writer: stream, reader })
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, String> {
        let mut text = groupsa_json::to_string(request);
        text.push('\n');
        self.writer.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        groupsa_json::from_str::<Response>(&line).map_err(|e| format!("bad response: {e}"))
    }
}

/// Sends every request line on one connection before reading anything,
/// then matches the responses (completion-ordered) back to requests by
/// id and validates each. Returns per-request wall latencies measured
/// from the *first* write — pipelined latency is a queueing number, not
/// a round-trip number.
fn pipelined_batch(conn: &mut Connection, reqs: &[RecommendRequest]) -> Result<Vec<u64>, String> {
    let mut text = String::new();
    for req in reqs {
        text.push_str(&groupsa_json::to_string(&Request::Recommend {
            id: req.id,
            target: req.target,
            k: req.k,
            exclude_seen: req.exclude_seen,
            mode: req.mode,
            deadline_ms: req.deadline_ms,
        }));
        text.push('\n');
    }
    let started = Instant::now();
    conn.writer.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let by_id: HashMap<u64, &RecommendRequest> = reqs.iter().map(|r| (r.id, r)).collect();
    let mut latencies = Vec::with_capacity(reqs.len());
    let mut seen = std::collections::HashSet::new();
    for _ in 0..reqs.len() {
        let mut line = String::new();
        let n = conn.reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-pipeline".into());
        }
        let resp =
            groupsa_json::from_str::<Response>(&line).map_err(|e| format!("bad response: {e}"))?;
        let id = match &resp {
            Response::Recommend { id, .. } | Response::Error { id, .. } => *id,
            other => return Err(format!("unexpected response kind: {other:?}")),
        };
        let req = by_id.get(&id).ok_or_else(|| format!("response for unknown id {id}"))?;
        if !seen.insert(id) {
            return Err(format!("duplicate response for id {id}"));
        }
        validate(req, &resp)?;
        latencies.push(started.elapsed().as_micros() as u64);
    }
    Ok(latencies)
}

#[allow(clippy::too_many_arguments)]
fn tcp_bench(
    addr: &str,
    clients: usize,
    per_client: usize,
    k: usize,
    shutdown: bool,
    pipeline: bool,
    metrics: bool,
    reload: Option<&str>,
) -> Result<(), String> {
    // Learn the id universe from the server itself.
    let mut probe = Connection::open(addr)?;
    let stats = match probe.roundtrip(&Request::Stats { id: 1 })? {
        Response::Stats { stats, .. } => stats,
        other => return Err(format!("expected Stats response, got {other:?}")),
    };
    println!(
        "server universe: {} users, {} items, {} groups",
        stats.num_users, stats.num_items, stats.num_groups
    );

    if let Some(dir) = reload {
        match probe.roundtrip(&Request::Reload { id: 10, dir: dir.to_string() })? {
            Response::Reloaded { id: 10 } => println!("server hot-swapped onto {dir}"),
            other => return Err(format!("expected Reloaded, got {other:?}")),
        }
    }

    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let addr = addr.to_string();
        let (users, groups) = (stats.num_users, stats.num_groups);
        handles.push(std::thread::spawn(move || {
            let mut conn = Connection::open(&addr)?;
            let reqs = workload(per_client, c * per_client, k, users, groups);
            if pipeline {
                return pipelined_batch(&mut conn, &reqs);
            }
            let mut latencies = Vec::with_capacity(per_client);
            for req in reqs {
                let t = Instant::now();
                let resp = conn.roundtrip(&Request::Recommend {
                    id: req.id,
                    target: req.target,
                    k: req.k,
                    exclude_seen: req.exclude_seen,
                    mode: req.mode,
                    deadline_ms: req.deadline_ms,
                })?;
                latencies.push(t.elapsed().as_micros() as u64);
                validate(&req, &resp)?;
            }
            Ok::<Vec<u64>, String>(latencies)
        }));
    }
    let mut latencies = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().map_err(|_| "client thread panicked".to_string())??);
    }
    let elapsed = started.elapsed();
    let (p50, p95, p99, mean) = exact_percentiles(&mut latencies)?;
    println!(
        "tcp{}: {} requests in {:.1} ms ({:.0} req/s) p50={}us p95={}us p99={}us mean={:.0}us",
        if pipeline { " (pipelined)" } else { "" },
        latencies.len(),
        elapsed.as_secs_f64() * 1e3,
        latencies.len() as f64 / elapsed.as_secs_f64(),
        p50,
        p95,
        p99,
        mean
    );

    // Server-side accounting must have seen our requests.
    let stats = match probe.roundtrip(&Request::Stats { id: 2 })? {
        Response::Stats { stats, .. } => stats,
        other => return Err(format!("expected Stats response, got {other:?}")),
    };
    let expected = (clients * per_client) as u64;
    if stats.submitted < expected {
        return Err(format!("server saw {} submissions, expected at least {expected}", stats.submitted));
    }
    println!(
        "server stats: submitted={} completed={} errors={}",
        stats.submitted, stats.completed, stats.errors
    );

    if metrics {
        let parsed = fetch_metrics_page(&mut probe, 4)?;
        let submitted = parsed.value("groupsa_serve_submitted_total").unwrap_or(-1.0);
        if submitted < expected as f64 {
            return Err(format!(
                "metrics page reports {submitted} submissions, expected at least {expected}"
            ));
        }
        println!(
            "metrics page ok: {} contract metrics declared, submitted={submitted}",
            EXPOSITION_METRICS.len()
        );
    }

    if shutdown {
        match probe.roundtrip(&Request::Shutdown { id: 3 })? {
            Response::Bye { id: 3 } => println!("server acknowledged shutdown"),
            other => return Err(format!("expected Bye, got {other:?}")),
        }
    }
    Ok(())
}

/// Fetches a `MetricsDump` over `conn` and checks the exposition
/// contract: the page parses and declares every metric in
/// [`EXPOSITION_METRICS`]. Returns the parsed page.
fn fetch_metrics_page(
    conn: &mut Connection,
    id: u64,
) -> Result<groupsa_obs::expo::ParsedPage, String> {
    let page = match conn.roundtrip(&Request::MetricsDump { id })? {
        Response::Metrics { id: got, page } if got == id => page,
        other => return Err(format!("expected Metrics response, got {other:?}")),
    };
    let parsed = groupsa_obs::expo::parse(&page)
        .map_err(|e| format!("metrics page does not parse: {e}"))?;
    for name in EXPOSITION_METRICS {
        if !parsed.declares(name) {
            return Err(format!("metrics page is missing # TYPE for {name}"));
        }
    }
    Ok(parsed)
}

// ---------------------------------------------------------------- main

fn run() -> Result<(), String> {
    let flags = parse_flags(std::env::args().skip(1))?;
    let Some(addr) = flags.get("addr") else {
        return snapshot_scale(&flags);
    };
    let clients: usize = num(&flags, "clients", 4)?;
    let per_client: usize = num(&flags, "requests", 64)?;
    let k: usize = num(&flags, "k", 5)?;
    let shutdown = matches!(flags.get("shutdown").map(String::as_str), Some("true"));
    let pipeline = matches!(flags.get("pipeline").map(String::as_str), Some("true"));
    let metrics = matches!(flags.get("metrics").map(String::as_str), Some("true"));
    tcp_bench(addr, clients, per_client, k, shutdown, pipeline, metrics, flags.get("reload").map(String::as_str))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn percentiles_of_no_latencies_are_an_error_not_a_panic() {
        assert!(exact_percentiles(&mut []).is_err());
        let mut latencies = [40, 10, 30, 20];
        assert_eq!(exact_percentiles(&mut latencies), Ok((20, 40, 40, 25.0)));
    }

    #[test]
    fn zero_counts_are_rejected_at_parse_time() {
        for flag in ["--clients", "--requests"] {
            let err = parse(&["--addr", "127.0.0.1:1", flag, "0"]).unwrap_err();
            assert!(err.contains("must be positive"), "{flag}: {err}");
        }
        assert!(parse(&["--users", "0"]).unwrap_err().contains("must be positive"));
        assert!(parse(&["--addr", "127.0.0.1:1", "--clients", "1", "--requests", "1"]).is_ok());
    }

    #[test]
    fn unknown_flags_and_a_missing_mode_are_usage_errors() {
        let err = parse(&["--overload", "true"]).unwrap_err();
        assert!(err.contains("--addr or --users") && err.contains("usage:"), "{err}");
        assert!(parse(&[]).unwrap_err().contains("usage:"));
        let err = parse(&["--addr", "127.0.0.1:1", "--telemetry", "true"]).unwrap_err();
        assert!(err.contains("unknown flag --telemetry"), "{err}");
        let err = parse(&["--addr", "127.0.0.1:1", "--users", "10"]).unwrap_err();
        assert!(err.contains("unknown flag --users"), "{err}");
        assert!(parse(&["--users", "10", "--workers", "2"]).unwrap_err().contains("--workers"));
        assert!(parse(&["--users", "10", "--items", "5", "--save", "false"]).is_ok());
    }
}
