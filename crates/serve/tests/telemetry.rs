//! Request-lifecycle telemetry end to end: the zero-overhead contract
//! (responses bit-identical with telemetry on vs off), the
//! `MetricsDump` exposition page over real TCP, the write-stage
//! metering that only exists under sampling, the connection key on
//! every record, and the `--obs-sample` flag's refusal of bad specs.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_obs::TelemetryConfig;
use groupsa_serve::engine::{Engine, EngineConfig, Outbound};
use groupsa_serve::metrics::EXPOSITION_METRICS;
use groupsa_serve::protocol::{RecommendRequest, Request, Response, ServeMode, Target};
use groupsa_serve::server::{self, ServerConfig};
use groupsa_serve::FrozenModel;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NUM_USERS: usize = 60;

fn frozen_world(seed: u64) -> Arc<FrozenModel> {
    sized_world(seed, 40)
}

fn sized_world(seed: u64, num_items: usize) -> Arc<FrozenModel> {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-telemetry-{seed}"),
        seed,
        num_users: NUM_USERS,
        num_items,
        num_groups: 25,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.5,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let ctx = DataContext::from_train_view(&dataset, &GroupSaConfig::tiny());
    let model = GroupSa::new(GroupSaConfig::tiny(), dataset.num_users, dataset.num_items);
    Arc::new(FrozenModel::freeze(model, ctx))
}

fn request(id: u64) -> RecommendRequest {
    RecommendRequest {
        id,
        target: if id % 3 == 0 {
            Target::Group { id: (id as usize) % 25 }
        } else {
            Target::User { id: (id as usize * 7) % NUM_USERS }
        },
        k: 5,
        exclude_seen: id % 2 == 0,
        mode: ServeMode::Voting,
        deadline_ms: 0,
    }
}

/// [`request`] as a wire line.
fn recommend_line(id: u64) -> Request {
    let r = request(id);
    Request::Recommend {
        id: r.id,
        target: r.target,
        k: r.k,
        exclude_seen: r.exclude_seen,
        mode: r.mode,
        deadline_ms: r.deadline_ms,
    }
}

/// The zero-overhead contract, as bytes: the same workload against the
/// same frozen model produces byte-identical serialized responses
/// whether telemetry samples everything (`1/1`) or is off. Telemetry
/// must observe, never perturb.
#[test]
fn responses_are_bit_identical_with_telemetry_on_and_off() {
    let frozen = frozen_world(31);
    let mut digests: Vec<BTreeMap<u64, String>> = Vec::new();
    for telemetry in [
        Some(TelemetryConfig::disabled()),
        Some(TelemetryConfig { sample_every: 1, slow_us: 0, ring_capacity: 512 }),
    ] {
        let engine = Engine::start(
            Arc::clone(&frozen),
            EngineConfig { workers: 2, telemetry, ..EngineConfig::default() },
        );
        let mut out = BTreeMap::new();
        for id in 0..48u64 {
            out.insert(id, groupsa_json::to_string(&engine.submit(request(id))));
        }
        engine.shutdown();
        digests.push(out);
    }
    assert_eq!(digests[0], digests[1], "telemetry must not change a single response byte");
}

fn median(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// Each record accounts for its own wait: with one worker and a burst
/// of slow voting-group requests queued back to back, a job's time
/// behind the jobs scored before it must show up in its own
/// `queue_us`, not vanish between the stages. Whatever the stages do
/// not explain (`total − queue − score − write`: the reply hand-off)
/// stays below one scoring time in the median, and every popped job
/// carries its own pop id.
#[test]
fn a_record_accounts_for_its_own_wait() {
    // 2,000 candidates per voting-group request: scoring takes about
    // 2 ms in a release build, far above the reply hand-off.
    let frozen = sized_world(37, 2_000);
    let engine = Engine::start(
        frozen,
        EngineConfig {
            workers: 1,
            telemetry: Some(TelemetryConfig {
                sample_every: 1,
                slow_us: u64::MAX,
                ring_capacity: 512,
            }),
            ..EngineConfig::default()
        },
    );
    let n = 16u64;
    let (tx, rx) = mpsc::channel::<Outbound>();
    for id in 0..n {
        let req = RecommendRequest {
            id,
            target: Target::Group { id: (id as usize) % 25 },
            k: 5,
            exclude_seen: false,
            mode: ServeMode::Voting,
            deadline_ms: 0,
        };
        engine.submit_streamed(0, req, tx.clone());
    }
    drop(tx);
    // Close each record the moment its reply arrives, as a connection
    // writer would, with no write stage.
    for outbound in rx {
        assert!(matches!(outbound.response, Response::Recommend { .. }), "{:?}", outbound.response);
        let pending = outbound.record.expect("1/1 sampling attaches a record");
        let (record, sampled) = pending.finish(Duration::ZERO);
        engine.telemetry().observe(record, sampled);
    }
    engine.shutdown();

    let records = engine.telemetry().records();
    assert_eq!(records.len(), n as usize);
    let mut pops: Vec<u64> = records.iter().map(|r| r.batch).collect();
    pops.sort_unstable();
    pops.dedup();
    assert_eq!(pops.len(), records.len(), "every popped record carries its own pop id");
    let unexplained = median(
        records
            .iter()
            .map(|r| r.total_us.saturating_sub(r.queue_us + r.score_us + r.write_us))
            .collect(),
    );
    let score = median(records.iter().map(|r| r.score_us).collect());
    assert!(
        unexplained < score,
        "median unexplained {unexplained} us is not below the median score {score} us: \
         a record hides wait behind other jobs' scoring"
    );
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, request: &Request) {
    let mut text = groupsa_json::to_string(request);
    text.push('\n');
    stream.write_all(text.as_bytes()).expect("write request");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read response line");
    assert!(n > 0, "connection closed before a response arrived");
    groupsa_json::from_str::<Response>(&line).expect("parse response")
}

/// The full exposition path over real sockets: recommend traffic, then
/// a `MetricsDump` whose page parses, declares every contract metric,
/// agrees with the counters (latency buckets included), and carries
/// write-stage samples and the slow-request capture (threshold 0 ⇒
/// everything is slow).
#[test]
fn metrics_dump_over_tcp_parses_and_names_every_contract_metric() {
    let frozen = frozen_world(33);
    let engine = Engine::start(
        frozen,
        EngineConfig {
            telemetry: Some(TelemetryConfig { sample_every: 1, slow_us: 0, ring_capacity: 512 }),
            ..EngineConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || server::run_with(listener, engine, ServerConfig::default()))
    };

    let (mut stream, mut reader) = connect(addr);
    let n = 16u64;
    for id in 0..n {
        send_line(&mut stream, &recommend_line(id));
    }
    for _ in 0..n {
        assert!(matches!(read_response(&mut reader), Response::Recommend { .. }));
    }

    send_line(&mut stream, &Request::MetricsDump { id: 900 });
    let Response::Metrics { id: 900, page } = read_response(&mut reader) else {
        panic!("expected a Metrics response");
    };
    let parsed = groupsa_obs::expo::parse(&page).expect("the page must parse");
    for name in EXPOSITION_METRICS {
        assert!(parsed.declares(name), "page is missing # TYPE for {name}");
    }
    assert_eq!(parsed.value("groupsa_serve_submitted_total"), Some(n as f64));
    assert_eq!(parsed.value("groupsa_serve_completed_total"), Some(n as f64));
    assert_eq!(parsed.value("groupsa_obs_sample_every"), Some(1.0));
    // The writer files a record only *after* its bytes hit the socket,
    // so when the client has read response n the nth record may still
    // be a few instructions away — the page sees at least n − 1 (the
    // post-shutdown reconciliation below is exact).
    assert!(parsed.value("groupsa_obs_ring_pushed_total").unwrap() >= (n - 1) as f64, "{page}");
    assert!(parsed.value("groupsa_serve_write_us_count").unwrap() >= (n - 1) as f64, "{page}");
    // Every answered request sits in exactly one latency bucket, and
    // the page's buckets are what a reader diffs into windowed p50/p95.
    let buckets = parsed.histogram_buckets("groupsa_serve_latency_us").expect("latency buckets");
    assert_eq!(buckets.iter().sum::<u64>(), n, "{page}");
    // slow_us = 0: every record is a slow capture, so labelled samples
    // beyond the `id="none"` placeholder must be present.
    assert!(
        parsed
            .all("groupsa_serve_slow_request_us")
            .iter()
            .any(|s| s.labels.iter().any(|(k, v)| k == "id" && v != "none")),
        "slow-request capture must surface in the page"
    );

    // Stats over the same socket report write-stage timing.
    send_line(&mut stream, &Request::Stats { id: 901 });
    let Response::Stats { id: 901, stats } = read_response(&mut reader) else {
        panic!("expected a Stats response");
    };
    assert!(stats.mean_write_us > 0.0 || stats.p95_write_us > 0, "write stage was metered");

    send_line(&mut stream, &Request::Shutdown { id: 902 });
    assert!(matches!(read_response(&mut reader), Response::Bye { id: 902 }));
    server.join().expect("server thread").expect("server run");

    // Post-shutdown, the sampled records reconcile with the counters.
    let records = engine.telemetry().records();
    assert_eq!(records.len(), n as usize, "1/1 sampling filed one record per request");
    assert!(records.iter().all(|r| r.slow), "threshold 0 marks everything slow");
    assert!(records.iter().any(|r| r.write_us > 0), "write stage reached the records");
    assert!(records.iter().all(|r| r.batch >= 1), "every popped record carries a pop id");
    assert!(
        records.iter().all(|r| r.total_us >= r.queue_us.saturating_add(r.score_us)),
        "the end-to-end total covers its stages"
    );
}

/// A `MetricsDump` against a telemetry-off server still answers with a
/// full, parseable page (lifetime counters live; sampling meta zero)
/// — observability of the default path costs nothing but
/// must not vanish.
#[test]
fn metrics_dump_works_with_telemetry_off() {
    let frozen = frozen_world(35);
    let engine = Engine::start(
        frozen,
        EngineConfig {
            telemetry: Some(TelemetryConfig::disabled()),
            ..EngineConfig::default()
        },
    );
    assert!(matches!(engine.submit(request(1)), Response::Recommend { .. }));
    let page = engine.exposition();
    let parsed = groupsa_obs::expo::parse(&page).expect("parse");
    for name in EXPOSITION_METRICS {
        assert!(parsed.declares(name), "page is missing # TYPE for {name}");
    }
    assert_eq!(parsed.value("groupsa_serve_submitted_total"), Some(1.0));
    assert_eq!(parsed.value("groupsa_obs_sample_every"), Some(0.0));
    assert_eq!(parsed.value("groupsa_obs_ring_pushed_total"), Some(0.0));
    engine.shutdown();
}

/// Records tell connections apart: clients number their ids from 0, so
/// two connections sending ids `0..n` under 1/1 sampling must leave
/// `2n` distinct `(conn, id)` pairs from exactly two connections.
#[test]
fn records_carry_their_connection_key() {
    let engine = Engine::start(
        frozen_world(39),
        EngineConfig {
            telemetry: Some(TelemetryConfig {
                sample_every: 1,
                slow_us: u64::MAX,
                ring_capacity: 512,
            }),
            ..EngineConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || server::run_with(listener, engine, ServerConfig::default()))
    };
    let n = 12u64;
    for _ in 0..2 {
        let (mut stream, mut reader) = connect(addr);
        for id in 0..n {
            send_line(&mut stream, &recommend_line(id));
        }
        for _ in 0..n {
            assert!(matches!(read_response(&mut reader), Response::Recommend { .. }));
        }
    }
    let (mut stream, mut reader) = connect(addr);
    send_line(&mut stream, &Request::Shutdown { id: 0 });
    assert!(matches!(read_response(&mut reader), Response::Bye { id: 0 }));
    server.join().expect("server thread").expect("server run");

    let records = engine.telemetry().records();
    assert_eq!(records.len(), 2 * n as usize, "1/1 sampling filed one record per request");
    let pairs: BTreeSet<(u64, u64)> = records.iter().map(|r| (r.conn, r.id)).collect();
    assert_eq!(pairs.len(), 2 * n as usize, "(conn, id) names each request once: {pairs:?}");
    let conns: BTreeSet<u64> = records.iter().map(|r| r.conn).collect();
    assert_eq!(conns.len(), 2, "{conns:?}");
    assert!(!conns.contains(&0), "0 is reserved for in-process submissions");
}

/// `groupsa-serve --obs-sample` takes `1/N` or `N` with N >= 1 and
/// refuses anything else with a usage error and a non-zero exit,
/// instead of starting a server with telemetry silently off. An
/// unknown `--dataset` makes every run exit before serving, so a
/// spec that wrongly parses fails on the dataset instead of hanging.
#[test]
fn obs_sample_flag_refuses_a_spec_it_cannot_parse() {
    let serve = |spec: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_groupsa-serve"))
            .args(["--obs-sample", spec, "--dataset", "none"])
            .output()
            .expect("run groupsa-serve");
        assert!(!out.status.success(), "`{spec}` must not start a server");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    for bad in ["2/3", "off", "0", "1/0"] {
        let stderr = serve(bad);
        assert!(stderr.contains("--obs-sample") && stderr.contains("usage:"), "`{bad}`: {stderr}");
    }
    for good in ["1/4", "16"] {
        let stderr = serve(good);
        assert!(!stderr.contains("--obs-sample") && stderr.contains("--dataset"), "`{good}`: {stderr}");
    }
}
