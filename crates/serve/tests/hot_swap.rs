//! Atomic snapshot hot-swap, pinned as a golden test: publishing a
//! retrained `groupsa-snapshot` directory while the engine is under
//! concurrent load drops **zero** requests and misroutes **zero**
//! responses — every reply matches its request id and is byte-identical
//! to direct frozen scoring, whichever side of the swap its job
//! landed on (an f32 snapshot reproduces the in-memory model
//! bit-for-bit, so both sides agree on the bytes).

mod common;

use common::fresh_dir;
use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::protocol::{RecommendRequest, Request, Response, ServeMode, Target};
use groupsa_serve::server::{self, ServerConfig};
use groupsa_serve::FrozenModel;
use groupsa_snapshot::Quant;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

const NUM_USERS: usize = 60;

fn world(seed: u64, num_groups: usize) -> (DataContext, GroupSa) {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-hotswap-{seed}-{num_groups}"),
        seed,
        num_users: NUM_USERS,
        num_items: 40,
        num_groups,
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
    (ctx, model)
}

fn frozen(seed: u64, num_groups: usize) -> Arc<FrozenModel> {
    let (ctx, model) = world(seed, num_groups);
    Arc::new(FrozenModel::freeze(model, ctx))
}

fn user_request(id: u64) -> RecommendRequest {
    RecommendRequest {
        id,
        target: Target::User { id: (id as usize * 7) % NUM_USERS },
        k: 5,
        exclude_seen: false,
        mode: ServeMode::Voting,
        deadline_ms: 0,
    }
}

/// The golden swap-under-load claim, at the engine level: concurrent
/// submitters hammer the engine while the main thread hot-swaps in an
/// f32 snapshot of the same model. Every single submission is answered
/// with a recommendation whose bytes equal direct scoring — no
/// request dropped, none misrouted, none errored by the swap.
#[test]
fn hot_swap_under_load_drops_and_misroutes_nothing() {
    let serving = frozen(71, 25);
    let dir = fresh_dir("load");
    serving.write_snapshot(&dir, 2, Quant::F32).expect("write snapshot");

    let engine = Engine::start(
        Arc::clone(&serving),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            default_deadline_ms: 0,
            shed: false,
            telemetry: None,
        },
    );

    let mut clients = Vec::new();
    for t in 0..4u64 {
        let engine = Arc::clone(&engine);
        clients.push(std::thread::spawn(move || {
            (0..25u64)
                .map(|i| {
                    let id = t * 1_000 + i;
                    (id, engine.submit(user_request(id)))
                })
                .collect::<Vec<_>>()
        }));
    }

    // Swap mid-flight. Some jobs score on the memory-backed model,
    // later ones on the lazy snapshot — the responses must not care.
    engine.reload_from_snapshot(&dir).expect("hot swap");

    let mut answered = 0u64;
    for client in clients {
        for (id, resp) in client.join().expect("client thread") {
            let items = serving
                .recommend(
                    Target::User { id: (id as usize * 7) % NUM_USERS },
                    5,
                    false,
                    groupsa_core::GroupMode::Voting,
                )
                .expect("direct scoring");
            assert_eq!(
                groupsa_json::to_string(&resp),
                groupsa_json::to_string(&Response::Recommend { id, items }),
                "id {id} must be answered identically across the swap"
            );
            answered += 1;
        }
    }
    assert_eq!(answered, 100);

    let stats = engine.shutdown();
    assert_eq!(stats.reloads, 1, "{stats:?}");
    assert_eq!(stats.completed, 100, "zero dropped requests across the swap: {stats:?}");
    assert_eq!(stats.submitted, stats.completed + stats.errors + stats.expired + stats.shed);
}

/// A snapshot from a different universe is refused and leaves the
/// serving model untouched — a bad reload must never take down or
/// degrade a live server.
#[test]
fn mismatched_snapshot_is_rejected_and_serving_continues() {
    let engine = Engine::start(frozen(72, 25), EngineConfig::default());
    let alien = frozen(73, 10); // different group universe
    let dir = fresh_dir("alien");
    alien.write_snapshot(&dir, 1, Quant::F32).expect("write alien snapshot");

    let err = engine.reload_from_snapshot(&dir).expect_err("universe mismatch must refuse");
    assert!(err.contains("does not match"), "{err}");

    let resp = engine.submit(user_request(5));
    assert!(matches!(resp, Response::Recommend { .. }), "{resp:?}");
    let stats = engine.shutdown();
    assert_eq!(stats.reloads, 0, "a refused reload is not a reload: {stats:?}");
}

/// The wire-level `Reload` protocol request: a pipelined TCP client
/// swaps the model between two recommendations and both answer
/// byte-identically; the `Reloaded` ack and a failed-reload error both
/// echo the request id.
#[test]
fn reload_protocol_request_swaps_live_over_tcp() {
    let serving = frozen(74, 25);
    let dir = fresh_dir("tcp");
    serving.write_snapshot(&dir, 1, Quant::F32).expect("write snapshot");

    let engine = Engine::start(Arc::clone(&serving), EngineConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || server::run_with(listener, engine, ServerConfig::default()))
    };

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut send = |req: &Request| {
        let mut text = groupsa_json::to_string(req);
        text.push('\n');
        writer.write_all(text.as_bytes()).expect("write");
    };
    let read = |reader: &mut BufReader<std::net::TcpStream>| {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "server hung up early");
        groupsa_json::from_str::<Response>(&line).expect("parse")
    };

    let before = user_request(1);
    send(&Request::Recommend {
        id: 1,
        target: before.target,
        k: before.k,
        exclude_seen: before.exclude_seen,
        mode: before.mode,
        deadline_ms: 0,
    });
    let first = read(&mut reader);

    send(&Request::Reload { id: 2, dir: dir.to_string_lossy().into_owned() });
    let ack = read(&mut reader);
    assert!(matches!(ack, Response::Reloaded { id: 2 }), "{ack:?}");

    send(&Request::Recommend {
        id: 3,
        target: before.target,
        k: before.k,
        exclude_seen: before.exclude_seen,
        mode: before.mode,
        deadline_ms: 0,
    });
    let second = read(&mut reader);
    let (Response::Recommend { items: a, .. }, Response::Recommend { items: b, .. }) =
        (&first, &second)
    else {
        panic!("expected recommendations, got {first:?} / {second:?}");
    };
    assert_eq!(
        groupsa_json::to_string(a),
        groupsa_json::to_string(b),
        "f32 snapshot swap must not change response bytes"
    );

    // A bogus reload answers a typed error echoing the id, and the
    // previously-published snapshot keeps serving.
    send(&Request::Reload { id: 4, dir: "/nonexistent/groupsa-snap".into() });
    let refusal = read(&mut reader);
    assert!(
        matches!(refusal, Response::Error { id: 4, ref error } if error.starts_with("reload failed")),
        "{refusal:?}"
    );
    send(&Request::Stats { id: 5 });
    let resp = read(&mut reader);
    let Response::Stats { stats, .. } = resp else { panic!("unexpected {resp:?}") };
    assert_eq!(stats.reloads, 1, "{stats:?}");

    send(&Request::Shutdown { id: 6 });
    assert!(matches!(read(&mut reader), Response::Bye { id: 6 }));
    server.join().expect("server thread").expect("server run");
}
