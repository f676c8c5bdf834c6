//! Concurrency determinism: N worker threads serving M interleaved
//! requests must produce **byte-identical** responses to a
//! single-threaded engine. Responses carry no timing or server-state
//! fields, and `groupsa-json` output is deterministic, so this holds
//! at the serialized-bytes level, not just semantically.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::protocol::{RecommendRequest, Response, ServeMode, Target};
use groupsa_serve::FrozenModel;
use std::collections::BTreeMap;
use std::sync::Arc;

fn frozen_world(seed: u64) -> Arc<FrozenModel> {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-conc-{seed}"),
        seed,
        num_users: 60,
        num_items: 40,
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

/// A deterministic, mode-diverse workload: users and groups, all four
/// modes, a few deliberately invalid ids (errors must be byte-stable
/// too).
fn workload(n: u64) -> Vec<RecommendRequest> {
    let modes = [
        ServeMode::Voting,
        ServeMode::FastAverage,
        ServeMode::FastLeastMisery,
        ServeMode::FastMaxSatisfaction,
    ];
    (0..n)
        .map(|i| {
            let target = if i % 12 == 0 {
                Target::Group { id: 25 } // 25 groups → out of range on purpose
            } else if i % 3 == 0 {
                Target::Group { id: (i as usize * 7) % 25 }
            } else {
                Target::User { id: (i as usize * 11) % 60 }
            };
            RecommendRequest {
                id: i + 1,
                target,
                k: 1 + (i as usize % 10),
                exclude_seen: i % 2 == 0,
                mode: modes[i as usize % modes.len()],
                deadline_ms: 0,
            }
        })
        .collect()
}

fn serialize(resp: &Response) -> String {
    groupsa_json::to_string(resp)
}

#[test]
fn parallel_responses_are_byte_identical_to_single_threaded() {
    let frozen = frozen_world(81);
    let requests = workload(48);

    // Reference: one worker, submitted strictly sequentially.
    let single = Engine::start(Arc::clone(&frozen), EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut reference: BTreeMap<u64, String> = BTreeMap::new();
    for req in &requests {
        reference.insert(req.id, serialize(&single.submit(req.clone())));
    }
    single.shutdown();

    // 4 workers × 4 client threads, interleaved arbitrarily.
    let parallel = Engine::start(Arc::clone(&frozen), EngineConfig { workers: 4, ..EngineConfig::default() });
    let mut handles = Vec::new();
    for chunk in requests.chunks(12) {
        let engine = Arc::clone(&parallel);
        let chunk: Vec<RecommendRequest> = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            chunk.into_iter().map(|req| (req.id, serialize(&engine.submit(req)))).collect::<Vec<_>>()
        }));
    }
    let mut parallel_out: BTreeMap<u64, String> = BTreeMap::new();
    for handle in handles {
        for (id, bytes) in handle.join().unwrap() {
            parallel_out.insert(id, bytes);
        }
    }
    let stats = parallel.shutdown();

    assert_eq!(parallel_out.len(), reference.len());
    for (id, want) in &reference {
        assert_eq!(parallel_out.get(id), Some(want), "response bytes for request {id}");
    }
    assert_eq!(stats.submitted, requests.len() as u64);
    assert_eq!(stats.completed + stats.errors, requests.len() as u64);
    // The workload contains invalid group ids on purpose.
    assert!(stats.errors > 0, "workload includes out-of-range targets");
}

#[test]
fn concurrent_catalog_user_requests_match_direct_scoring() {
    // A single worker and many concurrent catalog-user submitters
    // (user target, exclude_seen = false): the queue routinely holds
    // several jobs. Where a request lands in the queue is
    // timing-dependent — its response must be byte-identical to
    // direct frozen scoring either way.
    let frozen = frozen_world(84);
    let engine = Engine::start(
        Arc::clone(&frozen),
        EngineConfig {
            workers: 1,
            queue_capacity: 256,
            default_deadline_ms: 0,
            shed: true,
            telemetry: None,
        },
    );
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            (0..8u64)
                .map(|i| {
                    let id = t * 100 + i;
                    let req = RecommendRequest {
                        id,
                        target: Target::User { id: ((t * 8 + i) as usize * 7) % 60 },
                        k: 1 + (i as usize % 9),
                        exclude_seen: false,
                        mode: ServeMode::Voting,
                        deadline_ms: 0,
                    };
                    (req.clone(), serialize(&engine.submit(req)))
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut answered = 0;
    for handle in handles {
        for (req, bytes) in handle.join().unwrap() {
            let Target::User { id: user } = req.target else { unreachable!() };
            let items = frozen
                .recommend(Target::User { id: user }, req.k, false, groupsa_core::GroupMode::Voting)
                .unwrap();
            let want = serialize(&Response::Recommend { id: req.id, items });
            assert_eq!(bytes, want, "request {}", req.id);
            answered += 1;
        }
    }
    let stats = engine.shutdown();
    assert_eq!(answered, 48);
    assert_eq!(stats.submitted, 48);
    assert_eq!(stats.completed, 48, "no errors or expiries in this workload");
    assert_eq!(stats.completed + stats.errors + stats.expired, stats.submitted);
}

#[test]
fn shutdown_rejects_new_work_but_stays_queryable() {
    let frozen = frozen_world(82);
    let engine = Engine::start(frozen, EngineConfig::default());
    let ok = engine.submit(workload(2).pop().unwrap());
    assert!(matches!(ok, Response::Recommend { .. }));

    let stats = engine.shutdown();
    assert_eq!(stats.completed, 1);

    let rejected = engine.submit(workload(2).pop().unwrap());
    assert!(
        matches!(rejected, Response::Error { ref error, .. } if error.contains("shutting down")),
        "{rejected:?}"
    );
    assert_eq!(engine.stats().rejected, 1);
    assert!(engine.is_stopping());
}

#[test]
fn deadlines_and_queue_bounds_are_enforced() {
    let frozen = frozen_world(83);
    // A generous default deadline never fires.
    let engine = Engine::start(
        Arc::clone(&frozen),
        EngineConfig { workers: 1, default_deadline_ms: 60_000, ..EngineConfig::default() },
    );
    assert!(matches!(engine.submit(workload(2).pop().unwrap()), Response::Recommend { .. }));
    engine.shutdown();

    // Many clients racing a 1 ms deadline through a single worker:
    // whether each request completes or expires is timing-dependent,
    // but the accounting must balance exactly and nothing may hang.
    let engine = Engine::start(
        frozen,
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            default_deadline_ms: 0,
            shed: true,
            telemetry: None,
        },
    );
    let requests = workload(32);
    let mut handles = Vec::new();
    for chunk in requests.chunks(4) {
        let engine = Arc::clone(&engine);
        let chunk: Vec<_> = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            for mut req in chunk {
                req.deadline_ms = 1;
                let resp = engine.submit(req);
                assert!(matches!(resp, Response::Recommend { .. } | Response::Error { .. }));
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.submitted + stats.rejected, requests.len() as u64);
    // Disjoint accounting: a submitted request lands in exactly one of
    // completed/errors/expired/shed (an expired or shed request still
    // *answers* with an error response, but is counted exactly once).
    assert_eq!(stats.completed + stats.errors + stats.expired + stats.shed, stats.submitted);
    assert!(stats.max_queue_depth <= 4, "admission bound respected");
}
