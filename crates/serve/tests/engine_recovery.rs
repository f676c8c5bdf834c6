//! Worker-pool failure recovery: a poisoned admission queue (a worker
//! panicking while holding the lock) must never strand a submitter.
//!
//! Pre-fix, a worker observing queue-lock poison retired silently: any
//! job already queued was never popped, so its submitter blocked in
//! `rx.recv()` forever — and `shutdown` joined the dead pool without
//! draining, leaking the same stuck submitters. Post-fix, retirement
//! (and shutdown) drain the queue and answer every job `worker dropped
//! the request`, keeping the conservation law intact.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::protocol::{RecommendRequest, Response, ServeMode, Target};
use groupsa_serve::FrozenModel;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const NUM_GROUPS: usize = 25;

/// A wide item universe so group-voting requests are slow enough to
/// keep the single worker busy while we poison the queue behind it.
fn frozen_world(seed: u64) -> Arc<FrozenModel> {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-recovery-{seed}"),
        seed,
        num_users: 60,
        num_items: 400,
        num_groups: NUM_GROUPS,
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

fn heavy_request(id: u64) -> RecommendRequest {
    RecommendRequest {
        id,
        target: Target::Group { id: id as usize % NUM_GROUPS },
        k: 10,
        exclude_seen: false,
        mode: ServeMode::Voting,
        deadline_ms: 0,
    }
}

/// Every submitter racing a queue poisoning gets *an answer* — a
/// recommendation if its job ran before the pool died, a typed error
/// (`worker dropped the request` from the retirement drain, or
/// `queue lock poisoned` at admission) if not. Nobody hangs, and the
/// accounting still balances. Pre-fix this test deadlocks: queued
/// submitters wait on replies that never come.
#[test]
fn poisoned_queue_answers_every_submitter_instead_of_stranding_them() {
    let engine = Engine::start(
        frozen_world(31),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            default_deadline_ms: 0,
            shed: false,
            telemetry: None,
        },
    );

    let (done_tx, done_rx) = mpsc::channel::<Response>();
    let mut submitted = 0u64;
    // First wave saturates the single worker and stacks the queue.
    for id in 0..6u64 {
        let engine = Arc::clone(&engine);
        let done = done_tx.clone();
        std::thread::spawn(move || {
            let _ = done.send(engine.submit(heavy_request(id)));
        });
        submitted += 1;
    }
    // Give the wave a moment to enqueue behind the busy worker, then
    // kill the pool out from under it.
    std::thread::sleep(Duration::from_millis(5));
    engine.poison_queue_for_test();

    // A submitter arriving *after* the poisoning is refused with a
    // typed error at admission, immediately.
    let late = engine.submit(heavy_request(99));
    match late {
        Response::Error { id, ref error } => {
            assert_eq!(id, 99);
            assert!(error.contains("queue lock poisoned"), "{error}");
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }

    // The liveness claim: every racing submitter is answered within a
    // bounded wait (pre-fix, the queued ones block forever).
    for _ in 0..submitted {
        let resp = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a submitter was stranded by the poisoned pool");
        match resp {
            Response::Recommend { .. } => {}
            Response::Error { ref error, .. } => {
                assert!(
                    error.contains("worker dropped") || error.contains("lock poisoned"),
                    "unexpected error kind: {error}"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Shutdown must also return (not hang on a dead pool), and the
    // books must balance: the late request was rejected (never
    // submitted), everything else landed in exactly one category.
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, stats.completed + stats.errors + stats.expired + stats.shed);
    assert!(stats.rejected >= 1, "the post-poison submit was refused at admission");
}

/// `shutdown` on a healthy engine still drains cleanly — the recovery
/// paths must not change the ordinary lifecycle.
#[test]
fn shutdown_after_poison_free_run_is_clean() {
    let engine = Engine::start(frozen_world(32), EngineConfig::default());
    for id in 0..4 {
        let resp = engine.submit(heavy_request(id));
        assert!(matches!(resp, Response::Recommend { .. }), "{resp:?}");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.submitted, stats.completed + stats.errors + stats.expired + stats.shed);
}
