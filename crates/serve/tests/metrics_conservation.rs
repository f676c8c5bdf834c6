//! Metrics accounting: every request admitted to the engine is counted
//! under **exactly one** of `completed` / `errors` / `expired`, and
//! rejected requests are never counted as submitted. Pre-fix, a
//! deadline-expired request was double-counted (`expired` *and*
//! `errors`), so the conservation law below failed whenever anything
//! expired.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::protocol::{RecommendRequest, Response, ServeMode, Target};
use groupsa_serve::FrozenModel;
use std::sync::Arc;

const NUM_GROUPS: usize = 25;

/// A synthetic world with a wide item universe, so group-voting
/// requests take long enough that queued 1 ms deadlines actually
/// expire behind them.
fn frozen_world(seed: u64) -> Arc<FrozenModel> {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-conserve-{seed}"),
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

fn request(id: u64, group: usize, deadline_ms: u64) -> RecommendRequest {
    RecommendRequest {
        id,
        target: Target::Group { id: group },
        k: 10,
        exclude_seen: false,
        mode: ServeMode::Voting,
        deadline_ms,
    }
}

#[test]
fn drained_categories_are_disjoint_and_conserve_submissions() {
    let frozen = frozen_world(7);
    // One worker, so concurrent submitters pile up in the queue and
    // 1 ms deadlines expire while waiting behind heavier requests.
    let engine = Engine::start(
        Arc::clone(&frozen),
        // Shedding off: this test pins the *expiry* path, so deadlines
        // must be allowed to burn down in the queue rather than being
        // pre-empted by admission control.
        EngineConfig {
            workers: 1,
            queue_capacity: 256,
            default_deadline_ms: 0,
            shed: false,
            telemetry: None,
        },
    );

    let mut handles = Vec::new();
    // Heavy lane: 6 threads × 8 slow group-voting requests with no
    // deadline — these keep the single worker saturated.
    for t in 0..6u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut submitted = 0u64;
            for i in 0..8u64 {
                let id = 1_000 + t * 100 + i;
                engine.submit(request(id, (t as usize + i as usize) % NUM_GROUPS, 0));
                submitted += 1;
            }
            submitted
        }));
    }
    // Expiring lane: 4 threads × 12 requests with a 1 ms deadline;
    // queued behind the heavy lane, (many of) these expire.
    for t in 0..4u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut submitted = 0u64;
            for i in 0..12u64 {
                let id = 2_000 + t * 100 + i;
                engine.submit(request(id, (t as usize * 3 + i as usize) % NUM_GROUPS, 1));
                submitted += 1;
            }
            submitted
        }));
    }
    // Error lane: out-of-range group ids answered with an error (no
    // deadline, so never expired).
    for t in 0..2u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut submitted = 0u64;
            for i in 0..5u64 {
                let resp = engine.submit(request(3_000 + t * 100 + i, NUM_GROUPS + 1, 0));
                assert!(matches!(resp, Response::Error { .. }));
                submitted += 1;
            }
            submitted
        }));
    }
    let accepted_calls: u64 = handles.into_iter().map(|h| h.join().expect("submitter panicked")).sum();

    // Shutdown drains the queue; afterwards submissions are rejected
    // and must NOT appear in `submitted`.
    let drained = engine.shutdown();
    assert_eq!(
        drained.submitted,
        drained.completed + drained.errors + drained.expired,
        "drained categories must partition submissions: {drained:?}"
    );
    assert_eq!(drained.submitted, accepted_calls);
    assert!(drained.completed > 0, "heavy lane must complete: {drained:?}");
    assert!(drained.errors >= 10, "all error-lane requests must count once: {drained:?}");
    assert!(drained.expired > 0, "1 ms deadlines behind a saturated worker must expire: {drained:?}");

    let rejected_probes = 3u64;
    for i in 0..rejected_probes {
        let resp = engine.submit(request(4_000 + i, 0, 0));
        assert!(matches!(resp, Response::Error { .. }), "post-shutdown submits are refused");
    }
    let after = engine.stats();
    assert_eq!(after.rejected, drained.rejected + rejected_probes);
    assert_eq!(after.submitted, drained.submitted, "rejected requests are never submitted");
    assert_eq!(after.submitted, after.completed + after.errors + after.expired);
}

/// Past saturation with shedding on, the four-way conservation law
/// holds — `submitted == completed + errors + expired + shed` — and
/// the shed path actually fires.
///
/// Built deterministically: one completed request warms the engine's
/// service-time EWMA, a pile of streamed no-deadline requests stacks
/// the queue behind the single busy worker, and then a tight-deadline
/// request arrives whose predicted wait (queue depth × observed
/// service time) is far past its 1 ms budget — so admission control
/// must answer it `shed` instead of letting it expire in the queue.
#[test]
fn overload_sheds_at_admission_and_conserves_submissions() {
    let frozen = frozen_world(9);
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

    // Warm the service-time estimate: a heavy group-voting request on
    // this 400-item world takes well over a microsecond, so after one
    // completion the EWMA is non-zero.
    assert!(matches!(engine.submit(request(1, 0, 0)), Response::Recommend { .. }));

    // Stack the queue without blocking: streamed submissions return
    // immediately, so the queue depth really grows while the single
    // worker grinds through them one at a time.
    let (tx, rx) = std::sync::mpsc::channel();
    let backlog = 32u64;
    for i in 0..backlog {
        engine.submit_streamed(0, request(100 + i, (i as usize) % NUM_GROUPS, 0), tx.clone());
    }

    // With ~32 queued and a warmed per-request estimate, the predicted
    // wait dwarfs a 1 ms deadline: this must be shed at admission.
    let shed_resp = engine.submit(request(999, 0, 1));
    match shed_resp {
        Response::Error { id, ref error } => {
            assert_eq!(id, 999);
            assert!(error.starts_with("shed: "), "expected a shed answer, got: {error}");
        }
        other => panic!("expected shed, got {other:?}"),
    }

    // Every streamed response still arrives (shedding never drops
    // admitted work), then the books balance with shed counted.
    drop(tx);
    let mut streamed = 0u64;
    while let Ok(resp) = rx.recv_timeout(std::time::Duration::from_secs(60)) {
        assert!(matches!(resp.response, Response::Recommend { .. }), "{:?}", resp.response);
        streamed += 1;
    }
    assert_eq!(streamed, backlog);

    let stats = engine.shutdown();
    assert!(stats.shed >= 1, "{stats:?}");
    assert_eq!(stats.submitted, stats.completed + stats.errors + stats.expired + stats.shed);
    assert_eq!(stats.submitted, 1 + backlog + stats.shed);
}

/// The queue-depth gauge reads the queue as it is now: a backlog that
/// has been fully answered shows `last = 0` while `max` keeps the
/// peak. (It used to be sampled only after each enqueue, so it could
/// never fall below 1 once any request had arrived.)
#[test]
fn a_drained_queue_reads_depth_zero_and_keeps_its_peak() {
    let frozen = frozen_world(13);
    let engine = Engine::start(
        Arc::clone(&frozen),
        EngineConfig { workers: 2, shed: false, ..EngineConfig::default() },
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let n = 12u64;
    for i in 0..n {
        engine.submit_streamed(0, request(i, (i as usize) % NUM_GROUPS, 0), tx.clone());
    }
    drop(tx);
    let answered = rx.iter().filter(|out| matches!(out.response, Response::Recommend { .. }));
    assert_eq!(answered.count() as u64, n);

    let stats = engine.stats();
    assert_eq!(stats.completed, n);
    assert_eq!(stats.last_queue_depth, 0, "every request was answered: {stats:?}");
    assert!(stats.max_queue_depth >= 1, "{stats:?}");
    let stats = engine.shutdown();
    assert_eq!(stats.last_queue_depth, 0, "{stats:?}");
}

/// With `1/1` sampling, every request — completed, errored, shed at
/// admission, or rejected outright — files exactly one lifecycle
/// record, and the ring's per-outcome tallies reconcile with the
/// conservation counters. This pins the record plumbing to the same
/// law the counters obey: an outcome that double-filed or dropped a
/// record would break one of the equalities below.
#[test]
fn sampled_records_reconcile_with_conservation_counters() {
    use groupsa_obs::{RecordOutcome, TelemetryConfig};
    let frozen = frozen_world(11);
    let engine = Engine::start(
        Arc::clone(&frozen),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            default_deadline_ms: 0,
            shed: true,
            // Sample everything, capture nothing as "slow" (so the
            // slow path can't double-count), ring big enough that no
            // record is overwritten.
            telemetry: Some(TelemetryConfig {
                sample_every: 1,
                slow_us: u64::MAX,
                ring_capacity: 4096,
            }),
        },
    );

    // Completed lane (also warms the shedding EWMA).
    assert!(matches!(engine.submit(request(1, 0, 0)), Response::Recommend { .. }));
    // Error lane: out-of-range group ids.
    for i in 0..5u64 {
        assert!(matches!(engine.submit(request(10 + i, NUM_GROUPS + 1, 0)), Response::Error { .. }));
    }
    // Streamed backlog, still under the hard queue bound: stacks the
    // queue so the shed probe below sees a deep queue (a full one
    // would answer `QueueFull` before the shed check runs). On this
    // in-process path the test thread plays the connection writer's
    // role and files each pending record itself.
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..32u64 {
        engine.submit_streamed(0, request(100 + i, (i as usize) % NUM_GROUPS, 0), tx.clone());
    }
    // Shed lane: with the queue stacked and the EWMA warm, a 1 ms
    // deadline is predicted unmeetable.
    assert!(matches!(engine.submit(request(999, 0, 1)), Response::Error { .. }));
    // Rejection lane: a second burst past the remaining queue space
    // must overflow the 64-slot bound while the single worker grinds
    // through the first one.
    for i in 0..64u64 {
        engine.submit_streamed(0, request(200 + i, (i as usize) % NUM_GROUPS, 0), tx.clone());
    }
    drop(tx);
    while let Ok(out) = rx.recv_timeout(std::time::Duration::from_secs(60)) {
        if let Some(pending) = out.record {
            let (record, sampled) = pending.finish(std::time::Duration::ZERO);
            engine.telemetry().observe(record, sampled);
        }
    }

    let stats = engine.shutdown();
    let records = engine.telemetry().records();
    let tally = |outcome: RecordOutcome| -> u64 {
        records.iter().filter(|r| r.outcome == outcome).count() as u64
    };
    assert_eq!(tally(RecordOutcome::Completed), stats.completed, "{stats:?}");
    assert_eq!(tally(RecordOutcome::Error), stats.errors, "{stats:?}");
    assert_eq!(tally(RecordOutcome::Expired), stats.expired, "{stats:?}");
    assert_eq!(tally(RecordOutcome::Shed), stats.shed, "{stats:?}");
    assert_eq!(tally(RecordOutcome::Rejected), stats.rejected, "{stats:?}");
    assert!(stats.rejected > 0, "the second burst must overflow the 64-slot queue: {stats:?}");
    assert!(stats.shed > 0, "{stats:?}");
    // The records obey the same conservation law as the counters:
    // submitted = ok + error + expired + shed (rejected rides apart).
    assert_eq!(
        stats.submitted,
        tally(RecordOutcome::Completed)
            + tally(RecordOutcome::Error)
            + tally(RecordOutcome::Expired)
            + tally(RecordOutcome::Shed),
    );
}
