//! The inference engine: a bounded admission queue drained one job per
//! pop by a pool of worker threads, with per-request deadlines,
//! deadline-aware load shedding, atomic model hot-swap, and graceful
//! drain-then-stop shutdown. Built entirely on `std` —
//! `Mutex<VecDeque>` + `Condvar`, no external runtime.
//!
//! Every reply travels one way: [`Engine::submit_streamed`] returns
//! immediately and delivers an [`Outbound`] into a caller-supplied
//! channel — the NDJSON pipelining path, where one connection keeps
//! many requests in flight. [`Engine::submit`] is that path into a
//! fresh channel followed by a blocking `recv`, for in-process callers.
//!
//! Backpressure is structural either way: at most `queue_capacity`
//! requests wait, and anything beyond that is rejected immediately
//! rather than buffered unboundedly. On top of the hard bound,
//! admission control *sheds* a deadline-carrying request at enqueue
//! time when `queue_len × observed_service_time / workers` already
//! exceeds its deadline — answering in microseconds instead of letting
//! it expire in the queue after the deadline has burned.
//!
//! The model itself lives in a [`crate::swap::ModelSlot`]: workers pin
//! the published snapshot once per popped job, so
//! [`Engine::publish`]/[`Engine::reload_from_snapshot`] swap a
//! retrained model atomically with zero dropped or re-queued requests.

use crate::admission::ServiceEstimate;
use crate::error::ServeError;
use crate::frozen::FrozenModel;
use crate::metrics::{Metrics, StatsSnapshot};
use crate::protocol::{RecommendRequest, Response};
use crate::swap::ModelSlot;
use groupsa_obs::{RecordOutcome, RequestRecord, Telemetry, TelemetryConfig};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker-pool tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Admission-queue bound; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds, applied when the
    /// request's own `deadline_ms` is `0`; `0` here means "no
    /// deadline".
    pub default_deadline_ms: u64,
    /// Deadline-aware load shedding: when `true`, a deadline-carrying
    /// request whose predicted queue wait (observed EWMA service time
    /// × queue depth ÷ workers) exceeds its deadline is answered
    /// `Shed` at enqueue time instead of expiring late in the queue.
    /// Requests without a deadline are never shed.
    pub shed: bool,
    /// Request-lifecycle telemetry config; `None` means off (the
    /// default). `groupsa-serve --obs-sample 1/N`, tests and benches
    /// pass `Some(..)`.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            default_deadline_ms: 0,
            shed: true,
            telemetry: None,
        }
    }
}

/// What the engine delivers into a job's reply channel: the
/// response plus, when telemetry is enabled, the request's lifecycle
/// record awaiting its final stage (the connection writer measures
/// serialize-and-write time and files the finished record;
/// [`Engine::submit`] files it with no write stage).
pub struct Outbound {
    /// The wire response.
    pub response: Response,
    /// The pending lifecycle record; `None` when telemetry is off or
    /// the response never reached a worker (admission refusals,
    /// protocol-level replies).
    pub record: Option<PendingRecord>,
}

impl Outbound {
    /// A response with no lifecycle record attached.
    pub fn plain(response: Response) -> Self {
        Outbound { response, record: None }
    }
}

/// A [`RequestRecord`] missing only its write stage: everything up to
/// the reply leaving the engine is filled in; the connection's writer
/// thread calls [`PendingRecord::finish`] after the bytes hit the
/// socket.
pub struct PendingRecord {
    record: RequestRecord,
    /// The admission-time sampling decision (hashing happens once).
    sampled: bool,
    /// Admission instant, for the final end-to-end `total_us`.
    enqueued: Instant,
}

impl PendingRecord {
    /// Completes the record with the measured serialize-and-write time
    /// and the end-to-end total; returns it with the sampling decision
    /// for [`Telemetry::observe`].
    pub fn finish(mut self, write_elapsed: Duration) -> (RequestRecord, bool) {
        self.record.write_us = write_elapsed.as_micros() as u64;
        self.record.total_us = self.enqueued.elapsed().as_micros() as u64;
        (self.record, self.sampled)
    }
}

struct Job {
    /// The submitting connection's number (`0` = in-process), carried
    /// into the job's lifecycle record.
    conn: u64,
    req: RecommendRequest,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Admission-time sampling decision (false when telemetry is off),
    /// carried so the id is hashed once per request.
    sampled: bool,
    /// Where the reply goes. A send error means the receiver went away
    /// (nobody is left to read the answer) and is ignored.
    reply: Sender<Outbound>,
}

struct Shared {
    model: ModelSlot,
    cfg: EngineConfig,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stopping: AtomicBool,
    metrics: Metrics,
    service: ServiceEstimate,
}

/// A running worker pool over a hot-swappable [`FrozenModel`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Spawns `cfg.workers` threads over the frozen snapshot.
    pub fn start(frozen: Arc<FrozenModel>, cfg: EngineConfig) -> Arc<Self> {
        let telemetry = Telemetry::new(cfg.telemetry.unwrap_or(TelemetryConfig::disabled()));
        let shared = Arc::new(Shared {
            model: ModelSlot::new(frozen),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stopping: AtomicBool::new(false),
            metrics: Metrics::with_telemetry(telemetry),
            service: ServiceEstimate::new(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // Startup path, not a request path: if the OS can't
                    // spawn threads the process has no useful degraded
                    // mode, so aborting here is the right behaviour.
                    .expect("spawn worker thread") // lint: allow(panic-path)
            })
            .collect();
        Arc::new(Self { shared, workers: Mutex::new(workers) })
    }

    /// Files a lifecycle record for a request refused at admission
    /// (never queued, so every stage after arrival is zero). One ring
    /// push when telemetry is on; nothing at all when it is off.
    fn record_refusal(&self, conn: u64, id: u64, outcome: RecordOutcome) {
        let telemetry = self.shared.metrics.telemetry();
        if !telemetry.enabled() {
            return;
        }
        let record = RequestRecord {
            conn,
            id,
            arrival_us: telemetry.now_us(),
            outcome,
            ..RequestRecord::default()
        };
        telemetry.observe(record, telemetry.sampled(id));
    }

    /// Runs the shared admission policy and, on success, enqueues the
    /// job and wakes a worker. `Err` carries the ready-to-send refusal
    /// response (rejection, shed, or poison). A refusal's lifecycle
    /// record is filed after the queue guard drops, so the record
    /// ring's lock never nests under the queue lock.
    fn enqueue(&self, conn: u64, req: RecommendRequest, reply: Sender<Outbound>) -> Result<(), Response> {
        let id = req.id;
        match self.admit(conn, req, reply) {
            Ok(()) => {
                self.shared.available.notify_one();
                Ok(())
            }
            Err((error, outcome)) => {
                self.record_refusal(conn, id, outcome);
                Err(error.into_response(id))
            }
        }
    }

    /// The admission policy under the queue lock: counts the request
    /// and queues it, or counts the refusal and returns it with its
    /// record outcome.
    fn admit(
        &self,
        conn: u64,
        req: RecommendRequest,
        reply: Sender<Outbound>,
    ) -> Result<(), (ServeError, RecordOutcome)> {
        let deadline_ms = match req.deadline_ms {
            0 => self.shared.cfg.default_deadline_ms,
            ms => ms,
        };
        // A poisoned queue means a worker panicked mid-drain; the
        // submitter gets a typed error instead of a second panic.
        let mut queue = match self.shared.queue.lock() {
            Ok(queue) => queue,
            Err(_) => {
                self.shared.metrics.note_rejected();
                return Err((ServeError::LockPoisoned { what: "queue" }, RecordOutcome::Rejected));
            }
        };
        if self.shared.stopping.load(Ordering::SeqCst) {
            self.shared.metrics.note_rejected();
            return Err((ServeError::ShuttingDown, RecordOutcome::Rejected));
        }
        if queue.len() >= self.shared.cfg.queue_capacity {
            self.shared.metrics.note_rejected();
            return Err((ServeError::QueueFull { pending: queue.len() }, RecordOutcome::Rejected));
        }
        // Deadline-aware shedding: if the observed queue wait says
        // this deadline is already unmeetable, answer now (in µs)
        // rather than expiring it late (after deadline_ms). Shed
        // requests count as submitted — they passed the hard
        // admission bound — so under overload
        // `submitted == completed + errors + expired + shed`.
        if self.shared.cfg.shed && deadline_ms > 0 {
            let predicted_wait_us =
                self.shared.service.predicted_wait_us(queue.len(), self.shared.cfg.workers);
            if predicted_wait_us > deadline_ms.saturating_mul(1000) {
                self.shared.metrics.note_submitted();
                self.shared.metrics.note_shed();
                return Err((ServeError::Shed { predicted_wait_us, deadline_ms }, RecordOutcome::Shed));
            }
        }
        let telemetry = self.shared.metrics.telemetry();
        let now = Instant::now();
        let id = req.id;
        queue.push_back(Job {
            conn,
            req,
            deadline: (deadline_ms > 0).then(|| now + Duration::from_millis(deadline_ms)),
            enqueued: now,
            sampled: telemetry.enabled() && telemetry.sampled(id),
            reply,
        });
        self.shared.metrics.note_submitted();
        self.shared.metrics.note_queue_depth(queue.len());
        Ok(())
    }

    /// Submits one request and blocks until its response is ready:
    /// [`Engine::submit_streamed`] (as connection `0`) into a fresh
    /// channel, then `recv`.
    /// Admission fails fast (an `Error` response) when the engine is
    /// stopping, the queue is full, or the deadline is predicted
    /// unmeetable. The in-process path has no write stage, so a
    /// pending lifecycle record is filed here with a zero write time.
    pub fn submit(&self, req: RecommendRequest) -> Response {
        let id = req.id;
        let (tx, rx) = mpsc::channel();
        self.submit_streamed(0, req, tx);
        match rx.recv() {
            Ok(Outbound { response, record }) => {
                if let Some(pending) = record {
                    let (record, sampled) = pending.finish(Duration::ZERO);
                    self.telemetry().observe(record, sampled);
                }
                response
            }
            Err(_) => ServeError::WorkerLost.into_response(id),
        }
    }

    /// Submits one request without blocking; the response (including
    /// any admission refusal) is delivered into `reply`. This is the
    /// pipelining path: a connection thread calls it once per parsed
    /// line and keeps reading, so many requests ride the engine at
    /// once while a single writer drains `reply` in completion order.
    /// `conn` names the submitting connection in the request's
    /// lifecycle record (`0` for in-process callers).
    pub fn submit_streamed(&self, conn: u64, req: RecommendRequest, reply: Sender<Outbound>) {
        if let Err(refusal) = self.enqueue(conn, req, reply.clone()) {
            let _ = reply.send(Outbound::plain(refusal));
        }
    }

    /// A live metrics snapshot (engine counters + serving universe).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.metrics.snapshot(self.shared.model.load().universe())
    }

    /// The engine's telemetry facade: sampling config and record ring.
    /// Disabled telemetry returns a facade whose `enabled()` is `false`
    /// and whose observers are no-ops.
    pub fn telemetry(&self) -> &Telemetry {
        self.shared.metrics.telemetry()
    }

    /// Renders the live Prometheus-style metrics page — the body of a
    /// `MetricsDump` protocol response.
    pub fn exposition(&self) -> String {
        self.shared.metrics.exposition()
    }

    /// The engine metrics, for collaborators in this crate (the server
    /// notes connection-layer events — rate limits, reaped handles —
    /// against the same snapshot clients query).
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Whether [`Engine::shutdown`] has begun.
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Atomically publishes a replacement frozen model. In-flight
    /// jobs finish against the snapshot they pinned; every later job
    /// scores against `frozen`. Rejects a universe mismatch so
    /// queued requests' id spaces can never dangle across a swap.
    pub fn publish(&self, frozen: Arc<FrozenModel>) -> Result<(), String> {
        let current = self.shared.model.load();
        let (cur, new) = (current.context(), frozen.context());
        if new.num_users != cur.num_users
            || new.num_items != cur.num_items
            || new.num_groups() != cur.num_groups()
        {
            return Err(format!(
                "published universe {}u/{}i/{}g does not match serving universe {}u/{}i/{}g",
                new.num_users,
                new.num_items,
                new.num_groups(),
                cur.num_users,
                cur.num_items,
                cur.num_groups()
            ));
        }
        self.shared.model.store(frozen);
        self.shared.metrics.note_reload();
        Ok(())
    }

    /// Hot-swaps to a `groupsa-snapshot` directory written by
    /// [`FrozenModel::write_snapshot`]: opens it lazily against the
    /// *current* model's weights and context (shared, not cloned) and
    /// publishes it. On error the previous model keeps serving.
    pub fn reload_from_snapshot(&self, dir: impl AsRef<Path>) -> Result<(), String> {
        let current = self.shared.model.load();
        let fresh =
            FrozenModel::from_snapshot_shared(current.model_arc(), current.context_arc(), dir)?;
        self.publish(Arc::new(fresh))
    }

    /// Graceful shutdown: stop admitting, let workers drain every
    /// queued request, join them, and return the final metrics. Any
    /// job still queued after the pool is gone (workers retired on a
    /// poisoned lock) is answered `WorkerLost` rather than leaving its
    /// submitter blocked forever. Idempotent — later calls just
    /// re-snapshot.
    pub fn shutdown(&self) -> StatsSnapshot {
        {
            // Raise the flag under the queue lock: a worker checks it
            // under the same lock before it waits, so the wake-up below
            // cannot slip in between its check and its wait and leave
            // it asleep forever.
            let _queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.shared.stopping.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        // Join the pool even if a panicking thread poisoned the handle
        // list — shutdown must still drain and report.
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        let drained_any = !handles.is_empty();
        for handle in handles {
            let _ = handle.join();
        }
        // The workers are gone; anything still queued would hold its
        // submitter's reply channel open forever. Recover the guard
        // even from poison — this is exactly the poisoned-pool case.
        let leftovers: Vec<Job> = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.shared.metrics.note_queue_depth(0);
            queue.drain(..).collect()
        };
        answer_worker_lost(&self.shared, leftovers);
        let stats = self.stats();
        // Dump the final snapshot into the trace once, when the pool
        // actually drained (idempotent re-snapshots stay silent).
        if drained_any && groupsa_obs::enabled() {
            groupsa_obs::emit("stats", &[("stats", groupsa_obs::to_json(&stats))]);
        }
        stats
    }

    /// The frozen snapshot currently published to the workers.
    pub fn frozen(&self) -> Arc<FrozenModel> {
        self.shared.model.load()
    }

    /// Test-only hook: poisons the admission queue by panicking a
    /// throwaway thread while it holds the lock, simulating a worker
    /// dying mid-drain. Exists so the worker-retirement drain has a
    /// deterministic regression test; never called on a request path.
    #[doc(hidden)]
    pub fn poison_queue_for_test(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.queue.lock();
            panic!("poison_queue_for_test"); // lint: allow(panic-path)
        })
        .join();
    }
}

/// Answers every drained job `WorkerLost` with per-job accounting:
/// queue wait is recorded, and the reply is an error, so conservation
/// (`submitted == completed + errors + expired + shed`) still holds
/// when a pool dies with work in the queue.
fn answer_worker_lost(shared: &Shared, jobs: Vec<Job>) {
    let popped = Instant::now();
    let telemetry = shared.metrics.telemetry();
    for job in jobs {
        let queue_wait = popped.saturating_duration_since(job.enqueued);
        shared.metrics.note_queue_wait(queue_wait);
        shared.metrics.note_error();
        if telemetry.enabled() {
            telemetry.observe(
                RequestRecord {
                    conn: job.conn,
                    id: job.req.id,
                    arrival_us: telemetry.us_since_start(job.enqueued),
                    outcome: RecordOutcome::Error,
                    queue_us: queue_wait.as_micros() as u64,
                    total_us: job.enqueued.elapsed().as_micros() as u64,
                    ..RequestRecord::default()
                },
                job.sampled,
            );
        }
        let _ = job.reply.send(Outbound::plain(ServeError::WorkerLost.into_response(job.req.id)));
    }
}

/// A worker observed queue-lock poison: another worker panicked while
/// holding the lock. Retire — but first drain every queued job and
/// answer it `WorkerLost`, because a retired pool will never pop them
/// and their submitters would otherwise block in `recv` forever.
fn retire_draining(shared: &Shared, mut queue: MutexGuard<'_, VecDeque<Job>>) {
    let jobs: Vec<Job> = queue.drain(..).collect();
    shared.metrics.note_queue_depth(0);
    drop(queue);
    answer_worker_lost(shared, jobs);
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = match shared.queue.lock() {
                Ok(queue) => queue,
                Err(poisoned) => return retire_draining(shared, poisoned.into_inner()),
            };
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.note_queue_depth(queue.len());
                    break job;
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    return; // queue drained and no more admissions
                }
                queue = match shared.available.wait(queue) {
                    Ok(queue) => queue,
                    Err(poisoned) => return retire_draining(shared, poisoned.into_inner()),
                };
            }
        };
        let popped = Instant::now();
        // Pin the published model for this job: a hot-swap lands
        // between jobs, never inside one.
        let frozen = shared.model.load();
        let (response, expired) = execute(&frozen, &job);
        finish_job(shared, popped, job, response, expired);
    }
}

/// Request lifecycle accounting + reply for one popped job, called
/// right after it ran, so the scoring stage is the time since `popped`.
/// Queue-wait (enqueue → popped) is recorded for every popped job;
/// scoring time only for jobs that ran the model (and those
/// observations feed the shedding policy's service-time EWMA).
/// Exactly one outcome counter per popped job, so the categories
/// stay disjoint and `submitted = completed + errors + expired + shed`
/// holds after a drain. (An expired request also *answers* with an
/// `Error` response, but it must not be double-counted under
/// `errors`.)
fn finish_job(shared: &Shared, popped: Instant, job: Job, response: Response, expired: bool) {
    let score_elapsed = popped.elapsed();
    let pop_id = shared.metrics.note_pop();
    let queue_wait = popped.saturating_duration_since(job.enqueued);
    shared.metrics.note_queue_wait(queue_wait);
    let outcome = if expired {
        shared.metrics.note_expired();
        RecordOutcome::Expired
    } else {
        shared.metrics.note_score(score_elapsed);
        shared.service.observe(score_elapsed.as_micros() as u64);
        if matches!(response, Response::Error { .. }) {
            shared.metrics.note_error();
            RecordOutcome::Error
        } else {
            shared.metrics.note_completed(job.enqueued.elapsed());
            RecordOutcome::Completed
        }
    };
    let telemetry = shared.metrics.telemetry();
    let record = telemetry.enabled().then(|| RequestRecord {
        conn: job.conn,
        id: job.req.id,
        arrival_us: telemetry.us_since_start(job.enqueued),
        outcome,
        queue_us: queue_wait.as_micros() as u64,
        batch: pop_id,
        score_us: score_elapsed.as_micros() as u64,
        write_us: 0,
        total_us: 0,
        slow: false,
    });
    // The receiver files the finished record via [`PendingRecord`]. A
    // submitter that gave up (the pipelined writer died with its
    // connection) surfaces as a send error; drop silently.
    let _ = job.reply.send(Outbound {
        response,
        record: record.map(|record| PendingRecord {
            record,
            sampled: job.sampled,
            enqueued: job.enqueued,
        }),
    });
}

/// Runs one job, returning its response and whether it was dropped on
/// deadline expiry (metrics accounting happens in the caller).
fn execute(frozen: &FrozenModel, job: &Job) -> (Response, bool) {
    let id = job.req.id;
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            return (ServeError::DeadlineExceeded.into_response(id), true);
        }
    }
    let response = match frozen.recommend(
        job.req.target,
        job.req.k,
        job.req.exclude_seen,
        job.req.mode.group_mode(),
    ) {
        Ok(items) => Response::Recommend { id, items },
        Err(message) => ServeError::Model { message }.into_response(id),
    };
    (response, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Target;
    use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
    use groupsa_data::synthetic::{generate, SyntheticConfig};

    fn tiny_frozen() -> FrozenModel {
        let dataset = generate(&SyntheticConfig {
            name: "engine-unit".into(),
            seed: 11,
            num_users: 12,
            num_items: 20,
            num_groups: 4,
            num_topics: 2,
            latent_dim: 4,
            avg_items_per_user: 4.0,
            avg_friends_per_user: 3.0,
            avg_items_per_group: 1.5,
            mean_group_size: 3.0,
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
        FrozenModel::freeze(model, ctx)
    }

    /// The shutdown-drain path, unit-tested against a pool-less
    /// `Shared` directly: jobs left in the queue when no worker will
    /// ever pop them must be answered `WorkerLost` and counted as
    /// errors, not silently dropped (which would leave blocking
    /// submitters in `recv` forever).
    #[test]
    fn answer_worker_lost_replies_and_counts_every_job() {
        let shared = Shared {
            model: ModelSlot::new(Arc::new(tiny_frozen())),
            cfg: EngineConfig::default(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stopping: AtomicBool::new(false),
            metrics: Metrics::new(),
            service: ServiceEstimate::new(),
        };
        let mut receivers = Vec::new();
        let mut jobs = Vec::new();
        for id in 0..3u64 {
            let (tx, rx) = mpsc::channel();
            receivers.push(rx);
            shared.metrics.note_submitted();
            jobs.push(Job {
                conn: 0,
                req: RecommendRequest {
                    id,
                    target: Target::User { id: 0 },
                    k: 1,
                    exclude_seen: false,
                    mode: crate::protocol::ServeMode::Voting,
                    deadline_ms: 0,
                },
                deadline: None,
                enqueued: Instant::now(),
                sampled: false,
                reply: tx,
            });
        }
        answer_worker_lost(&shared, jobs);
        for rx in receivers {
            let resp = rx.recv().expect("every abandoned job is answered").response;
            assert!(
                matches!(resp, Response::Error { ref error, .. } if error.contains("worker dropped")),
                "{resp:?}"
            );
        }
        let stats = shared.metrics.snapshot(crate::metrics::Universe::default());
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.submitted, stats.completed + stats.errors + stats.expired + stats.shed);
    }
}
