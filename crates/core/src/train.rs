//! Joint two-stage training (paper §II-E).
//!
//! Stage 1 optimises the user-item BPR loss `L_R` (Eq. 24) over the
//! plentiful user-item interactions, learning the shared user/item
//! embeddings plus the user-modeling towers. Stage 2 fine-tunes on the
//! sparse group-item BPR loss `L_G` (Eq. 21), training the voting
//! network and group tower while continuing to update the shared
//! embeddings. Group-G ablates stage 1.
//!
//! Following the paper, each gradient step draws one positive example
//! and `N` negatives (per-example Adam with row-sparse embedding
//! updates).
//!
//! # Deterministic data parallelism
//!
//! Training is data-parallel over each `batch_size` window: a
//! `std::thread::scope` worker pool reads the model immutably, each
//! worker builds its own [`Graph`] per example, runs forward/backward,
//! and hands back a detached [`GradSink`]; the training thread merges
//! the sinks **in ascending example order** and applies one optimizer
//! step per window. Because
//!
//! 1. every example's negatives and dropout masks come from an RNG
//!    stream keyed by `(seed, round, example_index)` (never from a
//!    shared sequential generator),
//! 2. parameters are only mutated between windows, so every example in
//!    a window sees identical parameters, and
//! 3. the reduction replays the same floating-point additions in the
//!    same order regardless of which thread produced each sink,
//!
//! training with `T` workers is *bit-identical* to `T = 1`. The worker
//! count comes from the `GROUPSA_TRAIN_THREADS` environment variable
//! (`0` = all available cores, unset = 1) or [`Trainer::with_threads`].

use crate::config::GroupSaConfig;
use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_data::sampling::{bpr_epoch_streams, BprExample};
use groupsa_eval::{evaluate, EvalTask};
use groupsa_json::impl_json_struct;
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::optim::{Adam, Optimizer};
use groupsa_nn::GradSink;
use groupsa_tensor::rng::stream_rng;
use groupsa_tensor::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Salt folded into the seed for dropout-mask streams, so an example's
/// dropout RNG never collides with its negative-sampling RNG (which
/// shares the same `(round, index)` key).
const DROPOUT_SALT: u64 = 0xD80F_0D20_57A7_1C55;

/// Per-epoch mean losses, wall-clock times, and effective learning
/// rates recorded during training.
///
/// Equality deliberately ignores the wall-clock fields
/// (`user_epoch_seconds` / `group_epoch_seconds`): determinism tests
/// compare reports across worker counts and re-runs, and elapsed time
/// is the one thing allowed to differ. Every deterministic field —
/// losses, validation HR, per-epoch learning rates — must still match
/// exactly.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean BPR loss per stage-1 (user-item) epoch.
    pub user_losses: Vec<f32>,
    /// Mean BPR loss per stage-2 (group-item) epoch.
    pub group_losses: Vec<f32>,
    /// Validation HR@10 after each stage-2 epoch (empty without a
    /// validation split).
    pub valid_hr: Vec<f64>,
    /// Wall-clock seconds per stage-1 epoch (excluded from `==`).
    pub user_epoch_seconds: Vec<f64>,
    /// Wall-clock seconds per stage-2 epoch, including the joint
    /// mixing pass and validation scoring (excluded from `==`).
    pub group_epoch_seconds: Vec<f64>,
    /// Effective learning rate at the start of each stage-1 epoch.
    pub user_epoch_lr: Vec<f32>,
    /// Effective learning rate at the start of each stage-2 epoch —
    /// makes the plateau schedule's halvings visible in the report.
    pub group_epoch_lr: Vec<f32>,
}

impl PartialEq for TrainReport {
    fn eq(&self, other: &Self) -> bool {
        // Wall-clock vectors are intentionally not compared.
        self.user_losses == other.user_losses
            && self.group_losses == other.group_losses
            && self.valid_hr == other.valid_hr
            && self.user_epoch_lr == other.user_epoch_lr
            && self.group_epoch_lr == other.group_epoch_lr
    }
}

impl_json_struct!(TrainReport {
    user_losses,
    group_losses,
    valid_hr,
    user_epoch_seconds,
    group_epoch_seconds,
    user_epoch_lr,
    group_epoch_lr
});

impl TrainReport {
    /// Final stage-1 epoch loss, if stage 1 ran.
    pub fn final_user_loss(&self) -> Option<f32> {
        self.user_losses.last().copied()
    }

    /// Final stage-2 epoch loss, if stage 2 ran.
    pub fn final_group_loss(&self) -> Option<f32> {
        self.group_losses.last().copied()
    }

    /// Zeroes the wall-clock vectors in place (lengths are kept, so
    /// the epoch count stays visible). Digest outputs that must be
    /// byte-identical across runs call this before serialising.
    pub fn zero_wall_clock(&mut self) {
        self.user_epoch_seconds.iter_mut().for_each(|s| *s = 0.0);
        self.group_epoch_seconds.iter_mut().for_each(|s| *s = 0.0);
    }
}

/// Which BPR task an epoch trains (selects the forward graph).
#[derive(Clone, Copy)]
enum Task {
    User,
    Group,
}

/// Worker count from `GROUPSA_TRAIN_THREADS`: unset or unparsable → 1,
/// `0` → all available cores, `n` → `n`.
fn threads_from_env() -> usize {
    match std::env::var("GROUPSA_TRAIN_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Ok(n) => n,
            Err(_) => 1,
        },
        Err(_) => 1,
    }
}

/// Per-window forward/backward time accumulators, shared read-only
/// across the worker pool. Only allocated when `GROUPSA_TRACE` is on —
/// the untraced hot path passes `None` and never reads the clock.
#[derive(Default)]
struct PassTimers {
    forward_us: AtomicU64,
    backward_us: AtomicU64,
}

/// One example's forward/backward, self-contained: reads the model
/// immutably and derives its dropout stream from the example's own key,
/// so it can run on any thread. With `timers` set, the forward
/// (graph build + loss value) and backward (gradients + sink collect)
/// phases are accumulated into the window's totals.
fn example_pass(
    model: &GroupSa,
    ctx: &DataContext,
    cfg: &GroupSaConfig,
    task: Task,
    round: u64,
    index: usize,
    ex: &BprExample,
    timers: Option<&PassTimers>,
) -> (f32, GradSink) {
    let mut items = Vec::with_capacity(1 + ex.negatives.len());
    items.push(ex.positive);
    items.extend_from_slice(&ex.negatives);
    let mut g = Graph::new();
    let forward_started = timers.map(|_| Instant::now());
    let scores = match task {
        Task::User => model.user_scores_graph(&mut g, ctx, ex.entity, &items),
        Task::Group => {
            let mut dropout_rng = stream_rng(cfg.seed ^ DROPOUT_SALT, round, index as u64);
            model.group_scores_graph(&mut g, &mut dropout_rng, ctx, ex.entity, &items, true)
        }
    };
    let loss = bpr_one_vs_rest(&mut g, scores);
    let value = g.value(loss).scalar();
    let backward_started = timers.map(|t| {
        let started = forward_started.expect("forward_started set whenever timers are");
        t.forward_us.fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Instant::now()
    });
    let grads = g.backward(loss);
    let sink = GradSink::collect(&g, &grads);
    if let (Some(t), Some(started)) = (timers, backward_started) {
        t.backward_us.fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
    (value, sink)
}

/// What [`Trainer::run_examples`] hands back: the summed loss (folded
/// in example order, exactly as before instrumentation) plus the
/// traced time breakdown (all zeros when tracing is disabled).
#[derive(Default)]
struct EpochTotals {
    loss_sum: f32,
    examples: usize,
    forward_us: u64,
    backward_us: u64,
    merge_us: u64,
    step_us: u64,
}

/// Drives the two-stage optimisation of a [`GroupSa`] model.
pub struct Trainer {
    cfg: GroupSaConfig,
    optimizer: Adam,
    threads: usize,
    /// Monotone pass counter: every epoch-like pass (stage-1 epoch,
    /// stage-2 epoch, partial mixing pass) consumes one round, keying
    /// that pass's shuffle, negative-sampling and dropout streams.
    round: u64,
    /// Stage-1 epochs run so far — the `epoch` index in trace events.
    user_epochs_run: usize,
    /// Stage-2 epochs run so far.
    group_epochs_run: usize,
    /// Joint mixing passes run so far.
    mix_passes_run: usize,
}

impl Trainer {
    /// A trainer with Adam configured from `cfg` (§III-E) and the
    /// worker count from `GROUPSA_TRAIN_THREADS`.
    pub fn new(cfg: GroupSaConfig) -> Self {
        let optimizer = Adam { weight_decay: cfg.weight_decay, ..Adam::new(cfg.learning_rate) };
        Self {
            cfg,
            optimizer,
            threads: threads_from_env(),
            round: 0,
            user_epochs_run: 0,
            group_epochs_run: 0,
            mix_passes_run: 0,
        }
    }

    /// Overrides the worker count (`0` is clamped to 1). Any `T`
    /// produces bit-identical training results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The data-parallel worker count in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The optimizer's current learning rate (moves under the plateau
    /// schedule during [`Trainer::fit`]).
    pub fn learning_rate(&self) -> f32 {
        self.optimizer.learning_rate()
    }

    /// The plateau schedule's next learning rate: halve, but never
    /// below `min(initial, 1e-3)`. The floor is *relative to the
    /// configured rate* — an absolute `max(1e-3)` would silently
    /// *raise* any sweep configured below 1e-3 (e.g. 5e-4) on its first
    /// non-improving epoch.
    fn plateau_lr(current: f32, initial: f32) -> f32 {
        (current * 0.5).max(initial.min(1e-3))
    }

    fn next_round(&mut self) -> u64 {
        let r = self.round;
        self.round += 1;
        r
    }

    /// Runs the full two-stage schedule on `model` over `ctx`.
    ///
    /// # Panics
    /// If the group-item training set is empty, or stage 1 is enabled
    /// with an empty user-item training set.
    pub fn fit(&mut self, model: &mut GroupSa, ctx: &DataContext) -> TrainReport {
        let _fit_span = groupsa_obs::span!("fit", "threads" => self.threads);
        let mut report = TrainReport::default();
        if self.cfg.ablation.joint_training {
            for _ in 0..self.cfg.user_epochs {
                report.user_epoch_lr.push(self.optimizer.learning_rate());
                let started = Instant::now();
                report.user_losses.push(self.user_epoch(model, ctx));
                report.user_epoch_seconds.push(started.elapsed().as_secs_f64());
            }
            // Fresh optimizer state for fine-tuning: stage-1 second
            // moments would otherwise shrink the group-task steps.
            model.store_mut().reset_optimizer_state();
        }
        // Early stopping on the validation split (paper §III-C tunes on
        // a 10% validation set): keep the parameters of the epoch with
        // the best validation HR@10 and stop after `PATIENCE` epochs
        // without improvement. Skipped when no validation pairs exist.
        const PATIENCE: usize = 15;
        let mut best_hr = f64::NEG_INFINITY;
        let mut best_snapshot: Option<Vec<groupsa_tensor::Matrix>> = None;
        let mut since_best = 0;
        for _ in 0..self.cfg.group_epochs {
            report.group_epoch_lr.push(self.optimizer.learning_rate());
            let started = Instant::now();
            report.group_losses.push(self.group_epoch(model, ctx));
            // Joint optimisation (abstract: both tasks are learned
            // "simultaneously"): every group epoch is followed by a
            // *fractional* user epoch so the shared embeddings keep
            // serving both objectives. The fraction balances the step
            // counts of the two tasks — a full user epoch would
            // out-muscle the sparse group data and yank the group head
            // around (observed as validation dips).
            if self.cfg.ablation.joint_training {
                let frac = (ctx.train_group_item.len() as f64 / ctx.train_user_item.len().max(1) as f64).min(1.0);
                self.partial_user_epoch(model, ctx, frac);
            }
            let mut stop = false;
            if !ctx.valid_group_item.is_empty() {
                let hr = self.validation_hr(model, ctx);
                report.valid_hr.push(hr);
                if hr > best_hr {
                    best_hr = hr;
                    best_snapshot = Some(model.store().snapshot_values());
                    since_best = 0;
                } else {
                    since_best += 1;
                    // Plateau schedule: halve the learning rate while
                    // validation stalls, then stop.
                    let lr = Self::plateau_lr(self.optimizer.learning_rate(), self.cfg.learning_rate);
                    self.optimizer.set_learning_rate(lr);
                    stop = since_best >= PATIENCE;
                }
            }
            report.group_epoch_seconds.push(started.elapsed().as_secs_f64());
            if stop {
                break;
            }
        }
        if let Some(snapshot) = best_snapshot {
            model.store_mut().restore_values(&snapshot);
        }
        report
    }

    /// Validation quality of the group task over the held-out
    /// validation pairs (mean of HR@10 and NDCG@5 against 50 sampled
    /// negatives — the blend tracks both list recall and top-heaviness).
    fn validation_hr(&self, model: &GroupSa, ctx: &DataContext) -> f64 {
        let task = EvalTask {
            test_pairs: &ctx.valid_group_item,
            full_interactions: &ctx.group_item_graph,
            num_candidates: 50,
            ks: vec![5, 10],
            seed: self.cfg.seed ^ 0xA11D,
        };
        let res = evaluate(&model.group_scorer(ctx), &task);
        (res.hr(10) + res.ndcg(5)) / 2.0
    }

    /// Emits one `epoch` trace event (no-op when tracing is off):
    /// stage, epoch index, loss, current LR, wall-clock seconds,
    /// throughput, and the summed per-window time breakdown.
    fn emit_epoch_event(
        &self,
        stage: &'static str,
        epoch: usize,
        loss: f32,
        elapsed: Duration,
        totals: &EpochTotals,
    ) {
        if !groupsa_obs::enabled() {
            return;
        }
        let seconds = elapsed.as_secs_f64();
        let examples_per_sec = if seconds > 0.0 { totals.examples as f64 / seconds } else { 0.0 };
        groupsa_obs::emit(
            "epoch",
            &[
                ("stage", groupsa_obs::to_json(&stage)),
                ("epoch", groupsa_obs::to_json(&epoch)),
                ("loss", groupsa_obs::to_json(&loss)),
                ("lr", groupsa_obs::to_json(&self.optimizer.learning_rate())),
                ("seconds", groupsa_obs::to_json(&seconds)),
                ("examples", groupsa_obs::to_json(&totals.examples)),
                ("examples_per_sec", groupsa_obs::to_json(&examples_per_sec)),
                ("forward_us", groupsa_obs::to_json(&totals.forward_us)),
                ("backward_us", groupsa_obs::to_json(&totals.backward_us)),
                ("merge_us", groupsa_obs::to_json(&totals.merge_us)),
                ("step_us", groupsa_obs::to_json(&totals.step_us)),
            ],
        );
    }

    /// One stage-1 epoch: every training user-item pair once, in a
    /// shuffled order, with fresh negatives. Returns the mean loss.
    pub fn user_epoch(&mut self, model: &mut GroupSa, ctx: &DataContext) -> f32 {
        assert!(!ctx.train_user_item.is_empty(), "stage 1 requires user-item training data");
        let round = self.next_round();
        let epoch = self.user_epochs_run;
        self.user_epochs_run += 1;
        let _span = groupsa_obs::span!("user_epoch", "round" => round, "epoch" => epoch);
        let started = Instant::now();
        let examples =
            bpr_epoch_streams(self.cfg.seed, round, &ctx.train_user_item, &ctx.user_item_graph, self.cfg.num_negatives);
        let totals = self.run_examples(model, ctx, &examples, Task::User, round, "user");
        let mean = totals.loss_sum / examples.len() as f32;
        self.emit_epoch_event("user", epoch, mean, started.elapsed(), &totals);
        mean
    }

    /// A partial user-task epoch over a random `frac` of the training
    /// pairs (stage-2 joint mixing).
    fn partial_user_epoch(&mut self, model: &mut GroupSa, ctx: &DataContext, frac: f64) {
        let take = ((ctx.train_user_item.len() as f64 * frac).ceil() as usize).max(1);
        let round = self.next_round();
        let epoch = self.mix_passes_run;
        self.mix_passes_run += 1;
        let _span = groupsa_obs::span!("mix_pass", "round" => round, "epoch" => epoch);
        let started = Instant::now();
        let mut examples =
            bpr_epoch_streams(self.cfg.seed, round, &ctx.train_user_item, &ctx.user_item_graph, self.cfg.num_negatives);
        examples.truncate(take);
        let totals = self.run_examples(model, ctx, &examples, Task::User, round, "mix");
        let mean = totals.loss_sum / examples.len() as f32;
        self.emit_epoch_event("mix", epoch, mean, started.elapsed(), &totals);
    }

    /// One stage-2 epoch over the group-item pairs. Returns the mean
    /// loss.
    pub fn group_epoch(&mut self, model: &mut GroupSa, ctx: &DataContext) -> f32 {
        assert!(!ctx.train_group_item.is_empty(), "stage 2 requires group-item training data");
        let round = self.next_round();
        let epoch = self.group_epochs_run;
        self.group_epochs_run += 1;
        let _span = groupsa_obs::span!("group_epoch", "round" => round, "epoch" => epoch);
        let started = Instant::now();
        let examples =
            bpr_epoch_streams(self.cfg.seed, round, &ctx.train_group_item, &ctx.group_item_graph, self.cfg.num_negatives);
        let totals = self.run_examples(model, ctx, &examples, Task::Group, round, "group");
        let mean = totals.loss_sum / examples.len() as f32;
        self.emit_epoch_event("group", epoch, mean, started.elapsed(), &totals);
        mean
    }

    /// Trains over `examples` window by window: each `batch_size`
    /// window is sharded across the worker pool, the per-example
    /// [`GradSink`]s are merged in ascending example order, and one
    /// optimizer step is applied per window. With `GROUPSA_TRACE` set,
    /// each window additionally emits a `window` trace event with its
    /// forward/backward/merge/step time breakdown; the instrumentation
    /// never touches an RNG and only reads the clock when enabled, so
    /// the numeric results are identical either way.
    fn run_examples(
        &mut self,
        model: &mut GroupSa,
        ctx: &DataContext,
        examples: &[BprExample],
        task: Task,
        round: u64,
        stage: &'static str,
    ) -> EpochTotals {
        let threads = self.threads.max(1);
        let traced = groupsa_obs::enabled();
        let mut totals = EpochTotals::default();
        let mut start = 0;
        while start < examples.len() {
            let end = (start + self.cfg.batch_size).min(examples.len());
            let window = &examples[start..end];
            let pass_timers = traced.then(PassTimers::default);
            let timers = pass_timers.as_ref();
            let results: Vec<(f32, GradSink)> = if threads == 1 || window.len() == 1 {
                window
                    .iter()
                    .enumerate()
                    .map(|(j, ex)| example_pass(model, ctx, &self.cfg, task, round, start + j, ex, timers))
                    .collect()
            } else {
                let shared: &GroupSa = model;
                let cfg = &self.cfg;
                std::thread::scope(|s| {
                    // Strided sharding: worker w takes window offsets
                    // w, w+T, w+2T, … — a static assignment, so no
                    // work-stealing nondeterminism.
                    let workers: Vec<_> = (0..threads.min(window.len()))
                        .map(|w| {
                            s.spawn(move || {
                                window
                                    .iter()
                                    .enumerate()
                                    .skip(w)
                                    .step_by(threads)
                                    .map(|(j, ex)| {
                                        (j, example_pass(shared, ctx, cfg, task, round, start + j, ex, timers))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let mut slots: Vec<Option<(f32, GradSink)>> = Vec::new();
                    slots.resize_with(window.len(), || None);
                    for worker in workers {
                        for (j, result) in worker.join().expect("training worker panicked") {
                            slots[j] = Some(result);
                        }
                    }
                    slots.into_iter().map(|r| r.expect("every window offset has a worker")).collect()
                })
            };
            // Fixed-order reduction: losses and gradients are folded in
            // example order, exactly as the sequential loop would.
            let merge_started = traced.then(Instant::now);
            for (loss, sink) in &results {
                totals.loss_sum += loss;
                model.store_mut().merge(sink);
            }
            let merge_us = merge_started.map_or(0, |t| t.elapsed().as_micros() as u64);
            let step_started = traced.then(Instant::now);
            self.optimizer.step(model.store_mut());
            let step_us = step_started.map_or(0, |t| t.elapsed().as_micros() as u64);
            totals.examples += window.len();
            if traced {
                let forward_us = timers.map_or(0, |t| t.forward_us.load(Ordering::Relaxed));
                let backward_us = timers.map_or(0, |t| t.backward_us.load(Ordering::Relaxed));
                totals.forward_us += forward_us;
                totals.backward_us += backward_us;
                totals.merge_us += merge_us;
                totals.step_us += step_us;
                groupsa_obs::emit(
                    "window",
                    &[
                        ("stage", groupsa_obs::to_json(&stage)),
                        ("round", groupsa_obs::to_json(&round)),
                        ("start", groupsa_obs::to_json(&start)),
                        ("len", groupsa_obs::to_json(&window.len())),
                        ("forward_us", groupsa_obs::to_json(&forward_us)),
                        ("backward_us", groupsa_obs::to_json(&backward_us)),
                        ("merge_us", groupsa_obs::to_json(&merge_us)),
                        ("step_us", groupsa_obs::to_json(&step_us)),
                    ],
                );
            }
            start = end;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use crate::test_fixtures::tiny_world;
    use groupsa_data::split_dataset;
    use groupsa_eval::{evaluate, EvalTask};

    #[test]
    fn losses_decrease_over_training() {
        let (d, ctx) = tiny_world(21);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 4;
        cfg.group_epochs = 6;
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let report = Trainer::new(cfg).fit(&mut model, &ctx);
        assert_eq!(report.user_losses.len(), 4);
        assert_eq!(report.group_losses.len(), 6);
        let first = report.user_losses[0];
        let last = report.final_user_loss().unwrap();
        assert!(last < first, "user loss should fall: {first} → {last}");
        assert!(
            report.final_group_loss().unwrap() < report.group_losses[0],
            "group loss should fall: {:?}",
            report.group_losses
        );
        assert!(report.user_losses.iter().all(|l| l.is_finite()));
        assert!(report.group_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn group_g_skips_stage_one() {
        let (d, _) = tiny_world(21);
        let cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_g());
        let ctx = DataContext::from_train_view(&d, &cfg);
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let report = Trainer::new(cfg).fit(&mut model, &ctx);
        assert!(report.user_losses.is_empty());
        assert!(!report.group_losses.is_empty());
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let (d, ctx) = tiny_world(21);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 2;
        cfg.group_epochs = 2;
        let run = |cfg: &GroupSaConfig| {
            let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
            let rep = Trainer::new(cfg.clone()).with_threads(1).fit(&mut model, &ctx);
            (rep, model.score_group_items(&ctx, 0, &[0, 1, 2]))
        };
        let (r1, s1) = run(&cfg);
        let (r2, s2) = run(&cfg);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let (_, s3) = run(&cfg2);
        assert_ne!(s1, s3);
    }

    /// The tentpole invariant: training with 2 or 4 workers produces a
    /// byte-identical `TrainReport` and bit-identical final parameters
    /// to single-threaded training.
    #[test]
    fn parallel_matches_serial() {
        let (d, ctx) = tiny_world(21);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 2;
        cfg.group_epochs = 3;
        // Non-zero dropout so the per-example mask streams are part of
        // what must match.
        cfg.dropout = 0.2;
        let run = |threads: usize| {
            let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
            let report = Trainer::new(cfg.clone()).with_threads(threads).fit(&mut model, &ctx);
            (report, model.store().snapshot_values())
        };
        let (serial_report, serial_params) = run(1);
        for t in [2usize, 4] {
            let (report, params) = run(t);
            assert_eq!(serial_report, report, "TrainReport must be identical at T={t}");
            assert_eq!(serial_params.len(), params.len());
            for (i, (a, b)) in serial_params.iter().zip(&params).enumerate() {
                assert_eq!(a, b, "parameter {i} must be bit-identical at T={t}");
            }
        }
    }

    /// Regression (pre-fix: `(lr * 0.5).max(1e-3)`): a sweep configured
    /// below the absolute floor, e.g. 5e-4, must never be *raised* by
    /// the plateau schedule.
    #[test]
    fn plateau_floor_is_relative_to_configured_rate() {
        assert_eq!(Trainer::plateau_lr(0.02, 0.02), 0.01);
        // Large initial rates keep the absolute 1e-3 floor…
        assert_eq!(Trainer::plateau_lr(1.5e-3, 0.02), 1e-3);
        assert_eq!(Trainer::plateau_lr(1e-3, 0.02), 1e-3);
        // …but a small configured rate floors at itself: the schedule
        // must never exceed it (pre-fix this returned 1e-3 > 5e-4).
        let lr = Trainer::plateau_lr(5e-4, 5e-4);
        assert!(lr <= 5e-4, "schedule raised the lr: {lr} > 5e-4");
        assert!(lr > 0.0);
    }

    /// End-to-end form of the same regression: after a full fit with
    /// `learning_rate = 5e-4` and a validation split (so the plateau
    /// schedule actually fires), the lr must not exceed its initial
    /// value.
    #[test]
    fn lr_never_exceeds_initial_during_fit() {
        let (d, _) = tiny_world(24);
        let mut cfg = GroupSaConfig::tiny();
        cfg.learning_rate = 5e-4;
        cfg.user_epochs = 1;
        cfg.group_epochs = 8;
        let split = split_dataset(&d, 0.2, 0.2, 5);
        let ctx = DataContext::build(&d, &split, &cfg);
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let mut trainer = Trainer::new(cfg.clone());
        let report = trainer.fit(&mut model, &ctx);
        assert!(!report.valid_hr.is_empty(), "validation split must be in play");
        assert!(
            trainer.learning_rate() <= cfg.learning_rate,
            "plateau schedule raised the lr: {} > {}",
            trainer.learning_rate(),
            cfg.learning_rate
        );
    }

    /// Satellite: the report records wall-clock seconds and effective
    /// LR per epoch, one entry per loss entry.
    #[test]
    fn report_records_wall_clock_and_lr_per_epoch() {
        let (d, ctx) = tiny_world(21);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 3;
        cfg.group_epochs = 4;
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let report = Trainer::new(cfg.clone()).fit(&mut model, &ctx);
        assert_eq!(report.user_epoch_seconds.len(), report.user_losses.len());
        assert_eq!(report.user_epoch_lr.len(), report.user_losses.len());
        assert_eq!(report.group_epoch_seconds.len(), report.group_losses.len());
        assert_eq!(report.group_epoch_lr.len(), report.group_losses.len());
        assert!(report.user_epoch_seconds.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!(report.group_epoch_seconds.iter().all(|s| s.is_finite() && *s >= 0.0));
        // The schedule starts at the configured rate and never raises it.
        assert_eq!(report.user_epoch_lr[0], cfg.learning_rate);
        assert_eq!(report.group_epoch_lr[0], cfg.learning_rate);
        assert!(report.group_epoch_lr.iter().all(|lr| *lr <= cfg.learning_rate));
    }

    /// `TrainReport` equality must ignore wall-clock time (it is what
    /// the determinism tests compare across worker counts) but must
    /// still see every deterministic field.
    #[test]
    fn report_equality_ignores_wall_clock_only() {
        let mut a = TrainReport {
            user_losses: vec![1.0, 0.5],
            group_losses: vec![0.9],
            valid_hr: vec![0.4],
            user_epoch_seconds: vec![1.25, 1.5],
            group_epoch_seconds: vec![2.0],
            user_epoch_lr: vec![0.02, 0.02],
            group_epoch_lr: vec![0.02],
        };
        let mut b = a.clone();
        b.user_epoch_seconds = vec![9.0, 9.0];
        b.group_epoch_seconds = vec![9.0];
        assert_eq!(a, b, "wall-clock differences must not break equality");
        b.group_epoch_lr = vec![0.01];
        assert_ne!(a, b, "LR differences are deterministic and must be seen");
        a.zero_wall_clock();
        assert_eq!(a.user_epoch_seconds, vec![0.0, 0.0]);
        assert_eq!(a.group_epoch_seconds, vec![0.0]);
    }

    #[test]
    fn trained_model_beats_untrained_on_user_ranking() {
        let (d, ctx) = tiny_world(22);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 6;
        cfg.group_epochs = 2;
        let untrained = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let mut trained = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        Trainer::new(cfg).fit(&mut trained, &ctx);

        // Evaluate on *training* pairs (smoke test: the model must at
        // least fit what it saw) with 20 candidates.
        let full = ctx.user_item_graph.clone();
        let pairs: Vec<_> = ctx.train_user_item.iter().copied().take(60).collect();
        let task = EvalTask { test_pairs: &pairs, full_interactions: &full, num_candidates: 20, ks: vec![5], seed: 9 };
        let hr_untrained = evaluate(&untrained.user_scorer(&ctx), &task).hr(5);
        let hr_trained = evaluate(&trained.user_scorer(&ctx), &task).hr(5);
        assert!(
            hr_trained > hr_untrained + 0.1,
            "training must help: untrained {hr_untrained}, trained {hr_trained}"
        );
    }

    #[test]
    fn trained_model_fits_group_interactions() {
        let (d, ctx) = tiny_world(23);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 4;
        cfg.group_epochs = 10;
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        Trainer::new(cfg).fit(&mut model, &ctx);

        let full = ctx.group_item_graph.clone();
        let pairs: Vec<_> = ctx.train_group_item.iter().copied().take(40).collect();
        let task = EvalTask { test_pairs: &pairs, full_interactions: &full, num_candidates: 20, ks: vec![5], seed: 9 };
        let hr = evaluate(&model.group_scorer(&ctx), &task).hr(5);
        // Random ranking would land near 5/21 ≈ 0.24.
        assert!(hr > 0.45, "group task must fit training data: HR@5 = {hr}");
    }
}
