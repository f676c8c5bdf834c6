//! The traced run: per-stage numbers from the engine's request records,
//! per-layer numbers from timed calls into each layer's public
//! functions, and the checks that the two reconcile.
//!
//! Nothing here adds tracing inside the program. Stage times come from
//! the `RequestRecord`s the engine already files (telemetry sampling
//! every request). The `score.*` layers are replayed from the
//! benchmark's own code on the model's own weights (looked up by name
//! in `GroupSa::store()`) with public `groupsa_tensor` ops and
//! `TopK::push`; the replay is checked bit-identical to the model's
//! scorer on the same chunk, which proves it times the real
//! computation.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written as JSON lines to `<trace dir>/<workload>-seed<seed>.jsonl`
//! when the run ends.

use crate::clock;
use crate::stats::{median, percentile, sorted};
use crate::wire::{Ledger, Pool, K};
use crate::world::{Workload, World};
use crate::{Metric, Pass, PassPlan};
use groupsa_core::{GroupMode, GroupSa, ScoreAggregation, TopK};
use groupsa_obs::{RecordOutcome, RequestRecord, Telemetry};
use groupsa_serve::{Engine, FrozenModel, Request, Response, Target};
use groupsa_snapshot::{Quant, Snapshot, SnapshotTables, TableStore};
use groupsa_tensor::{ops, Matrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Candidates per replayed chunk: the serving scan's chunk size.
const CHUNK: usize = 256;

/// Wall-clock budget and minimum repetitions per timed layer.
const BUDGET: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 5;

/// Users per stacked (coalesced) scoring call.
const STACK: usize = 4;

/// Reconciliation tolerances. Replayed layers must sum to the directly
/// timed scorer within `LAYER_SUM_TOLERANCE` (relative). The median
/// per-request remainder once queue, in-batch wait, score and write
/// are subtracted from `total_us` must stay within
/// `max(REMAINDER_ABS_US, REMAINDER_REL × median total_us)`.
const LAYER_SUM_TOLERANCE: f64 = 0.30;
const REMAINDER_ABS_US: f64 = 500.0;
const REMAINDER_REL: f64 = 0.10;

/// Requests whose stage spans are written out (the file stays small;
/// the statistics use every record).
const SPANNED_REQUESTS: usize = 5000;

/// What the traced run needs from the untraced one.
pub struct TraceInputs<'a> {
    /// Which workload.
    pub workload: Workload,
    /// Run seed.
    pub seed: u64,
    /// The world (already set up).
    pub world: &'a World,
    /// Pregenerated requests.
    pub pool: &'a Pool,
    /// The traced pass: open-loop latency phases, the untraced run's
    /// closed-loop phases.
    pub plan: &'a PassPlan<'a>,
    /// The untraced pass, for the tracing-overhead figure.
    pub untraced: &'a Pass,
    /// Scratch directory for snapshot files.
    pub work: &'a Path,
    /// Where the span file goes.
    pub trace_dir: &'a Path,
}

/// The traced run's result.
pub struct Traced {
    /// Requests written in the traced pass.
    pub attempted: usize,
    /// Of those, without a valid answer.
    pub failed: usize,
    /// Checks that failed.
    pub problems: Vec<String>,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
}

/// One span: `[start_us, end_us)` on the traced engine's telemetry
/// clock.
struct Span {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span log.
struct Spans<'t> {
    clock: &'t Telemetry,
    spans: Vec<Span>,
}

impl Spans<'_> {
    fn at(&self, t: Instant) -> u64 {
        self.clock.us_since_start(t)
    }

    fn push(&mut self, name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>, request: u64) -> usize {
        self.spans.push(Span { name, start_us, end_us: end_us.max(start_us), parent, request });
        self.spans.len() - 1
    }

    fn timed(&mut self, name: &'static str, from: Instant, to: Instant, parent: Option<usize>) -> usize {
        let (s, e) = (self.at(from), self.at(to));
        self.push(name, s, e, parent, 0)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            )
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Collected per-layer metrics, in print order.
#[derive(Default)]
struct Sink(Vec<Metric>);

impl Sink {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Times `f` repeatedly (at least [`MIN_REPS`] times, until [`BUDGET`]
/// is spent) and returns the median nanoseconds per call.
fn median_ns(mut f: impl FnMut(usize)) -> f64 {
    let started = clock::now();
    let mut samples = Vec::new();
    let mut rep = 0;
    while rep < MIN_REPS || started.elapsed() < BUDGET {
        let t0 = clock::now();
        f(rep);
        samples.push(t0.elapsed().as_nanos() as f64);
        rep += 1;
    }
    median(&samples)
}

/// Runs the traced pass, replays the layers, and reconciles.
pub fn traced_run(inp: &TraceInputs<'_>) -> Result<Traced, String> {
    let (pass, engine) = crate::drive_traced(inp.world, inp.pool, inp.plan)?;
    let mut problems = crate::pass_problems(inp.world, inp.pool, &pass);
    let mut spans = Spans { clock: engine.telemetry(), spans: Vec::new() };
    let mut sink = Sink::default();

    let replay_root = clock::now();
    score_layers(inp.world, &mut sink, &mut spans, &mut problems)?;
    frozen_layers(inp.world, &mut sink);
    snapshot_layers(inp.world, &engine, inp.work, &mut sink)?;
    let replay_end = clock::now();
    spans.timed("replay", replay_root, replay_end, None);
    protocol_layers(inp.pool, &pass, &mut sink)?;
    stage_layers(&pass, &engine.telemetry().records(), inp.pool, &mut sink, &mut spans, &mut problems);

    let traced_e2e = crate::end_to_end(&pass, 0.0, 0.0);
    let untraced_e2e = crate::end_to_end(inp.untraced, 0.0, 0.0);
    let rps = |m: &[Metric]| m.iter().find(|x| x.name == "throughput_rps").map_or(0.0, |x| x.value);
    let (base, traced) = (rps(&untraced_e2e), rps(&traced_e2e));
    sink.put("loadgen.sent", pass.attempted() as f64, "count");
    sink.put("loadgen.lateness_p95_ms", percentile(&sorted(&pass.lateness_ms()), 95.0), "ms");
    sink.put("loadgen.serial_p95_ms", inp.untraced.latency_ms(95.0), "ms");
    sink.put("loadgen.open_p50_ms", pass.latency_ms(50.0), "ms");
    sink.put("loadgen.open_p95_ms", pass.latency_ms(95.0), "ms");
    sink.put("trace.overhead_pct", if traced > 0.0 { (base / traced - 1.0) * 100.0 } else { 0.0 }, "%");

    let path = inp.trace_dir.join(format!("{}-seed{}.jsonl", inp.workload.name(), inp.seed));
    spans.write(&path)?;
    println!("trace: {} spans written to {}", spans.spans.len(), path.display());
    Ok(Traced { attempted: pass.attempted(), failed: pass.failed(), problems, metrics: sink.0 })
}

/// A parameter of the model by its registration name.
fn param<'m>(model: &'m GroupSa, name: &str) -> Result<&'m Matrix, String> {
    model
        .store()
        .iter()
        .find(|p| p.name() == name)
        .map(|p| &p.value)
        .ok_or_else(|| format!("model has no parameter `{name}`"))
}

/// A two-layer tower `relu(x·W0 + b0)·W1 + b1`, by parameter prefix.
struct Tower<'m> {
    w0: &'m Matrix,
    b0: &'m Matrix,
    w1: &'m Matrix,
    b1: &'m Matrix,
}

impl<'m> Tower<'m> {
    /// The layers named `first` and `second` (`<name>.w`, `<name>.b`).
    fn of(model: &'m GroupSa, first: &str, second: &str) -> Result<Self, String> {
        Ok(Self {
            w0: param(model, &format!("{first}.w"))?,
            b0: param(model, &format!("{first}.b"))?,
            w1: param(model, &format!("{second}.w"))?,
            b1: param(model, &format!("{second}.b"))?,
        })
    }

    /// A two-layer `Mlp` registered as `prefix` (`prefix.0`, `prefix.1`).
    fn mlp(model: &'m GroupSa, prefix: &str) -> Result<Self, String> {
        if param(model, &format!("{prefix}.2.w")).is_ok() {
            return Err(format!("`{prefix}` has more than two layers; the replay covers two"));
        }
        Self::of(model, &format!("{prefix}.0"), &format!("{prefix}.1"))
    }
}

/// The per-request `[a | b | a⊙b]` feature rows of one input row `a`
/// against item rows `b`.
fn features(a: &Matrix, b: &Matrix) -> Matrix {
    let rep = a.repeat_rows(b.rows());
    rep.concat_cols(b).concat_cols(&rep.mul_elem(b))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A user's cached latent as the server scores with it.
fn latent_of(world: &World, tables: Option<&SnapshotTables>, user: usize) -> Result<Option<Matrix>, String> {
    match tables {
        Some(t) => Ok(t.user_latent(user).map_err(|e| e.to_string())?.map(|r| (*r).clone())),
        None => Ok(world.frozen.model().user_latent_frozen(world.frozen.context(), user)),
    }
}

fn open_tables(world: &World) -> Result<Option<SnapshotTables>, String> {
    match &world.snapshot_dirs {
        Some((a, _)) => Ok(Some(SnapshotTables::new(Snapshot::open(a).map_err(|e| e.to_string())?))),
        None => Ok(None),
    }
}

/// The `score.*` and `core.*` layers: the user tower and γ attention
/// replayed stage by stage, next to the model's own scorers.
fn score_layers(world: &World, sink: &mut Sink, spans: &mut Spans<'_>, problems: &mut Vec<String>) -> Result<(), String> {
    let model = world.frozen.model();
    let ctx = world.frozen.context();
    let tables = open_tables(world)?;
    let chunk: Vec<usize> = (0..ctx.num_items.min(CHUNK)).collect();
    let n = chunk.len() as f64;
    let emb_user = param(model, "emb_user.table")?;
    let emb_item = param(model, "emb_item.table")?;
    let lat_item = param(model, "lat_item.table")?;
    let user_tower = Tower::mlp(model, "pred_user")?;
    let w = model.config().w_u;

    // Users with a cached latent (both towers engage), spread over ids.
    let mut users: Vec<(usize, Matrix)> = Vec::new();
    let stride = (ctx.num_users / 64).max(1);
    for u in (0..ctx.num_users).step_by(stride) {
        if let Some(h) = latent_of(world, tables.as_ref(), u)? {
            users.push((u, h));
        }
    }
    if users.is_empty() {
        return Err("no user with a cached latent to replay".into());
    }

    let mut stage = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut core_user = Vec::new();
    let started = clock::now();
    let mut rep = 0;
    while rep < MIN_REPS * 4 || started.elapsed() < BUDGET * 2 {
        let (u, h) = &users[rep % users.len()];
        let t = [clock::now(); 1];
        let eu = emb_user.gather_rows(&[*u]);
        let ev = emb_item.gather_rows(&chunk);
        let xv = lat_item.gather_rows(&chunk);
        let t1 = clock::now();
        let cat1 = features(&eu, &ev);
        let cat2 = features(h, &xv);
        let t2 = clock::now();
        let mut a1 = cat1.matmul(user_tower.w0).add_row_broadcast(user_tower.b0);
        let mut a2 = cat2.matmul(user_tower.w0).add_row_broadcast(user_tower.b0);
        let t3 = clock::now();
        a1.map_inplace(ops::relu);
        a2.map_inplace(ops::relu);
        let t4 = clock::now();
        let r1 = a1.matmul(user_tower.w1).add_row_broadcast(user_tower.b1);
        let r2 = a2.matmul(user_tower.w1).add_row_broadcast(user_tower.b1);
        let scores = r1.scale(1.0 - w).add(&r2.scale(w));
        let t5 = clock::now();
        let mut acc = TopK::new(K);
        for (&item, &s) in chunk.iter().zip(scores.as_slice()) {
            acc.push(item, s);
        }
        black_box(acc.into_sorted());
        let t6 = clock::now();
        let marks = [t[0], t1, t2, t3, t4, t5, t6];
        for (i, v) in stage.iter_mut().enumerate() {
            v.push((marks[i + 1] - marks[i]).as_nanos() as f64);
        }
        if rep < 4 {
            let parent = spans.timed("replay.user_tower", marks[0], marks[6], None);
            for (i, name) in ["score.gather", "score.features", "score.layer1", "score.relu", "score.layer2", "score.topk"]
                .into_iter()
                .enumerate()
            {
                spans.timed(name, marks[i], marks[i + 1], Some(parent));
            }
        }

        let c0 = clock::now();
        let direct = model.score_user_items_frozen(*u, &chunk, Some(h));
        core_user.push(c0.elapsed().as_nanos() as f64);
        if rep < users.len() && bits(&direct) != bits(scores.as_slice()) {
            problems.push(format!("user-tower replay differs from score_user_items_frozen for user {u}"));
        }
        rep += 1;
    }
    let per_item: Vec<f64> = stage.iter().map(|v| median(v) / n).collect();
    for (name, v) in ["score.gather_ns_per_item", "score.features_ns_per_item", "score.layer1_ns_per_item"]
        .into_iter()
        .zip(&per_item)
    {
        sink.put(name, *v, "ns");
    }
    sink.put("score.relu_ns_per_item", per_item[3], "ns");
    sink.put("score.layer2_ns_per_item", per_item[4], "ns");
    sink.put("score.topk_ns_per_item", per_item[5], "ns");
    let core_user_ns = median(&core_user) / n;
    sink.put("core.user_ns_per_item", core_user_ns, "ns");
    let tower_sum: f64 = per_item[..5].iter().sum();
    if (tower_sum / core_user_ns - 1.0).abs() > LAYER_SUM_TOLERANCE {
        problems.push(format!(
            "user-tower layers sum to {tower_sum:.1} ns/item but score_user_items_frozen takes {core_user_ns:.1} \
             (tolerance {LAYER_SUM_TOLERANCE})"
        ));
    }

    let stacked: Vec<usize> = users.iter().take(STACK).map(|(u, _)| *u).collect();
    let refs: Vec<Option<&Matrix>> = users.iter().take(STACK).map(|(_, h)| Some(h)).collect();
    let batch_ns = median_ns(|_| {
        black_box(model.score_users_items_frozen(&stacked, &refs, &chunk));
    });
    sink.put("core.users_batch_ns_per_item", batch_ns / (n * stacked.len() as f64), "ns");

    group_layers(world, &chunk, sink, spans, problems)
}

/// γ attention and the group tower, replayed per candidate as
/// `score_group_items_frozen` runs them: one pass builds every
/// candidate's attention-weighted group vector, a second scores it.
fn group_layers(
    world: &World,
    chunk: &[usize],
    sink: &mut Sink,
    spans: &mut Spans<'_>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let model = world.frozen.model();
    let ctx = world.frozen.context();
    let cfg = model.config();
    let n = chunk.len() as f64;
    let emb_item = param(model, "emb_item.table")?;
    let att = Tower::of(model, "group_att.att1", "group_att.att2")?;
    let head = Tower::mlp(model, if cfg.lean_group_head { "pred_user" } else { "pred_group" })?;
    let group_out = if cfg.lean_group_head {
        None
    } else {
        Some((param(model, "group_out.w")?, param(model, "group_out.b")?))
    };
    let stride = (ctx.num_groups() / 16).max(1);
    let reps: Vec<(usize, Matrix)> = (0..ctx.num_groups())
        .step_by(stride)
        .filter(|&g| !ctx.members[g].is_empty())
        .map(|g| (g, model.member_reps_frozen(ctx, g, &[])))
        .collect();
    if reps.is_empty() {
        return Err("no group to replay".into());
    }

    let (mut gamma, mut tower, mut core) = (Vec::new(), Vec::new(), Vec::new());
    let started = clock::now();
    let mut rep = 0;
    while rep < MIN_REPS || started.elapsed() < BUDGET * 2 {
        let (g, r) = &reps[rep % reps.len()];
        let t0 = clock::now();
        let ev_all = emb_item.gather_rows(chunk);
        let mut pairs = Vec::with_capacity(chunk.len());
        for idx in 0..chunk.len() {
            let ev = ev_all.slice_rows(idx, 1);
            let rows = features(&ev, r);
            let mut hidden = rows.matmul(att.w0).add_row_broadcast(att.b0);
            hidden.map_inplace(ops::relu);
            let mut weights = hidden.matmul(att.w1).add_row_broadcast(att.b1).transpose();
            ops::softmax_inplace(weights.row_mut(0));
            let agg = weights.matmul(r);
            let xg = match group_out {
                None => agg,
                Some((w, b)) => {
                    let mut lin = agg.matmul(w).add_row_broadcast(b);
                    lin.map_inplace(ops::relu);
                    lin
                }
            };
            pairs.push((ev, xg));
        }
        let t1 = clock::now();
        let scores: Vec<f32> = pairs
            .iter()
            .map(|(ev, xg)| {
                let mut hidden = features(xg, ev).matmul(head.w0).add_row_broadcast(head.b0);
                hidden.map_inplace(ops::relu);
                hidden.matmul(head.w1).add_row_broadcast(head.b1).scalar()
            })
            .collect();
        let t2 = clock::now();
        gamma.push((t1 - t0).as_nanos() as f64);
        tower.push((t2 - t1).as_nanos() as f64);
        if rep < 4 {
            let parent = spans.timed("replay.group", t0, t2, None);
            spans.timed("score.gamma", t0, t1, Some(parent));
            spans.timed("score.group_tower", t1, t2, Some(parent));
        }
        let c0 = clock::now();
        let direct = model.score_group_items_frozen(r, chunk);
        core.push(c0.elapsed().as_nanos() as f64);
        if rep < reps.len() && bits(&direct) != bits(&scores) {
            problems.push(format!("γ/group-tower replay differs from score_group_items_frozen for group {g}"));
        }
        rep += 1;
    }
    let (gamma_ns, tower_ns, core_ns) = (median(&gamma) / n, median(&tower) / n, median(&core) / n);
    sink.put("score.gamma_ns_per_item", gamma_ns, "ns");
    sink.put("score.group_tower_ns_per_item", tower_ns, "ns");
    sink.put("core.group_ns_per_item", core_ns, "ns");
    if ((gamma_ns + tower_ns) / core_ns - 1.0).abs() > LAYER_SUM_TOLERANCE {
        problems.push(format!(
            "γ + group tower sum to {:.1} ns/item but score_group_items_frozen takes {core_ns:.1} \
             (tolerance {LAYER_SUM_TOLERANCE})",
            gamma_ns + tower_ns
        ));
    }
    Ok(())
}

/// Whole-request calls into `serve::frozen`, on the served model.
fn frozen_layers(world: &World, sink: &mut Sink) {
    let frozen = &world.frozen;
    let ctx = frozen.context();
    let users: Vec<usize> = (0..ctx.num_users).step_by((ctx.num_users / 97).max(1)).collect();
    let groups: Vec<usize> = (0..ctx.num_groups()).step_by((ctx.num_groups() / 31).max(1)).collect();
    let us = |ns: f64| ns / 1e3;
    let user = median_ns(|i| {
        black_box(frozen.recommend(Target::User { id: users[i % users.len()] }, K, false, GroupMode::Voting).ok());
    });
    sink.put("frozen.recommend_user_us", us(user), "us");
    let shared = median_ns(|i| {
        let batch: Vec<(usize, usize)> = (0..STACK).map(|j| (users[(i * STACK + j) % users.len()], K)).collect();
        black_box(frozen.recommend_users_shared(&batch));
    });
    sink.put("frozen.recommend_shared_us", us(shared) / STACK as f64, "us");
    let voting = median_ns(|i| {
        black_box(frozen.recommend(Target::Group { id: groups[i % groups.len()] }, K, false, GroupMode::Voting).ok());
    });
    sink.put("frozen.recommend_voting_us", us(voting), "us");
    let fast = median_ns(|i| {
        let mode = GroupMode::Fast(ScoreAggregation::Average);
        black_box(frozen.recommend(Target::Group { id: groups[i % groups.len()] }, K, false, mode).ok());
    });
    sink.put("frozen.recommend_fast_us", us(fast), "us");
}

/// `core::freeze` and the snapshot layer: set-up costs, lazy row reads
/// and hot-swaps. Catalog worlds write and open an i8 snapshot of
/// themselves here; the snapshot world reports its own set-up.
fn snapshot_layers(world: &World, engine: &Arc<Engine>, work: &Path, sink: &mut Sink) -> Result<(), String> {
    let frozen = &world.frozen;
    sink.put("core.freeze_s", world.freeze_s, "s");
    let (dirs, write_s, open_ms, resident) = match &world.snapshot_dirs {
        Some((a, b)) => ((a.clone(), b.clone()), world.write_s, world.open_ms, frozen.resident_table_bytes()),
        None => {
            let a = work.join("layer-snapshot-a");
            let b = work.join("layer-snapshot-b");
            let t0 = clock::now();
            frozen.write_snapshot(&a, 8, Quant::I8).map_err(|e| format!("snapshot write: {e}"))?;
            let write_s = t0.elapsed().as_secs_f64();
            let t0 = clock::now();
            let opened = FrozenModel::from_snapshot_shared(frozen.model_arc(), frozen.context_arc(), &a)?;
            let open_ms = t0.elapsed().as_secs_f64() * 1e3;
            crate::world::copy_dir(&a, &b)?;
            ((a, b), write_s, open_ms, opened.resident_table_bytes())
        }
    };
    sink.put("snapshot.write_s", write_s, "s");
    sink.put("snapshot.open_ms", open_ms, "ms");
    sink.put("snapshot.resident_mb", resident as f64 / (1024.0 * 1024.0), "MiB");

    let tables = SnapshotTables::new(Snapshot::open(&dirs.0).map_err(|e| e.to_string())?);
    let ctx = frozen.context();
    let (nu, ng) = (ctx.num_users, ctx.num_groups());
    let user_read = median_ns(|i| {
        black_box(tables.user_latent((i * 7919) % nu).ok().flatten().map(|r| r.rows()));
    });
    sink.put("snapshot.user_read_us", user_read / 1e3, "us");
    let group_read = median_ns(|i| {
        black_box(tables.group_rep((i * 7919) % ng).ok().map(|r| r.rows()));
    });
    sink.put("snapshot.group_read_us", group_read / 1e3, "us");
    let mut reload_errors = Vec::new();
    let reload = median_ns(|i| {
        let dir = if i % 2 == 0 { &dirs.1 } else { &dirs.0 };
        if let Err(e) = engine.reload_from_snapshot(dir) {
            reload_errors.push(e);
        }
    });
    if let Some(e) = reload_errors.first() {
        return Err(format!("reload: {e}"));
    }
    sink.put("snapshot.reload_ms", reload / 1e6, "ms");
    Ok(())
}

/// `serve::protocol` on this workload's own lines: decoding requests,
/// encoding the replies the traced pass received.
fn protocol_layers(pool: &Pool, pass: &Pass, sink: &mut Sink) -> Result<(), String> {
    let mut lines = Vec::with_capacity(2000);
    for i in 0..2000 {
        let mut line = String::new();
        pool.line(i, i as u64, &mut line);
        lines.push(line);
    }
    let decode = median_ns(|_| {
        for l in &lines {
            black_box(groupsa_json::from_str::<Request>(l.trim_end()).ok());
        }
    });
    sink.put("protocol.request_decode_us", decode / 1e3 / lines.len() as f64, "us");
    let kept: Vec<&String> = pass.ledgers().flat_map(|l| &l.kept_lines).collect();
    let replies: Vec<Response> = kept
        .iter()
        .map(|l| groupsa_json::from_str::<Response>(l))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("re-parsing a kept reply: {e}"))?;
    if replies.is_empty() {
        return Err("the traced pass kept no reply lines".into());
    }
    let encode = median_ns(|_| {
        for r in &replies {
            black_box(groupsa_json::to_string(r));
        }
    });
    sink.put("protocol.response_encode_us", encode / 1e3 / replies.len() as f64, "us");
    let bytes = kept.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / kept.len() as f64;
    sink.put("protocol.response_bytes", bytes, "bytes");
    Ok(())
}

/// The client-side record of one request: its connection ledger and
/// sequence number.
fn locate(pass: &Pass, id: u64) -> Option<(&Ledger, usize)> {
    pass.ledgers().find_map(|l| l.seq_of(id).filter(|&s| s < l.sent.len()).map(|s| (l, s)))
}

/// Engine and server stages from the request records, the in-batch
/// reconciliation, and the request spans.
fn stage_layers(
    pass: &Pass,
    records: &[RequestRecord],
    pool: &Pool,
    sink: &mut Sink,
    spans: &mut Spans<'_>,
    problems: &mut Vec<String>,
) {
    let done: Vec<&RequestRecord> = records.iter().filter(|r| r.outcome == RecordOutcome::Completed).collect();
    let col = |f: fn(&RequestRecord) -> u64| sorted(&done.iter().map(|r| f(r) as f64).collect::<Vec<_>>());
    let queue = col(|r| r.queue_us);
    sink.put("engine.queue_us_p50", percentile(&queue, 50.0), "us");
    sink.put("engine.queue_us_p95", percentile(&queue, 95.0), "us");
    sink.put("engine.score_us_p50", percentile(&col(|r| r.score_us), 50.0), "us");
    sink.put("server.write_us_p50", percentile(&col(|r| r.write_us), 50.0), "us");
    sink.put("engine.mean_batch", pass.stats.mean_batch, "count");
    sink.put("engine.refused", (pass.stats.rejected + pass.stats.shed + pass.stats.expired) as f64, "count");
    if (done.len() as u64) < pass.stats.completed {
        problems.push(format!("{} records for {} completed requests", done.len(), pass.stats.completed));
    }

    // Drain order within a batch: per-job requests in arrival order,
    // then the coalesced group (when two or more are coalescible).
    let coalescible = |r: &RequestRecord| locate(pass, r.id).is_some_and(|(l, s)| pool.spec(l.spec[s]).coalescible());
    let mut batches: BTreeMap<u64, Vec<&RequestRecord>> = BTreeMap::new();
    for r in &done {
        batches.entry(r.batch).or_default().push(r);
    }
    let (mut shared, mut eligible) = (0usize, 0usize);
    let mut waits: BTreeMap<u64, u64> = BTreeMap::new();
    for members in batches.values_mut() {
        members.sort_by_key(|r| r.arrival_us);
        let coal: Vec<bool> = members.iter().map(|r| coalescible(r)).collect();
        let n_coal = coal.iter().filter(|c| **c).count();
        eligible += n_coal;
        let grouped = n_coal >= 2;
        if grouped {
            shared += n_coal;
        }
        let mut elapsed = 0u64;
        for (r, &c) in members.iter().zip(&coal) {
            if !(grouped && c) {
                waits.insert(r.id, elapsed);
                elapsed += r.score_us;
            }
        }
        for (r, &c) in members.iter().zip(&coal) {
            if grouped && c {
                waits.insert(r.id, elapsed + r.score_us * (n_coal as u64 - 1));
            }
        }
    }
    sink.put("engine.coalesced_share", if eligible > 0 { shared as f64 / eligible as f64 } else { 0.0 }, "ratio");

    let mut over = 0usize;
    let mut remainders = Vec::with_capacity(done.len());
    let mut dispatch = Vec::with_capacity(done.len());
    for r in &done {
        let parts = r.queue_us + r.score_us + r.write_us;
        if parts > r.total_us {
            over += 1;
        }
        let wait = waits.get(&r.id).copied().unwrap_or(0);
        remainders.push(r.total_us as f64 - (parts + wait) as f64);
        if let Some((l, s)) = locate(pass, r.id) {
            if let Some(recv) = l.recv[s] {
                let wire_us = (recv - l.sent[s]).as_secs_f64() * 1e6;
                dispatch.push(wire_us - r.total_us as f64);
                if spans.spans.len() < SPANNED_REQUESTS * 4 {
                    let parent = spans.push("request", spans.at(l.sent[s]), spans.at(recv), None, r.id);
                    let q_end = r.arrival_us + r.queue_us;
                    spans.push("engine.queue", r.arrival_us, q_end, Some(parent), r.id);
                    spans.push("engine.score", q_end + wait, q_end + wait + r.score_us, Some(parent), r.id);
                    let end = r.arrival_us + r.total_us;
                    spans.push("server.write", end.saturating_sub(r.write_us), end, Some(parent), r.id);
                }
            }
        }
    }
    if over > 0 {
        problems.push(format!("{over} records with queue + score + write > total"));
    }
    let totals = col(|r| r.total_us);
    let remainder = median(&remainders);
    let allowed = REMAINDER_ABS_US.max(REMAINDER_REL * percentile(&totals, 50.0));
    if remainder.abs() > allowed {
        problems.push(format!(
            "median unexplained remainder {remainder:.0} us exceeds {allowed:.0} us (queue + in-batch wait + score + write vs total)"
        ));
    }
    sink.put("server.handoff_us_p50", remainder, "us");
    sink.put("server.read_dispatch_us_p50", median(&dispatch), "us");
}
