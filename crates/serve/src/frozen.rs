//! An immutable serving snapshot of a trained [`GroupSa`] model.
//!
//! Freezing walks every user and group **once**, precomputing the two
//! expensive intermediates of the scoring paths through the tape-free
//! twins in `groupsa_core::freeze`:
//!
//! * the enhanced user latent factor `h_j` (Eq. 19) per user, and
//! * the post-voting member representations (Eq. 1–6) per group.
//!
//! Per-request work then reduces to embedding lookups, one
//! item-conditioned attention, and the prediction towers — the paper's
//! §II-F observation that the voting network dominates inference
//! latency, applied to the full path instead of approximating it.
//! Frozen scores are bit-identical to the graph eval path (the golden
//! tests in `tests/golden.rs` assert exact equality), so the snapshot
//! is a pure speedup, not an approximation.
//!
//! The snapshot is immutable after construction — worker threads share
//! it through an `Arc` with no locking. Model reload goes through
//! [`FrozenModel::rebuild`], which validates the replacement against
//! the frozen universe and recomputes every cache.

use crate::metrics::CacheStats;
use crate::protocol::Target;
use groupsa_core::{DataContext, GroupMode, GroupSa, Recommendation, TopK};
use groupsa_snapshot::{
    MemoryTables, Quant, Snapshot, SnapshotError, SnapshotMeta, SnapshotTables, SnapshotWriter,
    TableRef, TableStore,
};
use groupsa_tensor::Matrix;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Candidates scored per fused scan step: large enough that the
/// prediction-tower matmuls amortise their setup, small enough that a
/// full-catalog scan never materialises catalog-sized score vectors.
/// Chunking is invisible in the results — every tower op is
/// row-independent, so chunk rows carry the exact bits of a one-shot
/// pass, and pushing them into the bounded [`TopK`] heap in the same
/// candidate order reproduces the one-shot ranking.
const SCAN_CHUNK: usize = 256;

/// A trained model plus its precomputed per-user / per-group caches.
///
/// The caches are read through the [`TableStore`] trait: freezing
/// materializes them in memory ([`MemoryTables`], zero-copy reads),
/// while [`FrozenModel::from_snapshot`] pages them in lazily from a
/// sharded binary snapshot ([`SnapshotTables`]) — the scoring code is
/// identical either way, and for an f32 snapshot so are the bits.
pub struct FrozenModel {
    /// Shared with any hot-swapped successor built by
    /// [`FrozenModel::from_snapshot_shared`]: a reload that only
    /// re-points the tables must not duplicate the weights.
    model: Arc<GroupSa>,
    ctx: Arc<DataContext>,
    /// `h_j` per user and post-voting `l×d` member reps per group.
    tables: Box<dyn TableStore>,
    /// Memory-backed models can recompute their caches from `ctx`;
    /// snapshot-backed ones cannot (the serving context may be a
    /// stub without Top-H lists), so [`FrozenModel::rebuild`] is
    /// gated on this.
    rebuildable: bool,
    latent_hits: AtomicU64,
    rep_hits: AtomicU64,
    rebuilds: AtomicU64,
}

impl FrozenModel {
    /// Snapshots `model` against `ctx`, precomputing every user latent
    /// and every group's member representations. The model's gradients
    /// and optimizer moments are released: a serving model never trains.
    ///
    /// # Panics
    /// If the model's embedding tables don't cover the context's
    /// universe.
    pub fn freeze(mut model: GroupSa, ctx: DataContext) -> Self {
        assert_eq!(model.num_users(), ctx.num_users, "model/context user universe mismatch");
        model.store_mut().release_training_state();
        assert_eq!(model.num_items(), ctx.num_items, "model/context item universe mismatch");
        let (user_latents, group_reps) = Self::precompute(&model, &ctx);
        let dim = model.user_embedding_table().cols();
        Self {
            model: Arc::new(model),
            ctx: Arc::new(ctx),
            tables: Box::new(MemoryTables::new(user_latents, group_reps, dim)),
            rebuildable: true,
            latent_hits: AtomicU64::new(0),
            rep_hits: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Opens a frozen model whose caches page in lazily from a binary
    /// snapshot written by [`FrozenModel::write_snapshot`]. The
    /// snapshot's declared universe must match `model` and `ctx`
    /// (which may be a [`DataContext::serving_stub`] at scale).
    ///
    /// With an f32 snapshot, responses are bit-identical to the
    /// freeze-built model the snapshot was written from; f16/i8
    /// snapshots trade bounded score error for 2–4× less storage.
    pub fn from_snapshot(model: GroupSa, ctx: DataContext, dir: impl AsRef<Path>) -> Result<Self, String> {
        Self::from_snapshot_shared(Arc::new(model), Arc::new(ctx), dir)
    }

    /// [`FrozenModel::from_snapshot`] for callers that already hold the
    /// model and context in `Arc`s — the hot-swap path: publishing a
    /// retrained snapshot re-uses the serving process's weights and
    /// context by reference instead of cloning either.
    pub fn from_snapshot_shared(
        model: Arc<GroupSa>,
        ctx: Arc<DataContext>,
        dir: impl AsRef<Path>,
    ) -> Result<Self, String> {
        let snap = Snapshot::open(dir).map_err(|e| e.to_string())?;
        let meta = *snap.meta();
        if model.num_users() != ctx.num_users || model.num_items() != ctx.num_items {
            return Err(format!(
                "model universe {}u/{}i does not match context {}u/{}i",
                model.num_users(),
                model.num_items(),
                ctx.num_users,
                ctx.num_items
            ));
        }
        if meta.num_users != ctx.num_users
            || meta.num_items != ctx.num_items
            || meta.num_groups != ctx.num_groups()
        {
            return Err(format!(
                "snapshot universe {}u/{}i/{}g does not match context {}u/{}i/{}g",
                meta.num_users,
                meta.num_items,
                meta.num_groups,
                ctx.num_users,
                ctx.num_items,
                ctx.num_groups()
            ));
        }
        let dim = model.user_embedding_table().cols();
        if meta.dim != dim {
            return Err(format!("snapshot dim {} does not match model dim {dim}", meta.dim));
        }
        Ok(Self {
            model,
            ctx,
            tables: Box::new(SnapshotTables::new(snap)),
            rebuildable: false,
            latent_hits: AtomicU64::new(0),
            rep_hits: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        })
    }

    /// Writes this model's caches as a sharded binary snapshot under
    /// `dir` (see DESIGN §13), streaming row by row — works for both
    /// memory- and snapshot-backed tables. Returns the content-derived
    /// snapshot id.
    pub fn write_snapshot(
        &self,
        dir: impl AsRef<Path>,
        shards: u32,
        quant: Quant,
    ) -> Result<u64, SnapshotError> {
        let meta = SnapshotMeta {
            num_users: self.ctx.num_users,
            num_items: self.ctx.num_items,
            num_groups: self.ctx.num_groups(),
            dim: self.model.user_embedding_table().cols(),
            shards,
            quant,
        };
        let mut writer = SnapshotWriter::create(dir, meta)?;
        for u in 0..meta.num_users {
            let held = self.tables.user_latent(u)?;
            writer.push_user(held.as_deref().map(|m| m.as_slice()))?;
        }
        for g in 0..meta.num_groups {
            let reps = self.tables.group_rep(g)?;
            writer.push_group(&reps)?;
        }
        writer.finish()
    }

    /// Bytes of cache data resident in memory: the full table payload
    /// for a freeze-built model, only index structures (presence
    /// bitmap + group index) for a snapshot-backed one.
    pub fn resident_table_bytes(&self) -> usize {
        self.tables.resident_bytes()
    }

    /// Where the caches live: `"memory"` or `"snapshot"`.
    pub fn table_backing(&self) -> &'static str {
        self.tables.backing()
    }

    fn precompute(model: &GroupSa, ctx: &DataContext) -> (Vec<Option<Matrix>>, Vec<Matrix>) {
        let user_latents: Vec<Option<Matrix>> =
            (0..ctx.num_users).map(|u| model.user_latent_frozen(ctx, u)).collect();
        let group_reps: Vec<Matrix> =
            (0..ctx.num_groups()).map(|g| model.member_reps_frozen(ctx, g, &user_latents)).collect();
        (user_latents, group_reps)
    }

    /// Replaces the model (e.g. after a checkpoint reload) and rebuilds
    /// every cache, releasing the new model's training state as
    /// [`FrozenModel::freeze`] does. Rejects models trained for a
    /// different universe so cached id spaces can never dangle.
    pub fn rebuild(&mut self, mut model: GroupSa) -> Result<(), String> {
        if !self.rebuildable {
            return Err(
                "snapshot-backed frozen model cannot rebuild: its context lacks the training-side \
                 Top-H lists; write a new snapshot from a freeze-built model instead"
                    .to_string(),
            );
        }
        if model.num_users() != self.ctx.num_users || model.num_items() != self.ctx.num_items {
            return Err(format!(
                "model universe {}u/{}i does not match frozen context {}u/{}i",
                model.num_users(),
                model.num_items(),
                self.ctx.num_users,
                self.ctx.num_items
            ));
        }
        model.store_mut().release_training_state();
        let (user_latents, group_reps) = Self::precompute(&model, &self.ctx);
        let dim = model.user_embedding_table().cols();
        self.model = Arc::new(model);
        self.tables = Box::new(MemoryTables::new(user_latents, group_reps, dim));
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The frozen model (parameter access, config).
    pub fn model(&self) -> &GroupSa {
        &self.model
    }

    /// The frozen context (universe sizes, interaction graphs).
    pub fn context(&self) -> &DataContext {
        &self.ctx
    }

    /// A shared handle to the frozen model, for building a successor
    /// snapshot ([`FrozenModel::from_snapshot_shared`]) without
    /// cloning the weights.
    pub fn model_arc(&self) -> Arc<GroupSa> {
        Arc::clone(&self.model)
    }

    /// A shared handle to the frozen context (see
    /// [`FrozenModel::model_arc`]).
    pub fn context_arc(&self) -> Arc<DataContext> {
        Arc::clone(&self.ctx)
    }

    /// Top-`k` recommendations for `target`, mirroring
    /// [`GroupSa::recommend_for_user`] / `recommend_for_group`
    /// bit-for-bit (same candidate filter, same scores, same
    /// deterministic ranking) while only touching the caches.
    ///
    /// Scoring is a *fused scan*: candidates are scored in
    /// [`SCAN_CHUNK`]-sized slices and pushed straight into a bounded
    /// [`TopK`] heap, so a full-catalog request allocates O(chunk + k)
    /// instead of materialising catalog-sized candidate and score
    /// vectors before selection.
    pub fn recommend(
        &self,
        target: Target,
        k: usize,
        exclude_seen: bool,
        mode: GroupMode,
    ) -> Result<Vec<Recommendation>, String> {
        match target {
            Target::User { id } => {
                if id >= self.ctx.num_users {
                    return Err(format!("user {id} out of range (num_users = {})", self.ctx.num_users));
                }
                let held = self.tables.user_latent(id).map_err(|e| e.to_string())?;
                let latent = held.as_deref();
                let mut counted = false;
                Ok(self.scan(
                    |i| !exclude_seen || !self.ctx.user_item_graph.has_interaction(id, i),
                    k,
                    |chunk, acc| {
                        // Cache-hit accounting is per *request*, not per
                        // chunk — note it on the first scored slice only.
                        if !counted {
                            counted = true;
                            if latent.is_some() {
                                self.latent_hits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let scores = self.model.score_user_items_frozen(id, chunk, latent);
                        for (&item, score) in chunk.iter().zip(scores) {
                            acc.push(item, score);
                        }
                    },
                ))
            }
            Target::Group { id } => {
                if id >= self.ctx.num_groups() {
                    return Err(format!("group {id} out of range (num_groups = {})", self.ctx.num_groups()));
                }
                let keep = |i: usize| !exclude_seen || !self.ctx.group_item_graph.has_interaction(id, i);
                match mode {
                    GroupMode::Voting => {
                        let reps = self.tables.group_rep(id).map_err(|e| e.to_string())?;
                        let mut counted = false;
                        Ok(self.scan(keep, k, |chunk, acc| {
                            if !counted {
                                counted = true;
                                self.rep_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            let scores = self.model.score_group_items_frozen(&reps, chunk);
                            for (&item, score) in chunk.iter().zip(scores) {
                                acc.push(item, score);
                            }
                        }))
                    }
                    GroupMode::Fast(agg) => {
                        let members = &self.ctx.members[id];
                        if members.is_empty() {
                            // Mirror the unfused path: empty candidate
                            // sets returned Ok before the member check
                            // ever ran.
                            if (0..self.ctx.num_items).any(keep) {
                                return Err(format!("group {id} has no members"));
                            }
                            return Ok(Vec::new());
                        }
                        let held: Vec<Option<TableRef<'_>>> = members
                            .iter()
                            .map(|&u| self.tables.user_latent(u))
                            .collect::<Result<_, _>>()
                            .map_err(|e| e.to_string())?;
                        let latent_refs: Vec<Option<&Matrix>> =
                            held.iter().map(|h| h.as_deref()).collect();
                        let mut counted = false;
                        Ok(self.scan(keep, k, |chunk, acc| {
                            if !counted {
                                counted = true;
                                let hits = latent_refs.iter().filter(|l| l.is_some()).count() as u64;
                                self.latent_hits.fetch_add(hits, Ordering::Relaxed);
                            }
                            let per_member = self.model.score_users_items_frozen(members, &latent_refs, chunk);
                            for (idx, &item) in chunk.iter().enumerate() {
                                let column: Vec<f32> = per_member.iter().map(|row| row[idx]).collect();
                                acc.push(item, agg.combine(&column));
                            }
                        }))
                    }
                }
            }
        }
    }

    /// Batched top-`k` for many *user* targets that share the full item
    /// catalog as their candidate set (`exclude_seen = false`). Each
    /// chunk is scored for **all** requests through one stacked
    /// prediction-tower pass ([`GroupSa::score_users_items_frozen`]),
    /// so `m` coalesced requests cost one tower traversal instead of
    /// `m`. Per-request results (and cache-hit accounting) are
    /// bit-identical to calling [`FrozenModel::recommend`] per request.
    ///
    /// Each `(user, k)` pair yields its own entry; an out-of-range user
    /// fails individually without poisoning the batch.
    pub fn recommend_users_shared(&self, requests: &[(usize, usize)]) -> Vec<Result<Vec<Recommendation>, String>> {
        let mut results: Vec<Result<Vec<Recommendation>, String>> = requests
            .iter()
            .map(|&(user, _)| {
                if user >= self.ctx.num_users {
                    Err(format!("user {user} out of range (num_users = {})", self.ctx.num_users))
                } else {
                    Ok(Vec::new())
                }
            })
            .collect();
        // Table reads can fail per user (snapshot I/O); a failed read
        // downgrades that one request to an error, like out-of-range.
        let mut valid: Vec<usize> = Vec::with_capacity(requests.len());
        let mut held: Vec<Option<TableRef<'_>>> = Vec::with_capacity(requests.len());
        for j in 0..requests.len() {
            if results[j].is_err() {
                continue;
            }
            match self.tables.user_latent(requests[j].0) {
                Ok(l) => {
                    valid.push(j);
                    held.push(l);
                }
                Err(e) => results[j] = Err(e.to_string()),
            }
        }
        if valid.is_empty() || self.ctx.num_items == 0 {
            return results;
        }
        let users: Vec<usize> = valid.iter().map(|&j| requests[j].0).collect();
        let latent_refs: Vec<Option<&Matrix>> = held.iter().map(|h| h.as_deref()).collect();
        // One hit per request whose user has a cached latent — the same
        // counts the per-request path produces.
        let hits = latent_refs.iter().filter(|l| l.is_some()).count() as u64;
        self.latent_hits.fetch_add(hits, Ordering::Relaxed);

        let mut accs: Vec<TopK> = valid.iter().map(|&j| TopK::new(requests[j].1)).collect();
        let mut start = 0;
        while start < self.ctx.num_items {
            let end = (start + SCAN_CHUNK).min(self.ctx.num_items);
            let chunk: Vec<usize> = (start..end).collect();
            let per_user = self.model.score_users_items_frozen(&users, &latent_refs, &chunk);
            for (acc, scores) in accs.iter_mut().zip(per_user) {
                for (&item, score) in chunk.iter().zip(scores) {
                    acc.push(item, score);
                }
            }
            start = end;
        }
        for (&j, acc) in valid.iter().zip(accs) {
            results[j] = Ok(acc.into_sorted());
        }
        results
    }

    /// Drives one fused filter→score→select scan over the catalog:
    /// candidates passing `keep` are collected into [`SCAN_CHUNK`]-item
    /// slices, handed to `score_chunk` (which pushes scored items into
    /// the accumulator), and ranked by the bounded heap at the end.
    fn scan(
        &self,
        keep: impl Fn(usize) -> bool,
        k: usize,
        mut score_chunk: impl FnMut(&[usize], &mut TopK),
    ) -> Vec<Recommendation> {
        let mut acc = TopK::new(k);
        let mut chunk: Vec<usize> = Vec::with_capacity(SCAN_CHUNK.min(self.ctx.num_items));
        for i in 0..self.ctx.num_items {
            if !keep(i) {
                continue;
            }
            chunk.push(i);
            if chunk.len() == SCAN_CHUNK {
                score_chunk(&chunk, &mut acc);
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            score_chunk(&chunk, &mut acc);
        }
        acc.into_sorted()
    }

    /// Point-in-time cache counters for the metrics snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            latent_hits: self.latent_hits.load(Ordering::Relaxed),
            group_rep_hits: self.rep_hits.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            num_users: self.ctx.num_users,
            num_items: self.ctx.num_items,
            num_groups: self.ctx.num_groups(),
        }
    }
}
