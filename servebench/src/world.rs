//! The three workloads' worlds: what is served, and how it was set up.

use crate::clock;
use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_data::StreamConfig;
use groupsa_serve::FrozenModel;
use groupsa_snapshot::{Quant, SnapshotMeta, SnapshotWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which traffic mix and world a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// User targets over a 2.5k-item memory-backed catalog.
    UserCatalog,
    /// Group targets (voting and fast modes) over the same catalog.
    GroupCatalog,
    /// Many tiny requests against a lazy i8 snapshot of a large
    /// universe over a 16-item catalog, with hot-swaps and polls.
    WireSnapshot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::UserCatalog, Workload::GroupCatalog, Workload::WireSnapshot];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UserCatalog => "user-catalog",
            Workload::GroupCatalog => "group-catalog",
            Workload::WireSnapshot => "wire-snapshot",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (expected user-catalog, group-catalog or wire-snapshot)"))
    }
}

/// Catalog worlds: 2k users, 2.5k items, 500 groups at d = 32. Scoring
/// still dominates every request (milliseconds of tower work against
/// well under a millisecond of wire and queueing), and requests are
/// cheap enough that each round holds hundreds of latency samples.
const CATALOG_USERS: usize = 2_000;
const CATALOG_ITEMS: usize = 2_500;
const CATALOG_GROUPS: usize = 500;

/// Snapshot world: a 100k-user / 10k-group universe over a 16-item
/// catalog, stored as 8 i8 shards.
const SNAPSHOT_USERS: usize = 100_000;
const SNAPSHOT_ITEMS: usize = 16;
const SNAPSHOT_GROUPS: usize = 10_000;
const SNAPSHOT_SHARDS: u32 = 8;

/// A served world plus the timings of its set-up steps.
pub struct World {
    /// The model the server answers from.
    pub frozen: Arc<FrozenModel>,
    /// Whether the caches live in memory (full context, so
    /// `exclude_seen` is checkable) rather than in a snapshot behind a
    /// stub context.
    pub memory_backed: bool,
    /// For the snapshot world: the snapshot served at start and a byte
    /// copy of it that `Reload` alternates with.
    pub snapshot_dirs: Option<(PathBuf, PathBuf)>,
    /// Seconds spent computing the caches (`FrozenModel::freeze`, or
    /// the latents and member reps streamed into the snapshot).
    pub freeze_s: f64,
    /// Seconds spent inside the snapshot writer (snapshot world only).
    pub write_s: f64,
    /// Milliseconds `FrozenModel::from_snapshot` took (snapshot world).
    pub open_ms: f64,
}

/// Universe sizes of a workload's world, known before it is built (the
/// request pool is generated from these, ahead of any set-up).
pub fn universe(workload: Workload) -> (usize, usize, usize) {
    match workload {
        Workload::UserCatalog | Workload::GroupCatalog => (CATALOG_USERS, CATALOG_ITEMS, CATALOG_GROUPS),
        Workload::WireSnapshot => (SNAPSHOT_USERS, SNAPSHOT_ITEMS, SNAPSHOT_GROUPS),
    }
}

/// Every world is built from this one seed. The run seed varies the
/// requests and their arrival times, not what is served: per-request
/// cost depends on the world (group sizes, cold users), and a world
/// that changed with the seed would put its own variance into every
/// end-to-end figure.
const WORLD_SEED: u64 = 2020;

/// The paper's configuration (d = 32).
fn model_config() -> GroupSaConfig {
    let mut cfg = GroupSaConfig::paper();
    cfg.seed = WORLD_SEED;
    cfg
}

/// Builds a workload's world; snapshot files go under `work`.
pub fn build(workload: Workload, work: &Path) -> Result<World, String> {
    match workload {
        Workload::UserCatalog | Workload::GroupCatalog => Ok(catalog(WORLD_SEED)),
        Workload::WireSnapshot => snapshot(WORLD_SEED, work),
    }
}

fn catalog(seed: u64) -> World {
    let syn = SyntheticConfig {
        name: format!("servebench-catalog-{seed}"),
        seed,
        num_users: CATALOG_USERS,
        num_items: CATALOG_ITEMS,
        num_groups: CATALOG_GROUPS,
        num_topics: 12,
        latent_dim: 8,
        avg_items_per_user: 14.0,
        avg_friends_per_user: 8.0,
        avg_items_per_group: 3.0,
        mean_group_size: 4.45,
        zipf_exponent: 0.8,
        homophily: 0.45,
        social_influence: 0.15,
        expertise_sharpness: 3.5,
        taste_temperature: 0.25,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    };
    let data = generate(&syn);
    let cfg = model_config();
    let model = GroupSa::new(cfg.clone(), data.num_users, data.num_items);
    let ctx = DataContext::from_train_view(&data, &cfg);
    let started = clock::now();
    let frozen = FrozenModel::freeze(model, ctx);
    World {
        frozen: Arc::new(frozen),
        memory_backed: true,
        snapshot_dirs: None,
        freeze_s: started.elapsed().as_secs_f64(),
        write_s: 0.0,
        open_ms: 0.0,
    }
}

fn snapshot(seed: u64, work: &Path) -> Result<World, String> {
    let model = GroupSa::new(model_config(), SNAPSHOT_USERS, SNAPSHOT_ITEMS);
    let stream = StreamConfig::serving(seed, SNAPSHOT_USERS, SNAPSHOT_ITEMS, SNAPSHOT_GROUPS);
    let dir_a = work.join("snapshot-a");
    let dir_b = work.join("snapshot-b");
    for dir in [&dir_a, &dir_b] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
    }
    let meta = SnapshotMeta {
        num_users: SNAPSHOT_USERS,
        num_items: SNAPSHOT_ITEMS,
        num_groups: SNAPSHOT_GROUPS,
        dim: model.user_embedding_table().cols(),
        shards: SNAPSHOT_SHARDS,
        quant: Quant::I8,
    };
    let err = |e: groupsa_snapshot::SnapshotError| format!("snapshot write: {e}");
    let mut writer = SnapshotWriter::create(&dir_a, meta).map_err(err)?;
    let (mut compute_s, mut write_s) = (0.0, 0.0);
    for chunk in stream.user_chunks(8192) {
        for p in &chunk {
            let t0 = clock::now();
            let latent = model.user_latent_from_lists(p.user, &p.top_items, &p.top_friends);
            let t1 = clock::now();
            writer.push_user(latent.as_ref().map(|m| m.as_slice())).map_err(err)?;
            compute_s += (t1 - t0).as_secs_f64();
            write_s += t1.elapsed().as_secs_f64();
        }
    }
    let members = stream.all_group_members();
    for m in &members {
        let t0 = clock::now();
        let reps = model.member_reps_from_parts(m, None, |u| {
            let p = stream.user_profile(u);
            model.user_latent_from_lists(u, &p.top_items, &p.top_friends)
        });
        let t1 = clock::now();
        writer.push_group(&reps).map_err(err)?;
        compute_s += (t1 - t0).as_secs_f64();
        write_s += t1.elapsed().as_secs_f64();
    }
    let t0 = clock::now();
    writer.finish().map_err(err)?;
    write_s += t0.elapsed().as_secs_f64();

    let ctx = DataContext::serving_stub(SNAPSHOT_USERS, SNAPSHOT_ITEMS, members);
    let t0 = clock::now();
    let frozen = FrozenModel::from_snapshot(model, ctx, &dir_a)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    copy_dir(&dir_a, &dir_b)?;
    Ok(World {
        frozen: Arc::new(frozen),
        memory_backed: false,
        snapshot_dirs: Some((dir_a, dir_b)),
        freeze_s: compute_s,
        write_s,
        open_ms,
    })
}

/// Copies the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
