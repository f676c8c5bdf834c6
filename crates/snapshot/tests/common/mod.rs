//! Shared fixtures for the snapshot integration tests: a small
//! deterministic table set and a writer helper.

use groupsa_snapshot::{Quant, SnapshotMeta, SnapshotWriter};
use groupsa_tensor::Matrix;
use std::path::{Path, PathBuf};

pub const NUM_USERS: usize = 23;
pub const NUM_ITEMS: usize = 17;
pub const NUM_GROUPS: usize = 6;
pub const DIM: usize = 8;

/// A scratch directory under the temp dir, removed when dropped —
/// unless the test is panicking, so a failure leaves its files for
/// inspection.
pub struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A unique scratch directory per test (not yet created), emptied
/// first so reruns start clean.
pub fn fresh_dir(tag: &str) -> ScratchDir {
    let dir = std::env::temp_dir().join(format!("groupsa-snapshot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}

/// Deterministic pseudo-table value: varied sign/magnitude, no RNG so
/// every process computes identical bits.
pub fn value(seed: usize, row: usize, col: usize) -> f32 {
    let x = (seed.wrapping_mul(31) + row.wrapping_mul(131) + col.wrapping_mul(7)) % 29;
    (x as f32) * 0.173 - 2.4
}

/// User latents: every 5th user is `None` (cold / ablated).
pub fn user_latents() -> Vec<Option<Matrix>> {
    (0..NUM_USERS)
        .map(|u| {
            if u % 5 == 4 {
                None
            } else {
                Some(Matrix::from_vec(1, DIM, (0..DIM).map(|k| value(1, u, k)).collect()))
            }
        })
        .collect()
}

/// Group reps with varying member counts, including an empty group.
pub fn group_reps() -> Vec<Matrix> {
    (0..NUM_GROUPS)
        .map(|g| {
            let rows = g % 4; // group 0 and 4 are empty
            let data = (0..rows * DIM).map(|i| value(2, g, i)).collect();
            Matrix::from_vec(rows, DIM, data)
        })
        .collect()
}

/// Writes the fixture tables as a snapshot; returns the snapshot id.
pub fn write_fixture(dir: &std::path::Path, shards: u32, quant: Quant) -> u64 {
    let meta = SnapshotMeta {
        num_users: NUM_USERS,
        num_items: NUM_ITEMS,
        num_groups: NUM_GROUPS,
        dim: DIM,
        shards,
        quant,
    };
    let mut w = SnapshotWriter::create(dir, meta).expect("create writer");
    for latent in user_latents() {
        w.push_user(latent.as_ref().map(|m| m.as_slice())).expect("push user");
    }
    for reps in group_reps() {
        w.push_group(&reps).expect("push group");
    }
    w.finish().expect("finish snapshot")
}
