//! Corrupt-snapshot rejection: every damage mode maps to a *typed*
//! [`SnapshotError`] — the serve path must degrade to an error
//! response, never panic. Damage that the lazy open intentionally does
//! not scan for (slab bit rot) is caught by the opt-in `verify()`.

mod common;

use common::*;
use groupsa_snapshot::{Quant, Snapshot, SnapshotError, MANIFEST_NAME};
use std::path::Path;

fn written(tag: &str) -> ScratchDir {
    let dir = fresh_dir(tag);
    write_fixture(&dir, 2, Quant::F32);
    dir
}

/// Patches `file` at `offset` with `bytes`.
fn patch(file: &Path, offset: u64, bytes: &[u8]) {
    let mut data = std::fs::read(file).expect("read");
    data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
    std::fs::write(file, data).expect("write");
}

/// Rewrites the manifest body at `offset` and fixes up the trailing
/// checksum, so the damage under test is reached instead of the
/// checksum guard.
fn patch_manifest_rechecksum(dir: &Path, offset: usize, bytes: &[u8]) {
    let path = dir.join(MANIFEST_NAME);
    let mut data = std::fs::read(&path).expect("read manifest");
    let body_len = data.len() - 8;
    data[offset..offset + bytes.len()].copy_from_slice(bytes);
    let sum = groupsa_snapshot::fnv64(&data[..body_len]);
    data[body_len..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, data).expect("write manifest");
}

#[test]
fn manifest_bad_magic_is_rejected() {
    let dir = written("bad-magic");
    patch_manifest_rechecksum(&dir, 0, b"NOTSNAP\0");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::BadMagic { what: "manifest" })));
}

#[test]
fn manifest_future_version_is_rejected() {
    let dir = written("bad-version");
    // version field sits right after the 8-byte magic
    patch_manifest_rechecksum(&dir, 8, &99u32.to_le_bytes());
    assert!(matches!(
        Snapshot::open(&dir),
        Err(SnapshotError::UnsupportedVersion { found: 99 })
    ));
}

#[test]
fn manifest_bit_flip_fails_the_trailing_checksum() {
    let dir = written("bit-flip");
    let path = dir.join(MANIFEST_NAME);
    let data = std::fs::read(&path).expect("read");
    // Flip one bit in the middle of the body (presence bitmap area).
    let mid = data.len() / 2;
    patch(&path, mid as u64, &[data[mid] ^ 0x10]);
    assert!(matches!(
        Snapshot::open(&dir),
        Err(SnapshotError::ChecksumMismatch { section }) if section == "manifest"
    ));
}

#[test]
fn truncated_manifest_is_rejected() {
    let dir = written("trunc-manifest");
    let path = dir.join(MANIFEST_NAME);
    let data = std::fs::read(&path).expect("read");
    std::fs::write(&path, &data[..data.len() / 2]).expect("truncate");
    // Cutting the body invalidates the trailing checksum (or leaves
    // too few bytes) — either way a typed error, never a panic.
    assert!(matches!(
        Snapshot::open(&dir),
        Err(SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. })
    ));
}

#[test]
fn truncated_shard_slab_is_caught_at_open() {
    let dir = written("trunc-shard");
    let shard = dir.join(groupsa_snapshot::shard_name(1));
    let data = std::fs::read(&shard).expect("read shard");
    std::fs::write(&shard, &data[..data.len() - 7]).expect("truncate shard");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::Truncated { .. })));
}

#[test]
fn shard_bad_magic_is_rejected() {
    let dir = written("shard-magic");
    patch(&dir.join(groupsa_snapshot::shard_name(0)), 0, b"XXXXXXXX");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::BadMagic { what: "shard" })));
}

#[test]
fn shard_version_mismatch_is_rejected() {
    let dir = written("shard-version");
    patch(&dir.join(groupsa_snapshot::shard_name(0)), 8, &7u32.to_le_bytes());
    assert!(matches!(
        Snapshot::open(&dir),
        Err(SnapshotError::UnsupportedVersion { found: 7 })
    ));
}

#[test]
fn swapped_shard_files_are_rejected() {
    let dir = written("shard-swap");
    // Shard 1 claims index 1 in its header; rename it over shard 0.
    std::fs::copy(dir.join(groupsa_snapshot::shard_name(1)), dir.join(groupsa_snapshot::shard_name(0)))
        .expect("copy shard");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::ShardMismatch { index: 0, .. })));
}

#[test]
fn shard_from_another_snapshot_is_rejected() {
    let dir_a = written("foreign-a");
    // Same universe, different content → different snapshot id.
    let dir_b = fresh_dir("foreign-b");
    {
        use groupsa_snapshot::{SnapshotMeta, SnapshotWriter};
        let meta = SnapshotMeta {
            num_users: NUM_USERS,
            num_items: NUM_ITEMS,
            num_groups: NUM_GROUPS,
            dim: DIM,
            shards: 2,
            quant: Quant::F32,
        };
        let mut w = SnapshotWriter::create(&dir_b, meta).expect("create");
        for u in 0..NUM_USERS {
            let row: Vec<f32> = (0..DIM).map(|k| value(9, u, k)).collect();
            w.push_user(Some(&row)).expect("push user");
        }
        for reps in group_reps() {
            w.push_group(&reps).expect("push group");
        }
        w.finish().expect("finish");
    }
    std::fs::copy(dir_b.join(groupsa_snapshot::shard_name(0)), dir_a.join(groupsa_snapshot::shard_name(0)))
        .expect("transplant shard");
    assert!(matches!(Snapshot::open(&dir_a), Err(SnapshotError::ShardMismatch { .. })));
}

#[test]
fn missing_files_are_io_errors() {
    let dir = written("missing-shard");
    std::fs::remove_file(dir.join(groupsa_snapshot::shard_name(1))).expect("remove");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::Io { .. })));

    let dir = fresh_dir("missing-manifest");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert!(matches!(Snapshot::open(&dir), Err(SnapshotError::Io { .. })));
}

#[test]
fn slab_bit_rot_passes_lazy_open_but_fails_verify() {
    let dir = written("slab-rot");
    let shard = dir.join(groupsa_snapshot::shard_name(0));
    let len = std::fs::metadata(&shard).expect("stat").len();
    // Flip a bit well inside the slab (past the 24-byte header).
    patch(&shard, len - 3, &[0xFF]);
    let snap = Snapshot::open(&dir).expect("lazy open does not scan slabs");
    assert!(matches!(snap.verify(), Err(SnapshotError::ChecksumMismatch { .. })));
}

#[test]
fn out_of_range_reads_are_typed() {
    let dir = written("oob");
    let snap = Snapshot::open(&dir).expect("open");
    assert!(matches!(
        snap.user_latent(NUM_USERS),
        Err(SnapshotError::OutOfRange { entity: "user", .. })
    ));
    assert!(matches!(
        snap.group_rep(NUM_GROUPS),
        Err(SnapshotError::OutOfRange { entity: "group", .. })
    ));
}

#[test]
fn errors_render_useful_messages() {
    let dir = written("display");
    patch_manifest_rechecksum(&dir, 8, &42u32.to_le_bytes());
    let err = Snapshot::open(&dir).expect_err("must fail");
    let msg = err.to_string();
    assert!(msg.contains("42"), "message should name the version: {msg}");
}
