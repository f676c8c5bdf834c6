//! Format-drift detection: a fresh write of the shared fixture must be
//! byte-identical to the committed golden tree under
//! `results/golden_snapshot/` (one subdirectory per row encoding), and
//! the committed tree must open and checksum clean.
//!
//! A byte-layout change must bump `FORMAT_VERSION` and regenerate the
//! tree in the same change (DESIGN.md §13). On a mismatch the failure
//! names the temp directory holding the fresh write and keeps it, so
//! regenerating means copying that directory over the committed one.

mod common;

use common::*;
use groupsa_snapshot::{shard_name, Quant, Snapshot, MANIFEST_NAME};
use std::path::Path;

const SHARDS: u32 = 2;

#[test]
fn fresh_writes_match_the_committed_golden_tree() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_snapshot");
    for quant in [Quant::F32, Quant::F16, Quant::I8] {
        let committed = golden.join(quant.name());
        let fresh = fresh_dir(&format!("golden-{}", quant.name()));
        write_fixture(&fresh, SHARDS, quant);
        let names = std::iter::once(MANIFEST_NAME.to_string()).chain((0..SHARDS).map(shard_name));
        for name in names {
            let want = std::fs::read(fresh.join(&name)).expect("read the fresh write");
            let got = std::fs::read(committed.join(&name))
                .unwrap_or_else(|e| panic!("read committed {}/{name}: {e}", quant.name()));
            assert!(
                want == got,
                "format drift: {}/{name} differs from a fresh write ({} vs {} bytes). If the \
                 change is intentional, bump FORMAT_VERSION and copy {} over {}",
                quant.name(),
                got.len(),
                want.len(),
                fresh.display(),
                committed.display(),
            );
        }
        let snap = Snapshot::open(&committed).expect("the committed tree opens");
        snap.verify().expect("the committed tree checksums clean");
        assert_eq!(snap.meta().num_users, NUM_USERS);
        assert_eq!(snap.meta().dim, DIM);
    }
}
