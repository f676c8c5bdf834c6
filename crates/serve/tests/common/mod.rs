//! Shared fixtures for the serve integration tests: scratch
//! directories that clean up after themselves.

use std::path::{Path, PathBuf};

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
    let dir = std::env::temp_dir().join(format!("groupsa-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}
