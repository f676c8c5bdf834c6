//! Result persistence and paper-style table rendering.

use groupsa_eval::Leaderboard;
use groupsa_json::ToJson;
use std::io;
use std::path::{Path, PathBuf};

/// Directory (relative to the workspace root / current dir) where
/// experiment binaries drop their JSON artifacts.
pub const RESULTS_DIR: &str = "results";

/// Ensures `results/` exists and returns the path for `name.json`.
pub fn results_path(name: &str) -> io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    Ok(dir.join(format!("{name}.json")))
}

/// Serialises any result payload to `results/<name>.json` (pretty).
pub fn save_json<T: ToJson>(name: &str, payload: &T) -> io::Result<PathBuf> {
    let path = results_path(name)?;
    let json = groupsa_json::to_string_pretty(payload);
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Schema version stamped into versioned bench reports (`train_bench`,
/// `serve_bench_snapshot`, `quant_eval`) — the same contract
/// `BENCH_kernels.json` uses. Bump it whenever a report's field set or
/// meaning changes.
pub const RESULT_SCHEMA_VERSION: u64 = 1;

/// Validates the `schema_version` of an existing `results/<name>.json`
/// before a bench overwrites it: a file written by a *newer* (or
/// otherwise different) schema is refused instead of silently
/// clobbered, so committed results and the binaries that read them
/// cannot drift apart unnoticed. Unversioned or unparsable files only
/// warn — they predate versioning and the rewrite upgrades them.
pub fn check_schema(name: &str, expected: u64) -> Result<(), String> {
    check_schema_file(&Path::new(RESULTS_DIR).join(format!("{name}.json")), expected)
}

/// [`check_schema`] against an explicit path.
pub fn check_schema_file(path: &Path, expected: u64) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(()); // nothing on disk yet
    };
    match groupsa_json::Json::parse(&text) {
        Ok(json) => match json.get("schema_version").and_then(|v| v.as_f64()) {
            Some(v) if v as u64 == expected => Ok(()),
            Some(v) => Err(format!(
                "{} has schema v{}, this binary writes v{expected} — delete or re-baseline it first",
                path.display(),
                v as u64
            )),
            None => {
                eprintln!("[warn] {} predates schema versioning; rewriting as v{expected}", path.display());
                Ok(())
            }
        },
        Err(e) => {
            eprintln!("[warn] {} is not valid JSON ({e}); rewriting as v{expected}", path.display());
            Ok(())
        }
    }
}

/// Prints a leaderboard with a separating banner, and persists it.
pub fn emit(name: &str, lb: &Leaderboard) {
    println!("==================================================================");
    println!("{lb}");
    match save_json(name, lb) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn] could not save {name}: {e}"),
    }
}

/// Formats a `(K, HR, NDCG)` triple list compactly, e.g. for sweep
/// tables (Tables VI–IX).
pub fn fmt_per_k(per_k: &[(usize, f64, f64)]) -> String {
    per_k
        .iter()
        .map(|&(k, hr, ndcg)| format!("HR@{k}={hr:.4} NDCG@{k}={ndcg:.4}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_per_k_renders_all_cutoffs() {
        let s = fmt_per_k(&[(5, 0.8339, 0.6886), (10, 0.9257, 0.7186)]);
        assert!(s.contains("HR@5=0.8339"));
        assert!(s.contains("NDCG@10=0.7186"));
    }

    #[test]
    fn check_schema_accepts_matching_and_rejects_mismatched() {
        let dir = std::env::temp_dir().join(format!("groupsa-bench-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        // Missing file: fine.
        let _ = std::fs::remove_file(&path);
        assert!(check_schema_file(&path, 1).is_ok());
        // Matching version: fine.
        std::fs::write(&path, "{\"schema_version\": 1, \"runs\": []}").unwrap();
        assert!(check_schema_file(&path, 1).is_ok());
        // Mismatched version: refused.
        let err = check_schema_file(&path, 2).unwrap_err();
        assert!(err.contains("schema v1"), "{err}");
        // Unversioned legacy file: warns but proceeds.
        std::fs::write(&path, "{\"runs\": []}").unwrap();
        assert!(check_schema_file(&path, 1).is_ok());
        // Garbage: warns but proceeds (it will be rewritten).
        std::fs::write(&path, "not json").unwrap();
        assert!(check_schema_file(&path, 1).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_json_roundtrips() {
        let dir = std::env::temp_dir().join(format!("groupsa-bench-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let path = save_json("unit", &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(old).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains('1') && text.contains('3'));
    }
}
