//! Fixture tests: every rule family proves it fires at exact
//! (file, line, rule) coordinates and that `// lint: allow(<rule>)`
//! (or `# lint: allow(cargo-dep)` in TOML) suppresses it.
//!
//! Fixture sources live under `tests/fixtures/` — a tree the workspace
//! scanner deliberately skips, since its files violate the rules on
//! purpose. Each fixture is analyzed under a synthetic workspace path
//! so the scope rules (numeric crates, serve request paths) engage.

use groupsa_lint::{Analyzer, Finding, Report};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn analyzer() -> Analyzer {
    Analyzer::new(["groupsa-json".to_string()])
}

/// Analyze `fixture_name` as though it lived at `rel_path`, returning
/// `(line, rule)` pairs plus the suppressed count.
fn run_fixture(fixture_name: &str, rel_path: &str) -> (Vec<(usize, String)>, usize) {
    let (findings, suppressed) = analyzer().analyze_source(rel_path, &fixture(fixture_name));
    for f in &findings {
        assert_eq!(f.file, rel_path, "finding carries the analyzed path");
        assert!(!f.message.is_empty(), "finding carries a message");
    }
    (findings.into_iter().map(|f| (f.line, f.rule)).collect(), suppressed)
}

#[test]
fn ambient_time_fires_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("determinism_time.rs", "crates/tensor/src/fixture.rs");
    assert_eq!(
        fired,
        vec![(4, "ambient-time".to_string()), (5, "ambient-time".to_string())]
    );
    assert_eq!(suppressed, 1, "the justified Instant::now is allow-suppressed");
}

#[test]
fn ambient_entropy_fires_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("determinism_entropy.rs", "crates/nn/src/fixture.rs");
    assert_eq!(
        fired,
        vec![(4, "ambient-entropy".to_string()), (5, "ambient-entropy".to_string())]
    );
    assert_eq!(suppressed, 1);
}

#[test]
fn hash_container_fires_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("determinism_hash.rs", "crates/data/src/fixture.rs");
    assert_eq!(
        fired,
        vec![
            (3, "hash-container".to_string()),
            (6, "hash-container".to_string()),
            (6, "hash-container".to_string()),
        ],
        "the import and both uses on the declaration line fire"
    );
    assert_eq!(suppressed, 1);
}

#[test]
fn determinism_rules_do_not_fire_outside_numeric_crates() {
    // Outside the numeric crates the `ambient-time` rule is silent;
    // clock reads there answer to `clock-scope` instead — which is
    // itself silent inside the timing modules.
    for rel in ["crates/bench/src/lib.rs", "crates/obs/src/trace.rs"] {
        let (fired, _) = run_fixture("determinism_time.rs", rel);
        assert!(fired.is_empty(), "{rel} is a timing module: {fired:?}");
    }
    for rel in ["crates/serve/src/frozen.rs", "src/lib.rs"] {
        let (fired, _) = run_fixture("determinism_time.rs", rel);
        assert!(
            fired.iter().all(|(_, rule)| rule == "clock-scope") && !fired.is_empty(),
            "{rel} clock reads fire clock-scope, never ambient-time: {fired:?}"
        );
    }
}

#[test]
fn clock_scope_fires_outside_timing_modules_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("clock_scope.rs", "crates/serve/src/frozen.rs");
    assert_eq!(
        fired,
        vec![
            (4, "clock-scope".to_string()),
            (5, "clock-scope".to_string()),
            (6, "clock-scope".to_string()),
        ],
        "Instant::now, SystemTime, and UNIX_EPOCH all fire"
    );
    assert_eq!(suppressed, 1, "the justified banner timestamp is allow-suppressed");

    // The same file analyzes clean anywhere inside the timing modules,
    // whether matched by an exact entry or a directory prefix.
    for rel in [
        "crates/serve/src/engine.rs",
        "crates/serve/src/admission.rs",
        "crates/obs/src/telemetry.rs",
        "crates/bench/src/bin/serve_bench.rs",
        "crates/bench/src/harness.rs",
    ] {
        assert!(groupsa_lint::in_clock_scope(rel), "{rel} must be a timing module");
        let (fired, _) = run_fixture("clock_scope.rs", rel);
        assert!(fired.is_empty(), "{rel} may read clocks: {fired:?}");
    }

    // In a numeric crate the same reads are `ambient-time` findings —
    // the two rules partition the workspace instead of overlapping.
    let (fired, _) = run_fixture("clock_scope.rs", "crates/core/src/fixture.rs");
    assert!(!fired.is_empty());
    assert!(
        fired.iter().all(|(_, rule)| rule == "ambient-time"),
        "numeric crates answer to ambient-time, not clock-scope: {fired:?}"
    );
}

#[test]
fn panic_path_fires_and_both_escapes_suppress() {
    let (fired, suppressed) = run_fixture("panic_path.rs", "crates/serve/src/protocol.rs");
    assert_eq!(
        fired,
        vec![
            (4, "panic-path".to_string()),
            (5, "panic-path".to_string()),
            (7, "panic-path".to_string()),
            (9, "panic-path".to_string()),
        ],
        "unwrap, expect, panic!, and bare indexing all fire"
    );
    // The `// bounds:` indexing justification does not count as a
    // suppression (the check simply accepts it); only the allow-comment
    // unwrap does.
    assert_eq!(suppressed, 1);
}

#[test]
fn panic_path_scope_covers_bench_binary_via_recorded_allowlist() {
    // The kernel-bench binary is *in* the panic-safety scope — the same
    // fixture that fires four findings at a serve path analyzes clean
    // there only because of its recorded ALLOWED_FILES entry, not
    // because the file is silently outside the scope.
    let bench = "crates/bench/src/bin/kernel_bench.rs";
    assert!(
        groupsa_lint::PANIC_SCOPES.contains(&bench),
        "bench binary must be an explicit member of the panic scope"
    );
    let (rule, path, why) = groupsa_lint::ALLOWED_FILES
        .iter()
        .find(|(r, p, _)| *r == "panic-path" && *p == bench)
        .expect("bench binary carries a panic-path allowlist entry");
    assert_eq!((*rule, *path), ("panic-path", bench));
    assert!(!why.is_empty(), "allowlist entries must record a justification");

    let (fired, _) = run_fixture("panic_path.rs", bench);
    assert!(fired.is_empty(), "allowlisted file analyzes clean: {fired:?}");

    // An unlisted bench file stays out of scope entirely (nothing to
    // fire), so the allowlist entry is load-bearing only for files
    // that are also in PANIC_SCOPES.
    let (fired, _) = run_fixture("panic_path.rs", "crates/bench/src/bin/other.rs");
    assert!(fired.is_empty());
}

#[test]
fn hermeticity_fires_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("hermetic_use.rs", "crates/graph/src/fixture.rs");
    assert_eq!(
        fired,
        vec![(3, "extern-crate".to_string()), (4, "foreign-use".to_string())]
    );
    assert_eq!(suppressed, 1, "the allow-commented foreign root is suppressed");
}

#[test]
fn float_eq_fires_and_allow_suppresses() {
    let (fired, suppressed) = run_fixture("float_eq.rs", "crates/core/src/fixture.rs");
    assert_eq!(fired, vec![(4, "float-eq".to_string()), (7, "float-eq".to_string())]);
    assert_eq!(suppressed, 1);
}

#[test]
fn cargo_dep_fires_and_allow_suppresses() {
    let text = fixture("bad_manifest/Cargo.toml");
    let (findings, suppressed) = groupsa_lint::manifest::check_manifest(
        "bad_manifest/Cargo.toml",
        &text,
        &fixture_dir(),
        &BTreeSet::new(),
    );
    let fired: Vec<(usize, String)> = findings.iter().map(|f| (f.line, f.rule.clone())).collect();
    assert_eq!(
        fired,
        vec![
            (6, "cargo-dep".to_string()),
            (7, "cargo-dep".to_string()),
            (8, "cargo-dep".to_string()),
        ],
        "registry version, dangling path, and unknown workspace key all fire"
    );
    assert_eq!(suppressed, 1);
}

/// The report schema contract `scripts/tier1.sh` relies on: the JSON
/// written to `results/lint_report.json` must re-parse through the
/// typed schema with version, counts, and per-finding fields intact.
#[test]
fn json_report_schema_is_valid_and_roundtrips() {
    let (findings, suppressed) =
        analyzer().analyze_source("crates/core/src/fixture.rs", &fixture("float_eq.rs"));
    let report = Report::new(1, suppressed, findings).with_timings(vec![
        groupsa_lint::PassTiming { pass: "rules".to_string(), micros: 1234 },
    ]);
    let text = report.to_json_string();

    // Well-formed JSON with the documented top-level fields.
    let doc = groupsa_json::Json::parse(&text).expect("report is well-formed JSON");
    assert_eq!(doc.get("version").and_then(groupsa_json::Json::as_f64), Some(2.0));
    assert!(doc.get("files_scanned").is_some());
    assert!(doc.get("suppressed").is_some());
    let timings = doc.get("timings").and_then(groupsa_json::Json::as_array).unwrap();
    assert_eq!(timings.len(), 1, "v2 reports carry per-pass timings");
    assert_eq!(timings[0].get("pass").and_then(groupsa_json::Json::as_str), Some("rules"));
    let findings = doc.get("findings").and_then(groupsa_json::Json::as_array).unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert!(f.get("file").and_then(groupsa_json::Json::as_str).is_some());
        assert!(f.get("line").and_then(groupsa_json::Json::as_f64).is_some());
        assert!(f.get("rule").and_then(groupsa_json::Json::as_str).is_some());
        assert!(f.get("message").and_then(groupsa_json::Json::as_str).is_some());
    }

    // And the typed roundtrip reproduces the report exactly.
    let back: Report = groupsa_json::from_str(&text).unwrap();
    assert_eq!(back, report);
}

/// Serialized findings order is (file, line, rule) regardless of the
/// order rules produced them — report bytes are deterministic.
#[test]
fn report_orders_findings_deterministically() {
    let mk = |file: &str, line: usize| Finding {
        file: file.to_string(),
        line,
        rule: "float-eq".to_string(),
        message: "m".to_string(),
    };
    let a = Report::new(2, 0, vec![mk("z.rs", 1), mk("a.rs", 9), mk("a.rs", 2)]);
    let b = Report::new(2, 0, vec![mk("a.rs", 2), mk("z.rs", 1), mk("a.rs", 9)]);
    assert_eq!(a.to_json_string(), b.to_json_string());
}
