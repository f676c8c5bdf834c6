//! Fixture tests for the concurrency-discipline families (atomics
//! manifest, lock discipline, panic reachability) plus the dead-allow
//! meta-rule. Same contract as `fixtures.rs`: every rule proves it
//! fires at exact (file, line, rule) coordinates and that the allow
//! escape hatch suppresses it. These families take injectable inputs
//! (a manifest, a hierarchy, entry points), so the tests call the
//! module-level checkers directly instead of `Analyzer`.

use groupsa_lint::callgraph::{CallGraph, SourceUnit};
use groupsa_lint::{atomics, lexer, locks, reach, rules, Analyzer};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fired(out: &rules::RuleOutcome) -> Vec<(String, usize, String)> {
    out.findings.iter().map(|f| (f.file.clone(), f.line, f.rule.clone())).collect()
}

#[test]
fn atomic_manifest_and_relaxed_publish_fire_and_suppress() {
    let rel = "crates/serve/src/swap.rs"; // a PUBLISH_FIELDS file, so `current` is a publish point
    let unit = SourceUnit::build(rel, &fixture("atomics.rs"));
    let manifest: &[atomics::AtomicEntry] = &[
        (rel, "counter", "load", "Relaxed", ""),
        (rel, "current", "store", "Relaxed", "manifested, but still a relaxed publish"),
        (rel, "current", "compare_exchange", "AcqRel,Acquire", "swap CAS"),
        (rel, "ghost", "load", "SeqCst", "row for a site that no longer exists"),
    ];
    let (out, matched) =
        atomics::check_file(rel, &unit.lexed, &unit.items, manifest, atomics::PUBLISH_FIELDS);
    assert_eq!(
        fired(&out),
        vec![
            (rel.to_string(), 4, "atomic-manifest".to_string()),
            (rel.to_string(), 5, "relaxed-publish".to_string()),
        ],
        "the unmanifested fetch_add fires; the manifested Relaxed store on the \
         publish field still fires relaxed-publish"
    );
    assert_eq!(out.suppressed, 1, "the allow-suppressed store on line 7");
    assert_eq!(matched.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);

    let stale = atomics::stale_manifest_findings(manifest, &matched);
    let stale: Vec<(usize, &str)> = stale
        .iter()
        .map(|f| {
            let kind = if f.message.contains("stale") { "stale" } else { "unjustified" };
            (f.line, kind)
        })
        .collect();
    assert_eq!(
        stale,
        vec![(0, "unjustified"), (0, "stale")],
        "the empty-justification row and the unmatched ghost row both fire at line 0"
    );
}

#[test]
fn lock_order_and_blocking_fire_and_suppress() {
    let rel = "crates/serve/src/fixture.rs";
    let unit = SourceUnit::build(rel, &fixture("locks.rs"));
    let out = locks::check_file(rel, &unit.lexed, &unit.items, locks::LOCK_HIERARCHY);
    assert_eq!(
        fired(&out),
        vec![
            (rel.to_string(), 4, "lock-order".to_string()),
            (rel.to_string(), 10, "lock-across-blocking".to_string()),
        ],
        "queue-under-metrics inverts the hierarchy; send under the queue guard blocks; \
         correct_order and the post-drop send are silent"
    );
    assert_eq!(out.suppressed, 1, "the justified inversion is allow-suppressed");
}

#[test]
fn panic_reach_fires_across_files_and_suppresses() {
    let entry_rel = "crates/serve/src/engine.rs";
    let helper_rel = "crates/core/src/helper.rs";
    let units = vec![
        SourceUnit::build(entry_rel, &fixture("reach_entry.rs")),
        SourceUnit::build(helper_rel, &fixture("reach_helper.rs")),
    ];
    let graph = CallGraph::build(&units);
    let (out, used) = reach::check(&units, &graph, &[(entry_rel, "entry")], &|_| false);
    assert_eq!(
        fired(&out),
        vec![(helper_rel.to_string(), 3, "panic-reach".to_string())],
        "the unwrap in the reached helper fires; the one in `unreached` does not"
    );
    assert_eq!(out.suppressed, 1, "the justified expect is allow-suppressed");
    assert_eq!(used, vec![(1, 4)], "the suppression is recorded against the helper unit");
}

#[test]
fn panic_reach_skip_file_exempts_scoped_files() {
    let entry_rel = "crates/serve/src/engine.rs";
    let helper_rel = "crates/core/src/helper.rs";
    let units = vec![
        SourceUnit::build(entry_rel, &fixture("reach_entry.rs")),
        SourceUnit::build(helper_rel, &fixture("reach_helper.rs")),
    ];
    let graph = CallGraph::build(&units);
    let (out, _) =
        reach::check(&units, &graph, &[(entry_rel, "entry")], &|rel| rel == helper_rel);
    assert!(out.findings.is_empty(), "ALLOWED_FILES / panic-scope exemptions skip whole files");
}

#[test]
fn dead_allow_fires_on_stale_and_unknown_rules() {
    let rel = "crates/core/src/fixture.rs";
    let src = fixture("dead_allow.rs");
    let lexed = lexer::lex(&src);
    let analyzer = Analyzer::new(["groupsa-json".to_string()]);
    let rule_out = analyzer.analyze_lexed(rel, &lexed);
    assert!(rule_out.findings.is_empty(), "the live allow suppresses its float-eq");
    assert!(
        rule_out.used_allows.contains(&(3, "float-eq".to_string())),
        "the live allow is recorded as used"
    );

    let dead = rules::dead_allow_findings(rel, &lexed, &rule_out.used_allows);
    assert_eq!(
        fired(&dead),
        vec![
            (rel.to_string(), 4, "dead-allow".to_string()),
            (rel.to_string(), 5, "dead-allow".to_string()),
        ],
        "the stale float-eq allow and the unknown-rule allow fire; the live one does not"
    );
    assert_eq!(dead.suppressed, 1, "allow(dead-allow) silences the meta-rule itself");
    let msgs: Vec<&str> = dead.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs[0].contains("no longer suppresses"), "stale allows say so: {}", msgs[0]);
    assert!(msgs[1].contains("unknown rule"), "typo'd allows say so: {}", msgs[1]);
}

/// The committed workspace manifest is the audit artifact the atomics
/// family exists for: losing it (or its justifications) would silently
/// hollow out the rule, so pin that it stays populated and justified.
#[test]
fn the_committed_atomic_manifest_is_populated_and_justified() {
    assert!(
        atomics::ATOMIC_SITES.len() >= 32,
        "the workspace has ~40 distinct atomic (file, field, op, ordering) sites; \
         got {} manifest rows",
        atomics::ATOMIC_SITES.len()
    );
    for (file, field, op, ord, why) in atomics::ATOMIC_SITES {
        assert!(
            !why.trim().is_empty(),
            "manifest row ({file}, {field}, {op}, {ord}) must carry a justification"
        );
    }
}
