//! The rule engine: scope configuration plus the token-stream walks
//! that produce findings.
//!
//! ## Rule catalogue
//!
//! | rule | family | scope | fires on |
//! |------|--------|-------|----------|
//! | `ambient-time` | determinism | numeric crates | `Instant::now`, `SystemTime`, `UNIX_EPOCH` |
//! | `clock-scope` | determinism | whole workspace minus timing modules | `Instant::now`, `SystemTime`, `UNIX_EPOCH` outside [`CLOCK_SCOPES`] |
//! | `ambient-entropy` | determinism | numeric crates | `thread_rng`, `from_entropy`, `OsRng` |
//! | `hash-container` | determinism | numeric crates | any `HashMap` / `HashSet` use |
//! | `panic-path` | panic-safety | serve request paths + kernel bench (allowlisted) | `.unwrap()`, `.expect()`, `panic!`-family macros, indexing without a `// bounds:` comment |
//! | `float-eq` | float hygiene | numeric crates | `==` / `!=` against a float literal |
//! | `extern-crate` | hermeticity | whole workspace | any `extern crate` item |
//! | `foreign-use` | hermeticity | whole workspace | a `use` root outside std/core/alloc and the workspace |
//! | `cargo-dep` | hermeticity | every `Cargo.toml` | a dependency that is not an in-tree path (see [`crate::manifest`]) |
//!
//! Code inside `#[cfg(test)]` regions and under `tests/` directories is
//! exempt from the determinism, panic-safety, and float-hygiene
//! families (tests may hash, unwrap, and compare exactly); the
//! hermeticity family applies everywhere — tests must build offline
//! too.
//!
//! Every rule honours the `// lint: allow(<rule>)` escape hatch parsed
//! by the lexer. The determinism and panic-safety families additionally
//! have a per-rule file allowlist ([`ALLOWED_FILES`]) for files whose
//! entire purpose is the exempted behaviour (e.g. wall-clock timing for
//! tracing, or a bench harness whose asserts are its error handling).

use crate::items::TestRegionTracker;
use crate::lexer::{lex, number_is_float, LexedFile, Token, TokenKind};
use crate::report::Finding;
use std::collections::BTreeSet;

/// Every rule identifier the engine knows, in stable order.
pub const RULES: &[&str] = &[
    "ambient-time",
    "clock-scope",
    "ambient-entropy",
    "hash-container",
    "panic-path",
    "panic-reach",
    "float-eq",
    "extern-crate",
    "foreign-use",
    "cargo-dep",
    "atomic-manifest",
    "relaxed-publish",
    "lock-order",
    "lock-across-blocking",
    "dead-allow",
];

/// A path scope: exact workspace-relative entries plus `/`-suffixed
/// directory prefixes. One shared matcher replaces the three
/// copy-pasted closures that previously implemented [`PANIC_SCOPES`],
/// [`CLOCK_SCOPES`], and [`ALLOWED_FILES`] path tests — same
/// semantics, one place to get them right.
#[derive(Debug)]
pub struct ScopeSpec {
    /// What the scope governs, for diagnostics.
    pub name: &'static str,
    /// Exact paths, or directory prefixes when ending in `/`.
    pub entries: &'static [&'static str],
}

impl ScopeSpec {
    /// A scope over `entries` (see [`path_matches`] for entry
    /// semantics).
    pub const fn new(name: &'static str, entries: &'static [&'static str]) -> Self {
        Self { name, entries }
    }

    /// Whether `rel_path` falls inside this scope.
    pub fn contains(&self, rel_path: &str) -> bool {
        self.entries.iter().any(|e| path_matches(e, rel_path))
    }
}

/// Whether one scope entry covers `rel_path`: an entry ending in `/`
/// is a directory prefix; any other entry must match exactly.
pub fn path_matches(entry: &str, rel_path: &str) -> bool {
    if entry.ends_with('/') {
        rel_path.starts_with(entry)
    } else {
        rel_path == entry
    }
}

/// What one rule pass produced for one file: kept findings, the
/// suppression count, and which `(line, rule)` suppressions actually
/// fired — the dead-allow rule's evidence that an allow comment is
/// still alive.
#[derive(Debug, Default)]
pub struct RuleOutcome {
    /// Non-suppressed findings.
    pub findings: Vec<Finding>,
    /// Findings suppressed by allow comments.
    pub suppressed: usize,
    /// The `(line, rule)` of each suppression that fired.
    pub used_allows: Vec<(usize, String)>,
}

impl RuleOutcome {
    /// Reports one violation, routing it through `lexed`'s
    /// allow-comment check.
    pub fn report(&mut self, rel: &str, lexed: &LexedFile, rule: &str, line: usize, message: &str) {
        if lexed.is_allowed(line, rule) {
            self.suppressed += 1;
            self.used_allows.push((line, rule.to_string()));
        } else {
            self.findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: rule.to_string(),
                message: message.to_string(),
            });
        }
    }

    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: RuleOutcome) {
        self.findings.extend(other.findings);
        self.suppressed += other.suppressed;
        self.used_allows.extend(other.used_allows);
    }
}

/// Crates whose numerics must be deterministic: the determinism and
/// float-hygiene families apply to files under these prefixes.
pub const NUMERIC_SCOPES: &[&str] =
    &["crates/tensor/src/", "crates/nn/src/", "crates/core/src/", "crates/data/src/"];

/// Serve request-path files where the panic-safety family applies:
/// everything a request touches between the TCP read and the reply
/// must use typed errors, never panic. An entry ending in `/` is a
/// directory prefix covering every file beneath it; other entries
/// match exactly. The whole snapshot crate is in scope — corrupt or
/// truncated snapshot bytes must surface as typed [`SnapshotError`]s,
/// never as panics, on the serving path. The kernel-bench binary is
/// in scope too — it drives the same request-path code — but carries
/// a recorded [`ALLOWED_FILES`] exemption rather than being silently
/// out of scope.
pub const PANIC_SCOPES: &[&str] = &[
    "crates/bench/src/bin/kernel_bench.rs",
    "crates/serve/src/admission.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/swap.rs",
    "crates/snapshot/src/",
];

/// [`PANIC_SCOPES`] as a [`ScopeSpec`].
pub static PANIC_SCOPE: ScopeSpec = ScopeSpec::new("panic-path", PANIC_SCOPES);

/// Whether `rel_path` falls under the panic-safety scope: an exact
/// [`PANIC_SCOPES`] entry, or any entry ending in `/` that prefixes it.
pub fn in_panic_scope(rel_path: &str) -> bool {
    PANIC_SCOPE.contains(rel_path)
}

/// The timing modules: the only non-test files allowed to read ambient
/// clocks (`Instant::now`, `SystemTime`, `UNIX_EPOCH`). Same entry
/// semantics as [`PANIC_SCOPES`]: a trailing `/` is a directory prefix,
/// anything else matches exactly. Everything outside this list answers
/// to the `clock-scope` rule — a clock read that creeps into, say, the
/// frozen-model scorer or the snapshot reader is a determinism bug
/// waiting to happen, and must either move its timing into one of
/// these modules or record a justification.
///
/// Numeric crates ([`NUMERIC_SCOPES`]) are deliberately *not* listed:
/// there the stricter `ambient-time` rule governs (with its own
/// recorded exemptions, e.g. `train.rs`), and `clock-scope` stays
/// silent so one clock read never fires two rules.
pub const CLOCK_SCOPES: &[&str] = &[
    // Benchmarks and their timing harness exist to measure wall-clock time.
    "crates/bench/src/",
    // Tracing, telemetry records, sliding windows: the clock's home.
    "crates/obs/src/",
    // Token-bucket refill and predicted-wait shedding are time-based.
    "crates/serve/src/admission.rs",
    // Queue-wait / score-stage / deadline timing on the request path.
    "crates/serve/src/engine.rs",
    // Stage histograms and window plumbing own per-stage durations.
    "crates/serve/src/metrics.rs",
    // The connection writer times serialize-and-write per response.
    "crates/serve/src/server.rs",
    // The lint driver times its own rule passes for the report.
    "crates/lint/src/lib.rs",
];

/// [`CLOCK_SCOPES`] as a [`ScopeSpec`].
pub static CLOCK_SCOPE: ScopeSpec = ScopeSpec::new("clock-scope", CLOCK_SCOPES);

/// Whether `rel_path` is a timing module where ambient clock reads are
/// legitimate (exact [`CLOCK_SCOPES`] entry, or a `/`-suffixed prefix).
pub fn in_clock_scope(rel_path: &str) -> bool {
    CLOCK_SCOPE.contains(rel_path)
}

/// Per-rule file allowlist: `(rule, workspace-relative path, why)`.
/// An entry exempts the whole file from that one rule; the
/// justification is part of the record on purpose — an allowlist entry
/// without a reason is a smell.
pub const ALLOWED_FILES: &[(&str, &str, &str)] = &[
    (
        "ambient-time",
        "crates/core/src/train.rs",
        "wall-clock timing feeds tracing/metrics only; the digest zeroes every wall-clock field",
    ),
    (
        "panic-path",
        "crates/bench/src/bin/kernel_bench.rs",
        "a measurement harness must fail loudly on any setup/shape error; asserts are its error handling",
    ),
    (
        "clock-scope",
        "examples/fast_vs_full.rs",
        "a fast-vs-full latency comparison demo; wall-clock timing is the example's entire point",
    ),
    (
        "panic-reach",
        "crates/compat/json/src/parse.rs",
        "every parser `.expect()` is peek-guarded (the cursor was just checked non-empty); \
         a malformed request still returns Err through Json::parse, never a panic",
    ),
];

/// Scope/identity context for one analyzer run.
#[derive(Debug)]
pub struct Analyzer {
    /// Underscored package names of every workspace crate — the `use`
    /// roots that count as in-tree for the `foreign-use` rule.
    pub workspace_roots: BTreeSet<String>,
}

/// `use` roots that are always legitimate besides workspace crates.
const STD_ROOTS: &[&str] = &["std", "core", "alloc", "crate", "self", "super"];

impl Analyzer {
    /// An analyzer that treats `package_names` (dash or underscore
    /// form) as in-tree `use` roots.
    pub fn new(package_names: impl IntoIterator<Item = String>) -> Self {
        let workspace_roots =
            package_names.into_iter().map(|n| n.replace('-', "_")).collect();
        Self { workspace_roots }
    }

    /// Analyzes one `.rs` file. `rel_path` decides which scopes apply;
    /// returns the kept findings and the number suppressed by allow
    /// comments or the file allowlist.
    pub fn analyze_source(&self, rel_path: &str, source: &str) -> (Vec<Finding>, usize) {
        let lexed = lex(source);
        let out = self.analyze_lexed(rel_path, &lexed);
        (out.findings, out.suppressed)
    }

    /// The core rule walk over an already-lexed file (so the driver
    /// lexes once and shares the tokens with the item-graph passes).
    pub fn analyze_lexed(&self, rel_path: &str, lexed: &LexedFile) -> RuleOutcome {
        let in_tests_dir = rel_path.contains("/tests/") || rel_path.starts_with("tests/");
        let numeric = !in_tests_dir && NUMERIC_SCOPES.iter().any(|p| rel_path.starts_with(p));
        let panic_scope = !in_tests_dir
            && in_panic_scope(rel_path)
            && !self.file_allowed("panic-path", rel_path);
        // Clock confinement applies to every non-test file that is
        // neither a timing module nor a numeric crate (where the
        // stricter `ambient-time` rule already owns clock reads).
        let clock_confined = !in_tests_dir
            && !NUMERIC_SCOPES.iter().any(|p| rel_path.starts_with(p))
            && !in_clock_scope(rel_path)
            && !self.file_allowed("clock-scope", rel_path);

        let mut sink = Sink { rel_path, lexed, out: RuleOutcome::default() };
        let toks = &lexed.tokens;
        let mut test_region = TestRegionTracker::default();

        // Modules declared in this file: with 2018 uniform paths,
        // `use sibling::X` is a legitimate local root when `mod
        // sibling;` appears alongside it (the `pub use module::…`
        // re-export pattern every crate root here uses).
        let local_mods: BTreeSet<&str> = toks
            .windows(2)
            .filter(|w| {
                w[0].kind == TokenKind::Ident
                    && w[0].text == "mod"
                    && w[1].kind == TokenKind::Ident
            })
            .map(|w| w[1].text.as_str())
            .collect();

        for i in 0..toks.len() {
            let in_test = test_region.observe(toks, i);
            let t = &toks[i];

            // Hermeticity: applies everywhere, tests included.
            if t.kind == TokenKind::Ident && t.text == "extern" && ident_at(toks, i + 1, "crate")
            {
                sink.report(
                    "extern-crate",
                    t.line,
                    "`extern crate` bypasses the manifest; declare an in-tree dependency instead",
                );
            }
            if t.kind == TokenKind::Ident && t.text == "use" {
                if let Some(root) = use_root(toks, i) {
                    if !STD_ROOTS.contains(&root.text.as_str())
                        && !self.workspace_roots.contains(&root.text)
                        && !local_mods.contains(root.text.as_str())
                    {
                        sink.report(
                            "foreign-use",
                            root.line,
                            &format!(
                                "`use {}…` names a root outside std and this workspace",
                                root.text
                            ),
                        );
                    }
                }
            }

            if in_test {
                continue;
            }

            if numeric && !self.file_allowed("ambient-time", rel_path) {
                if t.kind == TokenKind::Ident
                    && t.text == "Instant"
                    && punct_at(toks, i + 1, "::")
                    && ident_at(toks, i + 2, "now")
                {
                    sink.report(
                        "ambient-time",
                        t.line,
                        "`Instant::now()` reads ambient wall-clock time in a deterministic numeric crate",
                    );
                }
                if t.kind == TokenKind::Ident && (t.text == "SystemTime" || t.text == "UNIX_EPOCH")
                {
                    sink.report(
                        "ambient-time",
                        t.line,
                        &format!("`{}` reads ambient wall-clock time in a deterministic numeric crate", t.text),
                    );
                }
            }
            if clock_confined {
                if t.kind == TokenKind::Ident
                    && t.text == "Instant"
                    && punct_at(toks, i + 1, "::")
                    && ident_at(toks, i + 2, "now")
                {
                    sink.report(
                        "clock-scope",
                        t.line,
                        "`Instant::now()` outside the timing modules; move the measurement into a CLOCK_SCOPES file or justify it",
                    );
                }
                if t.kind == TokenKind::Ident && (t.text == "SystemTime" || t.text == "UNIX_EPOCH")
                {
                    sink.report(
                        "clock-scope",
                        t.line,
                        &format!("`{}` outside the timing modules; move the measurement into a CLOCK_SCOPES file or justify it", t.text),
                    );
                }
            }
            if numeric
                && t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng")
                && !self.file_allowed("ambient-entropy", rel_path)
            {
                sink.report(
                    "ambient-entropy",
                    t.line,
                    &format!("`{}` draws ambient entropy; numeric crates must use seeded streams", t.text),
                );
            }
            if numeric
                && t.kind == TokenKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && !self.file_allowed("hash-container", rel_path)
            {
                sink.report(
                    "hash-container",
                    t.line,
                    &format!(
                        "`{}` has randomized iteration order; use BTree collections or justify with an allow comment",
                        t.text
                    ),
                );
            }
            if numeric && t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
                let prev_float = i > 0
                    && toks[i - 1].kind == TokenKind::Number
                    && number_is_float(&toks[i - 1].text);
                let next_float = toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Number && number_is_float(&n.text));
                if prev_float || next_float {
                    sink.report(
                        "float-eq",
                        t.line,
                        &format!("direct `{}` against a float literal; compare with a tolerance or justify exactness", t.text),
                    );
                }
            }

            if panic_scope {
                if t.kind == TokenKind::Punct
                    && t.text == "."
                    && toks.get(i + 1).is_some_and(|n| {
                        n.kind == TokenKind::Ident && (n.text == "unwrap" || n.text == "expect")
                    })
                    && punct_at(toks, i + 2, "(")
                {
                    let name = &toks[i + 1].text;
                    sink.report(
                        "panic-path",
                        toks[i + 1].line,
                        &format!("`.{name}()` can panic on a request path; return a typed ServeError instead"),
                    );
                }
                if t.kind == TokenKind::Ident
                    && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                    && punct_at(toks, i + 1, "!")
                {
                    sink.report(
                        "panic-path",
                        t.line,
                        &format!("`{}!` aborts a request path; return a typed ServeError instead", t.text),
                    );
                }
                if t.kind == TokenKind::Punct && t.text == "[" && i > 0 {
                    let prev = &toks[i - 1];
                    let is_index = matches!(prev.kind, TokenKind::Ident if !is_keyword(&prev.text))
                        || (prev.kind == TokenKind::Punct
                            && (prev.text == "]" || prev.text == ")"));
                    if is_index && !sink.lexed.has_bounds_comment(t.line) {
                        sink.report(
                            "panic-path",
                            t.line,
                            "indexing can panic on a request path; add a `// bounds: …` justification or use `.get()`",
                        );
                    }
                }
            }
        }
        sink.out
    }

    /// Whether [`ALLOWED_FILES`] exempts `rel_path` from `rule`.
    pub fn file_allowed(&self, rule: &str, rel_path: &str) -> bool {
        ALLOWED_FILES.iter().any(|(r, p, _)| *r == rule && path_matches(p, rel_path))
    }
}

/// Accumulates findings, routing each through the allow-comment check.
struct Sink<'a> {
    rel_path: &'a str,
    lexed: &'a LexedFile,
    out: RuleOutcome,
}

impl Sink<'_> {
    fn report(&mut self, rule: &str, line: usize, message: &str) {
        self.out.report(self.rel_path, self.lexed, rule, line, message);
    }
}

/// The dead-allow rule: every `// lint: allow(…)` comment must still
/// suppress something. `used` is the union of `(line, rule)`
/// suppression events every pass produced for this file; an allow
/// comment naming a rule with no used event on a covered line is rot
/// — the code it excused was fixed or moved — and a comment naming a
/// rule the engine doesn't know is a typo that never suppressed
/// anything. `allow(dead-allow)` is exempt from the meta-check (it
/// exists to silence *this* rule) and works as a suppression like any
/// other.
pub fn dead_allow_findings(
    rel_path: &str,
    lexed: &LexedFile,
    used: &[(usize, String)],
) -> RuleOutcome {
    let mut out = RuleOutcome::default();
    for comment in &lexed.allow_comments {
        for rule in &comment.rules {
            if rule == "dead-allow" {
                continue;
            }
            if !RULES.contains(&rule.as_str()) {
                out.report(
                    rel_path,
                    lexed,
                    "dead-allow",
                    comment.line,
                    &format!(
                        "`lint: allow({rule})` names an unknown rule — it has never suppressed \
                         anything (see `groupsa-lint --list-rules`)"
                    ),
                );
                continue;
            }
            let alive = used
                .iter()
                .any(|(line, r)| r == rule && comment.covered.contains(line));
            if !alive {
                out.report(
                    rel_path,
                    lexed,
                    "dead-allow",
                    comment.line,
                    &format!(
                        "`lint: allow({rule})` no longer suppresses anything here; \
                         delete the stale escape hatch"
                    ),
                );
            }
        }
    }
    out
}

fn ident_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Keywords that can precede `[` without it being an index expression.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "as" | "break" | "const" | "continue" | "crate" | "else" | "enum" | "extern" | "fn"
            | "for" | "if" | "impl" | "in" | "let" | "loop" | "match" | "mod" | "move" | "mut"
            | "pub" | "ref" | "return" | "static" | "struct" | "trait" | "type" | "unsafe"
            | "use" | "where" | "while" | "dyn" | "async" | "await"
    )
}

/// The root identifier of a `use` item starting at token `i` (`use`
/// itself), skipping a leading `::`. `None` when the next token is not
/// an identifier (brace imports of multiple roots are vanishingly rare
/// in this tree and would still be caught per-root once split).
fn use_root(toks: &[Token], i: usize) -> Option<&Token> {
    let mut j = i + 1;
    if punct_at(toks, j, "::") {
        j += 1;
    }
    let t = toks.get(j)?;
    (t.kind == TokenKind::Ident).then_some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> Analyzer {
        Analyzer::new(["groupsa-json".to_string(), "rand".to_string()])
    }

    fn rules_fired(rel: &str, src: &str) -> Vec<(usize, String)> {
        let (findings, _) = analyzer().analyze_source(rel, src);
        findings.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn instant_now_fires_only_in_numeric_scope() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_fired("crates/core/src/model.rs", src),
            vec![(1, "ambient-time".to_string())]
        );
        assert!(rules_fired("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn clock_scope_confines_clocks_to_timing_modules() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        // Outside any allowlist: both clock reads fire.
        assert_eq!(
            rules_fired("crates/serve/src/frozen.rs", src),
            vec![(1, "clock-scope".to_string()), (1, "clock-scope".to_string())]
        );
        // Timing modules: exact entries and directory prefixes.
        assert!(rules_fired("crates/serve/src/server.rs", src).is_empty());
        assert!(rules_fired("crates/serve/src/metrics.rs", src).is_empty());
        assert!(rules_fired("crates/obs/src/telemetry.rs", src).is_empty());
        assert!(rules_fired("crates/obs/src/bin/obs_top.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/serve_bench.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/harness.rs", src).is_empty());
        // Numeric crates answer to `ambient-time` instead — one clock
        // read never fires two rules.
        assert_eq!(
            rules_fired("crates/core/src/model.rs", src),
            vec![(1, "ambient-time".to_string()), (1, "ambient-time".to_string())]
        );
        // Tests may read clocks freely.
        assert!(rules_fired("crates/serve/tests/latency.rs", src).is_empty());
    }

    #[test]
    fn clock_scope_exact_entries_do_not_become_prefixes() {
        assert!(in_clock_scope("crates/serve/src/engine.rs"));
        assert!(in_clock_scope("crates/serve/src/admission.rs"));
        assert!(in_clock_scope("crates/obs/src/trace.rs"));
        assert!(in_clock_scope("crates/bench/src/experiments.rs"));
        assert!(!in_clock_scope("crates/serve/src/frozen.rs"));
        assert!(!in_clock_scope("crates/serve/src/protocol.rs"));
        assert!(!in_clock_scope("crates/snapshot/src/reader.rs"));
        assert!(!in_clock_scope("crates/core/src/train.rs"));
    }

    #[test]
    fn allowed_file_exempts_one_rule_not_all() {
        let src = "fn f() { let t = Instant::now(); let m = HashMap::new(); }";
        let fired = rules_fired("crates/core/src/train.rs", src);
        assert_eq!(fired, vec![(1, "hash-container".to_string())]);
    }

    #[test]
    fn cfg_test_region_is_exempt_from_scoped_rules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let m = HashMap::new(); let x = 1.0; if x == 0.0 {} }\n}";
        assert!(rules_fired("crates/nn/src/linear.rs", src).is_empty());
    }

    #[test]
    fn hermeticity_applies_even_inside_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    use serde_json::Value;\n}";
        assert_eq!(
            rules_fired("crates/nn/src/linear.rs", src),
            vec![(3, "foreign-use".to_string())]
        );
    }

    #[test]
    fn foreign_use_accepts_std_and_workspace_roots() {
        let src = "use std::io;\nuse groupsa_json::Json;\nuse rand::Rng;\nuse crate::x;\nuse serde::Serialize;";
        assert_eq!(
            rules_fired("crates/data/src/lib.rs", src),
            vec![(5, "foreign-use".to_string())]
        );
    }

    #[test]
    fn sibling_module_uniform_paths_are_in_tree() {
        let src = "mod engine;\npub use engine::Engine;\nuse serde::Serialize;";
        assert_eq!(
            rules_fired("crates/serve/src/lib.rs", src),
            vec![(3, "foreign-use".to_string())]
        );
    }

    #[test]
    fn panic_scope_directory_prefix_covers_nested_files() {
        let src = "fn f(v: &[u8]) { v.first().unwrap(); }";
        // Directory-prefix entry: every file under crates/snapshot/src/.
        assert_eq!(
            rules_fired("crates/snapshot/src/reader.rs", src),
            vec![(1, "panic-path".to_string())]
        );
        assert_eq!(
            rules_fired("crates/snapshot/src/bin/snapshot_check.rs", src),
            vec![(1, "panic-path".to_string())]
        );
        // Integration tests of the same crate stay exempt.
        assert!(rules_fired("crates/snapshot/tests/roundtrip.rs", src).is_empty());
        // Exact entries do not become prefixes: a sibling of an exact
        // entry is out of scope.
        assert!(in_panic_scope("crates/serve/src/engine.rs"));
        assert!(in_panic_scope("crates/serve/src/admission.rs"));
        assert!(in_panic_scope("crates/serve/src/swap.rs"));
        assert!(!in_panic_scope("crates/serve/src/frozen.rs"));
        assert!(in_panic_scope("crates/snapshot/src/writer.rs"));
        assert!(!in_panic_scope("crates/snapshot/tests/corrupt.rs"));
    }

    #[test]
    fn panic_rules_fire_only_in_request_path_files() {
        let src = "fn f(v: &[u8]) { v.first().unwrap(); panic!(\"no\"); let x = v[0]; }";
        let fired = rules_fired("crates/serve/src/engine.rs", src);
        assert_eq!(
            fired,
            vec![
                (1, "panic-path".to_string()),
                (1, "panic-path".to_string()),
                (1, "panic-path".to_string())
            ]
        );
        assert!(rules_fired("crates/serve/src/frozen.rs", src).is_empty());
    }

    #[test]
    fn bounds_comment_satisfies_the_indexing_check() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // bounds: caller validated idx against len\n    v[0]\n}";
        assert!(rules_fired("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }";
        assert!(rules_fired("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn slice_types_and_attributes_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(v: &[u8], w: [u8; 2]) {}";
        assert!(rules_fired("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn float_eq_fires_on_either_side() {
        let src = "fn f(x: f32) { if x == 0.0 {} if 1.5 != x {} if x == y {} }";
        let fired = rules_fired("crates/tensor/src/matrix.rs", src);
        assert_eq!(fired, vec![(1, "float-eq".to_string()), (1, "float-eq".to_string())]);
    }

    #[test]
    fn allow_comment_suppresses_and_counts() {
        let src = "fn f() {\n    // deterministic: membership only; lint: allow(hash-container)\n    let m = HashSet::new();\n}";
        let (findings, suppressed) = analyzer().analyze_source("crates/data/src/x.rs", src);
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn tests_directories_are_exempt_from_scoped_rules() {
        let src = "fn f() { let t = Instant::now(); let x = 1.0 == y; }";
        assert!(rules_fired("crates/core/tests/golden.rs", src).is_empty());
    }

    #[test]
    fn scope_spec_matches_prefixes_and_exact_paths() {
        static SPEC: ScopeSpec =
            ScopeSpec::new("test scope", &["crates/serve/src/", "examples/demo.rs"]);
        // Trailing `/` entries are directory prefixes…
        assert!(SPEC.contains("crates/serve/src/engine.rs"));
        assert!(SPEC.contains("crates/serve/src/bin/server.rs"));
        assert!(!SPEC.contains("crates/serve/tests/smoke.rs"));
        // …bare entries match exactly, not as prefixes.
        assert!(SPEC.contains("examples/demo.rs"));
        assert!(!SPEC.contains("examples/demo.rs.bak"));
        assert!(!SPEC.contains("examples/demo"));
    }

    #[test]
    fn the_shared_scopes_agree_with_their_legacy_membership_tests() {
        // The ScopeSpec refactor must not change what's in scope: spot
        // checks against the known membership of each list.
        assert!(in_panic_scope("crates/serve/src/engine.rs"));
        assert!(!in_panic_scope("crates/core/src/train.rs"));
        assert!(in_clock_scope("crates/obs/src/window.rs"));
        assert!(!in_clock_scope("crates/core/src/voting.rs"));
    }

    #[test]
    fn dead_allow_distinguishes_stale_from_unknown() {
        let src = "fn f(x: f32) {\n    let a = x == 0.5; // lint: allow(float-eq)\n    let b = 1; // lint: allow(float-eq)\n    let c = 2; // lint: allow(not-a-rule)\n}";
        let lexed = crate::lexer::lex(src);
        let out = analyzer().analyze_lexed("crates/core/src/x.rs", &lexed);
        let dead = dead_allow_findings("crates/core/src/x.rs", &lexed, &out.used_allows);
        let fired: Vec<(usize, &str)> = dead
            .findings
            .iter()
            .map(|f| {
                let kind = if f.message.contains("unknown rule") { "unknown" } else { "stale" };
                (f.line, kind)
            })
            .collect();
        assert_eq!(fired, vec![(3, "stale"), (4, "unknown")]);
    }
}
