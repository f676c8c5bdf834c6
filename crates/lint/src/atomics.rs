//! The atomics-ordering audit.
//!
//! PRs 8–9 put ~60 hand-placed `Ordering::*` sites on the serve and
//! observability paths (seqlock ring, hot-swap, shed/stopping flags). One wrong `Relaxed` breaks the telemetry
//! reconciliation or hot-swap guarantees *silently* — the code still
//! compiles, still usually works on x86, and fails probabilistically
//! on weaker memory models. So every atomic operation in the
//! workspace must be **manifested**: listed in [`ATOMIC_SITES`] as
//! `(file, symbol, op, ordering, justification)`, where `symbol` is
//! the atomic field the op applies to. Two rules enforce it:
//!
//! * `atomic-manifest` — an atomic op with no matching manifest entry
//!   fires at the site; a manifest entry matching no site (drift after
//!   a refactor) or carrying an empty justification fires at the top
//!   of its file. Re-justification policy: editing an atomic site's
//!   ordering *must* touch the manifest — the entry match is on the
//!   ordering string, so a silent strengthening/weakening cannot land
//!   without a diff reviewers see next to a justification.
//! * `relaxed-publish` — on the declared cross-thread publish fields
//!   ([`PUBLISH_FIELDS`]: the seqlock `seq` words and the swap slot), a *write* op whose success ordering is
//!   `Relaxed` fires regardless of the manifest: no justification can
//!   make an unordered publish correct. Loads are deliberately out of
//!   scope — the seqlock's optimistic `Relaxed` pre-read (revalidated
//!   by the acquire CAS) is legitimate and manifested as such.
//!
//! Detection keys on an `Ordering::X` argument inside the call's
//! parens, which cleanly separates `AtomicU64::load` from `Vec`
//! indexing-free `load`s and `std::cmp::Ordering` matches.

use crate::items::{enclosing_symbol, Item, TestRegionTracker};
use crate::lexer::{LexedFile, TokenKind};
use crate::report::Finding;
use crate::rules::RuleOutcome;
use std::collections::BTreeSet;

/// One manifest row: `(file, symbol, op, ordering, justification)`.
/// `symbol` is the atomic field the op applies to (the receiver's last
/// path segment — `seq`, `stamp`, `stopping`, tuple field `0`, …);
/// `ordering` is the `Ordering::` variant list, comma-joined for
/// `compare_exchange`'s success,failure pair. One row covers every
/// site in `file` with the same field/op/ordering — the discipline
/// attaches to the field's protocol, not to each call site, so line
/// churn never invalidates the manifest.
pub type AtomicEntry = (&'static str, &'static str, &'static str, &'static str, &'static str);

/// Method names that are atomic operations when called with an
/// `Ordering::` argument.
pub const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Cross-thread publish/acquire fields where a `Relaxed` *write* is
/// never justifiable: `(file, field, why it is a publish point)`.
pub const PUBLISH_FIELDS: &[(&str, &str, &str)] = &[
    (
        "crates/obs/src/record.rs",
        "seq",
        "seqlock sequence words: the Release store is what publishes the slot's data to readers",
    ),
    (
        "crates/serve/src/swap.rs",
        "current",
        "hot-swap slot: if the Mutex is ever replaced by an atomic pointer, its store is the model publish",
    ),
];

/// The committed manifest: every atomic op site in the workspace must
/// match a row here (see [`AtomicEntry`] for match semantics). Keep
/// rows grouped by file and field so the protocol reads as a unit;
/// `groupsa-lint --dump-atomics` prints suggested rows for any
/// unmanifested site.
pub const ATOMIC_SITES: &[AtomicEntry] = &[
    // -- core/train.rs: per-phase cost counters, read only by the trainer's
    //    own summary after join(); the join is the synchronization edge.
    ("crates/core/src/train.rs", "backward_us", "fetch_add", "Relaxed",
     "monotonic cost counter; aggregated after thread join, which orders all prior writes"),
    ("crates/core/src/train.rs", "backward_us", "load", "Relaxed",
     "summary read after join; no concurrent writers remain"),
    ("crates/core/src/train.rs", "forward_us", "fetch_add", "Relaxed",
     "monotonic cost counter; aggregated after thread join, which orders all prior writes"),
    ("crates/core/src/train.rs", "forward_us", "load", "Relaxed",
     "summary read after join; no concurrent writers remain"),
    // -- obs/record.rs: per-slot seqlock. `seq` is the publish word:
    //    odd = write in progress, even = stable generation.
    ("crates/obs/src/record.rs", "seq", "load", "Relaxed",
     "writer's optimistic pre-read; any staleness is caught by the acquire CAS that follows"),
    ("crates/obs/src/record.rs", "seq", "load", "Acquire",
     "reader's before/after generation checks; acquire pairs with the writer's release store \
      so matching even values prove the data words in between were stable"),
    ("crates/obs/src/record.rs", "seq", "compare_exchange", "Acquire,Relaxed",
     "acquire claims the slot (seq -> odd) and orders the claim before the data writes; \
      failure retries, so relaxed is enough there"),
    ("crates/obs/src/record.rs", "seq", "store", "Release",
     "publishes the generation (seq -> even); release makes the relaxed data stores visible \
      to any reader that acquires this value"),
    ("crates/obs/src/record.rs", "cell", "store", "Relaxed",
     "data words inside the seqlock critical section; ordered by the surrounding seq \
      acquire-CAS / release-store pair"),
    ("crates/obs/src/record.rs", "data", "load", "Relaxed",
     "data words re-validated by the acquire re-read of seq; a torn read is detected and retried"),
    ("crates/obs/src/record.rs", "head", "fetch_add", "Relaxed",
     "ring cursor: only uniqueness of the claimed index matters, not ordering against data"),
    ("crates/obs/src/record.rs", "head", "load", "Relaxed",
     "approximate occupancy for introspection; staleness is acceptable"),
    ("crates/obs/src/record.rs", "dropped", "fetch_add", "Relaxed",
     "lossy-drop statistic; no reader infers other state from it"),
    ("crates/obs/src/record.rs", "dropped", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    // -- obs/registry.rs: lock-free metric cells (Counter is a newtype,
    //    hence the `.0` receiver).
    ("crates/obs/src/registry.rs", "0", "fetch_add", "Relaxed",
     "counter increment; metrics tolerate reordering, only the eventual total matters"),
    ("crates/obs/src/registry.rs", "0", "load", "Relaxed",
     "counter read for snapshots; point-in-time staleness is inherent to sampling"),
    ("crates/obs/src/registry.rs", "b", "load", "Relaxed",
     "histogram bucket read during snapshot iteration; buckets are independent statistics"),
    ("crates/obs/src/registry.rs", "buckets", "fetch_add", "Relaxed",
     "histogram bucket increment; independent statistic, no cross-field invariant"),
    ("crates/obs/src/registry.rs", "count", "fetch_add", "Relaxed",
     "histogram observation count; snapshot consistency across fields is not promised"),
    ("crates/obs/src/registry.rs", "count", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    ("crates/obs/src/registry.rs", "sum", "fetch_add", "Relaxed",
     "histogram running sum; snapshot consistency across fields is not promised"),
    ("crates/obs/src/registry.rs", "sum", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    ("crates/obs/src/registry.rs", "last", "store", "Relaxed",
     "gauge last-value cell; later store wins, no reader infers other state from it"),
    ("crates/obs/src/registry.rs", "last", "load", "Relaxed",
     "gauge read; staleness is acceptable"),
    ("crates/obs/src/registry.rs", "max", "fetch_max", "Relaxed",
     "monotonic high-water mark; fetch_max is order-insensitive by construction"),
    ("crates/obs/src/registry.rs", "max", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    // -- obs/trace.rs
    ("crates/obs/src/trace.rs", "seq", "fetch_add", "Relaxed",
     "trace-event sequence number; only uniqueness matters, file writes are mutex-ordered"),
    // -- serve/admission.rs
    ("crates/serve/src/admission.rs", "ewma_us", "load", "Relaxed",
     "EWMA is a lossy estimate by definition; a stale read only delays the shed decision one tick"),
    ("crates/serve/src/admission.rs", "ewma_us", "store", "Relaxed",
     "single logical writer (batch completion); readers tolerate any interleaving"),
    // -- serve/engine.rs + server.rs: shutdown flags. SeqCst deliberately —
    //    shutdown is rare, and a total order across the flag, the queue
    //    mutex, and the condvar removes any lost-wakeup argument.
    ("crates/serve/src/engine.rs", "stopping", "store", "SeqCst",
     "shutdown flag; SeqCst so the store is totally ordered against the condvar notify"),
    ("crates/serve/src/engine.rs", "stopping", "load", "SeqCst",
     "worker checks under the queue lock; SeqCst keeps the check ordered against the store"),
    ("crates/serve/src/server.rs", "stop", "store", "SeqCst",
     "accept-loop stop flag; cold path, total order chosen over proving a weaker one"),
    ("crates/serve/src/server.rs", "stop", "load", "SeqCst",
     "accept-loop stop check once per connection; cold path, total order keeps it obvious"),
    // -- serve/frozen.rs + metrics.rs: serving statistics.
    ("crates/serve/src/frozen.rs", "latent_hits", "fetch_add", "Relaxed",
     "cache statistic; no reader infers other state from it"),
    ("crates/serve/src/frozen.rs", "latent_hits", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    ("crates/serve/src/frozen.rs", "rep_hits", "fetch_add", "Relaxed",
     "cache statistic; no reader infers other state from it"),
    ("crates/serve/src/frozen.rs", "rep_hits", "load", "Relaxed",
     "statistic read; staleness is acceptable"),
    ("crates/serve/src/metrics.rs", "batch_seq", "fetch_add", "Relaxed",
     "per-pop id for telemetry records; only uniqueness matters"),
];

/// One detected atomic op site.
#[derive(Debug)]
pub struct AtomicSite {
    /// 1-based source line of the op name.
    pub line: usize,
    /// The atomic field the op applies to (receiver's last segment).
    pub field: String,
    /// The op name (`load`, `fetch_add`, …).
    pub op: String,
    /// Comma-joined `Ordering::` variants found in the call's args.
    pub ordering: String,
    /// Qualified symbol of the enclosing fn, or `""` at file scope.
    pub context: String,
}

/// Extracts every atomic op site outside `#[cfg(test)]` regions.
pub fn find_sites(lexed: &LexedFile, items: &[Item]) -> Vec<AtomicSite> {
    let toks = &lexed.tokens;
    let mut tracker = TestRegionTracker::default();
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        let in_test = tracker.observe(toks, i);
        let t = &toks[i];
        if in_test
            || t.kind != TokenKind::Punct
            || t.text != "."
            || !toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && ATOMIC_OPS.contains(&n.text.as_str())
            })
            || !toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
        {
            continue;
        }
        let op_tok = &toks[i + 1];
        // Collect `Ordering :: X` inside the call's balanced parens;
        // a call with none is not an atomic op (slice `load`s, custom
        // `swap`s, `cmp::Ordering` matches elsewhere on the line).
        let mut depth = 0i32;
        let mut orderings: Vec<&str> = Vec::new();
        let mut j = i + 2;
        while j < toks.len() {
            let a = &toks[j];
            if a.kind == TokenKind::Punct {
                match a.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if a.kind == TokenKind::Ident
                && a.text == "Ordering"
                && toks.get(j + 1).is_some_and(|p| p.kind == TokenKind::Punct && p.text == "::")
                && toks.get(j + 2).is_some_and(|v| v.kind == TokenKind::Ident)
            {
                orderings.push(&toks[j + 2].text);
                j += 3;
                continue;
            }
            j += 1;
        }
        if orderings.is_empty() {
            continue;
        }
        sites.push(AtomicSite {
            line: op_tok.line,
            field: receiver_field(toks, i),
            op: op_tok.text.clone(),
            ordering: orderings.join(","),
            context: enclosing_symbol(items, i).unwrap_or("").to_string(),
        });
    }
    sites
}

/// The receiver's last path segment before the `.` at `dot`: walks
/// back over one balanced `[…]` or `(…)` group, then takes the
/// identifier (or tuple-field number) it lands on.
fn receiver_field(toks: &[crate::lexer::Token], dot: usize) -> String {
    let mut k = dot;
    loop {
        let Some(prev) = k.checked_sub(1) else { return String::new() };
        let p = &toks[prev];
        match (&p.kind, p.text.as_str()) {
            (TokenKind::Punct, "]") | (TokenKind::Punct, ")") => {
                // Walk back over the balanced group to its opener,
                // then continue from the token before it (`counts[i]`
                // → `counts`, `claim(sec)` → `claim`).
                let (open, close) = if p.text == "]" { ("[", "]") } else { ("(", ")") };
                let mut depth = 0i32;
                let mut q = prev;
                loop {
                    let t = &toks[q];
                    if t.kind == TokenKind::Punct {
                        if t.text == close {
                            depth += 1;
                        } else if t.text == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    let Some(next_q) = q.checked_sub(1) else { return String::new() };
                    q = next_q;
                }
                k = q;
            }
            (TokenKind::Ident, s) | (TokenKind::Number, s) => return s.to_string(),
            _ => return String::new(),
        }
    }
}

/// Per-file atomics pass: unmanifested sites fire `atomic-manifest`,
/// Relaxed writes on publish fields fire `relaxed-publish`. Returns
/// the usual outcome plus the indices of `manifest` rows matched by at
/// least one site (input to [`stale_manifest_findings`]).
pub fn check_file(
    rel: &str,
    lexed: &LexedFile,
    items: &[Item],
    manifest: &[AtomicEntry],
    publish: &[(&str, &str, &str)],
) -> (RuleOutcome, BTreeSet<usize>) {
    let mut out = RuleOutcome::default();
    let mut matched = BTreeSet::new();
    for site in find_sites(lexed, items) {
        let context = if site.context.is_empty() { "file scope" } else { &site.context };
        let entry = manifest.iter().position(|(f, sym, op, ord, _)| {
            *f == rel && *sym == site.field && *op == site.op && *ord == site.ordering
        });
        match entry {
            Some(idx) => {
                matched.insert(idx);
            }
            None => out.report(
                rel,
                lexed,
                "atomic-manifest",
                site.line,
                &format!(
                    "atomic `{}.{}` with `Ordering::{}` in `{}` has no ATOMIC_SITES entry; \
                     add (file, field, op, ordering, justification) — `--dump-atomics` prints it",
                    site.field, site.op, site.ordering, context
                ),
            ),
        }
        // Publish-field writes: success ordering (first listed) must
        // not be Relaxed, manifested or not.
        let is_publish = publish.iter().any(|(f, field, _)| *f == rel && *field == site.field);
        let is_write = site.op != "load";
        let success_relaxed = site.ordering.split(',').next() == Some("Relaxed");
        if is_publish && is_write && success_relaxed {
            out.report(
                rel,
                lexed,
                "relaxed-publish",
                site.line,
                &format!(
                    "`{}.{}` is a cross-thread publish point; a Relaxed write ordering cannot \
                     publish `{}`'s protected data (needs Release or stronger)",
                    site.field, site.op, site.field
                ),
            );
        }
    }
    (out, matched)
}

/// Workspace-level manifest hygiene: rows matched by no site are
/// drift, rows with an empty justification are unauditable. Findings
/// land at line 0 of the row's file (the row, not the code, is wrong).
pub fn stale_manifest_findings(
    manifest: &[AtomicEntry],
    matched: &BTreeSet<usize>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, (file, sym, op, ord, why)) in manifest.iter().enumerate() {
        if !matched.contains(&idx) {
            findings.push(Finding {
                file: file.to_string(),
                line: 0,
                rule: "atomic-manifest".to_string(),
                message: format!(
                    "stale ATOMIC_SITES entry ({file}, {sym}, {op}, {ord}): no such atomic site \
                     exists any more; delete or update the manifest row"
                ),
            });
        } else if why.trim().is_empty() {
            findings.push(Finding {
                file: file.to_string(),
                line: 0,
                rule: "atomic-manifest".to_string(),
                message: format!(
                    "ATOMIC_SITES entry ({file}, {sym}, {op}, {ord}) has no justification; \
                     the ordering argument must be explained"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn sites(src: &str) -> Vec<AtomicSite> {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        find_sites(&lexed, &items)
    }

    #[test]
    fn ordering_argument_is_what_makes_a_site_atomic() {
        let src = "fn f(v: &AtomicU64, s: &mut Vec<u8>) {\n    v.store(1, Ordering::Release);\n    s.swap(0, 1);\n    let _ = snapshot.load();\n}";
        let found = sites(src);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].field.as_str(), found[0].op.as_str()), ("v", "store"));
        assert_eq!(found[0].ordering, "Release");
        assert_eq!(found[0].context, "f");
    }

    #[test]
    fn compare_exchange_joins_success_and_failure_orderings() {
        let src = "impl Ring { fn push(&self) { self.slot.seq.compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed); } }";
        let found = sites(src);
        assert_eq!(found[0].field, "seq");
        assert_eq!(found[0].ordering, "Acquire,Relaxed");
        assert_eq!(found[0].context, "Ring::push");
    }

    #[test]
    fn receiver_walks_back_over_index_and_call_groups() {
        let src = "fn f(&self) {\n    self.claim(sec).counts[kind.index()].fetch_add(1, Ordering::Relaxed);\n    self.0.fetch_add(1, Ordering::Relaxed);\n}";
        let found = sites(src);
        assert_eq!(found[0].field, "counts");
        assert_eq!(found[1].field, "0");
    }

    #[test]
    fn cfg_test_sites_are_exempt() {
        let src = "fn f(v: &AtomicU64) { v.load(Ordering::Acquire); }\n#[cfg(test)]\nmod tests {\n    fn t(v: &AtomicU64) { v.store(9, Ordering::Relaxed); }\n}";
        assert_eq!(sites(src).len(), 1);
    }

    #[test]
    fn cmp_ordering_matches_are_not_sites() {
        let src = "fn f(a: &U, b: &U) { if rank_cmp(a, b) == Ordering::Equal { heap.push(a); } }";
        assert!(sites(src).is_empty());
    }
}
