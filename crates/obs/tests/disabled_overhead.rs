//! The overhead-when-disabled contract: with `GROUPSA_TRACE` unset,
//! every instrumentation point must be an inert near-no-op (one atomic
//! load on the fast path — no I/O, no clock reads for spans, no
//! allocation). Own test binary so the process-global sink latches the
//! *disabled* state without interference from the traced schema test.

use groupsa_obs::{emit, enabled, span, to_json};
use std::time::Instant;

#[test]
fn disabled_instrumentation_is_inert_and_cheap() {
    // Must precede the first obs call: the sink latches on first use.
    std::env::remove_var(groupsa_obs::TRACE_ENV);
    assert!(!enabled(), "tracing must be off without GROUPSA_TRACE");

    // Functionally inert: spans are no-ops and nothing is written.
    let s = span!("anything", "x" => 1usize);
    assert!(s.is_noop());
    drop(s);
    emit("run", &[("label", to_json(&"never written"))]);

    // Cheap: a million disabled span + gate checks in well under a
    // second of budget (the real cost is a few ns each; the bound is
    // deliberately loose so slow CI machines never flake).
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        let _s = span!("hot", "i" => i);
        let _ = enabled();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "1M disabled spans took {elapsed:?} — the disabled path must be near-zero cost"
    );
}
