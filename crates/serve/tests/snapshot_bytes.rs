//! Metrics snapshots must serialise deterministically.
//!
//! The metrics audit (ISSUE 5, satellite b) verified that
//! `StatsSnapshot` holds no hash containers — every field is a scalar
//! or a `Vec` — and `groupsa-json` emits object keys in declaration
//! order. These tests pin both properties: identically-driven
//! `Metrics` instances must serialise to identical bytes, and the key
//! order in those bytes must be the declared one (so bench artifacts
//! and `stats` replies diff cleanly between runs).

use groupsa_serve::metrics::{Metrics, StatsSnapshot, Universe};
use std::time::Duration;

fn drive(m: &Metrics) {
    for i in 0..50u64 {
        m.note_submitted();
        m.note_queue_depth((i % 7) as usize);
        m.note_queue_wait(Duration::from_micros(10 + i));
        m.note_score(Duration::from_micros(100 + 3 * i));
        m.note_completed(Duration::from_micros(120 + 3 * i));
    }
    m.note_rejected();
    m.note_error();
    m.note_expired();
}

fn universe() -> Universe {
    Universe { num_users: 60, num_items: 40, num_groups: 25 }
}

#[test]
fn identically_driven_metrics_serialize_to_identical_bytes() {
    let (a, b) = (Metrics::new(), Metrics::new());
    drive(&a);
    drive(&b);
    let ja = groupsa_json::to_string(&a.snapshot(universe()));
    let jb = groupsa_json::to_string(&b.snapshot(universe()));
    assert_eq!(ja, jb, "same history, different bytes");
    // And serialising the same snapshot twice is byte-stable too.
    let snap = a.snapshot(universe());
    assert_eq!(groupsa_json::to_string(&snap), groupsa_json::to_string(&snap));
}

#[test]
fn snapshot_keys_appear_in_declaration_order() {
    let m = Metrics::new();
    drive(&m);
    let json = groupsa_json::to_string(&m.snapshot(universe()));
    let keys = [
        "\"submitted\"",
        "\"completed\"",
        "\"errors\"",
        "\"rejected\"",
        "\"expired\"",
        "\"mean_batch\"",
        "\"latency_buckets\"",
        "\"num_groups\"",
    ];
    let mut last = 0;
    for key in keys {
        let pos = json.find(key).unwrap_or_else(|| panic!("{key} missing from {json}"));
        assert!(pos > last || last == 0, "{key} out of declared order");
        last = pos;
    }
}

#[test]
fn snapshot_roundtrips_through_its_own_bytes() {
    let m = Metrics::new();
    drive(&m);
    let snap = m.snapshot(universe());
    let text = groupsa_json::to_string(&snap);
    let back: StatsSnapshot = groupsa_json::from_str(&text).expect("parse back");
    assert_eq!(back, snap);
}
