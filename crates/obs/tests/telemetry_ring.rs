//! The record ring under contention: pushes from many threads must
//! never deadlock, never lose a record below capacity, and never let a
//! reader observe a torn record — the properties that make it safe on
//! the serve path.

use groupsa_obs::record::{RecordOutcome, RecordRing, RequestRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A record whose fields are all derived from its id, so a reader can
/// prove a snapshot entry was stored atomically: any mix of two
/// writers' fields breaks the relations.
fn derived(id: u64) -> RequestRecord {
    RequestRecord {
        conn: id.wrapping_mul(2),
        id,
        arrival_us: id.wrapping_mul(3),
        outcome: RecordOutcome::Completed,
        queue_us: id.wrapping_mul(5),
        batch: id.wrapping_mul(7),
        score_us: id.wrapping_mul(11),
        write_us: id.wrapping_mul(13),
        total_us: id.wrapping_mul(17),
        slow: false,
    }
}

fn is_derived(r: &RequestRecord) -> bool {
    r.conn == r.id.wrapping_mul(2)
        && r.arrival_us == r.id.wrapping_mul(3)
        && r.queue_us == r.id.wrapping_mul(5)
        && r.batch == r.id.wrapping_mul(7)
        && r.score_us == r.id.wrapping_mul(11)
        && r.write_us == r.id.wrapping_mul(13)
        && r.total_us == r.id.wrapping_mul(17)
}

const WRITERS: u64 = 8;
const PER_WRITER: u64 = 20_000;

/// Pushes the derived records with ids `1..=WRITERS * PER_WRITER` from
/// `WRITERS` threads at once and joins them.
fn push_from_writers(ring: &Arc<RecordRing>) {
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(ring);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.push(&derived(w * PER_WRITER + i + 1));
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("a blocked or panicked writer would hang the join");
    }
}

/// 8 writers hammer a deliberately tiny ring (every push evicts) while
/// a reader snapshots continuously. The test *completing* proves
/// writers and the reader never deadlock; the field relations prove no
/// snapshot ever contains a torn record; the push accounting proves
/// every attempt was counted.
#[test]
fn contended_writers_never_block_and_readers_never_see_torn_records() {
    let ring = Arc::new(RecordRing::new(4));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for record in ring.snapshot() {
                    assert!(is_derived(&record), "torn record surfaced: {record:?}");
                }
                snapshots += 1;
            }
            snapshots
        })
    };
    push_from_writers(&ring);
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().expect("reader panicked");

    assert!(snapshots > 0, "the reader ran concurrently with the writers");
    assert_eq!(ring.pushed(), WRITERS * PER_WRITER, "every push attempt was counted");
    // Quiescent now: a final snapshot is full and fully consistent.
    let settled = ring.snapshot();
    assert_eq!(settled.len(), ring.capacity());
    assert!(settled.iter().all(is_derived));
}

/// Below capacity, no record is lost: 8 writers pushing 20,000
/// records each into a ring with room for all 160,000 leave exactly
/// the pushed ids behind.
#[test]
fn below_capacity_no_record_is_lost() {
    let ring = Arc::new(RecordRing::new((WRITERS * PER_WRITER) as usize));
    push_from_writers(&ring);
    assert_eq!(ring.pushed(), WRITERS * PER_WRITER);
    let records = ring.snapshot();
    assert!(records.iter().all(is_derived));
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=WRITERS * PER_WRITER).collect::<Vec<_>>(), "every pushed id survives");
}

/// Sampling decisions and slow capture compose with the ring across
/// threads: with `1/N` sampling, concurrent observers file exactly the
/// id-hash-selected subset, independent of interleaving.
#[test]
fn concurrent_observers_file_exactly_the_deterministic_sample() {
    use groupsa_obs::{Telemetry, TelemetryConfig};
    const IDS: u64 = 4000;
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 8,
        slow_us: u64::MAX,
        ring_capacity: IDS as usize,
    }));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let telemetry = Arc::clone(&telemetry);
            std::thread::spawn(move || {
                for id in (t * IDS / 4)..((t + 1) * IDS / 4) {
                    let sampled = telemetry.sampled(id);
                    telemetry.observe(
                        RequestRecord { id, total_us: 10, ..Default::default() },
                        sampled,
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut got: Vec<u64> = telemetry.records().iter().map(|r| r.id).collect();
    got.sort_unstable();
    let want: Vec<u64> = (0..IDS).filter(|&id| groupsa_obs::hash_id(id) % 8 == 0).collect();
    assert_eq!(got, want, "the filed set is exactly the id-hash sample");
}
