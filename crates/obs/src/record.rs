//! Per-request lifecycle records and the fixed-capacity lock-free ring
//! that stores them.
//!
//! A [`RequestRecord`] is the compact trail one request leaves behind
//! as it flows admission → queue → worker → writer: when it arrived,
//! whether it was admitted or refused, how long it queued, which
//! worker pop took it, how long scoring and serialisation took,
//! and how it ended. Records are *sampled* (see
//! [`crate::telemetry::Telemetry`]) and kept in a [`RecordRing`] — a
//! fixed-capacity overwrite-oldest buffer whose push path is a handful
//! of relaxed atomic stores, so recording can never block or slow the
//! serving hot path.
//!
//! ## Ring semantics (seqlock slots)
//!
//! Each slot carries a sequence word: even = stable, odd = a writer is
//! mid-store. Writers claim the next slot with a single
//! `fetch_add` on the head index, flip the slot's sequence odd with a
//! CAS, store the fields, and flip it back even. If the CAS fails —
//! the ring lapped itself and another writer holds the same slot — the
//! record is dropped (counted in [`RecordRing::dropped`]): losing the
//! oldest entry under overwrite-oldest semantics, never waiting.
//! Readers snapshot by re-checking the sequence word around the field
//! loads and skip torn slots, so a snapshot contains only records that
//! were stored completely.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a recorded request left the system. The wire names (lowercase,
/// via [`RecordOutcome::name`]) are the `request_record` trace event's
/// `outcome`: `ok`/`error`/`expired` for popped jobs plus the two
/// admission refusals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordOutcome {
    /// Answered successfully.
    #[default]
    Completed,
    /// Answered with a non-deadline error.
    Error,
    /// Dropped on deadline expiry while queued.
    Expired,
    /// Shed by deadline-aware admission control (counted submitted).
    Shed,
    /// Refused at admission — queue full or engine stopping (never
    /// counted submitted).
    Rejected,
}

impl RecordOutcome {
    /// The lowercase wire name used in trace events and exposition
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            RecordOutcome::Completed => "ok",
            RecordOutcome::Error => "error",
            RecordOutcome::Expired => "expired",
            RecordOutcome::Shed => "shed",
            RecordOutcome::Rejected => "rejected",
        }
    }

    fn code(self) -> u64 {
        match self {
            RecordOutcome::Completed => 0,
            RecordOutcome::Error => 1,
            RecordOutcome::Expired => 2,
            RecordOutcome::Shed => 3,
            RecordOutcome::Rejected => 4,
        }
    }

    fn from_code(code: u64) -> RecordOutcome {
        match code {
            1 => RecordOutcome::Error,
            2 => RecordOutcome::Expired,
            3 => RecordOutcome::Shed,
            4 => RecordOutcome::Rejected,
            _ => RecordOutcome::Completed,
        }
    }
}

/// One request's lifecycle trail. All times are microseconds; `arrival_us`
/// is measured from the owning [`crate::telemetry::Telemetry`]'s start,
/// the rest are durations of lifecycle phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// The client-chosen request id (also the sampling key).
    pub id: u64,
    /// Arrival at admission, µs since telemetry start.
    pub arrival_us: u64,
    /// How the request ended.
    pub outcome: RecordOutcome,
    /// Time spent queued before a worker popped it.
    pub queue_us: u64,
    /// The id of the worker pop that took it, unique per popped
    /// request (`0` = never popped: refused at admission or answered
    /// by a dying pool). Kept only because the serve benchmark groups
    /// records by it; delete it once the benchmark stops (ROADMAP
    /// item 1).
    pub batch: u64,
    /// Model-scoring time (0 for expired/refused requests).
    pub score_us: u64,
    /// Serialize-and-write time on the connection's writer thread
    /// (0 for blocking in-process submissions).
    pub write_us: u64,
    /// Admission to final reply, end to end.
    pub total_us: u64,
    /// Captured unconditionally because `total_us` crossed the
    /// slow-request threshold (sampled-out slow requests still land in
    /// the ring).
    pub slow: bool,
}

const SLOT_FIELDS: usize = 8;

/// One seqlock slot: `seq` even = stable, odd = mid-write.
struct Slot {
    seq: AtomicU64,
    data: [AtomicU64; SLOT_FIELDS],
}

impl Slot {
    fn empty() -> Self {
        Slot { seq: AtomicU64::new(0), data: [const { AtomicU64::new(0) }; SLOT_FIELDS] }
    }
}

fn pack(record: &RequestRecord) -> [u64; SLOT_FIELDS] {
    [
        record.id,
        record.arrival_us,
        record.outcome.code() | u64::from(record.slow) << 8,
        record.queue_us,
        record.batch,
        record.score_us,
        record.write_us,
        record.total_us,
    ]
}

fn unpack(data: [u64; SLOT_FIELDS]) -> RequestRecord {
    RequestRecord {
        id: data[0],
        arrival_us: data[1],
        outcome: RecordOutcome::from_code(data[2] & 0xff),
        slow: data[2] & 0x100 != 0,
        queue_us: data[3],
        batch: data[4],
        score_us: data[5],
        write_us: data[6],
        total_us: data[7],
    }
}

/// Fixed-capacity overwrite-oldest record store with a non-blocking
/// push path: one `fetch_add` claims a slot, a CAS-guarded seqlock
/// protects readers from torn stores, and contention on a lapped slot
/// drops the record instead of waiting.
pub struct RecordRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl RecordRing {
    /// A ring holding the most recent `capacity.max(1)` records.
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1)).map(|_| Slot::empty()).collect();
        RecordRing { slots, head: AtomicU64::new(0), dropped: AtomicU64::new(0) }
    }

    /// How many records this ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total push attempts since creation (successful or dropped).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Pushes dropped because the ring lapped itself onto a slot
    /// another writer was still storing (overwrite-oldest under
    /// extreme contention; never a wait).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores `record`, overwriting the oldest entry. Never blocks:
    /// the only shared state is the head index (`fetch_add`) and the
    /// claimed slot's sequence word (one CAS that *drops on failure*).
    pub fn push(&self, record: &RequestRecord) {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            // A lapped writer is still mid-store; drop rather than spin.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot.seq.compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (cell, value) in slot.data.iter().zip(pack(record)) {
            cell.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// A consistent copy of every completely-stored record, oldest
    /// arrival first. Slots a writer is mid-storing (or that were
    /// overwritten during the read) are skipped, never torn.
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let mut records = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue; // never written, or a writer is mid-store
            }
            let data = std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while reading: skip the torn copy
            }
            records.push(unpack(data));
        }
        records.sort_by_key(|r| (r.arrival_us, r.id));
        records
    }
}

impl std::fmt::Debug for RecordRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> RequestRecord {
        RequestRecord {
            id,
            arrival_us: 10 * id,
            outcome: RecordOutcome::Completed,
            queue_us: id + 1,
            batch: id / 4,
            score_us: 2 * id,
            write_us: 3 * id,
            total_us: 6 * id + 1,
            slow: id % 7 == 0,
        }
    }

    #[test]
    fn push_then_snapshot_roundtrips_every_field() {
        let ring = RecordRing::new(8);
        for id in 1..=5 {
            ring.push(&record(id));
        }
        let got = ring.snapshot();
        assert_eq!(got, (1..=5).map(record).collect::<Vec<_>>());
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let ring = RecordRing::new(4);
        for id in 1..=10 {
            ring.push(&record(id));
        }
        let got = ring.snapshot();
        assert_eq!(got, (7..=10).map(record).collect::<Vec<_>>(), "only the newest 4 survive");
    }

    #[test]
    fn outcome_and_slow_pack_roundtrip() {
        for outcome in [
            RecordOutcome::Completed,
            RecordOutcome::Error,
            RecordOutcome::Expired,
            RecordOutcome::Shed,
            RecordOutcome::Rejected,
        ] {
            for slow in [false, true] {
                let r = RequestRecord { id: 1, outcome, slow, ..RequestRecord::default() };
                assert_eq!(unpack(pack(&r)), r);
            }
        }
    }

    #[test]
    fn zero_capacity_is_clamped_and_empty_ring_snapshots_empty() {
        let ring = RecordRing::new(0);
        assert_eq!(ring.capacity(), 1);
        assert!(ring.snapshot().is_empty());
        ring.push(&record(1));
        ring.push(&record(2));
        assert_eq!(ring.snapshot(), vec![record(2)]);
    }

    #[test]
    fn outcome_wire_names_are_stable() {
        let outcomes = [
            (RecordOutcome::Completed, "ok"),
            (RecordOutcome::Error, "error"),
            (RecordOutcome::Expired, "expired"),
            (RecordOutcome::Shed, "shed"),
            (RecordOutcome::Rejected, "rejected"),
        ];
        for (outcome, name) in outcomes {
            assert_eq!(outcome.name(), name);
            assert_eq!(RecordOutcome::from_code(outcome.code()), outcome);
        }
    }
}
