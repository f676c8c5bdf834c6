//! Per-request lifecycle records and the bounded ring that stores them.
//!
//! A [`RequestRecord`] is the compact trail one request leaves behind
//! as it flows admission → queue → worker → writer: which connection
//! sent it, when it arrived, whether it was admitted or refused, how
//! long it queued, which worker pop took it, how long scoring and
//! serialisation took, and how it ended. Records are *sampled* (see
//! [`crate::telemetry::Telemetry`]) and kept in a [`RecordRing`] — a
//! fixed-capacity overwrite-oldest buffer.
//!
//! ## Ring semantics
//!
//! The ring is a `VecDeque` behind a `Mutex`. A push takes the lock,
//! evicts the oldest record when the ring is full and appends the new
//! one; a snapshot takes the lock and copies. At most one record is
//! filed per request, and only under sampling. At the serve
//! benchmark's rates (≤ ~1.4k req/s on a 2-core host) that is a
//! short critical section a few thousand times a second: nothing a
//! lock-free design would win back. The deque grows on demand up to
//! its capacity, so an idle or disabled ring allocates nothing.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
}

/// One request's lifecycle trail. All times are microseconds; `arrival_us`
/// is measured from the owning [`crate::telemetry::Telemetry`]'s start,
/// the rest are durations of lifecycle phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// The connection that sent the request, numbered from 1 by the
    /// server's accept loop (`0` = an in-process submission). With
    /// `id` it names the request uniquely: clients number their ids
    /// from 0, so ids alone repeat across connections.
    pub conn: u64,
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

/// Fixed-capacity overwrite-oldest record store: a `Mutex`-guarded
/// deque that keeps the most recent `capacity` records.
#[derive(Debug)]
pub struct RecordRing {
    capacity: usize,
    state: Mutex<RingState>,
}

#[derive(Debug, Default)]
struct RingState {
    records: VecDeque<RequestRecord>,
    /// Every push since creation, evicted records included.
    pushed: u64,
}

impl RecordRing {
    /// A ring holding the most recent `capacity.max(1)` records.
    pub fn new(capacity: usize) -> Self {
        RecordRing { capacity: capacity.max(1), state: Mutex::default() }
    }

    /// How many records this ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total pushes since creation (kept or since overwritten).
    pub fn pushed(&self) -> u64 {
        self.lock().pushed
    }

    /// Stores `record`, evicting the oldest entry when the ring is full.
    pub fn push(&self, record: &RequestRecord) {
        let mut state = self.lock();
        if state.records.len() == self.capacity {
            state.records.pop_front();
        }
        state.records.push_back(*record);
        state.pushed += 1;
    }

    /// A copy of every stored record, oldest arrival first.
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let mut records: Vec<RequestRecord> = self.lock().records.iter().copied().collect();
        records.sort_by_key(|r| (r.arrival_us, r.id));
        records
    }

    /// The ring state. A push or snapshot cannot panic while holding
    /// the lock, so a poisoned lock still guards whole records: recover
    /// it rather than take the serve path down.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> RequestRecord {
        RequestRecord {
            conn: id % 3,
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
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let ring = RecordRing::new(4);
        for id in 1..=10 {
            ring.push(&record(id));
        }
        let got = ring.snapshot();
        assert_eq!(got, (7..=10).map(record).collect::<Vec<_>>(), "only the newest 4 survive");
        assert_eq!(ring.pushed(), 10);
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
        }
    }
}
